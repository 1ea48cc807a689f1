//! The strided-store bandwidth micro-benchmark (paper §2.3, Figure 1).
//!
//! The paper approximates the Memory Channel packet-size/bandwidth curve by
//! writing a large region with varying strides of 4-byte words: stride 1
//! dirties whole 32-byte write buffers (32-byte packets), stride 2 dirties
//! 16 bytes per buffer, and so on down to one 4-byte word per buffer.
//! Effective bandwidth is useful (dirty) bytes per unit of link busy time.

use std::cell::RefCell;
use std::rc::Rc;

use dsnrep_simcore::{Addr, Clock, CostModel, TrafficClass, VirtualInstant, MIB};

use crate::link::Link;
use crate::port::TxPort;

/// One measured point of the Figure 1 sweep.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BandwidthPoint {
    /// The stride, in 4-byte words, between consecutive stores.
    pub stride_words: u64,
    /// Resulting packet payload in bytes (32 / stride).
    pub packet_bytes: u64,
    /// Effective process-to-process bandwidth in MB/s (mebibytes).
    pub mib_per_sec: f64,
}

/// Measures effective bandwidth when writing `total_bytes` of address space
/// with stores of one 4-byte word every `stride_words` words.
///
/// # Panics
///
/// Panics if `stride_words` is zero or `total_bytes` is zero.
///
/// # Examples
///
/// ```
/// use dsnrep_mcsim::measure_stride_bandwidth;
/// use dsnrep_simcore::CostModel;
///
/// let costs = CostModel::alpha_21164a();
/// let full = measure_stride_bandwidth(&costs, 1, 1 << 20);
/// let quarter = measure_stride_bandwidth(&costs, 8, 1 << 20);
/// assert_eq!(full.packet_bytes, 32);
/// assert_eq!(quarter.packet_bytes, 4);
/// assert!(full.mib_per_sec > 4.0 * quarter.mib_per_sec);
/// ```
pub fn measure_stride_bandwidth(
    costs: &CostModel,
    stride_words: u64,
    total_bytes: u64,
) -> BandwidthPoint {
    assert!(stride_words > 0, "stride must be positive");
    assert!(total_bytes > 0, "must write something");
    let link = Rc::new(RefCell::new(Link::new(costs)));
    let mut port = TxPort::sink_only(costs, Rc::clone(&link));
    let mut clock = Clock::new();

    let word = [0xA5u8; 4];
    let stride_bytes = stride_words * 4;
    let mut addr = 0u64;
    // The port is fresh, so no fault budget is armed: it never halts.
    while addr < total_bytes {
        port.store(&mut clock, Addr::new(addr), &word, TrafficClass::Modified)
            .expect("an unarmed port never halts");
        addr += stride_bytes;
    }
    port.barrier(&mut clock)
        .expect("an unarmed port never halts");

    let link = link.borrow();
    let dirty = link.traffic().total_bytes();
    let busy = link
        .busy_until()
        .saturating_duration_since(VirtualInstant::EPOCH);
    BandwidthPoint {
        stride_words,
        packet_bytes: (32 / stride_words).max(4),
        mib_per_sec: dirty as f64 / MIB as f64 / busy.as_secs_f64(),
    }
}

/// Runs the full Figure 1 sweep: strides 8, 4, 2, 1 producing 4-, 8-, 16-
/// and 32-byte packets.
pub fn figure1_sweep(costs: &CostModel, total_bytes: u64) -> Vec<BandwidthPoint> {
    [8u64, 4, 2, 1]
        .iter()
        .map(|&s| measure_stride_bandwidth(costs, s, total_bytes))
        .collect()
}

/// Measures the uncontended one-way latency of a 4-byte remote write: the
/// span from the store instruction to the value being visible in the
/// remote node's memory (the paper measures 3.3 us, §2.3).
pub fn measure_write_latency(costs: &CostModel) -> dsnrep_simcore::VirtualDuration {
    let link = Rc::new(RefCell::new(Link::new(costs)));
    let mut port = TxPort::sink_only(costs, Rc::clone(&link));
    let mut clock = Clock::new();
    let issued = clock.now();
    port.store(&mut clock, Addr::new(0), &[1u8; 4], TrafficClass::Meta)
        .and_then(|()| port.barrier(&mut clock))
        .expect("an unarmed port never halts");
    port.last_delivered().duration_since(issued)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_shape_is_reproduced() {
        // Paper Figure 1 reads roughly: 4 B -> ~14 MB/s, 8 B -> ~25 MB/s,
        // 16 B -> ~45 MB/s, 32 B -> 80 MB/s.
        let costs = CostModel::alpha_21164a();
        let sweep = figure1_sweep(&costs, 1 << 20);
        let by_size: Vec<(u64, f64)> = sweep
            .iter()
            .map(|p| (p.packet_bytes, p.mib_per_sec))
            .collect();
        assert_eq!(by_size.len(), 4);
        let bw = |size: u64| {
            by_size
                .iter()
                .find(|(s, _)| *s == size)
                .map(|(_, b)| *b)
                .expect("size present")
        };
        assert!((12.0..16.0).contains(&bw(4)), "4B: {}", bw(4));
        assert!((22.0..29.0).contains(&bw(8)), "8B: {}", bw(8));
        assert!((40.0..52.0).contains(&bw(16)), "16B: {}", bw(16));
        assert!((74.0..84.0).contains(&bw(32)), "32B: {}", bw(32));
    }

    #[test]
    fn bandwidth_monotone_in_packet_size() {
        let costs = CostModel::alpha_21164a();
        let sweep = figure1_sweep(&costs, 1 << 19);
        for w in sweep.windows(2) {
            assert!(w[0].mib_per_sec < w[1].mib_per_sec, "{w:?}");
        }
    }

    #[test]
    fn write_latency_matches_the_paper() {
        // Paper: 3.3 us uncontended for a 4-byte write. Our model: packet
        // service (~270 ns) + link latency (3.3 us).
        let costs = CostModel::alpha_21164a();
        let us = measure_write_latency(&costs).as_micros_f64();
        assert!((3.2..4.0).contains(&us), "{us} us");
    }

    #[test]
    fn stride_controls_packet_size() {
        let costs = CostModel::alpha_21164a();
        let p = measure_stride_bandwidth(&costs, 2, 1 << 16);
        assert_eq!(p.packet_bytes, 16);
    }
}
