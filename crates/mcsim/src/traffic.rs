//! Traffic accounting by class and packet size.
//!
//! The paper reports, for every design, the bytes shipped to the backup
//! broken into *modified data*, *undo data* and *meta-data* (Tables 2, 5
//! and 7), and explains throughput differences through the *packet size
//! distribution* those bytes travel in (Figure 1). This module records both.

use core::fmt;

use dsnrep_simcore::{bytes_to_mib, TrafficClass};

/// Byte, packet and packet-size statistics for one link.
///
/// # Examples
///
/// ```
/// use dsnrep_mcsim::Traffic;
/// use dsnrep_simcore::TrafficClass;
///
/// let mut t = Traffic::new();
/// t.record_packet(TrafficClass::Modified, 32);
/// t.record_packet(TrafficClass::Meta, 4);
/// assert_eq!(t.total_bytes(), 36);
/// assert_eq!(t.packets(TrafficClass::Meta), 1);
/// assert!((t.mean_packet_size() - 18.0).abs() < 1e-9);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Traffic {
    bytes: [u64; 3],
    packets: [u64; 3],
    /// Histogram over payload sizes 0..=32 (index = size in bytes).
    size_hist: [u64; 33],
}

impl Default for Traffic {
    fn default() -> Self {
        Traffic {
            bytes: [0; 3],
            packets: [0; 3],
            size_hist: [0; 33],
        }
    }
}

impl Traffic {
    /// Creates empty statistics.
    pub fn new() -> Self {
        Traffic::default()
    }

    /// Records one packet of `payload` bytes in `class`.
    ///
    /// # Panics
    ///
    /// Panics if `payload` exceeds the 32-byte Memory Channel maximum.
    pub fn record_packet(&mut self, class: TrafficClass, payload: u64) {
        let mut class_bytes = [0u64; 3];
        class_bytes[class.index()] = payload;
        self.record_mixed_packet(class_bytes);
    }

    /// Records one packet whose payload mixes traffic classes (e.g. a log
    /// record header and its in-line data). The packet count is attributed
    /// to the class with the most bytes.
    ///
    /// # Panics
    ///
    /// Panics if the total payload exceeds the 32-byte Memory Channel
    /// maximum.
    pub fn record_mixed_packet(&mut self, class_bytes: [u64; 3]) {
        let payload: u64 = class_bytes.iter().sum();
        assert!(
            payload <= 32,
            "memory channel packets carry at most 32 bytes"
        );
        let mut major = 0;
        for i in 0..3 {
            self.bytes[i] += class_bytes[i];
            if class_bytes[i] > class_bytes[major] {
                major = i;
            }
        }
        self.packets[major] += 1;
        self.size_hist[payload as usize] += 1;
    }

    /// Bytes shipped in `class`.
    pub fn bytes(&self, class: TrafficClass) -> u64 {
        self.bytes[class.index()]
    }

    /// Packets shipped in `class`.
    pub fn packets(&self, class: TrafficClass) -> u64 {
        self.packets[class.index()]
    }

    /// Total bytes across all classes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Total packets across all classes.
    pub fn total_packets(&self) -> u64 {
        self.packets.iter().sum()
    }

    /// Bytes in `class`, in the paper's MB units (mebibytes).
    pub fn mib(&self, class: TrafficClass) -> f64 {
        bytes_to_mib(self.bytes(class))
    }

    /// Total traffic in mebibytes.
    pub fn total_mib(&self) -> f64 {
        bytes_to_mib(self.total_bytes())
    }

    /// Mean packet payload size in bytes (0 if no packets).
    pub fn mean_packet_size(&self) -> f64 {
        let packets = self.total_packets();
        if packets == 0 {
            0.0
        } else {
            self.total_bytes() as f64 / packets as f64
        }
    }

    /// Fraction of packets carrying a full 32-byte payload.
    pub fn full_packet_fraction(&self) -> f64 {
        let packets = self.total_packets();
        if packets == 0 {
            0.0
        } else {
            self.size_hist[32] as f64 / packets as f64
        }
    }

    /// Adds `other`'s counts into `self`.
    pub fn merge(&mut self, other: &Traffic) {
        for i in 0..3 {
            self.bytes[i] += other.bytes[i];
            self.packets[i] += other.packets[i];
        }
        for i in 0..33 {
            self.size_hist[i] += other.size_hist[i];
        }
    }
}

impl fmt::Display for Traffic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "modified {:.1} MB, undo {:.1} MB, meta {:.1} MB (total {:.1} MB in {} packets, mean {:.1} B)",
            self.mib(TrafficClass::Modified),
            self.mib(TrafficClass::Undo),
            self.mib(TrafficClass::Meta),
            self.total_mib(),
            self.total_packets(),
            self.mean_packet_size(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_class_accumulation() {
        let mut t = Traffic::new();
        t.record_packet(TrafficClass::Modified, 8);
        t.record_packet(TrafficClass::Modified, 8);
        t.record_packet(TrafficClass::Undo, 32);
        assert_eq!(t.bytes(TrafficClass::Modified), 16);
        assert_eq!(t.packets(TrafficClass::Modified), 2);
        assert_eq!(t.bytes(TrafficClass::Undo), 32);
        assert_eq!(t.bytes(TrafficClass::Meta), 0);
        assert_eq!(t.total_bytes(), 48);
        assert_eq!(t.total_packets(), 3);
    }

    #[test]
    fn histogram_and_fraction() {
        let mut t = Traffic::new();
        t.record_packet(TrafficClass::Meta, 32);
        t.record_packet(TrafficClass::Meta, 32);
        t.record_packet(TrafficClass::Meta, 4);
        assert!((t.full_packet_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = Traffic::new();
        a.record_packet(TrafficClass::Modified, 16);
        let mut b = Traffic::new();
        b.record_packet(TrafficClass::Modified, 16);
        b.record_packet(TrafficClass::Meta, 1);
        a.merge(&b);
        assert_eq!(a.total_bytes(), 33);
        assert_eq!(a.total_packets(), 3);
    }

    #[test]
    fn mib_conversion() {
        let mut t = Traffic::new();
        for _ in 0..32768 {
            t.record_packet(TrafficClass::Undo, 32);
        }
        assert!((t.mib(TrafficClass::Undo) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn oversized_packet_rejected() {
        Traffic::new().record_packet(TrafficClass::Meta, 33);
    }

    #[test]
    fn empty_display_has_no_nan() {
        let t = Traffic::new();
        assert!(t.to_string().contains("0 packets"));
        assert_eq!(t.mean_packet_size(), 0.0);
    }
}
