//! A performance model of the Memory Channel II system-area network.
//!
//! The paper's cluster is two AlphaServers joined by a Memory Channel II: a
//! "write-through" SAN where stores to a locally mapped I/O region are
//! DMA-ed into the physical memory of the remote node, with no remote
//! software on the data path. This crate models the three mechanisms that
//! the paper's results hinge on:
//!
//! 1. **Write-buffer coalescing** ([`WriteBufferSet`]): six 32-byte buffers
//!    merge contiguous stores; a flushed buffer is one PCI transaction and
//!    hence one Memory Channel packet of the same size. Sequential log
//!    writes ride 32-byte packets; scattered in-place writes ride 4-byte
//!    packets.
//! 2. **An affine-cost FIFO link** ([`Link`]): each packet costs
//!    `overhead + per_byte * payload`, calibrated from the paper's Figure 1
//!    endpoints (~14 MB/s at 4-byte packets, 80 MB/s at 32-byte packets),
//!    with a 3.3 µs delivery latency.
//! 3. **Posted-write flow control** ([`TxPort`]): the processor keeps
//!    issuing cheap posted stores until the in-flight window fills, then
//!    stalls — so a stream is limited by `max(cpu, link)`, not their sum.
//!
//! Traffic is accounted per [`TrafficClass`](dsnrep_simcore::TrafficClass)
//! ([`Traffic`]), reproducing the modified/undo/meta breakdown of the
//! paper's Tables 2, 5 and 7, and the strided-store sweep of Figure 1 is
//! available as [`measure_stride_bandwidth`].
//!
//! # Examples
//!
//! Write-through replication of a byte range:
//!
//! ```
//! use std::cell::RefCell;
//! use std::rc::Rc;
//! use dsnrep_mcsim::{Link, TxPort};
//! use dsnrep_rio::Arena;
//! use dsnrep_simcore::{Addr, Clock, CostModel, TrafficClass};
//!
//! let costs = CostModel::alpha_21164a();
//! let link = Rc::new(RefCell::new(Link::new(&costs)));
//! let backup = Rc::new(RefCell::new(Arena::new(1 << 16)));
//! let mut port = TxPort::new(&costs, Rc::clone(&link), Rc::clone(&backup));
//! let mut clock = Clock::new();
//!
//! port.store(&mut clock, Addr::new(0), &[42; 64], TrafficClass::Undo)?;
//! port.quiesce(&mut clock)?;
//! assert_eq!(backup.borrow().read_vec(Addr::new(0), 64), vec![42; 64]);
//! assert_eq!(link.borrow().traffic().total_bytes(), 64);
//! # Ok::<(), dsnrep_simcore::Halted>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod fabric;
mod link;
mod port;
mod stride;
mod traffic;
mod wbuf;

pub use fabric::{Fabric, PairKey};
pub use link::{Link, PacketTiming};
pub use port::{ForwardDue, Packet, TxPort};
pub use stride::{figure1_sweep, measure_stride_bandwidth, measure_write_latency, BandwidthPoint};
pub use traffic::Traffic;
pub use wbuf::{DirtyRuns, FlushedBuffer, WriteBufferSet, BLOCK};
