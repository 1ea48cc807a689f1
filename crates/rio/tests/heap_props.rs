//! Property tests for the recoverable free-list heap.

use dsnrep_rio::{Arena, FreeListHeap, RawMem};
use dsnrep_simcore::{Addr, Region};
use proptest::prelude::*;

/// A random allocator action.
#[derive(Clone, Debug)]
enum Action {
    Alloc(u16),
    /// Frees the live allocation at this index (mod live count).
    Free(u8),
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        3 => (1u16..512).prop_map(Action::Alloc),
        2 => any::<u8>().prop_map(Action::Free),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After any sequence of allocations and frees: the boundary-tag walk
    /// and free-list stay consistent, live payloads never overlap, and
    /// payload contents are never disturbed by other operations.
    #[test]
    fn heap_invariants_hold(actions in prop::collection::vec(action_strategy(), 1..120)) {
        let cap: u64 = 1 << 16;
        let mut arena = Arena::new(cap);
        let region = Region::new(Addr::new(0), cap);
        let heap = {
            let mut mem = RawMem::new(&mut arena);
            FreeListHeap::format(&mut mem, region).unwrap()
        };

        // (payload, size, fill byte)
        let mut live: Vec<(Addr, u64, u8)> = Vec::new();
        let mut fill: u8 = 0;

        for action in &actions {
            let mut mem = RawMem::new(&mut arena);
            match action {
                Action::Alloc(size) => {
                    let size = u64::from(*size);
                    if let Ok(p) = heap.alloc(&mut mem, size).unwrap() {
                        // No overlap with any live allocation.
                        let r = Region::new(p, size);
                        for (q, qs, _) in &live {
                            prop_assert!(!r.overlaps(Region::new(*q, *qs)),
                                "new allocation {r} overlaps live {q}+{qs}");
                        }
                        fill = fill.wrapping_add(1);
                        mem.arena().write(p, &vec![fill; size as usize]);
                        live.push((p, size, fill));
                    }
                }
                Action::Free(idx) => {
                    if !live.is_empty() {
                        let i = *idx as usize % live.len();
                        let (p, size, expected) = live.swap_remove(i);
                        // Contents survived all interleaved operations.
                        let data = mem.arena().read_vec(p, size as usize);
                        prop_assert!(data.iter().all(|&b| b == expected),
                            "payload at {p} was disturbed");
                        heap.free(&mut mem, p).unwrap();
                    }
                }
            }
        }

        let mut mem = RawMem::new(&mut arena);
        let stats = heap.check_consistency(&mut mem)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(stats.live_allocs, live.len() as u64);

        // Free everything; the heap must coalesce back to a single block.
        for (p, _, _) in live {
            heap.free(&mut mem, p).unwrap();
        }
        let stats = heap.check_consistency(&mut mem)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(stats.live_allocs, 0);
        prop_assert_eq!(stats.free_blocks, 1);
        prop_assert_eq!(stats.blocks, 1);
    }

    /// The heap handle can be dropped and re-attached (a crash/reboot) at
    /// any point without losing consistency.
    #[test]
    fn heap_survives_reattach(count in 1usize..40) {
        let cap: u64 = 1 << 15;
        let mut arena = Arena::new(cap);
        let region = Region::new(Addr::new(0), cap);
        let heap = {
            let mut mem = RawMem::new(&mut arena);
            FreeListHeap::format(&mut mem, region).unwrap()
        };
        let mut live = Vec::new();
        for i in 0..count {
            let mut mem = RawMem::new(&mut arena);
            if let Ok(p) = heap.alloc(&mut mem, (i as u64 % 96) + 8).unwrap() {
                live.push(p);
            }
        }
        // "Crash": only the arena survives.
        let heap = FreeListHeap::attach(region);
        let mut mem = RawMem::new(&mut arena);
        let stats = heap.check_consistency(&mut mem)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(stats.live_allocs, live.len() as u64);
        for p in live {
            heap.free(&mut mem, p).unwrap();
        }
        prop_assert_eq!(heap.stats(&mut mem).live_allocs, 0);
    }
}
