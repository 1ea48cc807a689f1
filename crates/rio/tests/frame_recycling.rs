//! Recycled page frames and page maps are invisible.
//!
//! Arenas hand the frames they drop to a per-thread free list and take
//! from it when they materialize or clone a page; a dropped arena's
//! emptied page map goes to the same list, for the next arena built or
//! cloned. One thread here builds, writes, copies, clones and drops
//! arenas of every page length in any order, so later arenas run on
//! frames that earlier ones filled and on maps that equal-length ones
//! held, and each arena must still read exactly as a fresh-arena model
//! says.

use std::collections::BTreeSet;

use dsnrep_rio::Arena;
use dsnrep_simcore::{Addr, Halted, Region};
use proptest::prelude::*;

/// Arena lengths whose pages are 4, 8, 16 and 64 KiB.
const LENS: [u64; 4] = [64 << 10, 6 << 20, 12 << 20, 40 << 20];
/// An arena of 1 024 pages of 4 KiB: more frames than the free list
/// keeps.
const FLOOD_LEN: u64 = 4 << 20;

/// What a fresh arena would hold after the same calls.
#[derive(Clone, Debug)]
struct Model {
    page: usize,
    /// The window's bytes: three pages and a bit of a fourth.
    bytes: Vec<u8>,
    /// Pages some write or copy put a nonzero byte in.
    touched: BTreeSet<usize>,
    writes: u64,
    budget: Option<u64>,
}

impl Model {
    fn new(page: usize) -> Self {
        Model {
            page,
            bytes: vec![0; 3 * page + 1234],
            touched: BTreeSet::new(),
            writes: 0,
            budget: None,
        }
    }

    /// A write of `data` at `at` under the armed budget.
    fn write(&mut self, at: usize, data: &[u8]) -> Result<(), Halted> {
        match &mut self.budget {
            Some(0) => return Err(Halted),
            Some(budget) => *budget -= 1,
            None => {}
        }
        self.writes += 1;
        let nonzero = data.iter().enumerate().filter(|(_, &b)| b != 0);
        self.touched
            .extend(nonzero.map(|(i, _)| (at + i) / self.page));
        self.bytes[at..at + data.len()].copy_from_slice(data);
        Ok(())
    }
}

#[derive(Clone, Debug)]
enum Op {
    /// A fresh arena of `LENS[class]` bytes.
    Build {
        class: usize,
    },
    /// Write `len` bytes at a point of the window: zeros, or a
    /// nonzero-led pattern.
    Write {
        arena: usize,
        at: usize,
        len: usize,
        zero: bool,
    },
    /// Copy `len` bytes within the window (skipped if the runs overlap).
    Copy {
        arena: usize,
        src: usize,
        dst: usize,
        len: usize,
    },
    Clone {
        arena: usize,
    },
    Drop {
        arena: usize,
    },
    /// Arm a write budget, or clear it.
    Arm {
        arena: usize,
        budget: Option<u64>,
    },
    /// Build an arena, materialize every page and drop it: the free list
    /// fills, and every later drop finds it full until a page takes a
    /// frame from it.
    Flood,
}

/// Arena picks, points and lengths are drawn wide and taken modulo what
/// the chosen arena holds.
fn ops() -> impl Strategy<Value = Vec<Op>> {
    let wide = || 0usize..1 << 20;
    let op = prop_oneof![
        2 => (0..LENS.len()).prop_map(|class| Op::Build { class }),
        6 => (wide(), wide(), wide(), any::<bool>())
            .prop_map(|(arena, at, len, zero)| Op::Write { arena, at, len, zero }),
        3 => (wide(), wide(), wide(), wide())
            .prop_map(|(arena, src, dst, len)| Op::Copy { arena, src, dst, len }),
        2 => wide().prop_map(|arena| Op::Clone { arena }),
        2 => wide().prop_map(|arena| Op::Drop { arena }),
        // A budget of 0-2 writes, or (3) none.
        1 => (wide(), 0u64..4).prop_map(|(arena, budget)| Op::Arm {
            arena,
            budget: (budget < 3).then_some(budget),
        }),
        1 => Just(Op::Flood),
    ];
    prop::collection::vec(op, 1..60)
}

/// A run length up to two pages, or a short one.
fn run_len(len: usize, page: usize, room: usize) -> usize {
    let span = if len.is_multiple_of(2) { 256 } else { 2 * page };
    (len % span).min(room)
}

fn check(arena: &Arena, model: &Model) -> Result<(), TestCaseError> {
    let bytes = arena.read_vec(Addr::new(0), model.bytes.len());
    prop_assert!(bytes == model.bytes, "contents diverged from the model");
    prop_assert_eq!(arena.pages_touched(), model.touched.len());
    prop_assert_eq!(arena.writes(), model.writes);
    Ok(())
}

fn run(ops: Vec<Op>) -> Result<(), TestCaseError> {
    let mut live: Vec<(Arena, Model)> = Vec::new();
    for op in ops {
        let n = live.len();
        match op {
            Op::Build { class } => {
                let arena = Arena::new(LENS[class]);
                let model = Model::new(arena.page_len());
                live.push((arena, model));
            }
            Op::Clone { arena } if n > 0 => {
                let (a, model) = &live[arena % n];
                let copy = (a.clone(), model.clone());
                live.push(copy);
            }
            Op::Drop { arena } if n > 0 => drop(live.swap_remove(arena % n)),
            Op::Flood => {
                let mut flood = Arena::new(FLOOD_LEN);
                let page = flood.page_len() as u64;
                for p in 0..FLOOD_LEN / page {
                    flood.write(Addr::new(p * page), &[0xA5]);
                }
                prop_assert_eq!(flood.pages_touched() as u64, FLOOD_LEN / page);
            }
            Op::Arm { arena, budget } if n > 0 => {
                let (a, model) = &mut live[arena % n];
                match budget {
                    Some(budget) => a.inject_halt_after_writes(budget),
                    None => a.clear_halt(),
                }
                model.budget = budget;
            }
            Op::Write {
                arena,
                at,
                len,
                zero,
            } if n > 0 => {
                let (a, model) = &mut live[arena % n];
                let at = at % model.bytes.len();
                let len = run_len(len, model.page, model.bytes.len() - at);
                let data: Vec<u8> = (0..len)
                    .map(|i| if zero { 0 } else { (i % 251) as u8 + 1 })
                    .collect();
                let before = a.read_vec(Addr::new(0), model.bytes.len());
                let result = a.try_write(Addr::new(at as u64), &data);
                prop_assert_eq!(result, model.write(at, &data));
                if result.is_err() {
                    let after = a.read_vec(Addr::new(0), model.bytes.len());
                    prop_assert!(after == before, "a halted write mutated the arena");
                }
            }
            Op::Copy {
                arena,
                src,
                dst,
                len,
            } if n > 0 => {
                let (a, model) = &mut live[arena % n];
                let window = model.bytes.len();
                let (src, dst) = (src % window, dst % window);
                let len = run_len(len, model.page, window - src.max(dst));
                let (s, d) = (Addr::new(src as u64), Addr::new(dst as u64));
                if Region::new(s, len as u64).overlaps(Region::new(d, len as u64)) {
                    continue;
                }
                let data = model.bytes[src..src + len].to_vec();
                prop_assert_eq!(a.try_copy(s, d, len), model.write(dst, &data));
            }
            _ => continue,
        }
        for (a, model) in &live {
            check(a, model)?;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every case runs on this test's thread, so its arenas also take
    /// the frames and maps that earlier cases dropped.
    #[test]
    fn recycled_frames_read_as_fresh_ones(ops in ops()) {
        run(ops)?;
    }
}

/// A thread's second build of the same arena takes its frames and maps
/// from what the first one dropped; 64 KiB pages are not kept, their
/// maps are.
#[test]
fn a_rebuilt_arena_takes_no_frame_from_the_heap() {
    std::thread::spawn(|| {
        let fill = |len: u64| {
            let mut arena = Arena::new(len);
            let page = arena.page_len() as u64;
            for p in 0..8 {
                arena.write(Addr::new(p * page + 3), &[p as u8 + 1]);
            }
            let copy = arena.clone();
            assert_eq!(copy.pages_touched(), 8);
            assert_eq!(copy.read_vec(Addr::new(7 * page + 3), 1), [8]);
        };
        // Frames and maps taken; the arena and its clone each take a map.
        for (len, taken) in [
            (64 << 10, (16, 2)),
            (64 << 10, (0, 0)),
            (40 << 20, (16, 2)),
            (40 << 20, (16, 0)),
        ] {
            let before = (Arena::heap_frames(), Arena::heap_maps());
            fill(len);
            let after = (Arena::heap_frames(), Arena::heap_maps());
            assert_eq!(
                (after.0 - before.0, after.1 - before.1),
                taken,
                "an arena of {len} bytes"
            );
        }
    })
    .join()
    .expect("the arenas ran");
}

thread_local! {
    static HELD: std::cell::RefCell<Option<Arena>> = const { std::cell::RefCell::new(None) };
}

/// An arena dropped while its thread's locals are torn down, the frame
/// list's among them, frees its frames instead of panicking.
#[test]
fn an_arena_dropped_at_thread_exit_does_not_panic() {
    for first in [false, true] {
        std::thread::spawn(move || {
            if first {
                // The free list is in use before the arena is stored.
                drop(Arena::new(1 << 16).clone());
                let mut a = Arena::new(1 << 16);
                a.write(Addr::new(0), &[1]);
            }
            let mut arena = Arena::new(1 << 16);
            arena.write(Addr::new(5000), &[1]);
            HELD.with(|held| *held.borrow_mut() = Some(arena));
        })
        .join()
        .expect("thread-local teardown dropped the arena quietly");
    }
}
