//! A per-thread free list of arena page frames and page maps.
//!
//! A fault plan builds a cluster, crashes it, recovers and drops it, so
//! every plan materializes and then frees the same few dozen small pages.
//! Each thread keeps the frames its arenas drop and hands them to the
//! next page it materializes or clones, zeroed or overwritten first, so
//! nothing can tell a recycled frame from a fresh one. The list is
//! bounded: it keeps at most [`KEPT_FRAMES`] frames, and none longer than
//! [`KEPT_PAGE_LEN`] (the large pages of big arenas are materialized once
//! per run, not once per plan).
//!
//! Beside the frames it keeps up to [`KEPT_MAPS`] emptied page maps for
//! the next arena built or cloned.

use std::cell::{Cell, RefCell};

use dsnrep_simcore::listed::{Drain, KeptMaps, ListedMap};

use crate::arena::MIN_PAGE_LEN;

const MIN_PAGE_SHIFT: u32 = MIN_PAGE_LEN.trailing_zeros();
/// Longest page the free list keeps.
const KEPT_PAGE_LEN: usize = 16 * 1024;
/// Frames the free list keeps at most, over every page length.
const KEPT_FRAMES: usize = 512;
/// Page lengths the free list keeps: 4, 8 and 16 KiB.
const CLASSES: usize = (KEPT_PAGE_LEN.trailing_zeros() - MIN_PAGE_SHIFT + 1) as usize;
/// Page maps the free list keeps at most.
const KEPT_MAPS: usize = 16;
/// Longest page map the free list keeps: every arena up to 64 MiB has at
/// most this many pages, so a map holds at most 16 KiB of slots.
const KEPT_MAP_LEN: usize = 1024;

/// An arena's page map: a slot per page, holding its frame once
/// materialized.
pub(crate) type PageMap = ListedMap<Box<[u8]>>;

/// Free frames, one list per kept page length.
struct FreeFrames {
    lists: [Vec<Box<[u8]>>; CLASSES],
    kept: usize,
}

thread_local! {
    static FREE: RefCell<FreeFrames> = const {
        RefCell::new(FreeFrames {
            lists: [const { Vec::new() }; CLASSES],
            kept: 0,
        })
    };
    static MAPS: RefCell<KeptMaps<Box<[u8]>>> =
        const { RefCell::new(KeptMaps::new(KEPT_MAPS, KEPT_MAP_LEN)) };
    static HEAP_FRAMES: Cell<u64> = const { Cell::new(0) };
}

/// The free list of frames of `len` bytes, if the list keeps that length.
fn class(len: usize) -> Option<usize> {
    (len <= KEPT_PAGE_LEN).then(|| (len.trailing_zeros() - MIN_PAGE_SHIFT) as usize)
}

/// A kept frame of `len` bytes, holding whatever its last page held.
fn reuse(len: usize) -> Option<Box<[u8]>> {
    let class = class(len)?;
    FREE.try_with(|free| {
        let mut free = free.borrow_mut();
        let frame = free.lists[class].pop()?;
        free.kept -= 1;
        Some(frame)
    })
    .ok()
    .flatten()
}

/// Counts a frame taken from the heap.
fn count_heap_frame() {
    let _ = HEAP_FRAMES.try_with(|n| n.set(n.get() + 1));
}

/// A page frame of `len` bytes, all zero.
pub(crate) fn zeroed(len: usize) -> Box<[u8]> {
    match reuse(len) {
        Some(mut frame) => {
            frame.fill(0);
            frame
        }
        None => {
            count_heap_frame();
            vec![0u8; len].into_boxed_slice()
        }
    }
}

/// A page frame holding a copy of `page`.
pub(crate) fn copy_of(page: &[u8]) -> Box<[u8]> {
    match reuse(page.len()) {
        Some(mut frame) => {
            frame.copy_from_slice(page);
            frame
        }
        None => {
            count_heap_frame();
            Box::from(page)
        }
    }
}

/// Hands a drained map's frames back to this thread's free list; those
/// it does not keep are freed with the drain. Safe to call while the
/// thread's locals are being torn down: the frames are then freed.
fn recycle(frames: Drain<'_, Box<[u8]>>) {
    let _ = FREE.try_with(|free| {
        let mut free = free.borrow_mut();
        for frame in frames {
            if free.kept == KEPT_FRAMES {
                return;
            }
            if let Some(class) = class(frame.len()) {
                free.lists[class].push(frame);
                free.kept += 1;
            }
        }
    });
}

/// Page frames this thread's arenas have taken from the heap so far: the
/// pages they materialized or cloned that the free list could not supply.
pub(crate) fn heap_frames() -> u64 {
    HEAP_FRAMES.try_with(Cell::get).unwrap_or(0)
}

/// An empty page map of `len` slots, one this thread kept if it can be.
pub(crate) fn empty_map(len: usize) -> PageMap {
    MAPS.try_with(|maps| maps.borrow_mut().take_empty(len))
        .unwrap_or_else(|_| ListedMap::new(len))
}

/// Hands a dropped arena's page map back: its frames to the frame list,
/// then the emptied map to the map list.
pub(crate) fn recycle_map(mut map: PageMap) {
    recycle(map.drain());
    let _ = MAPS.try_with(|maps| maps.borrow_mut().give_back(map));
}

/// Page maps this thread's arenas have taken from the heap so far: the
/// arenas built or cloned that found no kept map long enough.
pub(crate) fn heap_maps() -> u64 {
    MAPS.try_with(|maps| maps.borrow().heap_maps()).unwrap_or(0)
}
