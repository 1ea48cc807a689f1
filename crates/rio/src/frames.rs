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

use std::cell::RefCell;

use dsnrep_simcore::listed::{KeptMaps, ListedMap};

use crate::arena::MIN_PAGE_LEN;

const MIN_PAGE_SHIFT: u32 = MIN_PAGE_LEN.trailing_zeros();
/// Longest page the free list keeps.
const KEPT_PAGE_LEN: usize = 16 * 1024;
/// Frames the free list keeps at most, over every page length.
const KEPT_FRAMES: usize = 512;
/// Page maps the free list keeps at most.
const KEPT_MAPS: usize = 16;
/// Longest page map the free list keeps: every arena up to 64 MiB has at
/// most this many pages, so a map holds at most 16 KiB of slots.
const KEPT_MAP_LEN: usize = 1024;

/// An arena's page map: a slot per page, holding its frame once
/// materialized.
pub(crate) type PageMap = ListedMap<Box<[u8]>>;

thread_local! {
    /// Frames, one list per kept page length (4, 8 and 16 KiB), and
    /// emptied page maps.
    static KEPT: RefCell<KeptMaps<Box<[u8]>>> = const {
        RefCell::new(KeptMaps::new(KEPT_MAPS, KEPT_MAP_LEN, KEPT_FRAMES, |frame| {
            class(frame.len())
        }))
    };
}

/// The free list of frames of `len` bytes, if the list keeps that length.
fn class(len: usize) -> Option<usize> {
    (len <= KEPT_PAGE_LEN).then(|| (len.trailing_zeros() - MIN_PAGE_SHIFT) as usize)
}

/// A kept frame of `len` bytes, holding whatever its last page held;
/// `None` counts a frame the caller takes from the heap.
fn reuse(len: usize) -> Option<Box<[u8]>> {
    KEPT.try_with(|kept| kept.borrow_mut().take_value(class(len)))
        .ok()
        .flatten()
}

/// A page frame of `len` bytes, all zero.
pub(crate) fn zeroed(len: usize) -> Box<[u8]> {
    match reuse(len) {
        Some(mut frame) => {
            frame.fill(0);
            frame
        }
        None => vec![0u8; len].into_boxed_slice(),
    }
}

/// A page frame holding a copy of `page`.
pub(crate) fn copy_of(page: &[u8]) -> Box<[u8]> {
    match reuse(page.len()) {
        Some(mut frame) => {
            frame.copy_from_slice(page);
            frame
        }
        None => Box::from(page),
    }
}

/// Page frames this thread's arenas have taken from the heap so far: the
/// pages they materialized or cloned that the free list could not supply.
pub(crate) fn heap_frames() -> u64 {
    KEPT.try_with(|kept| kept.borrow().heap_values())
        .unwrap_or(0)
}

/// An empty page map of `len` slots, one this thread kept if it can be.
pub(crate) fn empty_map(len: usize) -> PageMap {
    KEPT.try_with(|kept| kept.borrow_mut().take_empty(len))
        .unwrap_or_else(|_| ListedMap::new(len))
}

/// Hands a dropped arena's page map back: its frames, then the emptied
/// map. Safe to call while the thread's locals are being torn down: the
/// frames are then freed with the map.
pub(crate) fn recycle_map(map: PageMap) {
    let _ = KEPT.try_with(|kept| kept.borrow_mut().give_back(map));
}

/// Page maps this thread's arenas have taken from the heap so far: the
/// arenas built or cloned that found no kept map long enough.
pub(crate) fn heap_maps() -> u64 {
    KEPT.try_with(|kept| kept.borrow().heap_maps()).unwrap_or(0)
}
