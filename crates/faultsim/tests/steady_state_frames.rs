//! Fault plans' steady state: once a thread has run a scenario's plans,
//! running them again takes no arena page frame or page map and no cache
//! tag chunk or chunk map from the heap.
//!
//! Every plan builds its driver's nodes, crashes, recovers and drops
//! them, so each plan materializes the same few dozen arena pages and
//! touches the same tag chunks of every node's board cache. Arenas and
//! caches hand what they drop (and what a flush clears) to a per-thread
//! free list, their emptied maps too, and the next plan's nodes take from
//! it. The counts are the libraries' own: [`Arena::heap_frames`],
//! [`Arena::heap_maps`], [`DirectMappedCache::heap_chunks`] and
//! [`DirectMappedCache::heap_maps`].

use dsnrep_faultsim::{random_campaign, Scenario};
use dsnrep_rio::Arena;
use dsnrep_simcore::DirectMappedCache;

/// Debit-Credit run length of every scenario (Order-Entry runs half).
const TXNS: u64 = 4;
/// Plans per campaign: the warm-up runs them once, the measured pass
/// again.
const PLANS: u64 = 16;
const SEED: u64 = 7;

/// Page frames, page maps, tag chunks and chunk maps this thread has
/// taken from the heap so far.
fn taken() -> [u64; 4] {
    [
        Arena::heap_frames(),
        Arena::heap_maps(),
        DirectMappedCache::heap_chunks(),
        DirectMappedCache::heap_maps(),
    ]
}

#[test]
fn warm_fault_plans_take_no_frames_or_chunks_from_the_heap() {
    let mut over = Vec::new();
    for scenario in Scenario::matrix(TXNS) {
        // The campaign builds its reference and probes the scenario too.
        random_campaign(&scenario, SEED, PLANS, None).expect("the warm-up campaign runs");
        let before = taken();
        random_campaign(&scenario, SEED, PLANS, None).expect("the measured campaign runs");
        let after = taken();
        let took: [u64; 4] = std::array::from_fn(|k| after[k] - before[k]);
        if took != [0; 4] {
            over.push((scenario.label(), took));
        }
    }
    assert!(
        over.is_empty(),
        "(page frames, page maps, tag chunks, chunk maps) taken from the heap by \
         {PLANS} warm plans: {over:?}"
    );
}
