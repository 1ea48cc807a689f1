//! Fault plans' steady state: once a thread has run a scenario's plans,
//! running them again takes no arena page frame and no cache tag chunk
//! from the heap.
//!
//! Every plan builds its driver's nodes, crashes, recovers and drops
//! them, so each plan materializes the same few dozen arena pages and
//! touches the same tag chunks of every node's board cache. Arenas and
//! caches hand what they drop (and what a flush clears) to a per-thread
//! free list, and the next plan's nodes take from it. The counts are the
//! libraries' own: [`Arena::heap_frames`] and
//! [`DirectMappedCache::heap_chunks`].

use dsnrep_faultsim::{random_campaign, Scenario};
use dsnrep_rio::Arena;
use dsnrep_simcore::DirectMappedCache;

/// Debit-Credit run length of every scenario (Order-Entry runs half).
const TXNS: u64 = 4;
/// Plans per campaign: the warm-up runs them once, the measured pass
/// again.
const PLANS: u64 = 16;
const SEED: u64 = 7;

/// Frames and chunks this thread has taken from the heap so far.
fn taken() -> (u64, u64) {
    (Arena::heap_frames(), DirectMappedCache::heap_chunks())
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
        let took = (after.0 - before.0, after.1 - before.1);
        if took != (0, 0) {
            over.push((scenario.label(), took));
        }
    }
    assert!(
        over.is_empty(),
        "(page frames, tag chunks) taken from the heap by {PLANS} warm plans: {over:?}"
    );
}
