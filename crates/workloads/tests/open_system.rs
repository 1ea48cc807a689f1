//! Property tests for the open-system traffic generators: schedules are a
//! pure function of their seed, disjoint seeds agree on the long-run rate,
//! and Zipfian picks match the closed-form mass function.

use dsnrep_simcore::VirtualDuration;
use dsnrep_workloads::{ArrivalGen, ArrivalProcess, ZipfKeys};
use proptest::prelude::*;

proptest! {
    /// Same seed, same Poisson schedule — bit for bit, however the mean
    /// is chosen.
    #[test]
    fn poisson_schedules_are_seed_deterministic(seed in any::<u64>(), mean_us in 1u64..500) {
        let p = ArrivalProcess::poisson(VirtualDuration::from_micros(mean_us));
        let a: Vec<_> = ArrivalGen::new(p, seed).take(256).collect();
        let b: Vec<_> = ArrivalGen::new(p, seed).take(256).collect();
        prop_assert_eq!(a, b);
    }

    /// Same seed, same modulated schedule, across the whole parameter
    /// space of the square wave.
    #[test]
    fn bursty_schedules_are_seed_deterministic(
        seed in any::<u64>(),
        mean_us in 1u64..200,
        factor in 1u64..16,
        period_us in 10u64..5_000,
        duty in 1u64..100,
    ) {
        let p = ArrivalProcess::bursty(
            VirtualDuration::from_micros(mean_us),
            factor,
            VirtualDuration::from_micros(period_us),
            duty,
        );
        let a: Vec<_> = ArrivalGen::new(p, seed).take(256).collect();
        let b: Vec<_> = ArrivalGen::new(p, seed).take(256).collect();
        prop_assert_eq!(a, b);
    }

    /// Same seed, same key stream; different seeds almost surely differ
    /// (the stream is 256 picks over 64 keys — collisions across distinct
    /// SplitMix64 streams would be astronomically unlikely).
    #[test]
    fn zipf_streams_are_seed_deterministic(seed in any::<u64>()) {
        let draw = |s: u64| -> Vec<u32> {
            let mut z = ZipfKeys::new(64, 1.0, s);
            (0..256).map(|_| z.next_key()).collect()
        };
        prop_assert_eq!(draw(seed), draw(seed));
        prop_assert_ne!(draw(seed), draw(seed.wrapping_add(1)));
    }
}

/// Arrivals `gen` produces strictly inside a fixed horizon. Counting over
/// a whole number of modulation periods keeps the estimate unbiased — an
/// `elapsed / n` estimator truncates mid-phase and systematically
/// over-weights whichever phase the horizon happens to end in.
fn arrivals_before(process: ArrivalProcess, seed: u64, horizon_picos: u64) -> u64 {
    ArrivalGen::new(process, seed)
        .take_while(|at| at.as_picos() < horizon_picos)
        .count() as u64
}

/// Disjoint seeds each converge to the configured long-run rate: the
/// generator's randomness averages out, its rate parameter does not.
#[test]
fn disjoint_seeds_converge_to_the_long_run_mean() {
    // 100 ms is a whole number of periods for every case below.
    const HORIZON_PICOS: u64 = 100_000_000_000;
    let cases = [
        ArrivalProcess::poisson(VirtualDuration::from_micros(40)),
        ArrivalProcess::bursty(
            VirtualDuration::from_micros(80),
            4,
            VirtualDuration::from_micros(4_000),
            25,
        ),
        ArrivalProcess::bursty(
            VirtualDuration::from_micros(100),
            8,
            VirtualDuration::from_millis(10),
            30,
        ),
    ];
    for process in cases {
        let expected = process.long_run_mean_picos();
        const SEEDS: u64 = 64;
        let mut total = 0u64;
        for seed in 0..SEEDS {
            // Spread the seeds across the u64 space: adjacent integers
            // are fine for SplitMix64, but the property is about
            // *disjoint* streams, so make them visibly unrelated.
            total += arrivals_before(
                process,
                seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                HORIZON_PICOS,
            );
        }
        let mean = SEEDS as f64 * HORIZON_PICOS as f64 / total as f64;
        // Each case pools > 100k arrivals, putting the standard error
        // near 0.3% of the mean; 5% is far outside noise and still
        // catches any rate bug.
        let err = (mean - expected).abs() / expected;
        assert!(
            err < 0.05,
            "{process:?}: observed mean {mean:.0} ps vs long-run {expected:.0} ps ({:.2}% off)",
            err * 100.0
        );
    }
}

/// Observed Zipf pick frequencies match the closed-form mass function for
/// the skews the scenarios use.
#[test]
fn zipf_frequencies_match_closed_form_mass() {
    const POPULATION: u32 = 64;
    const DRAWS: u64 = 40_000;
    for s in [0.8, 1.0, 1.2] {
        let mut z = ZipfKeys::new(POPULATION, s, 0xA221);
        let mut counts = vec![0u64; POPULATION as usize];
        for _ in 0..DRAWS {
            counts[z.next_key() as usize] += 1;
        }
        for key in 0..POPULATION {
            let mass = z.mass(key);
            let freq = counts[key as usize] as f64 / DRAWS as f64;
            // Binomial standard error at 40k draws is at most 0.25%; a 1%
            // absolute band is 4 sigma at the hottest key and far wider
            // at the tail.
            assert!(
                (freq - mass).abs() < 0.01,
                "s={s} key={key}: observed {freq:.4} vs mass {mass:.4}"
            );
        }
        // The skew actually bites: the hottest key dominates the median
        // key by at least the closed-form ratio (sanity on the sampler,
        // not just the mass table).
        assert!(counts[0] > counts[POPULATION as usize / 2]);
    }
}
