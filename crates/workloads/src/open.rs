//! Open-system traffic: seedable arrival processes and Zipfian key skew.
//!
//! The benchmark workloads are closed-loop — a fixed transaction count,
//! each request issued the instant the previous one commits — so they
//! measure *capacity* (TPS out), never *experienced latency under load*.
//! An open system decouples arrivals from service: requests arrive on
//! their own virtual-time schedule, queue behind a busy coordinator, and
//! keep arriving while a takeover is in flight. This module generates
//! those schedules:
//!
//! * [`ArrivalProcess::poisson`] — homogeneous Poisson arrivals at a mean
//!   interarrival gap.
//! * [`ArrivalProcess::bursty`] — a square-wave-modulated
//!   (piecewise-constant-rate) Poisson process: each period opens with a
//!   burst window at `factor`× the base rate.
//!   Short periods model bursts, day-length periods model diurnal load;
//!   the generator is the same, exact for exponential interarrivals
//!   because the process is memoryless at phase boundaries.
//! * [`ZipfKeys`] — Zipf(s)-distributed key picks over a fixed key
//!   population, by exact CDF inversion.
//!
//! # Determinism contract
//!
//! Every schedule is a pure function of its [`SplitMix64`] seed. The
//! exponential and power-law transforms use only IEEE-exact `f64`
//! operations (add, subtract, multiply, divide, floor) over
//! [`SplitMix64::next_f64`]'s dyadic-rational outputs, with `ln`/`exp`
//! computed by fixed-term series after exact exponent/mantissa
//! decomposition — no libm calls, whose rounding may differ across
//! platforms. Same seed, same schedule, bit for bit, everywhere.

use dsnrep_simcore::{SplitMix64, VirtualDuration, VirtualInstant};

/// ln 2, to f64 precision.
const LN_2: f64 = core::f64::consts::LN_2;

/// Natural log of a finite positive `f64` using only IEEE-exact
/// operations: exact exponent/mantissa split via the bit pattern, then an
/// `atanh`-flavored series on the mantissa. Accurate to ~1 ulp over the
/// domain the generators use; bit-deterministic everywhere.
///
/// # Panics
///
/// Panics if `x` is not finite and positive.
pub fn det_ln(x: f64) -> f64 {
    assert!(x.is_finite() && x > 0.0, "det_ln domain: 0 < x < inf");
    let bits = x.to_bits();
    let mut exp = ((bits >> 52) & 0x7ff) as i64 - 1023;
    let mut m = if exp == -1023 {
        // Subnormal: renormalize exactly by scaling with a power of two.
        let scaled = x * f64::from_bits(0x4330_0000_0000_0000u64); // 2^52
        exp = ((scaled.to_bits() >> 52) & 0x7ff) as i64 - 1023 - 52;
        f64::from_bits((scaled.to_bits() & 0x000f_ffff_ffff_ffff) | 0x3ff0_0000_0000_0000)
    } else {
        f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | 0x3ff0_0000_0000_0000)
    };
    // Center the mantissa on 1 so the series argument stays small.
    if m > core::f64::consts::SQRT_2 {
        m *= 0.5;
        exp += 1;
    }
    // ln(m) = 2 atanh(s) with s = (m-1)/(m+1); |s| <= 0.1716 so twelve
    // odd terms reach ~1e-20 relative truncation.
    let s = (m - 1.0) / (m + 1.0);
    let s2 = s * s;
    let mut term = s;
    let mut sum = 0.0;
    let mut k = 1.0;
    for _ in 0..12 {
        sum += term / k;
        term *= s2;
        k += 2.0;
    }
    exp as f64 * LN_2 + 2.0 * sum
}

/// `e^x` for moderate arguments using only IEEE-exact operations:
/// argument reduction by exact powers of two, then a fixed-term Taylor
/// series. Bit-deterministic everywhere.
///
/// # Panics
///
/// Panics if `x` is not finite or `|x|` exceeds 700 (outside the range
/// the generators produce and close to `f64` overflow).
pub fn det_exp(x: f64) -> f64 {
    assert!(x.is_finite() && x.abs() <= 700.0, "det_exp domain");
    // x = k ln2 + r with |r| <= ln2/2; floor is an exact operation.
    let k = (x / LN_2 + 0.5).floor();
    let r = x - k * LN_2;
    // exp(r) by Taylor: |r| <= 0.347 so sixteen terms reach ~1e-19.
    let mut term = 1.0;
    let mut sum = 1.0;
    for i in 1..=16u32 {
        term = term * r / i as f64;
        sum += term;
    }
    // Scale by 2^k via the bit pattern (k is in [-1011, 1011] here).
    let scale = f64::from_bits(((1023 + k as i64) as u64) << 52);
    sum * scale
}

/// The arrival process shape: a piecewise-constant-rate Poisson process
/// described by a base mean interarrival gap and an optional periodic
/// burst window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArrivalProcess {
    /// Mean interarrival gap outside burst windows, in picoseconds.
    base_mean_picos: u64,
    /// Rate multiplier inside the burst window (1 = homogeneous).
    factor: u64,
    /// Modulation period in picoseconds (ignored when `factor` is 1).
    period_picos: u64,
    /// Burst window length as a percentage of the period (0-100).
    duty_pct: u64,
}

impl ArrivalProcess {
    /// Homogeneous Poisson arrivals with the given mean interarrival gap.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is zero.
    pub fn poisson(mean: VirtualDuration) -> Self {
        assert!(mean.as_picos() > 0, "mean interarrival gap must be nonzero");
        ArrivalProcess {
            base_mean_picos: mean.as_picos(),
            factor: 1,
            period_picos: 0,
            duty_pct: 0,
        }
    }

    /// Square-wave-modulated Poisson arrivals: the first `duty_pct`% of
    /// every `period` runs at `factor`× the base rate (interarrival gaps
    /// `factor`× shorter), the rest at the base rate.
    ///
    /// # Panics
    ///
    /// Panics if `mean` or `period` is zero, `factor` is zero, or
    /// `duty_pct` is not in `1..=99`.
    pub fn bursty(
        mean: VirtualDuration,
        factor: u64,
        period: VirtualDuration,
        duty_pct: u64,
    ) -> Self {
        assert!(mean.as_picos() > 0, "mean interarrival gap must be nonzero");
        assert!(period.as_picos() > 0, "modulation period must be nonzero");
        assert!(factor > 0, "burst factor must be nonzero");
        assert!((1..=99).contains(&duty_pct), "duty must be 1-99%");
        ArrivalProcess {
            base_mean_picos: mean.as_picos(),
            factor,
            period_picos: period.as_picos(),
            duty_pct,
        }
    }

    /// The mean interarrival gap in effect at `at_picos`, plus the end of
    /// the current constant-rate phase (`u64::MAX` when homogeneous).
    fn phase(&self, at_picos: u64) -> (u64, u64) {
        if self.factor == 1 || self.period_picos == 0 {
            return (self.base_mean_picos, u64::MAX);
        }
        let period_start = at_picos - at_picos % self.period_picos;
        let burst_end = period_start + self.period_picos / 100 * self.duty_pct;
        if at_picos < burst_end {
            ((self.base_mean_picos / self.factor).max(1), burst_end)
        } else {
            (self.base_mean_picos, period_start + self.period_picos)
        }
    }

    /// The long-run mean interarrival gap in picoseconds (the harmonic
    /// blend of the burst and off-peak phases), for rate-convergence
    /// checks.
    pub fn long_run_mean_picos(&self) -> f64 {
        if self.factor == 1 || self.period_picos == 0 {
            return self.base_mean_picos as f64;
        }
        let duty = self.duty_pct as f64 / 100.0;
        let base = self.base_mean_picos as f64;
        // Arrivals per picosecond, time-averaged over one period.
        let rate = duty * self.factor as f64 / base + (1.0 - duty) / base;
        1.0 / rate
    }
}

/// A seeded arrival-schedule generator: an infinite, bit-deterministic
/// stream of arrival instants in virtual time.
///
/// # Examples
///
/// ```
/// use dsnrep_simcore::VirtualDuration;
/// use dsnrep_workloads::{ArrivalGen, ArrivalProcess};
///
/// let process = ArrivalProcess::poisson(VirtualDuration::from_micros(50));
/// let a: Vec<_> = ArrivalGen::new(process, 7).take(4).collect();
/// let b: Vec<_> = ArrivalGen::new(process, 7).take(4).collect();
/// assert_eq!(a, b); // same seed, same schedule, bit for bit
/// ```
#[derive(Clone, Debug)]
pub struct ArrivalGen {
    process: ArrivalProcess,
    rng: SplitMix64,
    cursor_picos: u64,
}

impl ArrivalGen {
    /// Starts a schedule at the virtual epoch.
    pub fn new(process: ArrivalProcess, seed: u64) -> Self {
        ArrivalGen {
            process,
            rng: SplitMix64::new(seed),
            cursor_picos: 0,
        }
    }

    /// One exponential interarrival gap at `mean_picos`, at least 1 ps.
    fn exp_gap(&mut self, mean_picos: u64) -> u64 {
        // 1 - U is in (0, 1], so the log argument is never zero.
        let u = 1.0 - self.rng.next_f64();
        let gap = -det_ln(u) * mean_picos as f64;
        // Exponential tails at u = 2^-53 stay far below 2^63 for any
        // realistic mean, so the cast is exact enough and never saturates.
        (gap + 0.5).floor().max(1.0) as u64
    }
}

impl Iterator for ArrivalGen {
    type Item = VirtualInstant;

    /// The next arrival instant. For the modulated process, a gap that
    /// would cross a phase boundary restarts from the boundary at the new
    /// phase's rate — exact, because exponential arrivals are memoryless.
    fn next(&mut self) -> Option<VirtualInstant> {
        loop {
            let (mean, phase_end) = self.process.phase(self.cursor_picos);
            let gap = self.exp_gap(mean);
            let candidate = self.cursor_picos.saturating_add(gap);
            if candidate > phase_end {
                self.cursor_picos = phase_end;
                continue;
            }
            self.cursor_picos = candidate;
            return Some(VirtualInstant::from_picos(candidate));
        }
    }
}

/// Zipf(s)-skewed key picks over keys `0..population`, by exact inversion
/// of the cumulative mass function.
///
/// Key `i` (0-based) carries mass proportional to `(i+1)^-s`; the CDF is
/// materialized once at construction with [`det_exp`]`/`[`det_ln`] so the
/// table — and therefore every pick — is bit-deterministic.
#[derive(Clone, Debug)]
pub struct ZipfKeys {
    cumulative: Vec<f64>,
    rng: SplitMix64,
}

impl ZipfKeys {
    /// Builds the sampler for `population` keys at skew `s` (`s = 0` is
    /// uniform; larger `s` concentrates mass on low-numbered keys).
    ///
    /// # Panics
    ///
    /// Panics if `population` is zero or `s` is negative or not finite.
    pub fn new(population: u32, s: f64, seed: u64) -> Self {
        assert!(population > 0, "key population must be nonzero");
        assert!(s.is_finite() && s >= 0.0, "skew must be finite and >= 0");
        let mut cumulative = Vec::with_capacity(population as usize);
        let mut total = 0.0f64;
        for rank in 1..=population {
            total += Self::mass_unnormalized(rank, s);
            cumulative.push(total);
        }
        ZipfKeys {
            cumulative,
            rng: SplitMix64::new(seed),
        }
    }

    fn mass_unnormalized(rank: u32, s: f64) -> f64 {
        if s == 0.0 {
            1.0
        } else {
            det_exp(-s * det_ln(rank as f64))
        }
    }

    /// The closed-form probability mass of key `key` (0-based): the
    /// normalized `(key+1)^-s` this sampler draws from, for frequency
    /// checks against observed counts.
    pub fn mass(&self, key: u32) -> f64 {
        let total = *self.cumulative.last().expect("population is nonzero");
        let hi = self.cumulative[key as usize];
        let lo = if key == 0 {
            0.0
        } else {
            self.cumulative[key as usize - 1]
        };
        (hi - lo) / total
    }

    /// Number of keys in the population.
    pub fn population(&self) -> u32 {
        self.cumulative.len() as u32
    }

    /// Draws the next key (0-based).
    pub fn next_key(&mut self) -> u32 {
        let total = *self.cumulative.last().expect("population is nonzero");
        let target = self.rng.next_f64() * total;
        // First index whose cumulative mass exceeds the target.
        let mut lo = 0usize;
        let mut hi = self.cumulative.len() - 1;
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.cumulative[mid] > target {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn det_ln_and_exp_are_accurate_and_inverse() {
        for &x in &[1e-9, 0.1, 0.5, 1.0, 1.5, 2.0, 10.0, 12345.678, 1e12] {
            let ln = det_ln(x);
            assert!(
                (ln - x.ln()).abs() <= x.ln().abs().max(1.0) * 1e-14,
                "ln({x}) = {ln}"
            );
            let back = det_exp(ln);
            assert!((back - x).abs() <= x * 1e-13, "exp(ln({x})) = {back}");
        }
        assert_eq!(det_exp(0.0), 1.0);
        assert!((det_ln(core::f64::consts::E) - 1.0).abs() < 1e-14);
    }

    #[test]
    fn modulated_phase_boundaries_are_exact() {
        let p = ArrivalProcess::bursty(
            VirtualDuration::from_micros(100),
            10,
            VirtualDuration::from_millis(1),
            20,
        );
        // In the burst (first 20% of the period) the mean shrinks 10x.
        assert_eq!(p.phase(0), (10_000_000, 200_000_000));
        assert_eq!(p.phase(199_999_999), (10_000_000, 200_000_000));
        assert_eq!(p.phase(200_000_000), (100_000_000, 1_000_000_000));
        // The next period bursts again.
        assert_eq!(p.phase(1_000_000_000), (10_000_000, 1_200_000_000));
        let lr = p.long_run_mean_picos();
        assert!(lr > 10_000_000.0 && lr < 100_000_000.0, "{lr}");
    }

    #[test]
    fn arrivals_are_strictly_increasing() {
        let p = ArrivalProcess::poisson(VirtualDuration::from_micros(10));
        let mut last = 0u64;
        for at in ArrivalGen::new(p, 99).take(1000) {
            assert!(at.as_picos() > last);
            last = at.as_picos();
        }
    }

    #[test]
    fn zipf_mass_sums_to_one_and_is_monotone() {
        let z = ZipfKeys::new(64, 1.0, 5);
        let total: f64 = (0..64).map(|k| z.mass(k)).sum();
        assert!((total - 1.0).abs() < 1e-12, "{total}");
        for k in 1..64 {
            assert!(z.mass(k) <= z.mass(k - 1), "mass must decay with rank");
        }
    }

    #[test]
    fn zipf_zero_skew_is_uniform() {
        let z = ZipfKeys::new(10, 0.0, 5);
        for k in 0..10 {
            assert!((z.mass(k) - 0.1).abs() < 1e-15);
        }
    }
}
