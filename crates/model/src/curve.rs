//! Arrival curves (§4.1).
//!
//! An arrival curve `α_i : Δ → ℕ` upper-bounds the number of jobs of task
//! `τ_i` that may arrive in **any** half-open time window of length `Δ`
//! (Eq. 2 of the paper):
//!
//! ```text
//! ∀t ∀Δ. |{ τ_{i,j} | t ≤ a_{i,j} < t + Δ }| ≤ α_i(Δ)
//! ```
//!
//! Every curve satisfies `α(0) = 0` and is monotonically non-decreasing.
//! [`Curve`] offers the standard shapes used in real-time calculus:
//! sporadic (minimum inter-arrival time), periodic, leaky-bucket
//! (burst + long-run rate) and explicit staircase curves.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::time::{Duration, Instant};

/// Behaviour common to all arrival-curve representations.
///
/// Implementors must guarantee `max_arrivals(0) == 0` and monotonicity in
/// `Δ`; [`Curve::validate`] checks the parameters that make this hold.
pub trait ArrivalCurve {
    /// The maximum number of arrivals in any window of length `delta`.
    fn max_arrivals(&self, delta: Duration) -> u64;

    /// A bound on the long-run arrival rate (arrivals per tick), if finite.
    ///
    /// Used for utilization estimates; `None` means the representation does
    /// not expose a finite rate.
    fn long_run_rate(&self) -> Option<f64>;
}

/// Validation failure for a curve's parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CurveValidationError {
    /// A sporadic/periodic curve has a zero minimum inter-arrival time.
    ZeroInterArrival,
    /// A leaky-bucket curve has a zero rate denominator.
    ZeroRateDenominator,
    /// A leaky-bucket curve admits zero jobs ever (burst 0 and rate 0).
    DegenerateLeakyBucket,
    /// Staircase breakpoints are not strictly increasing from a positive
    /// first breakpoint, or values are not non-decreasing.
    MalformedStaircase,
}

impl fmt::Display for CurveValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CurveValidationError::ZeroInterArrival => {
                write!(f, "minimum inter-arrival time must be positive")
            }
            CurveValidationError::ZeroRateDenominator => {
                write!(f, "leaky-bucket rate denominator must be positive")
            }
            CurveValidationError::DegenerateLeakyBucket => {
                write!(f, "leaky-bucket curve admits no arrivals at all")
            }
            CurveValidationError::MalformedStaircase => {
                write!(
                    f,
                    "staircase breakpoints must strictly increase from a positive \
                     first breakpoint with non-decreasing values"
                )
            }
        }
    }
}

impl std::error::Error for CurveValidationError {}

/// A concrete arrival curve.
///
/// # Examples
///
/// ```
/// use rossl_model::{ArrivalCurve, Curve, Duration};
/// let sporadic = Curve::sporadic(Duration(100));
/// assert_eq!(sporadic.max_arrivals(Duration(0)), 0);
/// assert_eq!(sporadic.max_arrivals(Duration(1)), 1);
/// assert_eq!(sporadic.max_arrivals(Duration(100)), 1);
/// assert_eq!(sporadic.max_arrivals(Duration(101)), 2);
///
/// let bursty = Curve::leaky_bucket(3, 1, 1000);
/// assert_eq!(bursty.max_arrivals(Duration(1)), 3);
/// assert_eq!(bursty.max_arrivals(Duration(2001)), 5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Curve {
    /// At most one arrival every `min_inter_arrival` ticks:
    /// `α(Δ) = ⌈Δ / T⌉`.
    Sporadic {
        /// Minimum inter-arrival time `T` (must be positive).
        min_inter_arrival: Duration,
    },
    /// Strictly periodic arrivals with period `T`. The worst-case window
    /// bound coincides with the sporadic curve of the same `T`; kept as a
    /// distinct variant because workload generators treat it differently.
    Periodic {
        /// Period `T` (must be positive).
        period: Duration,
    },
    /// Token-bucket curve: an initial burst of up to `burst` jobs followed
    /// by a sustained rate of `rate_num / rate_den` jobs per tick:
    /// `α(Δ) = burst + ⌊(Δ − 1) · rate_num / rate_den⌋` for `Δ > 0`.
    LeakyBucket {
        /// Maximum instantaneous burst `b`.
        burst: u64,
        /// Rate numerator.
        rate_num: u64,
        /// Rate denominator (must be positive).
        rate_den: u64,
    },
    /// An explicit staircase: `points[k] = (Δ_k, n_k)` means any window of
    /// length `≥ Δ_k` (and shorter than the next breakpoint) contains at
    /// most `n_k` arrivals. The curve is constant after the last breakpoint,
    /// which makes it suitable for bounded-horizon experiments.
    Staircase {
        /// Breakpoints, strictly increasing in `Δ` with non-decreasing
        /// values; the first breakpoint must be positive.
        points: Vec<(Duration, u64)>,
    },
}

impl Curve {
    /// Sporadic curve with minimum inter-arrival time `t`.
    pub fn sporadic(min_inter_arrival: Duration) -> Curve {
        Curve::Sporadic { min_inter_arrival }
    }

    /// Periodic curve with period `t`.
    pub fn periodic(period: Duration) -> Curve {
        Curve::Periodic { period }
    }

    /// Leaky-bucket curve with the given burst and rate.
    pub fn leaky_bucket(burst: u64, rate_num: u64, rate_den: u64) -> Curve {
        Curve::LeakyBucket {
            burst,
            rate_num,
            rate_den,
        }
    }

    /// Staircase curve through the given breakpoints.
    pub fn staircase(points: Vec<(Duration, u64)>) -> Curve {
        Curve::Staircase { points }
    }

    /// Checks the parameters uphold the arrival-curve axioms.
    ///
    /// # Errors
    ///
    /// Returns the first [`CurveValidationError`] found.
    pub fn validate(&self) -> Result<(), CurveValidationError> {
        match self {
            Curve::Sporadic { min_inter_arrival } | Curve::Periodic {
                period: min_inter_arrival,
            } => {
                if min_inter_arrival.is_zero() {
                    Err(CurveValidationError::ZeroInterArrival)
                } else {
                    Ok(())
                }
            }
            Curve::LeakyBucket {
                burst,
                rate_num,
                rate_den,
            } => {
                if *rate_den == 0 {
                    Err(CurveValidationError::ZeroRateDenominator)
                } else if *burst == 0 && *rate_num == 0 {
                    Err(CurveValidationError::DegenerateLeakyBucket)
                } else {
                    Ok(())
                }
            }
            Curve::Staircase { points } => {
                let mut prev: Option<(Duration, u64)> = None;
                for &(delta, n) in points {
                    if delta.is_zero() {
                        return Err(CurveValidationError::MalformedStaircase);
                    }
                    if let Some((pd, pn)) = prev {
                        if delta <= pd || n < pn {
                            return Err(CurveValidationError::MalformedStaircase);
                        }
                    }
                    prev = Some((delta, n));
                }
                Ok(())
            }
        }
    }

    /// The window lengths `Δ ≤ horizon` at which the curve increases, i.e.
    /// `α(Δ) > α(Δ − 1)`. These are the only interesting offsets for
    /// busy-window analyses (§4.2), which would otherwise have to scan every
    /// tick.
    pub fn increase_points(&self, horizon: Duration) -> Vec<Duration> {
        let mut out = Vec::new();
        match self {
            Curve::Sporadic { min_inter_arrival } | Curve::Periodic {
                period: min_inter_arrival,
            } => {
                // α(Δ) = ⌈Δ/T⌉ increments at Δ = k·T + 1.
                let t = min_inter_arrival.ticks().max(1);
                let mut d = 1u64;
                while d <= horizon.ticks() {
                    out.push(Duration(d));
                    match d.checked_add(t) {
                        Some(n) => d = n,
                        None => break,
                    }
                }
            }
            Curve::LeakyBucket {
                rate_num, rate_den, ..
            } => {
                // Jumps at Δ = 1 (the burst) and wherever the linear term
                // gains a unit: (Δ−1)·num/den crosses an integer.
                out.push(Duration(1));
                if *rate_num > 0 {
                    let mut k = 1u64;
                    loop {
                        // Smallest Δ with ⌊(Δ−1)·num/den⌋ ≥ k is
                        // Δ = ⌈k·den/num⌉ + 1.
                        let d = k
                            .saturating_mul(*rate_den)
                            .div_ceil(*rate_num)
                            .saturating_add(1);
                        if d > horizon.ticks() {
                            break;
                        }
                        out.push(Duration(d));
                        k += 1;
                    }
                }
            }
            Curve::Staircase { points } => {
                let mut prev = 0u64;
                for &(delta, n) in points {
                    if delta > horizon {
                        break;
                    }
                    if n > prev {
                        out.push(delta);
                        prev = n;
                    }
                }
            }
        }
        out.dedup();
        out
    }
}

impl ArrivalCurve for Curve {
    fn max_arrivals(&self, delta: Duration) -> u64 {
        if delta.is_zero() {
            return 0;
        }
        match self {
            Curve::Sporadic { min_inter_arrival } | Curve::Periodic {
                period: min_inter_arrival,
            } => {
                let t = min_inter_arrival.ticks().max(1);
                delta.ticks().div_ceil(t)
            }
            Curve::LeakyBucket {
                burst,
                rate_num,
                rate_den,
            } => {
                let den = (*rate_den).max(1);
                let linear = (delta.ticks() - 1)
                    .saturating_mul(*rate_num)
                    / den;
                burst.saturating_add(linear)
            }
            Curve::Staircase { points } => points
                .iter()
                .take_while(|(d, _)| *d <= delta)
                .map(|&(_, n)| n)
                .last()
                .unwrap_or(0),
        }
    }

    fn long_run_rate(&self) -> Option<f64> {
        match self {
            Curve::Sporadic { min_inter_arrival } | Curve::Periodic {
                period: min_inter_arrival,
            } => Some(1.0 / min_inter_arrival.ticks().max(1) as f64),
            Curve::LeakyBucket {
                rate_num, rate_den, ..
            } => Some(*rate_num as f64 / (*rate_den).max(1) as f64),
            // Constant after the last breakpoint: zero long-run rate.
            Curve::Staircase { .. } => Some(0.0),
        }
    }
}

impl fmt::Display for Curve {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Curve::Sporadic { min_inter_arrival } => {
                write!(f, "sporadic(T={})", min_inter_arrival.ticks())
            }
            Curve::Periodic { period } => write!(f, "periodic(T={})", period.ticks()),
            Curve::LeakyBucket {
                burst,
                rate_num,
                rate_den,
            } => write!(f, "leaky(b={burst}, r={rate_num}/{rate_den})"),
            Curve::Staircase { points } => write!(f, "staircase({} points)", points.len()),
        }
    }
}

/// A witness that a sorted list of arrival times violates a curve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CurveViolation {
    /// Start of the offending window (an arrival time).
    pub window_start: Instant,
    /// Length of the offending window.
    pub window_len: Duration,
    /// Number of arrivals observed in the window.
    pub observed: u64,
    /// The curve's bound for that window length.
    pub bound: u64,
}

impl fmt::Display for CurveViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} arrivals in window [{}, {}+{}) but curve allows {}",
            self.observed, self.window_start, self.window_start, self.window_len, self.bound
        )
    }
}

impl std::error::Error for CurveViolation {}

/// Checks that a **sorted** list of arrival times respects `curve` (Eq. 2).
///
/// Sporadic, periodic and leaky-bucket curves are checked in one pass
/// (DESIGN §3.2). Staircase curves, and any sequence the one-pass check
/// does not prove compliant, go through the pair scan, which names the
/// first violating window.
///
/// # Errors
///
/// Returns the first [`CurveViolation`] found.
///
/// # Panics
///
/// Panics in debug builds if `arrivals` is not sorted.
pub fn check_respects(curve: &Curve, arrivals: &[Instant]) -> Result<(), CurveViolation> {
    debug_assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
    if respects_in_one_pass(curve, arrivals) {
        Ok(())
    } else {
        first_violation(curve, arrivals)
    }
}

/// Proves Eq. 2 in one pass, or returns `false` if it cannot.
///
/// Every window `[a_i, a_j + 1)` holds `j − i + 1` arrivals. No
/// difference wraps, so an unsorted slice (possible in release builds)
/// fails the proof rather than passing it.
fn respects_in_one_pass(curve: &Curve, arrivals: &[Instant]) -> bool {
    // The pair scan cannot represent the length of a window spanning
    // every instant; leave such windows to it.
    if arrivals.contains(&Instant::MAX) {
        return false;
    }
    match *curve {
        // α(Δ) = ⌈Δ/T⌉: with every gap ≥ T, a_j − a_i ≥ (j − i)·T, so
        // α(a_j − a_i + 1) ≥ j − i + 1. A shorter gap is itself a violation.
        Curve::Sporadic {
            min_inter_arrival: t,
        }
        | Curve::Periodic { period: t } => {
            let t = t.ticks().max(1);
            arrivals
                .windows(2)
                .all(|w| w[1].saturating_duration_since(w[0]).ticks() >= t)
        }
        // α(Δ) = b + ⌊(Δ − 1)·r/d⌋ ≥ j − i + 1 for every i ≤ j iff b ≥ 1
        // and g(j) − g(i) ≥ (1 − b)·d, where g(i) = a_i·r − i·d: keep the
        // running maximum of g. Where a_i·r overflows, `max_arrivals`
        // saturates and the identity no longer holds.
        Curve::LeakyBucket {
            burst,
            rate_num,
            rate_den,
        } => {
            if burst == 0 {
                return false;
            }
            let d = i128::from(rate_den.max(1));
            let slack = i128::from(burst - 1).saturating_mul(d);
            let mut max_g = i128::MIN;
            for (i, a) in arrivals.iter().enumerate() {
                let Some(ar) = a.ticks().checked_mul(rate_num) else {
                    return false;
                };
                let g = i128::from(ar) - i as i128 * d;
                if g.saturating_add(slack) < max_g {
                    return false;
                }
                max_g = max_g.max(g);
            }
            true
        }
        Curve::Staircase { .. } => false,
    }
}

/// The pair scan: the first window, by first then last arrival, holding
/// more arrivals than the curve allows.
///
/// Only windows starting at an arrival need to be examined: any window can be
/// shrunk from the left to start at its first arrival without changing the
/// count, and doing so can only decrease the bound (monotonicity).
fn first_violation(curve: &Curve, arrivals: &[Instant]) -> Result<(), CurveViolation> {
    for (i, &start) in arrivals.iter().enumerate() {
        for (extra, &end) in arrivals[i..].iter().enumerate() {
            let count = (extra + 1) as u64;
            // Smallest window containing arrivals i..=i+extra is
            // [start, end] which is half-open [start, end + 1).
            let len = end.saturating_duration_since(start) + Duration(1);
            let bound = curve.max_arrivals(len);
            if count > bound {
                return Err(CurveViolation {
                    window_start: start,
                    window_len: len,
                    observed: count,
                    bound,
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sporadic_values() {
        let c = Curve::sporadic(Duration(10));
        assert_eq!(c.max_arrivals(Duration(0)), 0);
        assert_eq!(c.max_arrivals(Duration(1)), 1);
        assert_eq!(c.max_arrivals(Duration(10)), 1);
        assert_eq!(c.max_arrivals(Duration(11)), 2);
        assert_eq!(c.max_arrivals(Duration(100)), 10);
    }

    #[test]
    fn periodic_matches_sporadic_bound() {
        let p = Curve::periodic(Duration(7));
        let s = Curve::sporadic(Duration(7));
        for d in 0..50 {
            assert_eq!(p.max_arrivals(Duration(d)), s.max_arrivals(Duration(d)));
        }
    }

    #[test]
    fn leaky_bucket_values() {
        let c = Curve::leaky_bucket(2, 1, 10);
        assert_eq!(c.max_arrivals(Duration(0)), 0);
        assert_eq!(c.max_arrivals(Duration(1)), 2);
        assert_eq!(c.max_arrivals(Duration(10)), 2);
        assert_eq!(c.max_arrivals(Duration(11)), 3);
        assert_eq!(c.max_arrivals(Duration(21)), 4);
    }

    #[test]
    fn staircase_values() {
        let c = Curve::staircase(vec![(Duration(1), 1), (Duration(50), 3)]);
        assert_eq!(c.max_arrivals(Duration(0)), 0);
        assert_eq!(c.max_arrivals(Duration(1)), 1);
        assert_eq!(c.max_arrivals(Duration(49)), 1);
        assert_eq!(c.max_arrivals(Duration(50)), 3);
        assert_eq!(c.max_arrivals(Duration(10_000)), 3);
    }

    #[test]
    fn validation_catches_bad_params() {
        assert!(Curve::sporadic(Duration(0)).validate().is_err());
        assert!(Curve::periodic(Duration(0)).validate().is_err());
        assert!(Curve::leaky_bucket(1, 1, 0).validate().is_err());
        assert!(Curve::leaky_bucket(0, 0, 5).validate().is_err());
        assert!(Curve::staircase(vec![(Duration(0), 1)]).validate().is_err());
        assert!(
            Curve::staircase(vec![(Duration(5), 2), (Duration(5), 3)])
                .validate()
                .is_err()
        );
        assert!(
            Curve::staircase(vec![(Duration(5), 2), (Duration(9), 1)])
                .validate()
                .is_err()
        );
        assert!(Curve::sporadic(Duration(3)).validate().is_ok());
    }

    #[test]
    fn increase_points_match_value_changes() {
        for curve in [
            Curve::sporadic(Duration(7)),
            Curve::leaky_bucket(2, 1, 5),
            Curve::staircase(vec![(Duration(3), 1), (Duration(9), 4)]),
        ] {
            let horizon = Duration(60);
            let pts = curve.increase_points(horizon);
            let mut expected = Vec::new();
            for d in 1..=horizon.ticks() {
                if curve.max_arrivals(Duration(d)) > curve.max_arrivals(Duration(d - 1)) {
                    expected.push(Duration(d));
                }
            }
            assert_eq!(pts, expected, "curve {curve}");
        }
    }

    #[test]
    fn check_respects_accepts_compliant_sequences() {
        let c = Curve::sporadic(Duration(10));
        let arrivals = [Instant(0), Instant(10), Instant(25), Instant(40)];
        assert!(check_respects(&c, &arrivals).is_ok());
    }

    #[test]
    fn check_respects_rejects_bursts() {
        let c = Curve::sporadic(Duration(10));
        let arrivals = [Instant(0), Instant(5)];
        let v = check_respects(&c, &arrivals).unwrap_err();
        assert_eq!(v.window_start, Instant(0));
        assert_eq!(v.observed, 2);
        assert_eq!(v.bound, 1);
    }

    #[test]
    fn monotonicity_over_samples() {
        for curve in [
            Curve::sporadic(Duration(3)),
            Curve::periodic(Duration(11)),
            Curve::leaky_bucket(5, 3, 7),
            Curve::staircase(vec![(Duration(2), 2), (Duration(20), 6)]),
        ] {
            let mut prev = 0;
            for d in 0..200 {
                let v = curve.max_arrivals(Duration(d));
                assert!(v >= prev, "curve {curve} not monotone at Δ={d}");
                prev = v;
            }
        }
    }

    #[test]
    fn long_run_rates() {
        assert_eq!(
            Curve::sporadic(Duration(4)).long_run_rate(),
            Some(0.25)
        );
        assert_eq!(
            Curve::leaky_bucket(9, 1, 2).long_run_rate(),
            Some(0.5)
        );
        assert_eq!(
            Curve::staircase(vec![(Duration(1), 1)]).long_run_rate(),
            Some(0.0)
        );
    }
}
