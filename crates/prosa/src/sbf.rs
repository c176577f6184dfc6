//! Supply bound functions (§4.4).
//!
//! A supply bound function `SBF(Δ)` lower-bounds the service (non-blackout
//! time) the platform provides in any interval of length `Δ` within a busy
//! window. aRSA requires `SBF` to be monotone; the paper achieves this by
//! defining
//!
//! ```text
//! SBF(Δ) ≜ max_{0 ≤ δ ≤ Δ} (δ − BlackoutBound(δ))
//! ```
//!
//! since `δ − BlackoutBound(δ)` need not be monotone in `δ`.

use std::fmt;

use rossl_model::Duration;

use crate::blackout::BlackoutBound;

/// A monotone lower bound on supplied service per interval length.
pub trait SupplyBound {
    /// The guaranteed supply in any window of length `delta` (within a
    /// busy window). Must be monotone and satisfy `sbf(Δ) ≤ Δ`.
    fn sbf(&self, delta: Duration) -> Duration;

    /// The smallest window length `d ≤ cap` with `sbf(d) ≥ supply`, or
    /// `None` if even `cap` does not provide that much supply. Implemented
    /// by binary search over the monotone [`SupplyBound::sbf`].
    fn inverse(&self, supply: Duration, cap: Duration) -> Option<Duration> {
        if self.sbf(cap) < supply {
            return None;
        }
        let (mut lo, mut hi) = (0u64, cap.ticks());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.sbf(Duration(mid)) >= supply {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        Some(Duration(lo))
    }
}

/// The ideal processor: every tick is supply (`SBF(Δ) = Δ`). Used by the
/// overhead-oblivious baseline RTA.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IdealSupply;

impl SupplyBound for IdealSupply {
    fn sbf(&self, delta: Duration) -> Duration {
        delta
    }

    fn inverse(&self, supply: Duration, cap: Duration) -> Option<Duration> {
        (supply <= cap).then_some(supply)
    }
}

/// The Rössl supply bound function: `SBF(Δ) = max_{δ ≤ Δ}(δ − BB(δ))`,
/// precomputed against a [`BlackoutBound`] up to a horizon.
///
/// `BlackoutBound` is a right-continuous step function, so `δ − BB(δ)`
/// increases with slope one between its jump points; the running maximum is
/// therefore fully determined by the values just before each jump, which
/// are precomputed. Queries beyond the precomputation horizon return
/// `SBF(horizon)` — a sound (monotone) underestimate.
///
/// # Examples
///
/// ```
/// use prosa::{BlackoutBound, RosslSupply, SupplyBound};
/// use rossl_model::*;
///
/// let tasks = TaskSet::new(vec![Task::new(
///     TaskId(0), "t", Priority(1), Duration(10), Curve::sporadic(Duration(100)),
/// )])?;
/// let bb = BlackoutBound::for_config(&tasks, &WcetTable::example(), 1);
/// let sbf = RosslSupply::new(bb, Duration(10_000));
/// assert_eq!(sbf.sbf(Duration(0)), Duration(0));
/// // Monotone and never exceeding Δ:
/// assert!(sbf.sbf(Duration(500)) <= Duration(500));
/// assert!(sbf.sbf(Duration(500)) <= sbf.sbf(Duration(501)));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct RosslSupply {
    /// `(p_k, BB on [p_k, p_{k+1}), best supply over δ < p_k)`.
    intervals: Vec<(Duration, Duration, Duration)>,
    horizon: Duration,
}

impl RosslSupply {
    /// Precomputes the SBF for window lengths up to `horizon`.
    pub fn new(blackout: BlackoutBound, horizon: Duration) -> RosslSupply {
        let mut points = blackout.increase_points(horizon);
        points.retain(|p| !p.is_zero());

        let mut intervals = Vec::with_capacity(points.len() + 1);
        let mut best = Duration::ZERO; // max(0, δ − BB(δ)) over δ seen so far
        let mut start = Duration::ZERO;
        let mut level = blackout.bound(Duration::ZERO);
        for p in points {
            // Interval [start, p): BB constant at `level`; the supremum of
            // δ − level is at δ = p − 1.
            intervals.push((start, level, best));
            let at_end = (p - Duration(1)).saturating_sub(level);
            best = best.max(at_end);
            start = p;
            level = blackout.bound(p);
        }
        intervals.push((start, level, best));
        RosslSupply { intervals, horizon }
    }

    /// The precomputation horizon.
    pub fn horizon(&self) -> Duration {
        self.horizon
    }
}

impl SupplyBound for RosslSupply {
    fn sbf(&self, delta: Duration) -> Duration {
        let delta = delta.min(self.horizon);
        let idx = self
            .intervals
            .partition_point(|&(start, _, _)| start <= delta)
            .saturating_sub(1);
        let (_, level, best) = self.intervals[idx];
        best.max(delta.saturating_sub(level))
    }
}

impl fmt::Display for RosslSupply {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "RosslSupply({} intervals up to {})",
            self.intervals.len(),
            self.horizon
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rossl_model::{Curve, Priority, Task, TaskId, TaskSet, WcetTable};

    fn supply() -> RosslSupply {
        let tasks = TaskSet::new(vec![
            Task::new(
                TaskId(0),
                "a",
                Priority(1),
                Duration(10),
                Curve::sporadic(Duration(100)),
            ),
            Task::new(
                TaskId(1),
                "b",
                Priority(2),
                Duration(5),
                Curve::leaky_bucket(2, 1, 80),
            ),
        ])
        .unwrap();
        RosslSupply::new(
            BlackoutBound::for_config(&tasks, &WcetTable::example(), 2),
            Duration(5_000),
        )
    }

    fn brute_sbf(s: &RosslSupply, bb: &BlackoutBound, delta: u64) -> Duration {
        let _ = s;
        (0..=delta)
            .map(|d| Duration(d).saturating_sub(bb.bound(Duration(d))))
            .max()
            .unwrap_or(Duration::ZERO)
    }

    #[test]
    fn matches_brute_force_definition() {
        let tasks = TaskSet::new(vec![Task::new(
            TaskId(0),
            "a",
            Priority(1),
            Duration(10),
            Curve::sporadic(Duration(37)),
        )])
        .unwrap();
        let bb = BlackoutBound::for_config(&tasks, &WcetTable::example(), 1);
        let s = RosslSupply::new(bb.clone(), Duration(1_000));
        for d in (0..1_000).step_by(7) {
            assert_eq!(
                s.sbf(Duration(d)),
                brute_sbf(&s, &bb, d),
                "mismatch at Δ = {d}"
            );
        }
    }

    #[test]
    fn sbf_is_monotone_and_below_identity() {
        let s = supply();
        let mut prev = Duration::ZERO;
        for d in 0..3_000u64 {
            let v = s.sbf(Duration(d));
            assert!(v >= prev, "not monotone at {d}");
            assert!(v <= Duration(d), "exceeds identity at {d}");
            prev = v;
        }
    }

    #[test]
    fn queries_beyond_horizon_saturate() {
        let s = supply();
        assert_eq!(s.sbf(Duration(1_000_000)), s.sbf(s.horizon()));
    }

    #[test]
    fn inverse_is_exact_minimum() {
        let s = supply();
        for target in [1u64, 5, 50, 500] {
            if let Some(d) = s.inverse(Duration(target), Duration(5_000)) {
                assert!(s.sbf(d) >= Duration(target));
                assert!(d.is_zero() || s.sbf(d - Duration(1)) < Duration(target));
            }
        }
    }

    #[test]
    fn inverse_none_when_unreachable() {
        let s = supply();
        assert_eq!(s.inverse(Duration(u64::MAX / 2), Duration(5_000)), None);
    }

    #[test]
    fn inverse_matches_a_linear_scan() {
        let s = supply();
        let cap = Duration(2_000);
        for target in (0..1_500u64).step_by(13) {
            let target = Duration(target);
            let scan = (0..=cap.ticks())
                .map(Duration)
                .find(|&d| s.sbf(d) >= target);
            assert_eq!(s.inverse(target, cap), scan, "supply {target}");
        }
    }

    #[test]
    fn default_inverse_agrees_with_the_ideal_override() {
        // The identity supply without IdealSupply's closed-form inverse:
        // the trait's binary search must find the same windows.
        struct Searched;
        impl SupplyBound for Searched {
            fn sbf(&self, delta: Duration) -> Duration {
                delta
            }
        }
        let cap = Duration(100);
        for target in 0..150u64 {
            assert_eq!(
                Searched.inverse(Duration(target), cap),
                IdealSupply.inverse(Duration(target), cap),
                "supply {target}"
            );
        }
    }

    #[test]
    fn display_reports_the_horizon() {
        let s = supply();
        let shown = s.to_string();
        assert!(shown.starts_with("RosslSupply("), "{shown}");
        assert!(shown.ends_with("intervals up to 5000Δ)"), "{shown}");
    }

    #[test]
    fn ideal_supply_is_identity() {
        assert_eq!(IdealSupply.sbf(Duration(42)), Duration(42));
        assert_eq!(
            IdealSupply.inverse(Duration(7), Duration(100)),
            Some(Duration(7))
        );
        assert_eq!(IdealSupply.inverse(Duration(200), Duration(100)), None);
    }
}
