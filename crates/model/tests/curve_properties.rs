//! Property-based tests of the arrival-curve axioms (§4.1, Eq. 2).

use proptest::prelude::*;
use rossl_model::{check_respects, ArrivalCurve, Curve, CurveViolation, Duration, Instant};

fn arb_curve() -> impl Strategy<Value = Curve> {
    prop_oneof![
        (1u64..200).prop_map(|t| Curve::sporadic(Duration(t))),
        (1u64..200).prop_map(|t| Curve::periodic(Duration(t))),
        (1u64..8, 0u64..5, 1u64..50)
            .prop_filter("non-degenerate", |(b, n, _)| *b > 0 || *n > 0)
            .prop_map(|(b, n, d)| Curve::leaky_bucket(b, n, d)),
        proptest::collection::vec((1u64..300, 1u64..20), 1..5).prop_map(|mut pts| {
            pts.sort();
            pts.dedup_by_key(|p| p.0);
            let mut acc = 0;
            let points = pts
                .into_iter()
                .map(|(d, n)| {
                    acc += n;
                    (Duration(d), acc)
                })
                .collect();
            Curve::staircase(points)
        }),
    ]
}

/// Eq. 2 checked on every window that starts and ends at an arrival, in
/// the order `check_respects` reports: by first arrival, then by last.
fn pair_scan(curve: &Curve, arrivals: &[Instant]) -> Result<(), CurveViolation> {
    for (i, &start) in arrivals.iter().enumerate() {
        for (j, &end) in arrivals.iter().enumerate().skip(i) {
            let observed = (j - i + 1) as u64;
            let window_len = end.saturating_duration_since(start) + Duration(1);
            let bound = curve.max_arrivals(window_len);
            if observed > bound {
                return Err(CurveViolation {
                    window_start: start,
                    window_len,
                    observed,
                    bound,
                });
            }
        }
    }
    Ok(())
}

/// Every curve shape, including valid leaky buckets with no burst, which
/// admit no arrival at all.
fn arb_any_curve() -> impl Strategy<Value = Curve> {
    prop_oneof![
        arb_curve(),
        (0u64..4, 1u64..5, 1u64..200).prop_map(|(b, n, d)| Curve::leaky_bucket(b, n, d)),
    ]
}

/// The gap at which arrivals start to press against the curve: the
/// inter-arrival time, or the spacing of the leaky bucket's rate.
fn limit(curve: &Curve) -> u64 {
    match *curve {
        Curve::Sporadic {
            min_inter_arrival: t,
        }
        | Curve::Periodic { period: t } => t.ticks(),
        Curve::LeakyBucket {
            rate_num, rate_den, ..
        } => rate_den.div_ceil(rate_num.max(1)).max(1),
        Curve::Staircase { ref points } => points[0].0.ticks(),
    }
}

/// Sorted arrivals from `start` whose gaps sit at or just above `limit`,
/// except that about `per_mille` of them fall short of it.
fn straddling(limit: u64, start: u64, per_mille: u64, raw: &[u64]) -> Vec<Instant> {
    let mut now = start;
    raw.iter()
        .map(|&r| {
            let at = Instant(now);
            now += if r < per_mille {
                r % limit
            } else {
                limit + r % 3
            };
            at
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `check_respects` returns exactly what the pair scan returns: `Ok`,
    /// or the same first witness.
    #[test]
    fn check_respects_matches_the_pair_scan(
        curve in arb_any_curve(),
        start in 0u64..1_000,
        rate in 0usize..4,
        raw in proptest::collection::vec(0u64..1_000, 0..200),
    ) {
        let per_mille = [0, 2, 10, 100][rate];
        let arrivals = straddling(limit(&curve), start, per_mille, &raw);
        prop_assert_eq!(check_respects(&curve, &arrivals), pair_scan(&curve, &arrivals));
    }

    /// Where `a·r` overflows a `u64`, `max_arrivals` saturates and the
    /// curve stops growing; `check_respects` still agrees with the pair
    /// scan.
    #[test]
    fn overflowing_leaky_buckets_match_the_pair_scan(
        burst in 1u64..4,
        shift in 40u32..63,
        spacing in 1u64..16,
        start in 0u64..4_096,
        rate in 0usize..3,
        raw in proptest::collection::vec(0u64..1_000, 0..200),
    ) {
        let num = 1u64 << shift;
        let curve = Curve::leaky_bucket(burst, num, num.saturating_mul(spacing));
        let per_mille = [0, 10, 100][rate];
        let arrivals = straddling(spacing, start, per_mille, &raw);
        prop_assert_eq!(check_respects(&curve, &arrivals), pair_scan(&curve, &arrivals));
    }

    /// Release builds drop the sortedness assertion. On slices that step
    /// forward by at least the curve's limit but sometimes back,
    /// `check_respects` still returns exactly what the pair scan returns:
    /// a step back must not read as a long gap.
    #[cfg(not(debug_assertions))]
    #[test]
    fn unsorted_slices_match_the_pair_scan(
        curve in arb_any_curve(),
        start in 0u64..1_000,
        steps in proptest::collection::vec((0u64..4, 0u64..1_000), 0..60),
    ) {
        let limit = limit(&curve);
        let mut now = start;
        let arrivals: Vec<Instant> = steps
            .iter()
            .map(|&(back, r)| {
                let at = Instant(now);
                now = if back == 0 {
                    now.saturating_sub(r % (2 * limit))
                } else {
                    now + limit + r % 3
                };
                at
            })
            .collect();
        prop_assert_eq!(check_respects(&curve, &arrivals), pair_scan(&curve, &arrivals));
    }
}

proptest! {
    /// α(0) = 0 for every curve.
    #[test]
    fn zero_window_admits_no_arrivals(curve in arb_curve()) {
        prop_assert!(curve.validate().is_ok());
        prop_assert_eq!(curve.max_arrivals(Duration::ZERO), 0);
    }

    /// α is monotonically non-decreasing.
    #[test]
    fn curves_are_monotone(curve in arb_curve(), a in 0u64..1000, b in 0u64..1000) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(curve.max_arrivals(Duration(lo)) <= curve.max_arrivals(Duration(hi)));
    }

    /// Every increase point reported is a genuine increase, and no increase
    /// is missed below the horizon.
    #[test]
    fn increase_points_are_exact(curve in arb_curve()) {
        let horizon = Duration(400);
        let pts = curve.increase_points(horizon);
        for w in pts.windows(2) {
            prop_assert!(w[0] < w[1], "increase points must be sorted");
        }
        let mut iter = pts.iter().copied().peekable();
        for d in 1..=horizon.ticks() {
            let increased =
                curve.max_arrivals(Duration(d)) > curve.max_arrivals(Duration(d - 1));
            let reported = iter.peek() == Some(&Duration(d));
            if reported {
                iter.next();
            }
            prop_assert_eq!(increased, reported, "Δ = {}", d);
        }
    }

    /// A sequence spaced by at least the sporadic MIT always respects the
    /// sporadic curve.
    #[test]
    fn sporadic_spacing_respects_sporadic_curve(
        t in 1u64..100,
        gaps in proptest::collection::vec(0u64..100, 0..20),
    ) {
        let curve = Curve::sporadic(Duration(t));
        let mut now = 0u64;
        let mut arrivals = vec![Instant(0)];
        for g in gaps {
            now += t + g;
            arrivals.push(Instant(now));
        }
        prop_assert!(check_respects(&curve, &arrivals).is_ok());
    }

    /// `check_respects` agrees with a brute-force window scan.
    #[test]
    fn check_respects_matches_brute_force(
        curve in arb_curve(),
        raw in proptest::collection::vec(0u64..300, 0..12),
    ) {
        let mut arrivals: Vec<Instant> = raw.into_iter().map(Instant).collect();
        arrivals.sort();
        let fast = check_respects(&curve, &arrivals).is_ok();
        // Brute force: every window [s, s+Δ) with s, Δ in range.
        let mut brute = true;
        'outer: for s in 0..=300u64 {
            for d in 1..=301u64 {
                let count = arrivals
                    .iter()
                    .filter(|a| a.ticks() >= s && a.ticks() < s + d)
                    .count() as u64;
                if count > curve.max_arrivals(Duration(d)) {
                    brute = false;
                    break 'outer;
                }
            }
        }
        prop_assert_eq!(fast, brute);
    }
}

/// The window from instant 0 to `Instant::MAX` is one tick longer than a
/// `Duration` holds, so the pair scan's window length wraps there. The
/// one-pass check leaves such windows to it rather than accept them.
#[cfg(not(debug_assertions))]
#[test]
fn a_window_over_every_instant_goes_to_the_pair_scan() {
    let arrivals = [Instant(0), Instant::MAX];
    for curve in [Curve::sporadic(Duration::MAX), Curve::leaky_bucket(2, 1, 1)] {
        assert_eq!(
            check_respects(&curve, &arrivals),
            pair_scan(&curve, &arrivals)
        );
    }
}
