//! Property tests for the workload generator: the statistical sampling
//! layers honour their contracts (UUniFast hits the requested total
//! utilization, Weibull inflation preserves the Vestal C_LO ≤ C_HI
//! ordering), and the whole pipeline is seed-deterministic down to the
//! byte.

use proptest::prelude::*;
use rossl_workloads::{
    generate, uunifast, ArrivalFamily, GeneratorConfig, SplitRng, Weibull,
};

/// The largest ulp among the partial sums that appear while adding `n`
/// shares of a total `u`: the tolerance a correctly implemented
/// last-share recomputation must meet.
fn ulp(x: f64) -> f64 {
    let next = f64::from_bits(x.to_bits() + 1);
    next - x
}

fn family_of(tag: u8) -> ArrivalFamily {
    match tag % 3 {
        0 => ArrivalFamily::Periodic,
        1 => ArrivalFamily::Sporadic,
        _ => ArrivalFamily::Bursty,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// UUniFast shares are individually valid (non-negative, at most the
    /// total) and sum to the requested utilization within one ulp.
    #[test]
    fn uunifast_sums_to_the_target(
        n in 1usize..24,
        // Totals across the whole admission sweep plus pathological
        // near-zero and over-1 values.
        total_millis in 1u64..2_000,
        seed in 0u64..u64::MAX,
    ) {
        let total = total_millis as f64 / 1_000.0;
        let mut rng = SplitRng::new(seed);
        let shares = uunifast(n, total, &mut rng);
        prop_assert_eq!(shares.len(), n);
        for &s in &shares {
            prop_assert!(s >= 0.0, "negative share {s}");
            prop_assert!(s <= total + ulp(total), "share {s} above total {total}");
        }
        let sum: f64 = shares.iter().sum();
        prop_assert!(
            (sum - total).abs() <= ulp(total),
            "shares sum to {sum}, want {total} ± 1 ulp"
        );
    }

    /// Weibull samples are non-negative and finite; clamped samples stay
    /// inside the requested interval.
    #[test]
    fn weibull_samples_respect_their_support(
        shape_centi in 20u64..400,
        scale_centi in 1u64..500,
        lo_centi in 0u64..100,
        width_centi in 1u64..300,
        seed in 0u64..u64::MAX,
    ) {
        let w = Weibull::new(shape_centi as f64 / 100.0, scale_centi as f64 / 100.0);
        let (lo, hi) = (
            lo_centi as f64 / 100.0,
            (lo_centi + width_centi) as f64 / 100.0,
        );
        let mut rng = SplitRng::new(seed);
        for _ in 0..32 {
            let x = w.sample(&mut rng);
            prop_assert!(x.is_finite() && x >= 0.0, "sample {x} outside support");
            let c = w.sample_clamped(&mut rng, lo, hi);
            prop_assert!((lo..=hi).contains(&c), "clamped sample {c} outside [{lo}, {hi}]");
        }
    }

    /// Every generated task set is well-formed: model invariants hold
    /// (the `task_set()` constructor enforces them), periods stay in the
    /// configured range, and mixed-criticality sets keep the Vestal
    /// ordering C_LO ≤ C_HI on every task.
    #[test]
    fn generated_sets_are_valid_and_vestal_ordered(
        n_tasks in 1usize..12,
        util_millis in 50u64..1_200,
        family_tag in 0u8..6,
        mixed in proptest::bool::ANY,
        seed in 0u64..u64::MAX,
    ) {
        let cfg = GeneratorConfig {
            n_tasks,
            utilization: util_millis as f64 / 1_000.0,
            period_range: (500, 8_000),
            family: family_of(family_tag),
            mixed_criticality: mixed,
        };
        let mut rng = SplitRng::new(seed);
        let spec = generate(&cfg, &mut rng);
        prop_assert_eq!(spec.tasks.len(), n_tasks);
        // The constructor re-checks dense ids, non-zero WCETs and valid
        // curves; a panic here is a generator bug.
        let tasks = spec.task_set();
        prop_assert_eq!(tasks.len(), n_tasks);
        for t in &spec.tasks {
            prop_assert!(t.wcet >= 1, "zero WCET");
            prop_assert!(
                (500..=8_000).contains(&t.period),
                "period {} outside the configured range",
                t.period
            );
            prop_assert!(t.wcet <= t.period, "WCET above period");
            prop_assert!(
                t.wcet_hi >= t.wcet,
                "Vestal ordering violated: C_HI {} < C_LO {}",
                t.wcet_hi,
                t.wcet
            );
        }
        if mixed {
            prop_assert!(spec.tasks.iter().any(|t| t.hi), "mixed set with no HI task");
            if n_tasks > 1 {
                prop_assert!(spec.tasks.iter().any(|t| !t.hi), "mixed set with no LO task");
            }
        } else {
            // Plain sets are uniformly critical: every task runs at its
            // single budget.
            prop_assert!(spec.tasks.iter().all(|t| t.hi), "plain sets stay uniform");
        }
    }

    /// The pipeline is a pure function of (config, seed): re-running with
    /// the same seed reproduces the task set byte for byte, and the two
    /// runs' sets fingerprint-compare equal through `Debug` formatting
    /// (which covers every field).
    #[test]
    fn same_seed_means_byte_identical_sets(
        n_tasks in 1usize..12,
        util_millis in 50u64..1_200,
        family_tag in 0u8..6,
        mixed in proptest::bool::ANY,
        seed in 0u64..u64::MAX,
    ) {
        let cfg = GeneratorConfig {
            n_tasks,
            utilization: util_millis as f64 / 1_000.0,
            period_range: (500, 8_000),
            family: family_of(family_tag),
            mixed_criticality: mixed,
        };
        let a = generate(&cfg, &mut SplitRng::new(seed));
        let b = generate(&cfg, &mut SplitRng::new(seed));
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(format!("{a:?}").into_bytes(), format!("{b:?}").into_bytes());
    }
}
