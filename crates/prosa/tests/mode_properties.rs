//! Property-based tests of the mode-parameterised NPFP recurrence over
//! randomly generated mixed-criticality task sets: the AMC analysis
//! against the single-criticality one, both schedulability tests against
//! the analyses they judge by, and the tight and busy-window variants.

use proptest::prelude::*;

use prosa::{
    analyse, analyse_amc, analyse_static_hi, analyse_tight, busy_window_length,
    check_amc_schedulability, check_schedulability, max_release_jitter, scale_wcets,
    AnalysisParams, BlackoutBound, ReleaseCurve, RosslSupply,
};
use rossl_model::{Criticality, Curve, Duration, Priority, Task, TaskId, TaskSet, WcetTable};

/// One task as the strategy draws it: (priority, C_LO, period, HI?,
/// C_HI − C_LO).
type Spec = (u32, u64, u64, bool, u64);

fn task_set(specs: &[Spec]) -> TaskSet {
    TaskSet::new(
        specs
            .iter()
            .enumerate()
            .map(|(i, &(prio, c_lo, period, hi, extra))| {
                let task = Task::new(
                    TaskId(i),
                    format!("t{i}"),
                    Priority(prio),
                    Duration(c_lo),
                    Curve::sporadic(Duration(period)),
                );
                if hi {
                    task.with_criticality(Criticality::Hi)
                        .with_wcet_hi(Duration(c_lo + extra))
                } else {
                    task.with_criticality(Criticality::Lo)
                }
            })
            .collect(),
    )
    .expect("specs are dense, non-empty, with non-zero wcets")
}

fn arb_specs() -> impl Strategy<Value = Vec<Spec>> {
    proptest::collection::vec(
        (
            1u32..12,
            3u64..300,
            400u64..3_000,
            proptest::bool::ANY,
            0u64..200,
        ),
        1..5,
    )
}

fn params(tasks: TaskSet) -> AnalysisParams {
    AnalysisParams::new(tasks, WcetTable::example(), 1).expect("example table, one socket")
}

/// Deadlines equal to the periods.
fn periods(specs: &[Spec]) -> Vec<Duration> {
    specs.iter().map(|s| Duration(s.2)).collect()
}

const HORIZON: Duration = Duration(300_000);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The LO-steady bounds are the single-criticality bounds, and a set
    /// the plain analysis rejects fails AMC too: AMC solves each task's
    /// LO recurrence first.
    #[test]
    fn amc_lo_bounds_are_the_plain_bounds(specs in arb_specs()) {
        let p = params(task_set(&specs));
        match (analyse(&p, HORIZON), analyse_amc(&p, HORIZON)) {
            (Ok(plain), Ok(amc)) => {
                for (a, b) in amc.iter().zip(plain.iter()) {
                    prop_assert_eq!(a.lo, b.response_bound);
                    prop_assert_eq!(a.jitter, b.jitter);
                }
            }
            (Err(_), amc) => prop_assert!(amc.is_err(), "AMC admitted a set the plain analysis rejects"),
            (Ok(_), Err(_)) => {}
        }
    }

    /// All-HI sets with `C_HI = C_LO` collapse the three per-mode bounds
    /// to the single-criticality bound.
    #[test]
    fn single_criticality_sets_collapse(specs in arb_specs()) {
        let plain: Vec<Spec> = specs.iter().map(|&(p, c, t, _, _)| (p, c, t, true, 0)).collect();
        let p = params(task_set(&plain));
        let (Ok(single), Ok(amc)) = (analyse(&p, HORIZON), analyse_amc(&p, HORIZON)) else {
            return Ok(());
        };
        for (a, b) in amc.iter().zip(single.iter()) {
            prop_assert_eq!(a.hi, Some(b.response_bound));
            prop_assert_eq!(a.transition, Some(b.response_bound));
            prop_assert_eq!(a.worst_total(), b.total_bound());
        }
    }

    /// HI tasks get both HI-mode bounds, with the mode change dominating
    /// the HI steady state; LO tasks get neither.
    #[test]
    fn hi_bounds_exist_exactly_for_hi_tasks(specs in arb_specs()) {
        let Ok(amc) = analyse_amc(&params(task_set(&specs)), HORIZON) else {
            return Ok(());
        };
        for (b, spec) in amc.iter().zip(&specs) {
            prop_assert_eq!(b.hi.is_some(), spec.3);
            prop_assert_eq!(b.transition.is_some(), spec.3);
            prop_assert!(b.transition >= b.hi);
            prop_assert!(b.worst_total() >= b.total_lo());
        }
    }

    /// HI mode suspends LO tasks: their budgets never reach a HI-steady
    /// bound.
    #[test]
    fn hi_steady_bounds_ignore_lo_budgets(specs in arb_specs(), bump in 1u64..50) {
        let heavier: Vec<Spec> = specs
            .iter()
            .map(|&(p, c, t, hi, x)| if hi { (p, c, t, hi, x) } else { (p, c + bump, t, hi, x) })
            .collect();
        let (Ok(base), Ok(bumped)) = (
            analyse_amc(&params(task_set(&specs)), HORIZON),
            analyse_amc(&params(task_set(&heavier)), HORIZON),
        ) else {
            return Ok(());
        };
        for (b, h) in base.iter().zip(bumped.iter()) {
            prop_assert_eq!(b.hi, h.hi);
            prop_assert!(h.lo >= b.lo);
        }
    }

    /// Every AMC bound is monotone in the budgets.
    #[test]
    fn amc_bounds_grow_with_scaled_budgets(specs in arb_specs(), permille in 1_000u64..1_600) {
        let tasks = task_set(&specs);
        let (Ok(base), Ok(scaled)) = (
            analyse_amc(&params(tasks.clone()), HORIZON),
            analyse_amc(&params(scale_wcets(&tasks, permille, 1000)), HORIZON),
        ) else {
            return Ok(());
        };
        for (b, s) in base.iter().zip(scaled.iter()) {
            prop_assert!(s.lo >= b.lo);
            prop_assert!(s.hi >= b.hi);
            prop_assert!(s.transition >= b.transition);
        }
    }

    /// Provisioning every task at `C_HI` bounds the LO and HI-steady
    /// totals from above.
    #[test]
    fn static_hi_bounds_the_steady_states(specs in arb_specs()) {
        let p = params(task_set(&specs));
        let (Ok(amc), Ok(static_hi)) = (analyse_amc(&p, HORIZON), analyse_static_hi(&p, HORIZON))
        else {
            return Ok(());
        };
        for (a, s) in amc.iter().zip(static_hi.iter()) {
            prop_assert!(a.total_lo() <= s.total_bound());
            if let Some(h) = a.total_hi() {
                prop_assert!(h <= s.total_bound());
            }
        }
    }

    /// The AMC test judges each task by the worst total `analyse_amc`
    /// reports, and a set `analyse_amc` rejects leaves some task without
    /// a bound.
    #[test]
    fn amc_verdicts_follow_the_analysis(specs in arb_specs()) {
        let p = params(task_set(&specs));
        let verdicts = check_amc_schedulability(&p, &periods(&specs), HORIZON).unwrap();
        match analyse_amc(&p, HORIZON) {
            Ok(amc) => {
                for (v, b) in verdicts.verdicts().iter().zip(amc.iter()) {
                    prop_assert_eq!(v.bound, Some(b.worst_total()));
                }
            }
            Err(_) => prop_assert!(verdicts.verdicts().iter().any(|v| v.bound.is_none())),
        }
    }

    /// The single-criticality test judges each task by the total
    /// `analyse` reports, and a set `analyse` rejects leaves some task
    /// without a bound.
    #[test]
    fn plain_verdicts_follow_the_analysis(specs in arb_specs()) {
        let p = params(task_set(&specs));
        let verdicts = check_schedulability(&p, &periods(&specs), HORIZON).unwrap();
        match analyse(&p, HORIZON) {
            Ok(result) => {
                for (v, b) in verdicts.verdicts().iter().zip(result.iter()) {
                    prop_assert_eq!(v.bound, Some(b.total_bound()));
                }
            }
            Err(_) => prop_assert!(verdicts.verdicts().iter().any(|v| v.bound.is_none())),
        }
    }

    /// The per-task supply only removes overhead: wherever the standard
    /// analysis converges, the tight one does too, with bounds no larger.
    #[test]
    fn tight_never_exceeds_standard(specs in arb_specs(), n_sockets in 1usize..3) {
        let p = AnalysisParams::new(task_set(&specs), WcetTable::example(), n_sockets).unwrap();
        let Ok(standard) = analyse(&p, HORIZON) else {
            return Ok(());
        };
        let tight = analyse_tight(&p, HORIZON).expect("tight converges where standard does");
        for (s, t) in standard.iter().zip(tight.iter()) {
            prop_assert!(t.total_bound() <= s.total_bound());
            prop_assert_eq!(t.jitter, s.jitter);
        }
    }

    /// A level-i busy window holds the blocking job and one job of every
    /// task of priority ≥ i: SBF(L) ≤ L, and each release curve counts
    /// at least one release in any non-empty window.
    #[test]
    fn busy_window_holds_every_hep_job_once(specs in arb_specs()) {
        let tasks = task_set(&specs);
        let wcet = WcetTable::example();
        let jitter = max_release_jitter(&wcet, 1);
        let curves: Vec<ReleaseCurve> = tasks
            .iter()
            .map(|t| ReleaseCurve::new(t.arrival_curve().clone(), jitter))
            .collect();
        let supply = RosslSupply::new(BlackoutBound::for_config(&tasks, &wcet, 1), HORIZON);
        for task in tasks.iter() {
            let Ok(window) = busy_window_length(&tasks, &curves, &supply, task.id(), HORIZON)
            else {
                continue;
            };
            let blocking = tasks
                .lower_priority_than(task.id())
                .map(Task::wcet)
                .max()
                .unwrap_or(Duration::ZERO);
            let hep: Duration = tasks
                .iter()
                .filter(|t| t.priority() >= task.priority())
                .map(Task::wcet)
                .sum();
            prop_assert!(window >= blocking + hep, "{}: L = {}", task.id(), window);
        }
    }

    /// Scaling keeps each task's criticality and scales both budgets
    /// with the same rounding.
    #[test]
    fn scaling_keeps_the_mixed_criticality_shape(specs in arb_specs(), num in 1u64..3_000) {
        let tasks = task_set(&specs);
        let scaled = scale_wcets(&tasks, num, 1000);
        let scale = |c: Duration| Duration((c.ticks() * num).div_ceil(1000).max(1));
        for (t, s) in tasks.iter().zip(scaled.iter()) {
            prop_assert_eq!(s.criticality(), t.criticality());
            prop_assert_eq!(s.wcet(), scale(t.wcet()));
            prop_assert_eq!(s.wcet_hi(), scale(t.wcet_hi()));
            prop_assert!(s.wcet_hi() >= s.wcet());
        }
    }
}
