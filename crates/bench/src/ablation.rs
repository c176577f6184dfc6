//! E11–E12: ablation studies and schedulability curves.
//!
//! * [`exp_ablation`] (E11) — three ablations of the analysis
//!   ingredients: real multi-socket runs violate the paper's per-round
//!   `PollingOvh`/`ReadOvh` bounds, so the two-round closure is
//!   load-bearing; the jitter offset stays a small share of the final
//!   bound `R + J` across socket counts (the paper's "a few
//!   microseconds" argument in §2.4); and `δ − BlackoutBound(δ)` dips
//!   while the SBF, its maximum over prefixes, stays monotone (§4.4).
//! * [`exp_schedulability`] (E12) — the classic RTS evaluation figure:
//!   acceptance ratio vs. utilization for the overhead-aware analysis vs
//!   the overhead-oblivious baseline, over randomly generated task sets.
//!   The aware analysis accepts less — the price of sound overhead
//!   accounting — and the gap widens with the socket count.

use std::fmt::Write as _;

use prosa::{
    analyse, check_schedulability, AnalysisParams, BlackoutBound, RosslSupply, SupplyBound,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use refined_prosa::SystemBuilder;
use rossl::FirstByteCodec;
use rossl_model::{
    Curve, Duration, Instant, Priority, Task, TaskId, TaskSet, WcetTable,
};
use rossl_schedule::convert;
use rossl_timing::{workload, WorstCase};

/// E11: ablations of the analysis ingredients.
pub fn exp_ablation() -> String {
    let mut out = String::new();

    // --- Ablation 1: the per-instance polling/read bounds. The paper's
    // prose states the *per-round* bound ("at most as many failed reads as
    // there are sockets", Def. 2.2 uses PB = n·WcetFR); our conversion
    // charges all trailing failures after the last success to PollingOvh,
    // so the sound bound is the two-round closure PB = (2n−1)·WcetFR
    // (DESIGN.md §3). Real multi-socket runs violate the per-round bound —
    // the closure is load-bearing.
    let n_sockets = 3usize;
    let system = crate::setup::scaled(2, n_sockets); // 2 tasks on 3 sockets
    let arrivals = workload::saturating(
        system.tasks(),
        &FirstByteCodec,
        &workload::round_robin_sockets(n_sockets),
        Instant(25_000),
    );
    let run = system
        .simulate(&arrivals, WorstCase, Instant(30_000))
        .expect("run");
    let schedule = convert(&run.trace, n_sockets).expect("convert");
    let full_bounds = rossl_model::OverheadBounds::derive(system.wcet(), n_sockets);
    let mut naive_bounds = full_bounds;
    naive_bounds.polling = system.wcet().failed_read.saturating_mul(n_sockets as u64);
    naive_bounds.read = system
        .wcet()
        .failed_read
        .saturating_mul(n_sockets as u64 - 1)
        .saturating_add(system.wcet().successful_read);

    let full_ok = rossl_schedule::check_validity(&schedule, system.tasks(), &full_bounds);
    let naive_res = rossl_schedule::check_validity(&schedule, system.tasks(), &naive_bounds);
    let _ = writeln!(
        out,
        "ablation 1: per-round PollingOvh/ReadOvh bounds (paper prose) vs two-round closure"
    );
    let _ = writeln!(
        out,
        "  two-round bounds (PB = {}, RB = {}): {}",
        full_bounds.polling.ticks(),
        full_bounds.read.ticks(),
        if full_ok.is_ok() { "all instances within bounds" } else { "VIOLATED" }
    );
    match &naive_res {
        Err(e) => {
            let _ = writeln!(
                out,
                "  per-round bounds  (PB = {}, RB = {}): violated — {e}",
                naive_bounds.polling.ticks(),
                naive_bounds.read.ticks()
            );
        }
        Ok(()) => {
            let _ = writeln!(out, "  per-round bounds unexpectedly held");
        }
    }
    assert!(full_ok.is_ok(), "the two-round closure must stay sound");
    assert!(
        naive_res.is_err(),
        "the per-round bound must be violated by real runs"
    );

    // --- Ablation 2: the jitter offset's share of the final bound.
    let _ = writeln!(out, "ablation 2: the jitter offset J in R + J");
    let _ = writeln!(out, "  sockets | J (ticks) | worst R+J | J share");
    for n_sockets in [1usize, 2, 4, 8] {
        let system = crate::setup::scaled(3, n_sockets);
        let bounds = analyse(system.params(), Duration(400_000)).expect("schedulable");
        let worst = bounds
            .iter()
            .map(|b| b.total_bound())
            .max()
            .expect("non-empty");
        let jitter = bounds.bounds()[0].jitter;
        let share = 100.0 * jitter.ticks() as f64 / worst.ticks() as f64;
        let _ = writeln!(
            out,
            "  {:>7} | {:>9} | {:>9} | {:>6.2}%",
            n_sockets,
            jitter.ticks(),
            worst.ticks(),
            share
        );
        assert!(
            share < 50.0,
            "the jitter offset must not dominate the bound"
        );
    }
    let _ = writeln!(
        out,
        "  the offset never dominates — the paper's §2.4 argument that jitter\n  \
         cannot render the theorem vacuous"
    );

    // --- Ablation 3: the SBF's max-over-prefixes monotonization.
    // δ − BB(δ) itself is not monotone; SBF must be.
    let bb = BlackoutBound::for_config(system.tasks(), system.wcet(), 2);
    let sbf = RosslSupply::new(bb.clone(), Duration(10_000));
    let mut raw_dips = 0usize;
    let mut prev_raw = Duration::ZERO;
    for d in 0..5_000u64 {
        let raw = Duration(d).saturating_sub(bb.bound(Duration(d)));
        if raw < prev_raw {
            raw_dips += 1;
        }
        prev_raw = raw;
        let s = sbf.sbf(Duration(d));
        assert!(
            d == 0 || s >= sbf.sbf(Duration(d - 1)),
            "SBF must be monotone"
        );
    }
    let _ = writeln!(
        out,
        "ablation 3: δ − BlackoutBound(δ) dips {raw_dips} times over [0, 5000); \
         SBF(Δ) = max over prefixes never does (aRSA requirement, §4.4)"
    );
    assert!(raw_dips > 0, "the monotonization must be load-bearing");
    out
}

/// Generates a random task set with total long-run utilization ≈ `u`
/// (UUniFast-style weight split, rate-monotonic priorities, sporadic
/// curves with periods log-uniform in `[500, 8000]`).
fn random_task_set(n_tasks: usize, u: f64, rng: &mut StdRng) -> TaskSet {
    // Random proportions summing to 1.
    let mut weights: Vec<f64> = (0..n_tasks).map(|_| rng.gen_range(0.05f64..1.0)).collect();
    let total: f64 = weights.iter().sum();
    for w in &mut weights {
        *w /= total;
    }
    let mut periods: Vec<u64> = (0..n_tasks)
        .map(|_| {
            let log = rng.gen_range(500f64.ln()..8000f64.ln());
            log.exp() as u64
        })
        .collect();
    periods.sort_unstable();
    let tasks = (0..n_tasks)
        .map(|i| {
            let c = ((weights[i] * u * periods[i] as f64) as u64).max(1);
            Task::new(
                TaskId(i),
                format!("t{i}"),
                // Rate-monotonic: shorter period (smaller index) = higher
                // priority.
                Priority((n_tasks - i) as u32),
                Duration(c),
                Curve::sporadic(Duration(periods[i])),
            )
        })
        .collect();
    TaskSet::new(tasks).expect("generated sets are valid")
}

/// E12: acceptance ratio vs utilization, aware vs baseline.
pub fn exp_schedulability(sets_per_point: usize) -> String {
    let mut out = String::new();
    let horizon = Duration(300_000);
    let _ = writeln!(
        out,
        "acceptance ratio over {sets_per_point} random task sets per point (3 tasks, implicit deadlines)"
    );
    let _ = writeln!(out, "   U  | baseline (ideal) | aware, 1 socket | aware, 4 sockets");
    let mut crossover_seen = false;
    for &u10 in &[2u32, 4, 6, 7, 8, 9] {
        let u = u10 as f64 / 10.0;
        let mut accept = [0usize; 3]; // baseline, aware1, aware4
        for seed in 0..sets_per_point as u64 {
            let mut rng = StdRng::seed_from_u64(seed * 100 + u10 as u64);
            let tasks = random_task_set(3, u, &mut rng);
            let deadlines: Vec<Duration> = tasks
                .iter()
                .map(|t| match t.arrival_curve() {
                    Curve::Sporadic { min_inter_arrival } => *min_inter_arrival,
                    _ => Duration(10_000),
                })
                .collect();
            // Baseline: ideal processor, zero jitter, tested via the same
            // deadline comparison.
            let base = AnalysisParams::new(tasks.clone(), WcetTable::example(), 1)
                .expect("params");
            let naive = prosa::analyse_baseline(&base, horizon)
                .map(|r| {
                    r.iter()
                        .zip(&deadlines)
                        .all(|(b, &d)| b.total_bound() <= d)
                })
                .unwrap_or(false);
            if naive {
                accept[0] += 1;
            }
            for (slot, n_sockets) in [(1usize, 1usize), (2, 4)] {
                let params = AnalysisParams::new(tasks.clone(), WcetTable::example(), n_sockets)
                    .expect("params");
                let ok = check_schedulability(&params, &deadlines, horizon)
                    .map(|s| s.all_schedulable())
                    .unwrap_or(false);
                if ok {
                    accept[slot] += 1;
                }
            }
        }
        if accept[0] > accept[2] {
            crossover_seen = true;
        }
        let pct = |k: usize| 100.0 * accept[k] as f64 / sets_per_point as f64;
        let _ = writeln!(
            out,
            " {u:>4.1} | {:>15.0}% | {:>14.0}% | {:>15.0}%",
            pct(0),
            pct(1),
            pct(2)
        );
        // Soundness ordering: the aware analysis never accepts a set the
        // baseline rejects (its bounds strictly dominate).
        assert!(accept[1] <= accept[0], "aware(1) must be ≤ baseline");
        assert!(accept[2] <= accept[1], "aware(4) must be ≤ aware(1)");
    }
    let _ = writeln!(
        out,
        "shape: acceptance falls with utilization; overhead-awareness costs capacity,\n\
         more sockets cost more (larger polling overheads) — crossover observed: {crossover_seen}"
    );
    assert!(crossover_seen, "the curves must separate");
    out
}

/// E13: sensitivity analysis — how much WCET headroom each example system
/// has before its deadlines break (prosa::breakdown_scale).
pub fn exp_sensitivity() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "system     | breakdown WCET scale (×1000 = base)");
    for (name, factor) in [("tight", 4u64), ("moderate", 2), ("relaxed", 1)] {
        let system = SystemBuilder::new()
            .task(
                "worker",
                Priority(2),
                Duration(30 * factor),
                Curve::sporadic(Duration(2_000)),
            )
            .task(
                "monitor",
                Priority(7),
                Duration(10 * factor),
                Curve::sporadic(Duration(1_000)),
            )
            .sockets(2)
            .build()
            .expect("system");
        let deadlines = [Duration(2_000), Duration(1_000)];
        let scale = prosa::breakdown_scale(
            system.params(),
            &deadlines,
            Duration(300_000),
            50_000,
        )
        .expect("well-formed")
        .expect("base schedulable");
        let _ = writeln!(out, "{name:<10} | {scale:>6} (= ×{:.2})", scale as f64 / 1000.0);
        assert!(scale >= 1_000, "base system must be schedulable");
    }
    let _ = writeln!(
        out,
        "larger base WCETs leave proportionally less headroom — the bisection\n\
         pinpoints the breakdown scale to one per-mille"
    );
    out
}

/// E14: the tightened per-task analysis (`prosa::analyse_tight`) — hep-only
/// dispatch-overhead counting — vs the standard bound: dominance, the
/// improvement per task, and end-to-end soundness of the tighter bounds
/// over verified runs.
pub fn exp_tight(seeds: u64) -> String {
    let mut out = String::new();
    let system = crate::setup::canonical();
    let horizon = Duration(400_000);
    let standard = analyse(system.params(), horizon).expect("schedulable");
    let tight = prosa::analyse_tight(system.params(), horizon).expect("schedulable");

    let _ = writeln!(out, "task     | priority | standard R+J | tight R+J | improvement");
    for (s, t) in standard.iter().zip(tight.iter()) {
        let task = system.tasks().task(s.task).expect("task");
        let improvement =
            100.0 * (1.0 - t.total_bound().ticks() as f64 / s.total_bound().ticks() as f64);
        let _ = writeln!(
            out,
            "{:<8} | {:>8} | {:>12} | {:>9} | {:>10.1}%",
            task.name(),
            task.priority().0,
            s.total_bound().ticks(),
            t.total_bound().ticks(),
            improvement
        );
        assert!(t.total_bound() <= s.total_bound(), "tight must dominate");
    }

    // End-to-end soundness of the tighter bounds: verify runs against them.
    let verifier =
        refined_prosa::TimingVerifier::with_bounds(system.params().clone(), tight);
    let mut violations = 0usize;
    let mut completed = 0usize;
    for seed in 0..seeds {
        let arrivals = system.random_workload(seed, Instant(60_000));
        let run = system
            .simulate(
                &arrivals,
                rossl_timing::UniformCost::new(StdRng::seed_from_u64(seed ^ 0xF00D)),
                Instant(60_000),
            )
            .expect("run");
        let report = verifier.verify(&arrivals, &run).expect("hypotheses hold");
        violations += report.bound_violations;
        completed += report.jobs_completed;
    }
    let _ = writeln!(
        out,
        "tight bounds verified over {seeds} seeds: {completed} jobs, {violations} violations"
    );
    assert_eq!(violations, 0, "the tightened analysis must stay sound");
    out
}

/// E15: measured busy spans vs the analytical busy-window length `L`.
/// Every contiguous non-idle span of a valid run is a busy window at the
/// lowest priority level, so the measured maximum must stay below the
/// lowest-priority task's `L` (computed on the release-adjusted curves,
/// whose windows can only be longer).
pub fn exp_busy_windows(seeds: u64) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "system    | analytical L (lowest prio) | max measured busy span");
    for (name, system) in crate::setup::all_systems() {
        let horizon = Duration(400_000);
        let blackout =
            BlackoutBound::for_config(system.tasks(), system.wcet(), system.n_sockets());
        let jitter = blackout.overhead_bounds().max_release_jitter();
        let curves: Vec<prosa::ReleaseCurve> = system
            .tasks()
            .iter()
            .map(|t| prosa::ReleaseCurve::new(t.arrival_curve().clone(), jitter))
            .collect();
        let supply = RosslSupply::new(blackout, horizon);
        let lowest = system
            .tasks()
            .iter()
            .min_by_key(|t| t.priority())
            .expect("non-empty")
            .id();
        let analytical =
            prosa::busy_window_length(system.tasks(), &curves, &supply, lowest, horizon)
                .expect("schedulable");

        let mut measured = Duration::ZERO;
        for seed in 0..seeds {
            let arrivals = system.random_workload(seed, Instant(50_000));
            let run = system
                .simulate(&arrivals, WorstCase, Instant(60_000))
                .expect("run");
            let schedule = convert(&run.trace, system.n_sockets()).expect("convert");
            measured = measured.max(schedule.max_busy_span());
        }
        let _ = writeln!(
            out,
            "{name:<9} | {:>27} | {:>22}",
            analytical.ticks(),
            measured.ticks()
        );
        assert!(
            measured <= analytical,
            "{name}: measured busy span {measured} exceeds analytical L {analytical}"
        );
    }
    let _ = writeln!(
        out,
        "every measured busy span fits inside the analytical busy window — the\n\
         offset search space of the solver (§4.2) is large enough"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_windows_are_covered() {
        let report = exp_busy_windows(3);
        assert!(report.contains("fits inside"));
    }

    #[test]
    fn tight_analysis_dominates_and_stays_sound() {
        let report = exp_tight(3);
        assert!(report.contains("0 violations"));
    }

    #[test]
    fn ablation_shows_design_choices_are_load_bearing() {
        let report = exp_ablation();
        assert!(report.contains("per-round bounds  (PB"));
        assert!(report.contains("violated — "));
        assert!(report.contains("never does"));
    }

    #[test]
    fn schedulability_curves_have_the_right_shape() {
        let report = exp_schedulability(10);
        assert!(report.contains("crossover observed: true"));
    }

    #[test]
    fn sensitivity_reports_headroom() {
        let report = exp_sensitivity();
        assert!(report.contains("breakdown"));
    }
}
