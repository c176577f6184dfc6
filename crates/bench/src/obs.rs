//! E19: the runtime telemetry subsystem — bound-margin observatory and
//! hot-path overhead (see DESIGN.md §7 and EXPERIMENTS.md row E19).
//!
//! Three claims, demonstrated on the canonical system:
//!
//! 1. **Soundness in the model**: a nominal run under the observatory
//!    raises *zero* [`rossl_obs::BoundViolation`]s — every measured
//!    response stays inside its Prosa bound — while the per-task margin
//!    gauges quantify the live pessimism gap.
//! 2. **Alert fidelity out of the model**: under a seeded WCET-overrun
//!    fault plan the observatory raises at least one alert, and the set
//!    of flagged job ids matches an offline recomputation from the
//!    simulation record exactly — no false positives, no misses.
//! 3. **Hot-path cost**: the batched [`rossl_obs::SchedSink`] keeps the
//!    instrumented scheduler loop within 5% of the no-op sink, without
//!    losing a single step count.
//!
//! Results are written to `BENCH_obs.json` (the `BENCH_*.json`
//! perf-trajectory convention); the nominal run's full metrics snapshot
//! is exported to `OBS_snapshot.json` for the CI artifact.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant as Wall;

use refined_prosa::faults::{FaultClass, FaultPlan};
use refined_prosa::{RosslSystem, RunTelemetry};
use rossl::{ClientConfig, FirstByteCodec, Request, Response, Scheduler};
use rossl_model::{Duration, Instant};
use rossl_obs::{render_json, render_text, Registry, SchedSink, SchedulerMetrics};
use rossl_timing::WorstCase;

use crate::setup;

/// The analysis horizon used for the observatory bounds — generous
/// enough that every canonical busy window closes well inside it.
const ANALYSIS_HORIZON: Duration = Duration(400_000);

/// Maximum tolerated instrumented-vs-noop scheduler-loop slowdown.
const OVERHEAD_BUDGET_PCT: f64 = 5.0;

/// Fresh telemetry plumbing for one instrumented run.
struct Rig {
    registry: Registry,
    telemetry: RunTelemetry,
    observatory: Arc<rossl_obs::BoundObservatory>,
}

fn rig(system: &RosslSystem) -> Rig {
    let registry = Registry::new();
    let bounds = system
        .analyse(ANALYSIS_HORIZON)
        .expect("canonical system is schedulable");
    let observatory = system.observatory(&registry, &bounds);
    let sink = SchedSink::Metrics(SchedulerMetrics::register(&registry));
    let telemetry = RunTelemetry::default()
        .with_sink(sink)
        .with_observatory(Arc::clone(&observatory));
    Rig {
        registry,
        telemetry,
        observatory,
    }
}

/// Drives a raw scheduler loop for `steps` advances against a cyclic
/// environment (mostly empty reads, a message every fifth read) and
/// returns the wall time. Identical work on both sinks — the only
/// difference is where the batched counters flush.
fn drive(sink: SchedSink, steps: u64) -> f64 {
    let config = ClientConfig::new(setup::canonical().tasks().clone(), 2)
        .expect("canonical config is valid");
    let mut scheduler = Scheduler::new(config, FirstByteCodec).with_telemetry(sink);
    let mut response = None;
    let mut k: u64 = 0;
    let start = Wall::now();
    for _ in 0..steps {
        let step = scheduler.advance(response.take()).expect("drive is well-formed");
        response = match step.request {
            Some(Request::Read(_)) => {
                k = k.wrapping_add(1);
                if k % 5 == 0 {
                    Some(Response::ReadResult(Some(vec![(k % 3) as u8])))
                } else {
                    Some(Response::ReadResult(None))
                }
            }
            Some(Request::Execute(_)) => Some(Response::Executed),
            None => None,
        };
    }
    scheduler.flush_telemetry();
    start.elapsed().as_secs_f64()
}

/// E19: nominal margins, seeded-overrun alert fidelity, and the
/// instrumented-vs-noop overhead measurement. `smoke` shrinks the
/// horizon and the overhead loop for CI; every assertion runs either
/// way.
pub fn exp_obs(smoke: bool) -> String {
    let system = setup::canonical();
    let horizon = Instant(if smoke { 12_000 } else { 48_000 });
    let mut out = String::new();

    // ---- 1. Nominal run: margins populated, zero violations --------
    let nominal = rig(&system);
    let arrivals = system.random_workload(7, horizon);
    let result = system
        .simulate_with_telemetry(&arrivals, WorstCase, horizon, &nominal.telemetry)
        .expect("nominal simulation succeeds");
    assert_eq!(
        nominal.observatory.violation_count(),
        0,
        "a nominal in-model run must not break any Prosa bound"
    );
    let snap = nominal.registry.snapshot();
    let observed_total: u64 = system
        .tasks()
        .iter()
        .filter_map(|t| snap.histogram(&format!("obs.response.{}", t.name())))
        .map(|h| h.count)
        .sum();
    assert_eq!(
        observed_total,
        result.completed_count() as u64,
        "every completion must land in a response histogram"
    );
    let _ = writeln!(
        out,
        "nominal run to t={}: {} completions, 0 bound violations",
        horizon.0,
        result.completed_count()
    );
    let _ = writeln!(
        out,
        "{:<10} {:>9} {:>10} {:>9}",
        "task", "bound", "worst obs", "margin"
    );
    let mut margin_rows = String::new();
    for task in system.tasks() {
        let id = task.id().0;
        let bound = nominal.observatory.bound(id).expect("tracked");
        let margin = nominal.observatory.margin(id).expect("tracked");
        assert!(margin >= 0, "nominal margin went negative for {}", task.name());
        let worst = bound as i64 - margin;
        let _ = writeln!(out, "{:<10} {:>9} {:>10} {:>9}", task.name(), bound, worst, margin);
        if !margin_rows.is_empty() {
            margin_rows.push_str(",\n");
        }
        let _ = write!(
            margin_rows,
            concat!(
                "    {{\"task\": \"{}\", \"bound_ticks\": {}, ",
                "\"worst_observed_ticks\": {}, \"margin_ticks\": {}}}"
            ),
            task.name(),
            bound,
            worst,
            margin
        );
    }

    // ---- 2. Seeded WCET overrun: alerts match offline ground truth --
    let factor = 6u32;
    let rate = 700u16;
    let mut overrun_row = String::new();
    let mut found = None;
    for seed in 1..=12u64 {
        let r = rig(&system);
        let plan = FaultPlan::single(seed, FaultClass::WcetOverrun { factor }, rate);
        let arrivals = system.random_workload(seed, horizon);
        let run = system
            .simulate_faulty_with_telemetry(&arrivals, WorstCase, &plan, None, horizon, &r.telemetry)
            .expect("faulty simulation succeeds");
        if r.observatory.violation_count() == 0 {
            continue;
        }

        // Offline ground truth, recomputed from the simulation record
        // alone: every completed job whose measured response exceeds
        // its task's analytical bound.
        let offline: BTreeSet<(u64, usize)> = run
            .result
            .response_times()
            .filter(|&(_, task, resp)| {
                r.observatory.bound(task.0).is_some_and(|b| resp.ticks() > b)
            })
            .map(|(job, task, _)| (job.0, task.0))
            .collect();
        let alerts = r.observatory.alerts();
        let alerted: BTreeSet<(u64, usize)> =
            alerts.iter().map(|a| (a.job, a.task)).collect();
        assert_eq!(r.observatory.alerts_dropped(), 0, "alert ring overflowed");
        assert_eq!(
            alerted, offline,
            "observatory alerts must name exactly the offline-violating jobs (seed {seed})"
        );
        for a in &alerts {
            assert!(
                a.observed_ticks > a.bound_ticks,
                "an alert must carry an observation past its bound"
            );
        }
        let first = alerts[0];
        let _ = writeln!(
            out,
            "seeded overrun (seed {seed}, factor {factor}, rate {rate}\u{2030}): {} alert(s); \
             first names job {} of task {} at {} ticks vs bound {} (gap {})",
            alerts.len(),
            first.job,
            first.task,
            first.observed_ticks,
            first.bound_ticks,
            first.pessimism_gap()
        );
        let worst_margin = r
            .observatory
            .margin(first.task)
            .expect("violating task is tracked");
        assert!(worst_margin < 0, "a violated bound must leave a negative margin");
        let _ = writeln!(
            out,
            "  task {} margin after the run: {} ticks (negative = analysis was optimistic here)",
            first.task, worst_margin
        );
        let _ = write!(
            overrun_row,
            concat!(
                "{{\"seed\": {}, \"factor\": {}, \"rate_permille\": {}, ",
                "\"violations\": {}, \"first_job\": {}, \"first_task\": {}, ",
                "\"first_observed_ticks\": {}, \"first_bound_ticks\": {}, ",
                "\"offline_match\": true}}"
            ),
            seed,
            factor,
            rate,
            alerts.len(),
            first.job,
            first.task,
            first.observed_ticks,
            first.bound_ticks
        );
        found = Some(seed);
        break;
    }
    assert!(
        found.is_some(),
        "no seed in 1..=12 produced a bound violation under a {factor}x WCET overrun"
    );

    // ---- 3. Hot-path overhead: instrumented vs no-op sink ----------
    let steps: u64 = if smoke { 200_000 } else { 1_000_000 };
    // Enough pairs for a stable median even in a debug build on a
    // shared machine.
    let repeats = 15;
    let overhead_registry = Registry::new();
    let bundle = SchedulerMetrics::register(&overhead_registry);
    // Warm both paths once before timing anything.
    drive(SchedSink::Noop, steps / 10);
    drive(SchedSink::Metrics(Arc::clone(&bundle)), steps / 10);
    // Back-to-back pairs, so clock-speed drift hits both sides of each
    // ratio alike; the median ratio is the reported overhead.
    let mut noop_best = f64::INFINITY;
    let mut metrics_best = f64::INFINITY;
    let mut ratios = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let noop = drive(SchedSink::Noop, steps);
        let metrics = drive(SchedSink::Metrics(Arc::clone(&bundle)), steps);
        noop_best = noop_best.min(noop);
        metrics_best = metrics_best.min(metrics);
        ratios.push(metrics / noop);
    }
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("wall times are finite"));
    let overhead_pct = (ratios[repeats / 2] - 1.0) * 100.0;
    // Lossless on the hot path: the warmup plus every timed
    // instrumented run flushed all of its steps into the shared bundle.
    assert_eq!(
        overhead_registry.snapshot().counter("sched.steps"),
        Some(repeats as u64 * steps + steps / 10),
        "batched flushing must not lose a single step count"
    );
    let _ = writeln!(
        out,
        "hot path ({steps} steps, median of {repeats} pairs): noop {:.1} ns/step, \
         instrumented {:.1} ns/step, overhead {overhead_pct:+.2}% (budget {OVERHEAD_BUDGET_PCT}%)",
        noop_best * 1e9 / steps as f64,
        metrics_best * 1e9 / steps as f64,
    );
    assert!(
        overhead_pct < OVERHEAD_BUDGET_PCT,
        "instrumented scheduler loop exceeded the {OVERHEAD_BUDGET_PCT}% budget: {overhead_pct:.2}%"
    );

    // ---- Sample text snapshot + artifacts --------------------------
    let _ = writeln!(out, "nominal metrics snapshot:");
    for line in render_text(&snap).lines() {
        let _ = writeln!(out, "  {line}");
    }

    match std::fs::write("OBS_snapshot.json", render_json(&snap)) {
        Ok(()) => {
            let _ = writeln!(out, "wrote OBS_snapshot.json");
        }
        Err(e) => {
            let _ = writeln!(out, "could not write OBS_snapshot.json: {e}");
        }
    }
    let json = format!(
        concat!(
            "{{\n  \"experiment\": \"E19\",\n  \"smoke\": {},\n",
            "  \"nominal\": {{\"horizon\": {}, \"completions\": {}, \"violations\": 0}},\n",
            "  \"margins\": [\n{}\n  ],\n",
            "  \"overrun\": {},\n",
            "  \"overhead\": {{\"steps\": {}, \"repeats\": {}, \"noop_secs\": {:.6}, ",
            "\"instrumented_secs\": {:.6}, \"overhead_pct\": {:.3}, \"budget_pct\": {}}}\n}}\n"
        ),
        smoke,
        horizon.0,
        result.completed_count(),
        margin_rows,
        overrun_row,
        steps,
        repeats,
        noop_best,
        metrics_best,
        overhead_pct,
        OVERHEAD_BUDGET_PCT
    );
    match std::fs::write("BENCH_obs.json", &json) {
        Ok(()) => {
            let _ = writeln!(out, "wrote BENCH_obs.json");
        }
        Err(e) => {
            let _ = writeln!(out, "could not write BENCH_obs.json: {e}");
        }
    }
    out
}
