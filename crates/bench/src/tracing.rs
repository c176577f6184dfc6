//! E23: causal distributed tracing with Prosa bound-term attribution
//! across the fleet (see DESIGN.md §11 and EXPERIMENTS.md row E23).
//!
//! Four claims, demonstrated on the E22 fleet deployment:
//!
//! 1. **Attribution exactness**: for every job an in-model traced run
//!    completes, the attributed recurrence terms (jitter + blocking +
//!    interference + suspension + overhead + own execution) sum to the
//!    fleet's ground-truth response time — equal in ticks, per job, no
//!    residual. The exported Chrome trace round-trips through the
//!    hand-rolled parser.
//! 2. **Zero overruns in the model**: checking every attributed job
//!    against the allowances carved from the Prosa analysis
//!    ([`prosa::term_allowances`]) raises no [`TermOverrun`] — the
//!    per-term claim inherits the scalar bound's in-model soundness.
//! 3. **Correct-term blame**: shrinking one task's execution allowance
//!    (the allowances a reduced-WCET analysis would prove) makes every
//!    resulting overrun name that task, with `self-execution` as the
//!    overrunning term; an aimed shard-kill failover makes the set of
//!    `migration`-term overruns exactly the set of migrated jobs.
//! 4. **Overhead**: a fully traced fleet run stays within the 5%
//!    wall-clock budget of the untraced run.
//!
//! Results are written to `BENCH_trace.json`; a sample span trace is
//! exported to `TRACE_sample.trace.json` (Chrome trace-event JSON,
//! loadable in Perfetto) for the CI artifact.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant as Wall;

use prosa::term_allowances;
use rossl_faults::{FaultClass, FaultPlan, FaultSpec};
use rossl_fleet::{splitmix64, Fleet, FleetConfig, FleetOutcome, HashRing, RouterPolicy, Workload};
use rossl_model::Duration;
use rossl_obs::{
    attribute, check_trace, parse_chrome_trace, render_chrome_trace, AttributionReport, BoundTerm,
    Registry, Span, TermAllowance, TermObservatory, TraceCollector,
};

use crate::fleet::fleet_system;

/// Analysis horizon for the allowance derivation — same order as the
/// other fleet-era experiments; the three-task system converges early.
const ANALYSIS_HORIZON: Duration = Duration(400_000);

/// Maximum tolerated traced-vs-untraced fleet slowdown.
const OVERHEAD_BUDGET_PCT: f64 = 5.0;

/// Span capacity for the experiment collectors: generous, so in-model
/// runs never displace and the checker runs in strict mode.
const TRACE_CAP: usize = 1 << 16;

fn workload() -> Workload {
    Workload { jobs_per_key: 4, gap_ticks: 400 }
}

/// Runs one traced fleet under `plan`, returning the outcome, the
/// drained spans, and the displacement count.
fn traced_run(
    system: &refined_prosa::RosslSystem,
    seed: u64,
    plan: &FaultPlan,
) -> (FleetOutcome, Vec<Span>, u64) {
    let collector = Arc::new(TraceCollector::new(TRACE_CAP));
    let config = FleetConfig { seed, ..FleetConfig::default() };
    let mut fleet = Fleet::new(system, config)
        .expect("fleet system analyses")
        .with_tracer(Arc::clone(&collector));
    let outcome = fleet.run(workload(), plan);
    let displaced = collector.displaced();
    (outcome, collector.drain(), displaced)
}

/// Builds a [`TermObservatory`] tracking every task of `system` against
/// the allowances `analysis` proves, with the router's own deadline as
/// the routing allowance and zero tolerated migration delay.
fn observatory(
    system: &refined_prosa::RosslSystem,
    registry: &Registry,
    allowances: &[prosa::TermAllowances],
) -> TermObservatory {
    let mut obs = TermObservatory::new()
        .with_fleet_allowances(RouterPolicy::default().deadline_ticks, 0);
    for a in allowances {
        let name = system
            .tasks()
            .task(a.task)
            .map(|t| t.name().to_string())
            .unwrap_or_else(|| format!("t{}", a.task.0));
        obs.track(
            registry,
            a.task.0,
            &name,
            TermAllowance {
                jitter: a.jitter.ticks(),
                blocking: a.blocking.ticks(),
                self_exec: a.self_exec.ticks(),
                interference: a.interference.ticks(),
            },
        );
    }
    obs
}

fn check_all(obs: &TermObservatory, report: &AttributionReport) -> Vec<rossl_obs::TermOverrun> {
    let mut overruns = Vec::new();
    for job in &report.jobs {
        overruns.extend(obs.observe(job));
    }
    overruns
}

/// E23: attribution exactness, in-model zero-overrun soundness,
/// correct-term blame under seeded allowance cuts and failover, and the
/// traced-vs-untraced overhead measurement. The overhead loop is the
/// same either way (the CI smoke holds the full run's budget); `smoke`
/// is recorded in the artifact. Every assertion runs either way.
pub fn exp_trace(smoke: bool) -> String {
    let mut out = String::new();
    let system = fleet_system();
    let analysis = system.analyse(ANALYSIS_HORIZON).expect("fleet system is schedulable");
    let allowances = term_allowances(system.params(), &analysis);

    // ---- 1. In-model run: exact attribution, zero overruns ---------
    let (outcome, spans, displaced) = traced_run(&system, 0x7AC3, &FaultPlan::empty(3));
    assert_eq!(outcome.completed, outcome.submissions, "quiet fleet completes everything");
    assert_eq!(displaced, 0, "collector capacity covers the whole run");
    let check = check_trace(&spans, displaced);
    assert!(check.defects.is_empty(), "in-model trace malformed: {:?}", check.defects);

    let report = attribute(&spans);
    assert_eq!(report.skipped, 0, "no truncated chains in the model");
    assert_eq!(report.jobs.len(), outcome.responses.len());
    for r in &outcome.responses {
        let job = report
            .jobs
            .iter()
            .find(|j| j.seq == r.seq)
            .unwrap_or_else(|| panic!("no attribution for seq {}", r.seq));
        assert_eq!(job.observed, r.response, "seq {}: tracer and fleet disagree on rt", r.seq);
        assert_eq!(
            job.attributed_total(),
            job.observed,
            "seq {}: terms must sum exactly: {job:?}",
            r.seq
        );
    }
    let registry = Registry::new();
    let obs = observatory(&system, &registry, &allowances);
    let in_model_overruns = check_all(&obs, &report);
    assert!(
        in_model_overruns.is_empty(),
        "in-model run raised term overruns: {in_model_overruns:?}"
    );
    let _ = writeln!(
        out,
        "in-model run: {} jobs, attribution exact on every one (sum of terms == observed rt), \
         {} spans across {} traces, 0 term overruns",
        report.jobs.len(),
        check.spans,
        check.traces
    );
    let _ = writeln!(
        out,
        "{:<10} {:>7} {:>8} {:>13} {:>9} {:>9} {:>10}",
        "term", "jitter", "blocking", "interference", "suspend", "overhead", "self-exec"
    );
    let sum = |f: fn(&rossl_obs::JobAttribution) -> u64| -> u64 { report.jobs.iter().map(f).sum() };
    let _ = writeln!(
        out,
        "{:<10} {:>7} {:>8} {:>13} {:>9} {:>9} {:>10}",
        "ticks",
        sum(|j| j.jitter),
        sum(|j| j.blocking),
        sum(|j| j.interference),
        sum(|j| j.suspension),
        sum(|j| j.overhead),
        sum(|j| j.self_exec)
    );

    // The exported Chrome trace must round-trip through the parser.
    let chrome = render_chrome_trace(&spans);
    let events = parse_chrome_trace(&chrome).expect("exported trace parses");
    assert!(
        events.len() >= check.spans,
        "parser saw {} events for {} spans",
        events.len(),
        check.spans
    );
    match std::fs::write("TRACE_sample.trace.json", &chrome) {
        Ok(()) => {
            let _ = writeln!(
                out,
                "wrote TRACE_sample.trace.json ({} events, perfetto-loadable)",
                events.len()
            );
        }
        Err(e) => {
            let _ = writeln!(out, "could not write TRACE_sample.trace.json: {e}");
        }
    }

    // ---- 2. Seeded execution-allowance cut: blame lands on the task -
    // The allowances a reduced-WCET analysis would prove for the lowest
    // priority task: its execution budget shrinks below its real C_i,
    // so every one of its jobs must overrun exactly the self-execution
    // term — the engine names the term that ate the margin, not just
    // the task.
    let victim = allowances
        .iter()
        .min_by_key(|a| {
            system
                .tasks()
                .task(a.task)
                .map(|t| t.priority().0)
                .unwrap_or(u32::MAX)
        })
        .expect("system has tasks")
        .task;
    let mut cut = allowances.clone();
    for a in &mut cut {
        if a.task == victim {
            a.self_exec = Duration(a.self_exec.ticks() - 1);
        }
    }
    let registry = Registry::new();
    let obs_cut = observatory(&system, &registry, &cut);
    let cut_overruns = check_all(&obs_cut, &report);
    assert!(!cut_overruns.is_empty(), "the allowance cut must surface overruns");
    for o in &cut_overruns {
        assert_eq!(o.task, victim.0, "blame must land on the cut task: {o:?}");
        assert_eq!(o.term, BoundTerm::SelfExecution, "blame must name the cut term: {o:?}");
        assert!(o.observed_ticks > o.allowance_ticks);
    }
    let victim_jobs = report.jobs.iter().filter(|j| j.task == victim.0).count();
    assert_eq!(
        cut_overruns.len(),
        victim_jobs,
        "every job of the cut task overruns its execution allowance"
    );
    let _ = writeln!(
        out,
        "seeded allowance cut (task {} self-exec -1 tick): {} overrun(s), all naming \
         task {} / term {}",
        victim.0,
        cut_overruns.len(),
        victim.0,
        BoundTerm::SelfExecution.name()
    );

    // ---- 3. Aimed shard-kill failover: migration-term blame --------
    // The E22 aimed-kill recipe: kill the shard owning key 0 right
    // after its first delivery, so it provably dies with work to
    // migrate. With a zero migration allowance, the set of
    // migration-term overruns must be exactly the migrated jobs.
    let mut failover = None;
    for probe in 0..8u64 {
        let seed = 0xF0E2_3000 + probe;
        let hot = HashRing::new(3, seed).route(0).unwrap_or(0);
        let at_tick =
            splitmix64(seed) % workload().gap_ticks + 2 + splitmix64(seed ^ 0xA1) % 6;
        let plan = FaultPlan::empty(seed)
            .with(FaultSpec::always(FaultClass::ShardKill { shard: hot, at_tick }));
        let (outcome, spans, displaced) = traced_run(&system, seed, &plan);
        let migrated: usize = outcome.failovers.iter().map(|f| f.migrated_jobs).sum();
        if outcome.failovers.len() == 1 && migrated > 0 && outcome.lost.is_empty() {
            failover = Some((seed, outcome, spans, displaced, migrated));
            break;
        }
    }
    let (seed, _outcome, spans, displaced, migrated) =
        failover.expect("an aimed kill migrates work within 8 probe seeds");
    let check = check_trace(&spans, displaced);
    assert!(check.defects.is_empty(), "failover trace malformed: {:?}", check.defects);
    let report = attribute(&spans);
    let migrated_seqs: BTreeSet<u64> =
        report.jobs.iter().filter(|j| j.migration > 0).map(|j| j.seq).collect();
    assert_eq!(
        migrated_seqs.len(),
        migrated,
        "attribution sees exactly the manifest's migrated jobs"
    );
    let registry = Registry::new();
    let obs = observatory(&system, &registry, &allowances);
    let overruns = check_all(&obs, &report);
    let migration_seqs: BTreeSet<u64> = overruns
        .iter()
        .filter(|o| o.term == BoundTerm::Migration)
        .map(|o| o.seq)
        .collect();
    assert_eq!(
        migration_seqs, migrated_seqs,
        "migration-term overruns must name exactly the migrated jobs"
    );
    // Non-migrated jobs keep their exact in-model decomposition even
    // mid-failover: the kill never corrupts a survivor's arithmetic.
    for job in report.jobs.iter().filter(|j| j.migration == 0) {
        assert_eq!(
            job.attributed_total(),
            job.observed,
            "survivor seq {}: terms must sum exactly",
            job.seq
        );
    }
    let _ = writeln!(
        out,
        "aimed kill (seed {seed:#x}): {} job(s) migrated, every one — and only those — \
         raised a migration-term overrun; {} survivor job(s) stayed tick-exact",
        migrated,
        report.jobs.len() - migrated_seqs.len()
    );

    // ---- 4. Overhead: traced vs untraced fleet ---------------------
    // Enough pairs, of long enough samples, for a stable median even in
    // a debug build on a shared machine.
    let repeats = 15;
    let rounds = 8;
    let drive = |traced: bool| -> f64 {
        let start = Wall::now();
        for r in 0..rounds {
            let config = FleetConfig { seed: 0x0E23 + r, ..FleetConfig::default() };
            let mut fleet = Fleet::new(&system, config).expect("fleet analyses");
            if traced {
                fleet = fleet.with_tracer(Arc::new(TraceCollector::new(TRACE_CAP)));
            }
            let out = fleet.run(workload(), &FaultPlan::empty(3));
            assert_eq!(out.completed, out.submissions);
        }
        start.elapsed().as_secs_f64()
    };
    // Warm both paths, then time back-to-back pairs so clock drift hits
    // both sides of each ratio alike; the median ratio is reported.
    drive(false);
    drive(true);
    let mut ratios = Vec::with_capacity(repeats);
    let (mut plain_best, mut traced_best) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..repeats {
        let plain = drive(false);
        let traced = drive(true);
        plain_best = plain_best.min(plain);
        traced_best = traced_best.min(traced);
        ratios.push(traced / plain);
    }
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("wall times are finite"));
    let overhead_pct = (ratios[repeats / 2] - 1.0) * 100.0;
    let _ = writeln!(
        out,
        "overhead ({} fleet runs per side, median of {repeats} pairs): plain {:.2} ms, \
         traced {:.2} ms, overhead {overhead_pct:+.2}% (budget {OVERHEAD_BUDGET_PCT}%)",
        rounds,
        plain_best * 1e3,
        traced_best * 1e3,
    );
    assert!(
        overhead_pct < OVERHEAD_BUDGET_PCT,
        "traced fleet exceeded the {OVERHEAD_BUDGET_PCT}% budget: {overhead_pct:.2}%"
    );

    // ---- Artifact --------------------------------------------------
    let json = format!(
        concat!(
            "{{\n  \"experiment\": \"E23\",\n  \"smoke\": {},\n",
            "  \"in_model\": {{\"jobs\": {}, \"spans\": {}, \"traces\": {}, ",
            "\"attribution_exact\": true, \"term_overruns\": 0, \"trace_defects\": 0}},\n",
            "  \"allowance_cut\": {{\"task\": {}, \"term\": \"{}\", \"overruns\": {}, ",
            "\"all_named_correctly\": true}},\n",
            "  \"failover\": {{\"seed\": {}, \"migrated_jobs\": {}, ",
            "\"migration_overruns\": {}, \"sets_equal\": true}},\n",
            "  \"overhead\": {{\"runs_per_side\": {}, \"repeats\": {}, ",
            "\"plain_secs\": {:.6}, \"traced_secs\": {:.6}, ",
            "\"overhead_pct\": {:.3}, \"budget_pct\": {}}}\n}}\n"
        ),
        smoke,
        report.jobs.len(),
        check.spans,
        check.traces,
        victim.0,
        BoundTerm::SelfExecution.name(),
        cut_overruns.len(),
        seed,
        migrated,
        migration_seqs.len(),
        rounds,
        repeats,
        plain_best,
        traced_best,
        overhead_pct,
        OVERHEAD_BUDGET_PCT
    );
    match std::fs::write("BENCH_trace.json", &json) {
        Ok(()) => {
            let _ = writeln!(out, "wrote BENCH_trace.json");
        }
        Err(e) => {
            let _ = writeln!(out, "could not write BENCH_trace.json: {e}");
        }
    }
    out
}
