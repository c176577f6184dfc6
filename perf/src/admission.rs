//! `admission-churn`: one `AdmissionController` driven by one caller.
//! Half the ops are non-committing `admissible(Add)` probes; the rest are
//! committing queries: 30% `Add`, 15% `Remove`, 5% `Update` of all ops.
//! Candidates come from a seeded pool of generated `TaskRequest`s.
//!
//! The controller's memos grow without bound (every distinct admitted
//! set caches a supply curve), so a fresh controller serves each epoch of
//! [`EPOCH_OPS`] ops: memory then depends on the op count, not on how
//! many ops a faster build completes in the measured time.

use std::time::Instant as Wall;

use prosa::SolverStats;
use rossl_model::{Duration, WcetTable};
use rossl_workloads::{
    generate, scratch_verdict, AdmissionController, AdmissionStats, ArrivalFamily, Delta,
    GeneratorConfig, SplitRng, TaskRequest, Verdict,
};

use crate::harness::{derive, fold, proc_status_kib, Checks, Op, Scale, Workload};
use crate::metrics::{Hist, Report, Samples};
use crate::spans::Tracer;

const HORIZON: Duration = Duration(200_000);
const N_SOCKETS: usize = 1;
/// At this many admitted tasks the next op is a forced `Remove`.
const MAX_ADMITTED: usize = 8;
/// One op in this many is checked against `scratch_verdict`.
const CHECK_EVERY: usize = 64;
/// Ops served by one controller before it is replaced.
const EPOCH_OPS: usize = 10_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Probe,
    Add,
    Remove,
    Update,
}

/// What a sampled op must reproduce from scratch.
struct Sample {
    candidate: Vec<TaskRequest>,
    probe: Option<bool>,
    verdict: Option<Verdict>,
    ns: u64,
}

#[derive(Default)]
struct Layers {
    /// Query latency by kind: add, remove, update.
    query_kind: [Hist; 3],
    queries: Samples,
    probes: Samples,
    scratch: Samples,
    sampled_incremental_ns: u64,
    /// `VmRSS` before the first op, and at the end of the first epoch.
    rss_start_kib: u64,
    rss_epoch_kib: Option<u64>,
    /// Counters of controllers already replaced.
    retired_solver: SolverStats,
    retired: AdmissionStats,
}

pub struct Admission {
    pool: Vec<TaskRequest>,
    controller: AdmissionController,
    seed: u64,
    digest: u64,
    samples: Vec<Sample>,
    layers: Layers,
}

/// The candidate pool: tasks of generated sets at U 0.3–0.8, cycling
/// through the three arrival families, every fourth set
/// mixed-criticality.
fn controller() -> AdmissionController {
    AdmissionController::new(WcetTable::example(), N_SOCKETS, HORIZON)
}

fn pool(seed: u64, size: usize) -> Vec<TaskRequest> {
    let mut rng = SplitRng::new(seed);
    let mut pool = Vec::with_capacity(size);
    for set in 0.. {
        if pool.len() >= size {
            break;
        }
        let cfg = GeneratorConfig {
            n_tasks: 3 + set % 3,
            utilization: 0.3 + 0.5 * rng.unit_f64(),
            period_range: (500, 8_000),
            family: match set % 3 {
                0 => ArrivalFamily::Sporadic,
                1 => ArrivalFamily::Periodic,
                _ => ArrivalFamily::Bursty,
            },
            mixed_criticality: set % 4 == 0,
        };
        pool.extend(TaskRequest::from_spec(&generate(&cfg, &mut rng)));
    }
    pool.truncate(size);
    pool
}

impl Admission {
    pub fn new(seed: u64, scale: &Scale) -> Admission {
        let a = Admission {
            pool: pool(seed, scale.admission_pool),
            controller: controller(),
            seed,
            digest: seed,
            samples: Vec::new(),
            layers: Layers::default(),
        };
        a.warm_up();
        a
    }

    /// Set-up warm-up: a throwaway controller probes and admits a fixed
    /// set of tasks (the same for every seed, so the warm-up costs the
    /// same), warming the solver's code before timing.
    fn warm_up(&self) {
        let mut warm = controller();
        for r in pool(0, MAX_ADMITTED) {
            std::hint::black_box(warm.admissible(&Delta::Add(r.clone())));
            std::hint::black_box(warm.query(Delta::Add(r)));
        }
    }

    /// Replaces the controller at an epoch boundary, keeping its counters.
    fn next_epoch(&mut self) {
        let old = std::mem::replace(&mut self.controller, controller());
        let (s, r) = (old.solver_stats(), &mut self.layers.retired_solver);
        r.set_hits += s.set_hits;
        r.set_misses += s.set_misses;
        r.task_hits += s.task_hits;
        r.task_misses += s.task_misses;
        r.supplies_built += s.supplies_built;
        let (s, r) = (old.stats(), &mut self.layers.retired);
        r.queries += s.queries;
        r.accepted += s.accepted;
        r.probes += s.probes;
        r.probe_memo_hits += s.probe_memo_hits;
        if self.layers.rss_epoch_kib.is_none() {
            self.layers.rss_epoch_kib = Some(proc_status_kib("VmRSS:"));
        }
    }

    /// Op `k`'s kind and delta, drawn from the seed and the admitted
    /// set's size.
    fn draw(&self, k: usize) -> (Kind, Delta) {
        let mut rng = SplitRng::new(derive(self.seed, k as u64, 1));
        let len = self.controller.current().len();
        let roll = rng.below(100);
        let kind = if len >= MAX_ADMITTED {
            Kind::Remove
        } else if roll < 50 {
            Kind::Probe
        } else if roll < 80 || len == 0 {
            Kind::Add
        } else if roll < 95 {
            Kind::Remove
        } else {
            Kind::Update
        };
        let req = self.pool[rng.index(self.pool.len())].clone();
        let slot = rng.index(len.max(1));
        let delta = match kind {
            Kind::Probe | Kind::Add => Delta::Add(req),
            Kind::Remove => Delta::Remove(slot),
            Kind::Update => Delta::Update(slot, req),
        };
        (kind, delta)
    }

    fn candidate(&self, delta: &Delta) -> Vec<TaskRequest> {
        let mut tasks = self.controller.current().to_vec();
        match delta {
            Delta::Add(r) => tasks.push(r.clone()),
            Delta::Remove(slot) => {
                tasks.remove(*slot);
            }
            Delta::Update(slot, r) => tasks[*slot] = r.clone(),
        }
        tasks
    }
}

impl Workload for Admission {
    fn op(&mut self, k: usize, tr: &mut Tracer, _checks: &mut Checks) -> Op {
        if k == 0 {
            self.layers.rss_start_kib = proc_status_kib("VmRSS:");
        } else if k % EPOCH_OPS == 0 {
            self.next_epoch();
        }
        let (kind, delta) = self.draw(k);
        let candidate = (k % CHECK_EVERY == 0).then(|| self.candidate(&delta));
        let span = tr.open(
            if kind == Kind::Probe {
                "admission.probe"
            } else {
                "admission.query"
            },
            None,
            k as u64,
        );
        let start = Wall::now();
        let (probe, verdict) = if kind == Kind::Probe {
            (Some(self.controller.admissible(&delta)), None)
        } else {
            (None, Some(self.controller.query(delta)))
        };
        let ns = start.elapsed().as_nanos() as u64;
        tr.close(span);

        let accepted = probe.unwrap_or_else(|| verdict.as_ref().is_some_and(Verdict::is_accepted));
        fold(&mut self.digest, kind as u64 * 2 + u64::from(accepted));
        if let Some(candidate) = candidate {
            self.samples.push(Sample {
                candidate,
                probe,
                verdict,
                ns,
            });
        }
        if tr.enabled() {
            let l = &mut self.layers;
            match kind {
                Kind::Probe => l.probes.push(ns),
                Kind::Add | Kind::Remove | Kind::Update => {
                    l.query_kind[kind as usize - 1].record(ns);
                    l.queries.push(ns);
                }
            }
        }
        Op { work: 1, ns }
    }

    fn after(&mut self, checks: &mut Checks) {
        for (i, s) in self.samples.iter().enumerate() {
            let start = Wall::now();
            let reference =
                scratch_verdict(&s.candidate, &WcetTable::example(), N_SOCKETS, HORIZON);
            self.layers.scratch.push(start.elapsed().as_nanos() as u64);
            self.layers.sampled_incremental_ns += s.ns;
            let ok = match (&s.probe, &s.verdict) {
                (Some(p), _) => *p == reference.is_accepted(),
                (None, Some(v)) => *v == reference,
                (None, None) => false,
            };
            checks.check(ok, || {
                format!(
                    "sampled op {} disagrees with scratch_verdict",
                    i * CHECK_EVERY
                )
            });
        }
    }

    fn layers(&mut self, _tr: &mut Tracer, _checks: &mut Checks, report: &mut Report) {
        let l = &self.layers;
        let (s, r) = (self.controller.solver_stats(), &l.retired_solver);
        let solver = SolverStats {
            set_hits: s.set_hits + r.set_hits,
            set_misses: s.set_misses + r.set_misses,
            task_hits: s.task_hits + r.task_hits,
            task_misses: s.task_misses + r.task_misses,
            supplies_built: s.supplies_built + r.supplies_built,
        };
        let (s, r) = (self.controller.stats(), &l.retired);
        let stats = AdmissionStats {
            queries: s.queries + r.queries,
            accepted: s.accepted + r.accepted,
            probes: s.probes + r.probes,
            probe_memo_hits: s.probe_memo_hits + r.probe_memo_hits,
        };
        let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
        let analyses = solver.set_hits + solver.set_misses;
        report.layer(
            "prosa.solver.set_hit_ratio",
            "ratio",
            ratio(solver.set_hits, analyses),
            analyses,
        );
        let tasks = solver.task_hits + solver.task_misses;
        report.layer(
            "prosa.solver.task_hit_ratio",
            "ratio",
            ratio(solver.task_hits, tasks),
            tasks,
        );
        report.layer(
            "prosa.solver.supplies_per_query",
            "count",
            ratio(solver.supplies_built, analyses),
            analyses,
        );
        report.layer(
            "prosa.scratch_us_p50",
            "us",
            l.scratch.pct(50.0, 1e-3),
            l.scratch.len() as u64,
        );
        let speedup = l.scratch.total_ns() as f64 / l.sampled_incremental_ns.max(1) as f64;
        report.layer(
            "admission.incremental_speedup",
            "ratio",
            speedup,
            l.scratch.len() as u64,
        );
        for (name, h) in ["add", "remove", "update"].iter().zip(&l.query_kind) {
            report.layer(
                format!("admission.query_us_p50.{name}"),
                "us",
                h.quantile(0.5) / 1e3,
                h.count,
            );
        }
        report.layer(
            "admission.query_tail_us",
            "us",
            l.queries.tail(1e-3),
            l.queries.len() as u64,
        );
        report.layer(
            "admission.probe_tail_us",
            "us",
            l.probes.tail(1e-3),
            l.probes.len() as u64,
        );
        report.layer(
            "admission.probe_memo_hit_ratio",
            "ratio",
            ratio(stats.probe_memo_hits, stats.probes),
            stats.probes,
        );
        report.layer(
            "admission.accept_ratio",
            "ratio",
            ratio(stats.accepted, stats.queries),
            stats.queries,
        );
        let end = l.rss_epoch_kib.unwrap_or_else(|| proc_status_kib("VmRSS:"));
        let growth = end.saturating_sub(l.rss_start_kib) as f64 / 1024.0;
        report.layer("admission.rss_growth_mib", "MiB", growth, 1);
    }

    fn digest(&self) -> u64 {
        let mut d = self.digest;
        for r in &self.pool {
            fold(
                &mut d,
                r.wcet ^ (u64::from(r.priority) << 32) ^ (r.deadline << 40),
            );
        }
        d
    }
}
