//! `explore`: exhaustive state-space exploration. One op is a
//! `ModelChecker` verdict (2 threads, deduplication) on three tasks ×
//! three sockets × three pending messages per socket, with the message
//! tags permuted by the seed, followed by a `CrashSweep` verdict (2
//! threads, recovery budget 6) on the E18 two-socket fixture. No
//! simulator, trace checker or `prosa` runs here.

use std::time::Instant as Wall;

use rossl::ClientConfig;
use rossl_model::{Curve, Duration, MsgData, Priority, Task, TaskId, TaskSet};
use rossl_verify::{CheckOutcome, CrashSweep, ModelChecker};

use crate::alloc;
use crate::harness::{derive, fold, Checks, Op, Scale, Workload};
use crate::metrics::Report;
use crate::spans::Tracer;

const THREADS: usize = 2;
const RECOVERY_BUDGET: usize = 6;
const PERMUTATIONS: [[u8; 3]; 6] = [
    [0, 1, 2],
    [0, 2, 1],
    [1, 0, 2],
    [1, 2, 0],
    [2, 0, 1],
    [2, 1, 0],
];

fn task(id: usize, name: &str, priority: u32) -> Task {
    Task::new(
        TaskId(id),
        name,
        Priority(priority),
        Duration(5),
        Curve::sporadic(Duration(10)),
    )
}

#[derive(Default)]
struct Layers {
    /// Each traced op and its 2-thread outcome, re-checked on 1 thread
    /// after the pass (inside it, the idle second vCPU would slow the
    /// next op).
    traced: Vec<(usize, CheckOutcome)>,
    ops: u64,
    tree_steps: u64,
    explored_steps: u64,
    pruned_steps: u64,
    memo_hits: u64,
    donations: u64,
    check_allocs: u64,
    ns_2thread: u64,
    ns_1thread: u64,
    crash_steps: u64,
    crash_recoveries: u64,
    crash_ns: u64,
}

pub struct Explore {
    config: ClientConfig,
    crash_config: ClientConfig,
    depth: usize,
    crash_depth: usize,
    seed: u64,
    digest: u64,
    layers: Layers,
}

impl Explore {
    pub fn new(seed: u64, scale: &Scale) -> Explore {
        let tasks = TaskSet::new(vec![
            task(0, "low", 1),
            task(1, "mid", 5),
            task(2, "high", 9),
        ])
        .expect("explore task set is valid");
        let crash_tasks = TaskSet::new(vec![task(0, "low", 1), task(1, "high", 9)])
            .expect("E18 task set is valid");
        let w = Explore {
            config: ClientConfig::new(tasks, 3).expect("explore config is valid"),
            crash_config: ClientConfig::new(crash_tasks, 2).expect("E18 config is valid"),
            depth: scale.explore_depth,
            crash_depth: scale.crash_depth,
            seed,
            digest: seed,
            layers: Layers::default(),
        };
        w.warm_up();
        w
    }

    /// Op `k`'s pending messages: tag `perm[(s + m) % 3]` for message `m`
    /// on socket `s`.
    fn pending(&self, k: usize) -> Vec<Vec<MsgData>> {
        let perm =
            PERMUTATIONS[(derive(self.seed, k as u64, 2) % PERMUTATIONS.len() as u64) as usize];
        (0..3)
            .map(|s| (0..3).map(|m| vec![perm[(s + m) % 3]]).collect())
            .collect()
    }

    fn checker(&self, k: usize, threads: usize, depth: usize) -> ModelChecker {
        ModelChecker::new(self.config.clone(), self.pending(k), depth)
            .with_threads(threads)
            .with_dedup(true)
    }

    fn sweep(&self, depth: usize) -> CrashSweep {
        // E18's interleaved opposite-priority queues.
        let pending = vec![vec![vec![0], vec![1], vec![0]], vec![vec![1], vec![0]]];
        CrashSweep::new(self.crash_config.clone(), pending, depth)
            .with_recovery_budget(RECOVERY_BUDGET)
            .with_threads(THREADS)
    }

    /// Set-up warm-up: starts the pool and faults in the memo once.
    fn warm_up(&self) {
        let quick = self.depth.min(24);
        std::hint::black_box(self.checker(0, THREADS, quick).check().is_ok());
        std::hint::black_box(self.sweep(self.crash_depth.min(12)).sweep().is_ok());
    }
}

fn fold_outcome(digest: &mut u64, o: &CheckOutcome) {
    fold(digest, o.paths);
    fold(digest, o.steps);
    fold(digest, o.max_trace_len as u64);
}

impl Workload for Explore {
    fn op(&mut self, k: usize, tr: &mut Tracer, checks: &mut Checks) -> Op {
        let run = k as u64;
        let checker = self.checker(k, THREADS, self.depth);
        let sweep = self.sweep(self.crash_depth);
        let allocs = alloc::allocs();
        let start = Wall::now();
        let verdict = tr.span("checker.check", None, run, || checker.check_with_stats());
        let check_ns = start.elapsed().as_nanos() as u64;
        let check_allocs = alloc::allocs() - allocs;
        let start = Wall::now();
        let crash = tr.span("checker.crash_sweep", None, run, || sweep.sweep());
        let crash_ns = start.elapsed().as_nanos() as u64;

        let mut op = Op {
            work: 0,
            ns: check_ns + crash_ns,
        };
        match verdict {
            Ok((outcome, stats)) => {
                let balanced = stats.explored_steps + stats.pruned_steps == outcome.steps
                    && stats.explored_paths + stats.pruned_paths == outcome.paths;
                checks.check(balanced, || format!("op {k}: explored + pruned != totals"));
                op.work += outcome.steps;
                fold_outcome(&mut self.digest, &outcome);
                if tr.enabled() {
                    let l = &mut self.layers;
                    l.traced.push((k, outcome));
                    l.ops += 1;
                    l.tree_steps += outcome.steps;
                    l.explored_steps += stats.explored_steps;
                    l.pruned_steps += stats.pruned_steps;
                    l.memo_hits += stats.memo_hits;
                    l.donations += stats.donated_subtrees;
                    l.check_allocs += check_allocs;
                    l.ns_2thread += check_ns;
                }
            }
            Err(f) => {
                checks.check(false, || format!("op {k}: {f}"));
            }
        }
        match crash {
            Ok(c) => {
                // A passing crash verdict counts as one passed check.
                checks.check(true, String::new);
                op.work += c.steps;
                fold(&mut self.digest, c.steps);
                fold(&mut self.digest, c.recoveries);
                if tr.enabled() {
                    let l = &mut self.layers;
                    l.crash_steps += c.steps;
                    l.crash_recoveries += c.recoveries;
                    l.crash_ns += crash_ns;
                }
            }
            Err(f) => {
                checks.check(false, || {
                    format!("op {k}: crash sweep failed at {}: {}", f.crash_at, f.reason)
                });
            }
        }
        op
    }

    fn layers(&mut self, tr: &mut Tracer, checks: &mut Checks, report: &mut Report) {
        // The sequential run must reach the same verdict.
        for (k, outcome) in std::mem::take(&mut self.layers.traced) {
            let single = self.checker(k, 1, self.depth);
            let start = Wall::now();
            let seq = tr.span("checker.check_1thread", None, k as u64, || single.check());
            self.layers.ns_1thread += start.elapsed().as_nanos() as u64;
            checks.check(seq.is_ok_and(|s| s == outcome), || {
                format!("op {k}: 1-thread outcome differs")
            });
        }
        let l = &self.layers;
        let n = l.ops.max(1) as f64;
        report.layer(
            "checker.tree_steps",
            "count",
            l.tree_steps as f64 / n,
            l.ops,
        );
        report.layer(
            "checker.explored_steps",
            "count",
            l.explored_steps as f64 / n,
            l.ops,
        );
        let pruned = l.pruned_steps as f64 / l.tree_steps.max(1) as f64;
        report.layer("checker.pruned_ratio", "ratio", pruned, l.ops);
        report.layer("checker.memo_hits", "count", l.memo_hits as f64 / n, l.ops);
        report.layer("checker.donations", "count", l.donations as f64 / n, l.ops);
        report.layer(
            "checker.verdict_s_1thread",
            "s",
            l.ns_1thread as f64 / 1e9 / n,
            l.ops,
        );
        let speedup = l.ns_1thread as f64 / l.ns_2thread.max(1) as f64;
        report.layer("checker.parallel_speedup", "ratio", speedup, l.ops);
        let allocs = l.check_allocs as f64 / l.explored_steps.max(1) as f64;
        report.layer(
            "checker.allocs_per_explored_step",
            "count",
            allocs,
            l.explored_steps,
        );
        report.layer(
            "checker.crash.steps",
            "count",
            l.crash_steps as f64 / n,
            l.ops,
        );
        report.layer(
            "checker.crash.recoveries",
            "count",
            l.crash_recoveries as f64 / n,
            l.ops,
        );
        let per_step = l.crash_ns as f64 / l.crash_steps.max(1) as f64;
        report.layer("checker.crash.ns_per_step", "ns", per_step, l.crash_steps);
    }

    fn digest(&self) -> u64 {
        let mut d = self.digest;
        for k in 0..4 {
            for socket in self.pending(k) {
                for msg in socket {
                    fold(&mut d, u64::from(msg[0]));
                }
            }
        }
        d
    }
}
