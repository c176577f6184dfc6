//! `fuzz`: differential fuzz executions. One op is
//! `rossl_fuzz::execute(&input, None)` followed by `CoverageMap::merge`.
//! Inputs are built during set-up, 30% `FuzzInput::generate` and 70%
//! `mutate` of an earlier generated input (`run_campaign`'s mutate
//! share); the corpus on disk is never read.

use std::time::Instant as Wall;

use rossl_fuzz::{execute, mutate, CoverageMap, FuzzInput, ShardFaultKind, SplitRng};

use crate::alloc;
use crate::harness::{fold, Checks, Op, Scale, Workload};
use crate::metrics::{Hist, Report, Samples};
use crate::spans::Tracer;

/// Per mille of inputs built by mutation.
const MUTATE_PERMILLE: u64 = 700;

/// Input classes by the drives they reach.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// Journaled raw drive and timed drive.
    Plain,
    /// Raw drive with the crash fork and recovery.
    Crash,
    /// Everything plus the fleet: router, shards, failover.
    Fleet,
}

/// A kill that lands inside a pause of the same shard. The honest stack
/// fails the `fleet-failover` oracle on such an input (see *Known
/// finding* in the README), so the workload leaves these inputs out.
fn kill_during_pause(input: &FuzzInput) -> bool {
    let faults = &input.shard_faults;
    faults.iter().any(|kill| {
        kill.kind == ShardFaultKind::Kill
            && faults.iter().any(|pause| {
                pause.kind == ShardFaultKind::Pause
                    && pause.shard == kill.shard
                    && (pause.at_tick..=pause.at_tick + pause.for_ticks).contains(&kill.at_tick)
            })
    })
}

fn class(input: &FuzzInput) -> Class {
    if input.is_fleet() {
        Class::Fleet
    } else if input.crash_at.is_some() {
        Class::Crash
    } else {
        Class::Plain
    }
}

#[derive(Default)]
struct Layers {
    by_class: [Hist; 3],
    execs: Samples,
    merge: Hist,
    steps: u64,
    allocs: u64,
}

pub struct Fuzz {
    inputs: Vec<FuzzInput>,
    map: CoverageMap,
    digest: u64,
    layers: Layers,
}

impl Fuzz {
    pub fn new(seed: u64, scale: &Scale) -> Fuzz {
        let mut rng = SplitRng::new(seed);
        let mut gen = rng.split();
        let mut mutation = rng.split();
        let mut pick = rng.split();
        let mut inputs: Vec<FuzzInput> = Vec::with_capacity(scale.fuzz_inputs);
        // Parents are generated inputs only: mutating mutants would let
        // each seed's input classes drift like a Pólya urn, so the class
        // mix (and the cost per exec) would depend on the seed.
        let mut generated: Vec<usize> = Vec::new();
        while inputs.len() < scale.fuzz_inputs {
            let (input, fresh) = if !generated.is_empty() && pick.chance(MUTATE_PERMILLE) {
                (
                    mutate(
                        &inputs[generated[pick.index(generated.len())]],
                        &mut mutation,
                    ),
                    false,
                )
            } else {
                (FuzzInput::generate(&mut gen), true)
            };
            if kill_during_pause(&input) {
                continue;
            }
            if fresh {
                generated.push(inputs.len());
            }
            inputs.push(input);
        }
        let w = Fuzz {
            inputs,
            map: CoverageMap::new(),
            digest: seed,
            layers: Layers::default(),
        };
        w.warm_up();
        w
    }

    /// Set-up warm-up: one execution of each input class, on inputs built
    /// from a fixed seed so that the warm-up costs the same for every
    /// seed.
    fn warm_up(&self) {
        let mut rng = SplitRng::new(0);
        let mut seen = [false; 3];
        let mut map = CoverageMap::new();
        for _ in 0..64 {
            let input = FuzzInput::generate(&mut rng);
            let c = class(&input) as usize;
            if !seen[c] && !kill_during_pause(&input) {
                seen[c] = true;
                map.merge(&execute(&input, None).coverage);
            }
        }
    }
}

impl Workload for Fuzz {
    fn op(&mut self, k: usize, tr: &mut Tracer, checks: &mut Checks) -> Op {
        let input = &self.inputs[k % self.inputs.len()];
        let allocs = alloc::allocs();
        let start = Wall::now();
        let out = tr.span("fuzz.execute", None, k as u64, || execute(input, None));
        let executed = Wall::now();
        let new = tr.span("fuzz.coverage_merge", None, k as u64, || {
            self.map.merge(&out.coverage)
        });
        let merged = Wall::now();
        let exec_allocs = alloc::allocs() - allocs;

        let ns = (merged - start).as_nanos() as u64;
        checks.check(out.clean(), || {
            format!("op {k}: finding {}", out.findings[0])
        });
        fold(&mut self.digest, out.steps);
        fold(&mut self.digest, u64::from(new));
        if tr.enabled() {
            let l = &mut self.layers;
            l.by_class[class(input) as usize].record((executed - start).as_nanos() as u64);
            l.execs.push(ns);
            l.merge.record((merged - executed).as_nanos() as u64);
            l.steps += out.steps;
            l.allocs += exec_allocs;
        }
        Op { work: 1, ns }
    }

    fn layers(&mut self, _tr: &mut Tracer, _checks: &mut Checks, report: &mut Report) {
        let l = &self.layers;
        for (name, h) in ["plain", "crash", "fleet"].iter().zip(&l.by_class) {
            report.layer(
                format!("fuzz.exec_ms_p50.{name}"),
                "ms",
                h.quantile(0.5) / 1e6,
                h.count,
            );
        }
        let total: u64 = l.by_class.iter().map(|h| h.total).sum();
        let fleet = l.by_class[Class::Fleet as usize].total as f64 / total.max(1) as f64;
        report.layer(
            "fuzz.time_share.fleet",
            "ratio",
            fleet,
            l.execs.len() as u64,
        );
        let n = l.execs.len().max(1) as f64;
        report.layer(
            "fuzz.exec_tail_ms",
            "ms",
            l.execs.tail(1e-6),
            l.execs.len() as u64,
        );
        report.layer(
            "fuzz.steps_per_exec",
            "count",
            l.steps as f64 / n,
            l.execs.len() as u64,
        );
        report.layer(
            "fuzz.ns_per_step",
            "ns",
            total as f64 / l.steps.max(1) as f64,
            l.steps,
        );
        report.layer(
            "fuzz.allocs_per_exec",
            "count",
            l.allocs as f64 / n,
            l.execs.len() as u64,
        );
        report.layer(
            "fuzz.coverage_merge_ns",
            "ns",
            l.merge.quantile(0.5),
            l.merge.count,
        );
    }

    fn digest(&self) -> u64 {
        let mut d = self.digest;
        for input in &self.inputs {
            fold(&mut d, input.seed);
            fold(&mut d, input.horizon);
            fold(&mut d, input.arrivals.len() as u64);
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The input on which the fleet fences a paused shard one tick before
    /// its injected kill (README, *Known finding*).
    const KNOWN_FINDING: &str = "rossl-fuzz-input v3
seed 13671341787668913377
sockets 1
shards 3
horizon 18927
task 7 11 800
arrival 585 0 0
arrival 585 0 0
arrival 1383 0 0
arrival 2074 0 0
arrival 2074 0 0
arrival 6643 0 0
arrival 6643 0 0
arrival 6643 0 0
arrival 6643 0 0
arrival 8290 0 0
arrival 15689 0 0
arrival 16459 0 0
arrival 16459 0 0
arrival 16459 0 0
shard-fault pause 2 1840 82
shard-fault kill 2 1849 0
";

    #[test]
    fn the_known_finding_is_excluded_from_the_stream() {
        let input = FuzzInput::from_text(KNOWN_FINDING).expect("valid v3 input");
        let out = execute(&input, None);
        assert!(
            out.findings.iter().any(|f| f.oracle == "fleet-failover"),
            "the finding no longer reproduces: drop `kill_during_pause` and this test"
        );
        assert!(kill_during_pause(&input));
        let mut without_kill = input.clone();
        without_kill
            .shard_faults
            .retain(|f| f.kind != ShardFaultKind::Kill);
        assert!(!kill_during_pause(&without_kill));
    }
}
