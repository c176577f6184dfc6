//! `verify-sparse` and `verify-dense`: E7's Thm 5.1 pipeline. Each
//! pipeline run generates arrivals, simulates Rössl with seeded uniform
//! costs, and checks the run with `TimingVerifier::verify` (the six
//! hypotheses, then every job against `R_i + J_i`).
//!
//! One op is one round: every (system, generator) pair of the workload
//! once, each on its own derived seed.

use std::collections::VecDeque;

use refined_prosa::{RosslSystem, SystemBuilder, TimingVerifier};
use rossl::{FirstByteCodec, Request, Response, Scheduler};
use rossl_journal::JournalWriter;
use rossl_model::{Curve, Duration, Instant, Message, OverheadBounds, Priority};
use rossl_sockets::{ArrivalEvent, ArrivalSequence};
use rossl_timing::{CostModel, Segment, SimulationResult};
use rossl_trace::{Marker, ProtocolAutomaton};
use rossl_workloads::SplitRng;

use crate::alloc;
use crate::harness::{derive, fold, timed, Checks, Op, Scale, Workload};
use crate::metrics::{Hist, Report};
use crate::spans::Tracer;

/// Payload size of every `verify-dense` message; byte 0 keeps the
/// `FirstByteCodec` task tag.
const DENSE_PAYLOAD: usize = 256;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Gen {
    Sporadic,
    Randomized,
}

struct Pair {
    system: RosslSystem,
    verifier: TimingVerifier,
    gen: Gen,
    pad: bool,
}

impl Pair {
    fn generate(&self, seed: u64, horizon: Instant) -> ArrivalSequence {
        let arrivals = match self.gen {
            Gen::Sporadic => self.system.random_workload(seed, horizon),
            Gen::Randomized => self.system.randomized_workload(seed, horizon),
        };
        if !self.pad {
            return arrivals;
        }
        let events = arrivals
            .events()
            .iter()
            .map(|e| {
                let tag = e.msg.data().first().copied().unwrap_or(0);
                let mut data = vec![tag];
                data.extend((1..DENSE_PAYLOAD).map(|i| (i as u8) ^ tag));
                ArrivalEvent {
                    msg: Message::new(data),
                    ..e.clone()
                }
            })
            .collect();
        ArrivalSequence::from_events(events)
    }
}

/// `UniformCost` over `SplitRng`: every segment takes a seeded uniform
/// duration in `[1, max]`. Kept here so that the benchmark does not
/// depend on which generator the repository's `UniformCost` wraps.
struct SeededCost(SplitRng);

impl SeededCost {
    fn new(seed: u64) -> SeededCost {
        SeededCost(SplitRng::new(seed))
    }
}

impl CostModel for SeededCost {
    fn pick(&mut self, _segment: Segment, max: Duration) -> Duration {
        Duration(self.0.range(1, max.ticks().max(1)))
    }
}

fn system(tasks: &[(&str, u32, u64, Curve)], sockets: usize) -> RosslSystem {
    let mut b = SystemBuilder::new().sockets(sockets);
    for (name, priority, wcet, curve) in tasks {
        b = b.task(*name, Priority(*priority), Duration(*wcet), curve.clone());
    }
    b.build().expect("benchmark systems are valid")
}

/// The E7 systems, copied here so that editing shared fixtures cannot
/// change the benchmark: `single`, `canonical` and `bursty`.
fn sparse_systems() -> Vec<RosslSystem> {
    vec![
        system(&[("only", 1, 20, Curve::sporadic(Duration(500)))], 1),
        system(
            &[
                ("logging", 0, 60, Curve::sporadic(Duration(4_000))),
                ("control", 5, 25, Curve::sporadic(Duration(1_500))),
                ("safety", 9, 10, Curve::sporadic(Duration(1_000))),
            ],
            2,
        ),
        system(
            &[
                ("bursty", 3, 15, Curve::leaky_bucket(3, 1, 1_500)),
                ("steady", 6, 10, Curve::sporadic(Duration(800))),
            ],
            2,
        ),
    ]
}

/// Four tasks on two sockets, ≈55 markers per job: per-job work
/// dominates. Passes the analysis with worst tightness ≈0.28.
fn dense_system() -> RosslSystem {
    system(
        &[
            ("a", 1, 60, Curve::sporadic(Duration(600))),
            ("b", 3, 40, Curve::sporadic(Duration(400))),
            ("c", 5, 25, Curve::sporadic(Duration(300))),
            ("d", 7, 10, Curve::sporadic(Duration(200))),
        ],
        2,
    )
}

/// Per-layer accumulators filled by traced ops.
#[derive(Default)]
struct Layers {
    advance: [Hist; 7],
    /// Empty timed regions, sampled inside the timed replay.
    clock: Hist,
    steps: u64,
    step_allocs: u64,
    gen: [Hist; 2],
    markers: u64,
    arrivals: u64,
    segments: u64,
    simulate_ns: u64,
    simulate_allocs: u64,
    simulate_bytes: u64,
    /// Whole untimed replays of the traced runs.
    replay_ns: u64,
    verify_ns: u64,
    verify_allocs: u64,
    curve_ns: u64,
    protocol_ns: u64,
    functional_ns: u64,
    wcet_ns: u64,
    consistency_ns: u64,
    convert_ns: u64,
    validity_ns: u64,
    append_ns: u64,
    commit: Hist,
    recover_ns: u64,
    journal_bytes: u64,
    analyse: Hist,
}

pub struct Verify {
    pairs: Vec<Pair>,
    horizon: Instant,
    seed: u64,
    digest: u64,
    layers: Layers,
}

impl Verify {
    fn new(pairs: Vec<(RosslSystem, Gen, bool)>, seed: u64, scale: &Scale) -> Verify {
        let horizon = Instant(scale.verify_horizon);
        // E7's analysis horizon.
        let analysis = Duration(scale.verify_horizon.max(100_000) * 4);
        let pairs = pairs
            .into_iter()
            .map(|(system, gen, pad)| Pair {
                verifier: TimingVerifier::new(system.params().clone(), analysis)
                    .expect("benchmark systems pass the analysis"),
                system,
                gen,
                pad,
            })
            .collect();
        let w = Verify {
            pairs,
            horizon,
            seed,
            digest: seed,
            layers: Layers::default(),
        };
        w.warm_up();
        w
    }

    /// `verify-sparse`: the three E7 systems × {sporadic, randomized}.
    pub fn sparse(seed: u64, scale: &Scale) -> Verify {
        let pairs = sparse_systems()
            .into_iter()
            .flat_map(|s| {
                [
                    (s.clone(), Gen::Sporadic, false),
                    (s, Gen::Randomized, false),
                ]
            })
            .collect();
        Verify::new(pairs, seed, scale)
    }

    /// `verify-dense`: the job-dense system, sporadic arrivals, 256 B
    /// payloads.
    pub fn dense(seed: u64, scale: &Scale) -> Verify {
        Verify::new(vec![(dense_system(), Gen::Sporadic, true)], seed, scale)
    }

    /// Set-up warm-up: one pipeline per pair at a twentieth of the
    /// horizon, so allocator pools and code are warm before timing. Its
    /// inputs come from a fixed seed, so it costs the same for every seed.
    fn warm_up(&self) {
        let horizon = Instant(self.horizon.ticks() / 20);
        for pair in &self.pairs {
            let arrivals = pair.generate(0, horizon);
            let run = pair.system.simulate(&arrivals, SeededCost::new(0), horizon);
            if let Ok(run) = run {
                std::hint::black_box(pair.verifier.verify(&arrivals, &run).is_ok());
            }
        }
    }
}

impl Workload for Verify {
    fn op(&mut self, k: usize, tr: &mut Tracer, checks: &mut Checks) -> Op {
        let run_id = k as u64;
        let round = tr.open("verify.round", None, run_id);
        let mut op = Op::default();
        for j in 0..self.pairs.len() {
            let pair = &self.pairs[j];
            let seed = derive(self.seed, k as u64, j as u64);
            let (arrivals, gen_ns) = timed(tr, "timing.generate", round, run_id, || {
                pair.generate(seed, self.horizon)
            });
            let (allocs, bytes) = (alloc::allocs(), alloc::bytes());
            let (run, sim_ns) = timed(tr, "timing.simulate", round, run_id, || {
                pair.system
                    .simulate(&arrivals, SeededCost::new(seed ^ 0xBEEF), self.horizon)
            });
            let (sim_allocs, sim_bytes) = (alloc::allocs() - allocs, alloc::bytes() - bytes);
            let Ok(run) = run else {
                checks.check(false, || format!("op {k} pair {j}: simulation failed"));
                op.ns += gen_ns + sim_ns;
                continue;
            };
            let allocs = alloc::allocs();
            let (report, verify_ns) = timed(tr, "core.verify", round, run_id, || {
                pair.verifier.verify(&arrivals, &run)
            });
            let verify_allocs = alloc::allocs() - allocs;
            op.ns += gen_ns + sim_ns + verify_ns;
            match report {
                Ok(report) => {
                    checks.check(report.bound_violations == 0, || {
                        format!(
                            "op {k} pair {j}: {} bound violations",
                            report.bound_violations
                        )
                    });
                    op.work += report.jobs_completed as u64;
                    fold(&mut self.digest, arrivals.len() as u64);
                    fold(&mut self.digest, run.trace.len() as u64);
                    fold(&mut self.digest, report.jobs_completed as u64);
                    fold(&mut self.digest, report.bound_violations as u64);
                }
                Err(e) => {
                    checks.check(false, || format!("op {k} pair {j}: hypothesis failed: {e}"));
                }
            }
            if tr.enabled() {
                let l = &mut self.layers;
                l.gen[pair.gen as usize].record(gen_ns);
                l.simulate_ns += sim_ns;
                l.simulate_allocs += sim_allocs;
                l.simulate_bytes += sim_bytes;
                l.verify_ns += verify_ns;
                l.verify_allocs += verify_allocs;
                probe(
                    pair,
                    &arrivals,
                    &run,
                    &mut self.layers,
                    tr,
                    round,
                    run_id,
                    checks,
                );
            }
        }
        tr.close(round);
        op
    }

    fn after(&mut self, checks: &mut Checks) {
        // The scheduler replay must reproduce op 0's recorded markers.
        for (j, pair) in self.pairs.iter().enumerate() {
            let seed = derive(self.seed, 0, j as u64);
            let arrivals = pair.generate(seed, self.horizon);
            let cost = SeededCost::new(seed ^ 0xBEEF);
            match pair.system.simulate(&arrivals, cost, self.horizon) {
                Ok(run) => {
                    let ok = replay(pair, &arrivals, run.trace.markers(), None);
                    checks.check(ok, || {
                        format!("pair {j}: replay diverged from the recorded markers")
                    });
                }
                Err(e) => {
                    checks.check(false, || format!("pair {j}: simulation failed: {e}"));
                }
            }
        }
    }

    fn layers(&mut self, tr: &mut Tracer, _checks: &mut Checks, report: &mut Report) {
        // Generators the pass did not run, and the analysis, are probed
        // once per system.
        let probe_span = tr.open("verify.probes", None, u64::MAX);
        if self.layers.gen[Gen::Randomized as usize].count == 0 {
            for system in sparse_systems() {
                let (arrivals, ns) = timed(tr, "timing.generate", probe_span, u64::MAX, || {
                    system.randomized_workload(self.seed, self.horizon)
                });
                std::hint::black_box(arrivals.len());
                self.layers.gen[Gen::Randomized as usize].record(ns);
            }
        }
        for system in sparse_systems().into_iter().chain([dense_system()]) {
            let analysis = Duration(self.horizon.ticks().max(100_000) * 4);
            let (bounds, ns) = timed(tr, "prosa.analyse", probe_span, u64::MAX, || {
                system.analyse(analysis)
            });
            std::hint::black_box(bounds.is_ok());
            self.layers.analyse.record(ns);
        }
        tr.close(probe_span);

        let l = &self.layers;
        let per = |ns: u64, n: u64| ns as f64 / n.max(1) as f64;
        // A self time is a small difference of two large, separately
        // timed sums: it is reported as measured, even when negative.
        let per_signed = |ns: u64, minus: u64, n: u64| (ns as f64 - minus as f64) / n.max(1) as f64;
        // `advance`, `append` and `commit` take tens of ns, about as long
        // as the clock reads around them, which their per-call times
        // include; `clock_ns` shows how much.
        report.layer("clock_ns", "ns", l.clock.quantile(0.5), l.clock.count);
        let names = [
            "read_start",
            "read_end",
            "selection",
            "dispatch",
            "execution",
            "completion",
            "idling",
        ];
        for (name, h) in names.iter().zip(&l.advance) {
            report.layer(
                format!("rossl.advance_ns.{name}"),
                "ns",
                h.quantile(0.5),
                h.count,
            );
        }
        report.layer(
            "rossl.allocs_per_step",
            "count",
            per(l.step_allocs, l.steps),
            l.steps,
        );
        report.layer(
            "timing.gen_ms.sporadic",
            "ms",
            l.gen[0].quantile(0.5) / 1e6,
            l.gen[0].count,
        );
        report.layer(
            "timing.gen_ms.randomized",
            "ms",
            l.gen[1].quantile(0.5) / 1e6,
            l.gen[1].count,
        );
        report.layer(
            "timing.simulate_ns_per_marker",
            "ns",
            per(l.simulate_ns, l.markers),
            l.markers,
        );
        report.layer(
            "timing.simulate_self_ns_per_marker",
            "ns",
            per_signed(l.simulate_ns, l.replay_ns, l.markers),
            l.markers,
        );
        report.layer(
            "timing.simulate_allocs_per_marker",
            "count",
            per(l.simulate_allocs, l.markers),
            l.markers,
        );
        report.layer(
            "timing.simulate_alloc_bytes_per_marker",
            "B",
            per(l.simulate_bytes, l.markers),
            l.markers,
        );
        report.layer(
            "timing.wcet_check_ns_per_marker",
            "ns",
            per(l.wcet_ns, l.markers),
            l.markers,
        );
        report.layer(
            "timing.consistency_ns_per_marker",
            "ns",
            per(l.consistency_ns, l.markers),
            l.markers,
        );
        report.layer(
            "sockets.curve_check_ns_per_arrival",
            "ns",
            per(l.curve_ns, l.arrivals),
            l.arrivals,
        );
        report.layer(
            "trace.protocol_ns_per_marker",
            "ns",
            per(l.protocol_ns, l.markers),
            l.markers,
        );
        report.layer(
            "trace.functional_ns_per_marker",
            "ns",
            per(l.functional_ns, l.markers),
            l.markers,
        );
        report.layer(
            "schedule.convert_ns_per_marker",
            "ns",
            per(l.convert_ns, l.markers),
            l.markers,
        );
        report.layer(
            "schedule.validity_ns_per_segment",
            "ns",
            per(l.validity_ns, l.segments),
            l.segments,
        );
        report.layer(
            "core.verify_ns_per_marker",
            "ns",
            per(l.verify_ns, l.markers),
            l.markers,
        );
        let checkers = l.curve_ns
            + l.protocol_ns
            + l.functional_ns
            + l.wcet_ns
            + l.consistency_ns
            + l.convert_ns
            + l.validity_ns;
        report.layer(
            "core.verify_self_ns_per_marker",
            "ns",
            per_signed(l.verify_ns, checkers, l.markers),
            l.markers,
        );
        report.layer(
            "core.verify_allocs_per_marker",
            "count",
            per(l.verify_allocs, l.markers),
            l.markers,
        );
        report.layer(
            "journal.append_ns_per_marker",
            "ns",
            per(l.append_ns, l.markers),
            l.markers,
        );
        report.layer(
            "journal.commit_ns",
            "ns",
            l.commit.quantile(0.5),
            l.commit.count,
        );
        report.layer(
            "journal.recover_ns_per_marker",
            "ns",
            per(l.recover_ns, l.markers),
            l.markers,
        );
        report.layer(
            "journal.bytes_per_marker",
            "B",
            per(l.journal_bytes, l.markers),
            l.markers,
        );
        report.layer(
            "prosa.analyse_us",
            "us",
            l.analyse.quantile(0.5) / 1e3,
            l.analyse.count,
        );
    }

    fn digest(&self) -> u64 {
        self.digest
    }
}

/// Untimed per-layer probes on one traced pipeline run: the scheduler
/// replay, each hypothesis checker called on its own, and the journal.
#[allow(clippy::too_many_arguments)]
fn probe(
    pair: &Pair,
    arrivals: &ArrivalSequence,
    run: &SimulationResult,
    l: &mut Layers,
    tr: &mut Tracer,
    parent: Option<usize>,
    run_id: u64,
    checks: &mut Checks,
) {
    let markers = run.trace.markers();
    let tasks = pair.system.tasks();
    let n_sockets = pair.system.n_sockets();
    let wcet = pair.system.wcet();
    l.markers += markers.len() as u64;
    l.arrivals += arrivals.len() as u64;

    let (ok, _) = timed(tr, "rossl.replay", parent, run_id, || {
        replay(pair, arrivals, markers, Some(&mut *l))
    });
    // Timed as a whole, without per-call clock reads, for
    // `timing.simulate_self_ns_per_marker`.
    let (same, ns) = timed(tr, "rossl.replay_whole", parent, run_id, || {
        replay(pair, arrivals, markers, None)
    });
    l.replay_ns += ns;
    checks.check(ok && same, || {
        "scheduler replay diverged from the recorded markers".to_string()
    });

    let (r, ns) = timed(tr, "sockets.curve_check", parent, run_id, || {
        arrivals.check_respects_curves(tasks).is_ok()
    });
    l.curve_ns += ns;
    let mut all = r;
    let (r, ns) = timed(tr, "trace.protocol", parent, run_id, || {
        ProtocolAutomaton::new(n_sockets).accept(markers).is_ok()
    });
    l.protocol_ns += ns;
    all &= r;
    let (r, ns) = timed(tr, "trace.functional", parent, run_id, || {
        rossl_trace::check_functional(markers, tasks).is_ok()
    });
    l.functional_ns += ns;
    all &= r;
    let (r, ns) = timed(tr, "timing.wcet_check", parent, run_id, || {
        rossl_timing::check_wcet_compliance(&run.trace, tasks, wcet, n_sockets).is_ok()
    });
    l.wcet_ns += ns;
    all &= r;
    let (r, ns) = timed(tr, "timing.consistency", parent, run_id, || {
        rossl_timing::check_consistency(&run.trace, arrivals).is_ok()
    });
    l.consistency_ns += ns;
    all &= r;
    let (schedule, ns) = timed(tr, "schedule.convert", parent, run_id, || {
        rossl_schedule::convert(&run.trace, n_sockets)
    });
    l.convert_ns += ns;
    match schedule {
        Ok(schedule) => {
            l.segments += schedule.segments().len() as u64;
            let bounds = OverheadBounds::derive(wcet, n_sockets);
            let (r, ns) = timed(tr, "schedule.validity", parent, run_id, || {
                rossl_schedule::check_validity(&schedule, tasks, &bounds).is_ok()
            });
            l.validity_ns += ns;
            all &= r;
        }
        Err(_) => all = false,
    }
    checks.check(all, || {
        "a hypothesis checker rejected a run that verify accepted".to_string()
    });

    // The journal as `Supervisor` and `Shard::step` drive it: append and
    // commit marker by marker, then recover.
    let span = tr.open("journal", parent, run_id);
    let mut journal = JournalWriter::new();
    for (m, t) in run.trace.iter() {
        let start = std::time::Instant::now();
        journal.append(m, t);
        let appended = std::time::Instant::now();
        journal.commit();
        l.append_ns += (appended - start).as_nanos() as u64;
        l.commit.record(appended.elapsed().as_nanos() as u64);
    }
    l.journal_bytes += journal.bytes().len() as u64;
    let (recovered, ns) = timed(tr, "journal.recover", span, run_id, || {
        rossl_journal::recover(journal.bytes())
    });
    l.recover_ns += ns;
    tr.close(span);
    let exact = recovered.is_ok_and(|r| {
        r.uncommitted.is_empty()
            && r.committed.len() == markers.len()
            && r.committed
                .iter()
                .zip(run.trace.iter())
                .all(|(e, (m, t))| e.marker == *m && e.at == t)
    });
    checks.check(exact, || {
        "journal recovery did not return exactly the appended markers".to_string()
    });
}

/// Every this many timed `advance` calls, the replay also times an empty
/// region.
const CLOCK_EVERY: usize = 16;

/// The index of `marker`'s kind among the seven `rossl.advance_ns.*`
/// rows (mode switches never occur without a mode policy).
fn kind_index(marker: &Marker) -> usize {
    match marker {
        Marker::ReadStart => 0,
        Marker::ReadEnd { .. } => 1,
        Marker::Selection => 2,
        Marker::Dispatch(_) => 3,
        Marker::Execution(_) => 4,
        Marker::Completion(_) => 5,
        Marker::Idling | Marker::ModeSwitch { .. } => 6,
    }
}

/// Replays a recorded trace into a fresh `Scheduler`. A read that the
/// recording resolved with a job is answered with the socket's next FIFO
/// payload, any other read with `None`, and every execution with
/// `Executed`. With `timing`, every `advance` call is timed and recorded
/// by the marker it emits. Returns whether the replay emitted exactly the
/// recorded markers.
fn replay(
    pair: &Pair,
    arrivals: &ArrivalSequence,
    recorded: &[Marker],
    mut timing: Option<&mut Layers>,
) -> bool {
    let n_sockets = pair.system.n_sockets();
    let mut fifo: Vec<VecDeque<&[u8]>> = vec![VecDeque::new(); n_sockets];
    for e in arrivals.events() {
        if let Some(q) = fifo.get_mut(e.sock.0) {
            q.push_back(e.msg.data());
        }
    }
    let config = rossl::ClientConfig::new(pair.system.tasks().clone(), n_sockets)
        .expect("valid benchmark config");
    let mut scheduler = Scheduler::new(config, FirstByteCodec);
    let mut response = None;
    let mut ok = true;
    for (i, want) in recorded.iter().enumerate() {
        let step = match timing.as_deref_mut() {
            None => scheduler.advance(response.take()),
            Some(l) => {
                if i % CLOCK_EVERY == 0 {
                    // Timed the same way, inside the same loop, so that
                    // the clock's own cost is measured in the same cache
                    // and frequency state as the calls.
                    let start = std::time::Instant::now();
                    l.clock.record(start.elapsed().as_nanos() as u64);
                }
                let allocs = alloc::allocs();
                let start = std::time::Instant::now();
                let step = scheduler.advance(response.take());
                let ns = start.elapsed().as_nanos() as u64;
                l.step_allocs += alloc::allocs() - allocs;
                l.steps += 1;
                l.advance[kind_index(want)].record(ns);
                step
            }
        };
        let Ok(step) = step else {
            ok = false;
            break;
        };
        if step.marker != *want {
            ok = false;
            break;
        }
        response = match step.request {
            Some(Request::Read(sock)) => {
                let read_job = matches!(
                    recorded.get(i + 1),
                    Some(Marker::ReadEnd { job: Some(_), .. })
                );
                let data = if read_job {
                    fifo.get_mut(sock.0).and_then(VecDeque::pop_front)
                } else {
                    None
                };
                Some(Response::ReadResult(data.map(<[u8]>::to_vec)))
            }
            Some(Request::Execute(_)) => Some(Response::Executed),
            None => None,
        };
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_reproduces_and_a_tampered_marker_is_a_counted_failure() {
        let mut w = Verify::dense(3, &Scale::TEST);
        let pair = &w.pairs[0];
        let arrivals = pair.generate(11, w.horizon);
        let run = pair
            .system
            .simulate(&arrivals, SeededCost::new(11), w.horizon)
            .unwrap();
        let mut tr = Tracer::new(false);
        let mut checks = Checks::default();
        probe(
            pair,
            &arrivals,
            &run,
            &mut w.layers,
            &mut tr,
            None,
            0,
            &mut checks,
        );
        assert_eq!(checks.failed, 0, "{:?}", checks.notes);
        assert!(w.layers.steps as usize == run.trace.len());

        // Swap one completion for an idle marker: the replay, the
        // protocol checker and the journal comparison all see it.
        let mut markers = run.trace.markers().to_vec();
        let at = markers
            .iter()
            .position(|m| matches!(m, Marker::Completion(_)))
            .unwrap();
        markers[at] = Marker::Idling;
        let tampered = SimulationResult {
            trace: rossl_timing::TimedTrace::new(markers, run.trace.timestamps().to_vec()).unwrap(),
            ..run
        };
        let mut checks = Checks::default();
        probe(
            pair,
            &arrivals,
            &tampered,
            &mut w.layers,
            &mut tr,
            None,
            0,
            &mut checks,
        );
        assert!(checks.failed >= 2, "{:?}", checks.notes);
        assert_eq!(checks.attempted, 3);
    }
}
