//! Property-based tests of the protocol automaton over synthetic valid
//! traces: acceptance is compositional (`accept_from` of a split trace
//! agrees with accepting the whole), the basic-action sequence
//! reconstructs the marker structure, and `check` gives `accept`'s
//! verdict on valid, truncated and mutated traces.

use proptest::prelude::*;

use rossl_model::{Job, JobId, SocketId, TaskId};
use proptest::strategy::ValueTree;
use rossl_trace::{ActionKind, Marker, ProtocolAutomaton, ProtocolState};

/// Generates a *valid* trace by simulating the loop structure directly:
/// a sequence of loop iterations, each with a random polling phase and a
/// dispatch-or-idle tail.
fn arb_valid_trace(n_sockets: usize) -> impl Strategy<Value = Vec<Marker>> {
    // Per iteration: per-round success choices (None = all fail).
    let round = proptest::collection::vec(proptest::bool::ANY, n_sockets);
    let iteration = proptest::collection::vec(round, 1..4);
    proptest::collection::vec(iteration, 0..6).prop_map(move |iterations| {
        let mut trace = Vec::new();
        let mut next_id = 0u64;
        let mut pending: Vec<Job> = Vec::new();
        for rounds in iterations {
            // Polling phase: all but the last round must have ≥1 success;
            // the last round must be all-fail. Normalize the random data.
            let n_rounds = rounds.len();
            for (r, successes) in rounds.into_iter().enumerate() {
                let last = r + 1 == n_rounds;
                let mut any = false;
                for (s, want_success) in successes.into_iter().enumerate() {
                    let success = !last && (want_success || (!any && s + 1 == n_sockets));
                    trace.push(Marker::ReadStart);
                    if success {
                        let job = Job::new(JobId(next_id), TaskId(0), vec![0]);
                        next_id += 1;
                        pending.push(job.clone());
                        any = true;
                        trace.push(Marker::ReadEnd {
                            sock: SocketId(s),
                            job: Some(job),
                        });
                    } else {
                        trace.push(Marker::ReadEnd {
                            sock: SocketId(s),
                            job: None,
                        });
                    }
                }
                let _ = any;
            }
            trace.push(Marker::Selection);
            if let Some(job) = pending.pop() {
                trace.push(Marker::Dispatch(job.clone()));
                trace.push(Marker::Execution(job.clone()));
                trace.push(Marker::Completion(job));
            } else {
                trace.push(Marker::Idling);
            }
        }
        trace
    })
}

/// One edit of `trace`, at the marker `at` of the way through it:
/// delete it, swap it with the next one, copy it to the position `other`
/// of the way through, move a read to the next socket (one past the last
/// is out of range), or give its job another id.
fn mutate(trace: &mut Vec<Marker>, kind: u8, at: f64, other: f64) {
    if trace.is_empty() {
        return;
    }
    let i = ((trace.len() as f64) * at) as usize;
    match kind {
        0 => {
            trace.remove(i);
        }
        1 if i + 1 < trace.len() => trace.swap(i, i + 1),
        2 => {
            let marker = trace[i].clone();
            let j = ((trace.len() as f64) * other) as usize;
            trace.insert(j, marker);
        }
        3 => {
            if let Marker::ReadEnd { sock, job } = &trace[i] {
                trace[i] = Marker::ReadEnd {
                    sock: SocketId(sock.0 + 1),
                    job: job.clone(),
                };
            }
        }
        _ => {
            let retag = |j: &Job| Job::new(JobId(j.id().0 + 1), j.task(), j.data().to_vec());
            trace[i] = match &trace[i] {
                Marker::Dispatch(j) => Marker::Dispatch(retag(j)),
                Marker::Execution(j) => Marker::Execution(retag(j)),
                Marker::Completion(j) => Marker::Completion(retag(j)),
                other => other.clone(),
            };
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `check` returns exactly `accept`'s verdict, the error's index,
    /// state, marker and violation included, on valid traces, their
    /// prefixes and their mutations, for one to three sockets.
    #[test]
    fn check_agrees_with_accept(
        traces in (arb_valid_trace(1), arb_valid_trace(2), arb_valid_trace(3)),
        cut in 0.0f64..1.0,
        edits in proptest::collection::vec((0u8..5, 0.0f64..1.0, 0.0f64..1.0), 1..4),
    ) {
        for (n_sockets, trace) in [(1, traces.0), (2, traces.1), (3, traces.2)] {
            let sts = ProtocolAutomaton::new(n_sockets);
            let prefix = &trace[..((trace.len() as f64) * cut) as usize];
            let mut mutated = trace.clone();
            for &(kind, at, other) in &edits {
                mutate(&mut mutated, kind, at, other);
            }
            for t in [&trace[..], prefix, &mutated[..]] {
                prop_assert_eq!(sts.check(t), sts.accept(t).map(|_| ()));
            }
        }
    }

    /// Generated loop-structured traces are accepted and end in the
    /// initial state.
    #[test]
    fn generated_traces_are_accepted(n_sockets in 1usize..4, seed in 0u8..2) {
        let _ = seed;
        // (Strategy needs a concrete n_sockets; re-generate inside.)
        let strategy = arb_valid_trace(n_sockets);
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let trace = strategy.new_tree(&mut runner).unwrap().current();
        let run = ProtocolAutomaton::new(n_sockets).accept(&trace)
            .expect("generated trace must be valid");
        prop_assert_eq!(run.final_state(), ProtocolState::INITIAL);
    }

    /// Acceptance composes: accepting the whole trace equals accepting a
    /// prefix and then resuming from its final state.
    #[test]
    fn acceptance_composes(n_sockets in 1usize..3, cut_ratio in 0.0f64..1.0) {
        let strategy = arb_valid_trace(n_sockets);
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let trace = strategy.new_tree(&mut runner).unwrap().current();
        let sts = ProtocolAutomaton::new(n_sockets);
        let whole = sts.accept(&trace).expect("valid");
        let cut = ((trace.len() as f64) * cut_ratio) as usize;
        let first = sts.accept(&trace[..cut]).expect("prefix valid");
        let second = sts
            .accept_from(first.final_state(), &trace[cut..])
            .expect("suffix valid from intermediate state");
        prop_assert_eq!(whole.final_state(), second.final_state());
    }

    /// The basic-action sequence contains exactly one Read per ReadS and
    /// one action per other starter marker.
    #[test]
    fn action_counts_match_markers(n_sockets in 1usize..3) {
        let strategy = arb_valid_trace(n_sockets);
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let trace = strategy.new_tree(&mut runner).unwrap().current();
        let run = ProtocolAutomaton::new(n_sockets).accept(&trace).expect("valid");
        let starters = trace.iter().filter(|m| m.starts_action()).count();
        // Trailing unresolved starters (ReadS/Selection without outcome)
        // are not in the action list; generated traces never end there.
        prop_assert_eq!(run.actions().len(), starters);
        let reads = run
            .actions()
            .iter()
            .filter(|a| matches!(a.action.kind(), ActionKind::ReadSuccess | ActionKind::ReadFailure))
            .count();
        let read_starts = trace.iter().filter(|m| matches!(m, Marker::ReadStart)).count();
        prop_assert_eq!(reads, read_starts);
    }
}
