//! Property tests for [`prosa::IncrementalSolver`]: over arbitrary
//! add / remove / mutate query sequences, the memoized path must be
//! **bit-identical** to a from-scratch [`prosa::analyse`] after every
//! step, bounds and errors alike.

use proptest::prelude::*;
use prosa::{analyse, AnalysisParams, IncrementalSolver};
use rossl_model::{Curve, Duration, Priority, Task, TaskId, TaskSet, WcetTable};

/// One task as the strategies draw it: (priority, wcet, min inter-arrival).
type Spec = (u32, u64, u64);

fn params(specs: &[Spec]) -> AnalysisParams {
    let tasks = TaskSet::new(
        specs
            .iter()
            .enumerate()
            .map(|(i, &(p, c, t))| {
                Task::new(
                    TaskId(i),
                    format!("t{i}"),
                    Priority(p),
                    Duration(c),
                    Curve::sporadic(Duration(t)),
                )
            })
            .collect(),
    )
    .expect("specs are dense, non-empty, with non-zero wcets");
    AnalysisParams::new(tasks, WcetTable::example(), 1)
        .expect("example WCET table and one socket are valid")
}

/// Applies one encoded delta to the working set, keeping it non-empty
/// and boundedly sized.
fn apply_delta(state: &mut Vec<Spec>, op: u8, slot: usize, spec: Spec) {
    match op {
        0 if state.len() < 5 => state.push(spec),
        1 if state.len() > 1 => {
            state.remove(slot % state.len());
        }
        _ => {
            let i = slot % state.len();
            state[i] = spec;
        }
    }
}

const TASK: std::ops::Range<u32> = 1u32..10;
const WCET: std::ops::Range<u64> = 1u64..30;
const PERIOD: std::ops::Range<u64> = 100u64..2_000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// After every delta in an arbitrary admission-style sequence, the
    /// incremental solver's answer equals a fresh from-scratch analysis
    /// of the current set — and an immediate repeat (the admission
    /// probe-then-commit pattern) replays the identical verdict from the
    /// set memo.
    #[test]
    fn delta_sequences_match_scratch_analysis(
        initial in proptest::collection::vec((TASK, WCET, PERIOD), 1..4),
        deltas in proptest::collection::vec(
            (0u8..3, 0usize..8, (TASK, WCET, PERIOD)),
            1..7,
        ),
    ) {
        let horizon = Duration(20_000);
        let mut inc = IncrementalSolver::new();
        let mut state = initial;

        let first = inc.analyse(&params(&state), horizon);
        prop_assert_eq!(&first, &analyse(&params(&state), horizon));

        for (op, slot, spec) in deltas {
            apply_delta(&mut state, op, slot, spec);
            let q = params(&state);
            let incremental = inc.analyse(&q, horizon);
            let scratch = analyse(&q, horizon);
            prop_assert_eq!(&incremental, &scratch);
            // Reverted / repeated queries replay bit-identically.
            let hits_before = inc.stats().set_hits;
            prop_assert_eq!(&inc.analyse(&q, horizon), &scratch);
            prop_assert_eq!(inc.stats().set_hits, hits_before + 1);
        }
    }
}
