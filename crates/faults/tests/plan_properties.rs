//! Property tests of the fault-injection layer's three defining
//! contracts:
//!
//! 1. **Replay** — a `FaultPlan` is fully deterministic: the same plan
//!    against the same workload produces byte-identical perturbations
//!    (delivered sequences, injection logs, cost picks).
//! 2. **Transparency** — an empty plan is indistinguishable from the
//!    undecorated substrate, at both the socket and the cost layer.
//! 3. **Crash replay** — the replay guarantee extends across a crash:
//!    the same plan seed and the same crash point yield a byte-identical
//!    stitched trace, journal included (DESIGN.md §5.3).

use proptest::prelude::*;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rossl::{
    ClientConfig, DriveError, Driver, Environment, FirstByteCodec, RestartPolicy, Scheduler,
    Served, Supervisor,
};
use rossl_faults::{FaultClass, FaultPlan, FaultSpec, FaultyCostModel, FaultySocketSet};
use rossl_journal::JournalWriter;
use rossl_model::{Curve, Duration, Instant, Message, Priority, SocketId, Task, TaskId, TaskSet};
use rossl_sockets::{ArrivalEvent, ArrivalSequence, DatagramSource, ReadOutcome, SocketSet};
use rossl_timing::{CostModel, Segment, UniformCost};
use rossl_trace::Marker;

fn arb_class() -> impl Strategy<Value = FaultClass> {
    prop_oneof![
        Just(FaultClass::Drop),
        Just(FaultClass::Duplicate),
        Just(FaultClass::Reroute),
        (2u32..5).prop_map(|factor| FaultClass::Burst { factor }),
        (1u64..100).prop_map(|d| FaultClass::DelayedVisibility { delay: Duration(d) }),
        (1u64..200).prop_map(|s| FaultClass::UniformDelay { shift: Duration(s) }),
        (2u32..6).prop_map(|factor| FaultClass::WcetOverrun { factor }),
        (1u64..50).prop_map(|e| FaultClass::ClockJitter { extra: Duration(e) }),
        (2u32..6).prop_map(|factor| FaultClass::StalledIdle { factor }),
        (1u32..5).prop_map(|d| FaultClass::ExecutionSlack { divisor: d }),
    ]
}

fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    (
        0u64..1_000,
        proptest::collection::vec((arb_class(), 0u64..=1000), 0..4),
    )
        .prop_map(|(seed, specs)| FaultPlan {
            seed,
            specs: specs
                .into_iter()
                .map(|(class, rate)| FaultSpec::at_rate(class, rate as u16))
                .collect(),
        })
}

fn arb_arrivals() -> impl Strategy<Value = ArrivalSequence> {
    proptest::collection::vec((0u64..500, 0usize..2, 0u8..16), 0..20).prop_map(|raw| {
        ArrivalSequence::from_events(
            raw.into_iter()
                .map(|(time, sock, payload)| ArrivalEvent {
                    time: Instant(time),
                    sock: SocketId(sock),
                    task: TaskId(usize::from(payload % 2)),
                    msg: Message::new(vec![payload % 2, payload]),
                })
                .collect(),
        )
    })
}

/// A fixed segment schedule exercising every `Segment` variant.
fn segment_schedule() -> Vec<(Segment, Duration)> {
    let mut out = Vec::new();
    for round in 1u64..=30 {
        out.push((Segment::ReadProbe, Duration(5 + round % 3)));
        out.push((Segment::ReadFinish { success: round % 2 == 0 }, Duration(4)));
        out.push((Segment::Selection, Duration(6)));
        out.push((Segment::Dispatch, Duration(3)));
        out.push((Segment::Execution(TaskId(round as usize % 2)), Duration(20 + round)));
        out.push((Segment::Completion, Duration(4)));
        out.push((Segment::Idling, Duration(7)));
    }
    out
}

fn crash_config() -> ClientConfig {
    let tasks = TaskSet::new(vec![
        Task::new(
            TaskId(0),
            "low",
            Priority(1),
            Duration(10),
            Curve::sporadic(Duration(100)),
        ),
        Task::new(
            TaskId(1),
            "high",
            Priority(9),
            Duration(10),
            Curve::sporadic(Duration(100)),
        ),
    ])
    .unwrap();
    ClientConfig::new(tasks, 2).unwrap()
}

/// The (possibly faulty) socket substrate as a drive environment.
struct Substrate<'a, S>(&'a mut S);

impl<S: DatagramSource> Environment for Substrate<'_, S> {
    type Error = DriveError;

    fn read(&mut self, sock: SocketId, now: Instant) -> Served<DriveError> {
        let msg = match self.0.try_read(sock, now).expect("in range") {
            ReadOutcome::Data { msg, .. } => Some(msg.data().to_vec()),
            _ => None,
        };
        Ok((msg, now))
    }
}

/// Drives `steps` markers against the socket substrate, journaling
/// each marker with a commit.
fn drive_against_sockets<S: DatagramSource>(
    driver: &mut Driver<FirstByteCodec>,
    sockets: &mut S,
    steps: usize,
    journal: &mut JournalWriter,
) -> Vec<Marker> {
    let mut env = Substrate(sockets);
    let mut trace = Vec::new();
    for _ in 0..steps {
        let step = driver.step(&mut env).expect("drive ok");
        journal.append(&step.marker, step.end).unwrap();
        journal.commit();
        trace.push(step.marker);
    }
    trace
}

/// One full crash–recovery run under `plan`: drive to the crash point,
/// tear the journal, restart under the supervisor, drive the remainder.
/// Returns the stitched segments plus the raw bytes of both journals —
/// the complete observable record of the run.
fn run_crash_scenario(
    plan: &FaultPlan,
    arrivals: &ArrivalSequence,
    post_steps: usize,
) -> (Vec<Vec<Marker>>, Vec<Vec<u8>>) {
    let crash_at = plan.crash_point().expect("plan carries a crash") as usize;
    let mut sockets = FaultySocketSet::with_arrivals(2, arrivals, plan).unwrap();
    let mut driver = Driver::new(Scheduler::new(crash_config(), FirstByteCodec), Instant::ZERO);
    let mut journal = JournalWriter::new();
    let seg0 = drive_against_sockets(&mut driver, &mut sockets, crash_at + 1, &mut journal);
    let clock = driver.now();
    drop(driver); // the crash

    let mut bytes0 = journal.into_bytes();
    bytes0.extend_from_slice(&[rossl_journal::KIND_EVENT, 0x7f]); // torn write

    let mut sup = Supervisor::new(RestartPolicy::default());
    let (sched, _state, corruption) = sup
        .restart(&bytes0, crash_config(), FirstByteCodec)
        .expect("recovery");
    assert!(corruption.is_some(), "the torn tail must be reported");

    let mut journal2 = JournalWriter::new();
    let mut driver = Driver::new(sched, clock);
    let seg1 = drive_against_sockets(&mut driver, &mut sockets, post_steps, &mut journal2);
    (vec![seg0, seg1], vec![bytes0, journal2.into_bytes()])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Loading the same (plan, workload) pair twice yields byte-identical
    /// delivered sequences and injection logs, and identical read streams.
    #[test]
    fn same_seed_socket_replay_is_byte_identical(
        plan in arb_plan(),
        arrivals in arb_arrivals(),
    ) {
        let mut a = FaultySocketSet::with_arrivals(2, &arrivals, &plan).unwrap();
        let mut b = FaultySocketSet::with_arrivals(2, &arrivals, &plan).unwrap();
        prop_assert_eq!(a.delivered(), b.delivered());
        prop_assert_eq!(a.injections(), b.injections());
        for now in (0u64..600).step_by(7) {
            for sock in 0..2usize {
                let ra = a.try_read(SocketId(sock), Instant(now)).unwrap();
                let rb = b.try_read(SocketId(sock), Instant(now)).unwrap();
                prop_assert_eq!(ra, rb);
            }
        }
    }

    /// The same plan produces the identical cost-pick stream on replay,
    /// including the injection log.
    #[test]
    fn same_seed_cost_replay_is_byte_identical(plan in arb_plan(), inner_seed in 0u64..1_000) {
        let mut a = FaultyCostModel::new(
            UniformCost::new(StdRng::seed_from_u64(inner_seed)),
            &plan,
        );
        let mut b = FaultyCostModel::new(
            UniformCost::new(StdRng::seed_from_u64(inner_seed)),
            &plan,
        );
        let log_a = a.log_handle();
        let log_b = b.log_handle();
        for (segment, max) in segment_schedule() {
            prop_assert_eq!(a.pick(segment, max), b.pick(segment, max));
        }
        prop_assert_eq!(&*log_a.borrow(), &*log_b.borrow());
    }

    /// An empty plan leaves the socket substrate exactly as the honest
    /// `SocketSet` would be: same delivered events, same read outcomes.
    #[test]
    fn empty_plan_socket_set_equals_undecorated(
        arrivals in arb_arrivals(),
        seed in 0u64..1_000,
    ) {
        let mut faulty =
            FaultySocketSet::with_arrivals(2, &arrivals, &FaultPlan::empty(seed)).unwrap();
        let mut honest = SocketSet::try_with_arrivals(2, &arrivals).unwrap();
        prop_assert_eq!(faulty.delivered(), &arrivals);
        prop_assert!(faulty.injections().is_empty());
        for now in (0u64..600).step_by(5) {
            for sock in 0..2usize {
                let rf = faulty.try_read(SocketId(sock), Instant(now)).unwrap();
                let rh = honest.try_read(SocketId(sock), Instant(now)).unwrap();
                prop_assert_eq!(rf, rh);
            }
        }
    }

    /// The replay guarantee extends across crashes: the same plan seed
    /// and the same crash point reproduce the run byte for byte — the
    /// same stitched segments and the very same journal bytes, torn
    /// tail included.
    #[test]
    fn same_seed_and_crash_point_replay_is_byte_identical(
        base in arb_plan(),
        arrivals in arb_arrivals(),
        crash_at in 0u64..16,
    ) {
        let mut plan = base;
        plan.specs.push(FaultSpec::always(FaultClass::Crash { at_step: crash_at }));
        prop_assert_eq!(plan.crash_point(), Some(crash_at));
        let (segs_a, bytes_a) = run_crash_scenario(&plan, &arrivals, 24);
        let (segs_b, bytes_b) = run_crash_scenario(&plan, &arrivals, 24);
        prop_assert_eq!(segs_a, segs_b);
        prop_assert_eq!(bytes_a, bytes_b);
    }

    /// An empty plan leaves the cost model exactly as the inner model:
    /// identical pick streams, nothing logged.
    #[test]
    fn empty_plan_cost_model_equals_undecorated(
        plan_seed in 0u64..1_000,
        inner_seed in 0u64..1_000,
    ) {
        let mut faulty = FaultyCostModel::new(
            UniformCost::new(StdRng::seed_from_u64(inner_seed)),
            &FaultPlan::empty(plan_seed),
        );
        let mut inner = UniformCost::new(StdRng::seed_from_u64(inner_seed));
        let log = faulty.log_handle();
        for (segment, max) in segment_schedule() {
            prop_assert_eq!(faulty.pick(segment, max), inner.pick(segment, max));
        }
        prop_assert!(log.borrow().is_empty());
    }
}
