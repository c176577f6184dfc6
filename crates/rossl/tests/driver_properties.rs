//! Property tests of the driver's stop semantics: stopping after any
//! step — a crash — leaves the environment, the clock and the journal
//! in agreement, and a supervised restart from that journal stitches
//! into a passing trace.

use std::collections::VecDeque;
use std::sync::Arc;

use proptest::prelude::*;

use rossl::{
    marker_cost, ClientConfig, DriveError, Driver, Environment, FirstByteCodec, RestartPolicy,
    Scheduler, Served, Supervisor,
};
use rossl_journal::{JournalWriter, KIND_EVENT};
use rossl_model::{
    Curve, Duration, Instant, MsgData, Priority, SocketId, Task, TaskId, TaskSet, WcetTable,
};
use rossl_trace::{check_stitched, Marker};

fn tasks() -> TaskSet {
    TaskSet::new(vec![
        Task::new(
            TaskId(0),
            "low",
            Priority(1),
            Duration(4),
            Curve::sporadic(Duration(50)),
        ),
        Task::new(
            TaskId(1),
            "high",
            Priority(9),
            Duration(3),
            Curve::sporadic(Duration(50)),
        ),
    ])
    .unwrap()
}

/// A scripted environment that accounts for everything it does. Each
/// read pops `(message, wait)` and takes effect `wait` ticks after it
/// was issued — a fast-forward to an idle wakeup; once the script is
/// empty every read fails at once.
struct Ledger {
    script: VecDeque<(Option<MsgData>, u64)>,
    tasks: TaskSet,
    handed_out: Vec<MsgData>,
    consumed: Vec<usize>,
    charged: u64,
    fast_forwarded: u64,
}

impl Environment for Ledger {
    type Error = DriveError;

    fn read(&mut self, sock: SocketId, now: Instant) -> Served<DriveError> {
        let (msg, wait) = self.script.pop_front().unwrap_or((None, 0));
        if let Some(m) = &msg {
            self.handed_out.push(m.clone());
            self.consumed[sock.0] += 1;
        }
        self.fast_forwarded += wait;
        Ok((msg, Instant(now.0 + wait)))
    }

    fn charge(&mut self, marker: &Marker) -> Duration {
        let d = marker_cost(marker, &WcetTable::example(), &self.tasks);
        self.charged += d.ticks();
        d
    }
}

fn arb_script() -> impl Strategy<Value = Vec<(Option<MsgData>, u64)>> {
    proptest::collection::vec(
        (
            proptest::option::of((0u8..2).prop_map(|t| vec![t])),
            0u64..6,
        ),
        0..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn stopping_after_any_step_keeps_env_clock_and_journal_in_agreement(
        script in arb_script(),
        n_sockets in 1usize..4,
        k in 1usize..90,
    ) {
        let config = Arc::new(ClientConfig::new(tasks(), n_sockets).unwrap());
        let mut env = Ledger {
            script: script.into(),
            tasks: tasks(),
            handed_out: Vec::new(),
            consumed: vec![0; n_sockets],
            charged: 0,
            fast_forwarded: 0,
        };
        let sched = Scheduler::with_shared_config(Arc::clone(&config), FirstByteCodec);
        let mut driver = Driver::new(sched, Instant::ZERO);
        let mut journal = JournalWriter::new();
        let mut pre = Vec::new();
        for _ in 0..k {
            let step = driver.step(&mut env).expect("scripted drive never sticks");
            journal.append(&step.marker, step.end).unwrap();
            journal.commit();
            pre.push(step.marker);
        }

        // Every message the environment handed out is a successful
        // `ReadEnd` among the k markers, and vice versa.
        let read: Vec<MsgData> = pre
            .iter()
            .filter_map(|m| match m {
                Marker::ReadEnd { job: Some(j), .. } => Some(j.data().to_vec()),
                _ => None,
            })
            .collect();
        prop_assert_eq!(&read, &env.handed_out);
        // The clock is exactly the charges plus the fast-forwards.
        prop_assert_eq!(driver.now().0, env.charged + env.fast_forwarded);

        // Crash: the driver takes no further step. Restart from the
        // journal (with a torn tail) and drive on.
        let clock = driver.now();
        drop(driver);
        let mut bytes = journal.into_bytes();
        bytes.extend_from_slice(&[KIND_EVENT, 0xFF]);
        let (sched, _, _) = Supervisor::new(RestartPolicy::default())
            .restart_shared(&bytes, Arc::clone(&config), FirstByteCodec)
            .expect("supervised restart succeeds");
        let mut driver = Driver::new(sched, clock);
        let post: Vec<Marker> = (0..60)
            .map(|_| driver.step(&mut env).expect("post-crash drive never sticks").marker)
            .collect();

        let checked = check_stitched(&[&pre, &post], config.tasks(), n_sockets, Some(&env.consumed));
        prop_assert!(checked.is_ok(), "stitched check failed: {:?}", checked);
    }
}
