//! Workload generation: arrival sequences that respect the task set's
//! arrival curves (Eq. 2).
//!
//! The paper's guarantee is universally quantified over arrival sequences
//! bounded by the arrival curves; these generators produce representative
//! members of that set, from benign (periodic, slack sporadic) to
//! adversarial (saturating: every job arrives as early as the curve
//! permits — the workload against which analytical bounds are tightest).
//!
//! All generators return sequences that provably respect the curves; the
//! property tests in this crate re-check this with
//! [`ArrivalSequence::check_respects_curves`].

use rand::Rng;

use rossl::MessageCodec;
use rossl_model::{ArrivalCurve, Curve, Duration, Instant, Message, SocketId, Task, TaskId, TaskSet};
use rossl_sockets::{ArrivalEvent, ArrivalSequence};

/// Assigns each task to a socket round-robin over `n_sockets` sockets.
///
/// # Examples
///
/// ```
/// use rossl_timing::workload::round_robin_sockets;
/// use rossl_model::{SocketId, TaskId};
/// let assign = round_robin_sockets(2);
/// assert_eq!(assign(TaskId(0)), SocketId(0));
/// assert_eq!(assign(TaskId(3)), SocketId(1));
/// ```
pub fn round_robin_sockets(n_sockets: usize) -> impl Fn(TaskId) -> SocketId {
    assert!(n_sockets > 0, "scheduler must have at least one socket");
    move |task| SocketId(task.0 % n_sockets)
}

fn event(
    task: &Task,
    seq: u32,
    time: Instant,
    codec: &impl MessageCodec,
    socket_of: &impl Fn(TaskId) -> SocketId,
) -> ArrivalEvent {
    ArrivalEvent {
        time,
        sock: socket_of(task.id()),
        task: task.id(),
        msg: Message::new(codec.encode(task.id(), &seq.to_be_bytes())),
    }
}

/// Strictly periodic arrivals: task `i` arrives at
/// `offset_i, offset_i + T_i, …` up to `horizon`, where `T_i` is the
/// period (or minimum inter-arrival time) of its curve. Tasks whose curve
/// has no period-like parameter (staircase) emit their initial burst at
/// `offset_i` only.
pub fn periodic(
    tasks: &TaskSet,
    codec: &impl MessageCodec,
    socket_of: &impl Fn(TaskId) -> SocketId,
    horizon: Instant,
) -> ArrivalSequence {
    let mut events = Vec::new();
    for (k, task) in tasks.iter().enumerate() {
        // Stagger offsets so tasks do not all burst at t = 0.
        let offset = Instant(1 + k as u64);
        match *task.arrival_curve() {
            Curve::Periodic { period } | Curve::Sporadic {
                min_inter_arrival: period,
            } => {
                let mut t = offset;
                let mut seq = 0u32;
                while t <= horizon {
                    events.push(event(task, seq, t, codec, socket_of));
                    seq += 1;
                    t = t.saturating_add(period);
                }
            }
            Curve::LeakyBucket { .. } | Curve::Staircase { .. } => {
                let initial = task.arrival_curve().max_arrivals(Duration(1));
                for seq in 0..initial {
                    events.push(event(task, seq as u32, offset, codec, socket_of));
                }
            }
        }
    }
    ArrivalSequence::from_events(events)
}

/// Sporadic arrivals with random slack: consecutive arrivals of task `i`
/// are separated by `T_i + U(0, T_i)`. Respects any sporadic/periodic
/// curve by construction; leaky-bucket and staircase tasks fall back to
/// the saturating pattern.
pub fn sporadic_random<R: Rng>(
    tasks: &TaskSet,
    codec: &impl MessageCodec,
    socket_of: &impl Fn(TaskId) -> SocketId,
    horizon: Instant,
    rng: &mut R,
) -> ArrivalSequence {
    let mut events = Vec::new();
    for task in tasks {
        match *task.arrival_curve() {
            Curve::Periodic { period: t } | Curve::Sporadic {
                min_inter_arrival: t,
            } => {
                let mut now = Instant(rng.gen_range(0..=t.ticks()));
                let mut seq = 0u32;
                while now <= horizon {
                    events.push(event(task, seq, now, codec, socket_of));
                    seq += 1;
                    let gap = t.ticks() + rng.gen_range(0..=t.ticks());
                    now = now.saturating_add(Duration(gap));
                }
            }
            _ => {
                events.extend(saturating_for_task(task, codec, socket_of, horizon));
            }
        }
    }
    ArrivalSequence::from_events(events)
}

/// The adversarial workload: every task's jobs arrive as early as its
/// curve permits.
///
/// * Sporadic/periodic `T`: one arrival every `T` ticks starting at `t=1`.
/// * Leaky bucket `(b, num/den)`: an initial burst of `b` jobs at `t=1`,
///   then one job every `⌈den/num⌉` ticks (none if the rate is zero).
/// * Staircase: greedy earliest-feasible placement (staircase curves admit
///   finitely many jobs, so the greedy scan is cheap).
pub fn saturating(
    tasks: &TaskSet,
    codec: &impl MessageCodec,
    socket_of: &impl Fn(TaskId) -> SocketId,
    horizon: Instant,
) -> ArrivalSequence {
    let mut events = Vec::new();
    for task in tasks {
        events.extend(saturating_for_task(task, codec, socket_of, horizon));
    }
    ArrivalSequence::from_events(events)
}

fn saturating_for_task(
    task: &Task,
    codec: &impl MessageCodec,
    socket_of: &impl Fn(TaskId) -> SocketId,
    horizon: Instant,
) -> Vec<ArrivalEvent> {
    let mut events = Vec::new();
    if admits_none(task.arrival_curve()) {
        return events;
    }
    let start = Instant(1);
    match *task.arrival_curve() {
        Curve::Periodic { period: t } | Curve::Sporadic {
            min_inter_arrival: t,
        } => {
            let mut now = start;
            let mut seq = 0u32;
            while now <= horizon {
                events.push(event(task, seq, now, codec, socket_of));
                seq += 1;
                now = now.saturating_add(t);
            }
        }
        Curve::LeakyBucket {
            burst,
            rate_num,
            rate_den,
        } => {
            let mut seq = 0u32;
            for _ in 0..burst {
                if start <= horizon {
                    events.push(event(task, seq, start, codec, socket_of));
                    seq += 1;
                }
            }
            if rate_num > 0 {
                // Spacing ⌈den/num⌉ keeps ⌊(Δ−1)·num/den⌋ ≥ arrivals-after-
                // burst in every window anchored at the burst.
                let gap = Duration(rate_den.div_ceil(rate_num));
                let mut now = start.saturating_add(gap);
                while now <= horizon {
                    events.push(event(task, seq, now, codec, socket_of));
                    seq += 1;
                    now = now.saturating_add(gap);
                }
            }
        }
        Curve::Staircase { .. } => {
            // Greedy: place each next arrival at the earliest instant that
            // keeps every window within the curve.
            let curve = task.arrival_curve();
            let mut placed: Vec<Instant> = Vec::new();
            let mut candidate = start;
            'outer: loop {
                if candidate > horizon {
                    break;
                }
                // Check all windows ending at the candidate.
                for (i, &earlier) in placed.iter().enumerate() {
                    let count = (placed.len() - i + 1) as u64;
                    let len = candidate.saturating_duration_since(earlier) + Duration(1);
                    if count > curve.max_arrivals(len) {
                        // Infeasible: try the next instant.
                        candidate = candidate.saturating_add(Duration(1));
                        if candidate == Instant::MAX {
                            break 'outer;
                        }
                        continue 'outer;
                    }
                }
                placed.push(candidate);
                // A staircase curve is constant after its last breakpoint,
                // so it admits at most that many arrivals in total.
                let total_cap = curve.max_arrivals(Duration::MAX);
                if (placed.len() as u64) >= total_cap {
                    break;
                }
                candidate = candidate.saturating_add(Duration(1));
            }
            for (seq, t) in placed.into_iter().enumerate() {
                events.push(event(task, seq as u32, t, codec, socket_of));
            }
        }
    }
    events
}

/// Whether Eq. 2 at `Δ = 1` forbids every arrival: `α(1) = 0`. Such a
/// curve can pass [`Curve::validate`] (a leaky bucket with no burst, a
/// staircase whose first step exceeds one tick), yet no arrival respects
/// it.
fn admits_none(curve: &Curve) -> bool {
    curve.max_arrivals(Duration(1)) == 0
}

/// The smallest window length admitting `k` arrivals under `curve`, found
/// by doubling + binary search over the monotone curve. Returns `None` if
/// the curve never admits `k` arrivals (bounded-total curves).
fn min_window_for(curve: &Curve, k: u64, cap: Duration) -> Option<Duration> {
    if k == 0 {
        return Some(Duration::ZERO);
    }
    let mut hi = Duration(1);
    while curve.max_arrivals(hi) < k {
        if hi >= cap {
            return None;
        }
        hi = Duration((hi.ticks() * 2).min(cap.ticks()));
    }
    let (mut lo, mut hi) = (0u64, hi.ticks());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if curve.max_arrivals(Duration(mid)) >= k {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some(Duration(lo))
}

/// Fully randomized arrivals, *repaired* onto the curves: per task, gap
/// candidates are drawn at random around the curve's long-run rate, and
/// each candidate is shifted to the earliest instant at which adding it
/// keeps every window within the arrival curve. This explores workload
/// shapes neither [`periodic`] nor [`saturating`] reach (irregular
/// clustering up to exactly the curve limit).
///
/// Each new arrival is checked against all earlier ones, so placement is
/// `O(n²)` table lookups in the arrivals `n` per task. The minimum window
/// length for `k` arrivals is computed once per task and `k`, which costs
/// `O(n log horizon)` curve evaluations in all.
pub fn randomized<R: Rng>(
    tasks: &TaskSet,
    codec: &impl MessageCodec,
    socket_of: &impl Fn(TaskId) -> SocketId,
    horizon: Instant,
    rng: &mut R,
) -> ArrivalSequence {
    let cap = Duration(horizon.ticks().saturating_mul(2).max(16));
    let mut events = Vec::new();
    for task in tasks {
        let curve = task.arrival_curve();
        if admits_none(curve) {
            continue;
        }
        // Mean gap from the long-run rate (fallback: a tenth of the
        // horizon for bounded-total curves).
        let mean_gap = curve
            .long_run_rate()
            .filter(|r| *r > 0.0)
            .map(|r| (1.0 / r) as u64)
            .unwrap_or(horizon.ticks() / 10)
            .max(1);
        let mut placed: Vec<Instant> = Vec::new();
        // min_window[k − 2]: the smallest window holding k ≥ 2 arrivals.
        let mut min_window: Vec<Duration> = Vec::new();
        let mut candidate = Instant(rng.gen_range(0..=mean_gap));
        while candidate <= horizon {
            if !placed.is_empty() {
                match min_window_for(curve, placed.len() as u64 + 1, cap) {
                    Some(len) => min_window.push(len),
                    None => break, // curve admits no more arrivals
                }
            }
            // Earliest feasible instant ≥ candidate: the window from the
            // arrival k − 1 places back to the new one holds k arrivals,
            // so it is at least min_window[k − 2] long.
            let mut t = candidate;
            for (&earlier, &min_len) in placed.iter().zip(min_window.iter().rev()) {
                let feasible = earlier.saturating_add(min_len.saturating_sub(Duration(1)));
                t = t.max(feasible);
            }
            if t > horizon {
                break;
            }
            placed.push(t);
            // Next candidate: random gap in [0, 2·mean] from the *placed*
            // instant (bursty when the curve allows it).
            candidate = t.saturating_add(Duration(rng.gen_range(0..=2 * mean_gap)));
        }
        for (seq, t) in placed.into_iter().enumerate() {
            events.push(event(task, seq as u32, t, codec, socket_of));
        }
    }
    ArrivalSequence::from_events(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rossl::FirstByteCodec;
    use rossl_model::{Priority, TaskSet};

    fn tasks() -> TaskSet {
        TaskSet::new(vec![
            Task::new(
                TaskId(0),
                "sporadic",
                Priority(1),
                Duration(5),
                Curve::sporadic(Duration(50)),
            ),
            Task::new(
                TaskId(1),
                "periodic",
                Priority(2),
                Duration(5),
                Curve::periodic(Duration(70)),
            ),
            Task::new(
                TaskId(2),
                "bursty",
                Priority(3),
                Duration(5),
                Curve::leaky_bucket(3, 1, 40),
            ),
            Task::new(
                TaskId(3),
                "staircase",
                Priority(4),
                Duration(5),
                Curve::staircase(vec![(Duration(1), 1), (Duration(100), 2)]),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn periodic_respects_curves() {
        let seq = periodic(
            &tasks(),
            &FirstByteCodec,
            &round_robin_sockets(2),
            Instant(1000),
        );
        seq.check_respects_curves(&tasks()).unwrap();
        assert!(!seq.is_empty());
    }

    #[test]
    fn sporadic_random_respects_curves() {
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(seed);
            let seq = sporadic_random(
                &tasks(),
                &FirstByteCodec,
                &round_robin_sockets(1),
                Instant(2000),
                &mut rng,
            );
            seq.check_respects_curves(&tasks()).unwrap();
        }
    }

    #[test]
    fn saturating_respects_curves_and_is_densest() {
        let seq = saturating(
            &tasks(),
            &FirstByteCodec,
            &round_robin_sockets(1),
            Instant(500),
        );
        seq.check_respects_curves(&tasks()).unwrap();
        // The sporadic task must have exactly ⌈500/50⌉ = 10 arrivals.
        assert_eq!(seq.arrivals_of_task(TaskId(0)).len(), 10);
        // The bursty task opens with its full burst.
        let bursty = seq.arrivals_of_task(TaskId(2));
        assert_eq!(bursty.iter().filter(|&&t| t == Instant(1)).count(), 3);
        // The staircase task gets its total cap of 2 jobs.
        assert_eq!(seq.arrivals_of_task(TaskId(3)).len(), 2);
    }

    #[test]
    fn randomized_respects_curves_for_all_shapes() {
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let seq = randomized(
                &tasks(),
                &FirstByteCodec,
                &round_robin_sockets(2),
                Instant(2_000),
                &mut rng,
            );
            seq.check_respects_curves(&tasks())
                .unwrap_or_else(|(t, v)| panic!("seed {seed}, task {t}: {v}"));
            assert!(!seq.is_empty());
        }
    }

    #[test]
    fn randomized_differs_from_saturating() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = randomized(
            &tasks(),
            &FirstByteCodec,
            &round_robin_sockets(1),
            Instant(2_000),
            &mut rng,
        );
        let b = saturating(&tasks(), &FirstByteCodec, &round_robin_sockets(1), Instant(2_000));
        assert_ne!(
            a.arrivals_of_task(TaskId(0)),
            b.arrivals_of_task(TaskId(0)),
            "randomized workload should not be the saturating one"
        );
    }

    #[test]
    fn curves_admitting_no_arrival_get_none() {
        // α(1) = 0 passes validation, yet Eq. 2 at Δ = 1 forbids every
        // arrival.
        for curve in [
            Curve::leaky_bucket(0, 1, 10),
            Curve::staircase(vec![(Duration(5), 2)]),
        ] {
            curve.validate().unwrap();
            let tasks = TaskSet::new(vec![Task::new(
                TaskId(0),
                "none",
                Priority(1),
                Duration(5),
                curve.clone(),
            )])
            .unwrap();
            let (codec, sockets, horizon) =
                (&FirstByteCodec, &round_robin_sockets(1), Instant(2_000));
            let mut rng = StdRng::seed_from_u64(0);
            for seq in [
                periodic(&tasks, codec, sockets, horizon),
                sporadic_random(&tasks, codec, sockets, horizon, &mut rng),
                saturating(&tasks, codec, sockets, horizon),
                randomized(&tasks, codec, sockets, horizon, &mut rng),
            ] {
                assert!(seq.is_empty(), "{curve}: {seq}");
            }
        }
    }

    #[test]
    fn min_window_for_is_exact() {
        let curve = Curve::sporadic(Duration(10));
        for k in 1..10u64 {
            let w = min_window_for(&curve, k, Duration(1_000)).unwrap();
            assert!(curve.max_arrivals(w) >= k);
            assert!(w.is_zero() || curve.max_arrivals(w - Duration(1)) < k);
        }
        // Bounded-total staircase: no window ever admits 3 arrivals.
        let capped = Curve::staircase(vec![(Duration(1), 2)]);
        assert_eq!(min_window_for(&capped, 3, Duration(1_000)), None);
        assert_eq!(min_window_for(&capped, 0, Duration(1_000)), Some(Duration::ZERO));
    }

    #[test]
    fn messages_decode_to_their_task() {
        let seq = saturating(
            &tasks(),
            &FirstByteCodec,
            &round_robin_sockets(2),
            Instant(300),
        );
        for e in seq.events() {
            assert_eq!(FirstByteCodec.task_of(e.msg.data()), Some(e.task));
        }
    }

    #[test]
    fn socket_assignment_is_respected() {
        let seq = periodic(
            &tasks(),
            &FirstByteCodec,
            &round_robin_sockets(2),
            Instant(200),
        );
        for e in seq.events() {
            assert_eq!(e.sock, SocketId(e.task.0 % 2));
        }
    }
}
