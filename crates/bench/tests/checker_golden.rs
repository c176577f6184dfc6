//! Golden digests of the crash-seam and fleet checkers and of both
//! exhaustive walks.
//!
//! Inputs:
//!
//! * 4,000 seeded multi-segment histories of the real scheduler, crashed
//!   and restarted from its committed state, each given up to two edits
//!   (delete a marker, swap two adjacent markers, duplicate a marker
//!   elsewhere, change a job's id, give a `Dispatch` or `Completion`
//!   another task or payload under the same id, cut a segment short) and
//!   checked with `check_stitched`, with exact, off-by-one or no consumed
//!   counts;
//! * 4,000 fleets of two or three such shards, some dead, whose
//!   leftovers migrate to a live successor, with history edits, flipped
//!   dead flags and manifests that drop, invent or misplace a job (every
//!   manifest still names an existing shard and segment), checked with
//!   `check_fleet`;
//! * `ModelChecker::check_with_stats` at one thread with deduplication
//!   off and on, with and without an AMC policy, and the misprioritized
//!   `with_spec_tasks` counterexample; at two threads, outcomes only;
//! * `CrashSweep::sweep` on the E17, E18 and E21 fixtures.
//!
//! Each digest is 64-bit FNV-1a over the `Debug` rendering of the
//! results. The constants pin verdicts, error payloads and report
//! figures; a change that alters them on purpose updates the table and
//! says why.

use std::fmt::{self, Write as _};

use rossl::{ClientConfig, FirstByteCodec, ModePolicy, Request, Response, Scheduler};
use rossl_model::{
    Criticality, Curve, Duration, Job, JobId, Mode, Priority, Task, TaskId, TaskSet,
};
use rossl_trace::{check_stitched, Marker, StitchedTrace, Trace};
use rossl_verify::{
    check_fleet, CrashSweep, MigratedJob, MigrationManifest, ModelChecker, ShardHistory,
};
use rossl_workloads::SplitRng;

/// 64-bit FNV-1a, fed through `fmt::Write`.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

/// Histories (or fleets) per digest.
const GROUP: usize = 500;
/// Digest groups per checker: `GROUP * GROUPS` inputs each.
const GROUPS: usize = 8;

/// Three tasks of distinct priorities; with `mixed`, tasks 0 and 2 are
/// LO-criticality and task 1 is HI with `C_HI` headroom.
fn tasks(mixed: bool) -> TaskSet {
    let task = |id: usize, prio: u32| {
        Task::new(
            TaskId(id),
            format!("t{id}"),
            Priority(prio),
            Duration(5),
            Curve::sporadic(Duration(10)),
        )
    };
    let set = if mixed {
        vec![
            task(0, 1).with_criticality(Criticality::Lo),
            task(1, 9)
                .with_criticality(Criticality::Hi)
                .with_wcet_hi(Duration(12)),
            task(2, 5).with_criticality(Criticality::Lo),
        ]
    } else {
        vec![task(0, 1), task(1, 9), task(2, 5)]
    };
    TaskSet::new(set).expect("golden task sets are valid")
}

/// The system one history runs: task set, socket count and policy.
struct System {
    config: ClientConfig,
    policy: Option<ModePolicy>,
}

impl System {
    fn draw(rng: &mut SplitRng) -> System {
        let mixed = rng.chance(500);
        let n_sockets = rng.range(1, 2) as usize;
        System {
            config: ClientConfig::new(tasks(mixed), n_sockets).expect("valid config"),
            policy: mixed.then_some(ModePolicy::Amc {
                hysteresis_idles: 1,
            }),
        }
    }

    fn n_sockets(&self) -> usize {
        self.config.n_sockets()
    }

    fn tasks(&self) -> &TaskSet {
        self.config.tasks()
    }
}

/// The committed state a restart resumes from, kept the way journal
/// recovery keeps it: pending jobs in read order, the in-flight dispatch,
/// the id and completion counters and the mode.
#[derive(Default)]
struct Book {
    pending: Vec<Job>,
    in_flight: Option<Job>,
    next_id: u64,
    completed: u64,
    mode: Mode,
}

impl Book {
    fn record(&mut self, marker: &Marker) {
        match marker {
            Marker::ReadEnd { job: Some(j), .. } => {
                self.next_id = self.next_id.max(j.id().0 + 1);
                self.pending.push(j.clone());
            }
            Marker::Dispatch(j) => {
                self.pending.retain(|p| p.id() != j.id());
                self.in_flight = Some(j.clone());
            }
            Marker::Completion(_) => {
                self.completed += 1;
                self.in_flight = None;
            }
            Marker::ModeSwitch { to, .. } => self.mode = *to,
            _ => {}
        }
    }

    /// The crash seam: a voided dispatch goes back to the front.
    fn crash(&mut self) {
        if let Some(j) = self.in_flight.take() {
            self.pending.insert(0, j);
        }
    }
}

/// One shard's generated history plus what the generator knows about it.
struct Generated {
    segments: Vec<Trace>,
    consumed: Vec<usize>,
    book: Book,
}

/// Runs `lengths.len()` incarnations of the scheduler, crashing after
/// each one's drawn number of steps. `inject[k]` lists jobs (task and
/// payload) that enter the pending set at the start of segment `k` under
/// fresh ids; the ids given are returned in the same order.
fn generate(
    rng: &mut SplitRng,
    system: &System,
    lengths: &[usize],
    inject: &[(usize, Vec<Job>)],
) -> (Generated, Vec<Vec<Job>>) {
    let n = system.n_sockets();
    let queues: Vec<Vec<Vec<u8>>> = (0..n)
        .map(|_| {
            (0..rng.range(0, 4))
                .map(|_| vec![rng.below(3) as u8, rng.below(4) as u8])
                .collect()
        })
        .collect();
    let mut consumed = vec![0usize; n];
    let mut book = Book::default();
    let mut segments = Vec::new();
    let mut injected = Vec::new();
    for (segment, &steps) in lengths.iter().enumerate() {
        if segment > 0 {
            book.crash();
        }
        for (_, jobs) in inject.iter().filter(|(at, _)| *at == segment) {
            let fresh: Vec<Job> = jobs
                .iter()
                .map(|j| {
                    let job = Job::new(JobId(book.next_id), j.task(), j.data().to_vec());
                    book.next_id += 1;
                    job
                })
                .collect();
            book.pending.extend(fresh.iter().cloned());
            injected.push(fresh);
        }
        let mut sched = Scheduler::recovered(
            system.config.clone(),
            FirstByteCodec,
            book.pending.clone(),
            book.next_id,
            book.completed,
        )
        .expect("generated jobs name known tasks");
        if let Some(policy) = system.policy {
            sched = sched.with_mode_policy(policy).resume_in_mode(book.mode);
        }
        let mut trace = Vec::new();
        let mut response = None;
        for _ in 0..steps {
            let Ok(step) = sched.advance(response.take()) else {
                break;
            };
            if let Marker::ReadEnd { sock, job: Some(_) } = &step.marker {
                consumed[sock.0] += 1;
            }
            book.record(&step.marker);
            trace.push(step.marker);
            response = match step.request {
                Some(Request::Read(sock)) => Some(Response::ReadResult(
                    queues[sock.0]
                        .get(consumed[sock.0])
                        .filter(|_| rng.chance(600))
                        .cloned(),
                )),
                Some(Request::Execute(job)) => {
                    let task = system.tasks().task(job.task()).expect("known task");
                    Some(if system.policy.is_some() && rng.chance(400) {
                        Response::ExecutedIn(task.wcet_hi())
                    } else {
                        Response::Executed
                    })
                }
                None => None,
            };
        }
        segments.push(trace);
    }
    (
        Generated {
            segments,
            consumed,
            book,
        },
        injected,
    )
}

fn lengths(rng: &mut SplitRng, max_segments: u64) -> Vec<usize> {
    (0..rng.range(1, max_segments))
        .map(|_| rng.range(3, 28) as usize)
        .collect()
}

/// A copy of `job` with another id, task or payload.
fn retag(rng: &mut SplitRng, job: &Job) -> Job {
    match rng.below(3) {
        0 => Job::new(JobId(rng.below(8)), job.task(), job.data().to_vec()),
        1 => Job::new(
            job.id(),
            TaskId((job.task().0 + 1) % 3),
            job.data().to_vec(),
        ),
        _ => {
            let mut data = job.data().to_vec();
            data.push(rng.below(2) as u8);
            Job::new(job.id(), job.task(), data)
        }
    }
}

fn with_job(marker: &Marker, job: Job) -> Marker {
    match marker {
        Marker::ReadEnd { sock, .. } => Marker::ReadEnd {
            sock: *sock,
            job: Some(job),
        },
        Marker::Dispatch(_) => Marker::Dispatch(job),
        Marker::Execution(_) => Marker::Execution(job),
        Marker::Completion(_) => Marker::Completion(job),
        other => other.clone(),
    }
}

/// One seeded edit of `segments`.
fn edit(rng: &mut SplitRng, segments: &mut [Trace]) {
    let s = rng.index(segments.len());
    let len = segments[s].len();
    if len == 0 {
        return;
    }
    let i = rng.index(len);
    match rng.below(6) {
        0 => {
            segments[s].remove(i);
        }
        1 if len > 1 => {
            let i = rng.index(len - 1);
            segments[s].swap(i, i + 1);
        }
        2 => {
            let marker = segments[s][i].clone();
            let t = rng.index(segments.len());
            let at = rng.index(segments[t].len() + 1);
            segments[t].insert(at, marker);
        }
        3 => {
            // Change the id of some job-carrying marker.
            if let Some(job) = segments[s][i].job().cloned() {
                let other = Job::new(JobId(rng.below(8)), job.task(), job.data().to_vec());
                segments[s][i] = with_job(&segments[s][i], other);
            }
        }
        4 => {
            // Another task or payload under the same id, on a Dispatch
            // or Completion.
            let at = (0..len)
                .map(|k| (i + k) % len)
                .find(|&k| matches!(segments[s][k], Marker::Dispatch(_) | Marker::Completion(_)));
            if let Some(k) = at {
                let job = segments[s][k]
                    .job()
                    .cloned()
                    .expect("dispatch carries a job");
                let mut other = retag(rng, &job);
                if other.id() != job.id() {
                    other = Job::new(
                        job.id(),
                        TaskId((job.task().0 + 2) % 3),
                        job.data().to_vec(),
                    );
                }
                segments[s][k] = with_job(&segments[s][k], other);
            }
        }
        _ => segments[s].truncate(i),
    }
}

fn edits(rng: &mut SplitRng, segments: &mut [Trace]) {
    for _ in 0..rng.below(3) {
        edit(rng, segments);
    }
}

/// Exact consumed counts, one of them off by one, or none.
fn consumed(rng: &mut SplitRng, exact: &[usize]) -> Option<Vec<usize>> {
    let mut counts = exact.to_vec();
    match rng.below(4) {
        0 => None,
        1 => {
            let s = rng.index(counts.len());
            counts[s] = if rng.chance(500) {
                counts[s] + 1
            } else {
                counts[s].saturating_sub(1)
            };
            Some(counts)
        }
        _ => Some(counts),
    }
}

fn stitched_digests(table: &mut Vec<(String, u64)>) {
    let mut rng = SplitRng::new(0x5717_C4ED);
    for group in 0..GROUPS {
        let mut h = Fnv1a::new();
        for _ in 0..GROUP {
            let system = System::draw(&mut rng);
            let lengths = lengths(&mut rng, 3);
            let (mut generated, _) = generate(&mut rng, &system, &lengths, &[]);
            edits(&mut rng, &mut generated.segments);
            let consumed = consumed(&mut rng, &generated.consumed);
            let result = check_stitched(
                &StitchedTrace::new(generated.segments),
                system.tasks(),
                system.n_sockets(),
                consumed.as_deref(),
            );
            let _ = writeln!(h, "{result:?}");
        }
        table.push((format!("stitched/{group}"), h.0));
    }
}

/// A fleet of two or three shards on one system: dead shards first,
/// their leftovers migrated to a drawn live successor and segment.
fn fleet(rng: &mut SplitRng, system: &System) -> (Vec<ShardHistory>, Vec<MigrationManifest>) {
    let n_shards = rng.range(2, 3) as usize;
    let mut dead: Vec<bool> = (0..n_shards).map(|_| rng.chance(400)).collect();
    if dead.iter().all(|&d| d) {
        dead[rng.index(n_shards)] = false;
    }
    let lengths: Vec<Vec<usize>> = (0..n_shards).map(|_| lengths(rng, 3)).collect();
    let live: Vec<usize> = (0..n_shards).filter(|&s| !dead[s]).collect();

    let mut histories: Vec<Option<ShardHistory>> = vec![None; n_shards];
    // Per successor: (dead shard, segment, leftovers) to inject.
    let mut plans: Vec<Vec<(usize, usize, Vec<Job>)>> = vec![Vec::new(); n_shards];
    for shard in (0..n_shards).filter(|&s| dead[s]) {
        let (mut generated, _) = generate(rng, system, &lengths[shard], &[]);
        generated.book.crash();
        let to = live[rng.index(live.len())];
        let at = rng.index(lengths[to].len());
        plans[to].push((shard, at, generated.book.pending.clone()));
        histories[shard] = Some(ShardHistory {
            shard,
            segments: generated.segments,
            consumed: generated.consumed,
            dead: true,
        });
    }
    let mut manifests = Vec::new();
    for &shard in &live {
        let inject: Vec<(usize, Vec<Job>)> = plans[shard]
            .iter()
            .map(|(_, at, jobs)| (*at, jobs.clone()))
            .collect();
        let (generated, fresh) = generate(rng, system, &lengths[shard], &inject);
        // `generate` hands out fresh ids in segment order; match them back
        // to their plans in that order.
        let mut order: Vec<usize> = (0..plans[shard].len()).collect();
        order.sort_by_key(|&k| plans[shard][k].1);
        for (k, fresh) in order.into_iter().zip(fresh) {
            let (from, at, jobs) = &plans[shard][k];
            manifests.push(MigrationManifest {
                from_shard: *from,
                to_shard: shard,
                at_segment: *at,
                moved: jobs
                    .iter()
                    .zip(fresh)
                    .map(|(old, job)| MigratedJob { old: old.id(), job })
                    .collect(),
            });
        }
        histories[shard] = Some(ShardHistory {
            shard,
            segments: generated.segments,
            consumed: generated.consumed,
            dead: false,
        });
    }
    let histories = histories
        .into_iter()
        .map(|h| h.expect("every shard generated"))
        .collect();
    (histories, manifests)
}

/// One seeded edit of a fleet: a history edit, a consumed count off by
/// one, a flipped dead flag, or a manifest that drops, invents, retags
/// or misplaces a job (onto an existing shard and segment).
fn edit_fleet(
    rng: &mut SplitRng,
    shards: &mut [ShardHistory],
    manifests: &mut [MigrationManifest],
) {
    let s = rng.index(shards.len());
    match rng.below(8) {
        0 | 1 => edit(rng, &mut shards[s].segments),
        2 => {
            let counts = &mut shards[s].consumed;
            let k = rng.index(counts.len());
            counts[k] += 1;
        }
        3 => shards[s].dead = !shards[s].dead,
        4 => {
            // Another payload on the shard's last dispatch: the value a
            // leftover in flight, or whose dispatch a restart voided,
            // carries into conservation.
            let last = shards[s]
                .segments
                .iter_mut()
                .flatten()
                .rev()
                .find(|m| matches!(m, Marker::Dispatch(_)));
            if let Some(marker) = last {
                let job = marker.job().expect("a dispatch carries a job").clone();
                let data = [job.data(), &[7]].concat();
                *marker = Marker::Dispatch(Job::new(job.id(), job.task(), data));
            }
        }
        _ if manifests.is_empty() => {}
        kind => {
            let m = rng.index(manifests.len());
            let manifest = &mut manifests[m];
            match kind {
                5 if !manifest.moved.is_empty() => {
                    let k = rng.index(manifest.moved.len());
                    if rng.chance(500) {
                        manifest.moved.remove(k);
                    } else {
                        manifest.moved[k].job = retag(rng, &manifest.moved[k].job);
                    }
                }
                6 => manifest.moved.push(MigratedJob {
                    old: JobId(rng.below(6)),
                    job: Job::new(
                        JobId(50 + rng.below(4)),
                        TaskId(rng.below(3) as usize),
                        vec![1],
                    ),
                }),
                _ => {
                    let to = rng.index(shards.len());
                    manifest.to_shard = to;
                    manifest.at_segment = rng.index(shards[to].segments.len());
                }
            }
        }
    }
}

fn fleet_digests(table: &mut Vec<(String, u64)>) {
    let mut rng = SplitRng::new(0xF1EE_7C4E);
    for group in 0..GROUPS {
        let mut h = Fnv1a::new();
        for _ in 0..GROUP {
            let system = System::draw(&mut rng);
            let (mut shards, mut manifests) = fleet(&mut rng, &system);
            for _ in 0..rng.below(3) {
                edit_fleet(&mut rng, &mut shards, &mut manifests);
            }
            let result = check_fleet(&shards, &manifests, system.tasks(), system.n_sockets());
            let _ = writeln!(h, "{result:?}");
        }
        table.push((format!("fleet/{group}"), h.0));
    }
}

/// The two-socket E18 exploration workload.
fn e18_checker(depth: usize) -> ModelChecker {
    let config = ClientConfig::new(tasks(false), 2).expect("config");
    ModelChecker::new(
        config,
        vec![vec![vec![0], vec![1], vec![0]], vec![vec![1], vec![0]]],
        depth,
    )
}

/// The E21 mixed configuration: a LO task and a HI task with `C_HI`
/// headroom.
fn mixed_config() -> ClientConfig {
    let tasks = TaskSet::new(vec![
        Task::new(
            TaskId(0),
            "lo",
            Priority(1),
            Duration(5),
            Curve::sporadic(Duration(10)),
        )
        .with_criticality(Criticality::Lo),
        Task::new(
            TaskId(1),
            "hi",
            Priority(9),
            Duration(5),
            Curve::sporadic(Duration(10)),
        )
        .with_criticality(Criticality::Hi)
        .with_wcet_hi(Duration(12)),
    ])
    .expect("mixed set is valid");
    ClientConfig::new(tasks, 1).expect("config")
}

fn two_tasks(prio0: u32, prio1: u32) -> TaskSet {
    TaskSet::new(vec![
        Task::new(
            TaskId(0),
            "low",
            Priority(prio0),
            Duration(5),
            Curve::sporadic(Duration(10)),
        ),
        Task::new(
            TaskId(1),
            "high",
            Priority(prio1),
            Duration(5),
            Curve::sporadic(Duration(10)),
        ),
    ])
    .expect("two-task set is valid")
}

fn model_checker_digests(table: &mut Vec<(String, u64)>) {
    let amc = ModePolicy::Amc {
        hysteresis_idles: 1,
    };
    let checkers = [
        ("mc/e18-16", e18_checker(16)),
        ("mc/e18-20", e18_checker(20)),
        (
            "mc/amc",
            ModelChecker::new(mixed_config(), vec![vec![vec![0], vec![1], vec![0]]], 30)
                .with_mode_policy(amc),
        ),
        (
            "mc/adaptive",
            ModelChecker::new(mixed_config(), vec![vec![vec![1], vec![0]]], 30).with_mode_policy(
                ModePolicy::Adaptive {
                    hysteresis_idles: 1,
                },
            ),
        ),
        (
            "mc/no-policy",
            ModelChecker::new(mixed_config(), vec![vec![vec![0], vec![1], vec![0]]], 30),
        ),
        (
            "mc/spec-tasks",
            ModelChecker::new(
                ClientConfig::new(two_tasks(1, 9), 1).expect("config"),
                vec![vec![vec![0], vec![1]]],
                40,
            )
            .with_spec_tasks(two_tasks(9, 1)),
        ),
    ];
    for (label, mc) in checkers {
        let mut h = Fnv1a::new();
        for dedup in [false, true] {
            let result = mc.clone().with_dedup(dedup).check_with_stats();
            let _ = writeln!(h, "{result:?}");
        }
        for dedup in [false, true] {
            let result = mc.clone().with_threads(2).with_dedup(dedup).check();
            let _ = writeln!(h, "{result:?}");
        }
        table.push((label.to_string(), h.0));
    }
}

fn crash_sweep_digests(table: &mut Vec<(String, u64)>) {
    let amc = ModePolicy::Amc {
        hysteresis_idles: 1,
    };
    let one = ClientConfig::new(two_tasks(1, 9), 1).expect("config");
    let two = ClientConfig::new(two_tasks(1, 9), 2).expect("config");
    let sweeps = [
        (
            "crash/e17-single",
            CrashSweep::new(one.clone(), vec![vec![vec![0], vec![1]]], 8),
        ),
        (
            "crash/e17-two",
            CrashSweep::new(two, vec![vec![vec![0]], vec![vec![1]]], 8),
        ),
        (
            "crash/e18-budget",
            CrashSweep::new(one, vec![], 12).with_recovery_budget(6),
        ),
        (
            "crash/e21-amc",
            CrashSweep::new(mixed_config(), vec![vec![vec![1], vec![0]]], 12).with_mode_policy(amc),
        ),
        (
            "crash/e21-plain",
            CrashSweep::new(mixed_config(), vec![vec![vec![1], vec![0]]], 12),
        ),
    ];
    for (label, sweep) in sweeps {
        let mut h = Fnv1a::new();
        let _ = writeln!(h, "{:?}", sweep.sweep());
        let _ = writeln!(h, "{:?}", sweep.with_threads(2).sweep());
        table.push((label.to_string(), h.0));
    }
}

/// Every digest, labelled, in a fixed order.
fn digests() -> Vec<(String, u64)> {
    let mut table = Vec::new();
    stitched_digests(&mut table);
    fleet_digests(&mut table);
    model_checker_digests(&mut table);
    crash_sweep_digests(&mut table);
    table
}

const GOLDEN: &[(&str, u64)] = &[
    ("stitched/0", 0x027a825ca5e876a2),
    ("stitched/1", 0xdf5502fbf5b47921),
    ("stitched/2", 0xc20521a0cd486deb),
    ("stitched/3", 0x64c1d43fd5a50491),
    ("stitched/4", 0xa13063a38a9f7b40),
    ("stitched/5", 0x2c42e65e1586bd44),
    ("stitched/6", 0x229d25cec55399e6),
    ("stitched/7", 0x5c469844700f9f7a),
    ("fleet/0", 0xc3a4cdc83bf07805),
    ("fleet/1", 0x1a50b2f5f084d40b),
    ("fleet/2", 0x41f01275e6764f81),
    ("fleet/3", 0x654b3c47debe868f),
    ("fleet/4", 0xea0ac902f4733c12),
    ("fleet/5", 0x88b42d747d242a5f),
    ("fleet/6", 0x939decd3a097f07c),
    ("fleet/7", 0x593bc131919d2fa2),
    ("mc/e18-16", 0x698774f4210b567e),
    ("mc/e18-20", 0xbafb00771dc2cabe),
    ("mc/amc", 0x074e2bcfb4e8b2d8),
    ("mc/adaptive", 0x5e70bc0303f5e720),
    ("mc/no-policy", 0xdce7cac8ad5ad916),
    ("mc/spec-tasks", 0x852a6c54b32bb685),
    ("crash/e17-single", 0x5b9c2e59080b35ff),
    ("crash/e17-two", 0xe769bb0420f98e31),
    ("crash/e18-budget", 0xf70fc5135c2c08a5),
    ("crash/e21-amc", 0xceba0034d17d4741),
    ("crash/e21-plain", 0xc794d3c5f994d81f),
];

#[test]
fn checker_digests_match_the_golden_table() {
    let actual = digests();
    let rendered: String = actual
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", {d:#018x}),\n"))
        .collect();
    let expected: Vec<(String, u64)> = GOLDEN
        .iter()
        .map(|(name, d)| ((*name).to_string(), *d))
        .collect();
    assert!(
        actual == expected,
        "checker digests changed; actual table:\n{rendered}"
    );
}
