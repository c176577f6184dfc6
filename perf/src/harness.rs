//! What every workload shares: the op interface, the measured loop,
//! output checks, seed derivation and sizes.

use std::time::{Duration, Instant};

use crate::metrics::{Report, Samples};
use crate::spans::Tracer;

/// Work sizes. [`Scale::FULL`] is what the benchmark measures; the unit
/// tests use [`Scale::TEST`].
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Ticks simulated per verify pipeline run.
    pub verify_horizon: u64,
    /// Candidate `TaskRequest`s the admission stream draws from.
    pub admission_pool: usize,
    /// Model-checker depth bound.
    pub explore_depth: usize,
    /// Crash-sweep depth bound.
    pub crash_depth: usize,
    /// Fuzz inputs built during set-up (the stream cycles through them).
    pub fuzz_inputs: usize,
    /// Ops of each other family run in a traced run, so that every
    /// layer metric has a value, indexed by `Family`: verify, admission,
    /// explore, fuzz.
    pub side_ops: [usize; 4],
    /// Seconds of untimed set-ups before anything is timed: an idle vCPU
    /// of a shared host takes over a second to reach full speed.
    pub warm_s: f64,
}

impl Scale {
    pub const FULL: Scale = Scale {
        verify_horizon: 200_000,
        admission_pool: 2_048,
        explore_depth: 44,
        crash_depth: 32,
        fuzz_inputs: 12_000,
        side_ops: [2, 4_000, 1, 300],
        warm_s: 2.0,
    };

    #[cfg(test)]
    pub const TEST: Scale = Scale {
        verify_horizon: 20_000,
        admission_pool: 32,
        explore_depth: 16,
        crash_depth: 8,
        fuzz_inputs: 40,
        side_ops: [1, 40, 1, 6],
        warm_s: 0.0,
    };
}

/// The result of one op: work units completed and the nanoseconds spent
/// inside calls into the system (harness bookkeeping excluded).
#[derive(Debug, Clone, Copy, Default)]
pub struct Op {
    pub work: u64,
    pub ns: u64,
}

/// Counts output checks; every failure is a counted failure, never a
/// panic.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 16 {
                self.notes.push(what());
            }
        }
    }
}

/// One workload: set up from a seed, then driven op by op.
pub trait Workload {
    /// Runs op `k`. The inputs of op `k` depend only on the seed and `k`.
    fn op(&mut self, k: usize, tr: &mut Tracer, checks: &mut Checks) -> Op;

    /// Untimed output checks after the measured phase.
    fn after(&mut self, _checks: &mut Checks) {}

    /// The family's per-layer metrics, from what the traced ops recorded
    /// plus untimed probes on the same inputs.
    fn layers(&mut self, tr: &mut Tracer, checks: &mut Checks, report: &mut Report);

    /// A digest of every input and verdict seen so far.
    fn digest(&self) -> u64;
}

/// How long a measured phase runs.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    Seconds(f64),
    Ops(usize),
}

/// What runs in a measured phase besides the ops.
pub enum Between<'a> {
    /// Nothing; the tracer stays as it is.
    Nothing,
    /// Ops `3j` run traced and the others untraced, so that a drift of the
    /// host's speed cancels out of [`Measured::trace_overhead`]. Op
    /// `3j + 1` runs after the traced op's untimed probes have filled the
    /// caches with other data; op `3j + 2` is the clean untraced sample.
    AlternateTracing,
    /// Before an op, a timed call of this set-up whenever set-ups have
    /// so far taken less than [`SETUP_SHARE`] of the phase. Spread over
    /// the whole phase, the set-up times see the same drift of a shared
    /// host's speed as the ops, instead of the drift of one moment.
    TimedSetups(&'a mut dyn FnMut()),
}

/// Share of an untraced measured phase spent on timed set-ups.
pub const SETUP_SHARE: f64 = 0.05;

/// What a measured phase produced: per op, its latency and its work, and
/// the seconds each timed set-up took.
#[derive(Debug, Default)]
pub struct Measured {
    pub lat: Samples,
    pub work: Vec<u64>,
    pub setups: Vec<f64>,
}

impl Measured {
    pub fn ops(&self) -> usize {
        self.lat.len()
    }

    pub fn total_work(&self) -> u64 {
        self.work.iter().sum()
    }

    /// Traced ÷ clean untraced busy time per op, minus 1, for a phase
    /// measured with [`Between::AlternateTracing`].
    pub fn trace_overhead(&self) -> f64 {
        let (mut traced, mut untraced) = (0u64, 0u64);
        for ops in self.lat.ns.chunks_exact(3) {
            traced += ops[0];
            untraced += ops[2];
        }
        traced as f64 / untraced.max(1) as f64 - 1.0
    }

    /// Work per second of busy time (time inside calls into the system).
    pub fn work_per_s(&self) -> f64 {
        self.total_work() as f64 / self.lat.total_ns().max(1) as f64 * 1e9
    }
}

/// The closed loop: op `k + 1` starts only after op `k` returned.
pub fn measure(
    w: &mut dyn Workload,
    budget: Budget,
    tr: &mut Tracer,
    checks: &mut Checks,
    mut between: Between,
) -> Measured {
    let started = Instant::now();
    let mut m = Measured {
        lat: Samples::with_capacity(1 << 16),
        work: Vec::with_capacity(1 << 16),
        setups: Vec::new(),
    };
    let mut setup_s = 0.0;
    for k in 0.. {
        let done = match budget {
            Budget::Seconds(s) => started.elapsed() >= Duration::from_secs_f64(s),
            Budget::Ops(n) => k >= n,
        };
        if done {
            break;
        }
        match &mut between {
            Between::Nothing => {}
            Between::AlternateTracing => tr.set_enabled(k % 3 == 0),
            Between::TimedSetups(setup) => {
                if setup_s <= SETUP_SHARE * started.elapsed().as_secs_f64() {
                    let start = Instant::now();
                    setup();
                    let took = start.elapsed().as_secs_f64();
                    setup_s += took;
                    m.setups.push(took);
                }
            }
        }
        let op = w.op(k, tr, checks);
        m.lat.push(op.ns);
        m.work.push(op.work);
    }
    if let Between::AlternateTracing = between {
        tr.set_enabled(true);
    }
    m
}

/// Times `f` and records it as span `name` when tracing.
pub fn timed<T>(
    tr: &mut Tracer,
    name: &'static str,
    parent: Option<usize>,
    run: u64,
    f: impl FnOnce() -> T,
) -> (T, u64) {
    let start = Instant::now();
    let out = tr.span(name, parent, run, f);
    (out, start.elapsed().as_nanos() as u64)
}

/// A well-mixed 64-bit value derived from `seed` and two indices
/// (splitmix64 finaliser).
pub fn derive(seed: u64, a: u64, b: u64) -> u64 {
    let mut z =
        seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Folds `v` into a running digest.
pub fn fold(digest: &mut u64, v: u64) {
    *digest = derive(*digest, v, 0x5EED);
}

/// `/proc/self/status` field in KiB (`VmHWM`, `VmRSS`), 0 where absent.
pub fn proc_status_kib(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}
