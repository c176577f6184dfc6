//! Golden digests of the Thm 5.1 verifier and of every hypothesis
//! checker it is built from.
//!
//! Inputs: the E7 systems × 5 seeds × both workload generators, the
//! canonical system under every fault class of the E16 matrix × 2 seeds,
//! and, per clean run, three seeded single edits of its timed trace
//! (delete a marker, swap two adjacent markers, delay every marker after
//! some index by more than any WCET). Each digest is 64-bit FNV-1a over
//! the `Debug` rendering of:
//!
//! * the `TimingVerifier::verify` outcome (every report field on `Ok`,
//!   the error on `Err`);
//! * `ProtocolAutomaton::accept`, `check_functional`,
//!   `check_wcet_compliance`, `check_consistency`, `convert` and (on a
//!   converted schedule) `check_validity`.
//!
//! The constants pin the verifier's verdicts, error payloads and report
//! figures; a change that alters them on purpose updates the table and
//! says why.

use std::fmt::{self, Write as _};

use rand::rngs::StdRng;
use rand::SeedableRng;
use refined_prosa::{FaultCampaignConfig, RosslSystem, TimingVerifier};
use refined_prosa_bench::setup;
use rossl_faults::FaultPlan;
use rossl_model::{Duration, Instant, OverheadBounds};
use rossl_schedule::{check_validity, convert};
use rossl_sockets::ArrivalSequence;
use rossl_timing::{
    check_consistency, check_wcet_compliance, SimulationResult, TimedTrace, UniformCost,
};
use rossl_trace::{check_functional, ProtocolAutomaton};
use rossl_workloads::SplitRng;

/// 64-bit FNV-1a, fed through `fmt::Write` so that large renderings
/// never have to be held in memory.
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

const HORIZON: Instant = Instant(15_000);

/// The verify outcome, then each standalone checker's output, in
/// hypothesis order.
fn digest(
    system: &RosslSystem,
    verifier: &TimingVerifier,
    arrivals: &ArrivalSequence,
    run: &SimulationResult,
) -> u64 {
    let (tasks, wcet, n) = (system.tasks(), system.wcet(), system.n_sockets());
    let markers = run.trace.markers();
    let mut h = Fnv1a::new();
    let _ = writeln!(h, "{:?}", verifier.verify(arrivals, run));
    let _ = writeln!(h, "{:?}", ProtocolAutomaton::new(n).accept(markers));
    let _ = writeln!(h, "{:?}", check_functional(markers, tasks));
    let _ = writeln!(h, "{:?}", check_wcet_compliance(&run.trace, tasks, wcet, n));
    let _ = writeln!(h, "{:?}", check_consistency(&run.trace, arrivals));
    let schedule = convert(&run.trace, n);
    let _ = writeln!(h, "{schedule:?}");
    if let Ok(schedule) = &schedule {
        let bounds = OverheadBounds::derive(wcet, n);
        let _ = writeln!(h, "{:?}", check_validity(schedule, tasks, &bounds));
    }
    h.0
}

fn with_trace(run: &SimulationResult, trace: TimedTrace) -> SimulationResult {
    SimulationResult {
        trace,
        jobs: run.jobs.clone(),
        horizon: run.horizon,
        degradation: run.degradation.clone(),
    }
}

/// The longest WCET of any basic action of `system`.
fn longest_wcet(system: &RosslSystem) -> Duration {
    let w = system.wcet();
    system
        .tasks()
        .iter()
        .map(|t| t.wcet())
        .chain([
            w.failed_read,
            w.successful_read,
            w.selection,
            w.dispatch,
            w.completion,
            w.idling,
        ])
        .max()
        .unwrap_or(Duration::ZERO)
}

/// Three seeded single edits of `run`'s trace: a deleted marker, two
/// swapped adjacent markers, and every marker after one index delayed
/// by more than any WCET.
fn edits(
    system: &RosslSystem,
    run: &SimulationResult,
    seed: u64,
) -> Vec<(&'static str, TimedTrace)> {
    let markers = run.trace.markers();
    let timestamps = run.trace.timestamps();
    let len = markers.len();
    if len < 2 {
        return Vec::new();
    }
    let mut rng = SplitRng::new(seed ^ 0x601D);

    let i = rng.index(len);
    let mut m = markers.to_vec();
    let mut ts = timestamps.to_vec();
    m.remove(i);
    ts.remove(i);
    let deleted = TimedTrace::new(m, ts).expect("deletion keeps timestamps increasing");

    let i = rng.index(len - 1);
    let mut m = markers.to_vec();
    m.swap(i, i + 1);
    let swapped = TimedTrace::new(m, timestamps.to_vec()).expect("swap keeps timestamps in place");

    let i = rng.index(len - 1);
    let shift = longest_wcet(system) + Duration(1);
    let mut ts = timestamps.to_vec();
    for t in &mut ts[i + 1..] {
        *t = t.saturating_add(shift);
    }
    let delayed = TimedTrace::new(markers.to_vec(), ts).expect("delay keeps order");

    vec![("delete", deleted), ("swap", swapped), ("delay", delayed)]
}

/// Every digest, labelled, in a fixed order.
fn digests() -> Vec<(String, u64)> {
    let mut table = Vec::new();
    for (name, system) in setup::all_systems() {
        let verifier = system
            .verifier(Duration(400_000))
            .expect("E7 systems analyse");
        for seed in 0..5u64 {
            for (gen, arrivals) in [
                ("sporadic", system.random_workload(seed, HORIZON)),
                ("randomized", system.randomized_workload(seed, HORIZON)),
            ] {
                let run = system
                    .simulate(
                        &arrivals,
                        UniformCost::new(StdRng::seed_from_u64(seed ^ 0xBEEF)),
                        HORIZON,
                    )
                    .expect("in-model simulation succeeds");
                let label = format!("{name}/{gen}/{seed}");
                table.push((
                    format!("clean/{label}"),
                    digest(&system, &verifier, &arrivals, &run),
                ));
                for (edit, trace) in edits(&system, &run, seed) {
                    let edited = with_trace(&run, trace);
                    table.push((
                        format!("{edit}/{label}"),
                        digest(&system, &verifier, &arrivals, &edited),
                    ));
                }
            }
        }
    }

    let system = setup::canonical();
    let verifier = system
        .verifier(Duration(400_000))
        .expect("canonical analyses");
    for class in FaultCampaignConfig::full_matrix() {
        for seed in [11u64, 23] {
            let nominal = system.random_workload(seed, HORIZON);
            let plan = FaultPlan::single(seed, class, 400);
            let run = system
                .simulate_faulty(
                    &nominal,
                    UniformCost::new(StdRng::seed_from_u64(seed ^ 0xFA17)),
                    &plan,
                    None,
                    HORIZON,
                )
                .expect("faulty simulation runs");
            let claimed = run.claimed(&plan, &nominal);
            table.push((
                format!("faulty/{}/{seed}", class.name()),
                digest(&system, &verifier, claimed, &run.result),
            ));
        }
    }
    table
}

const GOLDEN: &[(&str, u64)] = &[
    ("clean/single/sporadic/0", 0x191911ec2e04dc58),
    ("delete/single/sporadic/0", 0xbbe0f12e36664a94),
    ("swap/single/sporadic/0", 0x2e05053fb0a66090),
    ("delay/single/sporadic/0", 0x0a12116f5dbda699),
    ("clean/single/randomized/0", 0xc3fe6d6d43e38639),
    ("delete/single/randomized/0", 0x008d8a9c79bd2d60),
    ("swap/single/randomized/0", 0xf0365f334c0c296c),
    ("delay/single/randomized/0", 0x3a090d932d03e60a),
    ("clean/single/sporadic/1", 0x0ae097d47fe0b69c),
    ("delete/single/sporadic/1", 0x56665fab26e56a70),
    ("swap/single/sporadic/1", 0xfd81b4fd14017410),
    ("delay/single/sporadic/1", 0xd87a8744d0b41341),
    ("clean/single/randomized/1", 0xf7698e85cfbc7bb9),
    ("delete/single/randomized/1", 0xc8bb16b773f34368),
    ("swap/single/randomized/1", 0x8671278b5494eca8),
    ("delay/single/randomized/1", 0xbf85d6d037f840ae),
    ("clean/single/sporadic/2", 0x04865cb534e46f30),
    ("delete/single/sporadic/2", 0xde92094508b0a2a0),
    ("swap/single/sporadic/2", 0x40aa73be9d0c5c40),
    ("delay/single/sporadic/2", 0xa070406699f7c71a),
    ("clean/single/randomized/2", 0xdf3c0c5dfd9e1bc4),
    ("delete/single/randomized/2", 0xbd210a28718e1d58),
    ("swap/single/randomized/2", 0x40d8dcdc075e9cb8),
    ("delay/single/randomized/2", 0xf41bd5bde48f2cbf),
    ("clean/single/sporadic/3", 0x25733a61cddb20eb),
    ("delete/single/sporadic/3", 0xf6c5e1149fe33048),
    ("swap/single/sporadic/3", 0x58b13778201a6524),
    ("delay/single/sporadic/3", 0x17284ef63ca840c9),
    ("clean/single/randomized/3", 0x0f580367868fe9ff),
    ("delete/single/randomized/3", 0x8f1a7ec6f6f91dd8),
    ("swap/single/randomized/3", 0x83b043d5a8ee7b20),
    ("delay/single/randomized/3", 0xda3ebcb245aa1421),
    ("clean/single/sporadic/4", 0xe157fabcc3277227),
    ("delete/single/sporadic/4", 0x829cc72b09c89490),
    ("swap/single/sporadic/4", 0xf3ec51eb42f96f18),
    ("delay/single/sporadic/4", 0x803f7afb48cd6c0c),
    ("clean/single/randomized/4", 0x9af7b1ed1f744bfa),
    ("delete/single/randomized/4", 0x829cc72b09c89490),
    ("swap/single/randomized/4", 0xb521b8a6524f78a8),
    ("delay/single/randomized/4", 0xab1ef78018fa265c),
    ("clean/canonical/sporadic/0", 0x44fdcff5b0cdf665),
    ("delete/canonical/sporadic/0", 0x6299f8b1c9106b40),
    ("swap/canonical/sporadic/0", 0x5d3632be8e65e188),
    ("delay/canonical/sporadic/0", 0x0c59d567a4013deb),
    ("clean/canonical/randomized/0", 0xe7f25a4ecb5f1793),
    ("delete/canonical/randomized/0", 0xcd71f784c2de80d8),
    ("swap/canonical/randomized/0", 0xb686bba18b015558),
    ("delay/canonical/randomized/0", 0x09aebcedb1f45516),
    ("clean/canonical/sporadic/1", 0xdaca93f66e7dee29),
    ("delete/canonical/sporadic/1", 0x1612e28b7a60a5f8),
    ("swap/canonical/sporadic/1", 0x3e8ccecc0c5c5d88),
    ("delay/canonical/sporadic/1", 0x0fce5ad333a7067b),
    ("clean/canonical/randomized/1", 0x4e9b157304dc36da),
    ("delete/canonical/randomized/1", 0xab74e4874c6c7078),
    ("swap/canonical/randomized/1", 0x79e5add6928d8d38),
    ("delay/canonical/randomized/1", 0x35de441ee269e50d),
    ("clean/canonical/sporadic/2", 0xefcc8440d5c2caa5),
    ("delete/canonical/sporadic/2", 0x7e3c4dc2ae9cef5c),
    ("swap/canonical/sporadic/2", 0xc736fcda882a49f0),
    ("delay/canonical/sporadic/2", 0x0a58bdb603f4b2d7),
    ("clean/canonical/randomized/2", 0xc0200e294583d473),
    ("delete/canonical/randomized/2", 0x23298608dcd37704),
    ("swap/canonical/randomized/2", 0xc9d76285fcb8a9e0),
    ("delay/canonical/randomized/2", 0x8777696be6f26fea),
    ("clean/canonical/sporadic/3", 0x8dd5c8d6e439e17a),
    ("delete/canonical/sporadic/3", 0x4c949a2d9efab2e8),
    ("swap/canonical/sporadic/3", 0x935d7e4a28ed9108),
    ("delay/canonical/sporadic/3", 0x67731d3d62e21103),
    ("clean/canonical/randomized/3", 0x650a35f7478af39e),
    ("delete/canonical/randomized/3", 0x929f04a1a20ae41c),
    ("swap/canonical/randomized/3", 0x07b73684c41effd8),
    ("delay/canonical/randomized/3", 0x8c29642f023d0656),
    ("clean/canonical/sporadic/4", 0x9dcf1c6bcbfa87f3),
    ("delete/canonical/sporadic/4", 0x3afbbb49c6df4d10),
    ("swap/canonical/sporadic/4", 0x467d78b079df1c48),
    ("delay/canonical/sporadic/4", 0x02bf8945a34c8c23),
    ("clean/canonical/randomized/4", 0x146161e4bccd6759),
    ("delete/canonical/randomized/4", 0x3afbbb49c6df4d10),
    ("swap/canonical/randomized/4", 0x467d78b079df1c48),
    ("delay/canonical/randomized/4", 0x4d1a5e7ebba31106),
    ("clean/bursty/sporadic/0", 0xfb8c7298f0b5ae76),
    ("delete/bursty/sporadic/0", 0x19d038cf93242bfc),
    ("swap/bursty/sporadic/0", 0xbc6a02b4510a22f8),
    ("delay/bursty/sporadic/0", 0xfae0829b2f911ded),
    ("clean/bursty/randomized/0", 0xb33a47f15d5ba7c9),
    ("delete/bursty/randomized/0", 0x5d2278fcc157646c),
    ("swap/bursty/randomized/0", 0xbc6a02b4510a22f8),
    ("delay/bursty/randomized/0", 0x9b039b2f9fe85e32),
    ("clean/bursty/sporadic/1", 0x744d6734348c3918),
    ("delete/bursty/sporadic/1", 0xf7e9fcef89193798),
    ("swap/bursty/sporadic/1", 0x4d9ec054d38c81e0),
    ("delay/bursty/sporadic/1", 0xaf2f517008fea249),
    ("clean/bursty/randomized/1", 0x4f7550a0052d7907),
    ("delete/bursty/randomized/1", 0x584e3eade0b97a88),
    ("swap/bursty/randomized/1", 0xafeb7dc12d6684d0),
    ("delay/bursty/randomized/1", 0x5b019d4221bb4a9e),
    ("clean/bursty/sporadic/2", 0xb5fce01ae03ee7fe),
    ("delete/bursty/sporadic/2", 0x54fe09ea792a6da0),
    ("swap/bursty/sporadic/2", 0x792bb9c7e5265b3c),
    ("delay/bursty/sporadic/2", 0xece093a28a07a02c),
    ("clean/bursty/randomized/2", 0xc901396faa6dc0d4),
    ("delete/bursty/randomized/2", 0x04baafe5b62b4d50),
    ("swap/bursty/randomized/2", 0xa715a2459ccc71e8),
    ("delay/bursty/randomized/2", 0xf7fa8fc1210b307a),
    ("clean/bursty/sporadic/3", 0x69e48fc72158092e),
    ("delete/bursty/sporadic/3", 0xf4a6e9b2128d8b80),
    ("swap/bursty/sporadic/3", 0xdfc3e6239e3e93b0),
    ("delay/bursty/sporadic/3", 0x94d33c8140a63e50),
    ("clean/bursty/randomized/3", 0xf4235734dd998be4),
    ("delete/bursty/randomized/3", 0xd423213b6d484320),
    ("swap/bursty/randomized/3", 0xabdb599a28ac5380),
    ("delay/bursty/randomized/3", 0x53da4774fc2cb55e),
    ("clean/bursty/sporadic/4", 0xc72fecf129b92cd9),
    ("delete/bursty/sporadic/4", 0xd0fbdbb7bcefc230),
    ("swap/bursty/sporadic/4", 0xe8313f35a5367290),
    ("delay/bursty/sporadic/4", 0xc8999fb2be1b5d28),
    ("clean/bursty/randomized/4", 0xec944699a6db8f0e),
    ("delete/bursty/randomized/4", 0x3afbbb49c6df4d10),
    ("swap/bursty/randomized/4", 0x1048a49ea15067a0),
    ("delay/bursty/randomized/4", 0x88b1a595a0a96314),
    ("faulty/drop/11", 0xb572f85cbc747bbf),
    ("faulty/drop/23", 0xbd7729140ea340ac),
    ("faulty/duplicate/11", 0x73c73e7159d785da),
    ("faulty/duplicate/23", 0xf4c131d23b5b05e2),
    ("faulty/reroute/11", 0x7fcc104b0d6ab0cb),
    ("faulty/reroute/23", 0x2e9b5ec41d278f3b),
    ("faulty/burst/11", 0xf567c3ede89dfc75),
    ("faulty/burst/23", 0x7a22f5c8fdcbe481),
    ("faulty/delayed-visibility/11", 0x6ea826b0a50cbd6a),
    ("faulty/delayed-visibility/23", 0x130c3b03ba6f537a),
    ("faulty/wcet-overrun/11", 0x92f01cb37660abf2),
    ("faulty/wcet-overrun/23", 0xae82f8cd35ae76b9),
    ("faulty/clock-jitter/11", 0xd570b95ba755a157),
    ("faulty/clock-jitter/23", 0xfad1177f2308e7de),
    ("faulty/stalled-idle/11", 0xe426a3c5867b8b56),
    ("faulty/stalled-idle/23", 0x412c61c794c5862f),
    ("faulty/uniform-delay/11", 0x4287c1f1fc7176f9),
    ("faulty/uniform-delay/23", 0x6ded36a1700b962d),
    ("faulty/execution-slack/11", 0x7d3203aafb9be623),
    ("faulty/execution-slack/23", 0x5f333cee9f69fde0),
];

#[test]
fn verify_digests_match_the_golden_table() {
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
        "verify digests changed; actual table:\n{rendered}"
    );
}
