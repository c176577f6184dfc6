//! Golden digests of every drive path: the timed simulator (honest and
//! fault-injected), the fault campaign, the fuzzer's differential
//! executor, and the fleet with its router.
//!
//! Each digest is 64-bit FNV-1a over a canonical rendering of one run's
//! observable output: ordered containers in their own order, hash sets
//! sorted first, so a digest depends only on what the run produced. The
//! constants pin the behaviour of the drive loops; a change that alters
//! drive behaviour on purpose updates them and says why.

use std::fmt::Write as _;

use rand::rngs::StdRng;
use rand::SeedableRng;
use refined_prosa::{run_fault_campaign, FaultCampaignConfig, RosslSystem};
use refined_prosa_bench::setup;
use rossl::WatchdogConfig;
use rossl_faults::{FaultClass, FaultPlan, FaultSpec};
use rossl_fleet::{splitmix64, Fleet, FleetConfig, HashRing, Workload};
use rossl_fuzz::FuzzInput;
use rossl_model::{Curve, Duration, Instant, Priority};
use rossl_timing::{SimulationResult, UniformCost};

/// 64-bit FNV-1a.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Markers with their timestamps, then the per-job records and the
/// degradation log.
fn render_simulation(out: &mut String, result: &SimulationResult) {
    for (marker, at) in result.trace.iter() {
        let _ = writeln!(out, "{} {marker:?}", at.0);
    }
    for (id, record) in &result.jobs {
        let _ = writeln!(out, "{id:?} {record:?}");
    }
    let _ = writeln!(out, "{:?}", result.degradation);
}

fn simulate_digest(system: &RosslSystem, seed: u64) -> u64 {
    let horizon = Instant(12_000);
    let arrivals = system.random_workload(seed, horizon);
    let result = system
        .simulate(
            &arrivals,
            UniformCost::new(StdRng::seed_from_u64(seed)),
            horizon,
        )
        .expect("in-model simulation succeeds");
    let mut out = String::new();
    render_simulation(&mut out, &result);
    fnv1a(&out)
}

fn faulty_digest(class: FaultClass) -> u64 {
    let system = setup::canonical();
    let horizon = Instant(15_000);
    let arrivals = system.random_workload(7, horizon);
    let plan = FaultPlan::empty(11).with(FaultSpec::at_rate(class, 600));
    let run = system
        .simulate_faulty(
            &arrivals,
            UniformCost::new(StdRng::seed_from_u64(7)),
            &plan,
            Some(WatchdogConfig::new(2)),
            horizon,
        )
        .expect("faulty simulation runs");
    let mut out = String::new();
    render_simulation(&mut out, &run.result);
    let _ = writeln!(out, "{:?}", run.delivered);
    let _ = writeln!(out, "{:?}", run.injections);
    fnv1a(&out)
}

/// E16's campaign loop over the full ten-class matrix at one seed.
fn campaign_digest() -> u64 {
    let config = FaultCampaignConfig {
        seeds: vec![5],
        ..FaultCampaignConfig::new(Instant(8_000))
    };
    let outcome =
        run_fault_campaign(&setup::canonical(), &config).expect("campaign infrastructure");
    fnv1a(&format!("{outcome:?}"))
}

/// Findings, step count and the sorted coverage sets of one honest
/// differential execution.
fn fuzz_digest(entry: &str) -> u64 {
    let path = format!(
        "{}/../../fuzz/corpus/{entry}.fuzz",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(&path).expect("corpus entry exists");
    let input = FuzzInput::from_text(&text).expect("corpus entry parses");
    let run = rossl_fuzz::execute(&input, None);
    let mut digests: Vec<_> = run.coverage.digests.iter().collect();
    let mut bigrams: Vec<_> = run.coverage.bigrams.iter().collect();
    let mut buckets: Vec<_> = run.coverage.buckets.iter().collect();
    digests.sort();
    bigrams.sort();
    buckets.sort();
    fnv1a(&format!(
        "{:?}\n{}\n{digests:?}\n{bigrams:?}\n{buckets:?}",
        run.findings, run.steps
    ))
}

/// E22's deployment: three identical tasks on three sockets.
fn fleet_system() -> RosslSystem {
    let mut builder = refined_prosa::SystemBuilder::new();
    for (i, name) in ["telemetry", "control", "safety"].iter().enumerate() {
        builder = builder.task(
            *name,
            Priority(10 + i as u32),
            Duration(2),
            Curve::sporadic(Duration(300)),
        );
    }
    builder.sockets(3).build().expect("fleet system builds")
}

/// E22's chaos schedule `i`: a seed and one kill, pause or partition,
/// with half the kills aimed at the shard owning key 0 just after its
/// first delivery.
fn e22_schedule(i: u64, gap: u64) -> (u64, FaultClass) {
    let seed = 0xF1EE7_u64 ^ (i * 0x9E37_79B9);
    let aimed = i % 3 == 0 && i % 2 == 0;
    let shard = if aimed {
        HashRing::new(3, seed).route(0).unwrap_or(0)
    } else {
        (splitmix64(seed) % 3) as usize
    };
    let at_tick = if aimed {
        splitmix64(seed) % gap + 2 + splitmix64(seed ^ 0xA1) % 6
    } else {
        1 + splitmix64(seed ^ 0xA7) % 1_600
    };
    let for_ticks = 1 + splitmix64(seed ^ 0xB3) % 300;
    let class = match i % 3 {
        0 => FaultClass::ShardKill { shard, at_tick },
        1 => FaultClass::ShardPause {
            shard,
            at_tick,
            for_ticks,
        },
        _ => FaultClass::Partition {
            shard,
            at_tick,
            for_ticks,
        },
    };
    (seed, class)
}

/// The run's outcome, then the router's decision trail.
fn fleet_digests(i: u64) -> (u64, u64) {
    let workload = Workload {
        jobs_per_key: 4,
        gap_ticks: 400,
    };
    let (seed, class) = e22_schedule(i, workload.gap_ticks);
    let plan = FaultPlan::empty(seed).with(FaultSpec::always(class));
    let config = FleetConfig {
        seed,
        ..FleetConfig::default()
    };
    let mut fleet = Fleet::new(&fleet_system(), config).expect("fleet analyses");
    let outcome = fnv1a(&format!("{:?}", fleet.run(workload, &plan)));
    (outcome, fnv1a(&fleet.routing_trace()))
}

/// Every digest, labelled, in a fixed order.
fn digests() -> Vec<(String, u64)> {
    let mut table = Vec::new();
    for (name, system) in [
        ("single", setup::single()),
        ("canonical", setup::canonical()),
        ("bursty", setup::bursty()),
    ] {
        for seed in 0..5 {
            table.push((
                format!("simulate/{name}/{seed}"),
                simulate_digest(&system, seed),
            ));
        }
    }
    table.push((
        "faulty/wcet-overrun".into(),
        faulty_digest(FaultClass::WcetOverrun { factor: 4 }),
    ));
    table.push((
        "faulty/burst".into(),
        faulty_digest(FaultClass::Burst { factor: 3 }),
    ));
    table.push(("campaign/full-matrix".into(), campaign_digest()));
    for (kind, entry) in [
        ("plain", "60c17e9e2666d0df"),
        ("plain", "21765a8494f0fdae"),
        ("crash", "98c6e84f1abed480"),
        ("crash", "5a317ae952df91e8"),
        ("crash", "9ee16062b30fbf27"),
        ("fault", "5a76a9b35bd11290"),
        ("fault", "e98e7f3d81e138ce"),
        ("crash-fault", "8b0433dae9c7b09c"),
        ("crash-fault", "f1277d4e61962844"),
        ("crit", "0b177f2036f07a0e"),
        ("fleet", "6e6b76f28923034e"),
        ("fleet-kill", "1c66e78962a870d8"),
        ("fleet-kill", "3e7e11a888676686"),
    ] {
        table.push((format!("fuzz/{kind}/{entry}"), fuzz_digest(entry)));
    }
    // Schedules 0 and 6 are aimed kills, 3 a random kill, 1 and 4
    // pauses, 2 and 5 partitions.
    for i in 0..7 {
        let (outcome, routing) = fleet_digests(i);
        table.push((format!("fleet/e22/{i}"), outcome));
        table.push((format!("fleet/e22/{i}/routing"), routing));
    }
    table
}

const GOLDEN: &[(&str, u64)] = &[
    ("simulate/single/0", 0x630dfe3b7336c76e),
    ("simulate/single/1", 0x7b54cea3578b8cf5),
    ("simulate/single/2", 0x6c7661452e481d66),
    ("simulate/single/3", 0xeb9c98fe63000713),
    ("simulate/single/4", 0x369f2241e887532e),
    ("simulate/canonical/0", 0xb1990fb2a252f1e1),
    ("simulate/canonical/1", 0x7ab4833d40cdf22f),
    ("simulate/canonical/2", 0x1312c71f993a6b4a),
    ("simulate/canonical/3", 0x3568926d6efdf296),
    ("simulate/canonical/4", 0x08d6ad3d0f088031),
    ("simulate/bursty/0", 0x99b928bc2375bfe0),
    ("simulate/bursty/1", 0x3c1888bf8496339d),
    ("simulate/bursty/2", 0xd21361ded2f12090),
    ("simulate/bursty/3", 0x781596a217d09eaf),
    ("simulate/bursty/4", 0xd71d1eaf1cf3f22a),
    ("faulty/wcet-overrun", 0xdaa806311744dc37),
    ("faulty/burst", 0xe2f7a57a09e9828e),
    ("campaign/full-matrix", 0x2002bf208a8217ae),
    ("fuzz/plain/60c17e9e2666d0df", 0x8af590361ca2e6b6),
    ("fuzz/plain/21765a8494f0fdae", 0x17b525e172794aaa),
    ("fuzz/crash/98c6e84f1abed480", 0xc8b51bb00021d868),
    ("fuzz/crash/5a317ae952df91e8", 0x2b317f28d86a765e),
    ("fuzz/crash/9ee16062b30fbf27", 0xcc9c85e8cb30d3a0),
    ("fuzz/fault/5a76a9b35bd11290", 0xc2e112a0c74bd205),
    ("fuzz/fault/e98e7f3d81e138ce", 0x62e7a0310204f5f3),
    ("fuzz/crash-fault/8b0433dae9c7b09c", 0xd756d695a6825f32),
    ("fuzz/crash-fault/f1277d4e61962844", 0x8f29d3de490d56d6),
    ("fuzz/crit/0b177f2036f07a0e", 0xc6a8dfea9e84b9e0),
    ("fuzz/fleet/6e6b76f28923034e", 0xdfb7c322bc3fdd94),
    ("fuzz/fleet-kill/1c66e78962a870d8", 0x4cf30590e65582a4),
    ("fuzz/fleet-kill/3e7e11a888676686", 0x836e4812342c2c60),
    ("fleet/e22/0", 0x3b0f5263a67780bb),
    ("fleet/e22/0/routing", 0xae86047599440016),
    ("fleet/e22/1", 0x40cddac783b4ae07),
    ("fleet/e22/1/routing", 0xbd850b0e1b9e07c7),
    ("fleet/e22/2", 0xc55eff648ddaa4c1),
    ("fleet/e22/2/routing", 0xcb9b011cb80ae001),
    ("fleet/e22/3", 0xe74fb3f8c48bd527),
    ("fleet/e22/3/routing", 0x6e55c5e8220c5573),
    ("fleet/e22/4", 0x6d7b795922fdd393),
    ("fleet/e22/4/routing", 0x923b1be79bb7976a),
    ("fleet/e22/5", 0x2178713b1b36b532),
    ("fleet/e22/5/routing", 0xf7e9057ef3b88279),
    ("fleet/e22/6", 0xaa04d2fad2e66242),
    ("fleet/e22/6/routing", 0x95d0a9744dc5985c),
];

#[test]
fn drive_digests_match_the_golden_table() {
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
        "drive digests changed; actual table:\n{rendered}"
    );
}
