//! Golden digests of the curve-repaired `randomized` arrival generator.
//!
//! Each digest is 64-bit FNV-1a over every event of one generated
//! sequence (time, socket, task, payload), in sequence order. The inputs
//! are the four-curve fixture of `rossl_timing::workload`'s unit tests at
//! two horizons, and the three E7 systems at the benchmark's 200k-tick
//! horizon. The constants pin the generator's output; a change that alters
//! it on purpose updates them and says why.

use std::fmt::Write as _;

use rand::rngs::StdRng;
use rand::SeedableRng;
use refined_prosa::RosslSystem;
use refined_prosa_bench::setup;
use rossl::FirstByteCodec;
use rossl_model::{Curve, Duration, Instant, Priority, Task, TaskId, TaskSet};
use rossl_sockets::ArrivalSequence;
use rossl_timing::workload;

/// 64-bit FNV-1a.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn digest(seq: &ArrivalSequence) -> u64 {
    let mut out = String::new();
    for e in seq.events() {
        let _ = writeln!(
            out,
            "{} {} {} {:?}",
            e.time.0,
            e.sock.0,
            e.task.0,
            e.msg.data()
        );
    }
    fnv1a(&out)
}

/// One task of each curve shape: sporadic, periodic, leaky bucket and a
/// staircase that admits two jobs in total.
fn four_curves() -> TaskSet {
    let curves = [
        Curve::sporadic(Duration(50)),
        Curve::periodic(Duration(70)),
        Curve::leaky_bucket(3, 1, 40),
        Curve::staircase(vec![(Duration(1), 1), (Duration(100), 2)]),
    ];
    let tasks = curves
        .into_iter()
        .enumerate()
        .map(|(i, curve)| {
            Task::new(
                TaskId(i),
                format!("t{i}"),
                Priority(i as u32 + 1),
                Duration(5),
                curve,
            )
        })
        .collect();
    TaskSet::new(tasks).expect("fixture is valid")
}

/// Every digest, labelled, in a fixed order.
fn digests() -> Vec<(String, u64)> {
    let mut table = Vec::new();
    let tasks = four_curves();
    for horizon in [2_000, 20_000] {
        for seed in 0..20 {
            let seq = workload::randomized(
                &tasks,
                &FirstByteCodec,
                &workload::round_robin_sockets(2),
                Instant(horizon),
                &mut StdRng::seed_from_u64(seed),
            );
            table.push((format!("four-curves/{horizon}/{seed}"), digest(&seq)));
        }
    }
    let systems: [(&str, RosslSystem); 3] = [
        ("single", setup::single()),
        ("canonical", setup::canonical()),
        ("bursty", setup::bursty()),
    ];
    for (name, system) in systems {
        for seed in 0..3 {
            let seq = system.randomized_workload(seed, Instant(200_000));
            table.push((format!("e7/{name}/{seed}"), digest(&seq)));
        }
    }
    table
}

const GOLDEN: &[(&str, u64)] = &[
    ("four-curves/2000/0", 0xfad11971e922463d),
    ("four-curves/2000/1", 0xfaa93f812de45f80),
    ("four-curves/2000/2", 0x91ebdeda871d4176),
    ("four-curves/2000/3", 0xfc2bb2bed220d4db),
    ("four-curves/2000/4", 0x27aef3e9ff450fee),
    ("four-curves/2000/5", 0x8237a5175e606eaf),
    ("four-curves/2000/6", 0x9902b93d8a8c2d92),
    ("four-curves/2000/7", 0xf5f43253e74fc144),
    ("four-curves/2000/8", 0x757b7df9eab2e650),
    ("four-curves/2000/9", 0x482bdaed5421be08),
    ("four-curves/2000/10", 0xbb3dec5ebd2154e9),
    ("four-curves/2000/11", 0x49fbbf7a2dcc276a),
    ("four-curves/2000/12", 0x8f7b0ed7d74f396b),
    ("four-curves/2000/13", 0x679cffb6f84d29d0),
    ("four-curves/2000/14", 0x8364c6c6fc21b4d5),
    ("four-curves/2000/15", 0x5839f3d5a34f66f8),
    ("four-curves/2000/16", 0x69cf1f10cfb0fab3),
    ("four-curves/2000/17", 0x4e1efca4d044ee31),
    ("four-curves/2000/18", 0x0f3132804a6ee954),
    ("four-curves/2000/19", 0x1624efb59373288b),
    ("four-curves/20000/0", 0xc7cc2394ac2e6734),
    ("four-curves/20000/1", 0x25194491c48a1084),
    ("four-curves/20000/2", 0xd08d8abc1fc850d3),
    ("four-curves/20000/3", 0x7e7b9bad1f526b60),
    ("four-curves/20000/4", 0xcd36af9385c753c0),
    ("four-curves/20000/5", 0xa1d1d22fe71c20a7),
    ("four-curves/20000/6", 0x9f55cd81bac13df4),
    ("four-curves/20000/7", 0x6752910b02168fa0),
    ("four-curves/20000/8", 0xf23d19866d0a7fc9),
    ("four-curves/20000/9", 0x5a967ce08fd220c0),
    ("four-curves/20000/10", 0x919e2f809af03d2a),
    ("four-curves/20000/11", 0xddb9361f423b1162),
    ("four-curves/20000/12", 0x355459c74996ba70),
    ("four-curves/20000/13", 0x70a7989e6685169d),
    ("four-curves/20000/14", 0x3b01c52af19466d8),
    ("four-curves/20000/15", 0x26eaf7dca34212eb),
    ("four-curves/20000/16", 0xa3154356f61296b5),
    ("four-curves/20000/17", 0xf428214e124bad73),
    ("four-curves/20000/18", 0xe47b6a43e9928413),
    ("four-curves/20000/19", 0x66037864aee86c0c),
    ("e7/single/0", 0x433d94b813c8ce20),
    ("e7/single/1", 0x4d8c0bcf631c2f8e),
    ("e7/single/2", 0xe7831b0c8a73365b),
    ("e7/canonical/0", 0xc7fdcd43eeda9ea0),
    ("e7/canonical/1", 0x1739a74c7782283a),
    ("e7/canonical/2", 0x270dbdfb34fed832),
    ("e7/bursty/0", 0x3c579fe1a337cb9d),
    ("e7/bursty/1", 0x458b7bce285d6288),
    ("e7/bursty/2", 0x696858d69313438a),
];

#[test]
fn randomized_digests_match_the_golden_table() {
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
        "randomized digests changed; actual table:\n{rendered}"
    );
}
