//! Golden digests of the analysis and admission path.
//!
//! Inputs:
//!
//! * `prosa::analyse` on 1,560 sets from `rossl_workloads::generate`:
//!   utilization 0.3 to 1.2 in steps of 0.1 (the top points fail with
//!   `NoConvergence`), each arrival family, plain and mixed-criticality,
//!   1 and 2 sockets, 13 seeds each;
//! * on the first 3 seeds of each of those cells (360 sets, 3 to 5
//!   tasks): the AMC analysis, both schedulability tests with deadlines
//!   equal to the periods, the static-HI, tight and baseline analyses,
//!   and the busy window of every task; and `breakdown_scale` on seed 0
//!   of each cell;
//! * one `AdmissionController` driven through 3,200 seeded ops drawn the
//!   way the admission-churn benchmark draws them: 50% probes, 30% adds,
//!   15% removes and 5% updates, a forced remove at 8 admitted tasks,
//!   and about one slot in ten out of range.
//!
//! Each digest is 64-bit FNV-1a over the `Debug` rendering of every
//! result, verdict and probe answer, in order. The controller's last row
//! digests its counters: `stats()` and the set memo's hits and misses.
//! The constants pin the bounds, the errors, the verdicts and the memo
//! accounting; a change that alters them on purpose updates the table
//! and says why.

use std::fmt::{self, Write as _};

use prosa::{
    analyse, analyse_amc, analyse_baseline, analyse_static_hi, analyse_tight, breakdown_scale,
    busy_window_length, check_amc_schedulability, check_schedulability, max_release_jitter,
    AnalysisParams, BlackoutBound, ReleaseCurve, RosslSupply,
};
use rossl_model::{Duration, WcetTable};
use rossl_workloads::{
    generate, AdmissionController, ArrivalFamily, Delta, GeneratorConfig, SplitRng, TaskRequest,
    WorkloadSpec,
};

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

const HORIZON: Duration = Duration(200_000);
const FAMILIES: [ArrivalFamily; 3] = [
    ArrivalFamily::Sporadic,
    ArrivalFamily::Periodic,
    ArrivalFamily::Bursty,
];
const SEEDS_PER_CELL: u64 = 13;
/// Seeds per cell for the rows beyond `analyse`.
const OTHER_SEEDS_PER_CELL: u64 = 3;
/// The largest WCET scale `breakdown_scale` searches, in per-mille.
const MAX_PERMILLE: u64 = 2_000;
/// At this many admitted tasks the next op is a forced `Remove`.
const MAX_ADMITTED: usize = 8;
const OPS: usize = 3_200;
/// Ops per digest row of the controller drive.
const OPS_PER_ROW: usize = 400;

fn config(n_tasks: usize, u: f64, family: ArrivalFamily, mixed: bool) -> GeneratorConfig {
    GeneratorConfig {
        n_tasks,
        utilization: u,
        period_range: (500, 8_000),
        family,
        mixed_criticality: mixed,
    }
}

/// The generated set of one cell and seed, with its analysis inputs.
fn cell_set(
    u10: u64,
    sockets: usize,
    f: usize,
    mixed: bool,
    seed: u64,
) -> (WorkloadSpec, AnalysisParams) {
    let cfg = config(
        3 + (seed % 3) as usize,
        u10 as f64 / 10.0,
        FAMILIES[f],
        mixed,
    );
    let key = (u10 << 16) ^ ((f as u64) << 8) ^ (u64::from(mixed) << 4) ^ seed;
    let spec = generate(&cfg, &mut SplitRng::new(key));
    let params = AnalysisParams::new(spec.task_set(), WcetTable::example(), sockets)
        .expect("example table and a nonzero socket count are valid");
    (spec, params)
}

/// One row per (utilization, socket count): 78 sets each.
fn analysis_digests(table: &mut Vec<(String, u64)>) {
    for u10 in 3..=12u64 {
        for sockets in 1..=2 {
            let mut h = Fnv1a::new();
            for f in 0..FAMILIES.len() {
                for mixed in [false, true] {
                    for seed in 0..SEEDS_PER_CELL {
                        let (_, params) = cell_set(u10, sockets, f, mixed, seed);
                        let _ = writeln!(h, "{:?}", analyse(&params, HORIZON));
                    }
                }
            }
            table.push((format!("analyse/u{u10}/{sockets}s"), h.0));
        }
    }
}

/// The analyses besides `analyse`, over the same cells: one row per
/// analysis, 360 sets each (120 for `breakdown_scale`).
fn other_analysis_digests(table: &mut Vec<(String, u64)>) {
    const ROWS: [&str; 8] = [
        "analyse_amc",
        "check_amc_schedulability",
        "check_schedulability",
        "analyse_static_hi",
        "analyse_tight",
        "analyse_baseline",
        "busy_window_length",
        "breakdown_scale",
    ];
    let mut h: [Fnv1a; 8] = std::array::from_fn(|_| Fnv1a::new());
    for u10 in 3..=12u64 {
        for sockets in 1..=2 {
            for f in 0..FAMILIES.len() {
                for mixed in [false, true] {
                    for seed in 0..OTHER_SEEDS_PER_CELL {
                        let (spec, params) = cell_set(u10, sockets, f, mixed, seed);
                        let deadlines: Vec<Duration> =
                            spec.tasks.iter().map(|t| Duration(t.period)).collect();
                        let _ = writeln!(h[0], "{:?}", analyse_amc(&params, HORIZON));
                        let _ = writeln!(
                            h[1],
                            "{:?}",
                            check_amc_schedulability(&params, &deadlines, HORIZON)
                        );
                        let _ = writeln!(
                            h[2],
                            "{:?}",
                            check_schedulability(&params, &deadlines, HORIZON)
                        );
                        let _ = writeln!(h[3], "{:?}", analyse_static_hi(&params, HORIZON));
                        let _ = writeln!(h[4], "{:?}", analyse_tight(&params, HORIZON));
                        let _ = writeln!(h[5], "{:?}", analyse_baseline(&params, HORIZON));
                        let tasks = params.tasks();
                        let jitter = max_release_jitter(params.wcet(), sockets);
                        let curves: Vec<ReleaseCurve> = tasks
                            .iter()
                            .map(|t| ReleaseCurve::new(t.arrival_curve().clone(), jitter))
                            .collect();
                        let supply = RosslSupply::new(
                            BlackoutBound::for_config(tasks, params.wcet(), sockets),
                            HORIZON,
                        );
                        for t in tasks {
                            let _ = writeln!(
                                h[6],
                                "{:?}",
                                busy_window_length(tasks, &curves, &supply, t.id(), HORIZON)
                            );
                        }
                        if seed == 0 {
                            let _ = writeln!(
                                h[7],
                                "{:?}",
                                breakdown_scale(&params, &deadlines, HORIZON, MAX_PERMILLE)
                            );
                        }
                    }
                }
            }
        }
    }
    for (row, h) in ROWS.iter().zip(h) {
        table.push(((*row).to_string(), h.0));
    }
}

/// Candidate tasks from generated sets at utilization 0.3 to 1.0, cycling
/// through the families, every fourth set mixed-criticality.
fn pool() -> Vec<TaskRequest> {
    let mut rng = SplitRng::new(0xAD41_5510);
    let mut pool = Vec::new();
    for set in 0..40 {
        let cfg = config(
            3 + set % 3,
            0.3 + 0.7 * rng.unit_f64(),
            FAMILIES[set % 3],
            set % 4 == 0,
        );
        pool.extend(TaskRequest::from_spec(&generate(&cfg, &mut rng)));
    }
    pool
}

/// A slot for a remove or update: about one in ten is out of range.
fn slot(rng: &mut SplitRng, len: usize) -> usize {
    if rng.chance(100) {
        len + rng.index(3)
    } else {
        rng.index(len.max(1))
    }
}

/// An update: half the time of a slot to a pool request, half the time
/// of an admitted slot to its own request with one field nudged or none.
/// Each nudge changes one input of a memo key (WCET and priority for the
/// set memo, the deadline for the decision memo), so a key that loses a
/// field replays a stale verdict.
fn update(rng: &mut SplitRng, pool: &[TaskRequest], admitted: &[TaskRequest]) -> Delta {
    let slot = slot(rng, admitted.len());
    let mut req = pool[rng.index(pool.len())].clone();
    if let Some(own) = admitted.get(slot).filter(|_| rng.chance(500)) {
        req = own.clone();
        match rng.below(4) {
            0 => req.wcet += 1,
            1 => req.priority += 1,
            2 => req.deadline /= 4,
            _ => {}
        }
    }
    Delta::Update(slot, req)
}

/// A probe's delta: mostly adds, as in the benchmark, plus some removes
/// and updates so that every probe fingerprint shape is exercised.
fn probe_delta(rng: &mut SplitRng, pool: &[TaskRequest], admitted: &[TaskRequest]) -> Delta {
    match rng.below(10) {
        0..=5 => Delta::Add(pool[rng.index(pool.len())].clone()),
        6 => Delta::Remove(slot(rng, admitted.len())),
        _ => update(rng, pool, admitted),
    }
}

fn controller_digests(table: &mut Vec<(String, u64)>) {
    let pool = pool();
    let mut ac = AdmissionController::new(WcetTable::example(), 1, HORIZON);
    let mut rng = SplitRng::new(0xC0DE_AD41);
    let mut h = Fnv1a::new();
    for k in 0..OPS {
        let admitted = ac.current().to_vec();
        let len = admitted.len();
        let roll = rng.below(100);
        if len < MAX_ADMITTED && roll < 50 {
            let delta = probe_delta(&mut rng, &pool, &admitted);
            let _ = writeln!(h, "{k} probe {delta:?} {}", ac.admissible(&delta));
        } else {
            let delta = if len >= MAX_ADMITTED || ((80..95).contains(&roll) && len > 0) {
                Delta::Remove(slot(&mut rng, len))
            } else if roll >= 95 && len > 0 {
                update(&mut rng, &pool, &admitted)
            } else {
                Delta::Add(pool[rng.index(pool.len())].clone())
            };
            let _ = writeln!(h, "{k} query {delta:?}");
            let _ = writeln!(h, "{:?}", ac.query(delta));
        }
        if (k + 1) % OPS_PER_ROW == 0 {
            table.push((format!("controller/ops{}", k + 1), h.0));
            h = Fnv1a::new();
        }
    }
    let solver = ac.solver_stats();
    let _ = writeln!(
        h,
        "{:?} set_hits {} set_misses {}",
        ac.stats(),
        solver.set_hits,
        solver.set_misses
    );
    table.push(("controller/stats".to_string(), h.0));
}

/// Every digest, labelled, in a fixed order.
fn digests() -> Vec<(String, u64)> {
    let mut table = Vec::new();
    analysis_digests(&mut table);
    other_analysis_digests(&mut table);
    controller_digests(&mut table);
    table
}

const GOLDEN: &[(&str, u64)] = &[
    ("analyse/u3/1s", 0x7252a17875c5c691),
    ("analyse/u3/2s", 0x8708b8e248b9001d),
    ("analyse/u4/1s", 0xc139d712570a2180),
    ("analyse/u4/2s", 0xaca51e5bccb5755e),
    ("analyse/u5/1s", 0xf32eaa174dca2533),
    ("analyse/u5/2s", 0x7d49d251098cfd90),
    ("analyse/u6/1s", 0x152c179c40e40396),
    ("analyse/u6/2s", 0x14c1156ab313425a),
    ("analyse/u7/1s", 0xe707347e2d015aa8),
    ("analyse/u7/2s", 0x8801dbc36ae891ff),
    ("analyse/u8/1s", 0xe819ce243c1f976d),
    ("analyse/u8/2s", 0x91315317ed97964a),
    ("analyse/u9/1s", 0xaf0426dfc581ecee),
    ("analyse/u9/2s", 0x76cb52bb2c18109c),
    ("analyse/u10/1s", 0x18ef3d1b2c5ec689),
    ("analyse/u10/2s", 0xce3a09479c696d6b),
    ("analyse/u11/1s", 0x4f85fd51395d1063),
    ("analyse/u11/2s", 0x174db1124e6a7189),
    ("analyse/u12/1s", 0x04fbc69dfb9e94b3),
    ("analyse/u12/2s", 0x8d7b4e8305081a00),
    ("analyse_amc", 0xd2aa5049484e98bd),
    ("check_amc_schedulability", 0x2a846ef5497fac40),
    ("check_schedulability", 0x43387a9e6c35d94a),
    ("analyse_static_hi", 0xdea553856120c857),
    ("analyse_tight", 0x3f52b5edb13dba86),
    ("analyse_baseline", 0xc5cd1595651a511b),
    ("busy_window_length", 0xef9b9ef2da0d2cdd),
    ("breakdown_scale", 0xf0386a73aaaa685a),
    ("controller/ops400", 0x37985f15f8cbafab),
    ("controller/ops800", 0x8114188e5b093680),
    ("controller/ops1200", 0x11bcc30b6806e919),
    ("controller/ops1600", 0xf2c933f7aff561e6),
    ("controller/ops2000", 0xf96bf01196cdc9b5),
    ("controller/ops2400", 0xdb2042609bb0b657),
    ("controller/ops2800", 0x60b4876194a74c6a),
    ("controller/ops3200", 0xb3bb728c0a1a1be9),
    ("controller/stats", 0x2064a0c67dbc1cca),
];

#[test]
fn admission_digests_match_the_golden_table() {
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
        "admission digests changed; actual table:\n{rendered}"
    );
}
