//! Regenerates the paper's experimental artifacts (see DESIGN.md §4 and
//! EXPERIMENTS.md).
//!
//! ```sh
//! cargo run --release -p refined-prosa-bench --bin paper_experiments            # all
//! cargo run --release -p refined-prosa-bench --bin paper_experiments -- thm51 --seeds 50
//! cargo run --release -p refined-prosa-bench --bin paper_experiments -- --list  # index
//! ```

use refined_prosa_bench as exps;
use rossl_model::Instant;

/// The experiment index: `(E-number, CLI name, one-line description)`,
/// in EXPERIMENTS.md order. `--list` prints it.
const INDEX: &[(&str, &str, &str)] = &[
    ("E1", "fig3", "the worked example run (Fig. 3)"),
    ("E2", "fig5", "scheduler-protocol STS, exhaustively checked (Fig. 5 / Def. 3.1)"),
    ("E3", "thm34", "functional correctness of all traces (Thm. 3.4 / Def. 3.2)"),
    ("E4", "validity", "timing consistency and validity constraints (Defs 2.1/2.2, §2.4)"),
    ("E5", "fig7", "release jitter restores policy compliance and work conservation (Fig. 7)"),
    ("E6", "sbf", "supply bound function soundness and shape (§4.4)"),
    ("E7", "thm51", "timing correctness, the headline result (Thm. 5.1)"),
    ("E8", "baseline", "overhead-oblivious RTA is unsound; RefinedProsa is sound (§1.1)"),
    ("E9", "loc", "code inventory vs the paper's proof-effort table (§5)"),
    ("E10", "curves", "arrival vs release curves (§4.3)"),
    ("E11", "ablation", "ablations: per-round overhead bounds, jitter share, SBF monotonization"),
    ("E12", "schedcurves", "acceptance ratio vs utilization"),
    ("E13", "sensitivity", "breakdown WCET scaling via bisection"),
    ("E14", "tight", "tightened per-task analysis: dominance and soundness"),
    ("E15", "busywindows", "measured busy spans vs analytical busy-window length"),
    ("E16", "faults", "fault-injection campaign: detection and soundness matrices"),
    ("E17", "crash", "exhaustive crash-point recovery sweep"),
    ("E18", "verify-bench", "parallel + deduplicated exploration vs the sequential walk"),
    ("E19", "obs", "runtime telemetry: bound margins, alert fidelity, hot-path overhead"),
    ("E20", "fuzz", "differential fuzzing: clean-run soundness, oracle teeth, shrink quality"),
    ("E21", "amc", "mixed criticality: two-sided degradation property + AMC acceptance sweep"),
    ("E22", "fleet", "fleet chaos campaign: failover migration, latency, throughput, teeth"),
    ("E23", "trace", "causal tracing: per-term bound attribution, blame fidelity, overhead"),
    ("E24", "admission", "workload generation + incremental admission, differentially tested"),
];

/// The `--list` rendering of [`INDEX`].
fn index() -> String {
    INDEX
        .iter()
        .map(|(e, name, what)| format!("{e:<5} {name:<14} {what}\n"))
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        print!("{}", index());
        return;
    }
    // The experiment id must come first; a mistyped one must not pass as
    // an empty run.
    let which = args.first().map(String::as_str).unwrap_or("all");
    if which != "all" && !INDEX.iter().any(|(_, name, _)| *name == which) {
        eprint!(
            "unknown experiment `{which}`; expected `all` or one of:\n{}",
            index()
        );
        std::process::exit(2);
    }
    let seeds: u64 = args
        .iter()
        .position(|a| a == "--seeds")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);
    let smoke = args.iter().any(|a| a == "--smoke");
    let horizon: u64 = args
        .iter()
        .position(|a| a == "--horizon")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(100_000);

    let run = |name: &str, title: &str, body: &dyn Fn() -> String| {
        if which == "all" || which == name {
            println!("==================================================================");
            println!("{name}: {title}");
            println!("==================================================================");
            println!("{}", body());
        }
    };

    run("fig3", "the worked example run (Fig. 3)", &exps::exp_fig3);
    run(
        "fig5",
        "scheduler-protocol STS, exhaustively checked (Fig. 5 / Def. 3.1)",
        &exps::exp_fig5,
    );
    run(
        "thm34",
        "functional correctness of all traces (Thm. 3.4 / Def. 3.2)",
        &exps::exp_thm34,
    );
    run(
        "validity",
        "timing consistency and validity constraints (Defs 2.1/2.2, §2.4)",
        &exps::exp_validity,
    );
    run(
        "fig7",
        "release jitter restores policy compliance and work conservation (Fig. 7)",
        &exps::exp_fig7,
    );
    run("sbf", "supply bound function soundness and shape (§4.4)", &exps::exp_sbf);
    run("thm51", "timing correctness, the headline result (Thm. 5.1)", &|| {
        exps::exp_thm51(seeds, Instant(horizon))
    });
    run(
        "baseline",
        "overhead-oblivious RTA is unsound; RefinedProsa is sound (§1.1)",
        &exps::exp_baseline,
    );
    run("curves", "arrival vs release curves (§4.3)", &exps::exp_curves);
    run(
        "ablation",
        "ablations: per-round overhead bounds, jitter share, SBF monotonization (E11)",
        &exps::exp_ablation,
    );
    run("schedcurves", "acceptance ratio vs utilization (E12)", &|| {
        exps::exp_schedulability(40)
    });
    run(
        "sensitivity",
        "breakdown WCET scaling via bisection (E13)",
        &exps::exp_sensitivity,
    );
    run(
        "tight",
        "tightened per-task analysis: dominance and soundness (E14)",
        &|| exps::exp_tight(seeds),
    );
    run(
        "busywindows",
        "measured busy spans vs analytical busy-window length (E15)",
        &|| exps::exp_busy_windows(seeds),
    );
    run(
        "faults",
        "fault-injection campaign: detection and soundness matrices (E16)",
        &|| exps::exp_faults(seeds.min(5), Instant(horizon.min(30_000))),
    );
    run(
        "crash",
        "exhaustive crash-point recovery sweep (E17)",
        &|| exps::exp_crash_recovery(seeds.min(12) as usize + 4),
    );
    run(
        "verify-bench",
        "parallel + deduplicated exploration vs the sequential walk (E18)",
        &|| exps::exp_verify_bench(smoke),
    );
    run(
        "obs",
        "runtime telemetry: bound margins, alert fidelity, hot-path overhead (E19)",
        &|| exps::exp_obs(smoke),
    );
    run(
        "fuzz",
        "differential fuzzing: clean-run soundness, oracle teeth, shrink quality (E20)",
        &|| exps::exp_fuzz(smoke),
    );
    run(
        "amc",
        "mixed criticality: two-sided degradation property + AMC acceptance sweep (E21)",
        &|| exps::exp_amc(smoke),
    );
    run(
        "fleet",
        "fleet chaos campaign: failover migration, latency, throughput, teeth (E22)",
        &|| exps::exp_fleet(smoke),
    );
    run(
        "trace",
        "causal tracing: per-term bound attribution, blame fidelity, overhead (E23)",
        &|| exps::exp_trace(smoke),
    );
    run(
        "admission",
        "workload generation + incremental admission, differentially tested (E24)",
        &|| exps::exp_admission(smoke),
    );
    run("loc","code inventory vs the paper's proof-effort table (§5)", &exps::exp_loc);
}
