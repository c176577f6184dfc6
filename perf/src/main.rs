//! `perf`: the seeded, layered benchmark over the verify, admission,
//! explore and fuzz paths. See `README.md` beside this package.
//!
//! ```text
//! perf --workload <name|all> --seed N --seconds S --trace 0|1 [--trace-out PATH]
//! ```
//!
//! An untraced run prints the end-to-end metrics; a traced run prints the
//! per-layer metrics and writes its spans as Chrome trace-event JSON. The
//! last line of standard output is always one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The exit code is
//! non-zero when any output check failed.

mod admission;
mod alloc;
mod explore;
mod fuzz;
mod harness;
mod metrics;
mod spans;
mod verify;

use std::process::ExitCode;
use std::time::Instant;

use harness::{measure, proc_status_kib, Between, Budget, Checks, Scale, Workload};
use metrics::{json_str, percentile, Report, Tag};
use spans::Tracer;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Share of `--seconds` a traced run spends on its own workload's ops
/// (the rest goes to set-up and the other families' slices).
const OWN_SHARE: f64 = 0.6;

/// Layer families: each emits one fixed set of per-layer metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    Verify,
    Admission,
    Explore,
    Fuzz,
}

const FAMILIES: [Family; 4] = [
    Family::Verify,
    Family::Admission,
    Family::Explore,
    Family::Fuzz,
];

/// The workloads and their families, in `all` order. A traced run of
/// another family runs a slice of the family's first workload here.
const WORKLOADS: [(&str, Family); 5] = [
    ("verify-dense", Family::Verify),
    ("verify-sparse", Family::Verify),
    ("admission-churn", Family::Admission),
    ("explore", Family::Explore),
    ("fuzz", Family::Fuzz),
];

fn family(workload: &str) -> Option<Family> {
    WORKLOADS
        .iter()
        .find(|(name, _)| *name == workload)
        .map(|&(_, fam)| fam)
}

/// Builds `workload` from `seed`, including its warm-up.
fn setup(workload: &str, seed: u64, scale: &Scale) -> Box<dyn Workload> {
    match workload {
        "verify-sparse" => Box::new(verify::Verify::sparse(seed, scale)),
        "verify-dense" => Box::new(verify::Verify::dense(seed, scale)),
        "admission-churn" => Box::new(admission::Admission::new(seed, scale)),
        "explore" => Box::new(explore::Explore::new(seed, scale)),
        "fuzz" => Box::new(fuzz::Fuzz::new(seed, scale)),
        other => unreachable!("workload names are validated first: {other}"),
    }
}

/// Everything one run produced.
struct Outcome {
    report: Report,
    checks: Checks,
    tracer: Tracer,
    /// The measured workload's input-and-verdict digest.
    digest: u64,
}

/// Sets `workload` up, untimed, repeatedly for `Scale::warm_s` (at least
/// once) and returns the last instance: an idle vCPU of a shared host
/// takes over a second to reach full speed.
fn warm_setup(workload: &str, seed: u64, scale: &Scale) -> Box<dyn Workload> {
    let started = Instant::now();
    let mut w = setup(workload, seed, scale);
    while started.elapsed().as_secs_f64() < scale.warm_s {
        drop(w);
        w = setup(workload, seed, scale);
    }
    w
}

/// An untraced run: warm up, measure for `seconds` with timed set-ups
/// spread between the ops, check the outputs, and report the end-to-end
/// metrics.
fn run_untraced(workload: &str, seed: u64, seconds: f64, scale: &Scale) -> Outcome {
    let mut w = warm_setup(workload, seed, scale);
    let mut tracer = Tracer::new(false);
    let mut checks = Checks::default();
    let mut resetup = || drop(setup(workload, seed, scale));
    let mut m = measure(
        w.as_mut(),
        Budget::Seconds(seconds),
        &mut tracer,
        &mut checks,
        Between::TimedSetups(&mut resetup),
    );
    w.after(&mut checks);

    m.setups.sort_by(f64::total_cmp);
    let setup_s = percentile(&m.setups, 50.0).unwrap_or(0.0);
    let mut report = Report::default();
    report.e2e("setup_s", "s", setup_s, m.setups.len() as u64);
    report.e2e(
        "peak_rss_mib",
        "MiB",
        proc_status_kib("VmHWM:") as f64 / 1024.0,
        1,
    );
    report.e2e("work_per_s", "1/s", m.work_per_s(), m.total_work());
    report.e2e("op_p50_ms", "ms", m.lat.pct(50.0, 1e-6), m.ops() as u64);
    Outcome {
        report,
        checks,
        tracer,
        digest: w.digest(),
    }
}

/// A traced run: the workload's own ops for `OWN_SHARE` of `seconds`,
/// alternately untraced and traced, then a small traced slice of every
/// other layer family, so that every per-layer metric has a value.
fn run_traced(workload: &str, seed: u64, seconds: f64, scale: &Scale) -> Outcome {
    let mut tracer = Tracer::new(true);
    let mut checks = Checks::default();
    let mut report = Report::default();
    let own = family(workload).expect("validated workload");
    let (mut overhead, mut ops, mut digest) = (0.0, 0, 0);
    for fam in FAMILIES {
        let pass = tracer.open("pass", None, u64::MAX);
        let mut w = if fam == own {
            let mut w = warm_setup(workload, seed, scale);
            let m = measure(
                w.as_mut(),
                Budget::Seconds(seconds * OWN_SHARE),
                &mut tracer,
                &mut checks,
                Between::AlternateTracing,
            );
            (overhead, ops, digest) = (m.trace_overhead(), m.ops(), w.digest());
            w
        } else {
            let (name, _) = WORKLOADS
                .iter()
                .find(|w| w.1 == fam)
                .expect("every family has a workload");
            let mut w = setup(name, seed, scale);
            measure(
                w.as_mut(),
                Budget::Ops(scale.side_ops[fam as usize]),
                &mut tracer,
                &mut checks,
                Between::Nothing,
            );
            w
        };
        w.after(&mut checks);
        tracer.close(pass);
        w.layers(&mut tracer, &mut checks, &mut report);
    }
    report.layer("trace_overhead", "ratio", overhead, ops as u64);
    Outcome {
        report,
        checks,
        tracer,
        digest,
    }
}

/// Host facts recorded with every result.
fn host_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"nproc\": {nproc}, \"rustc\": {}, \"profile\": \"{profile}\", \"git_sha\": {}}}",
        json_str(&rustc),
        json_str(&git_sha())
    )
}

/// The checked-out commit, read from `.git` in the working directory
/// (`unknown` outside a git checkout).
fn git_sha() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(reference) => {
                read(&format!(".git/{reference}")).unwrap_or_else(|| "unknown".into())
            }
            None => head,
        },
        None => "unknown".into(),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--trace-out" => args.trace_out = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && family(&args.workload).is_none() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        return Err(format!(
            "--workload must be one of {} or all",
            names.join(", ")
        ));
    }
    Ok(args)
}

/// `--workload all`: every workload in its own child process (so that
/// `peak_rss_mib` is per workload), one after another.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perf: cannot locate own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for (workload, _) in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", workload, "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perf: {e}");
            eprintln!("usage: perf --workload <name|all> --seed N --seconds S --trace 0|1 [--trace-out PATH]");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    alloc::pin_thresholds();

    let scale = Scale::FULL;
    let mut out = if args.trace {
        run_traced(&args.workload, args.seed, args.seconds, &scale)
    } else {
        run_untraced(&args.workload, args.seed, args.seconds, &scale)
    };

    if args.trace {
        let path = args
            .trace_out
            .clone()
            .unwrap_or_else(|| format!("perf/out/{}-{}.trace.json", args.workload, args.seed));
        if let Some(dir) = std::path::Path::new(&path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        match std::fs::write(&path, out.tracer.chrome_json()) {
            Ok(()) => eprintln!("perf: wrote {} spans to {path}", out.tracer.spans().len()),
            Err(e) => eprintln!("perf: could not write {path}: {e}"),
        }
        println!("span summary (name, count, total ms, self ms):");
        for (name, count, total, self_ns) in out.tracer.summary() {
            println!(
                "  {name:<24} {count:>8} {:>12.3} {:>12.3}",
                total as f64 / 1e6,
                self_ns as f64 / 1e6
            );
        }
    }
    let bad: Vec<&str> = out
        .report
        .metrics
        .iter()
        .map(|m| m.name.as_str())
        .filter(|n| !metrics::valid_name(n))
        .collect();
    out.checks
        .check(bad.is_empty(), || format!("invalid metric names: {bad:?}"));
    for note in &out.checks.notes {
        eprintln!("perf: check failed: {note}");
    }

    let c = &out.checks;
    println!(
        "{} seed {} ({}):",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" }
    );
    print!("{}", out.report.table());
    println!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"traced\": {}, \"host\": {}, \"attempted\": {}, \
         \"failed\": {}, \"fail_ratio\": {}, \"digest\": \"{:016x}\", \"metrics\": {}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        host_json(),
        c.attempted,
        c.failed,
        c.failed as f64 / c.attempted.max(1) as f64,
        out.digest,
        out.report.json_array()
    );
    let tag = if args.trace { Tag::Layer } else { Tag::E2e };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        c.failed == 0,
        c.attempted.max(1),
        c.failed,
        out.report.json_object(tag)
    );
    if c.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(workload: &str, seed: u64, ops: usize) -> (u64, u64, u64) {
        let mut w = setup(workload, seed, &Scale::TEST);
        let mut tr = Tracer::new(false);
        let mut checks = Checks::default();
        let m = measure(
            w.as_mut(),
            Budget::Ops(ops),
            &mut tr,
            &mut checks,
            Between::Nothing,
        );
        w.after(&mut checks);
        assert_eq!(checks.failed, 0, "{workload}: {:?}", checks.notes);
        (m.total_work(), checks.attempted, w.digest())
    }

    #[test]
    fn same_seed_same_work_and_digests_other_seed_other_inputs() {
        for (workload, _) in WORKLOADS {
            let ops = if workload == "admission-churn" {
                200
            } else {
                2
            };
            let a = small(workload, 1, ops);
            assert_eq!(
                a,
                small(workload, 1, ops),
                "{workload} is not deterministic"
            );
            assert_ne!(
                a.2,
                small(workload, 2, ops).2,
                "{workload}: seeds 1 and 2 gave the same inputs"
            );
            assert!(a.0 > 0, "{workload} did no work");
        }
    }

    fn traced_names(workload: &str) -> Vec<String> {
        let out = run_traced(workload, 5, 0.05, &Scale::TEST);
        assert_eq!(out.checks.failed, 0, "{workload}: {:?}", out.checks.notes);
        out.report.metrics.iter().map(|m| m.name.clone()).collect()
    }

    /// The `"name"` values of one section of `BENCHMARK.json`.
    fn benchmark_names(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("quoted")].to_string())
            .collect()
    }

    #[test]
    fn every_traced_run_emits_the_declared_layer_metrics() {
        let declared = benchmark_names("per_layer");
        for (workload, _) in WORKLOADS {
            let names = traced_names(workload);
            assert_eq!(names, declared, "{workload}");
            assert!(names.iter().all(|n| metrics::valid_name(n)), "{names:?}");
        }
    }

    #[test]
    fn untraced_runs_emit_the_declared_end_to_end_metrics() {
        let declared = benchmark_names("end_to_end");
        let out = run_untraced("admission-churn", 3, 0.05, &Scale::TEST);
        let names: Vec<String> = out.report.metrics.iter().map(|m| m.name.clone()).collect();
        assert_eq!(names, declared);
        assert!(names.iter().all(|n| metrics::valid_name(n)));
        assert!(
            out.report.metrics.iter().all(|m| m.value > 0.0),
            "{:?}",
            out.report.metrics
        );
    }
}
