//! Fault-injection campaign runner (experiment E16).
//!
//! Sweeps the fault matrix (class × seed at a fixed rate) through
//! [`RosslSystem::simulate_faulty`] and checks the two-sided robustness
//! property of the checker suite:
//!
//! * **Detection matrix** — every *out-of-model* fault class with at
//!   least one applied injection is flagged by ≥ 1 named checker, and
//!   only by checkers the taxonomy expects
//!   ([`FaultClass::expected_detectors`]).
//! * **Soundness matrix** — every *in-model* perturbation verifies
//!   cleanly: no hypothesis failure and zero bound violations
//!   (Thm. 5.1 still holds in the perturbed environment).

use std::collections::BTreeSet;
use std::fmt;

use prosa::{RtaError, SolverError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rossl::WatchdogConfig;
use rossl_faults::{FaultClass, FaultPlan};
use rossl_model::{Duration, Instant};
use rossl_timing::UniformCost;

use crate::system::{RosslSystem, SystemError};

/// Seed salt separating campaign cost draws from workload generation.
const CAMPAIGN_COST_SALT: u64 = 0xfa01_7ca3;

/// Parameters of one fault campaign.
#[derive(Debug, Clone)]
pub struct FaultCampaignConfig {
    /// One run per (class, seed) pair; the seed drives both the workload
    /// and the plan.
    pub seeds: Vec<u64>,
    /// Injection rate for every spec, in permille.
    pub rate_permille: u16,
    /// Simulated-time horizon per run.
    pub horizon: Instant,
    /// Busy-window search horizon for the analytical bounds.
    pub analysis_horizon: Duration,
    /// The fault matrix to sweep.
    pub classes: Vec<FaultClass>,
    /// Optional execution-budget watchdog for every run; its
    /// [`DegradedEvent`](rossl::DegradedEvent)s are counted per run and
    /// summarized in the report. `None` (the default) preserves the
    /// plain E16 campaign.
    pub watchdog: Option<WatchdogConfig>,
}

impl FaultCampaignConfig {
    /// The default campaign: three seeds, 400‰ injection rate, the full
    /// ten-class matrix.
    pub fn new(horizon: Instant) -> FaultCampaignConfig {
        FaultCampaignConfig {
            seeds: vec![11, 23, 47],
            rate_permille: 400,
            horizon,
            analysis_horizon: Duration(horizon.ticks().max(100_000).saturating_mul(4)),
            classes: FaultCampaignConfig::full_matrix(),
            watchdog: None,
        }
    }

    /// All ten fault classes with representative parameters: eight
    /// out-of-model, two in-model.
    pub fn full_matrix() -> Vec<FaultClass> {
        vec![
            FaultClass::Drop,
            FaultClass::Duplicate,
            FaultClass::Reroute,
            FaultClass::Burst { factor: 3 },
            FaultClass::DelayedVisibility {
                delay: Duration(400),
            },
            FaultClass::WcetOverrun { factor: 4 },
            FaultClass::ClockJitter {
                extra: Duration(60),
            },
            FaultClass::StalledIdle { factor: 4 },
            FaultClass::UniformDelay {
                shift: Duration(250),
            },
            FaultClass::ExecutionSlack { divisor: 2 },
        ]
    }
}

/// One (class, seed) cell of the campaign.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The workload/plan seed.
    pub seed: u64,
    /// Number of injections actually applied in this run.
    pub injections: usize,
    /// The named checker that flagged the run, `None` when every
    /// hypothesis passed.
    pub detected_by: Option<&'static str>,
    /// Conclusion violations (missed response-time bounds) when the
    /// hypotheses passed.
    pub bound_violations: usize,
    /// Watchdog degradation events observed during the run (WCET
    /// overruns detected, jobs shed). Always 0 without a watchdog.
    pub degraded_events: usize,
}

/// All runs of one fault class.
#[derive(Debug, Clone)]
pub struct ClassOutcome {
    /// The swept class.
    pub class: FaultClass,
    /// One outcome per seed.
    pub runs: Vec<RunOutcome>,
}

impl ClassOutcome {
    /// Runs in which at least one injection was applied.
    pub fn injected_runs(&self) -> usize {
        self.runs.iter().filter(|r| r.injections > 0).count()
    }

    /// Runs flagged by a named checker.
    pub fn detected_runs(&self) -> usize {
        self.runs.iter().filter(|r| r.detected_by.is_some()).count()
    }

    /// The distinct named checkers that flagged runs of this class.
    pub fn detectors(&self) -> BTreeSet<&'static str> {
        self.runs.iter().filter_map(|r| r.detected_by).collect()
    }

    /// Total conclusion violations across the class's runs.
    pub fn bound_violations(&self) -> usize {
        self.runs.iter().map(|r| r.bound_violations).sum()
    }

    /// Total watchdog degradation events across the class's runs.
    pub fn degraded_events(&self) -> usize {
        self.runs.iter().map(|r| r.degraded_events).sum()
    }

    /// The class's side of the two-sided property.
    ///
    /// Out-of-model: the matrix exercised the class (≥ 1 injection),
    /// every injected run was flagged, and only expected checkers fired.
    /// In-model: every run verified with zero bound violations.
    pub fn holds(&self) -> bool {
        if self.class.in_model() {
            self.runs
                .iter()
                .all(|r| r.detected_by.is_none() && r.bound_violations == 0)
        } else {
            let expected = self.class.expected_detectors();
            self.injected_runs() > 0
                && self
                    .runs
                    .iter()
                    .filter(|r| r.injections > 0)
                    .all(|r| r.detected_by.is_some())
                && self.detectors().iter().all(|d| expected.contains(d))
        }
    }
}

/// The full campaign result: detection matrix + soundness matrix.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// One row per fault class.
    pub per_class: Vec<ClassOutcome>,
    /// Rendered solver `Divergent` error when the analytical bounds
    /// could not be computed at all — surfaced in the report instead of
    /// aborting the campaign with an opaque infrastructure error. The
    /// matrices are empty in that case.
    pub solver_divergence: Option<String>,
}

impl CampaignOutcome {
    /// `true` when the two-sided property holds for every class and the
    /// analysis itself converged.
    pub fn holds(&self) -> bool {
        self.solver_divergence.is_none() && self.per_class.iter().all(ClassOutcome::holds)
    }

    /// Total watchdog degradation events across the whole campaign.
    pub fn degraded_events(&self) -> usize {
        self.per_class.iter().map(ClassOutcome::degraded_events).sum()
    }

    /// The classes whose side of the property failed.
    pub fn failures(&self) -> Vec<&ClassOutcome> {
        self.per_class.iter().filter(|c| !c.holds()).collect()
    }

    /// The out-of-model rows.
    pub fn detection_rows(&self) -> impl Iterator<Item = &ClassOutcome> {
        self.per_class.iter().filter(|c| !c.class.in_model())
    }

    /// The in-model rows.
    pub fn soundness_rows(&self) -> impl Iterator<Item = &ClassOutcome> {
        self.per_class.iter().filter(|c| c.class.in_model())
    }
}

impl fmt::Display for CampaignOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(divergence) = &self.solver_divergence {
            writeln!(f, "ANALYSIS FAILED — solver divergence: {divergence}")?;
            writeln!(f, "(no detection or soundness matrices were produced)")?;
            return Ok(());
        }
        writeln!(f, "Detection matrix (out-of-model faults):")?;
        writeln!(
            f,
            "  {:<20} {:<36} {:>4} {:>4}  {:<24} verdict",
            "class", "violated assumption", "inj", "det", "detected by"
        )?;
        for row in self.detection_rows() {
            let detectors: Vec<&str> = row.detectors().into_iter().collect();
            writeln!(
                f,
                "  {:<20} {:<36} {:>4} {:>4}  {:<24} {}",
                row.class.name(),
                row.class.violated_assumption(),
                row.injected_runs(),
                row.detected_runs(),
                if detectors.is_empty() {
                    "-".to_string()
                } else {
                    detectors.join(", ")
                },
                if row.holds() { "DETECTED" } else { "MISSED" },
            )?;
        }
        writeln!(f, "Soundness matrix (in-model perturbations):")?;
        writeln!(
            f,
            "  {:<20} {:>4} {:>10} {:>16}  verdict",
            "class", "runs", "hyp fails", "bound violations"
        )?;
        for row in self.soundness_rows() {
            writeln!(
                f,
                "  {:<20} {:>4} {:>10} {:>16}  {}",
                row.class.name(),
                row.runs.len(),
                row.detected_runs(),
                row.bound_violations(),
                if row.holds() { "SOUND" } else { "UNSOUND" },
            )?;
        }
        writeln!(
            f,
            "Degradation summary: {} watchdog event(s) across all runs",
            self.degraded_events()
        )?;
        for row in self.per_class.iter().filter(|c| c.degraded_events() > 0) {
            writeln!(
                f,
                "  {:<20} {} degraded event(s)",
                row.class.name(),
                row.degraded_events()
            )?;
        }
        Ok(())
    }
}

/// Runs the campaign: for every (class, seed) cell, generate the
/// nominal workload, perturb it through a single-spec [`FaultPlan`],
/// simulate unclamped, and verify the appropriate claimed sequence
/// against the analytical bounds.
///
/// # Errors
///
/// Returns [`SystemError`] only for infrastructure failures
/// (unschedulable system, simulator bugs) — a *detected fault* is data,
/// not an error.
pub fn run_fault_campaign(
    system: &RosslSystem,
    config: &FaultCampaignConfig,
) -> Result<CampaignOutcome, SystemError> {
    let verifier = match system.verifier(config.analysis_horizon) {
        Ok(v) => v,
        // A diverging fixed-point iteration is a reportable campaign
        // outcome (degenerate analysis input), not an opaque abort.
        Err(SystemError::Analysis(RtaError::Solver(e @ SolverError::Divergent { .. }))) => {
            return Ok(CampaignOutcome {
                per_class: Vec::new(),
                solver_divergence: Some(e.to_string()),
            });
        }
        Err(e) => return Err(e),
    };
    let mut per_class = Vec::with_capacity(config.classes.len());

    for &class in &config.classes {
        let mut runs = Vec::with_capacity(config.seeds.len());
        for &seed in &config.seeds {
            let nominal = system.random_workload(seed, config.horizon);
            let plan = FaultPlan::single(seed, class, config.rate_permille);
            let run = system.simulate_faulty(
                &nominal,
                UniformCost::new(StdRng::seed_from_u64(seed ^ CAMPAIGN_COST_SALT)),
                &plan,
                config.watchdog,
                config.horizon,
            )?;
            let claimed = run.claimed(&plan, &nominal);
            let (detected_by, bound_violations) = match verifier.verify(claimed, &run.result) {
                Ok(report) => (None, report.bound_violations),
                Err(e) => (Some(e.checker_name()), 0),
            };
            runs.push(RunOutcome {
                seed,
                injections: run.injections.len(),
                detected_by,
                bound_violations,
                degraded_events: run.result.degradation.len(),
            });
        }
        per_class.push(ClassOutcome { class, runs });
    }

    Ok(CampaignOutcome {
        per_class,
        solver_divergence: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemBuilder;
    use rossl_model::{Curve, Priority};

    fn system() -> RosslSystem {
        SystemBuilder::new()
            .task(
                "ctrl",
                Priority(9),
                Duration(20),
                Curve::sporadic(Duration(1_000)),
            )
            .task(
                "telemetry",
                Priority(2),
                Duration(40),
                Curve::sporadic(Duration(2_500)),
            )
            .sockets(2)
            .build()
            .unwrap()
    }

    #[test]
    fn two_sided_property_holds_on_default_matrix() {
        let outcome = run_fault_campaign(
            &system(),
            &FaultCampaignConfig::new(Instant(20_000)),
        )
        .unwrap();
        assert!(
            outcome.holds(),
            "campaign property failed:\n{outcome}"
        );
        assert_eq!(outcome.detection_rows().count(), 8);
        assert_eq!(outcome.soundness_rows().count(), 2);
    }

    #[test]
    fn watchdogged_campaign_surfaces_degraded_events() {
        // A watchdog plus the WCET-overrun class: overruns are detected
        // as degradation events and must show up in the report summary.
        let outcome = run_fault_campaign(
            &system(),
            &FaultCampaignConfig {
                seeds: vec![11, 23],
                classes: vec![FaultClass::WcetOverrun { factor: 4 }],
                watchdog: Some(WatchdogConfig::new(4)),
                ..FaultCampaignConfig::new(Instant(20_000))
            },
        )
        .unwrap();
        assert!(
            outcome.degraded_events() > 0,
            "a watchdogged overrun campaign must degrade:\n{outcome}"
        );
        let rendered = outcome.to_string();
        assert!(rendered.contains("Degradation summary"), "{rendered}");
        assert!(rendered.contains("degraded event(s)"), "{rendered}");
    }

    #[test]
    fn every_run_keeps_its_seed_and_verdict_per_class() {
        let classes = vec![
            FaultClass::WcetOverrun { factor: 4 },
            FaultClass::ExecutionSlack { divisor: 2 },
        ];
        let outcome = run_fault_campaign(
            &system(),
            &FaultCampaignConfig {
                seeds: vec![11, 23],
                classes: classes.clone(),
                ..FaultCampaignConfig::new(Instant(20_000))
            },
        )
        .unwrap();
        assert!(outcome.holds(), "{outcome}");
        let rows: Vec<FaultClass> = outcome.per_class.iter().map(|c| c.class).collect();
        assert_eq!(rows, classes, "one row per class, in configured order");
        for row in &outcome.per_class {
            let seeds: Vec<u64> = row.runs.iter().map(|r| r.seed).collect();
            assert_eq!(seeds, vec![11, 23], "{}", row.class);
        }
        // The out-of-model class is injected and detected on every run,
        // the in-model one is never flagged and never misses a bound.
        let overrun = &outcome.per_class[0];
        assert_eq!(overrun.injected_runs(), 2);
        assert_eq!(overrun.detected_runs(), 2);
        let slack = &outcome.per_class[1];
        assert_eq!(slack.detected_runs(), 0);
        assert_eq!(slack.bound_violations(), 0);
    }

    fn run(
        injections: usize,
        detected_by: Option<&'static str>,
        bound_violations: usize,
    ) -> RunOutcome {
        RunOutcome {
            seed: 1,
            injections,
            detected_by,
            bound_violations,
            degraded_events: 0,
        }
    }

    #[test]
    fn out_of_model_row_needs_an_injection_and_only_expected_detectors() {
        let row = |runs| ClassOutcome { class: FaultClass::WcetOverrun { factor: 4 }, runs };
        assert!(row(vec![run(2, Some("wcet"), 0), run(0, None, 0)]).holds());
        // Never injected: the matrix did not exercise the class.
        assert!(!row(vec![run(0, None, 0)]).holds());
        // An injected run that escaped every checker.
        assert!(!row(vec![run(2, Some("wcet"), 0), run(1, None, 3)]).holds());
        // Flagged, but by a checker this class cannot trip.
        assert!(!row(vec![run(2, Some("consistency"), 0)]).holds());
    }

    #[test]
    fn in_model_row_fails_on_any_detection_or_missed_bound() {
        let row = |runs| ClassOutcome { class: FaultClass::ExecutionSlack { divisor: 2 }, runs };
        assert!(row(vec![run(3, None, 0), run(0, None, 0)]).holds());
        assert!(!row(vec![run(3, Some("wcet"), 0)]).holds());
        assert!(!row(vec![run(3, None, 1)]).holds());
        let outcome = CampaignOutcome {
            per_class: vec![row(vec![run(3, None, 1)])],
            solver_divergence: None,
        };
        assert!(!outcome.holds());
        assert_eq!(outcome.failures().len(), 1);
    }

    #[test]
    fn solver_divergence_is_a_reported_outcome_not_an_abort() {
        let diverged = CampaignOutcome {
            per_class: Vec::new(),
            solver_divergence: Some("fixed-point iteration for τ0 diverged".into()),
        };
        assert!(!diverged.holds());
        let rendered = diverged.to_string();
        assert!(rendered.contains("solver divergence"), "{rendered}");
        assert!(rendered.contains("diverged"), "{rendered}");
    }

    #[test]
    fn matrix_render_names_every_class() {
        let outcome = run_fault_campaign(
            &system(),
            &FaultCampaignConfig {
                seeds: vec![5],
                ..FaultCampaignConfig::new(Instant(8_000))
            },
        )
        .unwrap();
        let rendered = outcome.to_string();
        for class in FaultCampaignConfig::full_matrix() {
            assert!(rendered.contains(class.name()), "{class} missing:\n{rendered}");
        }
    }
}
