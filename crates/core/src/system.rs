//! A convenience facade over the whole pipeline.
//!
//! [`SystemBuilder`] assembles a Rössl client configuration (Def. 3.3) in
//! a few lines; [`RosslSystem`] exposes the three things one does with it:
//! compute analytical bounds, simulate runs, and verify runs against the
//! bounds (Thm. 5.1).

use std::fmt;

use prosa::{AnalysisParams, AnalysisResult, RtaError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rossl::{ClientConfig, ConfigError, FirstByteCodec};
use rossl_model::{
    Criticality, Curve, Duration, Instant, ModelError, Priority, Task, TaskId, TaskSet, WcetTable,
};
use rossl::WatchdogConfig;
use rossl_faults::{FaultPlan, FaultyCostModel, FaultySocketSet, InjectionRecord};
use rossl_obs::{BoundObservatory, Registry, SchedSink};
use rossl_sockets::ArrivalSequence;
use rossl_timing::{workload, CostModel, SimulationError, SimulationResult, Simulator, UniformCost};

use crate::verifier::{TimingVerifier, VerificationError, VerificationReport};

/// Failure assembling or driving a [`RosslSystem`].
#[derive(Debug)]
pub enum SystemError {
    /// Invalid task set or WCET table.
    Model(ModelError),
    /// Invalid client configuration.
    Config(ConfigError),
    /// The analysis failed (unschedulable).
    Analysis(RtaError),
    /// Simulation failed.
    Simulation(SimulationError),
    /// Verification of a run failed one of Thm. 5.1's hypotheses.
    Verification(VerificationError),
}

impl fmt::Display for SystemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemError::Model(e) => write!(f, "{e}"),
            SystemError::Config(e) => write!(f, "{e}"),
            SystemError::Analysis(e) => write!(f, "{e}"),
            SystemError::Simulation(e) => write!(f, "{e}"),
            SystemError::Verification(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SystemError {}

impl From<ModelError> for SystemError {
    fn from(e: ModelError) -> SystemError {
        SystemError::Model(e)
    }
}

impl From<ConfigError> for SystemError {
    fn from(e: ConfigError) -> SystemError {
        SystemError::Config(e)
    }
}

impl From<RtaError> for SystemError {
    fn from(e: RtaError) -> SystemError {
        SystemError::Analysis(e)
    }
}

impl From<SimulationError> for SystemError {
    fn from(e: SimulationError) -> SystemError {
        SystemError::Simulation(e)
    }
}

impl From<VerificationError> for SystemError {
    fn from(e: VerificationError) -> SystemError {
        SystemError::Verification(e)
    }
}

/// Builder for a [`RosslSystem`].
///
/// # Examples
///
/// ```
/// use refined_prosa::SystemBuilder;
/// use rossl_model::*;
///
/// let system = SystemBuilder::new()
///     .task("lidar", Priority(5), Duration(80), Curve::sporadic(Duration(5_000)))
///     .sockets(1)
///     .build()?;
/// assert_eq!(system.tasks().len(), 1);
/// # Ok::<(), refined_prosa::SystemError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct SystemBuilder {
    tasks: Vec<Task>,
    n_sockets: usize,
    wcet: Option<WcetTable>,
}

impl SystemBuilder {
    /// An empty builder (one socket, example WCET table by default).
    pub fn new() -> SystemBuilder {
        SystemBuilder::default()
    }

    /// Registers a task; ids are assigned in registration order.
    pub fn task(
        mut self,
        name: impl Into<String>,
        priority: Priority,
        wcet: Duration,
        curve: Curve,
    ) -> SystemBuilder {
        let id = TaskId(self.tasks.len());
        self.tasks.push(Task::new(id, name, priority, wcet, curve));
        self
    }

    /// Registers a mixed-criticality task: like [`SystemBuilder::task`]
    /// but with an explicit criticality level and HI-mode budget.
    /// `wcet` is the LO-mode budget `C_LO`; `wcet_hi` is clamped up to
    /// at least `wcet` (Vestal's monotonicity, `C_LO <= C_HI`).
    pub fn mc_task(
        mut self,
        name: impl Into<String>,
        priority: Priority,
        wcet: Duration,
        curve: Curve,
        criticality: Criticality,
        wcet_hi: Duration,
    ) -> SystemBuilder {
        let id = TaskId(self.tasks.len());
        self.tasks.push(
            Task::new(id, name, priority, wcet, curve)
                .with_criticality(criticality)
                .with_wcet_hi(wcet_hi),
        );
        self
    }

    /// Sets the number of input sockets (default 1).
    pub fn sockets(mut self, n: usize) -> SystemBuilder {
        self.n_sockets = n;
        self
    }

    /// Sets the basic-action WCET table (default
    /// [`WcetTable::example`]).
    pub fn wcet_table(mut self, wcet: WcetTable) -> SystemBuilder {
        self.wcet = Some(wcet);
        self
    }

    /// Validates and builds the system.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::Model`] / [`SystemError::Config`] /
    /// [`SystemError::Analysis`] for invalid parameters.
    pub fn build(self) -> Result<RosslSystem, SystemError> {
        let tasks = TaskSet::new(self.tasks)?;
        let n_sockets = if self.n_sockets == 0 { 1 } else { self.n_sockets };
        let wcet = self.wcet.unwrap_or_default();
        let params = AnalysisParams::new(tasks.clone(), wcet, n_sockets)?;
        let config = ClientConfig::new(tasks, n_sockets)?;
        Ok(RosslSystem { params, config })
    }
}

/// Telemetry attachments for a simulated run: where the scheduler's
/// hot-path counters flush, and the bound-margin observatory fed at
/// every dispatch and completion. The default attaches nothing —
/// [`SchedSink::Noop`] and no observatory — so
/// [`RosslSystem::simulate`] stays cost-free.
#[derive(Debug, Clone, Default)]
pub struct RunTelemetry {
    /// Scheduler hot-path sink (see [`rossl::Scheduler::with_telemetry`]).
    pub sink: SchedSink,
    /// Bound-margin observatory (see [`RosslSystem::observatory`]).
    pub observatory: Option<std::sync::Arc<BoundObservatory>>,
}

impl RunTelemetry {
    /// No instrumentation: equivalent to the plain simulation entry
    /// points.
    pub fn disabled() -> RunTelemetry {
        RunTelemetry::default()
    }

    /// Routes scheduler-loop counters into `sink`.
    pub fn with_sink(mut self, sink: SchedSink) -> RunTelemetry {
        self.sink = sink;
        self
    }

    /// Feeds dispatch waits and response times into `observatory`.
    pub fn with_observatory(
        mut self,
        observatory: std::sync::Arc<BoundObservatory>,
    ) -> RunTelemetry {
        self.observatory = Some(observatory);
        self
    }
}

/// Outcome of a fault-injected simulation
/// ([`RosslSystem::simulate_faulty`]).
#[derive(Debug, Clone)]
pub struct FaultyRun {
    /// The simulated run (trace, completion counts, degradation events).
    pub result: SimulationResult,
    /// The perturbed sequence the environment actually delivered.
    pub delivered: ArrivalSequence,
    /// Every applied injection, socket faults first, then cost faults.
    pub injections: Vec<InjectionRecord>,
}

impl FaultyRun {
    /// The sequence verification should claim for this run: the
    /// delivered one when the fault class is visible to the system's
    /// owner ([`rossl_faults::FaultClass::claims_delivered`]), the nominal one for
    /// silent faults the checkers must expose.
    pub fn claimed<'a>(
        &'a self,
        plan: &FaultPlan,
        nominal: &'a ArrivalSequence,
    ) -> &'a ArrivalSequence {
        let silent = plan.specs.iter().any(|s| !s.class.claims_delivered());
        if silent {
            nominal
        } else {
            &self.delivered
        }
    }
}

/// A fully configured Rössl deployment: task set, sockets and WCETs.
#[derive(Debug, Clone)]
pub struct RosslSystem {
    params: AnalysisParams,
    config: ClientConfig,
}

impl RosslSystem {
    /// The task set.
    pub fn tasks(&self) -> &TaskSet {
        self.params.tasks()
    }

    /// The number of input sockets.
    pub fn n_sockets(&self) -> usize {
        self.params.n_sockets()
    }

    /// The basic-action WCET table.
    pub fn wcet(&self) -> &WcetTable {
        self.params.wcet()
    }

    /// The raw analysis parameters.
    pub fn params(&self) -> &AnalysisParams {
        &self.params
    }

    /// Computes the analytical bounds `R_i + J_i` (§4, Thm. 5.1), with
    /// busy-window search capped at `horizon`.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::Analysis`] when unschedulable.
    pub fn analyse(&self, horizon: Duration) -> Result<AnalysisResult, SystemError> {
        Ok(prosa::analyse(&self.params, horizon)?)
    }

    /// Prepares a [`TimingVerifier`] with the same horizon.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::Analysis`] when unschedulable.
    pub fn verifier(&self, analysis_horizon: Duration) -> Result<TimingVerifier, SystemError> {
        Ok(TimingVerifier::new(self.params.clone(), analysis_horizon)?)
    }

    /// Builds a [`BoundObservatory`] tracking every task of this system
    /// against its analytical bound `R_i + J_i` in `bounds` (the Thm. 5.1
    /// claim stated against arrival — exactly the quantity
    /// [`rossl_timing::JobRecord::response_time`] measures), registering
    /// the per-task `obs.*` metrics in `registry`. `bounds` is this
    /// system's [`RosslSystem::analyse`] result, so one analysis can
    /// back any number of observatories.
    pub fn observatory(
        &self,
        registry: &Registry,
        bounds: &AnalysisResult,
    ) -> std::sync::Arc<BoundObservatory> {
        let mut obs = BoundObservatory::new();
        for task in self.tasks() {
            let bound = bounds
                .bound_for(task.id())
                .map(|b| b.total_bound())
                .unwrap_or(Duration::ZERO);
            obs.track(registry, task.id().0, task.name(), bound.ticks());
        }
        std::sync::Arc::new(obs)
    }

    /// Simulates one run against `arrivals` under the given cost model.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::Simulation`] on workload bugs.
    pub fn simulate(
        &self,
        arrivals: &ArrivalSequence,
        cost: impl CostModel,
        horizon: Instant,
    ) -> Result<SimulationResult, SystemError> {
        self.simulate_with_telemetry(arrivals, cost, horizon, &RunTelemetry::disabled())
    }

    /// [`RosslSystem::simulate`] with telemetry attached: scheduler-loop
    /// counters flush into `telemetry.sink`, and every dispatch wait and
    /// response time feeds `telemetry.observatory`.
    ///
    /// # Errors
    ///
    /// As [`RosslSystem::simulate`].
    pub fn simulate_with_telemetry(
        &self,
        arrivals: &ArrivalSequence,
        cost: impl CostModel,
        horizon: Instant,
        telemetry: &RunTelemetry,
    ) -> Result<SimulationResult, SystemError> {
        let mut sim = Simulator::new(self.config.clone(), FirstByteCodec, *self.wcet(), cost)?
            .with_telemetry(telemetry.sink.clone());
        if let Some(obs) = &telemetry.observatory {
            sim = sim.with_observatory(std::sync::Arc::clone(obs));
        }
        Ok(sim.run(arrivals, horizon)?)
    }

    /// Simulates one run against `arrivals` through the adversarial
    /// environment described by `plan`.
    ///
    /// Socket faults perturb the delivered sequence at load time; cost
    /// faults perturb segment durations at pick time. The simulator runs
    /// *unclamped* so injected overruns actually reach the trace, and
    /// with the watchdog attached when `watchdog` is given, so degraded
    /// mode can be observed via [`SimulationResult::degradation`].
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::Simulation`] on workload bugs or when the
    /// perturbed sequence does not fit the socket set.
    pub fn simulate_faulty(
        &self,
        arrivals: &ArrivalSequence,
        cost: impl CostModel,
        plan: &FaultPlan,
        watchdog: Option<WatchdogConfig>,
        horizon: Instant,
    ) -> Result<FaultyRun, SystemError> {
        self.simulate_faulty_with_telemetry(
            arrivals,
            cost,
            plan,
            watchdog,
            horizon,
            &RunTelemetry::disabled(),
        )
    }

    /// [`RosslSystem::simulate_faulty`] with telemetry attached (see
    /// [`RosslSystem::simulate_with_telemetry`]). This is how E19 shows
    /// the observatory raising a [`rossl_obs::BoundViolation`] on a
    /// seeded WCET-overrun plan: the injected overruns drive observed
    /// response times past the analytical bounds.
    ///
    /// # Errors
    ///
    /// As [`RosslSystem::simulate_faulty`].
    pub fn simulate_faulty_with_telemetry(
        &self,
        arrivals: &ArrivalSequence,
        cost: impl CostModel,
        plan: &FaultPlan,
        watchdog: Option<WatchdogConfig>,
        horizon: Instant,
        telemetry: &RunTelemetry,
    ) -> Result<FaultyRun, SystemError> {
        let sockets = FaultySocketSet::with_arrivals(self.n_sockets(), arrivals, plan)
            .map_err(|e| SystemError::Simulation(SimulationError::Socket(e)))?;
        let delivered = sockets.delivered().clone();
        let mut injections = sockets.injections().to_vec();

        let faulty_cost = FaultyCostModel::new(cost, plan);
        let cost_log = faulty_cost.log_handle();

        let mut sim =
            Simulator::new(self.config.clone(), FirstByteCodec, *self.wcet(), faulty_cost)?
                .unclamped()
                .with_telemetry(telemetry.sink.clone());
        if let Some(obs) = &telemetry.observatory {
            sim = sim.with_observatory(std::sync::Arc::clone(obs));
        }
        if let Some(config) = watchdog {
            sim = sim.with_watchdog(config);
        }
        let result = sim.run_with(sockets, horizon)?;
        injections.extend(cost_log.borrow().iter().copied());

        Ok(FaultyRun {
            result,
            delivered,
            injections,
        })
    }

    /// Generates a seeded sporadic workload that respects the arrival
    /// curves.
    pub fn random_workload(&self, seed: u64, until: Instant) -> ArrivalSequence {
        workload::sporadic_random(
            self.tasks(),
            &FirstByteCodec,
            &workload::round_robin_sockets(self.n_sockets()),
            until,
            &mut StdRng::seed_from_u64(seed),
        )
    }

    /// Generates a fully randomized, curve-repaired workload
    /// ([`workload::randomized`]): irregular clustering up to exactly the
    /// curve limits — shapes the sporadic generator cannot reach.
    pub fn randomized_workload(&self, seed: u64, until: Instant) -> ArrivalSequence {
        workload::randomized(
            self.tasks(),
            &FirstByteCodec,
            &workload::round_robin_sockets(self.n_sockets()),
            until,
            &mut StdRng::seed_from_u64(seed),
        )
    }

    /// End-to-end: generate a seeded workload, simulate it with seeded
    /// random costs up to `horizon`, and verify the run against the
    /// analytical bounds (Thm. 5.1).
    ///
    /// # Errors
    ///
    /// Returns [`SystemError`] if the system is unschedulable or a
    /// theorem hypothesis fails (neither happens for well-formed
    /// configurations — both would indicate a bug worth surfacing).
    pub fn run_verified(
        &self,
        seed: u64,
        horizon: Instant,
    ) -> Result<VerificationReport, SystemError> {
        let arrivals = self.random_workload(seed, horizon);
        let run = self.simulate(
            &arrivals,
            UniformCost::new(StdRng::seed_from_u64(seed.wrapping_add(0x5eed))),
            horizon,
        )?;
        let analysis_horizon = Duration(horizon.ticks().max(100_000).saturating_mul(4));
        let verifier = self.verifier(analysis_horizon)?;
        Ok(verifier.verify(&arrivals, &run)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> RosslSystem {
        SystemBuilder::new()
            .task(
                "low",
                Priority(1),
                Duration(25),
                Curve::sporadic(Duration(2_000)),
            )
            .task(
                "high",
                Priority(7),
                Duration(10),
                Curve::sporadic(Duration(1_000)),
            )
            .sockets(2)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_assigns_dense_ids() {
        let s = demo();
        assert_eq!(s.tasks().task(TaskId(0)).unwrap().name(), "low");
        assert_eq!(s.tasks().task(TaskId(1)).unwrap().name(), "high");
        assert_eq!(s.n_sockets(), 2);
    }

    #[test]
    fn default_socket_count_is_one() {
        let s = SystemBuilder::new()
            .task("t", Priority(1), Duration(5), Curve::sporadic(Duration(100)))
            .build()
            .unwrap();
        assert_eq!(s.n_sockets(), 1);
    }

    #[test]
    fn empty_task_set_rejected() {
        assert!(matches!(
            SystemBuilder::new().build(),
            Err(SystemError::Model(ModelError::EmptyTaskSet))
        ));
    }

    #[test]
    fn run_verified_round_trips() {
        let report = demo().run_verified(7, Instant(20_000)).unwrap();
        assert_eq!(report.bound_violations, 0);
        assert!(report.jobs_completed > 0);
    }

    #[test]
    fn observatory_tracks_every_task_at_its_analytical_bound() {
        let s = demo();
        let registry = Registry::new();
        let bounds = s.analyse(Duration(400_000)).unwrap();
        let obs = s.observatory(&registry, &bounds);
        assert_eq!(obs.tracked_tasks().len(), s.tasks().len());
        for task in s.tasks() {
            let expected = bounds.bound_for(task.id()).unwrap().total_bound().ticks();
            assert_eq!(obs.bound(task.id().0), Some(expected), "{}", task.name());
        }
        // The bound gauges are visible under the task names.
        let snap = registry.snapshot();
        assert!(snap.gauge("obs.bound.low").is_some());
        assert!(snap.gauge("obs.bound.high").is_some());
    }

    #[test]
    fn telemetry_run_observes_without_changing_the_result() {
        use rossl_obs::{Registry, SchedulerMetrics};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use rossl_timing::UniformCost;

        let s = demo();
        let horizon = Instant(20_000);
        let arrivals = s.random_workload(3, horizon);
        let cost = || UniformCost::new(StdRng::seed_from_u64(99));
        let plain = s.simulate(&arrivals, cost(), horizon).unwrap();

        let registry = Registry::new();
        let obs = s.observatory(&registry, &s.analyse(Duration(400_000)).unwrap());
        let telemetry = RunTelemetry::disabled()
            .with_sink(SchedSink::Metrics(SchedulerMetrics::register(&registry)))
            .with_observatory(std::sync::Arc::clone(&obs));
        let observed = s
            .simulate_with_telemetry(&arrivals, cost(), horizon, &telemetry)
            .unwrap();

        // Observation is free of side effects on the run itself.
        assert_eq!(observed.trace.markers(), plain.trace.markers());
        assert_eq!(observed.jobs, plain.jobs);
        // In-model runs never violate their bounds, but the margins are
        // live: every completed task has a populated response histogram.
        assert_eq!(obs.violation_count(), 0);
        let snap = registry.snapshot();
        assert_eq!(
            snap.histogram("obs.response.low").map(|h| h.count).unwrap_or(0)
                + snap.histogram("obs.response.high").map(|h| h.count).unwrap_or(0),
            plain.completed_count() as u64
        );
        assert!(snap.counter("sched.steps").unwrap() > 0);
    }

    #[test]
    fn analyse_produces_meaningful_bounds() {
        let s = demo();
        let bounds = s.analyse(Duration(400_000)).unwrap();
        for task in s.tasks() {
            let b = bounds.bound_for(task.id()).unwrap();
            // A bound can never undercut the task's own WCET, and the
            // jitter offset is strictly positive for a real WCET table.
            assert!(b.total_bound() >= task.wcet());
            assert!(b.jitter > Duration::ZERO);
        }
        // Non-preemptive blocking: the high-priority task still waits for
        // the low-priority WCET, so its bound exceeds C_high + B.
        let high = bounds.bound_for(TaskId(1)).unwrap().total_bound();
        assert!(high >= Duration(10 + 25));
    }
}
