//! Deterministic, coverage-guided **differential fuzzing** for the whole
//! RefinedProsa stack (DESIGN §8).
//!
//! Where `rossl-verify` proves small configurations exhaustively and the
//! test-suite checks hand-picked scenarios, this crate searches the space
//! in between: structured inputs — task sets, arrival schedules, fault
//! plans, crash points — are generated and mutated from a splittable
//! seed, executed against the *real* [`rossl::Scheduler`] loop, and every
//! run is fed to the full oracle matrix at once:
//!
//! | oracle        | disagreement it detects                               |
//! |---------------|-------------------------------------------------------|
//! | `protocol`    | trace rejected by the Fig. 5 automaton                |
//! | `functional`  | Def. 3.2 violated (priority order, idling, job ids)   |
//! | `monitor`     | online [`SpecMonitor`] disagrees with batch checkers  |
//! | `pending`     | scheduler queue disagrees with the trace's ghost set  |
//! | `telemetry`   | `sched.*` counters disagree with an offline recount   |
//! | `journal`     | write-ahead journal round-trip loses or invents data  |
//! | `recovery`    | supervisor state disagrees with an independent replay |
//! | `digest`      | restarted scheduler differs from a recounted rebuild  |
//! | `stitched`    | crash/recovery trace fails seam accounting            |
//! | `consistency` | reads disagree with the arrival sequence (Def. 2.1)   |
//! | `wcet`        | an action overran its Thm. 5.1 budget                 |
//! | `bound`       | a response time exceeded the Prosa bound              |
//! | `drive`       | the scheduler got stuck mid-loop                      |
//! | `fleet-check` | cross-shard checker rejected a fleet run (DESIGN §10) |
//! | `fleet-lost`  | an accepted payload vanished under kills only         |
//! | `fleet-failover` | a shard was fenced with no injected fault          |
//! | `fleet-bound` | a surviving shard broke its per-shard Prosa bound     |
//! | `trace-wellformed` | a fleet run's span trace is malformed (DESIGN §11) |
//!
//! Because all oracles run on every input, the fuzzer flags *differential*
//! findings — two views of the same run disagreeing — even when each view
//! individually looks plausible.
//!
//! The coverage signal ([`CoverageMap`]) is scheduler-state-digest
//! novelty plus marker-bigram and latency-bucket occupancy; inputs that
//! add coverage join a replayable text corpus (`fuzz/corpus/`). Failing
//! inputs are shrunk ([`shrink`]) to minimal reproducers and emitted as
//! self-contained Rust test snippets ([`to_rust_test`]).
//!
//! **Oracle mutation testing** (`fuzz --teeth`, [`run_teeth`]) seeds the
//! scheduler with each known bug from [`rossl::SeededBug`] and asserts
//! the campaign finds every one within budget — the fuzzer's own
//! regression test against silently toothless oracles.
//!
//! Everything is deterministic: same seed ⇒ same campaign, byte for byte.
//!
//! [`SpecMonitor`]: rossl_verify::SpecMonitor

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod corpus;
mod coverage;
mod exec;
mod fuzzer;
mod input;
mod mutate;
mod repro;
mod rng;
mod seeds;
mod shrink;
mod teeth;

pub use corpus::Corpus;
pub use coverage::{channel, Bigrams, BucketRows, CoverageMap, CoverageSample, DigestSlots, DIGEST_SLOTS};
pub use exec::{execute, Finding, RunOutcome};
pub use fuzzer::{run_campaign, CampaignFinding, FuzzConfig, FuzzReport};
pub use input::{
    bounds, ArrivalSpec, FaultEntry, FaultKind, FuzzInput, OverrunSpec, ParseError,
    ShardFaultKind, ShardFaultSpec, TaskSpec,
};
pub use mutate::mutate;
pub use repro::to_rust_test;
pub use rng::SplitRng;
pub use seeds::{generated_corpus_inputs, GENERATED_SEEDS};
pub use shrink::shrink;
pub use teeth::{run_teeth, ToothReport};
