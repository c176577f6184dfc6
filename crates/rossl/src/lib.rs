//! Rössl: a fixed-priority, non-preemptive, interrupt-free scheduler.
//!
//! This crate is the Rust counterpart of the paper's C implementation of
//! Rössl (§2.1, Fig. 2). Rössl resembles the ROS2 default executor: jobs
//! arrive as messages on datagram sockets and are scheduled by dispatching
//! the callback registered for their task. The main loop cycles through
//! three phases:
//!
//! 1. **Polling** — `check_sockets_until_empty`: read every socket in
//!    round-robin rounds until one complete round in which every read
//!    fails; each received message becomes a pending job.
//! 2. **Selection** — `npfp_dequeue`: pick the highest-priority pending job
//!    (non-preemptive fixed priority, FIFO among equal priorities).
//! 3. **Execution** — `npfp_dispatch`: run the job's callback to
//!    completion, without preemption; or, if nothing is pending, perform
//!    one bounded idle iteration.
//!
//! # Architecture: the scheduler as a stepped state machine
//!
//! The C scheduler is a blocking loop; its nondeterminism (read outcomes)
//! and its timing live in the environment. To let *one* implementation be
//! driven by the timed simulator (`rossl-timing`), the exhaustive model
//! checker (`rossl-verify`), and unit tests alike, [`Scheduler`] exposes the
//! loop as an explicit state machine: every [`Scheduler::advance`] call
//! emits exactly one [`Marker`](rossl_trace::Marker) (the instrumentation of §2.2/§3.2) and may
//! return a [`Request`] that the driver must fulfil — reading a socket,
//! executing a callback. The marker sequence produced this way is the trace
//! `tr` that all of RefinedProsa's reasoning is about. Every linear drive
//! is one [`Driver`], served by an [`Environment`] under a virtual clock.
//!
//! The environment answers a [`Request::Read`] with the raw message bytes
//! (or `None`); the scheduler assigns the job its unique id and resolves
//! its task via the client's [`MessageCodec`] (`msg_to_task`/
//! `msg_identify_type` from Def. 3.3), mirroring Fig. 6's instrumented read
//! semantics (`σ_trace.idx`).
//!
//! # Examples
//!
//! Driving one job through the scheduler by hand:
//!
//! ```
//! use rossl::{ClientConfig, FirstByteCodec, Request, Response, Scheduler};
//! use rossl_model::*;
//!
//! let tasks = TaskSet::new(vec![Task::new(
//!     TaskId(0), "blink", Priority(1), Duration(10), Curve::sporadic(Duration(100)),
//! )])?;
//! let config = ClientConfig::new(tasks, 1)?;
//! let mut sched = Scheduler::new(config, FirstByteCodec);
//!
//! // Polling: the scheduler asks to read socket 0; we deliver one message.
//! let step = sched.advance(None)?;                      // emits M_ReadS
//! assert_eq!(step.request, Some(Request::Read(SocketId(0))));
//! let step = sched.advance(Some(Response::ReadResult(Some(vec![0]))))?; // M_ReadE
//! let step = sched.advance(None)?;                      // M_ReadS (poll again)
//! let step = sched.advance(Some(Response::ReadResult(None)))?;          // M_ReadE ⊥
//! let step = sched.advance(None)?;                      // M_Selection
//! let step = sched.advance(None)?;                      // M_Dispatch j0
//! let step = sched.advance(None)?;                      // M_Execution j0
//! assert!(matches!(step.request, Some(Request::Execute(_))));
//! let step = sched.advance(Some(Response::Executed))?;  // M_Completion j0
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod admission;
mod codec;
mod config;
mod driver;
mod error;
mod mode;
mod mutation;
mod queue;
mod scheduler;
mod supervisor;
mod watchdog;

pub use admission::AdmissionCache;
pub use codec::{CodecError, FirstByteCodec, MessageCodec};
pub use config::{ClientConfig, ConfigError};
pub use driver::{marker_cost, Driver, Environment, Script, Served, Timed};
pub use error::DriveError;
pub use mode::ModePolicy;
pub use mutation::SeededBug;
pub use queue::NpfpQueue;
pub use scheduler::{Request, Response, Scheduler, Step};
pub use supervisor::{RecoveredState, RecoveryError, RestartPolicy, Supervisor};
pub use watchdog::{DegradedEvent, WatchdogConfig};
