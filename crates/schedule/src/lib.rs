//! Processor-state schedules (§2.4 of the paper).
//!
//! The response-time analysis of Prosa works on an abstract *schedule*: a
//! map from time instants to [`ProcessorState`]s. This crate bridges the
//! gap between the timed marker traces of `rossl-timing` and that abstract
//! model:
//!
//! * [`ProcessorState`] — `Idle`, `Executes j`, and the five overhead
//!   states (`ReadOvh`, `PollingOvh`, `SelectionOvh`, `DispatchOvh`,
//!   `CompletionOvh`), each overhead attributed to a job.
//! * [`convert`] — the finite look-ahead parser of §2.4 that turns a timed
//!   trace into a [`Schedule`], attributing failed-read time to the job
//!   that is eventually read (`ReadOvh j`), dispatched (`PollingOvh j`), or
//!   to `Idle`. [`Converter`] is the same parser fed one basic action at a
//!   time.
//! * [`check_validity`] — the validity constraints of §2.4: every discrete
//!   processor-state instance respects its derived duration bound
//!   (Def. 2.2 and friends), jobs execute at most once, and execution time
//!   stays within the task's WCET. [`ValidityCheck`] checks them one
//!   merged segment at a time.
//! * [`Schedule`] window queries — supply, blackout, and the *measured*
//!   minimal supply over sliding windows, which the experiments compare
//!   against the analytical supply bound function `SBF` (§4.4).

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod convert;
mod render;
mod schedule;
mod state;
mod validity;

pub use convert::{convert, ConversionError, Converter};
pub use render::{glyph, render_timeline};
pub use schedule::{Schedule, Segment};
pub use state::{JobRef, ProcessorState, StateKind};
pub use validity::{check_validity, ValidityCheck, ValidityError};
