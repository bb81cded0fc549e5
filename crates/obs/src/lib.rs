//! # robustmap-obs
//!
//! Charge-free observability for the robustmap workspace.
//!
//! Everything in this crate observes execution without participating in
//! it: attaching a tracer, bumping a counter or raising the log level
//! must never change a single simulated charge.  The differential
//! equivalence suites (`exec_ledger`, `batch_equivalence`,
//! `adaptive_equivalence`, `concurrent_equivalence`, ...) run every case
//! once more on sessions traced at full detail to prove it.
//!
//! Three facilities:
//!
//! * [`trace`] — a [`trace::TraceSink`] recording
//!   [`trace::TraceEvent`]s stamped on **two clocks** (simulated ticks and
//!   real nanoseconds), with Chrome trace-event export via [`chrome`];
//! * [`metrics`] — a deterministic [`metrics::MetricsRegistry`] of
//!   counters and log-scale histograms, folded from a sink's events when
//!   [`trace::TraceSink::metrics`] is called;
//! * [`log`] — a leveled stderr facade ([`progress!`], [`verbose!`],
//!   [`warn!`]) honoring `ROBUSTMAP_LOG` (quiet / normal / verbose).
//!
//! This crate is a leaf: it depends on `std` only, so every workspace
//! layer (storage, executor, core, bench) can use it without cycles.

pub mod chrome;
pub mod log;
pub mod metrics;
pub mod trace;

pub use log::{log_level, set_log_level, LogLevel, ENV_LOG};
pub use metrics::{LogHistogram, MetricsRegistry};
pub use trace::{validate_trace, ClockDomain, TraceDetail, TraceEvent, TraceEventKind, TraceSink};
