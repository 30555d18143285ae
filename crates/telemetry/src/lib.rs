//! # commset-telemetry
//!
//! The observability layer of the COMMSET reproduction: one place where
//! every runtime counter and every timed span of a parallel run lands, so
//! benchmark deltas become *attributable* instead of anecdotal.
//!
//! * [`event`] — the executors' one event stream: each observable
//!   event (region entry/exit, lock acquire/release, queue push/pop,
//!   blocking, transactions, world-intrinsic calls, worker exit) is
//!   recorded once, and a [`event::Projection`] derives spans, trace
//!   records and metric families from it at section end.
//! * [`span`] — the span model: [`span::SpanRecord`]s (commutative-region
//!   execution, lock waits vs. holds keyed by CommSet lock rank, queue
//!   push/pop blocking, STM windows, world-intrinsic calls), in monotonic
//!   nanoseconds on real threads and deterministic logical ticks under
//!   the simulator.
//! * [`trace`] — the readable trace: [`trace::TraceRecord`]s and their
//!   line rendering.
//! * [`report`] — the [`report::RunReport`]: per-worker and per-DSWP-stage
//!   busy/blocked/idle utilization (the stage-balance quantity that
//!   predicts PS-DSWP scalability), a lock-contention profile, per-queue
//!   traffic, and every existing counter snapshot (fault, watchdog,
//!   shard, STM, SPSC spins) unified into one serializable structure with
//!   a human-readable text rendering and a dependency-free JSON encoding.
//! * [`chrome`] — a Chrome trace-event / Perfetto JSON exporter: any run
//!   (or any checker interleaving) becomes a timeline you can open in
//!   `chrome://tracing` or <https://ui.perfetto.dev>.
//! * [`json`] — the tiny shared JSON-writing helpers (the workspace has
//!   no serialization dependency by design).
//! * [`metrics`] — the always-on [`metrics::MetricsRegistry`]: monotonic
//!   counters, log2-bucketed histograms (the wait and occupancy families
//!   are projected from the event stream), and bytecode hotspot
//!   attribution (per-opcode retires, hot-block ranks) merged from
//!   per-worker local state published once at worker exit.
//! * [`journal`] — the structured JSONL event [`journal::Journal`] with
//!   causal IDs (run → attempt → rung → section → worker),
//!   replay-linkable to `.repro.json` failure bundles.
//!
//! Telemetry is zero-cost when off: each event site consults one `bool`
//! (set when `ExecConfig::telemetry` or `ExecConfig::metrics` is on in
//! `commset-interp`) and touches nothing else.

pub mod chrome;
pub mod event;
pub mod journal;
pub mod json;
pub mod metrics;
pub mod recovery;
pub mod report;
pub mod span;
pub mod trace;

pub use chrome::{chrome_trace_json, ChromeTraceBuilder};
pub use event::{Event, EventKind, EventLog, Projection};
pub use journal::{Journal, JournalEvent};
pub use metrics::MetricsRegistry;
pub use recovery::RecoveryReport;
pub use report::{
    ClockUnit, LockReport, QueueReport, RunCounters, RunReport, SectionMeta, SectionProfile,
    StageReport, WorkerReport,
};
pub use span::{SpanKind, SpanRecord};
pub use trace::{TraceEvent, TraceRecord};
