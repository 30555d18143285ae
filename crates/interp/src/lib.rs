//! # commset-interp
//!
//! Execution of compiled Cmm modules.
//!
//! * [`bytecode`] — the execution engine: each function is lowered once
//!   to flat register bytecode (pre-resolved block offsets, fused
//!   superinstructions, inline-cached intrinsic call sites) and run by
//!   [`bytecode::BcVm`], a *resumable* machine: `step()` retires one op;
//!   intrinsic calls surface as pending *special* events the driving
//!   executor resolves. Every executor runs it.
//! * [`vm`] — the tree-walk interpreter over the CFG IR. No executor runs
//!   it; it is the independent reference the lockstep wall
//!   (`tests/engine_parity.rs`) steps beside [`bytecode::BcVm`], and it
//!   defines the step contract (`StepOutcome`, `CallEvent`) both share.
//! * [`globals`] — global-memory backends (plain for single-threaded
//!   executors, atomic for the thread executor).
//! * [`seq`] — the sequential executor (the evaluation baseline), with
//!   simulated-time accounting.
//! * [`sim_exec`] — the simulated-parallel executor: a discrete-event
//!   scheduler over one VM per worker thread, using `commset-sim`'s lock,
//!   queue and TM models. This is what regenerates the paper's Figure 6 on
//!   a single-core host.
//! * [`special`] — [`special::SpecialOp`], the one decode of the runtime
//!   specials (locks, queues, transactions, `__par_invoke`).
//! * [`substrate`] — the one semantics of those specials and of worker
//!   world calls, [`substrate::special`], generic over a
//!   [`substrate::Substrate`] that supplies only the primitives. The DES,
//!   the thread executor and the checker's controlled executor each
//!   implement it; `tests/substrate_parity.rs` checks that the DES and
//!   real threads record the same events per worker, and a CI lint step
//!   rejects any other non-test source that names a lock, queue or
//!   transaction special.
//! * [`thread_exec`] — the real-thread executor (OS threads, the runtime's
//!   lock-free queues and raw locks), used by the correctness tests.
//! * [`error`] — structured [`error::ExecError`] diagnostics: dynamic
//!   errors, executor-contract violations and parallel-runtime failures
//!   surface as `Result::Err`, never as panics.
//! * [`config`] — the shared [`config::ExecConfig`] knob set (fault
//!   injection, STM retry discipline, waits-for watchdog, telemetry).
//! * [`supervise`] — the self-healing execution supervisor: per-section
//!   deadlines, transient-failure retry with backoff, a degradation ladder
//!   (sharded → single lock → thread halving → sequential) with
//!   oracle-validated degraded results, and replayable failure bundles.
//! * [`bundle`] — the `.repro.json` failure-bundle format (and the small
//!   JSON reader it needs), consumed by `commsetc replay`.
//!
//! Both parallel executors record one observability event stream
//! ([`commset_telemetry::event`]): each lock, queue, transaction, region
//! and world-call event once, behind one check, and the lock, queue,
//! transaction and world-call events at their one site in
//! [`substrate::special`]. With
//! `ExecConfig::telemetry` on, the outcome carries a
//! [`commset_telemetry::RunReport`] (stage balance, lock contention by
//! rank, queue traffic, unified counters, and the run's trace) projected
//! from it, in monotonic nanoseconds on real threads and deterministic
//! ticks under the DES; with `ExecConfig::metrics` on, the metric
//! families are projected from the same events.

pub mod bundle;
pub mod bytecode;
pub mod config;
pub mod error;
pub mod globals;
pub mod metrics;
pub mod seq;
pub mod sim_exec;
pub mod special;
pub mod substrate;
pub mod supervise;
pub mod thread_exec;
pub mod vm;

pub use bundle::FailureBundle;
pub use bytecode::{print_bc_function, print_bc_module, BcModule, BcVm};
pub use config::{ExecConfig, WorldMode};
pub use error::ExecError;
pub use metrics::MetricsLocal;
pub use seq::run_sequential;
pub use sim_exec::{run_simulated, run_simulated_with, SimOutcome, SimStats};
pub use special::SpecialOp;
pub use supervise::{
    run_supervised, Backend, CompiledProgram, ProgramDesc, ProgramSource, RecoveryPolicy,
    SupervisedFailure, SupervisedOutcome, Validator,
};
pub use thread_exec::{run_threaded, run_threaded_with, ThreadOutcome, ThreadStats};
pub use vm::{CallEvent, OobError, StepOutcome, Vm};
