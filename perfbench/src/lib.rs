//! # commset-perfbench
//!
//! The COMMSET toolchain's benchmark: four closed-loop workloads, one op
//! at a time from a single loop, every op checked against a reference
//! the compiler under test did not produce.
//!
//! | workload  | one op | layers doing the work |
//! |-----------|--------|-----------------------|
//! | `compile` | analyze + transform + lower + bytecode-compile one job | lang, analysis, transform, ir, bytecode lowering |
//! | `threads` | one real-thread run (2 workers) of a precompiled module | runtime substrate, engine, thread executor |
//! | `des`     | one discrete-event run of a precompiled Figure 6 cell | sim, sim executor |
//! | `check`   | one checker campaign over a fixture | core sidecar parsing, checker model, exploration pool |
//!
//! An untraced run ([`runner::run`] with `trace = false`) reports the
//! end-to-end metrics ([`metrics::END_TO_END`]); a traced run reports the
//! per-layer metrics ([`metrics::PER_LAYER`]) from spans recorded around
//! the calls into each layer's public functions ([`trace::Tracer`]).

pub mod args;
pub mod check;
pub mod common;
pub mod compile;
pub mod des;
pub mod metrics;
pub mod runner;
pub mod stats;
pub mod threads;
pub mod trace;

use trace::Tracer;

/// The outcome of one op: the time of the call into the program, and
/// whether its output matched the reference.
#[derive(Debug, Clone)]
pub struct Op {
    /// Host nanoseconds spent inside the program call only (world
    /// building and reference checks are excluded).
    pub nanos: u64,
    /// `None` when the output matched its reference; otherwise why not.
    pub error: Option<String>,
}

/// Values computed once after the measured loop (never timed).
#[derive(Debug, Clone, Default)]
pub struct Totals {
    /// Bytecode instructions summed over the distinct programs the ops
    /// compiled or ran.
    pub code_size_insts: f64,
    /// Modeled 8-thread geomean speedup of the best COMMSET scheme per
    /// program (the Figure 6 headline).
    pub sim_speedup_geomean: f64,
    /// Cross-checks that failed (each makes the run incorrect).
    pub problems: Vec<String>,
}

/// One benchmark workload: a fixed set of jobs built by set-up, run one
/// at a time by [`runner::measure`].
pub trait Workload {
    /// Number of distinct jobs; the runner cycles through a seeded
    /// permutation of `0..jobs()`.
    fn jobs(&self) -> usize;

    /// Runs job `job` once. When `tr` is on, spans are recorded around
    /// every layer call and the layer counters are accumulated.
    fn run(&mut self, job: usize, tr: &mut Tracer) -> Op;

    /// The post-loop end-to-end values.
    fn totals(&mut self) -> Totals;

    /// Per-layer counters accumulated over the traced ops, by metric name
    /// (span self times are added by the runner).
    fn layers(&self, out: &mut metrics::Values);
}

/// The workload names, in the order the CLI lists them.
pub const WORKLOADS: [&str; 4] = ["compile", "threads", "des", "check"];

/// Builds the named workload for `seed` (this is the timed set-up).
///
/// # Errors
///
/// Returns a message when the name is unknown or set-up fails.
pub fn setup(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "compile" => Box::new(compile::CompileBench::setup(seed)),
        "threads" => Box::new(threads::ThreadsBench::setup(seed)?),
        "des" => Box::new(des::DesBench::setup(seed)?),
        "check" => Box::new(check::CheckBench::setup(seed)?),
        other => return Err(format!("unknown workload `{other}`")),
    })
}
