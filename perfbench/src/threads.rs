//! `threads`: one op is one real-thread run, at 2 workers, of a module
//! precompiled in set-up. The jobs are every (program, Figure 6 series)
//! pair in `WorldMode::Auto`, plus every DOALL series of a program whose
//! registry declares merge operators again in `WorldMode::Deltas`.
//!
//! References: the final world must pass the workload's own validator
//! against the sequential oracle built in set-up, the waits-for watchdog
//! must be clean, and a `Deltas` run must take the privatized path.

use crate::common::{
    bc_insts, expected_applicable, precompile, sequential_oracle, totals_with_modeled, Compiled,
};
use crate::metrics::Values;
use crate::stats::ratio;
use crate::trace::Tracer;
use crate::{Op, Totals, Workload};
use commset::Scheme;
use commset_interp::{BcModule, ExecConfig, WorldMode};
use commset_runtime::{FaultPlan, World};
use commset_sim::CostModel;
use std::time::Instant;

/// Workers per section; the host has 2 cores.
pub const WORKERS: usize = 2;

struct Job {
    prog: usize,
    spec: usize,
    mode: WorldMode,
    /// Index into `ThreadsBench::modules`.
    module: usize,
}

/// Layer counters over the traced ops.
#[derive(Debug, Default)]
struct Layers {
    ops: u64,
    fast_acquires: u64,
    fast_waits: u64,
    multi_acquires: u64,
    whole_acquires: u64,
    queue_full_spins: u64,
    queue_empty_spins: u64,
    delta_applies: u64,
    delta_coalesces: u64,
    lock_elisions: u64,
    busy_ns: u64,
    total_ns: u64,
    lock_wait_ns: u64,
    queue_wait_ns: u64,
    retired: u64,
    imbalance_sum: f64,
    imbalance_sections: u64,
}

/// The `threads` workload.
pub struct ThreadsBench {
    workloads: Vec<commset_workloads::Workload>,
    oracles: Vec<World>,
    /// One per (program, series); `Deltas` jobs share their `Auto` job's.
    modules: Vec<Result<Compiled, String>>,
    jobs: Vec<Job>,
    fault: FaultPlan,
    layers: Layers,
}

impl ThreadsBench {
    /// Builds the sequential oracles and precompiles every job's module.
    ///
    /// # Errors
    ///
    /// Returns a sequential-oracle failure.
    pub fn setup(_seed: u64) -> Result<Self, String> {
        let cm = CostModel::default();
        let workloads = commset_workloads::all();
        let mut oracles = Vec::new();
        let mut modules = Vec::new();
        let mut jobs = Vec::new();
        for (p, w) in workloads.iter().enumerate() {
            oracles.push(sequential_oracle(w, &cm)?.1);
            let pairs: Vec<(usize, usize)> = (0..w.schemes.len())
                .filter(|&s| expected_applicable(w, &w.schemes[s], WORKERS))
                .map(|s| (s, WORKERS))
                .collect();
            for (compiled, &(s, _)) in precompile(w, &pairs).into_iter().zip(&pairs) {
                let module = modules.len();
                modules.push(compiled);
                let job = |mode| Job {
                    prog: p,
                    spec: s,
                    mode,
                    module,
                };
                jobs.push(job(WorldMode::Auto));
                if w.registry.has_merges() && w.schemes[s].scheme == Scheme::Doall {
                    jobs.push(job(WorldMode::Deltas));
                }
            }
        }
        Ok(ThreadsBench {
            workloads,
            oracles,
            modules,
            jobs,
            fault: FaultPlan::none(),
            layers: Layers::default(),
        })
    }

    /// Runs every op under `fault` from now on (tests use this to show a
    /// killed worker is counted as a failed op).
    pub fn inject(&mut self, fault: FaultPlan) {
        self.fault = fault;
    }
}

impl Workload for ThreadsBench {
    fn jobs(&self) -> usize {
        self.jobs.len()
    }

    fn run(&mut self, j: usize, tr: &mut Tracer) -> Op {
        let job = &self.jobs[j];
        let w = &self.workloads[job.prog];
        let label = &w.schemes[job.spec].label;
        let c = match &self.modules[job.module] {
            Ok(c) => c,
            Err(e) => {
                return Op {
                    nanos: 0,
                    error: Some(format!("declared cell does not compile: {e}")),
                }
            }
        };
        let traced = tr.is_on();
        let cfg = ExecConfig {
            world: job.mode,
            fault: self.fault.clone(),
            telemetry: traced,
            metrics: traced,
            ..ExecConfig::default()
        };
        let world = (w.make_world)();
        let span = tr.enter("op");
        let t = Instant::now();
        let out = tr.scope("interp.threads.run", || {
            commset_interp::run_threaded_with(
                &c.module,
                &w.registry,
                std::slice::from_ref(&c.plan),
                world,
                &cfg,
            )
        });
        let nanos = t.elapsed().as_nanos() as u64;
        tr.exit(span);
        let oracle = &self.oracles[job.prog];
        let mode = job.mode;
        let error = tr.scope("workloads.validate", || {
            let out = out.as_ref().map_err(|e| e.to_string())?;
            (w.validate)(oracle, &out.world)?;
            if !out.stats.watchdog.is_clean() {
                return Err(format!("watchdog: {:?}", out.stats.watchdog));
            }
            if mode == WorldMode::Deltas && out.stats.delta.applies == 0 {
                return Err("Deltas run never took the privatized path".to_string());
            }
            Ok(())
        });
        let error = error
            .err()
            .map(|e| format!("{} {label} x{WORKERS} {mode:?}: {e}", w.name));
        if let (true, Ok(out)) = (traced, &out) {
            let l = &mut self.layers;
            l.ops += 1;
            let s = &out.stats;
            l.fast_acquires += s.shard.fast_acquires;
            l.fast_waits += s.shard.fast_waits;
            l.multi_acquires += s.shard.multi_acquires;
            l.whole_acquires += s.shard.whole_acquires;
            l.queue_full_spins += s.queue_full_spins;
            l.queue_empty_spins += s.queue_empty_spins;
            l.delta_applies += s.delta.applies;
            l.delta_coalesces += s.delta.coalesces;
            l.lock_elisions += s.delta.lock_elisions;
            if let Some(report) = &out.telemetry {
                for section in &report.sections {
                    let busy: Vec<u64> = section.workers.iter().map(|w| w.busy).collect();
                    for wr in &section.workers {
                        l.busy_ns += wr.busy;
                        l.total_ns += wr.total;
                        l.lock_wait_ns += wr.lock_wait;
                        l.queue_wait_ns += wr.queue_wait;
                    }
                    let mean = busy.iter().sum::<u64>() as f64 / busy.len().max(1) as f64;
                    if busy.len() > 1 && mean > 0.0 {
                        let max = busy.iter().copied().max().unwrap_or(0) as f64;
                        l.imbalance_sum += (max - mean) / mean;
                        l.imbalance_sections += 1;
                    }
                }
            }
            if let Some(m) = &out.metrics {
                l.retired += m.opcodes().values().sum::<u64>();
            }
        }
        Op { nanos, error }
    }

    fn totals(&mut self) -> Totals {
        let code_size: usize = self
            .modules
            .iter()
            .flatten()
            .map(|c| bc_insts(&BcModule::compile(&c.module)))
            .sum();
        totals_with_modeled(code_size, &self.workloads, Vec::new())
    }

    fn layers(&self, out: &mut Values) {
        let l = &self.layers;
        let ops = l.ops as f64;
        let per_op = |v: u64| ratio(v as f64, ops);
        out.set(
            "interp.ns_per_inst",
            ratio(l.busy_ns as f64, l.retired as f64),
        );
        out.set(
            "interp.threads.busy_frac",
            ratio(l.busy_ns as f64, l.total_ns as f64),
        );
        out.set(
            "interp.threads.imbalance",
            ratio(l.imbalance_sum, l.imbalance_sections as f64),
        );
        out.set("runtime.shard_fast_acquires", per_op(l.fast_acquires));
        out.set("runtime.shard_fast_waits", per_op(l.fast_waits));
        out.set(
            "runtime.shard_wait_ratio",
            ratio(l.fast_waits as f64, l.fast_acquires as f64),
        );
        out.set("runtime.shard_multi_acquires", per_op(l.multi_acquires));
        out.set("runtime.shard_whole_acquires", per_op(l.whole_acquires));
        out.set("runtime.lock_wait_us", per_op(l.lock_wait_ns) / 1e3);
        out.set("runtime.queue_full_spins", per_op(l.queue_full_spins));
        out.set("runtime.queue_empty_spins", per_op(l.queue_empty_spins));
        out.set("runtime.queue_wait_us", per_op(l.queue_wait_ns) / 1e3);
        out.set("runtime.delta_applies", per_op(l.delta_applies));
        out.set("runtime.delta_coalesces", per_op(l.delta_coalesces));
        out.set("runtime.lock_elisions", per_op(l.lock_elisions));
    }
}
