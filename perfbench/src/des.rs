//! `des`: one op is one discrete-event-simulator run of a module
//! precompiled in set-up, over the full Figure 6 matrix (program ×
//! series × modeled threads 2..=8). The seed only orders the runs.
//!
//! References: the final world must pass the workload's validator
//! against the sequential oracle built in set-up, and a cell run twice
//! must give the same modeled time (the simulator is deterministic).

use crate::common::{
    bc_insts, expected_applicable, precompile, sequential_oracle, Compiled, THREADS,
};
use crate::metrics::Values;
use crate::stats::ratio;
use crate::trace::Tracer;
use crate::{Op, Totals, Workload};
use commset_bench::geomean;
use commset_interp::{BcModule, ExecConfig};
use commset_runtime::World;
use commset_sim::CostModel;
use std::time::Instant;

/// The `sim.speedup8.<program>` metric name of a workload.
fn speedup_metric(w: &commset_workloads::Workload) -> String {
    format!("sim.speedup8.{}", w.name.to_ascii_lowercase())
}

struct Job {
    prog: usize,
    spec: usize,
    threads: usize,
    compiled: Result<Compiled, String>,
}

/// Layer counters over the traced ops.
#[derive(Debug, Default)]
struct Layers {
    ops: u64,
    host_ns: u64,
    ticks: u64,
    retired: u64,
    contention_sum: f64,
    contention_ops: u64,
    tm_commits: u64,
    tm_aborts: u64,
    queue_pushes: u64,
    queue_stalls: u64,
}

/// The `des` workload.
pub struct DesBench {
    workloads: Vec<commset_workloads::Workload>,
    cm: CostModel,
    /// Sequential oracle per program: modeled time and final world.
    oracles: Vec<(u64, World)>,
    jobs: Vec<Job>,
    /// Modeled time of each job's first run.
    sim_times: Vec<Option<u64>>,
    layers: Layers,
}

impl DesBench {
    /// Builds the sequential oracles and precompiles every Figure 6 cell.
    ///
    /// # Errors
    ///
    /// Returns a sequential-oracle failure.
    pub fn setup(_seed: u64) -> Result<Self, String> {
        let cm = CostModel::default();
        let workloads = commset_workloads::all();
        let mut oracles = Vec::new();
        let mut jobs = Vec::new();
        for (p, w) in workloads.iter().enumerate() {
            oracles.push(sequential_oracle(w, &cm)?);
            let pairs: Vec<(usize, usize)> = (0..w.schemes.len())
                .flat_map(|s| THREADS.map(move |t| (s, t)))
                .filter(|&(s, t)| expected_applicable(w, &w.schemes[s], t))
                .collect();
            for (compiled, &(spec, threads)) in precompile(w, &pairs).into_iter().zip(&pairs) {
                jobs.push(Job {
                    prog: p,
                    spec,
                    threads,
                    compiled,
                });
            }
        }
        let sim_times = vec![None; jobs.len()];
        Ok(DesBench {
            workloads,
            cm,
            oracles,
            jobs,
            sim_times,
            layers: Layers::default(),
        })
    }

    /// Best modeled 8-thread speedup of any COMMSET series, per program,
    /// from the ops run so far (1.0 where none ran or none applies).
    fn best8(&self) -> Vec<f64> {
        let mut best: Vec<Option<f64>> = vec![None; self.workloads.len()];
        for (job, t) in self.jobs.iter().zip(&self.sim_times) {
            let w = &self.workloads[job.prog];
            if let (8, true, Some(t)) = (job.threads, w.schemes[job.spec].commset, t) {
                let v = self.oracles[job.prog].0 as f64 / *t as f64;
                let b = &mut best[job.prog];
                *b = Some(b.map_or(v, |x| x.max(v)));
            }
        }
        best.into_iter().map(|b| b.unwrap_or(1.0)).collect()
    }
}

impl Workload for DesBench {
    fn jobs(&self) -> usize {
        self.jobs.len()
    }

    fn run(&mut self, j: usize, tr: &mut Tracer) -> Op {
        let job = &self.jobs[j];
        let w = &self.workloads[job.prog];
        let what = format!("{} {} x{}", w.name, w.schemes[job.spec].label, job.threads);
        let c = match &job.compiled {
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
            metrics: traced,
            ..ExecConfig::default()
        };
        let mut world = (w.make_world)();
        let span = tr.enter("op");
        let t = Instant::now();
        let out = tr.scope("interp.sim.run", || {
            commset_interp::run_simulated_with(
                &c.module,
                &w.registry,
                std::slice::from_ref(&c.plan),
                &mut world,
                &self.cm,
                &cfg,
            )
        });
        let nanos = t.elapsed().as_nanos() as u64;
        tr.exit(span);
        let oracle = &self.oracles[job.prog].1;
        let first = &mut self.sim_times[j];
        let error = tr.scope("workloads.validate", || {
            let out = out.as_ref().map_err(|e| e.to_string())?;
            (w.validate)(oracle, &world)?;
            match *first {
                Some(t) if t != out.sim_time => Err(format!(
                    "not deterministic: {t} ticks then {} ticks",
                    out.sim_time
                )),
                _ => {
                    *first = Some(out.sim_time);
                    Ok(())
                }
            }
        });
        let error = error.err().map(|e| format!("{what}: {e}"));
        if let (true, Ok(out)) = (traced, &out) {
            let l = &mut self.layers;
            l.ops += 1;
            l.host_ns += nanos;
            l.ticks += out.sim_time;
            let s = &out.stats;
            if !s.lock_contention.is_empty() {
                l.contention_sum += s.lock_contention.iter().map(|(_, c)| c).sum::<f64>()
                    / s.lock_contention.len() as f64;
                l.contention_ops += 1;
            }
            l.tm_commits += s.tm_commits;
            l.tm_aborts += s.tm_aborts;
            l.queue_pushes += s.queue_pushes;
            l.queue_stalls += s.queue_stalls;
            if let Some(m) = &out.metrics {
                l.retired += m.opcodes().values().sum::<u64>();
            }
        }
        Op { nanos, error }
    }

    fn totals(&mut self) -> Totals {
        let code_size: usize = self
            .jobs
            .iter()
            .filter_map(|j| j.compiled.as_ref().ok())
            .map(|c| bc_insts(&BcModule::compile(&c.module)))
            .sum();
        Totals {
            code_size_insts: code_size as f64,
            sim_speedup_geomean: geomean(&self.best8()),
            problems: Vec::new(),
        }
    }

    fn layers(&self, out: &mut Values) {
        let l = &self.layers;
        let ops = l.ops as f64;
        let per_op = |v: u64| ratio(v as f64, ops);
        out.set(
            "interp.ns_per_inst",
            ratio(l.host_ns as f64, l.retired as f64),
        );
        out.set(
            "sim.ticks_per_s",
            ratio(l.ticks as f64, l.host_ns as f64 / 1e9),
        );
        out.set("sim.ticks", per_op(l.ticks));
        out.set(
            "sim.lock_contention_mean",
            ratio(l.contention_sum, l.contention_ops as f64),
        );
        out.set("sim.tm_commits", per_op(l.tm_commits));
        out.set("sim.tm_aborts", per_op(l.tm_aborts));
        out.set(
            "sim.tm_abort_ratio",
            ratio(l.tm_aborts as f64, (l.tm_commits + l.tm_aborts) as f64),
        );
        out.set("sim.queue_pushes", per_op(l.queue_pushes));
        out.set("sim.queue_stalls", per_op(l.queue_stalls));
        for (w, b) in self.workloads.iter().zip(self.best8()) {
            out.set(&speedup_metric(w), b);
        }
    }
}
