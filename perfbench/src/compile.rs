//! `compile`: one op is one `commsetc compile`-style job — analyze a
//! source, apply one transform (or lower the sequential program), then
//! compile the module to bytecode. Nothing executes.
//!
//! The jobs are every program × source (each annotated variant and the
//! pragma-stripped program) × {sequential, DOALL, DSWP, PS-DSWP} × sync
//! mode × threads 2..=8. Many combinations are inapplicable; the
//! compiler's diagnostic is then the op's result, as it is for a user.
//!
//! References: every Figure 6 series a workload declares must compile at
//! every thread count EXPERIMENTS.md gives a value for, and a job run
//! twice must give the same bytecode size (or the same diagnostic).

use crate::common::{bc_insts, expected_applicable, totals_with_modeled, THREADS};
use crate::metrics::Values;
use crate::stats::ratio;
use crate::trace::Tracer;
use crate::{Op, Totals, Workload};
use commset::{Analysis, Compiler, Scheme, SyncMode};
use commset_analysis::depanalysis::analyze_commutativity;
use commset_analysis::effects::summarize;
use commset_analysis::hotloop::find_hot_loop;
use commset_analysis::metadata::manage;
use commset_analysis::pdg::{DepKind, Pdg};
use commset_analysis::scc::dag_scc;
use commset_interp::BcModule;
use commset_ir::{lower_program, Module};
use commset_lang::diag::Diagnostic;
use std::hint::black_box;
use std::time::Instant;

const SCHEMES: [Scheme; 3] = [Scheme::Doall, Scheme::Dswp, Scheme::PsDswp];
const SYNCS: [SyncMode; 4] = [SyncMode::Lib, SyncMode::Spin, SyncMode::Mutex, SyncMode::Tm];

/// IR instructions (terminators included) of a module.
fn ir_insts(m: &Module) -> usize {
    m.funcs.iter().map(|f| f.inst_count()).sum()
}

#[derive(Clone, Copy)]
struct Job {
    prog: usize,
    /// Index into the program's sources: variants, then the plain source.
    source: usize,
    scheme: Scheme,
    sync: SyncMode,
    threads: usize,
    /// A declared Figure 6 cell, so it must compile.
    required: bool,
}

/// Layer counters over the traced ops.
#[derive(Debug, Default)]
struct Layers {
    ops: u64,
    pdg_edges: u64,
    memory_edges: u64,
    relaxed_edges: u64,
    transforms: u64,
    applied: u64,
    ir_insts: u64,
    bc_insts: u64,
}

/// The `compile` workload.
pub struct CompileBench {
    workloads: Vec<commset_workloads::Workload>,
    compilers: Vec<Compiler>,
    sources: Vec<Vec<String>>,
    jobs: Vec<Job>,
    /// First result per job: bytecode instructions, or the diagnostic.
    first: Vec<Option<Result<usize, String>>>,
    layers: Layers,
}

impl CompileBench {
    /// Builds the job list (the seed only orders it, in the runner).
    pub fn setup(_seed: u64) -> Self {
        let workloads = commset_workloads::all();
        let compilers = workloads.iter().map(|w| w.compiler()).collect();
        let mut sources = Vec::new();
        let mut jobs = Vec::new();
        for (p, w) in workloads.iter().enumerate() {
            let mut srcs = w.variants.clone();
            srcs.push(w.plain_source());
            let plain = srcs.len() - 1;
            for source in 0..srcs.len() {
                jobs.push(Job {
                    prog: p,
                    source,
                    scheme: Scheme::Sequential,
                    sync: SyncMode::Lib,
                    threads: 1,
                    required: true,
                });
                for scheme in SCHEMES {
                    for sync in SYNCS {
                        for threads in THREADS {
                            let required = w.schemes.iter().any(|s| {
                                let src = if s.commset { s.variant } else { plain };
                                src == source
                                    && s.scheme == scheme
                                    && s.sync == sync
                                    && expected_applicable(w, s, threads)
                            });
                            jobs.push(Job {
                                prog: p,
                                source,
                                scheme,
                                sync,
                                threads,
                                required,
                            });
                        }
                    }
                }
            }
            sources.push(srcs);
        }
        let first = (0..jobs.len()).map(|_| None).collect();
        CompileBench {
            workloads,
            compilers,
            sources,
            jobs,
            first,
            layers: Layers::default(),
        }
    }

    /// The untraced op: exactly the public `Compiler` calls.
    fn compile_plain(&self, job: &Job) -> Result<BcModule, Diagnostic> {
        let c = &self.compilers[job.prog];
        let a = c.analyze(&self.sources[job.prog][job.source])?;
        let m = if job.scheme == Scheme::Sequential {
            c.compile_sequential(&a)?
        } else {
            c.compile(&a, job.scheme, job.threads, job.sync)?.0
        };
        Ok(BcModule::compile(&m))
    }

    /// The traced op: the same pipeline `Compiler::analyze` and
    /// `Compiler::compile` run, one span per layer call.
    fn compile_traced(&mut self, job: &Job, tr: &mut Tracer) -> Result<BcModule, Diagnostic> {
        let c = &self.compilers[job.prog];
        let src = &self.sources[job.prog][job.source];
        let annotation_lines = src
            .lines()
            .filter(|l| l.trim_start().starts_with("#pragma"))
            .count();
        let sloc = src.lines().filter(|l| !l.trim().is_empty()).count();
        let unit = tr.scope("lang.compile_unit", || commset_lang::compile_unit(src))?;
        let managed = tr.scope("analysis.manage", || manage(unit))?;
        let summaries = tr.scope("analysis.summarize", || {
            summarize(&managed.program, &c.intrinsics)
        });
        let hot = tr.scope("analysis.hotloop", || {
            find_hot_loop(&managed, &summaries, &c.intrinsics, &c.hot_func)
        })?;
        let mut pdg = tr.scope("analysis.pdg", || Pdg::build(&hot));
        let relaxed_edges = tr.scope("analysis.alg1", || {
            analyze_commutativity(&mut pdg, &managed, &hot)
        });
        let dag = tr.scope("analysis.scc", || dag_scc(&pdg));
        let l = &mut self.layers;
        l.pdg_edges += pdg.edges.len() as u64;
        l.memory_edges += pdg
            .edges
            .iter()
            .filter(|e| matches!(e.kind, DepKind::Memory { .. }))
            .count() as u64;
        l.relaxed_edges += relaxed_edges as u64;
        let analysis = Analysis {
            managed,
            hot,
            pdg,
            dag,
            summaries,
            relaxed_edges,
            annotation_lines,
            sloc,
        };
        let module = if job.scheme == Scheme::Sequential {
            tr.scope("ir.lower", || {
                lower_program(&analysis.managed.program, c.intrinsics.clone())
            })?
        } else {
            let name = match job.scheme {
                Scheme::Doall => "transform.doall",
                Scheme::Dswp => "transform.dswp",
                _ => "transform.ps_dswp",
            };
            l.transforms += 1;
            let pp = tr.scope(name, || {
                c.compile_to_ast(&analysis, job.scheme, job.threads, job.sync)
            })?;
            l.applied += 1;
            tr.scope("ir.lower", || {
                lower_program(&pp.program, c.intrinsics.clone())
            })?
        };
        l.ir_insts += ir_insts(&module) as u64;
        let bc = tr.scope("interp.bc_compile", || BcModule::compile(&module));
        l.bc_insts += bc_insts(&bc) as u64;
        Ok(bc)
    }
}

impl Workload for CompileBench {
    fn jobs(&self) -> usize {
        self.jobs.len()
    }

    fn run(&mut self, j: usize, tr: &mut Tracer) -> Op {
        let job = self.jobs[j];
        let traced = tr.is_on();
        if traced {
            self.layers.ops += 1;
        }
        let span = tr.enter("op");
        let t = Instant::now();
        let out = if traced {
            self.compile_traced(&job, tr)
        } else {
            self.compile_plain(&job)
        };
        let out = black_box(out);
        let nanos = t.elapsed().as_nanos() as u64;
        tr.exit(span);
        let result = out.map(|bc| bc_insts(&bc)).map_err(|d| d.to_string());
        let error = tr.scope("workloads.validate", || {
            let w = &self.workloads[job.prog];
            let what = || {
                format!(
                    "{} source {} {} {} x{}",
                    w.name, job.source, job.scheme, job.sync, job.threads
                )
            };
            if job.required {
                if let Err(d) = &result {
                    return Some(format!("{}: declared cell does not compile: {d}", what()));
                }
            }
            // Applicability and bytecode size must repeat. The wording of
            // an inapplicability diagnostic need not: it names whichever
            // offending region the analysis visits first.
            match &self.first[j] {
                Some(prev) if prev.as_ref().ok() != result.as_ref().ok() => Some(format!(
                    "{}: not deterministic: {prev:?} then {result:?}",
                    what()
                )),
                Some(_) => None,
                None => {
                    self.first[j] = Some(result);
                    None
                }
            }
        });
        Op { nanos, error }
    }

    fn totals(&mut self) -> Totals {
        let code_size = self
            .first
            .iter()
            .flatten()
            .filter_map(|r| r.as_ref().ok())
            .sum();
        totals_with_modeled(code_size, &self.workloads, Vec::new())
    }

    fn layers(&self, out: &mut Values) {
        let l = &self.layers;
        let ops = l.ops as f64;
        out.set("analysis.pdg_edges", ratio(l.pdg_edges as f64, ops));
        out.set("analysis.relaxed_edges", ratio(l.relaxed_edges as f64, ops));
        out.set(
            "analysis.relaxed_ratio",
            ratio(l.relaxed_edges as f64, l.memory_edges as f64),
        );
        out.set(
            "transform.applied_ratio",
            ratio(l.applied as f64, l.transforms as f64),
        );
        out.set("ir.insts", ratio(l.ir_insts as f64, ops));
        out.set("interp.bc_insts", ratio(l.bc_insts as f64, ops));
    }
}
