//! Pieces the workloads share: the pinned Figure 6 references, program
//! precompilation, code-size counts and the modeled speedup geomean.

use crate::Totals;
use commset::{Analysis, ParallelPlan, Scheme};
use commset_bench::geomean;
use commset_interp::{BcModule, ExecConfig};
use commset_ir::Module;
use commset_runtime::World;
use commset_sim::CostModel;
use commset_workloads::{SchemeSpec, Workload};

/// Figure 6 cells with no value, as EXPERIMENTS.md records them:
/// (program, series label, threads). Every other declared cell at 2..=8
/// threads must compile.
const NOT_APPLICABLE: &[(&str, &str, usize)] = &[("456.hmmer", "Comm-PS-DSWP (Lib)", 2)];

/// Modeled thread counts of Figure 6.
pub const THREADS: std::ops::RangeInclusive<usize> = 2..=8;

/// True unless EXPERIMENTS.md's Figure 6 shows the cell as n/a.
pub fn expected_applicable(w: &Workload, spec: &SchemeSpec, threads: usize) -> bool {
    !NOT_APPLICABLE
        .iter()
        .any(|(p, l, t)| *p == w.name && *l == spec.label && *t == threads)
}

/// A scheme series compiled at one thread count.
pub struct Compiled {
    /// The lowered module.
    pub module: Module,
    /// Its execution plan.
    pub plan: ParallelPlan,
}

/// Compiles every `(spec, threads)` pair of `w`, analyzing each source
/// once. A pair that does not compile holds the diagnostic.
pub fn precompile(w: &Workload, pairs: &[(usize, usize)]) -> Vec<Result<Compiled, String>> {
    let compiler = w.compiler();
    let mut analyses: Vec<Option<Result<Analysis, String>>> = vec![None; w.schemes.len()];
    pairs
        .iter()
        .map(|&(s, threads)| {
            let spec = &w.schemes[s];
            let analysis = analyses[s]
                .get_or_insert_with(|| {
                    let source = if spec.commset {
                        w.variants[spec.variant].clone()
                    } else {
                        w.plain_source()
                    };
                    compiler.analyze(&source).map_err(|d| d.to_string())
                })
                .as_ref()
                .map_err(Clone::clone)?;
            compiler
                .compile(analysis, spec.scheme, threads, spec.sync)
                .map(|(module, plan)| Compiled { module, plan })
                .map_err(|d| format!("{} {} x{threads}: {d}", w.name, spec.label))
        })
        .collect()
}

/// The sequential oracle: the pragma-stripped program run sequentially on
/// a fresh world. Returns its modeled time and final world.
///
/// # Errors
///
/// Returns the compile or execution error.
pub fn sequential_oracle(w: &Workload, cm: &CostModel) -> Result<(u64, World), String> {
    let compiler = w.compiler();
    let analysis = compiler
        .analyze(&w.plain_source())
        .map_err(|d| format!("{}: {d}", w.name))?;
    let module = compiler
        .compile_sequential(&analysis)
        .map_err(|d| format!("{}: {d}", w.name))?;
    let mut world = (w.make_world)();
    let out = commset_interp::run_sequential(&module, &w.registry, &mut world, cm, "main")
        .map_err(|e| format!("{}: sequential oracle: {e}", w.name))?;
    Ok((out.sim_time, world))
}

/// Bytecode instructions of a module.
pub fn bc_insts(bc: &BcModule) -> usize {
    bc.funcs.iter().map(|f| f.ops.len()).sum()
}

/// Geomean over programs of the best modeled 8-thread speedup of any
/// COMMSET series (1.0 for a program where none applies), computed
/// afresh on the discrete-event simulator with every parallel world
/// checked against the sequential oracle. The `des` workload derives the
/// same number from its own ops.
///
/// # Errors
///
/// Returns the first oracle, execution or validation error.
pub fn modeled_geomean(ws: &[Workload], cm: &CostModel) -> Result<f64, String> {
    let mut best = Vec::with_capacity(ws.len());
    for w in ws {
        let (seq_time, seq_world) = sequential_oracle(w, cm)?;
        let pairs: Vec<(usize, usize)> = (0..w.schemes.len())
            .filter(|&s| w.schemes[s].commset && w.schemes[s].scheme != Scheme::Sequential)
            .map(|s| (s, 8))
            .collect();
        let mut top: Option<f64> = None;
        for (c, &(s, _)) in precompile(w, &pairs).into_iter().zip(&pairs) {
            let Ok(c) = c else { continue };
            let mut world = (w.make_world)();
            let out = commset_interp::run_simulated_with(
                &c.module,
                &w.registry,
                std::slice::from_ref(&c.plan),
                &mut world,
                cm,
                &ExecConfig::default(),
            )
            .map_err(|e| format!("{} {} x8: {e}", w.name, w.schemes[s].label))?;
            (w.validate)(&seq_world, &world)
                .map_err(|e| format!("{} {} x8: {e}", w.name, w.schemes[s].label))?;
            let v = seq_time as f64 / out.sim_time as f64;
            top = Some(top.map_or(v, |t: f64| t.max(v)));
        }
        best.push(top.unwrap_or(1.0));
    }
    Ok(geomean(&best))
}

/// The totals of a workload that does not run the Figure 6 matrix itself:
/// `sim_speedup_geomean` comes from [`modeled_geomean`], and its failure
/// joins `problems`.
pub fn totals_with_modeled(
    code_size_insts: usize,
    ws: &[Workload],
    mut problems: Vec<String>,
) -> Totals {
    let sim_speedup_geomean = modeled_geomean(ws, &CostModel::default()).unwrap_or_else(|e| {
        problems.push(e);
        0.0
    });
    Totals {
        code_size_insts: code_size_insts as f64,
        sim_speedup_geomean,
        problems,
    }
}
