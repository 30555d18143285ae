//! # commset-bench
//!
//! The evaluation harness: regenerates every table and figure of the
//! paper's evaluation (§5) from this reproduction.
//!
//! | artifact | binary | paper content |
//! |----------|--------|---------------|
//! | Table 1  | `table1`  | feature matrix vs Jade/Galois/DPJ/Paralax/VELOCITY |
//! | Table 2  | `table2`  | per-program annotations, SLOC, transforms, best speedup |
//! | Figure 3 | `figure3` | md5sum schedule timelines (Seq / PS-DSWP / DOALL) |
//! | Figure 6 | `figure6` | speedup-vs-threads series per program + geomean |
//!
//! Benches (`cargo bench`, self-harnessed — the workspace carries no
//! external dependencies) measure the compiler itself (`compiler_phases`)
//! and the per-figure regeneration cost (`figures`).

pub mod diff;
pub mod table1;
pub mod timing;

use commset_sim::CostModel;
use commset_workloads::Workload;
use std::io::{ErrorKind, Write};
use std::process::ExitCode;

/// Threads evaluated by Figure 6 (the paper's x-axis, 2..=8 plus the
/// 1-thread baseline defined as 1.0).
pub const THREADS: [usize; 7] = [2, 3, 4, 5, 6, 7, 8];

/// One Figure 6 panel: the speedups of every scheme series of a workload.
#[derive(Debug, Clone)]
pub struct Panel {
    /// Program name.
    pub name: &'static str,
    /// (series label, speedups at [`THREADS`]; `None` = inapplicable).
    pub series: Vec<(String, Vec<Option<f64>>)>,
    /// Best COMMSET speedup at 8 threads.
    pub best8: f64,
    /// Best COMMSET scheme label at 8 threads.
    pub best8_label: String,
    /// Best non-COMMSET speedup at 8 threads.
    pub noncomm8: f64,
}

/// Runs one workload's full Figure 6 panel.
pub fn run_panel(w: &Workload, cm: &CostModel) -> Panel {
    let series = w
        .schemes
        .iter()
        .map(|spec| {
            let curve = THREADS
                .iter()
                .map(|&t| w.speedup(spec, t, cm))
                .collect::<Vec<_>>();
            (spec.label.clone(), curve)
        })
        .collect();
    let (best8, best8_label) = w
        .best_commset(8, cm)
        .unwrap_or((1.0, "Sequential".to_string()));
    let (noncomm8, _) = w.best_noncomm(8, cm);
    Panel {
        name: w.name,
        series,
        best8,
        best8_label,
        noncomm8,
    }
}

/// Formats one speedup cell.
pub fn cell(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{v:5.2}"),
        None => "  n/a".to_string(),
    }
}

/// Runs a report binary's `body` against a locked stdout. A reader that
/// goes away early (`figure6 | head -1`) ends the run with success — there
/// is nobody left to write for — instead of a broken-pipe panic; any other
/// write error is reported and fails the run.
pub fn write_report(body: impl FnOnce(&mut dyn Write) -> std::io::Result<()>) -> ExitCode {
    let mut out = std::io::stdout().lock();
    match body(&mut out).and_then(|()| out.flush()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.kind() == ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: writing stdout: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Geometric mean.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let product: f64 = values.iter().product();
    product.powf(1.0 / values.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_uniform_values() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn cell_formats() {
        assert_eq!(cell(Some(7.6)), " 7.60");
        assert_eq!(cell(None), "  n/a");
    }
}
