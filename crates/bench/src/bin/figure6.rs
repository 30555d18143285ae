//! Regenerates Figure 6: speedup vs thread count for every program and
//! every scheme series, plus the geomean panel (6i).
//!
//! Run: `cargo run -p commset-bench --bin figure6`

use commset_bench::{cell, geomean, run_panel, write_report, THREADS};
use commset_sim::CostModel;
use std::process::ExitCode;

fn main() -> ExitCode {
    write_report(|out| {
        let cm = CostModel::default();
        let mut best = Vec::new();
        let mut noncomm = Vec::new();
        let letters = ["a", "b", "c", "d", "e", "f", "g", "h"];
        for (i, w) in commset_workloads::all().iter().enumerate() {
            let panel = run_panel(w, &cm);
            writeln!(
                out,
                "Figure 6{}: {}   (paper best: {:.1}x {})",
                letters[i], panel.name, w.paper.best_speedup, w.paper.best_scheme
            )?;
            write!(out, "  {:<26}", "threads")?;
            for t in THREADS {
                write!(out, " {t:>5}")?;
            }
            writeln!(out)?;
            for (label, curve) in &panel.series {
                write!(out, "  {label:<26}")?;
                for v in curve {
                    write!(out, " {}", cell(*v))?;
                }
                writeln!(out)?;
            }
            writeln!(
                out,
                "  best COMMSET @8: {:.2}x ({}) | best non-COMMSET @8: {:.2}x\n",
                panel.best8, panel.best8_label, panel.noncomm8
            )?;
            best.push(panel.best8);
            noncomm.push(panel.noncomm8);
        }
        writeln!(out, "Figure 6i: geomean across the eight programs")?;
        writeln!(out, "  COMMSET:     {:.2}x  (paper: 5.7x)", geomean(&best))?;
        writeln!(
            out,
            "  non-COMMSET: {:.2}x  (paper: 1.49x)",
            geomean(&noncomm)
        )
    })
}
