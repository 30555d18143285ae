//! Regenerates Table 2: per-program annotations, SLOC, applicable
//! transforms, best speedup and scheme on eight (virtual) cores.
//!
//! Run: `cargo run -p commset-bench --bin table2`

use commset_bench::write_report;
use commset_sim::CostModel;
use std::process::ExitCode;

fn main() -> ExitCode {
    write_report(|out| {
        let cm = CostModel::default();
        writeln!(out, "Table 2: evaluated programs (8 simulated cores)\n")?;
        writeln!(
            out,
            "{:<10} {:<10} {:>5} {:>6} {:>6}  {:<22} {:>7}  {:<22} {:>7}",
            "Program",
            "Origin",
            "Exec",
            "#Ann",
            "SLOC",
            "Transforms",
            "Best",
            "Best scheme",
            "Paper"
        )?;
        let mut best_all = Vec::new();
        for w in commset_workloads::all() {
            let a = w.analyze(0).expect("workload analyzes");
            let transforms: Vec<String> = w
                .compiler()
                .applicable_schemes(&a, 8)
                .iter()
                .map(|s| s.to_string())
                .collect();
            let (best, label) = w.best_commset(8, &cm).expect("some scheme applies");
            best_all.push(best);
            writeln!(
                out,
                "{:<10} {:<10} {:>5} {:>6} {:>6}  {:<22} {:>6.2}x  {:<22} {:>6.2}x",
                w.name,
                w.origin,
                w.exec_fraction,
                w.annotation_count(),
                w.sloc(),
                transforms.join(", "),
                best,
                label,
                w.paper.best_speedup,
            )?;
        }
        let geo = commset_bench::geomean(&best_all);
        writeln!(
            out,
            "\ngeomean best COMMSET speedup: {geo:.2}x (paper: 5.7x)"
        )
    })
}
