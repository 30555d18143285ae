//! Regenerates Figure 3: the three md5sum schedules (sequential, PS-DSWP,
//! DOALL) and their timelines on eight simulated cores.
//!
//! Run: `cargo run -p commset-bench --bin figure3`

use commset::{Scheme, SyncMode};
use commset_bench::write_report;
use commset_interp::run_simulated;
use commset_sim::CostModel;
use commset_workloads::md5sum;
use std::io::Write;
use std::process::ExitCode;

fn bar(t: u64, scale: u64) -> String {
    "#".repeat(t.div_ceil(scale) as usize)
}

fn main() -> ExitCode {
    write_report(render)
}

fn render(report: &mut dyn Write) -> std::io::Result<()> {
    let w = md5sum::workload();
    let compiler = w.compiler();
    let cm = CostModel::default();

    let (seq_time, _) = w.run_sequential(&cm);
    let scale = seq_time / 60 + 1;

    writeln!(
        report,
        "Figure 3: md5sum schedule timelines (8 simulated cores)\n"
    )?;
    writeln!(
        report,
        "Sequential            |{}| {seq_time}",
        bar(seq_time, scale)
    )?;

    // PS-DSWP on the deterministic variant (one less SELF annotation).
    let det = compiler.analyze(&w.variants[1]).expect("analyzes");
    let (module, plan) = compiler
        .compile(&det, Scheme::PsDswp, 8, SyncMode::Lib)
        .expect("PS-DSWP applies");
    let stages = plan.stage_desc.clone();
    let mut world = (w.make_world)();
    let ps = run_simulated(&module, &w.registry, &[plan], &mut world, &cm)
        .expect("PS-DSWP schedule runs");
    writeln!(
        report,
        "PS-DSWP (deterministic)|{}| {} -> {:.2}x (paper: 5.8x)",
        bar(ps.sim_time, scale),
        ps.sim_time,
        seq_time as f64 / ps.sim_time as f64
    )?;
    for s in &stages {
        writeln!(report, "    {s}")?;
    }

    // DOALL on the fully annotated variant.
    let full = compiler.analyze(&w.variants[0]).expect("analyzes");
    let (module, plan) = compiler
        .compile(&full, Scheme::Doall, 8, SyncMode::Lib)
        .expect("DOALL applies");
    let mut world = (w.make_world)();
    let doall =
        run_simulated(&module, &w.registry, &[plan], &mut world, &cm).expect("DOALL schedule runs");
    writeln!(
        report,
        "DOALL (out-of-order)   |{}| {} -> {:.2}x (paper: 7.6x)",
        bar(doall.sim_time, scale),
        doall.sim_time,
        seq_time as f64 / doall.sim_time as f64
    )?;
    writeln!(
        report,
        "\nOne SELF annotation separates the two parallel schedules: with it,"
    )?;
    writeln!(
        report,
        "digests print out of order (DOALL); without it, a sequential print"
    )?;
    writeln!(
        report,
        "stage preserves the sequential output order (PS-DSWP)."
    )
}
