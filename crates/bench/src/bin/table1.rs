//! Regenerates Table 1: the programming-model comparison matrix.
//!
//! Run: `cargo run -p commset-bench --bin table1`

use commset_bench::write_report;
use std::process::ExitCode;

fn main() -> ExitCode {
    write_report(|out| {
        writeln!(
            out,
            "Table 1: COMMSET vs prior semantic-commutativity systems\n"
        )?;
        write!(out, "{}", commset_bench::table1::render())?;
        writeln!(
            out,
            "\n(The CommSet column claims are enforced by this repository:"
        )?;
        writeln!(
            out,
            " predication, commuting blocks, group sets and automatic"
        )?;
        writeln!(
            out,
            " concurrency control are all exercised by the workloads.)"
        )
    })
}
