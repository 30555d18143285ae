//! `perfbench --workload NAME [--seed N] [--seconds N] [--trace 0|1]`
//!
//! Runs one workload and prints a table of its metrics, then the result
//! as one JSON object on the last line of standard output. Exit codes:
//! 0 on a completed run (also when standard output closes early), 1 when
//! the run cannot complete, 2 on a usage error.

use commset_perfbench::args::{parse, USAGE};
use commset_perfbench::runner;
use std::io::{ErrorKind, Write};
use std::process::ExitCode;

fn print(out: &mut impl Write, line: &str) -> Result<(), ExitCode> {
    match writeln!(out, "{line}") {
        Ok(()) => Ok(()),
        // A reader that stopped early (`| head`) is not a failure.
        Err(e) if e.kind() == ErrorKind::BrokenPipe => Err(ExitCode::SUCCESS),
        Err(_) => Err(ExitCode::FAILURE),
    }
}

fn note(line: &str) {
    let _ = writeln!(std::io::stderr(), "{line}");
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            note(&format!("perfbench: {e}"));
            note(USAGE);
            return ExitCode::from(2);
        }
    };
    let outcome = match runner::run(&args.workload, args.seed, args.seconds, args.trace) {
        Ok(o) => o,
        Err(e) => {
            note(&format!("perfbench: {e}"));
            return ExitCode::FAILURE;
        }
    };
    let mut lines = outcome.notes.clone();
    lines.extend(
        outcome
            .metrics
            .iter()
            .map(|(name, v, unit)| format!("{name:<32} {v:>16.6} {unit}")),
    );
    lines.push(outcome.json());
    let mut out = std::io::stdout().lock();
    for line in &lines {
        if let Err(code) = print(&mut out, line) {
            return code;
        }
    }
    match out.flush() {
        Err(e) if e.kind() != ErrorKind::BrokenPipe => ExitCode::FAILURE,
        _ => ExitCode::SUCCESS,
    }
}
