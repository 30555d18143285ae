//! A reader that goes away early (`figure6 | head -1`) must not turn
//! into a broken-pipe panic: the binaries stop writing and exit 0.

use std::process::{Command, Stdio};

fn exits_cleanly_with_stdout_closed(bin: &str) {
    exits_cleanly_with_args(bin, &[]);
}

/// Runs `bin args` from the repository root with stdout closed.
fn exits_cleanly_with_args(bin: &str, args: &[&str]) {
    let mut child = Command::new(bin)
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawns");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("waits");
    assert!(
        out.status.success(),
        "{bin} {args:?}: {:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn figure6_exits_cleanly_with_stdout_closed() {
    exits_cleanly_with_stdout_closed(env!("CARGO_BIN_EXE_figure6"));
}

#[test]
fn table2_exits_cleanly_with_stdout_closed() {
    exits_cleanly_with_stdout_closed(env!("CARGO_BIN_EXE_table2"));
}

#[test]
fn table1_exits_cleanly_with_stdout_closed() {
    exits_cleanly_with_stdout_closed(env!("CARGO_BIN_EXE_table1"));
}

#[test]
fn figure3_exits_cleanly_with_stdout_closed() {
    exits_cleanly_with_stdout_closed(env!("CARGO_BIN_EXE_figure3"));
}

#[test]
fn ablation_exits_cleanly_with_stdout_closed() {
    exits_cleanly_with_stdout_closed(env!("CARGO_BIN_EXE_ablation"));
}

/// `perf --diff` is the mode that writes its report to stdout; diffing
/// the committed baseline against itself is clean (status 0).
#[test]
fn perf_diff_exits_cleanly_with_stdout_closed() {
    exits_cleanly_with_args(
        env!("CARGO_BIN_EXE_perf"),
        &[
            "--diff",
            "BENCH_PARALLEL.json",
            "--against",
            "BENCH_PARALLEL.json",
        ],
    );
}
