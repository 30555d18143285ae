//! A reader that goes away early (`commsetc analyze ... | head -1`) must
//! not turn into a broken-pipe panic: `commsetc` stops writing and exits
//! with the verb's normal status.

use std::process::{Command, Stdio};

fn exits_cleanly_with_stdout_closed(args: &[&str]) {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let mut child = Command::new(env!("CARGO_BIN_EXE_commsetc"))
        .current_dir(root)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawns");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("waits");
    assert!(
        out.status.success(),
        "{args:?}: {:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn analyze_with_pdg_exits_cleanly_with_stdout_closed() {
    exits_cleanly_with_stdout_closed(&[
        "analyze",
        "samples/md5sum.cmm",
        "--effects",
        "samples/md5sum.effects",
        "--pdg",
    ]);
}

#[test]
fn check_exits_cleanly_with_stdout_closed() {
    exits_cleanly_with_stdout_closed(&[
        "check",
        "crates/checker/fixtures/md5sum_ok.cmm",
        "--effects",
        "crates/checker/fixtures/md5sum_ok.effects",
        "--threads",
        "2",
        "--budget",
        "16",
    ]);
}

/// `check` has no engine selector: `--engine` is an unknown flag,
/// reported with the usage message and exit status 2.
#[test]
fn check_rejects_the_engine_flag_with_a_usage_error() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let out = Command::new(env!("CARGO_BIN_EXE_commsetc"))
        .current_dir(root)
        .args([
            "check",
            "crates/checker/fixtures/md5sum_ok.cmm",
            "--engine",
            "tree-walk",
        ])
        .output()
        .expect("runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown flag `--engine`"), "{stderr}");
    assert!(stderr.contains("usage: commsetc"), "{stderr}");
}
