//! A reader that goes away early (`commsetc analyze ... | head -1`) must
//! not turn into a broken-pipe panic: `commsetc` stops writing and exits
//! with the verb's normal status.

use std::process::{Command, Stdio};

/// Runs `commsetc args` from the repository root with stdout closed and
/// asserts it exits with `code`, the verb's normal status.
fn exits_with_stdout_closed(args: &[&str], code: i32) {
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
    assert_eq!(
        out.status.code(),
        Some(code),
        "{args:?}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn exits_cleanly_with_stdout_closed(args: &[&str]) {
    exits_with_stdout_closed(args, 0);
}

/// The md5sum sample under DSWP at 4 workers, after the verb.
fn md5sum_dswp<'a>(verb: &'a str, extra: &[&'a str]) -> Vec<&'a str> {
    let mut args = vec![
        verb,
        "samples/md5sum.cmm",
        "--effects",
        "samples/md5sum.effects",
        "--scheme",
        "dswp",
        "--threads",
        "4",
    ];
    args.extend_from_slice(extra);
    args
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

#[test]
fn schedules_exits_cleanly_with_stdout_closed() {
    exits_cleanly_with_stdout_closed(&[
        "schedules",
        "samples/md5sum.cmm",
        "--effects",
        "samples/md5sum.effects",
        "--threads",
        "4",
    ]);
}

#[test]
fn profile_exits_cleanly_with_stdout_closed() {
    exits_cleanly_with_stdout_closed(&md5sum_dswp("profile", &["--metrics"]));
    exits_cleanly_with_stdout_closed(&md5sum_dswp("profile", &["--recover"]));
}

#[test]
fn report_exits_cleanly_with_stdout_closed() {
    exits_cleanly_with_stdout_closed(&md5sum_dswp("report", &[]));
}

/// A DOALL loop whose worker divides by zero: the supervised profile
/// fails terminally (status 1) and drops a bundle that `replay`
/// reproduces (status 0), both with stdout closed.
#[test]
fn failing_profile_and_replay_exit_normally_with_stdout_closed() {
    let dir = std::env::temp_dir().join("commset-cli-closed-stdout-replay");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let program = dir.join("div.cmm");
    std::fs::write(
        &program,
        "extern void emit(int v);\n\
         int main() {\n    int n = 8;\n    \
         for (int i = 0; i < n; i = i + 1) {\n        \
         #pragma CommSet(SELF)\n        \
         { emit(100 / (i - 3)); }\n    }\n    return 0;\n}\n",
    )
    .expect("write program");
    let repro = dir.join("repro");
    exits_with_stdout_closed(
        &[
            "profile",
            program.to_str().expect("utf-8 path"),
            "--scheme",
            "doall",
            "--threads",
            "4",
            "--recover",
            "--repro-dir",
            repro.to_str().expect("utf-8 path"),
        ],
        1,
    );
    let bundle = std::fs::read_dir(&repro)
        .expect("the failing run wrote a bundle directory")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| p.to_string_lossy().ends_with(".repro.json"))
        .expect("the failing run dropped a bundle");
    exits_cleanly_with_stdout_closed(&["replay", bundle.to_str().expect("utf-8 path")]);
    let _ = std::fs::remove_dir_all(&dir);
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
