//! Golden Figure 6 and Table 2: both binaries' stdout must match the
//! checked-in listings byte for byte. Every number in them comes out of
//! the discrete-event simulator, so any change to the modeled schedule,
//! the cost model or the transforms shows up here as a readable diff.
//!
//! To refresh after an intentional change, rerun with
//! `FIGURES_GOLDEN_REGEN=1` and review the diff.

use std::process::Command;

fn check_golden(bin: &str, name: &str) {
    let path = format!(
        "{}/../../tests/golden/{name}.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    let out = Command::new(bin).output().expect("spawns");
    assert!(out.status.success(), "{name} failed: {:?}", out.status);
    let got = String::from_utf8(out.stdout).expect("utf-8");
    if std::env::var_os("FIGURES_GOLDEN_REGEN").is_some() {
        std::fs::write(&path, &got).unwrap_or_else(|e| panic!("write {path}: {e}"));
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    assert!(
        got == want,
        "{name} stdout differs from {path}\n--- got ---\n{got}--- want ---\n{want}"
    );
}

#[test]
fn figure6_matches_golden() {
    check_golden(env!("CARGO_BIN_EXE_figure6"), "figure6");
}

#[test]
fn table2_matches_golden() {
    check_golden(env!("CARGO_BIN_EXE_table2"), "table2");
}
