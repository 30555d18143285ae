//! A reader that goes away early (`commsetc analyze ... | head -1`) must
//! not turn into a broken-pipe panic: `commsetc` stops writing and exits
//! with the verb's normal status.

use std::process::{Command, Stdio};

#[test]
fn analyze_with_pdg_exits_cleanly_with_stdout_closed() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let mut child = Command::new(env!("CARGO_BIN_EXE_commsetc"))
        .current_dir(root)
        .args([
            "analyze",
            "samples/md5sum.cmm",
            "--effects",
            "samples/md5sum.effects",
            "--pdg",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawns");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("waits");
    assert!(
        out.status.success(),
        "{:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}
