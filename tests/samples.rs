//! The `samples/` directory (standalone `.cmm` + effects sidecars for the
//! `commsetc` CLI) must stay compilable and parallelizable as the tool's
//! documentation claims.

use commset::spec::{build_table, parse_effects};
use commset::{Compiler, Scheme, SyncMode};

fn load(name: &str) -> (String, String) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../samples");
    let src = std::fs::read_to_string(format!("{dir}/{name}.cmm"))
        .unwrap_or_else(|e| panic!("{name}.cmm: {e}"));
    let fx = std::fs::read_to_string(format!("{dir}/{name}.effects"))
        .unwrap_or_else(|e| panic!("{name}.effects: {e}"));
    (src, fx)
}

fn compiler_for(name: &str) -> (Compiler, String) {
    let (src, fx) = load(name);
    let spec = parse_effects(&fx).expect("sidecar parses");
    let table = build_table(&src, &spec).expect("table builds");
    let irrevocable: Vec<&str> = spec.irrevocable.iter().map(String::as_str).collect();
    (Compiler::new(table).with_irrevocable(&irrevocable), src)
}

#[test]
fn md5sum_sample_analyzes_and_schedules() {
    let (c, src) = compiler_for("md5sum");
    let a = c.analyze(&src).expect("analyzes");
    assert!(a.doall_legal(), "{}", a.pdg_dump());
    let ranked = c.compile_all(&a, 8);
    assert!(!ranked.is_empty());
    // FS and CONSOLE are irrevocable: no TM schedule may appear.
    assert!(
        ranked.iter().all(|(_, sync, _, _)| *sync != SyncMode::Tm),
        "irrevocable channels reject TM"
    );
    // The emit path (transformed AST) must print without panicking.
    let pp = c
        .compile_to_ast(&a, Scheme::Doall, 8, SyncMode::Spin)
        .expect("DOALL emits");
    let printed = commset_lang::printer::print_program(&pp.program);
    assert!(printed.contains("__lock_acquire"), "sync engine ran");
    assert!(
        printed.contains("__par_invoke"),
        "main dispatches the section"
    );
}

#[test]
fn histogram_sample_uses_reduction_and_predicated_self() {
    let (c, src) = compiler_for("histogram");
    let a = c.analyze(&src).expect("analyzes");
    assert!(a.doall_legal(), "{}", a.pdg_dump());
    let (_, plan) = c
        .compile(&a, Scheme::Doall, 8, SyncMode::Spin)
        .expect("DOALL applies");
    // The NoSync predicated-Self set takes no lock; the reduction and the
    // SELF tally do.
    assert!(plan.locks.iter().all(|l| l.set != "TSET"));
    assert!(plan.locks.iter().any(|l| l.set == "__reduction"));
}

#[test]
fn samples_without_pragmas_do_not_parallelize() {
    for name in ["md5sum", "histogram"] {
        let (c, src) = compiler_for(name);
        let plain = commset_workloads::framework::strip_pragmas(&src);
        let a = c.analyze(&plain).expect("plain source analyzes");
        assert!(
            !a.doall_legal(),
            "{name}: without annotations the loop must stay sequential"
        );
    }
}

/// `--sync tm` on md5sum is rejected (FS and CONSOLE are irrevocable)
/// with one diagnostic, naming the same member and channel on every run,
/// and the run-time error status.
#[test]
fn tm_rejection_on_md5sum_is_one_exact_diagnostic() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    for _ in 0..5 {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_commsetc"))
            .current_dir(root)
            .args([
                "profile",
                "samples/md5sum.cmm",
                "--effects",
                "samples/md5sum.effects",
                "--scheme",
                "dswp",
                "--sync",
                "tm",
                "--threads",
                "4",
            ])
            .output()
            .expect("runs commsetc");
        assert_eq!(out.status.code(), Some(1));
        assert!(out.stdout.is_empty());
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            "error: commset error: transactions are not applicable: member \
             `__commset_region_1` performs irrevocable I/O on channel `FS`\n"
        );
    }
}
