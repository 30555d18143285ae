//! Golden DES schedules: the full trace-record stream (worker, clock,
//! event) of three Figure 6 cells must match a checked-in listing byte
//! for byte. The cells are chosen to exercise every scheduler decision
//! the discrete-event executor makes:
//!
//! * kmeans Comm-DOALL (Mutex) x8 — eight workers contend on one region
//!   lock and start at the same clock, so equal-clock ties and lock
//!   hand-offs decide the interleaving;
//! * md5sum Comm-PS-DSWP (Lib) x8 — a pipeline whose consumers stall on
//!   empty queues and are woken by producers;
//! * kmeans Comm-DOALL (TM) x8 — optimistic transactions that abort and
//!   redo their work.
//!
//! Any change to which worker the executor advances, or when, shows up
//! here as a readable diff. To refresh after an intentional model change,
//! rerun with `DES_SCHEDULE_GOLDEN_REGEN=1` and review the diff.

use commset_interp::{ExecConfig, SimStats};
use commset_sim::CostModel;
use commset_workloads::Workload;
use std::fmt::Write;

fn golden_path(name: &str) -> String {
    format!(
        "{}/../../tests/golden/des_{name}.trace",
        env!("CARGO_MANIFEST_DIR")
    )
}

/// Runs `label` of `w` at eight simulated threads with telemetry on and
/// renders the run's trace one record per line.
fn traced(w: &Workload, label: &str) -> (String, SimStats) {
    let spec = w
        .schemes
        .iter()
        .find(|s| s.label == label)
        .unwrap_or_else(|| panic!("{}: no scheme `{label}`", w.name));
    let compiler = w.compiler();
    let source = if spec.commset {
        w.variants[spec.variant].clone()
    } else {
        w.plain_source()
    };
    let analysis = compiler
        .analyze(&source)
        .unwrap_or_else(|e| panic!("{} {label}: {e}", w.name));
    let (module, plan) = compiler
        .compile(&analysis, spec.scheme, 8, spec.sync)
        .unwrap_or_else(|e| panic!("{} {label}: {e}", w.name));
    let cfg = ExecConfig {
        telemetry: true,
        ..ExecConfig::default()
    };
    let out = commset_interp::run_simulated_with(
        &module,
        &w.registry,
        &[plan],
        &mut (w.make_world)(),
        &CostModel::default(),
        &cfg,
    )
    .unwrap_or_else(|e| panic!("{} {label}: {e}", w.name));
    let mut text = String::new();
    for r in out.telemetry.expect("telemetry on").trace {
        writeln!(text, "{} {} {}", r.worker, r.time, r.event).unwrap();
    }
    (text, out.stats)
}

fn check_golden(name: &str, got: &str) {
    let path = golden_path(name);
    if std::env::var_os("DES_SCHEDULE_GOLDEN_REGEN").is_some() {
        std::fs::write(&path, got).unwrap_or_else(|e| panic!("write {path}: {e}"));
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    if got != want {
        let (n, (g, w)) = got
            .lines()
            .zip(want.lines())
            .enumerate()
            .find(|(_, (g, w))| g != w)
            .map(|(n, p)| (n + 1, p))
            .unwrap_or((got.lines().count().min(want.lines().count()) + 1, ("", "")));
        panic!(
            "{name}: DES schedule differs from {path} at record {n}:\n  got:  {g}\n  want: {w}\n\
             ({} records vs {} golden)",
            got.lines().count(),
            want.lines().count()
        );
    }
}

/// Workers that record an event at the same tick: the scheduler had to
/// break a clock tie by worker index.
fn has_equal_clock_events(trace: &str) -> bool {
    let mut seen = std::collections::HashMap::new();
    trace.lines().any(|l| {
        let mut it = l.split(' ');
        let (w, t) = (it.next().unwrap(), it.next().unwrap());
        seen.insert(t.to_string(), w.to_string())
            .is_some_and(|prev| prev != w)
    })
}

#[test]
fn lock_contended_doall_schedule_is_pinned() {
    let (trace, stats) = traced(&commset_workloads::kmeans::workload(), "Comm-DOALL (Mutex)");
    assert!(
        has_equal_clock_events(&trace),
        "the cell must exercise ties"
    );
    assert!(
        stats.lock_contention.iter().any(|(_, r)| *r > 0.0),
        "the cell must contend: {:?}",
        stats.lock_contention
    );
    check_golden("kmeans_doall_mutex8", &trace);
}

#[test]
fn stalling_pipeline_schedule_is_pinned() {
    let (trace, stats) = traced(&commset_workloads::md5sum::workload(), "Comm-PS-DSWP (Lib)");
    assert!(
        stats.queue_pushes > 0 && stats.queue_stalls > 0,
        "{stats:?}"
    );
    check_golden("md5sum_psdswp_lib8", &trace);
}

#[test]
fn aborting_tm_schedule_is_pinned() {
    let (trace, stats) = traced(&commset_workloads::kmeans::workload(), "Comm-DOALL (TM)");
    assert!(stats.tm_aborts > 0 && stats.tm_commits > 0, "{stats:?}");
    check_golden("kmeans_doall_tm8", &trace);
}
