//! Cross-executor parity of the one substrate semantics.
//!
//! The DES and the real-thread executor run the same runtime-special
//! semantics (`commset_interp::substrate::special`) over different
//! substrates, so a worker must record the same events on both: the same
//! number of region entries and exits, lock acquisitions and releases,
//! queue pushes and pops, transactions, world calls and exits. Only the
//! timestamps differ — and `Block`, whose emission rule is deliberately
//! clock-specific (the DES blocks once per refused request, threads
//! before every wait), so it is left out.
//!
//! Events are counted through their projections in the run's report: the
//! trace gives region, lock, queue and world-call events; `Tx` spans pair
//! each commit with its begin; `Worker` spans are the exits.

use commset_interp::{run_simulated_with, run_threaded_with, ExecConfig, WorldMode};
use commset_sim::CostModel;
use commset_telemetry::{RunReport, SpanKind, TraceEvent};
use commset_transform::Scheme;
use commset_workloads::all;
use std::collections::BTreeMap;

const WORKERS: usize = 4;

/// Per worker, the number of events of each kind.
type Counts = BTreeMap<(usize, &'static str), u64>;

fn counts(report: &RunReport) -> Counts {
    let mut out = Counts::new();
    for r in &report.trace {
        let kind = match r.event {
            TraceEvent::RegionEnter { .. } => "RegionEnter",
            TraceEvent::RegionExit { .. } => "RegionExit",
            TraceEvent::LockAcquire { .. } => "LockAcquire",
            TraceEvent::LockRelease { .. } => "LockRelease",
            TraceEvent::QueuePush { .. } => "QueuePush",
            TraceEvent::QueuePop { .. } => "QueuePop",
            TraceEvent::WorldCall { .. } => "WorldCall",
        };
        *out.entry((r.worker, kind)).or_default() += 1;
    }
    for s in &report.spans {
        let kinds: &[&'static str] = match s.kind {
            SpanKind::Tx { .. } => &["TxBegin", "TxCommit"],
            SpanKind::Worker => &["WorkerExit"],
            _ => &[],
        };
        for kind in kinds {
            *out.entry((s.worker, kind)).or_default() += 1;
        }
    }
    out
}

/// Every workload × applicable COMMSET scheme at four workers, and every
/// merge-declared DOALL cell again under delta privatization: the DES and
/// real threads record the same per-worker count of every event kind but
/// `Block`, and elide the same number of lock acquisitions.
#[test]
fn des_and_threads_record_the_same_events_per_worker() {
    let cm = CostModel::default();
    let mut cells = 0;
    let mut delta_cells = 0;
    for w in all() {
        let compiler = w.compiler();
        for spec in w.schemes.iter().filter(|s| s.commset) {
            let Ok(analysis) = compiler.analyze(&w.variants[spec.variant]) else {
                continue;
            };
            let Ok((module, plan)) = compiler.compile(&analysis, spec.scheme, WORKERS, spec.sync)
            else {
                continue;
            };
            let plans = std::slice::from_ref(&plan);
            let mut modes = vec![WorldMode::Auto];
            if spec.scheme == Scheme::Doall && w.registry.has_merges() {
                modes.push(WorldMode::Deltas);
            }
            for world in modes {
                let cell = format!("{} {} x{WORKERS} {world:?}", w.name, spec.label);
                let cfg = ExecConfig {
                    telemetry: true,
                    world,
                    ..ExecConfig::default()
                };
                let mut sim_world = (w.make_world)();
                let sim =
                    run_simulated_with(&module, &w.registry, plans, &mut sim_world, &cm, &cfg)
                        .unwrap_or_else(|e| panic!("{cell}: DES: {e}"));
                let thr = run_threaded_with(&module, &w.registry, plans, (w.make_world)(), &cfg)
                    .unwrap_or_else(|e| panic!("{cell}: threads: {e}"));
                let des_counts = counts(sim.telemetry.as_ref().expect("telemetry on"));
                let thr_counts = counts(thr.telemetry.as_ref().expect("telemetry on"));
                assert!(!des_counts.is_empty(), "{cell}: no events recorded");
                assert_eq!(des_counts, thr_counts, "{cell}: per-worker event counts");
                assert_eq!(
                    sim.stats.delta.lock_elisions, thr.stats.delta.lock_elisions,
                    "{cell}: lock elisions"
                );
                cells += 1;
                if world == WorldMode::Deltas {
                    delta_cells += 1;
                }
            }
        }
    }
    assert!(cells >= 35, "parity matrix too small: {cells} cells");
    assert!(delta_cells >= 8, "too few delta cells: {delta_cells}");
}
