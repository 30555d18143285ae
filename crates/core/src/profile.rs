//! The `commsetc profile` runner: execute a compiled `.cmm` program
//! against a *synthetic deterministic world* with telemetry on, yielding a
//! [`RunReport`] (stage balance, lock contention by rank, queue traffic,
//! unified counters) without the user writing any intrinsic handlers.
//!
//! The synthetic world *is* the dynamic checker's abstract model: every
//! call goes to one [`ModelWorld`] configured from the sidecar
//! ([`EffectsSpec::checker_config`]), so profile runs and check runs agree
//! on every modeled return value — hashes of `(intrinsic, args)`,
//! deterministic fresh handles, the `model size` loop bound, `model
//! stream` per-instance countdowns, and visible-write counts for
//! int-returning readers of `commutative` channels. Costs come from the
//! effects sidecar's `cost=` rows, so the DES profile reflects the
//! declared workload shape.
//!
//! Two backends:
//!
//! * the **discrete-event simulator** (default) — deterministic ticks, so
//!   profiles are bit-identical across runs and golden-testable;
//! * the **real-thread executor** (`--real`) — monotonic nanoseconds, for
//!   observing actual contention on the host.

use crate::spec::EffectsSpec;
use crate::{Analysis, Compiler, Scheme, SyncMode};
use commset_checker::ModelWorld;
use commset_interp::{run_simulated_with, run_threaded_with, ExecConfig};
use commset_ir::IntrinsicTable;
use commset_runtime::intrinsics::{IntrinsicOutcome, Registry};
use commset_runtime::World;
use commset_sim::CostModel;
use commset_telemetry::RunReport;
use std::sync::Arc;

/// World slot holding the model world, created at the first call.
const MODEL_SLOT: &str = "__profile_model";

/// Builds a handler registry for every intrinsic in `table` that
/// forwards each call to the checker's [`ModelWorld`], configured from
/// `spec`.
pub fn synthetic_registry(table: &IntrinsicTable, spec: &EffectsSpec) -> Registry {
    let model = Arc::new((table.clone(), spec.checker_config().model));
    let mut reg = Registry::new();
    for (name, _) in table.iter() {
        let (owned, model) = (name.to_string(), Arc::clone(&model));
        reg.register(name, move |world: &mut World, args| {
            let (table, cfg) = &*model;
            let m = world
                .get_mut::<Option<ModelWorld>>(MODEL_SLOT)
                .get_or_insert_with(|| ModelWorld::new(cfg.clone()));
            IntrinsicOutcome::value(m.call(table, &owned, args))
        });
    }
    reg
}

/// A fresh world carrying the slot the synthetic registry's handlers
/// keep their model world in.
pub fn synthetic_world() -> World {
    let mut w = World::new();
    w.install(MODEL_SLOT, None::<ModelWorld>);
    w
}

/// The outcome of a profiling run.
#[derive(Debug, Clone)]
pub struct ProfileOutcome {
    /// The unified telemetry report.
    pub report: RunReport,
    /// Total simulated time, when the DES backend ran (`None` under
    /// `--real`).
    pub sim_time: Option<u64>,
    /// The merged metrics registry, when `ExecConfig::metrics` was on.
    pub metrics: Option<commset_telemetry::MetricsRegistry>,
}

/// Compiles `analysis` under `(scheme, threads, sync)` and profiles one
/// run against the synthetic world with telemetry enabled.
///
/// `real` selects the real-thread executor; the default is the
/// deterministic discrete-event simulator.
///
/// # Errors
///
/// Returns the transform's applicability diagnostic or the executor's
/// failure, rendered as a string for the CLI.
pub fn run_profile(
    compiler: &Compiler,
    analysis: &Analysis,
    spec: &EffectsSpec,
    scheme: Scheme,
    threads: usize,
    sync: SyncMode,
    real: bool,
) -> Result<ProfileOutcome, String> {
    let cfg = ExecConfig {
        telemetry: true,
        ..ExecConfig::default()
    };
    run_profile_with(compiler, analysis, spec, scheme, threads, sync, real, &cfg)
}

/// [`run_profile`] with a caller-supplied [`ExecConfig`] — the hook for
/// `--metrics` (hotspot registry) and an attached event journal.
/// Telemetry is forced on regardless of `cfg.telemetry`: a profile
/// without a span report is not a profile.
///
/// # Errors
///
/// As [`run_profile`].
#[allow(clippy::too_many_arguments)]
pub fn run_profile_with(
    compiler: &Compiler,
    analysis: &Analysis,
    spec: &EffectsSpec,
    scheme: Scheme,
    threads: usize,
    sync: SyncMode,
    real: bool,
    cfg: &ExecConfig,
) -> Result<ProfileOutcome, String> {
    let (module, plan) = compiler
        .compile(analysis, scheme, threads, sync)
        .map_err(|d| d.to_string())?;
    let registry = synthetic_registry(&compiler.intrinsics, spec);
    let mut world = synthetic_world();
    let cfg = ExecConfig {
        telemetry: true,
        ..cfg.clone()
    };
    let plans = [plan];
    if real {
        let out = run_threaded_with(&module, &registry, &plans, world, &cfg)
            .map_err(|e| e.to_string())?;
        Ok(ProfileOutcome {
            report: out.telemetry.expect("telemetry was enabled"),
            sim_time: None,
            metrics: out.metrics,
        })
    } else {
        let out = run_simulated_with(
            &module,
            &registry,
            &plans,
            &mut world,
            &CostModel::default(),
            &cfg,
        )
        .map_err(|e| e.to_string())?;
        Ok(ProfileOutcome {
            report: out.telemetry.expect("telemetry was enabled"),
            sim_time: Some(out.sim_time),
            metrics: out.metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commset_lang::ast::Type;
    use commset_runtime::Value;

    fn table_and_spec() -> (IntrinsicTable, EffectsSpec) {
        let mut t = IntrinsicTable::new();
        t.register("file_count", vec![], Type::Int, &[], &[], 10);
        t.register("fs_open", vec![Type::Int], Type::Handle, &[], &["FS"], 50);
        t.mark_fresh_handle("fs_open");
        t.register(
            "fs_read",
            vec![Type::Handle],
            Type::Int,
            &["FS"],
            &["FS"],
            120,
        );
        t.register("emit", vec![Type::Int], Type::Void, &[], &["CONSOLE"], 40);
        t.register("tally", vec![Type::Int], Type::Void, &[], &["HIST"], 10);
        t.register("bucket", vec![Type::Int], Type::Int, &["HIST"], &[], 10);
        t.mark_per_instance("FS");
        let spec = EffectsSpec {
            commutative: vec!["HIST".into()],
            ..EffectsSpec::default()
        };
        (t, spec)
    }

    #[test]
    fn synthetic_world_matches_checker_model_semantics() {
        let (t, spec) = table_and_spec();
        let reg = synthetic_registry(&t, &spec);
        let mut w = synthetic_world();
        // Size query returns the default loop bound.
        assert_eq!(reg.call("file_count", &mut w, &[]).value, Value::Int(6));
        // Fresh handles are deterministic, odd, distinct per args.
        let h1 = reg.call("fs_open", &mut w, &[Value::Int(0)]).value;
        let h2 = reg.call("fs_open", &mut w, &[Value::Int(1)]).value;
        assert_ne!(h1, h2);
        assert_eq!(h1.as_int() & 1, 1);
        // Streams count down per instance key: 3 ones then a zero.
        for _ in 0..3 {
            assert_eq!(
                reg.call("fs_read", &mut w, &[Value::Int(9)]).value,
                Value::Int(1)
            );
        }
        assert_eq!(
            reg.call("fs_read", &mut w, &[Value::Int(9)]).value,
            Value::Int(0)
        );
        assert_eq!(
            reg.call("fs_read", &mut w, &[Value::Int(7)]).value,
            Value::Int(1)
        );
        // Void intrinsics return unit-ish zero.
        assert_eq!(
            reg.call("emit", &mut w, &[Value::Int(3)]).value,
            Value::Int(0)
        );
        // An int-returning reader of a commutative channel observes the
        // writes visible to it, exactly as under `commsetc check`.
        for k in 0..2 {
            reg.call("tally", &mut w, &[Value::Int(k)]);
        }
        assert_eq!(
            reg.call("bucket", &mut w, &[Value::Int(5)]).value,
            Value::Int(2)
        );
    }

    #[test]
    fn model_knobs_come_from_the_sidecar() {
        let (t, mut spec) = table_and_spec();
        spec.model_size = Some(2);
        spec.model_stream = Some(1);
        let reg = synthetic_registry(&t, &spec);
        let mut w = synthetic_world();
        assert_eq!(reg.call("file_count", &mut w, &[]).value, Value::Int(2));
        assert_eq!(
            reg.call("fs_read", &mut w, &[Value::Int(4)]).value,
            Value::Int(1)
        );
        assert_eq!(
            reg.call("fs_read", &mut w, &[Value::Int(4)]).value,
            Value::Int(0)
        );
    }
}
