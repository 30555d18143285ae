//! `check`: one op is one checker campaign over a fixture of
//! `crates/checker/fixtures`, configured from its `.effects` sidecar as
//! `commsetc check --threads 2` does: sidecar parsing and merge-law
//! validation, campaign preparation, schedule exploration on the pool,
//! and the merged report. The chaos-schedule seed comes from the
//! workload seed.
//!
//! Reference: each fixture's known verdict, as the checker's own fixture
//! tests pin it — `eclat_overwide` and `md5sum_selfprint` must fail, the
//! other five must pass.

use crate::common::{bc_insts, totals_with_modeled};
use crate::metrics::Values;
use crate::stats::ratio;
use crate::trace::Tracer;
use crate::{Op, Totals, Workload};
use commset::merge_law::validate_custom_merges;
use commset::spec::{build_table, parse_effects};
use commset::Compiler;
use commset_checker::{pool, prepare_campaign, PreparedCampaign, Verdict};
use commset_interp::BcModule;
use std::time::Instant;

/// Workers in the checked program.
const THREADS: usize = 2;
/// Checker pool threads: `commsetc check`'s default, which explores on
/// the calling thread.
const JOBS: usize = 1;

/// Every fixture (file stem) with its known verdict: true when the
/// checker must report a violation.
pub const KNOWN_VERDICTS: &[(&str, bool)] = &[
    ("accumulate_ok", false),
    ("delta_hist", false),
    ("eclat_overwide", true),
    ("eclat_pred", false),
    ("md5sum_det", false),
    ("md5sum_ok", false),
    ("md5sum_selfprint", true),
];

/// A checker fixture and its known verdict.
#[derive(Debug, Clone)]
pub struct Fixture {
    /// File stem.
    pub name: &'static str,
    /// The Cmm program.
    pub source: String,
    /// Its effects sidecar.
    pub effects: String,
    /// True when the checker must report a violation.
    pub must_fail: bool,
}

/// Reads every fixture of [`KNOWN_VERDICTS`] from the checker's fixture
/// directory.
///
/// # Errors
///
/// Returns the unreadable path.
pub fn load_fixtures() -> Result<Vec<Fixture>, String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../crates/checker/fixtures");
    let read = |stem: &str, ext: &str| {
        let path = dir.join(format!("{stem}.{ext}"));
        std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
    };
    KNOWN_VERDICTS
        .iter()
        .map(|&(name, must_fail)| {
            Ok(Fixture {
                name,
                source: read(name, "cmm")?,
                effects: read(name, "effects")?,
                must_fail,
            })
        })
        .collect()
}

/// Layer counters over the traced ops.
#[derive(Debug, Default)]
struct Layers {
    ops: u64,
    schedules: u64,
    steps: u64,
    explore_ns: u64,
}

/// The `check` workload.
pub struct CheckBench {
    fixtures: Vec<Fixture>,
    chaos_seed: u64,
    layers: Layers,
}

impl CheckBench {
    /// Reads the fixtures; the chaos seed derives from `seed`.
    ///
    /// # Errors
    ///
    /// Returns an unreadable fixture path.
    pub fn setup(seed: u64) -> Result<Self, String> {
        Ok(CheckBench::with_fixtures(load_fixtures()?, seed))
    }

    /// A `check` workload over `fixtures` (tests use this to state a
    /// wrong expected verdict).
    pub fn with_fixtures(fixtures: Vec<Fixture>, seed: u64) -> Self {
        let chaos_seed = commset_runtime::rng::SplitMix64::new(seed).next_u64();
        CheckBench {
            fixtures,
            chaos_seed,
            layers: Layers::default(),
        }
    }

    /// One campaign; returns whether the checker reported a violation.
    fn campaign(&mut self, f: &Fixture, tr: &mut Tracer) -> Result<bool, String> {
        let (spec, table) = tr.scope("core.spec_parse", || {
            let spec = parse_effects(&f.effects)?;
            let table = build_table(&f.source, &spec)?;
            validate_custom_merges(&f.source, &spec, &table).map_err(|d| d.to_string())?;
            Ok::<_, String>((spec, table))
        })?;
        let mut cfg = spec.checker_config();
        cfg.nthreads = THREADS;
        cfg.jobs = JOBS;
        cfg.seed = self.chaos_seed;
        let prepared = tr
            .scope("checker.prepare", || {
                prepare_campaign(&f.source, &table, &cfg)
            })
            .map_err(|d| d.to_string())?;
        let campaign = match prepared {
            PreparedCampaign::Ready(c) => c,
            PreparedCampaign::Skipped { reason, .. } => return Err(format!("skipped: {reason}")),
        };
        let t = Instant::now();
        let outcomes = tr.scope("checker.explore", || pool::run_specs(&campaign));
        let explore_ns = t.elapsed().as_nanos() as u64;
        let report = tr.scope("checker.merge", || campaign.merge(&outcomes));
        if tr.is_on() {
            let m = campaign.metrics(&outcomes);
            let l = &mut self.layers;
            l.ops += 1;
            l.schedules += m.counters().get("checker.schedules").copied().unwrap_or(0);
            l.steps += m.counters().get("checker.steps").copied().unwrap_or(0);
            l.explore_ns += explore_ns;
        }
        match report.verdict {
            Verdict::Pass { .. } => Ok(false),
            Verdict::Fail(_) => Ok(true),
            Verdict::Skipped { reason } => Err(format!("skipped: {reason}")),
        }
    }
}

impl Workload for CheckBench {
    fn jobs(&self) -> usize {
        self.fixtures.len()
    }

    fn run(&mut self, j: usize, tr: &mut Tracer) -> Op {
        let f = self.fixtures[j].clone();
        let span = tr.enter("op");
        let t = Instant::now();
        let out = self.campaign(&f, tr);
        let nanos = t.elapsed().as_nanos() as u64;
        tr.exit(span);
        let error = tr.scope("workloads.validate", || match out {
            Ok(failed) if failed == f.must_fail => None,
            Ok(failed) => Some(format!(
                "{}: verdict {} but the fixture is known to {}",
                f.name,
                if failed { "FAIL" } else { "PASS" },
                if f.must_fail { "fail" } else { "pass" }
            )),
            Err(e) => Some(format!("{}: {e}", f.name)),
        });
        Op { nanos, error }
    }

    fn totals(&mut self) -> Totals {
        let mut problems = Vec::new();
        let mut code_size = 0usize;
        for f in &self.fixtures {
            let module = parse_effects(&f.effects)
                .and_then(|spec| build_table(&f.source, &spec))
                .and_then(|table| {
                    let c = Compiler::new(table);
                    let a = c.analyze(&f.source).map_err(|d| d.to_string())?;
                    c.compile_sequential(&a).map_err(|d| d.to_string())
                });
            match module {
                Ok(m) => code_size += bc_insts(&BcModule::compile(&m)),
                Err(e) => problems.push(format!("{}: {e}", f.name)),
            }
        }
        totals_with_modeled(code_size, &commset_workloads::all(), problems)
    }

    fn layers(&self, out: &mut Values) {
        let l = &self.layers;
        let ops = l.ops as f64;
        out.set("checker.schedules", ratio(l.schedules as f64, ops));
        out.set("checker.steps", ratio(l.steps as f64, ops));
        out.set(
            "checker.steps_per_s",
            ratio(l.steps as f64, l.explore_ns as f64 / 1e9),
        );
    }
}
