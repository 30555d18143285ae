//! Shrinker walls, with every program configured from its `.effects`
//! sidecar exactly as `commsetc check --threads 2` configures it:
//!
//! * goldens of the shrunk counterexample of the known failing fixtures
//!   and corpus entries;
//! * the equivalence wall: [`shrink_schedule`], which skips replays it
//!   can prove identical, against [`reference_shrink`], the plain greedy
//!   loop that replays every candidate flip. Both must return the same
//!   [`ShrunkSchedule`] for every completed violating schedule of every
//!   fixture, corpus entry and a seeded batch of annotation-fuzzer
//!   mutants; only the `replays` count may differ.

use commset::spec::{build_table, parse_effects};
use commset_checker::fuzz::mutations;
use commset_checker::{
    check_source, pool, prepare_campaign, render_interleaving, shrink_schedule, Campaign,
    CheckConfig, PreparedCampaign, Recording, Replay, ShrunkSchedule, Verdict,
};
use commset_ir::IntrinsicTable;
use commset_runtime::rng::SplitMix64;
use std::path::{Path, PathBuf};

fn checker_fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fixtures/corpus")
}

/// The source, intrinsic table and checker config of `dir/stem.cmm`,
/// with `--threads 2` and the sidecar's knobs.
fn load(dir: &Path, stem: &str) -> (String, IntrinsicTable, CheckConfig) {
    let read = |ext: &str| {
        let path = dir.join(format!("{stem}.{ext}"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    };
    let source = read("cmm");
    let spec = parse_effects(&read("effects")).expect("sidecar parses");
    let table = build_table(&source, &spec).expect("externs resolve");
    let mut cfg = spec.checker_config();
    cfg.nthreads = 2;
    (source, table, cfg)
}

/// The failing programs whose shrunk counterexamples are pinned, with
/// the budget and seed each is checked at (`None`: the default).
const GOLDEN_CASES: &[(&str, bool, Option<usize>, Option<u64>)] = &[
    ("md5sum_selfprint", false, None, None),
    ("ordered_emit", true, None, None),
    ("sb_litmus", true, Some(80), Some(5)),
    ("delta_ordermix", true, None, None),
];

/// Renders a report's shrunk counterexample as
/// `shrunk_counterexample_matches_golden` in `fixtures.rs` does.
fn render_shrunk(source: &str, table: &IntrinsicTable, cfg: &CheckConfig) -> String {
    let report = check_source(source, table, cfg).expect("compiles");
    let Verdict::Fail(fail) = &report.verdict else {
        panic!("{report}")
    };
    let shrunk = fail.shrunk.as_ref().expect("completed divergence shrinks");
    format!(
        "from: {}\npinned: {} of {}\n{}",
        shrunk.from, shrunk.pinned, shrunk.total, shrunk.interleaving
    )
}

/// Each case's shrunk counterexample matches its golden file next to
/// `eclat_overwide.shrunk.expected`. Regenerate with
/// `SHRINK_GOLDEN_REGEN=1 cargo test -p commset-checker`.
#[test]
fn shrunk_counterexamples_match_their_goldens() {
    for &(stem, in_corpus, budget, seed) in GOLDEN_CASES {
        let dir = if in_corpus {
            corpus_dir()
        } else {
            checker_fixture_dir()
        };
        let (source, table, mut cfg) = load(&dir, stem);
        if let Some(b) = budget {
            cfg.budget = b;
        }
        if let Some(s) = seed {
            cfg.seed = s;
        }
        let rendered = render_shrunk(&source, &table, &cfg);
        let golden_path = checker_fixture_dir().join(format!("{stem}.shrunk.expected"));
        if std::env::var_os("SHRINK_GOLDEN_REGEN").is_some() {
            std::fs::write(&golden_path, &rendered).expect("write golden");
            continue;
        }
        let expected = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
            panic!(
                "read {}: {e} (regenerate with SHRINK_GOLDEN_REGEN=1)",
                golden_path.display()
            )
        });
        assert_eq!(rendered, expected, "{stem}: shrunk counterexample drifted");
    }
}

// ------------------------------------------------------------ equivalence

/// The reference shrinker: record the spec's decision trace, check that
/// replaying it reproduces the divergence, then greedily canonicalize one
/// pinned decision at a time to a fixed point, replaying every candidate
/// flip and keeping those that still diverge.
fn reference_shrink(campaign: &Campaign, index: usize) -> Option<ShrunkSchedule> {
    let diverges = |decisions: &[Option<usize>], replays: &mut usize| {
        *replays += 1;
        let mut replay = Replay::new(decisions.to_vec());
        match campaign.run_with_scheduler(campaign.specs()[index].window, &mut replay) {
            Ok((diffs, log)) if !diffs.is_empty() => Some(log),
            _ => None,
        }
    };
    let spec = &campaign.specs()[index];
    let mut base = spec.instantiate();
    let mut recording = Recording::new(base.as_mut());
    let reproduced = matches!(
        campaign.run_with_scheduler(spec.window, &mut recording),
        Ok((diffs, _)) if !diffs.is_empty()
    );
    if !reproduced {
        return None;
    }
    let mut decisions: Vec<Option<usize>> = recording.trace.into_iter().map(Some).collect();
    let mut guard = 0;
    let mut log = diverges(&decisions, &mut guard)?;
    let mut replays = 0;
    loop {
        let mut changed = false;
        for i in 0..decisions.len() {
            if decisions[i].is_none() {
                continue;
            }
            let saved = decisions[i].take();
            match diverges(&decisions, &mut replays) {
                Some(new_log) => {
                    log = new_log;
                    changed = true;
                }
                None => decisions[i] = saved,
            }
        }
        if !changed {
            break;
        }
    }
    Some(ShrunkSchedule {
        from: spec.name(),
        total: decisions.len(),
        pinned: decisions.iter().filter(|d| d.is_some()).count(),
        interleaving: render_interleaving(&log),
        log,
        replays,
    })
}

fn ready(source: &str, table: &IntrinsicTable, cfg: &CheckConfig) -> Option<Box<Campaign>> {
    match prepare_campaign(source, table, cfg) {
        Ok(PreparedCampaign::Ready(c)) => Some(c),
        Ok(PreparedCampaign::Skipped { .. }) | Err(_) => None,
    }
}

/// Both shrinkers on every violating schedule of `campaign` that ran to
/// completion; returns `(index, shrinker's, reference's)` per schedule
/// after asserting the two agree on everything but `replays`.
fn assert_shrinkers_agree(
    what: &str,
    campaign: &Campaign,
) -> Vec<(usize, ShrunkSchedule, ShrunkSchedule)> {
    let mut out = Vec::new();
    for o in pool::run_specs(campaign) {
        if o.diffs.is_empty() || o.error.is_some() {
            continue;
        }
        let fast = shrink_schedule(campaign, o.index);
        let reference = reference_shrink(campaign, o.index);
        let (Some(fast), Some(reference)) = (fast, reference) else {
            panic!(
                "{what}: `{}` did not reproduce under both shrinkers",
                o.name
            );
        };
        assert_eq!(
            ShrunkSchedule {
                replays: 0,
                ..fast.clone()
            },
            ShrunkSchedule {
                replays: 0,
                ..reference.clone()
            },
            "{what}: shrinkers disagree on `{}`",
            o.name
        );
        assert!(
            fast.replays <= reference.replays,
            "{what}: `{}` replayed more than the reference",
            o.name
        );
        out.push((o.index, fast, reference));
    }
    out
}

const FIXTURES: &[&str] = &[
    "accumulate_ok",
    "delta_hist",
    "eclat_overwide",
    "eclat_pred",
    "md5sum_det",
    "md5sum_ok",
    "md5sum_selfprint",
];

const CORPUS: &[&str] = &["delta_ordermix", "ordered_emit", "sb_litmus"];

#[test]
fn shrinker_matches_the_reference_on_every_fixture_and_corpus_entry() {
    let mut shrunk = 0;
    for &stem in FIXTURES {
        let (source, table, cfg) = load(&checker_fixture_dir(), stem);
        let campaign = ready(&source, &table, &cfg).expect("fixture campaign is ready");
        let agreed = assert_shrinkers_agree(stem, &campaign);
        shrunk += agreed.len();
        match stem {
            "md5sum_selfprint" => {
                // The first violation is the canonical schedule: every
                // recorded pick is already `ready[0]`, so no flip needs a
                // replay.
                let (index, fast, reference) = &agreed[0];
                assert_eq!(campaign.specs()[*index].name(), "canonical");
                assert_eq!((fast.pinned, fast.total), (0, 42));
                assert_eq!(fast.replays, 0);
                assert_eq!(reference.replays, 42);
            }
            "eclat_overwide" => {
                let (_, fast, reference) = &agreed[0];
                assert_eq!(fast.from, "reverse");
                assert!(
                    fast.replays < reference.replays,
                    "{} vs {}",
                    fast.replays,
                    reference.replays
                );
            }
            _ => {}
        }
    }
    for &stem in CORPUS {
        let (source, table, mut cfg) = load(&corpus_dir(), stem);
        cfg.budget = cfg.full_family_budget();
        let campaign = ready(&source, &table, &cfg).expect("corpus campaign is ready");
        let agreed = assert_shrinkers_agree(stem, &campaign);
        assert!(!agreed.is_empty(), "{stem}: corpus entries fail");
        shrunk += agreed.len();
    }
    assert!(shrunk >= 50, "only {shrunk} violations shrunk");
}

/// Every annotation-fuzzer mutant of every fixture and corpus entry,
/// each checked at 2 and 3 workers under seeded chaos seeds: every
/// violation of every mutant campaign that fails is shrunk both ways.
#[test]
fn shrinker_matches_the_reference_on_failing_fuzz_mutants() {
    let mut rng = SplitMix64::new(0x5eed_f022);
    let (mut failing, mut shrunk) = (0, 0);
    let programs = FIXTURES
        .iter()
        .map(|s| (checker_fixture_dir(), *s))
        .chain(CORPUS.iter().map(|s| (corpus_dir(), *s)));
    for (dir, stem) in programs {
        let (source, table, base) = load(&dir, stem);
        for m in mutations(&source) {
            let mutated = m.apply(&source);
            for nthreads in [2, 2, 3, 3] {
                let cfg = CheckConfig {
                    nthreads,
                    seed: rng.next_u64(),
                    ..base.clone()
                };
                let Some(campaign) = ready(&mutated, &table, &cfg) else {
                    continue;
                };
                let what = format!("{stem} {m} x{nthreads} seed {:#x}", cfg.seed);
                let agreed = assert_shrinkers_agree(&what, &campaign).len();
                failing += usize::from(agreed > 0);
                shrunk += agreed;
            }
        }
    }
    assert!(
        failing >= 4 && shrunk >= 40,
        "only {shrunk} violations in {failing} failing mutant campaigns"
    );
}
