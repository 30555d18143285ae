//! Counterexample shrinking: minimize a violating schedule before
//! rendering it.
//!
//! A delay-grid or chaos schedule that exposes a violation usually
//! contains many scheduling decisions that are irrelevant to the bug.
//! The shrinker re-runs the failing spec under a [`Recording`] scheduler
//! to capture its decision trace, then greedily canonicalizes one
//! decision at a time (replacing it with "pick the lowest-numbered ready
//! worker") and keeps each flip that still reproduces the divergence.
//! The loop runs to a fixed point, so the result is *locally minimal*:
//! re-canonicalizing any single remaining pinned decision makes the
//! violation disappear.
//!
//! Everything here is deterministic — the model world and the [`Replay`]
//! scheduler are — so shrinking the same failure twice yields the same
//! minimal schedule, which is what makes the shrunk diagnostic goldenable.
//!
//! Determinism also lets the shrinker skip replays whose outcome it
//! already knows. [`Replay`] records which of its picks returned
//! `ready[0]`. Canonicalizing a decision whose pick in the current
//! diverging run was already `ready[0]` — or that lies past the run's last
//! pick — leaves every pick of the run unchanged, so the replay would be
//! that same run: the flip is accepted without running it.

use crate::exec::{render_interleaving, Recording, RegionExec, Replay};
use crate::explore::Campaign;

/// A locally-minimal reproduction of a schedule violation.
#[derive(Debug, Clone, PartialEq)]
pub struct ShrunkSchedule {
    /// The schedule the shrinker started from.
    pub from: String,
    /// Total scheduling decisions in the recorded trace.
    pub total: usize,
    /// Decisions still pinned to the original (non-canonical) choice;
    /// the rest were canonicalized away.
    pub pinned: usize,
    /// The minimal schedule's region interleaving, rendered.
    pub interleaving: String,
    /// The minimal schedule's region log.
    pub log: Vec<RegionExec>,
    /// Candidate flips the fixed-point loop actually replayed (not
    /// rendered): flips it proved identical are not counted, nor is the
    /// reproduction check of the recorded trace.
    pub replays: usize,
}

/// A replay that still diverged: its region log and, per pick, whether
/// the pick was `ready[0]`.
struct DivergingRun {
    log: Vec<RegionExec>,
    canonical: Vec<bool>,
}

impl DivergingRun {
    /// True if canonicalizing decision `i` provably replays this very
    /// run: its pick `i` was already `ready[0]`, or it made no pick `i`.
    fn unchanged_by_dropping(&self, i: usize) -> bool {
        self.canonical.get(i).copied().unwrap_or(true)
    }
}

/// Runs the decision list and reports the divergence it still produces,
/// if any. Aborting runs do not count as reproductions: we shrink a
/// *divergence*, and trading it for a deadlock changes the bug.
fn still_diverges(
    campaign: &Campaign,
    window: Option<usize>,
    decisions: &[Option<usize>],
) -> Option<DivergingRun> {
    let mut replay = Replay::new(decisions.to_vec());
    match campaign.run_with_scheduler(window, &mut replay) {
        Ok((diffs, log)) if !diffs.is_empty() => Some(DivergingRun {
            log,
            canonical: replay.canonical,
        }),
        _ => None,
    }
}

/// Shrinks the violating spec at `index` to a locally-minimal schedule.
/// Returns `None` if the failure does not reproduce under recording
/// (which would indicate nondeterminism and deserves the raw report).
pub fn shrink_schedule(campaign: &Campaign, index: usize) -> Option<ShrunkSchedule> {
    let spec = &campaign.specs()[index];
    let mut base = spec.instantiate();
    let mut recording = Recording::new(base.as_mut());
    let reproduced = match campaign.run_with_scheduler(spec.window, &mut recording) {
        Ok((diffs, _)) => !diffs.is_empty(),
        Err(_) => false,
    };
    let trace = recording.trace;
    if !reproduced {
        return None;
    }

    let mut decisions: Vec<Option<usize>> = trace.into_iter().map(Some).collect();
    // Replaying the recorded trace must reproduce it (the nondeterminism
    // guard). `run` is always the run of the current `decisions`.
    let mut run = still_diverges(campaign, spec.window, &decisions)?;
    let mut replays = 0;

    // Greedy canonicalization to a fixed point. Each pass tries to drop
    // every remaining pinned decision once; a successful drop can unlock
    // earlier ones, hence the outer loop.
    loop {
        let mut changed = false;
        for i in 0..decisions.len() {
            if decisions[i].is_none() {
                continue;
            }
            let saved = decisions[i].take();
            if run.unchanged_by_dropping(i) {
                // The replay would be `run` again, which diverges.
                changed = true;
                continue;
            }
            replays += 1;
            match still_diverges(campaign, spec.window, &decisions) {
                Some(next) => {
                    run = next;
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
        interleaving: render_interleaving(&run.log),
        log: run.log,
        replays,
    })
}
