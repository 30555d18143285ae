//! Checker verdicts and their rendering.
//!
//! The explorer condenses a whole schedule campaign into a
//! [`CheckReport`]: the verdict, the commutative-region catalog the
//! analysis exported, the (deterministic) list of explored schedules, and
//! — when anything diverged — the full list of violating schedules with
//! their partition indices. A failure pinpoints the first schedule whose
//! observable history diverged from the sequential oracle and
//! pretty-prints both interleavings, the first divergent region pair —
//! the paper's "which two members did not commute" feedback — a
//! locally-minimal shrunk schedule, and one `REPLAY:` line that names the
//! exact knobs (`--seed`, `--budget`, `--jobs`, `--threads`) that
//! reproduce the violation byte-for-byte.

use crate::exec::RegionExec;
use crate::shrink::ShrunkSchedule;
use commset_analysis::RegionInfo;
use commset_telemetry::ChromeTraceBuilder;

/// Why a schedule's outcome differed from the oracle.
#[derive(Debug, Clone)]
pub struct CheckFailure {
    /// The parallelization scheme under test (e.g. `DOALL`).
    pub scheme: String,
    /// The offending schedule's name (e.g. `delay(w1,2)`).
    pub schedule: String,
    /// The partition (fixed-size chunk of the schedule family) the
    /// offending schedule belongs to — stable across `--jobs` values.
    pub partition: usize,
    /// Channel-by-channel (and global-by-global) differences vs. the
    /// sequential oracle; empty iff `error` is set.
    pub diffs: Vec<String>,
    /// The canonical schedule's region interleaving, rendered.
    pub canonical: String,
    /// The failing schedule's region interleaving, rendered.
    pub failing: String,
    /// The canonical interleaving's raw region log (position order).
    pub canonical_log: Vec<RegionExec>,
    /// The failing interleaving's raw region log (position order).
    pub failing_log: Vec<RegionExec>,
    /// The first position where the two interleavings diverge, with the
    /// region instances on each side — the non-commuting suspect pair.
    pub suspect: Option<(usize, RegionExec, RegionExec)>,
    /// A locally-minimal schedule that still reproduces the divergence
    /// (absent for aborting schedules or when shrinking could not
    /// reproduce the failure).
    pub shrunk: Option<ShrunkSchedule>,
    /// Set if the schedule aborted (deadlock, budget, dynamic error)
    /// rather than completing with a different history.
    pub error: Option<String>,
}

impl CheckFailure {
    /// Exports the two interleavings as one Chrome trace-event JSON
    /// document (loadable in `chrome://tracing` or
    /// <https://ui.perfetto.dev>): process 0 is the canonical schedule,
    /// process 1 the failing one, each worker a thread, and each region
    /// instance a unit-duration slice at its position index — so the two
    /// timelines line up and the divergence is visible at a glance.
    pub fn chrome_trace_json(&self) -> String {
        let mut b = ChromeTraceBuilder::new();
        let failing = format!("failing schedule `{}`", self.schedule);
        let sides = [
            (0u64, "canonical schedule", &self.canonical_log),
            (1u64, failing.as_str(), &self.failing_log),
        ];
        for (pid, name, log) in &sides {
            b.meta_process_name(*pid, name);
            let workers: std::collections::BTreeSet<usize> = log.iter().map(|r| r.worker).collect();
            for w in workers {
                b.meta_thread_name(*pid, w as u64, &format!("worker {w}"));
            }
        }
        for (pid, _, log) in &sides {
            for (pos, r) in log.iter().enumerate() {
                let args = r
                    .args
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join(", ");
                b.complete(
                    *pid,
                    r.worker as u64,
                    &format!("{}({args})", r.func),
                    "region",
                    pos as f64,
                    1.0,
                );
            }
        }
        b.finish()
    }
}

/// The explorer's overall verdict.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// Every explored schedule reproduced the sequential history.
    Pass {
        /// The scheme that was explored.
        scheme: String,
        /// How many schedules were run.
        schedules: usize,
    },
    /// Some schedule diverged (or crashed).
    Fail(Box<CheckFailure>),
    /// No parallelizing transform applies — nothing to check.
    Skipped {
        /// The transform's applicability diagnostic.
        reason: String,
    },
}

/// One violating schedule in the merged report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The schedule's name.
    pub schedule: String,
    /// The partition that owned it.
    pub partition: usize,
}

/// The exact knobs that reproduce a failing campaign byte-for-byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayInfo {
    /// The chaos seed.
    pub seed: u64,
    /// The schedule budget.
    pub budget: usize,
    /// Checker threads the campaign ran with (cosmetic: any value
    /// reproduces the same report).
    pub jobs: usize,
    /// Workers in the transformed program.
    pub threads: usize,
    /// Partition of the primary violation.
    pub partition: usize,
    /// Name of the primary violating schedule.
    pub schedule: String,
}

impl std::fmt::Display for ReplayInfo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "REPLAY: --seed {:#x} --budget {} --threads {} --jobs {} (partition {}, schedule `{}`)",
            self.seed, self.budget, self.threads, self.jobs, self.partition, self.schedule
        )
    }
}

/// The full campaign result.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// The verdict.
    pub verdict: Verdict,
    /// The commutative-region catalog (one row per set membership).
    pub regions: Vec<RegionInfo>,
    /// Names of the schedules explored, in execution order.
    pub explored: Vec<String>,
    /// Every violating schedule (empty on pass/skip) — the merged view
    /// across all partitions, in spec order.
    pub violations: Vec<Violation>,
    /// Reproduction knobs; present exactly when the campaign failed.
    pub replay: Option<ReplayInfo>,
}

impl CheckReport {
    /// True if the verdict is [`Verdict::Pass`].
    pub fn is_pass(&self) -> bool {
        matches!(self.verdict, Verdict::Pass { .. })
    }

    /// True if the verdict is [`Verdict::Fail`].
    pub fn is_fail(&self) -> bool {
        matches!(self.verdict, Verdict::Fail(_))
    }

    /// The set a region function belongs to, per the catalog.
    fn set_of(&self, func: &str) -> Option<&RegionInfo> {
        self.regions.iter().find(|r| r.func == func)
    }
}

impl std::fmt::Display for CheckReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.verdict {
            Verdict::Pass { scheme, schedules } => {
                writeln!(
                    f,
                    "PASS: {schedules} schedules of the {scheme} transform \
                     reproduce the sequential history"
                )?;
            }
            Verdict::Skipped { reason } => {
                writeln!(f, "SKIPPED: no parallelizing transform applies")?;
                writeln!(f, "  {reason}")?;
            }
            Verdict::Fail(fail) => {
                writeln!(
                    f,
                    "FAIL: schedule `{}` of the {} transform diverges from \
                     the sequential oracle",
                    fail.schedule, fail.scheme
                )?;
                if let Some(err) = &fail.error {
                    writeln!(f, "  schedule aborted: {err}")?;
                }
                for d in &fail.diffs {
                    writeln!(f, "  {d}")?;
                }
                if let Some((pos, a, b)) = &fail.suspect {
                    writeln!(f, "suspect pair (first divergence, position #{pos}):")?;
                    for (side, r) in [("canonical", a), ("failing  ", b)] {
                        match self.set_of(&r.func) {
                            Some(info) => writeln!(
                                f,
                                "  {side}: {r}   [set {} at line {}]",
                                info.set_name, info.origin_line
                            )?,
                            None => writeln!(f, "  {side}: {r}")?,
                        }
                    }
                }
                if !fail.canonical.is_empty() {
                    writeln!(f, "canonical interleaving:")?;
                    f.write_str(&fail.canonical)?;
                }
                if !fail.failing.is_empty() {
                    writeln!(f, "failing interleaving ({}):", fail.schedule)?;
                    f.write_str(&fail.failing)?;
                }
                if let Some(s) = &fail.shrunk {
                    writeln!(
                        f,
                        "shrunk: {} of {} scheduling decisions pinned \
                         (locally minimal, from `{}`):",
                        s.pinned, s.total, s.from
                    )?;
                    f.write_str(&s.interleaving)?;
                }
                if !self.violations.is_empty() {
                    writeln!(
                        f,
                        "violating schedules ({} of {}):",
                        self.violations.len(),
                        self.explored.len()
                    )?;
                    for v in &self.violations {
                        writeln!(f, "  {} (partition {})", v.schedule, v.partition)?;
                    }
                }
            }
        }
        if !self.regions.is_empty() {
            writeln!(f, "regions under test:")?;
            for r in &self.regions {
                writeln!(
                    f,
                    "  {} in {} ({}{}{}) line {}",
                    r.func,
                    r.set_name,
                    r.kind,
                    if r.predicated { ", predicated" } else { "" },
                    if r.nosync { ", nosync" } else { "" },
                    r.origin_line
                )?;
            }
        }
        writeln!(f, "explored: {}", self.explored.join(", "))?;
        if let Some(replay) = &self.replay {
            writeln!(f, "{replay}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commset_runtime::Value;

    fn region(worker: usize, func: &str, arg: i64) -> RegionExec {
        RegionExec {
            worker,
            func: func.to_string(),
            args: vec![Value::Int(arg)],
        }
    }

    #[test]
    fn fail_report_renders_suspect_pair_and_interleavings() {
        let report = CheckReport {
            verdict: Verdict::Fail(Box::new(CheckFailure {
                scheme: "DOALL".into(),
                schedule: "reverse".into(),
                partition: 0,
                diffs: vec!["channel CONSOLE: ordered histories differ".into()],
                canonical: "  [w0] __commset_region_0(0)\n".into(),
                failing: "  [w1] __commset_region_0(1)\n".into(),
                canonical_log: vec![region(0, "__commset_region_0", 0)],
                failing_log: vec![region(1, "__commset_region_0", 1)],
                suspect: Some((
                    0,
                    region(0, "__commset_region_0", 0),
                    region(1, "__commset_region_0", 1),
                )),
                shrunk: Some(ShrunkSchedule {
                    from: "reverse".into(),
                    total: 5,
                    pinned: 1,
                    interleaving: "  [w1] __commset_region_0(1)\n".into(),
                    log: vec![region(1, "__commset_region_0", 1)],
                    replays: 3,
                }),
                error: None,
            })),
            regions: vec![RegionInfo {
                func: "__commset_region_0".into(),
                set_name: "FSET".into(),
                kind: "Group",
                predicated: true,
                predicate_func: Some("__pred_FSET".into()),
                arg_params: vec![0],
                nosync: false,
                origin_line: 7,
            }],
            explored: vec!["canonical".into(), "reverse".into()],
            violations: vec![Violation {
                schedule: "reverse".into(),
                partition: 0,
            }],
            replay: Some(ReplayInfo {
                seed: 0x5eed_c0de,
                budget: 24,
                jobs: 1,
                threads: 2,
                partition: 0,
                schedule: "reverse".into(),
            }),
        };
        assert!(report.is_fail());
        let text = report.to_string();
        assert!(text.contains("FAIL"), "{text}");
        assert!(text.contains("suspect pair"), "{text}");
        assert!(text.contains("set FSET at line 7"), "{text}");
        assert!(text.contains("canonical interleaving"), "{text}");
        assert!(
            text.contains("shrunk: 1 of 5 scheduling decisions"),
            "{text}"
        );
        assert!(text.contains("violating schedules (1 of 2):"), "{text}");
        assert!(text.contains("explored: canonical, reverse"), "{text}");
        assert!(
            text.contains("REPLAY: --seed 0x5eedc0de --budget 24 --threads 2 --jobs 1"),
            "{text}"
        );
    }

    #[test]
    fn failure_exports_both_interleavings_as_chrome_trace() {
        let fail = CheckFailure {
            scheme: "DOALL".into(),
            schedule: "reverse".into(),
            partition: 0,
            diffs: vec![],
            canonical: String::new(),
            failing: String::new(),
            canonical_log: vec![
                region(0, "__commset_region_0", 0),
                region(1, "__commset_region_0", 1),
            ],
            failing_log: vec![
                region(1, "__commset_region_0", 1),
                region(0, "__commset_region_0", 0),
            ],
            suspect: None,
            shrunk: None,
            error: None,
        };
        let doc = fail.chrome_trace_json();
        assert!(doc.starts_with("{\"traceEvents\": ["), "{doc}");
        assert!(doc.contains("\"canonical schedule\""), "{doc}");
        assert!(doc.contains("failing schedule `reverse`"), "{doc}");
        // Two sides x two regions = four complete events, plus metadata.
        let slices = doc.lines().filter(|l| l.contains("\"ph\": \"X\"")).count();
        assert_eq!(slices, 4, "{doc}");
        assert!(doc.contains("\"pid\": 1"), "{doc}");
        assert!(doc.contains("__commset_region_0(1)"), "{doc}");
    }

    #[test]
    fn pass_and_skip_render_one_line_verdicts() {
        let pass = CheckReport {
            verdict: Verdict::Pass {
                scheme: "PS-DSWP".into(),
                schedules: 24,
            },
            regions: vec![],
            explored: vec!["canonical".into()],
            violations: vec![],
            replay: None,
        };
        assert!(pass.is_pass());
        assert!(pass.to_string().starts_with("PASS: 24 schedules"));
        assert!(!pass.to_string().contains("REPLAY:"));
        let skip = CheckReport {
            verdict: Verdict::Skipped {
                reason: "DOALL illegal".into(),
            },
            regions: vec![],
            explored: vec![],
            violations: vec![],
            replay: None,
        };
        assert!(!skip.is_pass() && !skip.is_fail());
        assert!(skip.to_string().contains("SKIPPED"));
    }
}
