//! The closed loop: set-up, then one op at a time over a seeded
//! permutation of the workload's jobs until the time is up and every job
//! has run at least once. Set-up is timed repeatedly, before and during
//! the loop, and its median is reported.

use crate::metrics::{Outcome, Values, END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, ratio, tail_percentile};
use crate::trace::Tracer;
use crate::{Op, Workload};
use commset_runtime::rng::SplitMix64;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Set-up runs this many times before the loop ...
const SETUP_REPEATS: usize = 3;
/// ... and once more (into a throwaway workload) every this long during
/// it. The host's speed drifts over seconds, so set-up times taken only
/// at the start of a run would sample a single moment of it.
const SETUP_PROBE_EVERY: Duration = Duration::from_secs(1);

/// Failure messages kept for the notes.
const MAX_FAILURE_NOTES: usize = 5;

/// A seeded Fisher-Yates permutation of `0..n`.
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed);
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        v.swap(i, j);
    }
    v
}

/// Builds the named workload; returns it and the set-up time in seconds.
///
/// # Errors
///
/// Returns the set-up error.
fn timed_setup(name: &str, seed: u64) -> Result<(Box<dyn Workload>, f64), String> {
    let t = Instant::now();
    let w = crate::setup(name, seed)?;
    Ok((w, t.elapsed().as_secs_f64()))
}

/// Op times and failures of one measured loop.
#[derive(Debug, Default)]
pub struct Samples {
    /// Untraced op times, ns.
    pub untraced: Vec<u64>,
    /// Traced op times, ns (traced runs only).
    pub traced: Vec<u64>,
    /// Ops run.
    pub attempted: u64,
    /// Ops whose output did not match its reference.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Full passes over the job list.
    pub passes: u64,
}

impl Samples {
    fn record(&mut self, op: Result<Op, String>, traced: bool) {
        self.attempted += 1;
        let error = match op {
            Ok(op) => {
                if traced {
                    self.traced.push(op.nanos);
                } else {
                    self.untraced.push(op.nanos);
                }
                op.error
            }
            Err(panic) => Some(format!("op panicked: {panic}")),
        };
        if let Some(e) = error {
            self.failed += 1;
            if self.failures.len() < MAX_FAILURE_NOTES {
                self.failures.push(e);
            }
        }
    }
}

fn guarded(w: &mut dyn Workload, job: usize, tr: &mut Tracer) -> Result<Op, String> {
    catch_unwind(AssertUnwindSafe(|| w.run(job, tr))).map_err(|p| {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".to_string())
    })
}

/// The closed loop. Untraced, each job runs once per visit; traced, each
/// visit runs the job both untraced and traced, alternating which goes
/// first (the second run finds warm caches), so both op-time
/// distributions cover the same jobs under the same conditions. `probe`
/// runs between ops every [`SETUP_PROBE_EVERY`].
pub fn measure(
    w: &mut dyn Workload,
    seed: u64,
    seconds: u64,
    tr: &mut Tracer,
    traced: bool,
    probe: &mut dyn FnMut(),
) -> Samples {
    let order = permutation(w.jobs(), seed);
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut s = Samples::default();
    let mut op_id = 0u64;
    let mut next_probe = start + SETUP_PROBE_EVERY;
    'passes: loop {
        for &job in &order {
            if !traced {
                s.record(guarded(w, job, tr), false);
            } else {
                let traced_first = op_id.is_multiple_of(2);
                for on in [traced_first, !traced_first] {
                    if on {
                        tr.start_op(op_id);
                    }
                    s.record(guarded(w, job, tr), on);
                    tr.stop();
                }
                op_id += 1;
            }
            if Instant::now() >= next_probe {
                probe();
                next_probe += SETUP_PROBE_EVERY;
            }
            if s.passes > 0 && start.elapsed() >= budget {
                break 'passes;
            }
        }
        s.passes += 1;
        if start.elapsed() >= budget {
            break;
        }
    }
    s
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Runs one workload end to end and builds the result.
///
/// # Errors
///
/// Returns set-up errors, too few ops for a tail percentile, an
/// unreadable peak RSS, and span-file write errors.
pub fn run(name: &str, seed: u64, seconds: u64, traced: bool) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        drop(built.take());
        let (w, dt) = timed_setup(name, seed)?;
        setups.push(dt);
        built = Some(w);
    }
    let mut w = built.expect("set-up ran");
    let mut tr = Tracer::new();
    // Only the untraced run reports `setup_s`.
    let mut probe = || {
        if let (false, Ok((_, dt))) = (traced, timed_setup(name, seed)) {
            setups.push(dt);
        }
    };
    let s = measure(w.as_mut(), seed, seconds, &mut tr, traced, &mut probe);
    let mut notes = vec![format!(
        "workload {name}, seed {seed}, {} set-ups, {} jobs, {} passes, {} ops ({} failed)",
        setups.len(),
        w.jobs(),
        s.passes,
        s.attempted,
        s.failed
    )];
    notes.extend(s.failures.iter().map(|f| format!("FAILED: {f}")));
    let mut values = Values::default();
    let mut problems = Vec::new();
    let metrics = if traced {
        layer_values(w.as_ref(), &tr, &s, &mut values);
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("spans-{name}.jsonl"));
        tr.write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        notes.push(format!(
            "{} spans written to {}",
            tr.spans().len(),
            path.display()
        ));
        Outcome::collect(PER_LAYER, &values)
    } else {
        let mut times = s.untraced.clone();
        times.sort_unstable();
        let p = tail_percentile(times.len())
            .ok_or_else(|| format!("only {} ops; need 20 for a tail percentile", times.len()))?;
        let total_s: f64 = times.iter().map(|&t| t as f64 / 1e9).sum();
        let totals = w.totals();
        problems = totals.problems;
        values.set("setup_s", median(&setups));
        values.set("op_ms_p50", ms(percentile(&times, 50.0)));
        values.set("op_ms_p99", ms(percentile(&times, f64::from(p))));
        values.set("ops_per_s", ratio(times.len() as f64, total_s));
        values.set(
            "ok_frac",
            ratio((s.attempted - s.failed) as f64, s.attempted as f64),
        );
        values.set(
            "peak_rss_mb",
            peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?,
        );
        values.set("code_size_insts", totals.code_size_insts);
        values.set("sim_speedup_geomean", totals.sim_speedup_geomean);
        notes.push(format!("op_ms_p99 is the p{p} of {} op times", times.len()));
        Outcome::collect(END_TO_END, &values)
    };
    notes.extend(problems.iter().map(|p| format!("CROSS-CHECK FAILED: {p}")));
    Ok(Outcome {
        correct: s.failed == 0 && problems.is_empty(),
        attempted: s.attempted,
        failed: s.failed,
        metrics,
        notes,
    })
}

/// Fills the per-layer values of a traced run: span self times as
/// `<span>_us`, the workload's own counters, and the tracing overhead.
fn layer_values(w: &dyn Workload, tr: &Tracer, s: &Samples, values: &mut Values) {
    for (name, (calls, self_ns)) in tr.self_times() {
        let metric = format!("{name}_us");
        if PER_LAYER.iter().any(|(n, _)| *n == metric) {
            values.set(&metric, ratio(self_ns as f64, calls as f64) / 1e3);
        }
    }
    w.layers(values);
    if !s.untraced.is_empty() && !s.traced.is_empty() {
        let mut u = s.untraced.clone();
        let mut t = s.traced.clone();
        u.sort_unstable();
        t.sort_unstable();
        let (pu, pt) = (percentile(&u, 50.0), percentile(&t, 50.0));
        values.set("telemetry.overhead_frac", ratio(pt as f64, pu as f64) - 1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_seeded_and_complete() {
        let a = permutation(50, 7);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_eq!(a, permutation(50, 7));
        assert_ne!(a, permutation(50, 8));
    }
}
