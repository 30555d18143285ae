//! The metric tables (mirrored by `BENCHMARK.json`) and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics `(name, unit)`, reported by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p99", "ms"),
    ("ops_per_s", "1/s"),
    ("ok_frac", "frac"),
    ("peak_rss_mb", "MB"),
    ("code_size_insts", "count"),
    ("sim_speedup_geomean", "x"),
];

/// Per-layer metrics `(name, unit)`, reported by every traced run. A
/// `*_us` metric is the mean self time of one call of the span with the
/// name before `_us`; `count/op` values are means over the traced ops. A
/// layer a workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lang.compile_unit_us", "us"),
    ("analysis.manage_us", "us"),
    ("analysis.summarize_us", "us"),
    ("analysis.hotloop_us", "us"),
    ("analysis.pdg_us", "us"),
    ("analysis.alg1_us", "us"),
    ("analysis.scc_us", "us"),
    ("analysis.pdg_edges", "count/op"),
    ("analysis.relaxed_edges", "count/op"),
    ("analysis.relaxed_ratio", "frac"),
    ("transform.doall_us", "us"),
    ("transform.dswp_us", "us"),
    ("transform.ps_dswp_us", "us"),
    ("transform.applied_ratio", "frac"),
    ("ir.lower_us", "us"),
    ("ir.insts", "count/op"),
    ("interp.bc_compile_us", "us"),
    ("interp.bc_insts", "count/op"),
    ("interp.threads.run_us", "us"),
    ("interp.sim.run_us", "us"),
    ("interp.ns_per_inst", "ns"),
    ("interp.threads.busy_frac", "frac"),
    ("interp.threads.imbalance", "frac"),
    ("runtime.shard_fast_acquires", "count/op"),
    ("runtime.shard_fast_waits", "count/op"),
    ("runtime.shard_wait_ratio", "frac"),
    ("runtime.shard_multi_acquires", "count/op"),
    ("runtime.shard_whole_acquires", "count/op"),
    ("runtime.lock_wait_us", "us"),
    ("runtime.queue_full_spins", "count/op"),
    ("runtime.queue_empty_spins", "count/op"),
    ("runtime.queue_wait_us", "us"),
    ("runtime.delta_applies", "count/op"),
    ("runtime.delta_coalesces", "count/op"),
    ("runtime.lock_elisions", "count/op"),
    ("sim.ticks_per_s", "1/s"),
    ("sim.ticks", "ticks"),
    ("sim.lock_contention_mean", "frac"),
    ("sim.tm_commits", "count/op"),
    ("sim.tm_aborts", "count/op"),
    ("sim.tm_abort_ratio", "frac"),
    ("sim.queue_pushes", "count/op"),
    ("sim.queue_stalls", "count/op"),
    ("sim.speedup8.md5sum", "x"),
    ("sim.speedup8.456.hmmer", "x"),
    ("sim.speedup8.geti", "x"),
    ("sim.speedup8.eclat", "x"),
    ("sim.speedup8.em3d", "x"),
    ("sim.speedup8.potrace", "x"),
    ("sim.speedup8.kmeans", "x"),
    ("sim.speedup8.url", "x"),
    ("core.spec_parse_us", "us"),
    ("checker.prepare_us", "us"),
    ("checker.explore_us", "us"),
    ("checker.merge_us", "us"),
    ("checker.schedules", "count/op"),
    ("checker.steps", "count/op"),
    ("checker.steps_per_s", "1/s"),
    ("workloads.validate_us", "us"),
    ("telemetry.overhead_frac", "frac"),
];

/// Metric values by name.
#[derive(Debug, Clone, Default)]
pub struct Values(BTreeMap<String, f64>);

impl Values {
    /// Sets `name`.
    ///
    /// # Panics
    ///
    /// Panics when `name` is in neither table — a typo in this crate.
    pub fn set(&mut self, name: &str, v: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric `{name}` is not in the metric tables"
        );
        self.0.insert(name.to_string(), v);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// A finished run: the fields of the result line.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// True when every op and every cross-check matched its reference.
    pub correct: bool,
    /// Ops run.
    pub attempted: u64,
    /// Ops whose output did not match its reference (or that failed).
    pub failed: u64,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable notes printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Orders `values` by `table`; names the run did not set read 0.
    pub fn collect(
        table: &'static [(&'static str, &'static str)],
        values: &Values,
    ) -> Vec<(&'static str, f64, &'static str)> {
        table
            .iter()
            .map(|(n, u)| (*n, values.get(n).unwrap_or(0.0), *u))
            .collect()
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, v, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let v = if v.is_finite() { *v } else { 0.0 };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
        for n in all {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }

    #[test]
    fn result_line_is_json_shaped() {
        let mut v = Values::default();
        v.set("setup_s", 0.25);
        let o = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: Outcome::collect(END_TO_END, &v)[..2].to_vec(),
            notes: vec![],
        };
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"op_ms_p50\": {\"value\": 0.0, \"unit\": \"ms\"}}}"
        );
    }
}
