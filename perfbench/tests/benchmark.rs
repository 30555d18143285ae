//! The benchmark's own checks: failures are counted rather than hidden,
//! the modeled result agrees with `figure6`, the metric tables agree
//! with `BENCHMARK.json`, and the command line fails cleanly.

use commset_interp::bundle::Json;
use commset_perfbench::check::{load_fixtures, CheckBench};
use commset_perfbench::common::modeled_geomean;
use commset_perfbench::des::DesBench;
use commset_perfbench::metrics::{END_TO_END, PER_LAYER};
use commset_perfbench::runner::measure;
use commset_perfbench::threads::ThreadsBench;
use commset_perfbench::trace::Tracer;
use commset_perfbench::Workload;
use commset_runtime::FaultPlan;
use commset_sim::CostModel;
use std::process::{Command, Stdio};

#[test]
fn a_killed_worker_is_a_failed_op() {
    let mut w = ThreadsBench::setup(1).expect("set-up");
    // Panics inside the second shard hold of every run: the executor
    // contains it as a worker failure, on every job that shards.
    w.inject(FaultPlan::shard_poison(7));
    let s = measure(&mut w, 1, 1, &mut Tracer::new(), false, &mut || {});
    assert!(s.failed > 0, "no failure counted in {} ops", s.attempted);
    assert!(s.failed < s.attempted, "single-lock jobs never shard");
    assert!(
        s.failures
            .iter()
            .all(|f| f.contains("injected shard poison")),
        "{:?}",
        s.failures
    );
}

#[test]
fn a_wrong_verdict_is_a_failed_op() {
    let mut fixtures = load_fixtures().expect("fixtures");
    let ok = fixtures
        .iter_mut()
        .find(|f| f.name == "md5sum_ok")
        .expect("md5sum_ok fixture");
    ok.must_fail = true;
    let mut w = CheckBench::with_fixtures(fixtures, 1);
    let s = measure(&mut w, 1, 1, &mut Tracer::new(), false, &mut || {});
    // One failure per visit of md5sum_ok: once per full pass, plus the
    // final partial pass if it got that far.
    assert!(
        s.failed >= s.passes && s.failed <= s.passes + 1 && s.failed > 0,
        "{} failures in {} passes",
        s.failed,
        s.passes
    );
    assert!(
        s.failures
            .iter()
            .all(|f| f.starts_with("md5sum_ok: verdict PASS but the fixture is known to fail")),
        "{:?}",
        s.failures
    );
}

#[test]
fn unmodified_checks_match_every_known_verdict() {
    let mut w = CheckBench::setup(99).expect("set-up");
    let s = measure(&mut w, 99, 1, &mut Tracer::new(), false, &mut || {});
    assert_eq!(s.failed, 0, "{:?}", s.failures);
}

#[test]
fn des_geomean_matches_figure6() {
    let cm = CostModel::default();
    let mut des = DesBench::setup(3).expect("set-up");
    let s = measure(&mut des, 3, 1, &mut Tracer::new(), false, &mut || {});
    assert_eq!(s.failed, 0, "{:?}", s.failures);
    let from_ops = des.totals().sim_speedup_geomean;
    // figure6's own path: every speedup recomputed by the workload
    // harness, sequential baseline included.
    let best: Vec<f64> = commset_workloads::all()
        .iter()
        .map(|w| commset_bench::run_panel(w, &cm).best8)
        .collect();
    let figure6 = commset_bench::geomean(&best);
    assert!((from_ops - figure6).abs() < 1e-9, "{from_ops} vs {figure6}");
    let fresh = modeled_geomean(&commset_workloads::all(), &cm).expect("modeled");
    assert!((from_ops - fresh).abs() < 1e-9, "{from_ops} vs {fresh}");
    // EXPERIMENTS.md reports the Figure 6i geomean as 6.01x.
    assert_eq!(format!("{from_ops:.2}"), "6.01");
}

fn table(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let doc = Json::parse(&text).expect("valid JSON");
    let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(table(&doc, "end_to_end"), own(END_TO_END));
    assert_eq!(table(&doc, "per_layer"), own(PER_LAYER));
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(names, commset_perfbench::WORKLOADS);
}

fn perfbench(args: &[&str]) -> Command {
    let mut c = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    c.args(args);
    c
}

#[test]
fn usage_errors_exit_2() {
    for bad in [
        &["--workload", "bogus"][..],
        &["--workload", "des", "--seed", "0xzz"],
        &["--workload", "des", "--verbose"],
        &[],
    ] {
        let out = perfbench(bad).output().expect("runs");
        assert_eq!(out.status.code(), Some(2), "{bad:?}");
        assert!(out.stdout.is_empty(), "{bad:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage: perfbench"), "{bad:?}: {err}");
    }
}

#[test]
fn a_closed_stdout_still_exits_cleanly() {
    let mut child = perfbench(&["--workload", "check", "--seconds", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawns");
    drop(child.stdout.take());
    assert!(child.wait().expect("waits").success());
}

#[test]
fn the_result_is_the_last_line() {
    let out = perfbench(&["--workload", "check", "--seconds", "1", "--seed", "5"])
        .output()
        .expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf-8");
    let last = Json::parse(text.lines().last().expect("a line")).expect("JSON");
    assert_eq!(last.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(last.get("failed").and_then(Json::as_u64), Some(0));
    let metrics = last.get("metrics").expect("metrics");
    for (name, unit) in END_TO_END {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit));
    }
}
