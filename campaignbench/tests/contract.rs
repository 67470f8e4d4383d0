//! The benchmark's own contract, checked at tiny simulated lengths.

use campaignbench::bench::{run, Report, RunConfig};
use campaignbench::metrics::{unit_of, END_TO_END, PER_LAYER};
use campaignbench::workload::Workload;
use serde::Value;
use std::sync::Mutex;

/// A run reads process-wide CPU time and peak memory, so runs from
/// concurrently executing tests must not overlap.
static ONE_RUN_AT_A_TIME: Mutex<()> = Mutex::new(());

fn tiny(workload: Workload, seed: u64, trace: bool) -> Report {
    let cfg = RunConfig {
        lengths: workload.tiny_lengths(),
        min_reps: 1,
        ..RunConfig::new(workload, seed, 0.0, trace)
    };
    let report = {
        let _alone = ONE_RUN_AT_A_TIME
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        run(&cfg)
    };
    assert!(
        report.correct,
        "{} seed {seed}: {:?}",
        workload.name(),
        report.problems
    );
    assert_eq!(report.failed, 0);
    report
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    serde_json::parse(&text).expect("BENCHMARK.json parses")
}

fn str_field<'a>(v: &'a Value, name: &str) -> &'a str {
    match v.field(name) {
        Ok(Value::Str(s)) => s,
        other => panic!("field `{name}`: expected a string, got {other:?}"),
    }
}

fn list<'a>(v: &'a Value, name: &str) -> &'a [Value] {
    match v.field(name) {
        Ok(Value::Seq(items)) => items,
        other => panic!("field `{name}`: expected a list, got {other:?}"),
    }
}

/// Names declared in `BENCHMARK.json` under `section`.
fn declared(section: &str) -> Vec<String> {
    list(&benchmark_json(), section)
        .iter()
        .map(|m| str_field(m, "name").to_string())
        .collect()
}

#[test]
fn benchmark_json_mirrors_the_catalogue() {
    let doc = benchmark_json();
    let workloads: Vec<&str> = list(&doc, "workloads")
        .iter()
        .map(|w| str_field(w, "name"))
        .collect();
    let gated: Vec<&str> = Workload::ALL
        .iter()
        .filter(|&&w| w != Workload::Ron2003Campaign)
        .map(|w| w.name())
        .collect();
    assert_eq!(workloads, gated);
    let e2e = list(&doc, "end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (j, m) in e2e.iter().zip(END_TO_END) {
        assert_eq!(str_field(j, "name"), m.name);
        assert_eq!(str_field(j, "unit"), m.unit);
        assert_eq!(str_field(j, "better"), m.better);
        assert_eq!(
            j.field("bound").ok(),
            Some(&Value::Float(m.bound)),
            "{}",
            m.name
        );
    }
    let layers = list(&doc, "per_layer");
    assert_eq!(layers.len(), PER_LAYER.len());
    for (j, m) in layers.iter().zip(PER_LAYER) {
        assert_eq!(str_field(j, "name"), m.name);
        assert_eq!(str_field(j, "unit"), m.unit);
        assert_eq!(str_field(j, "better"), m.better);
        assert!(!m.moves.is_empty(), "{} names what it should move", m.name);
    }
}

#[test]
fn every_declared_metric_is_emitted_for_every_workload() {
    let e2e = declared("end_to_end");
    let layers = declared("per_layer");
    for w in Workload::ALL {
        let untraced = tiny(w, 1, false);
        for name in &e2e {
            let v = untraced
                .value(name)
                .unwrap_or_else(|| panic!("{}: no `{name}`", w.name()));
            assert!(
                v.is_finite() && v > 0.0,
                "{}: end-to-end `{name}` = {v}",
                w.name()
            );
        }
        let traced = tiny(w, 1, true);
        for name in layers.iter().chain(&e2e) {
            let v = traced
                .value(name)
                .unwrap_or_else(|| panic!("{}: no `{name}`", w.name()));
            assert!(v.is_finite(), "{}: `{name}` = {v}", w.name());
            assert!(unit_of(name).is_some());
        }
        let coverage = traced.value("traced.span_coverage").expect("emitted");
        assert!(
            coverage >= 0.95,
            "{}: spans cover {coverage} of the traced run",
            w.name()
        );
        assert!(!traced.spans.is_empty());
        assert_eq!(untraced.fingerprint, traced.fingerprint, "{}", w.name());
    }
}

#[test]
fn deterministic_counts_repeat_exactly_with_the_same_seed() {
    let counts = |r: &Report| -> Vec<(&'static str, f64)> {
        PER_LAYER
            .iter()
            .filter(|m| matches!(m.unit, "count" | "bytes"))
            .map(|m| {
                (
                    m.name,
                    r.value(m.name)
                        .expect("traced runs emit every per-layer metric"),
                )
            })
            .collect()
    };
    let a = tiny(Workload::Ron2003Campaign, 7, true);
    let b = tiny(Workload::Ron2003Campaign, 7, true);
    assert_eq!(a.fingerprint, b.fingerprint);
    assert_eq!(counts(&a), counts(&b));
    assert!(counts(&a)
        .iter()
        .any(|(name, v)| *name == "trace.resolved" && *v > 0.0));
}

#[test]
fn another_seed_changes_the_fingerprint_and_still_passes_the_gate() {
    let a = tiny(Workload::Ron2003Campaign, 1, false);
    let b = tiny(Workload::Ron2003Campaign, 2, false);
    assert!(a.fingerprint.is_some() && b.fingerprint.is_some());
    assert_ne!(a.fingerprint, b.fingerprint);
}
