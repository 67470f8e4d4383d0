//! `campaignbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`

use campaignbench::bench::{run, Report, RunConfig};
use campaignbench::metrics::{unit_of, END_TO_END, PER_LAYER};
use campaignbench::resources;
use campaignbench::workload::Workload;
use serde::Value;
use std::process::ExitCode;
use std::time::Duration;

/// Every run must end within this wall time; a hung campaign (for
/// example a distributed one that never completes) ends the process
/// without a result instead of running on.
const DEADLINE: Duration = Duration::from_secs(170);

const USAGE: &str = "usage: campaignbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn parse() -> Result<RunConfig, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                workload = Some(
                    Workload::from_name(value).ok_or_else(|| bad(&format!("one of {names:?}")))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("an unsigned integer"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|_| bad("a number of seconds"))?;
                if !(0.0..=60.0).contains(&s) {
                    return Err(bad("between 0 and 60"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |f: &str| format!("missing {f}");
    Ok(RunConfig::new(
        workload.ok_or_else(|| missing("--workload"))?,
        seed.ok_or_else(|| missing("--seed"))?,
        seconds.ok_or_else(|| missing("--seconds"))?,
        trace.ok_or_else(|| missing("--trace"))?,
    ))
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Map(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn json(v: &Value) -> String {
    serde_json::to_string(v).expect("JSON values always serialize")
}

/// JSON lines for every metric and span, then the human table on
/// standard error.
fn print_details(cfg: &RunConfig, report: &Report) {
    let workload = cfg.workload.name();
    for m in &report.metrics {
        let unit = unit_of(m.name).expect("every emitted metric is catalogued");
        println!(
            "{}",
            json(&obj(vec![
                ("type", Value::Str("metric".into())),
                ("workload", Value::Str(workload.into())),
                ("seed", Value::UInt(cfg.seed)),
                ("name", Value::Str(m.name.into())),
                ("value", Value::Float(m.value)),
                ("unit", Value::Str(unit.into())),
            ]))
        );
    }
    for s in &report.spans {
        println!(
            "{}",
            json(&obj(vec![
                ("type", Value::Str("span".into())),
                ("id", Value::UInt(s.id as u64)),
                (
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::UInt(p as u64))
                ),
                ("name", Value::Str(s.name.into())),
                ("start_s", Value::Float(s.start_s)),
                ("end_s", Value::Float(s.end_s)),
            ]))
        );
    }
    eprintln!(
        "\n{workload} · seed {} · {} · fingerprint {} ({})",
        cfg.seed,
        if cfg.trace { "traced" } else { "untraced" },
        report
            .fingerprint
            .map_or("none".into(), |f| format!("{f:#018x}")),
        if report.pinned {
            "pinned"
        } else {
            "not pinned"
        },
    );
    eprintln!(
        "{:<30} {:>16} {:<6}  should move",
        "metric", "value", "unit"
    );
    let notes = END_TO_END
        .iter()
        .map(|m| (m.name, m.about))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.moves)));
    for (name, note) in notes {
        if let Some(v) = report.value(name) {
            let unit = unit_of(name).expect("catalogued");
            eprintln!("{name:<30} {v:>16.6} {unit:<6}  {note}");
        }
    }
    eprintln!("timed campaigns (s): {:?}", report.campaign_samples);
    eprintln!(
        "slices attempted {}, failed {} (fail_ratio {:.4})",
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted as f64
    );
    for p in &report.problems {
        eprintln!("FAILED: {p}");
    }
}

fn main() -> ExitCode {
    let cfg = match parse() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // First, while the process is fresh and single-threaded.
    if let Err(e) = resources::self_check() {
        eprintln!("campaignbench: resource readings unusable on this kernel: {e}");
        return ExitCode::FAILURE;
    }
    std::thread::spawn(|| {
        std::thread::sleep(DEADLINE);
        eprintln!("campaignbench: no result after {DEADLINE:?}; giving up");
        std::process::exit(3);
    });
    let report = run(&cfg);
    print_details(&cfg, &report);
    let wanted: Vec<&str> = if cfg.trace {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    let metrics = wanted
        .into_iter()
        .filter_map(|name| {
            let unit = unit_of(name).expect("catalogued");
            report.value(name).map(|v| {
                (
                    name.to_string(),
                    obj(vec![
                        ("value", Value::Float(v)),
                        ("unit", Value::Str(unit.into())),
                    ]),
                )
            })
        })
        .collect();
    println!(
        "{}",
        json(&obj(vec![
            ("correct", Value::Bool(report.correct)),
            ("attempted", Value::UInt(report.attempted)),
            ("failed", Value::UInt(report.failed)),
            ("metrics", Value::Map(metrics)),
        ]))
    );
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
