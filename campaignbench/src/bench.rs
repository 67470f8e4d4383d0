//! One benchmark run: repeated set-ups, the timed campaigns with tracing
//! off, the correctness gate across execution modes, and (when traced)
//! the per-layer split from spans, exact counts and kernel probes.

use crate::campaign::{self, guarded, Traced};
use crate::kernels::{self, Shape};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::resources;
use crate::spans::{Span, Tracer};
use crate::workload::{Lengths, Mode, Workload};
use mpath_core::{CampaignJob, ExperimentOutput, ServeReport};
use netsim::{SimDuration, Topology};
use overlay::{DisseminationMode, Policy};
use std::time::Instant;

/// Set-ups timed before the first timed campaign and after each one.
const SETUP_BATCH: usize = 10;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Wall seconds of timed campaigns (at least `min_reps` run).
    pub seconds: f64,
    /// Run the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Simulated lengths.
    pub lengths: Lengths,
    /// Fewest timed campaigns, however long they take.
    pub min_reps: usize,
}

impl RunConfig {
    /// The benchmark's settings for `workload`.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> RunConfig {
        RunConfig {
            workload,
            seed,
            seconds,
            trace,
            lengths: workload.lengths(),
            min_reps: 3,
        }
    }
}

/// One named value.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Catalogued name.
    pub name: &'static str,
    /// Value, in the catalogued unit.
    pub value: f64,
}

/// Everything one run measured and checked.
pub struct Report {
    /// Whether every execution agreed and nothing failed.
    pub correct: bool,
    /// Slices attempted across every campaign execution.
    pub attempted: u64,
    /// Slices that failed (error, re-lease, duplicate, or mismatch).
    pub failed: u64,
    /// What failed, readably.
    pub problems: Vec<String>,
    /// The campaign fingerprint every execution agreed on.
    pub fingerprint: Option<u64>,
    /// Whether that fingerprint was checked against a pinned value.
    pub pinned: bool,
    /// Every metric measured, end-to-end first.
    pub metrics: Vec<Metric>,
    /// The traced run's spans (empty untraced).
    pub spans: Vec<Span>,
    /// Wall seconds of every timed campaign, in run order.
    pub campaign_samples: Vec<f64>,
}

impl Report {
    /// The value of metric `name`, if measured.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// A pinned fingerprint: the default seed's campaign at the benchmark's
/// lengths.
#[derive(serde::Deserialize)]
struct Pin {
    workload: String,
    seed: u64,
    duration_us: u64,
    slice_width_us: u64,
    fingerprint: String,
}

/// The pinned fingerprint for this run's job, if there is one.
fn pinned_fingerprint(cfg: &RunConfig) -> Result<Option<u64>, String> {
    let pins: Vec<Pin> = serde_json::from_str(include_str!("../pins.json"))
        .map_err(|e| format!("pins.json: {e}"))?;
    let Some(pin) = pins.iter().find(|p| {
        p.workload == cfg.workload.name()
            && p.seed == cfg.seed
            && p.duration_us == cfg.lengths.duration.as_micros()
            && p.slice_width_us == cfg.lengths.slice_width.as_micros()
    }) else {
        return Ok(None);
    };
    let hex = pin.fingerprint.trim_start_matches("0x");
    u64::from_str_radix(hex, 16)
        .map(Some)
        .map_err(|e| format!("pins.json: bad fingerprint {:?}: {e}", pin.fingerprint))
}

/// The correctness gate: every execution of the job must produce the
/// same fingerprint (the pinned one, when pinned); errors, re-leases,
/// duplicates and mismatches fail slices.
struct Gate {
    reference: Option<u64>,
    pinned: bool,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Gate {
    fn new(pin: Option<u64>) -> Gate {
        Gate {
            reference: pin,
            pinned: pin.is_some(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    fn check(&mut self, what: &str, slices: usize, result: Result<u64, String>) {
        self.attempted += slices as u64;
        match result {
            Ok(fp) => {
                let want = *self.reference.get_or_insert(fp);
                if fp != want {
                    self.failed += slices as u64;
                    self.problems.push(format!(
                        "{what}: fingerprint {fp:#018x}, expected {want:#018x}"
                    ));
                }
            }
            Err(e) => {
                self.failed += slices as u64;
                self.problems.push(format!("{what}: {e}"));
            }
        }
    }

    /// Folds a distributed campaign's bookkeeping in: every re-lease
    /// and duplicate is a failed slice attempt.
    fn serve(&mut self, what: &str, r: &ServeReport) {
        let extra = r.releases + r.duplicates;
        if extra > 0 {
            self.attempted += extra;
            self.failed += extra;
            self.problems.push(format!(
                "{what}: {} re-lease(s), {} duplicate(s)",
                r.releases, r.duplicates
            ));
        }
    }

    fn fail(&mut self, what: &str, e: String) {
        self.attempted += 1;
        self.failed += 1;
        self.problems.push(format!("{what}: {e}"));
    }
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// A finished timed campaign, kept until its timing is recorded.
enum Done {
    Local(ExperimentOutput),
    Served(ServeReport),
}

/// Distributed-campaign bookkeeping kept for the per-layer split.
#[derive(Default)]
struct ServeStats {
    releases: u64,
    peak_buffered: usize,
    /// Wall seconds of each distributed campaign.
    secs: Vec<f64>,
}

impl ServeStats {
    fn note(&mut self, r: &ServeReport, secs: f64) {
        self.releases += r.releases;
        self.peak_buffered = self.peak_buffered.max(r.peak_buffered);
        self.secs.push(secs);
    }
}

/// Runs the benchmark once.
pub fn run(cfg: &RunConfig) -> Report {
    let mut tracer = Tracer::new();
    let mut metrics = Vec::new();
    let mut gate = Gate::new(None);
    let mut campaign_samples = Vec::new();
    match pinned_fingerprint(cfg) {
        Ok(pin) => gate = Gate::new(pin),
        Err(e) => gate.fail("pins", e),
    }
    if gate.failed == 0 {
        if let Err(e) = measure(
            cfg,
            &mut tracer,
            &mut gate,
            &mut metrics,
            &mut campaign_samples,
        ) {
            gate.fail("run", e);
        }
    }
    let attempted = gate.attempted.max(1);
    metrics.push(Metric {
        name: "ok_ratio",
        value: (attempted - gate.failed.min(attempted)) as f64 / attempted as f64,
    });
    let wanted = END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(PER_LAYER.iter().map(|m| m.name).filter(|_| cfg.trace));
    for name in wanted {
        if !metrics.iter().any(|m: &Metric| m.name == name) && gate.failed == 0 {
            gate.fail("report", format!("metric `{name}` was not measured"));
        }
    }
    Report {
        correct: gate.failed == 0 && gate.attempted > 0,
        attempted: gate.attempted.max(1),
        failed: gate.failed,
        problems: gate.problems,
        fingerprint: gate.reference,
        pinned: gate.pinned,
        metrics,
        spans: if cfg.trace {
            tracer.spans().to_vec()
        } else {
            Vec::new()
        },
        campaign_samples,
    }
}

fn measure(
    cfg: &RunConfig,
    tracer: &mut Tracer,
    gate: &mut Gate,
    metrics: &mut Vec<Metric>,
    campaign_s: &mut Vec<f64>,
) -> Result<(), String> {
    let w = cfg.workload;
    let mut emit = |name: &'static str, value: f64| metrics.push(Metric { name, value });

    // Set-up: spec → validated job and plan, then topology. A batch runs
    // before the first timed campaign and after each one, so the set-up
    // samples spread over the whole run. This host's memory speed flips
    // between two levels (~1.7x apart) every few seconds, and set-up is
    // page- and pointer-bound: the median of such a mixture jumps between
    // the levels with the share of slow samples, the mean moves with it
    // smoothly, so `setup_s` is the mean.
    let mut setup = Vec::new();
    let mut set_up = |tracer: &mut Tracer| -> Result<(CampaignJob, usize, Topology), String> {
        let mut built = None;
        for _ in 0..SETUP_BATCH {
            let t0 = Instant::now();
            let (job, slices) = tracer.span("scenario.config", |_| -> Result<_, String> {
                let job = w.job(cfg.seed, cfg.lengths)?;
                let slices = job.plan().len();
                Ok((job, slices))
            })?;
            let topo = tracer.span("scenario.topology", |_| job.spec.topology(job.seed));
            setup.push(t0.elapsed().as_secs_f64());
            built = Some((job, slices, topo));
        }
        Ok(built.expect("SETUP_BATCH is positive"))
    };
    let (job, slices, topo) = set_up(tracer)?;

    // Timed campaigns, tracing off.
    let mut cpu_s = Vec::new();
    let mut resolved = 0u64;
    let mut serve = ServeStats::default();
    let started = Instant::now();
    while campaign_s.len() < cfg.min_reps || started.elapsed().as_secs_f64() < cfg.seconds {
        let topo = (w.mode() == Mode::Local).then(|| topo.clone());
        let cpu0 = resources::cpu_seconds()?;
        let t0 = Instant::now();
        let done = guarded(|| {
            Ok(match topo {
                Some(topo) => {
                    let out = campaign::run_local(&job, topo);
                    (out.fingerprint(), Done::Local(out))
                }
                None => {
                    let r = campaign::run_distributed(&job)?;
                    (r.output.fingerprint(), Done::Served(r))
                }
            })
        });
        let secs = t0.elapsed().as_secs_f64();
        let cpu = resources::cpu_seconds()? - cpu0;
        match done {
            Ok((fp, done)) => {
                gate.check("timed campaign", slices, Ok(fp));
                let out = match &done {
                    Done::Local(out) => out,
                    Done::Served(r) => {
                        gate.serve("timed campaign", r);
                        serve.note(r, secs);
                        &r.output
                    }
                };
                resolved = out.collector.resolved;
                campaign_s.push(secs);
                cpu_s.push(cpu);
            }
            Err(e) => {
                gate.check("timed campaign", slices, Err(e));
                break;
            }
        }
        set_up(tracer)?;
    }
    // Read before the cross-checks below, so the figure is the timed
    // execution mode's own peak.
    let peak_rss = resources::peak_rss_mb()?;
    if campaign_s.is_empty() {
        return Err("no timed campaign completed".into());
    }
    let campaign = median(campaign_s);
    emit("setup_s", setup.iter().sum::<f64>() / setup.len() as f64);
    emit("campaign_s", campaign);
    emit("probes_per_s", resolved as f64 / campaign);
    emit("cpu_s", median(&cpu_s));
    emit("peak_rss_mb", peak_rss);

    // Cross-checks: the other execution modes must agree bit for bit.
    let mut local_s = Vec::new();
    match w.mode() {
        Mode::Local => {
            local_s = campaign_s.to_vec();
            if w.distributable() {
                let t0 = Instant::now();
                match guarded(|| campaign::run_distributed(&job)) {
                    Ok(r) => {
                        let secs = t0.elapsed().as_secs_f64();
                        gate.check("distributed", slices, Ok(r.output.fingerprint()));
                        gate.serve("distributed", &r);
                        serve.note(&r, secs);
                    }
                    Err(e) => gate.check("distributed", slices, Err(e)),
                }
            }
        }
        Mode::Distributed => {
            let t = topo.clone();
            let t0 = Instant::now();
            let fp = guarded(|| Ok(campaign::run_local(&job, t).fingerprint()));
            local_s.push(t0.elapsed().as_secs_f64());
            gate.check("run_sharded", slices, fp);
        }
    }
    let traced = match guarded(|| campaign::run_traced(&job, cfg.trace, tracer)) {
        Ok(t) => {
            gate.check("traced slice-by-slice merge", slices, Ok(t.fingerprint));
            Some(t)
        }
        Err(e) => {
            gate.check("traced slice-by-slice merge", slices, Err(e));
            None
        }
    };

    if cfg.trace {
        let traced = traced.ok_or("the traced run failed")?;
        let t0 = Instant::now();
        let diag = guarded(|| {
            let (out, diag) = campaign::run_local_diag(&job, topo.clone());
            Ok((out.fingerprint(), diag))
        });
        local_s.push(t0.elapsed().as_secs_f64());
        let diag = match diag {
            Ok((fp, diag)) => {
                gate.check("run_sharded_diag", slices, Ok(fp));
                diag
            }
            Err(e) => {
                gate.check("run_sharded_diag", slices, Err(e.clone()));
                return Err(e);
            }
        };
        let shortest = w.job(
            cfg.seed,
            Lengths {
                duration: SimDuration::from_secs(1),
                slice_width: SimDuration::from_secs(1),
            },
        )?;
        let min_slice = guarded(|| {
            Ok(tracer.span("experiment.min_slice", |_| {
                shortest.run_slice_index(0).measure_legs
            }))
        });
        if let Err(e) = min_slice {
            gate.fail("shortest slice", e);
        } else {
            gate.attempted += 1;
        }
        layers(
            &job,
            tracer,
            &traced,
            &serve,
            median(&local_s),
            diag.peak_table_bytes,
            &mut emit,
        );
    }
    Ok(())
}

/// Per-layer metrics: exact counts from the traced output, span times,
/// kernel ns/op at the workload's shape, and the modelled split of slice
/// time those give.
fn layers(
    job: &CampaignJob,
    tracer: &Tracer,
    traced: &Traced,
    serve: &ServeStats,
    untraced_local_s: f64,
    peak_table_bytes: u64,
    emit: &mut impl FnMut(&'static str, f64),
) {
    let out: &ExperimentOutput = &traced.output;
    let n = out.n as f64;
    let setup_median = |name: &str| median(&tracer.durations(name));
    emit("scenario.topology_s", setup_median("scenario.topology"));
    emit("scenario.config_s", setup_median("scenario.config"));

    let slices = tracer.durations("experiment.slice");
    let slice_total: f64 = slices.iter().sum();
    emit("experiment.slice_s.p50", median(&slices));
    emit(
        "experiment.slice_s.max",
        slices.iter().copied().fold(0.0, f64::max),
    );
    emit("experiment.slice_total_s", slice_total);
    emit(
        "experiment.min_slice_s",
        tracer.total("experiment.min_slice"),
    );
    emit("experiment.measure_legs", out.measure_legs as f64);

    // Exact counts.
    let net = &out.net;
    emit("netsim.events", (net.sent + net.delivered) as f64);
    emit(
        "netsim.drops",
        (net.dropped_outage + net.dropped_congestion) as f64,
    );
    emit("overlay.probes", out.overlay_probes as f64);
    emit("overlay.lsa_bytes", net.lsa_bytes as f64);
    emit("overlay.lsa_entries", net.lsa_entries as f64);
    emit("overlay.table_bytes_per_host", peak_table_bytes as f64 / n);
    let decisions: u64 = out.route_usage.iter().map(|u| u.0).sum();
    let via: u64 = out.route_usage.iter().map(|u| u.1).sum();
    emit("overlay.route_decisions", decisions as f64);
    emit("overlay.via_ratio", via as f64 / decisions.max(1) as f64);
    let c = &out.collector;
    emit("trace.resolved", c.resolved as f64);
    emit("trace.peak_pending", c.peak_pending as f64);
    emit("trace.discarded", c.discarded as f64);
    emit("analysis.cells", n * n * out.names.len() as f64);

    // Kernel probes at the workload's shape.
    let shape = Shape::of(job);
    let transmit_ns = kernels::transmit_ns(&shape);
    let queue_ns = kernels::queue_ns(&shape);
    // Indexed by overlay::RouteTag: direct, rand, lat, loss.
    let route_ns = [
        0.0,
        kernels::route_ns(&shape, Policy::Random),
        kernels::route_ns(&shape, Policy::MinLat),
        kernels::route_ns(&shape, Policy::MinLoss),
    ];
    let ingest_ns = kernels::ingest_ns(&shape);
    let probe_ns = kernels::probe_ns(&shape);
    let pair_ns = kernels::pair_ns(&shape);
    let outcome_ns = kernels::outcome_ns(&shape);
    emit("netsim.transmit_ns", transmit_ns);
    emit("netsim.queue_ns", queue_ns);
    emit("overlay.route_ns.rand", route_ns[1]);
    emit("overlay.route_ns.lat", route_ns[2]);
    emit("overlay.route_ns.loss", route_ns[3]);
    emit("overlay.ingest_ns", ingest_ns);
    emit("overlay.probe_ns", probe_ns);
    emit("overlay.codec_ns", kernels::codec_ns(&shape));
    emit("trace.pair_ns", pair_ns);
    emit("analysis.outcome_ns", outcome_ns);

    // Modelled split of slice time: ns/op × exact op counts. The event
    // queue is charged a push+pop per delivered packet and per resolved
    // pair's wake. Overlay probes are charged both handlers (with the
    // piggybacked vector under full snapshot); vectors that travel as
    // standalone LSAs are charged one ingest each. Everything the probes
    // do not cover (probe scheduling, gossip rounds, slice construction,
    // node timers) is left in `unattributed_s`.
    let fed: u64 = (0..out.names.len())
        .map(|m| out.loss.summary(m as u8).pairs)
        .sum();
    let netsim_s =
        (net.sent as f64 * transmit_ns + (net.delivered + c.resolved) as f64 * queue_ns) * 1e-9;
    let routes: f64 = out
        .route_usage
        .iter()
        .zip(route_ns)
        .map(|(u, ns)| u.0 as f64 * ns)
        .sum();
    let lsa_ingests = if shape.dissemination == DisseminationMode::FullSnapshot {
        0.0
    } else {
        net.lsa_entries as f64 / shape.vector_len() as f64
    };
    let overlay_s =
        (routes + out.overlay_probes as f64 * probe_ns + lsa_ingests * ingest_ns) * 1e-9;
    let trace_s = c.resolved as f64 * pair_ns * 1e-9;
    let analysis_s = fed as f64 * outcome_ns * 1e-9;
    let share = |s: f64| s / slice_total.max(f64::MIN_POSITIVE);
    emit("netsim.share", share(netsim_s));
    emit("overlay.share", share(overlay_s));
    emit("trace.share", share(trace_s));
    emit("analysis.share", share(analysis_s));
    emit(
        "unattributed_s",
        slice_total - netsim_s - overlay_s - trace_s - analysis_s,
    );

    let merge_s = tracer.total("report.merge");
    let fingerprint_s = tracer.total("analysis.fingerprint");
    let encode_s = tracer.total("distrib.encode");
    let decode_s = tracer.total("distrib.decode");
    emit("analysis.fingerprint_s", fingerprint_s);
    emit("report.merge_s", merge_s);
    emit("report.render_s", tracer.total("report.render"));
    emit("distrib.result_bytes", traced.result_bytes as f64);
    emit("distrib.encode_s", encode_s);
    emit("distrib.decode_s", decode_s);
    emit("distrib.frames_over_cap", traced.frames_over_cap as f64);
    emit("distrib.releases", serve.releases as f64);
    emit("distrib.peak_buffered", serve.peak_buffered as f64);
    // Distributed wall time left after the compute, serde and merge the
    // traced run measured; zero when the workload is not distributed.
    let transport = if serve.secs.is_empty() {
        0.0
    } else {
        median(&serve.secs) - (slice_total + encode_s + decode_s + merge_s + fingerprint_s)
    };
    emit("distrib.transport_s", transport);

    let root = &tracer.spans()[traced.root];
    emit("traced.span_coverage", tracer.child_coverage(traced.root));
    // The traced campaign minus the work the untraced run_sharded path
    // does not do (the wire round trip, freeing and rendering).
    let extra =
        encode_s + decode_s + tracer.total("experiment.free") + tracer.total("report.render");
    emit("trace_overhead_s", root.secs() - extra - untraced_local_s);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_default_seed_is_pinned_for_every_workload_at_benchmark_lengths() {
        for w in Workload::ALL {
            let full = RunConfig::new(w, 1, 0.0, false);
            assert!(
                pinned_fingerprint(&full)
                    .expect("pins.json parses")
                    .is_some(),
                "{}",
                w.name()
            );
            let tiny = RunConfig {
                lengths: w.tiny_lengths(),
                ..full
            };
            assert_eq!(pinned_fingerprint(&tiny), Ok(None), "{}", w.name());
        }
    }

    #[test]
    fn the_gate_fails_every_slice_of_a_mismatch() {
        let mut gate = Gate::new(Some(7));
        gate.check("a", 4, Ok(7));
        gate.check("b", 4, Ok(8));
        gate.check("c", 2, Err("boom".into()));
        assert_eq!((gate.attempted, gate.failed), (10, 6));
        assert_eq!(gate.problems.len(), 2);
    }
}
