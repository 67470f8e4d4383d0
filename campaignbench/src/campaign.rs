//! The ways the benchmark executes one campaign job, each through the
//! public API a user of the repository would call.

use crate::spans::Tracer;
use analysis::{render_table5, render_table6, scenario_stamp, Table5Row};
use mpath_core::distrib::{encode_msg, read_msg_blocking, Msg};
use mpath_core::report::{merge_outputs, table6};
use mpath_core::shard::{run_sharded, run_sharded_diag, CampaignDiag};
use mpath_core::{
    run_worker, serve_campaign, CampaignJob, ExperimentOutput, ServeOptions, ServeReport,
    WorkerOptions,
};
use netsim::Topology;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Runs `f`, turning a panic into an error so one failed campaign is
/// counted against the gate instead of aborting the benchmark.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".into());
        Err(format!("panicked: {msg}"))
    })
}

/// `shard::run_sharded` on one simulation thread.
pub fn run_local(job: &CampaignJob, topo: Topology) -> ExperimentOutput {
    let mut cfg = job.config();
    cfg.shards = 1;
    run_sharded(topo, cfg)
}

/// `shard::run_sharded_diag`: the same slices in the same order, plus
/// the link-state table footprint.
pub fn run_local_diag(job: &CampaignJob, topo: Topology) -> (ExperimentOutput, CampaignDiag) {
    let mut cfg = job.config();
    cfg.shards = 1;
    run_sharded_diag(topo, cfg)
}

/// `serve_campaign` on a loopback port with one in-process
/// `run_worker` (one lease at a time): one connection, and at most two
/// busy threads (the worker's simulation and the coordinator's decode).
pub fn run_distributed(job: &CampaignJob) -> Result<ServeReport, String> {
    let listener = std::net::TcpListener::bind("127.0.0.1:0")
        .map_err(|e| format!("cannot bind a loopback port: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("listener has no address: {e}"))?;
    std::thread::scope(|scope| {
        let worker = scope.spawn(move || {
            run_worker(
                addr,
                WorkerOptions {
                    jobs: 1,
                    ..WorkerOptions::default()
                },
            )
        });
        let served = serve_campaign(listener, job.clone(), ServeOptions::default());
        let worked = worker
            .join()
            .map_err(|_| "worker thread panicked".to_string())?;
        let report = served.map_err(|e| format!("coordinator failed: {e}"))?;
        let worked = worked.map_err(|e| format!("worker failed: {e}"))?;
        if worked.slices_run as usize != report.slices {
            return Err(format!(
                "worker delivered {} of {} slices",
                worked.slices_run, report.slices
            ));
        }
        Ok(report)
    })
}

/// What the traced slice-by-slice run hands back.
pub struct Traced {
    /// The merged output (built from the decoded slice results when the
    /// wire round trip ran).
    pub output: ExperimentOutput,
    /// Its fingerprint.
    pub fingerprint: u64,
    /// Per-slice result frames' total encoded size.
    pub result_bytes: u64,
    /// Frames above the wire's frame cap, decoded from the body directly.
    pub frames_over_cap: u64,
    /// Span id of the campaign root.
    pub root: usize,
}

/// The campaign split into its public calls, each inside a span:
/// `CampaignJob::run_slice_index` per slice, with `wire` each result
/// through the wire codec (`encode_msg`, then `read_msg_blocking`),
/// `merge_outputs` over the (decoded) results, the rendered report, and
/// the fingerprint.
pub fn run_traced(job: &CampaignJob, wire: bool, t: &mut Tracer) -> Result<Traced, String> {
    let root = t.spans().len();
    let slices = job.plan().len();
    let mut result_bytes = 0u64;
    let mut frames_over_cap = 0u64;
    let (output, fingerprint) =
        t.span("campaign", |t| -> Result<(ExperimentOutput, u64), String> {
            let mut decoded = Vec::with_capacity(slices);
            for k in 0..slices {
                let output = t.span("experiment.slice", |_| job.run_slice_index(k));
                if !wire {
                    decoded.push(output);
                    continue;
                }
                let msg = Msg::Result {
                    slice: k as u64,
                    output: Box::new(output),
                };
                let frame = t.span("distrib.encode", |_| encode_msg(&msg));
                result_bytes += frame.len() as u64;
                // The original output is freed before its decoded twin is
                // built, so a slice is resident once, not twice.
                t.span("experiment.free", |_| drop(msg));
                // Decoding consumes the frame: receiving a result ends with
                // its buffer freed.
                let (back, over_cap) = t.span("distrib.decode", |_| decode_frame(frame))?;
                frames_over_cap += over_cap as u64;
                match back {
                    Msg::Result { slice, output } if slice == k as u64 => decoded.push(*output),
                    other => return Err(format!("slice {k} decoded as {other:?}")),
                }
            }
            let merged = t.span("report.merge", |_| merge_outputs(decoded));
            let report = t.span("report.render", |_| render(&merged));
            if report.is_empty() {
                return Err("empty report".into());
            }
            let fingerprint = t.span("analysis.fingerprint", |_| merged.fingerprint());
            Ok((merged, fingerprint))
        })?;
    Ok(Traced {
        output,
        fingerprint,
        result_bytes,
        frames_over_cap,
        root,
    })
}

/// Decodes one frame with the wire's own reader. A frame above the
/// reader's size cap is refused there; its body is then decoded with the
/// same JSON parser directly, and the second value says so.
fn decode_frame(frame: Vec<u8>) -> Result<(Msg, bool), String> {
    match read_msg_blocking(&mut io::Cursor::new(&frame)) {
        Ok(Some(msg)) => Ok((msg, false)),
        Ok(None) => Err("empty frame".into()),
        Err(e) if e.to_string().contains("exceeds cap") => {
            let body =
                std::str::from_utf8(&frame[4..]).map_err(|e| format!("frame not UTF-8: {e}"))?;
            let msg = serde_json::from_str(body).map_err(|e| format!("bad frame: {e}"))?;
            Ok((msg, true))
        }
        Err(e) => Err(format!("cannot decode a result frame: {e}")),
    }
}

/// The report `repro --scenario` prints (Table 5 rows for every method)
/// plus Table 6.
pub fn render(out: &ExperimentOutput) -> String {
    let rows: Vec<Table5Row> = out
        .names
        .iter()
        .map(|name| Table5Row {
            name: name.clone(),
            summary: out.summary(name).expect("every named method has a summary"),
        })
        .collect();
    let mut text = render_table5(&scenario_stamp(&out.scenario, out.spec_digest), &rows);
    text.push_str(&render_table6(&table6(out)));
    text
}
