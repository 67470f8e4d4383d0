//! The metric catalogue: every name the benchmark emits, with its unit,
//! its direction, and (per-layer) which end-to-end metric it should move
//! on which workload. `BENCHMARK.json` mirrors the names, units,
//! directions and bounds; the benchmark's tests hold the two equal.

/// An end-to-end metric: what a user of the campaign runner sees.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// What it measures.
    pub about: &'static str,
}

/// A per-layer metric from the traced run.
pub struct PerLayer {
    /// Metric name; the part before the first `.` names the layer.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// The end-to-end metric it should move, and on which workload.
    pub moves: &'static str,
}

/// End-to-end metrics, reported with tracing off.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        about:
            "spec to validated job, topology and slice plan (mean of set-ups spread over the run)",
    },
    EndToEnd {
        name: "campaign_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        about: "job start to a merged output whose fingerprint was checked (median)",
    },
    EndToEnd {
        name: "probes_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
        about: "resolved probe pairs per campaign_s",
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        about: "process user+sys CPU during one campaign (median)",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.05,
        about: "peak resident memory of the workload's process through its timed campaigns",
    },
    EndToEnd {
        name: "ok_ratio",
        unit: "ratio",
        better: "higher",
        bound: 0.01,
        about: "1 - fail_ratio: slices that passed over slices attempted",
    },
];

const ALL3: &str = "all workloads";

/// Per-layer metrics, reported by the traced run.
pub const PER_LAYER: &[PerLayer] = &[
    PerLayer { name: "scenario.topology_s", unit: "s", better: "lower", moves: "setup_s on all workloads, mostly sparse-scale-240" },
    PerLayer { name: "scenario.config_s", unit: "s", better: "lower", moves: "setup_s on all workloads" },
    PerLayer { name: "experiment.slice_s.p50", unit: "s", better: "lower", moves: "campaign_s on all workloads" },
    PerLayer { name: "experiment.slice_s.max", unit: "s", better: "lower", moves: "campaign_s on all workloads" },
    PerLayer { name: "experiment.slice_total_s", unit: "s", better: "lower", moves: "campaign_s on all workloads; base of the *.share ratios" },
    PerLayer { name: "experiment.min_slice_s", unit: "s", better: "lower", moves: "campaign_s on distrib-sparse and sparse-scale-240 (fixed per-slice cost)" },
    PerLayer { name: "experiment.measure_legs", unit: "count", better: "higher", moves: "probes_per_s on ron2003-campaign" },
    PerLayer { name: "netsim.events", unit: "count", better: "lower", moves: "campaign_s on sparse-scale-240 and ron2003-campaign" },
    PerLayer { name: "netsim.drops", unit: "count", better: "lower", moves: "campaign_s on sparse-scale-240 and ron2003-campaign" },
    PerLayer { name: "netsim.transmit_ns", unit: "ns", better: "lower", moves: "campaign_s on sparse-scale-240 and ron2003-campaign" },
    PerLayer { name: "netsim.queue_ns", unit: "ns", better: "lower", moves: "campaign_s on sparse-scale-240 and ron2003-campaign" },
    PerLayer { name: "netsim.share", unit: "ratio", better: "lower", moves: "campaign_s on sparse-scale-240 and ron2003-campaign" },
    PerLayer { name: "overlay.probes", unit: "count", better: "lower", moves: "campaign_s on sparse-scale-240" },
    PerLayer { name: "overlay.lsa_bytes", unit: "bytes", better: "lower", moves: "campaign_s on sparse-scale-240" },
    PerLayer { name: "overlay.lsa_entries", unit: "count", better: "lower", moves: "campaign_s on sparse-scale-240" },
    PerLayer { name: "overlay.table_bytes_per_host", unit: "bytes", better: "lower", moves: "peak_rss_mb on sparse-scale-240" },
    PerLayer { name: "overlay.route_decisions", unit: "count", better: "lower", moves: "campaign_s on sparse-scale-240, less on ron2003-campaign" },
    PerLayer { name: "overlay.via_ratio", unit: "ratio", better: "lower", moves: "campaign_s on sparse-scale-240 (relayed legs cost extra transmits)" },
    PerLayer { name: "overlay.route_ns.lat", unit: "ns", better: "lower", moves: "campaign_s on sparse-scale-240, less on ron2003-campaign" },
    PerLayer { name: "overlay.route_ns.loss", unit: "ns", better: "lower", moves: "campaign_s on sparse-scale-240, less on ron2003-campaign" },
    PerLayer { name: "overlay.route_ns.rand", unit: "ns", better: "lower", moves: "campaign_s on sparse-scale-240, less on ron2003-campaign" },
    PerLayer { name: "overlay.ingest_ns", unit: "ns", better: "lower", moves: "campaign_s on sparse-scale-240, less on ron2003-campaign" },
    PerLayer { name: "overlay.probe_ns", unit: "ns", better: "lower", moves: "campaign_s on ron2003-campaign (vectors piggyback on probes) and sparse-scale-240" },
    PerLayer { name: "overlay.codec_ns", unit: "ns", better: "lower", moves: "nothing simulated (the simulator passes packets unencoded); the live overlay's wire cost" },
    PerLayer { name: "overlay.share", unit: "ratio", better: "lower", moves: "campaign_s on sparse-scale-240, less on ron2003-campaign" },
    PerLayer { name: "trace.resolved", unit: "count", better: "higher", moves: "probes_per_s on all workloads" },
    PerLayer { name: "trace.peak_pending", unit: "count", better: "lower", moves: "peak_rss_mb on ron2003-campaign" },
    PerLayer { name: "trace.discarded", unit: "count", better: "lower", moves: "probes_per_s on ron2003-campaign" },
    PerLayer { name: "trace.pair_ns", unit: "ns", better: "lower", moves: "campaign_s on ron2003-campaign; bypassed on sparse-scale-240" },
    PerLayer { name: "trace.share", unit: "ratio", better: "lower", moves: "campaign_s on ron2003-campaign; bypassed on sparse-scale-240" },
    PerLayer { name: "analysis.cells", unit: "count", better: "lower", moves: "peak_rss_mb on sparse-scale-240 and distrib-sparse" },
    PerLayer { name: "analysis.outcome_ns", unit: "ns", better: "lower", moves: "campaign_s on ron2003-campaign" },
    PerLayer { name: "analysis.fingerprint_s", unit: "s", better: "lower", moves: "campaign_s on ron2003-campaign" },
    PerLayer { name: "analysis.share", unit: "ratio", better: "lower", moves: "campaign_s on ron2003-campaign" },
    PerLayer { name: "report.merge_s", unit: "s", better: "lower", moves: "campaign_s on ron2003-campaign and distrib-sparse" },
    PerLayer { name: "report.render_s", unit: "s", better: "lower", moves: "campaign_s on ron2003-campaign and distrib-sparse" },
    PerLayer { name: "distrib.result_bytes", unit: "bytes", better: "lower", moves: "campaign_s, cpu_s and peak_rss_mb on distrib-sparse" },
    PerLayer { name: "distrib.encode_s", unit: "s", better: "lower", moves: "campaign_s and cpu_s on distrib-sparse" },
    PerLayer { name: "distrib.decode_s", unit: "s", better: "lower", moves: "campaign_s and cpu_s on distrib-sparse" },
    PerLayer { name: "distrib.frames_over_cap", unit: "count", better: "lower", moves: "whether sparse-scale-240 can run distributed at all" },
    PerLayer { name: "distrib.releases", unit: "count", better: "lower", moves: "campaign_s and ok_ratio on distrib-sparse" },
    PerLayer { name: "distrib.peak_buffered", unit: "count", better: "lower", moves: "peak_rss_mb on distrib-sparse" },
    PerLayer { name: "distrib.transport_s", unit: "s", better: "lower", moves: "campaign_s and cpu_s on distrib-sparse" },
    PerLayer { name: "traced.span_coverage", unit: "ratio", better: "higher", moves: ALL3 },
    PerLayer { name: "trace_overhead_s", unit: "s", better: "lower", moves: ALL3 },
    PerLayer { name: "unattributed_s", unit: "s", better: "lower", moves: ALL3 },
];

/// The unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}
