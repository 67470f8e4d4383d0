//! Kernel probes: each layer's public hot-path calls timed in isolation
//! at a workload's shape (host count, probe mesh, method count, metric
//! vector length). Every probe runs a fixed number of operations three
//! times and reports the median nanoseconds per operation.

use mpath_core::CampaignJob;
use netsim::{EventQueue, HostId, Network, Rng, SimDuration, SimTime, Topology};
use overlay::{
    DisseminationMode, LinkStateTable, MetricEntry, NodeConfig, OverlayNode, Packet, Policy, Route,
};
use std::hint::black_box;
use std::time::Instant;
use trace::record::MAX_PROBE_LEGS;
use trace::{Collector, CollectorConfig, LegOutcome, PairOutcome, RecvEvent, SendEvent};

/// The workload properties the kernels are shaped by.
pub struct Shape {
    /// Host count.
    pub n: usize,
    /// Measurement destinations per host (the sparse probe mesh), or
    /// `None` for the full clique.
    pub mesh: Option<Vec<Vec<u16>>>,
    /// Analysis-method count (real methods plus inferred views).
    pub methods: usize,
    /// Maximum legs per probe.
    pub max_legs: usize,
    /// Overlay node parameters.
    pub node: NodeConfig,
    /// Link-state dissemination strategy.
    pub dissemination: DisseminationMode,
    /// Testbed, for the underlay transmit probe.
    pub topology: Topology,
    /// Seed for every synthetic input.
    pub seed: u64,
}

impl Shape {
    /// The shape of `job`'s campaign.
    pub fn of(job: &CampaignJob) -> Shape {
        let topology = job.spec.topology(job.seed);
        let cfg = job.config();
        Shape {
            n: topology.n(),
            mesh: topology.probe_mesh().map(|m| m.as_ref().clone()),
            methods: cfg.methods.total(),
            max_legs: cfg.methods.max_legs(),
            node: cfg.node,
            dissemination: cfg.dissemination,
            topology,
            seed: job.seed,
        }
    }

    /// Length of a full link-state vector: every node probes every peer,
    /// so each advertises n − 1 entries.
    pub fn vector_len(&self) -> usize {
        self.n - 1
    }

    /// A deterministic stream of (src, dst) measurement pairs.
    fn pairs(&self, count: usize, salt: u64) -> Vec<(u16, u16)> {
        let mut rng = Rng::new(self.seed ^ salt);
        let n = self.n as u64;
        (0..count)
            .map(|_| {
                let src = rng.below(n) as u16;
                let dst = match &self.mesh {
                    Some(mesh) => {
                        let nbrs = &mesh[src as usize];
                        nbrs[rng.below(nbrs.len() as u64) as usize]
                    }
                    None => {
                        let d = rng.below(n - 1) as u16;
                        if d >= src {
                            d + 1
                        } else {
                            d
                        }
                    }
                };
                (src, dst)
            })
            .collect()
    }
}

/// Median ns/op of three rounds of `round(ops)`; `round` returns the
/// elapsed seconds of its timed part.
fn median_ns(ops: usize, mut round: impl FnMut() -> f64) -> f64 {
    let mut ns: Vec<f64> = (0..3).map(|_| round() * 1e9 / ops as f64).collect();
    ns.sort_by(f64::total_cmp);
    ns[1]
}

/// `Network::transmit` over the workload's measurement pairs, the
/// clock advancing 1 ms per packet.
pub fn transmit_ns(shape: &Shape) -> f64 {
    const OPS: usize = 200_000;
    let pairs = shape.pairs(OPS, 0x7A);
    median_ns(OPS, || {
        let mut net = Network::new(shape.topology.clone(), shape.seed);
        let t0 = Instant::now();
        for (i, &(s, d)) in pairs.iter().enumerate() {
            let now = SimTime::from_millis(i as u64);
            black_box(net.transmit(now, HostId(s), HostId(d)));
        }
        t0.elapsed().as_secs_f64()
    })
}

/// `EventQueue` push+pop at a steady depth of four events per host (a
/// wake, a node timer and in-flight packets), each popped event
/// rescheduling itself up to one second later.
pub fn queue_ns(shape: &Shape) -> f64 {
    const OPS: usize = 500_000;
    let depth = 4 * shape.n;
    median_ns(OPS, || {
        let mut rng = Rng::new(shape.seed ^ 0x0E);
        let mut q = EventQueue::new();
        for i in 0..depth as u64 {
            q.push(SimTime::from_micros(rng.below(1_000_000)), i);
        }
        let t0 = Instant::now();
        for _ in 0..OPS {
            let (at, ev) = q.pop().expect("the queue holds `depth` events");
            q.push(at + SimDuration::from_micros(1 + rng.below(1_000_000)), ev);
        }
        let secs = t0.elapsed().as_secs_f64();
        black_box(q.len());
        secs
    })
}

/// A link-state table with a node's default parameters, populated the
/// way a converged mesh populates it: probe history to every peer and a
/// full (n − 1 entry) vector from each.
fn converged_table(shape: &Shape, now: SimTime) -> LinkStateTable {
    let cfg = shape.node;
    let mut table = LinkStateTable::new(
        HostId(0),
        shape.n,
        cfg.window,
        cfg.ewma_alpha,
        1 + cfg.prober.fast_count,
        cfg.staleness,
        cfg.loss_hysteresis,
        cfg.lat_hysteresis,
    );
    for peer in 1..shape.n as u16 {
        for i in 0..20u64 {
            if (peer as u64 + i).is_multiple_of(17) {
                table.direct_mut(HostId(peer)).record_loss();
            } else {
                let ms = 20 + (peer as u64 * 7 + i) % 60;
                table
                    .direct_mut(HostId(peer))
                    .record_success(now, SimDuration::from_millis(ms));
            }
        }
        table.on_metrics(HostId(peer), &vector(shape, peer), now);
    }
    table
}

/// The metric vector `from` advertises: an entry for every other host.
fn vector(shape: &Shape, from: u16) -> Vec<MetricEntry> {
    (0..shape.n as u16)
        .filter(|&j| j != from)
        .map(|j| MetricEntry {
            peer: HostId(j),
            loss_e4: ((j as u32 * 11 + from as u32 * 3) % 300) as u16,
            lat_us: 10_000 + (j as u32 * 997 + from as u32 * 13) % 80_000,
            alive: true,
        })
        .collect()
}

/// `LinkStateTable::route` (first legs) alternating with
/// `route_avoiding` (later legs, steering around the direct path) under
/// `policy`, toward every destination in turn.
pub fn route_ns(shape: &Shape, policy: Policy) -> f64 {
    const OPS: usize = 20_000;
    let now = SimTime::from_secs(100);
    let table = converged_table(shape, now);
    median_ns(OPS, || {
        let mut rng = Rng::new(shape.seed ^ 0x40);
        let t0 = Instant::now();
        for i in 0..OPS {
            let dst = HostId(1 + (i % (shape.n - 1)) as u16);
            let r = if i % 2 == 0 {
                table.route(dst, policy, now, &mut rng)
            } else {
                table.route_avoiding(dst, policy, now, &mut rng, &[Route::Direct])
            };
            black_box(r);
        }
        t0.elapsed().as_secs_f64()
    })
}

/// `LinkStateTable::on_metrics` ingesting one full vector, per call.
pub fn ingest_ns(shape: &Shape) -> f64 {
    const OPS: usize = 4_000;
    let now = SimTime::from_secs(100);
    let mut table = converged_table(shape, now);
    let vectors: Vec<Vec<MetricEntry>> = (1..shape.n as u16).map(|p| vector(shape, p)).collect();
    median_ns(OPS, || {
        let t0 = Instant::now();
        for i in 0..OPS {
            let from = 1 + (i % (shape.n - 1)) as u16;
            table.on_metrics(HostId(from), &vectors[from as usize - 1], now);
        }
        t0.elapsed().as_secs_f64()
    })
}

/// `OverlayNode::on_packet` for both halves of one overlay probe: the
/// target handling the `ProbeReq` (ingesting any piggybacked vector and
/// building its reply) and the origin handling the `ProbeResp`. Probes
/// carry full vectors only under full-snapshot dissemination, as in the
/// campaign.
pub fn probe_ns(shape: &Shape) -> f64 {
    const OPS: usize = 4_000;
    let now = SimTime::from_secs(100);
    let mut node = OverlayNode::new_with_dissemination(
        HostId(0),
        shape.n,
        shape.node,
        shape.seed,
        SimTime::ZERO,
        shape.dissemination,
    );
    let piggyback = shape.dissemination == DisseminationMode::FullSnapshot;
    let vectors: Vec<Vec<MetricEntry>> = (1..shape.n as u16)
        .map(|p| {
            if piggyback {
                vector(shape, p)
            } else {
                Vec::new()
            }
        })
        .collect();
    let mut out = Vec::new();
    let mut id = 0u64;
    let mut probe = |node: &mut OverlayNode, out: &mut Vec<_>, i: usize| {
        let from = HostId(1 + (i % (shape.n - 1)) as u16);
        let metrics = vectors[from.0 as usize - 1].clone();
        id += 1;
        node.on_packet(
            now,
            0,
            Packet::ProbeReq {
                id,
                from,
                sent_local_us: 0,
                metrics: metrics.clone(),
            },
            out,
        );
        node.on_packet(
            now,
            0,
            Packet::ProbeResp {
                id,
                from,
                resp_local_us: 0,
                metrics,
            },
            out,
        );
        out.clear();
    };
    // Converge first: every peer heard from once.
    for i in 0..shape.n {
        probe(&mut node, &mut out, i);
    }
    median_ns(OPS, || {
        let t0 = Instant::now();
        for i in 0..OPS {
            probe(&mut node, &mut out, i);
        }
        t0.elapsed().as_secs_f64()
    })
}

/// `Packet::encode` plus `Packet::decode` of a probe carrying a full
/// metric vector, per packet.
pub fn codec_ns(shape: &Shape) -> f64 {
    const OPS: usize = 20_000;
    let pkt = Packet::ProbeReq {
        id: 0xFEED,
        from: HostId(1),
        sent_local_us: 123_456_789,
        metrics: vector(shape, 1),
    };
    median_ns(OPS, || {
        let t0 = Instant::now();
        for _ in 0..OPS {
            let bytes = pkt.encode();
            black_box(Packet::decode(&bytes).expect("a freshly encoded packet decodes"));
        }
        t0.elapsed().as_secs_f64()
    })
}

/// A synthetic probe pair: `legs` legs sent 1 ms apart in time order,
/// one leg in twenty lost.
fn pair_legs(i: u64, legs: usize) -> [Option<LegOutcome>; MAX_PROBE_LEGS] {
    let mut out = [None; MAX_PROBE_LEGS];
    for (j, slot) in out.iter_mut().enumerate().take(legs) {
        let lost = (i + j as u64).is_multiple_of(20);
        *slot = Some(LegOutcome {
            route: (j % 4) as u8,
            lost,
            one_way_us: if lost {
                None
            } else {
                Some(40_000 + (i % 5_000) as i64)
            },
        });
    }
    out
}

/// The `trace::Collector` per resolved pair: `on_send` and (unless
/// lost) `on_recv` for every leg, with `advance` + `drain_into` every
/// 1000 pairs, as the experiment's sweep does.
pub fn pair_ns(shape: &Shape) -> f64 {
    const OPS: usize = 200_000;
    let pairs = shape.pairs(OPS, 0x9A);
    let legs = shape.max_legs.min(2);
    median_ns(OPS, || {
        let mut col = Collector::new(shape.n, CollectorConfig::default());
        let mut buf = Vec::new();
        let t0 = Instant::now();
        for (i, &(s, d)) in pairs.iter().enumerate() {
            let i = i as u64;
            // 240 pairs/s mesh-wide, roughly the campaign's send rate.
            let t = SimTime::from_micros(i * 4_000);
            for leg in 0..legs as u8 {
                col.on_send(SendEvent {
                    id: i,
                    method: (i % 6) as u8,
                    leg,
                    src: HostId(s),
                    dst: HostId(d),
                    route: leg,
                    sent: t,
                    sent_local_us: t.as_micros() as i64,
                });
                if !(i + leg as u64).is_multiple_of(20) {
                    let r = t + SimDuration::from_millis(40);
                    col.on_recv(RecvEvent {
                        id: i,
                        leg,
                        recv: r,
                        recv_local_us: r.as_micros() as i64,
                    });
                }
            }
            if i % 1000 == 999 {
                col.advance(t);
                col.drain_into(&mut buf);
                black_box(buf.len());
            }
        }
        col.finish(SimTime::from_micros(OPS as u64 * 4_000) + SimDuration::from_secs(3600));
        col.drain_into(&mut buf);
        let secs = t0.elapsed().as_secs_f64();
        black_box(buf.len());
        secs
    })
}

/// `LossAccum::on_outcome` plus both `WindowAccum::on_outcome`s (20 min
/// and 1 h) per outcome, over the workload's n²·methods cell grid.
pub fn outcome_ns(shape: &Shape) -> f64 {
    const OPS: usize = 300_000;
    let pairs = shape.pairs(OPS, 0xA0);
    let outcomes: Vec<PairOutcome> = pairs
        .iter()
        .enumerate()
        .map(|(i, &(s, d))| {
            let i = i as u64;
            PairOutcome::from_legs(
                i,
                (i % shape.methods as u64) as u8,
                HostId(s),
                HostId(d),
                SimTime::from_micros(i * 4_000),
                pair_legs(i, shape.max_legs.min(2)),
                false,
            )
        })
        .collect();
    let mut loss = analysis::LossAccum::with_depth(shape.n, shape.methods, shape.max_legs);
    let mut win20 = analysis::WindowAccum::new(shape.n, shape.methods, SimDuration::from_mins(20));
    let mut win60 = analysis::WindowAccum::new(shape.n, shape.methods, SimDuration::from_hours(1));
    median_ns(OPS, || {
        let t0 = Instant::now();
        for o in &outcomes {
            loss.on_outcome(o);
            win20.on_outcome(o);
            win60.on_outcome(o);
        }
        t0.elapsed().as_secs_f64()
    })
}
