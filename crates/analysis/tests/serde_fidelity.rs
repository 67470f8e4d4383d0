//! Serde-fidelity and layout-equivalence property tests: an accumulator
//! that crossed the wire must be indistinguishable — to the bit — from
//! one that never left the process, and an accumulator keyed by a probe
//! mesh must be indistinguishable from the dense `n × n` grid it
//! replaced.
//!
//! This is the invariant the distributed campaign runner leans on: a
//! worker streams random outcomes into a private accumulator, ships it
//! as JSON, and the coordinator merges the deserialized copy into a
//! sibling. If any counter, histogram bucket, open-window fragment or
//! f64 latency sum loses precision in transit, the merged digest here
//! diverges from the never-serialized path long before a campaign
//! fingerprint would.
//!
//! Every property runs on a random probe mesh (sometimes the full
//! clique) with outcomes on its pairs: random outcomes → accumulate →
//! JSON round-trip → merge into a sibling → [`Fnv`] digest equals the
//! digest of merging the originals directly. Outcomes include 3- and
//! 4-leg probes so the `max_legs > 2` best-of-first-j extension (the
//! k-leg depth guard) crosses the wire too, not just the paper's pairs.
//! The `aos` module keeps the dense array-of-structs accumulators as
//! reference models: the mesh-indexed layout must match their digests,
//! summaries, per-path series and merges exactly.

use analysis::loss::Cell;
use analysis::{Fnv, Histogram, LossAccum, PairIndex, WindowAccum};
use netsim::{HostId, NetCounters, SimDuration, SimTime};
use proptest::prelude::*;
use std::sync::Arc;
use trace::record::MAX_PROBE_LEGS;
use trace::{CollectorStats, LegOutcome, PairOutcome};

const HOSTS: u16 = 4;
const METHODS: u8 = 3;

fn arb_leg() -> impl Strategy<Value = LegOutcome> {
    (0u8..4, any::<bool>(), any::<Option<i64>>()).prop_map(|(route, lost, one_way)| LegOutcome {
        route,
        lost,
        // Lost legs never observed a one-way time.
        one_way_us: if lost { None } else { one_way },
    })
}

fn arb_outcome() -> impl Strategy<Value = PairOutcome> {
    (
        any::<u64>(),
        0..METHODS,
        0..HOSTS,
        0..HOSTS,
        0u64..3_600_000_000, // send instants inside one hour
        1usize..=MAX_PROBE_LEGS,
        proptest::collection::vec(arb_leg(), MAX_PROBE_LEGS..MAX_PROBE_LEGS + 1),
    )
        .prop_map(|(id, method, src, dst_raw, sent_us, present, legs)| {
            let dst = if dst_raw == src { (src + 1) % HOSTS } else { dst_raw };
            let mut slots = [None; MAX_PROBE_LEGS];
            for (slot, leg) in slots.iter_mut().zip(&legs).take(present) {
                *slot = Some(*leg);
            }
            PairOutcome::from_legs(
                id,
                method,
                HostId(src),
                HostId(dst),
                SimTime::from_micros(sent_us),
                slots,
                // Deterministic-but-arbitrary sprinkling of §4.1 discards.
                id % 11 == 0,
            )
        })
}

/// A random probe mesh over [`HOSTS`] hosts: `None` is the clique, else
/// each source probes a random non-empty subset of the other hosts.
fn arb_mesh() -> impl Strategy<Value = Option<Vec<Vec<u16>>>> {
    (any::<bool>(), proptest::collection::vec(any::<u8>(), HOSTS as usize..HOSTS as usize + 1))
        .prop_map(|(clique, masks)| {
            if clique {
                return None;
            }
            let rows = masks
                .iter()
                .enumerate()
                .map(|(s, mask)| {
                    let s = s as u16;
                    let row: Vec<u16> =
                        (0..HOSTS).filter(|&d| d != s && mask & (1 << d) != 0).collect();
                    if row.is_empty() {
                        vec![(s + 1) % HOSTS]
                    } else {
                        row
                    }
                })
                .collect();
            Some(rows)
        })
}

/// The pair index of a generated mesh.
fn index(mesh: &Option<Vec<Vec<u16>>>) -> Arc<PairIndex> {
    Arc::new(match mesh {
        None => PairIndex::clique(HOSTS as usize),
        Some(rows) => PairIndex::from_neighbor_lists(HOSTS as usize, rows),
    })
}

/// Moves every outcome onto a pair the mesh probes (the clique keeps
/// them all), as the experiment's destination draw does.
fn on_mesh(mesh: &Option<Vec<Vec<u16>>>, outs: &[PairOutcome]) -> Vec<PairOutcome> {
    outs.iter()
        .map(|o| {
            let mut o = *o;
            if let Some(rows) = mesh {
                let row = &rows[o.src.idx()];
                o.dst = HostId(row[o.dst.idx() % row.len()]);
            }
            o
        })
        .collect()
}

fn digest(write: impl FnOnce(&mut Fnv)) -> u64 {
    let mut fnv = Fnv::new();
    write(&mut fnv);
    fnv.finish()
}

fn round_trip<T: serde::Serialize + serde::Deserialize>(v: &T) -> T {
    let json = serde_json::to_string(v).expect("accumulators always serialize");
    serde_json::from_str(&json).expect("own JSON must parse")
}

/// Asserts that `x` re-encodes to the same bytes after a round trip.
fn assert_byte_stable<T: serde::Serialize + serde::Deserialize>(x: &T) {
    let json = serde_json::to_string(x).unwrap();
    assert_eq!(serde_json::to_string(&round_trip(x)).unwrap(), json, "wire bytes moved");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn loss_accum_merges_identically_after_the_wire(
        depth in 2usize..=MAX_PROBE_LEGS,
        mesh in arb_mesh(),
        a in proptest::collection::vec(arb_outcome(), 0..80),
        b in proptest::collection::vec(arb_outcome(), 0..80),
    ) {
        let pairs = index(&mesh);
        let feed = |outs: &[PairOutcome]| {
            let mut acc = LossAccum::with_pairs(pairs.clone(), METHODS as usize, depth);
            for o in &on_mesh(&mesh, outs) {
                acc.on_outcome(o);
            }
            acc
        };
        // Never-serialized reference merge.
        let mut local = feed(&a);
        local.merge(&feed(&b));
        // The distributed path: both sides cross the wire first.
        let mut wired = round_trip(&feed(&a));
        wired.merge(&round_trip(&feed(&b)));
        prop_assert_eq!(
            digest(|f| local.digest(f)),
            digest(|f| wired.digest(f)),
            "depth {} merge diverged after JSON round-trip", depth
        );
        // The k-leg depth guard: the deep best-of-first-j curve itself
        // must survive, not just the digest fold.
        prop_assert_eq!(local.depth(), wired.depth());
        if depth > 2 {
            for m in 0..METHODS {
                prop_assert_eq!(
                    local.best_of_first_pct(m),
                    wired.best_of_first_pct(m)
                );
            }
        }
    }

    #[test]
    fn window_accum_round_trips_open_windows_exactly(
        mesh in arb_mesh(),
        a in proptest::collection::vec(arb_outcome(), 0..80),
        b in proptest::collection::vec(arb_outcome(), 0..80),
    ) {
        let pairs = index(&mesh);
        let feed = |outs: &[PairOutcome]| {
            let mut acc = WindowAccum::with_pairs(
                pairs.clone(),
                METHODS as usize,
                SimDuration::from_mins(20),
            );
            for o in &on_mesh(&mesh, outs) {
                acc.on_outcome(o);
            }
            acc
        };
        // Round-trip *before* finish: the open-window fragments must
        // cross the wire with full fidelity, so closing them afterwards
        // lands on identical statistics.
        let mut direct = feed(&a);
        let mut wired = round_trip(&direct);
        direct.finish();
        wired.finish();
        prop_assert_eq!(
            digest(|f| direct.digest(f)),
            digest(|f| wired.digest(f)),
            "open windows lost fidelity in transit"
        );
        // And the slice-shaped merge (finished sides only).
        let mut other = feed(&b);
        other.finish();
        direct.merge(&other);
        wired.merge(&round_trip(&other));
        prop_assert_eq!(digest(|f| direct.digest(f)), digest(|f| wired.digest(f)));
    }

    #[test]
    fn histogram_round_trips_and_merges_exactly(
        a in proptest::collection::vec(-0.5f64..1.5, 0..200),
        b in proptest::collection::vec(-0.5f64..1.5, 0..200),
    ) {
        let feed = |vals: &[f64]| {
            let mut h = Histogram::new(50);
            for &v in vals {
                h.push(v);
            }
            h
        };
        let mut local = feed(&a);
        local.merge(&feed(&b));
        let mut wired = round_trip(&feed(&a));
        wired.merge(&round_trip(&feed(&b)));
        prop_assert_eq!(digest(|f| local.digest(f)), digest(|f| wired.digest(f)));
    }

    #[test]
    fn net_counters_round_trip_and_merge(
        a in proptest::collection::vec(any::<u32>(), 6..7),
        b in proptest::collection::vec(any::<u32>(), 6..7),
    ) {
        let mk = |v: &[u32]| NetCounters {
            sent: v[0] as u64,
            delivered: v[1] as u64,
            dropped_outage: v[2] as u64,
            dropped_congestion: v[3] as u64,
            lsa_bytes: v[4] as u64,
            lsa_entries: v[5] as u64,
        };
        let (ca, cb) = (mk(&a), mk(&b));
        prop_assert_eq!(round_trip(&ca), ca);
        let mut local = ca;
        local.merge(&cb);
        let mut wired = round_trip(&ca);
        wired.merge(&round_trip(&cb));
        prop_assert_eq!(local, wired);
    }

    #[test]
    fn window_accum_soa_matches_the_aos_reference(
        mesh in arb_mesh(),
        a in proptest::collection::vec(arb_outcome(), 0..80),
        b in proptest::collection::vec(arb_outcome(), 0..80),
    ) {
        let width = SimDuration::from_mins(20);
        let pairs = index(&mesh);
        let (a, b) = (on_mesh(&mesh, &a), on_mesh(&mesh, &b));
        let feed_soa = |outs: &[PairOutcome]| {
            let mut acc = WindowAccum::with_pairs(pairs.clone(), METHODS as usize, width);
            for o in outs {
                acc.on_outcome(o);
            }
            acc
        };
        let feed_aos = |outs: &[PairOutcome]| {
            let mut acc = aos::WindowAccum::new(HOSTS as usize, METHODS as usize, width);
            for o in outs {
                acc.on_outcome(o);
            }
            acc
        };
        // Mid-stream, open windows and all: the mesh-indexed SoA layout
        // must re-encode byte-identically after a round trip ...
        let (mut soa, mut aos) = (feed_soa(&a), feed_aos(&a));
        assert_byte_stable(&soa);
        // ... and close and merge exactly like the dense AoS original.
        soa.finish();
        aos.finish();
        assert_byte_stable(&soa);
        let (mut soa_b, mut aos_b) = (feed_soa(&b), feed_aos(&b));
        soa_b.finish();
        aos_b.finish();
        soa.merge(&soa_b);
        aos.merge(&aos_b);
        prop_assert_eq!(digest(|f| soa.digest(f)), digest(|f| aos.digest(f)));
        for m in 0..METHODS {
            prop_assert_eq!(soa.threshold_counts(m), aos.thresholds[m as usize]);
            prop_assert_eq!(soa.window_count(m), aos.windows[m as usize]);
            prop_assert_eq!(
                digest(|f| soa.histogram(m).digest(f)),
                digest(|f| aos.hist[m as usize].digest(f))
            );
        }
        assert_byte_stable(&soa);
    }

    #[test]
    fn loss_accum_soa_matches_the_aos_reference(
        depth in 2usize..=MAX_PROBE_LEGS,
        mesh in arb_mesh(),
        a in proptest::collection::vec(arb_outcome(), 0..80),
        b in proptest::collection::vec(arb_outcome(), 0..80),
    ) {
        let pairs = index(&mesh);
        let (a, b) = (on_mesh(&mesh, &a), on_mesh(&mesh, &b));
        let feed_soa = |outs: &[PairOutcome]| {
            let mut acc = LossAccum::with_pairs(pairs.clone(), METHODS as usize, depth);
            for o in outs {
                acc.on_outcome(o);
            }
            acc
        };
        let feed_aos = |outs: &[PairOutcome]| {
            let mut acc = aos::LossAccum::with_depth(HOSTS as usize, METHODS as usize, depth);
            for o in outs {
                acc.on_outcome(o);
            }
            acc
        };
        let (mut soa, mut aos) = (feed_soa(&a), feed_aos(&a));
        prop_assert_eq!(
            digest(|f| soa.digest(f)),
            digest(|f| aos.digest(f)),
            "depth {} digest diverged from the dense reference", depth
        );
        assert_byte_stable(&soa);
        soa.merge(&feed_soa(&b));
        aos.merge(&feed_aos(&b));
        prop_assert_eq!(
            digest(|f| soa.digest(f)),
            digest(|f| aos.digest(f)),
            "depth {} merge digest diverged from the dense reference", depth
        );
        assert_byte_stable(&soa);
        // Every reader of the accumulator must see the dense grid.
        for m in 0..METHODS {
            prop_assert_eq!(soa.summary(m), aos.summary(m));
            prop_assert_eq!(soa.best_of_first_pct(m), aos.best_of_first_pct(m));
            prop_assert_eq!(soa.per_path_loss(m), aos.per_path_loss(m));
            prop_assert_eq!(soa.per_path_clp(m, 1), aos.per_path_clp(m, 1));
            prop_assert_eq!(soa.per_path_latency_ms(m), aos.per_path_latency_ms(m));
        }
        // Spot the accessor too: every cell the public API exposes must
        // carry the AoS counters bit-for-bit (unprobed pairs read zero).
        for m in 0..METHODS {
            for s in 0..HOSTS {
                for d in 0..HOSTS {
                    let got = soa.cell(m, HostId(s), HostId(d));
                    let want = &aos.cells[aos.idx(m, HostId(s), HostId(d))];
                    prop_assert_eq!(
                        serde_json::to_string(&got).unwrap(),
                        serde_json::to_string(want).unwrap()
                    );
                }
            }
        }
    }

    #[test]
    fn collector_stats_round_trip_and_merge(
        a in proptest::collection::vec(any::<u32>(), 6..7),
        b in proptest::collection::vec(any::<u32>(), 6..7),
    ) {
        let mk = |v: &[u32]| CollectorStats {
            resolved: v[0] as u64,
            discarded: v[1] as u64,
            late_receives: v[2] as u64,
            malformed_receives: v[3] as u64,
            malformed_sends: v[4] as u64,
            peak_pending: v[5] as u64,
        };
        let (sa, sb) = (mk(&a), mk(&b));
        prop_assert_eq!(round_trip(&sa), sa);
        let mut local = sa;
        local.merge(&sb);
        let mut wired = round_trip(&sa);
        wired.merge(&round_trip(&sb));
        prop_assert_eq!(local, wired);
    }
}

/// A finished 240-host k=6 slice — loss plus both window accumulators,
/// every probed pair touched — encodes to O(n·k) bytes. The dense
/// n²-cell encoding of the same slice was 111 MB.
#[test]
fn finished_sparse_240_accumulators_encode_in_o_n_k_bytes() {
    const N: usize = 240;
    const M: usize = 8;
    let mesh = netsim::sparse_mesh(N, 6, 1);
    let pairs = Arc::new(PairIndex::from_neighbor_lists(N, &mesh));
    assert_eq!(pairs.len(), N * 6);
    let mut loss = LossAccum::with_pairs(pairs.clone(), M, 2);
    let mut win20 = WindowAccum::with_pairs(pairs.clone(), M, SimDuration::from_mins(20));
    let mut win60 = WindowAccum::with_pairs(pairs.clone(), M, SimDuration::from_hours(1));
    let mut id = 0u64;
    for (s, row) in mesh.iter().enumerate() {
        for &d in row {
            for m in 0..M as u8 {
                id += 1;
                let lost = id.is_multiple_of(7);
                let one_way_us = if lost { None } else { Some(40_000) };
                let leg = LegOutcome { route: 0, lost, one_way_us };
                let o = PairOutcome::from_legs(
                    id,
                    m,
                    HostId(s as u16),
                    HostId(d),
                    SimTime::from_micros(id * 1_000),
                    [Some(leg), Some(leg), None, None],
                    false,
                );
                loss.on_outcome(&o);
                win20.on_outcome(&o);
                win60.on_outcome(&o);
            }
        }
    }
    win20.finish();
    win60.finish();
    let bytes: usize = [
        serde_json::to_string(&loss).unwrap(),
        serde_json::to_string(&win20).unwrap(),
        serde_json::to_string(&win60).unwrap(),
    ]
    .iter()
    .map(String::len)
    .sum();
    assert!(bytes < 2_000_000, "finished 240-host k=6 set encodes to {bytes} bytes");
    assert!(!serde_json::to_string(&win20).unwrap().contains("\"open\":[["), "no open cells");
}

/// Re-encodes `v` with the top-level field `key` replaced.
fn with_field(v: &serde::Value, key: &str, new: serde::Value) -> String {
    let serde::Value::Map(entries) = v else { panic!("accumulators encode as maps") };
    let entries =
        entries.iter().map(|(k, x)| (k.clone(), if k == key { new.clone() } else { x.clone() }));
    serde_json::to_string(&serde::Value::Map(entries.collect())).unwrap()
}

#[test]
fn decoding_rejects_malformed_pair_sets_and_cell_counts() {
    use serde::Serialize;
    let rows = vec![vec![1u16, 2], vec![0], vec![0, 1]];
    let pairs = Arc::new(PairIndex::from_neighbor_lists(3, &rows));
    let loss = LossAccum::with_pairs(pairs.clone(), 2, 2).to_value();
    let mut win = WindowAccum::with_pairs(pairs, 2, SimDuration::from_mins(20));
    win.finish();
    let win = win.to_value();
    let bad_meshes: [(Vec<Vec<u16>>, &str); 4] = [
        (vec![vec![2, 1], vec![0], vec![0, 1]], "not strictly ascending"),
        (vec![vec![1, 1], vec![0], vec![0, 1]], "not strictly ascending"),
        (vec![vec![1, 9], vec![0], vec![0, 1]], "outside 0..3"),
        (vec![vec![1, 2], vec![0]], "2 source rows"),
    ];
    for (mesh, want) in &bad_meshes {
        for (name, v) in [("loss", &loss), ("win", &win)] {
            let json = with_field(v, "mesh", mesh.to_value());
            let err = if name == "loss" {
                serde_json::from_str::<LossAccum>(&json).map(|_| ()).unwrap_err()
            } else {
                serde_json::from_str::<WindowAccum>(&json).map(|_| ()).unwrap_err()
            };
            assert!(err.to_string().contains(want), "{name} {mesh:?}: {err}");
        }
    }
    // The pair set says 5 pairs x 2 methods; the cells must agree.
    let short = with_field(&loss, "mesh", vec![vec![1u16], vec![0], vec![0, 1]].to_value());
    let err = serde_json::from_str::<LossAccum>(&short).map(|_| ()).unwrap_err();
    assert!(err.to_string().contains("(want 8)"), "{err}");
    let open = vec![(99usize, 0u64, 1u32, 0u32)].to_value();
    let err = serde_json::from_str::<WindowAccum>(&with_field(&win, "open", open))
        .map(|_| ())
        .unwrap_err();
    assert!(err.to_string().contains("outside 5 pairs x 2 methods"), "{err}");
    let open = vec![(3usize, 0u64, 1u32, 0u32), (1, 0, 1, 0)].to_value();
    let err = serde_json::from_str::<WindowAccum>(&with_field(&win, "open", open))
        .map(|_| ())
        .unwrap_err();
    assert!(err.to_string().contains("not strictly ascending"), "{err}");
}

/// The pre-SoA, pre-mesh array-of-structs accumulators over the dense
/// `n × n` grid, kept as reference models: the production code stores
/// parallel arrays keyed by the probed pair set, and these originals pin
/// the merge/digest semantics and the per-path readers the rewrite must
/// preserve.
mod aos {
    use super::{Cell, Fnv, Histogram};
    use analysis::latency::corrected_path_means;
    use analysis::MethodSummary;
    use netsim::{HostId, SimDuration};
    use trace::PairOutcome;

    #[derive(Debug, Clone, Copy, Default)]
    struct OpenWin {
        window_idx: u64,
        sent: u32,
        lost: u32,
        used: bool,
    }

    pub struct WindowAccum {
        width_us: u64,
        n: usize,
        open: Vec<OpenWin>,
        pub hist: Vec<Histogram>,
        pub thresholds: Vec<[u64; 10]>,
        pub windows: Vec<u64>,
    }

    impl WindowAccum {
        pub fn new(n: usize, methods: usize, width: SimDuration) -> Self {
            WindowAccum {
                width_us: width.as_micros(),
                n,
                open: vec![OpenWin::default(); n * n * methods],
                hist: (0..methods).map(|_| Histogram::new(200)).collect(),
                thresholds: vec![[0; 10]; methods],
                windows: vec![0; methods],
            }
        }

        fn close(&mut self, cell: usize) {
            let w = self.open[cell];
            if !w.used || w.sent == 0 {
                return;
            }
            let method = cell / (self.n * self.n);
            let rate = w.lost as f64 / w.sent as f64;
            self.hist[method].push(rate);
            self.windows[method] += 1;
            let th = &mut self.thresholds[method];
            if w.lost > 0 {
                th[0] += 1;
            }
            for (i, t) in th.iter_mut().enumerate().skip(1) {
                if rate > i as f64 / 10.0 {
                    *t += 1;
                }
            }
        }

        pub fn on_outcome(&mut self, o: &PairOutcome) {
            if o.discarded {
                return;
            }
            let cell =
                o.method as usize * self.n * self.n + o.src.idx() * self.n + o.dst.idx();
            let idx = o.sent.as_micros() / self.width_us;
            if self.open[cell].used && self.open[cell].window_idx != idx {
                self.close(cell);
                self.open[cell] = OpenWin::default();
            }
            let w = &mut self.open[cell];
            w.used = true;
            w.window_idx = idx;
            w.sent += 1;
            if o.all_lost() {
                w.lost += 1;
            }
        }

        pub fn finish(&mut self) {
            for cell in 0..self.open.len() {
                self.close(cell);
                self.open[cell] = OpenWin::default();
            }
        }

        pub fn merge(&mut self, other: &WindowAccum) {
            assert_eq!(self.width_us, other.width_us);
            assert_eq!(self.n, other.n);
            for (a, b) in self.hist.iter_mut().zip(&other.hist) {
                a.merge(b);
            }
            for (a, b) in self.thresholds.iter_mut().zip(&other.thresholds) {
                for (x, y) in a.iter_mut().zip(b) {
                    *x += y;
                }
            }
            for (a, b) in self.windows.iter_mut().zip(&other.windows) {
                *a += b;
            }
        }

        pub fn digest(&self, fnv: &mut Fnv) {
            fnv.write_u64(self.width_us);
            fnv.write_u64(self.n as u64);
            for h in &self.hist {
                h.digest(fnv);
            }
            for t in &self.thresholds {
                for &v in t {
                    fnv.write_u64(v);
                }
            }
            for &w in &self.windows {
                fnv.write_u64(w);
            }
        }
    }

    pub struct LossAccum {
        n: usize,
        methods: usize,
        pub cells: Vec<Cell>,
        max_legs: usize,
        deep: Vec<u64>,
    }

    impl LossAccum {
        pub fn with_depth(n: usize, methods: usize, max_legs: usize) -> Self {
            let max_legs = max_legs.max(1);
            let deep =
                if max_legs > 2 { vec![0; n * n * methods * max_legs] } else { Vec::new() };
            LossAccum { n, methods, cells: vec![Cell::default(); n * n * methods], max_legs, deep }
        }

        pub fn idx(&self, method: u8, src: HostId, dst: HostId) -> usize {
            method as usize * self.n * self.n + src.idx() * self.n + dst.idx()
        }

        pub fn on_outcome(&mut self, o: &PairOutcome) {
            if o.discarded {
                return;
            }
            let i = self.idx(o.method, o.src, o.dst);
            let c = &mut self.cells[i];
            c.pairs += 1;
            if o.all_lost() {
                c.pairs_lost += 1;
            }
            if let Some(l1) = o.leg(0) {
                c.l1_sent += 1;
                if l1.lost {
                    c.l1_lost += 1;
                }
                if let Some(l2) = o.leg(1) {
                    if l1.lost {
                        c.first_lost_with_second += 1;
                        if l2.lost {
                            c.both_lost += 1;
                        }
                    }
                }
            }
            if let Some(l2) = o.leg(1) {
                c.l2_sent += 1;
                if l2.lost {
                    c.l2_lost += 1;
                }
            }
            if let Some(us) = o.best_one_way_us() {
                c.lat_sum_us += us as f64;
                c.lat_cnt += 1;
            }
            if !self.deep.is_empty() {
                let base = i * self.max_legs;
                for j in 1..=self.max_legs {
                    if o.prefix_all_lost(j) {
                        self.deep[base + j - 1] += 1;
                    }
                }
            }
        }

        pub fn merge(&mut self, other: &LossAccum) {
            assert_eq!(self.n, other.n);
            assert_eq!(self.methods, other.methods);
            assert_eq!(self.max_legs, other.max_legs);
            for (a, b) in self.deep.iter_mut().zip(&other.deep) {
                *a += b;
            }
            for (a, b) in self.cells.iter_mut().zip(&other.cells) {
                a.pairs += b.pairs;
                a.pairs_lost += b.pairs_lost;
                a.l1_sent += b.l1_sent;
                a.l1_lost += b.l1_lost;
                a.l2_sent += b.l2_sent;
                a.l2_lost += b.l2_lost;
                a.both_lost += b.both_lost;
                a.first_lost_with_second += b.first_lost_with_second;
                a.lat_sum_us += b.lat_sum_us;
                a.lat_cnt += b.lat_cnt;
            }
        }

        pub fn digest(&self, fnv: &mut Fnv) {
            fnv.write_u64(self.n as u64);
            fnv.write_u64(self.methods as u64);
            if !self.deep.is_empty() {
                fnv.write_u64(self.max_legs as u64);
                for &v in &self.deep {
                    fnv.write_u64(v);
                }
            }
            for c in &self.cells {
                fnv.write_u64(c.pairs);
                fnv.write_u64(c.pairs_lost);
                fnv.write_u64(c.l1_sent);
                fnv.write_u64(c.l1_lost);
                fnv.write_u64(c.l2_sent);
                fnv.write_u64(c.l2_lost);
                fnv.write_u64(c.both_lost);
                fnv.write_u64(c.first_lost_with_second);
                fnv.write_f64(c.lat_sum_us);
                fnv.write_u64(c.lat_cnt);
            }
        }
    }

    impl LossAccum {
        fn range(&self, method: u8) -> std::ops::Range<usize> {
            let base = method as usize * self.n * self.n;
            base..base + self.n * self.n
        }

        pub fn best_of_first_pct(&self, method: u8) -> Vec<f64> {
            let cells = &self.cells[self.range(method)];
            let pairs: u64 = cells.iter().map(|c| c.pairs).sum();
            let pct = |num: u64| if pairs == 0 { 0.0 } else { 100.0 * num as f64 / pairs as f64 };
            if self.deep.is_empty() {
                let l1: u64 = cells.iter().map(|c| c.l1_lost).sum();
                let all: u64 = cells.iter().map(|c| c.pairs_lost).sum();
                return match self.max_legs {
                    1 => vec![pct(all)],
                    _ => vec![pct(l1), pct(all)],
                };
            }
            (1..=self.max_legs)
                .map(|j| {
                    pct(self.range(method).map(|c| self.deep[c * self.max_legs + j - 1]).sum())
                })
                .collect()
        }

        pub fn summary(&self, method: u8) -> MethodSummary {
            let cells = &self.cells[self.range(method)];
            let sum = |f: fn(&Cell) -> u64| cells.iter().map(f).sum::<u64>();
            let pct =
                |num: u64, den: u64| if den == 0 { 0.0 } else { 100.0 * num as f64 / den as f64 };
            let means = self.per_path_latency_ms(method);
            let lat_ms = if means.is_empty() {
                0.0
            } else {
                means.iter().map(|&(_, _, m)| m).sum::<f64>() / means.len() as f64
            };
            let (l2_sent, flws) = (sum(|c| c.l2_sent), sum(|c| c.first_lost_with_second));
            MethodSummary {
                lp1: pct(sum(|c| c.l1_lost), sum(|c| c.l1_sent)),
                lp2: if l2_sent > 0 { Some(pct(sum(|c| c.l2_lost), l2_sent)) } else { None },
                totlp: pct(sum(|c| c.pairs_lost), sum(|c| c.pairs)),
                clp: if flws > 0 { Some(pct(sum(|c| c.both_lost), flws)) } else { None },
                lat_ms,
                pairs: sum(|c| c.pairs),
            }
        }

        /// Every off-diagonal cell of the dense grid, row-major.
        fn paths(&self, method: u8) -> impl Iterator<Item = (HostId, HostId, &Cell)> + '_ {
            let n = self.n;
            (0..n * n).filter(move |i| i / n != i % n).map(move |i| {
                let c = &self.cells[self.range(method).start + i];
                (HostId((i / n) as u16), HostId((i % n) as u16), c)
            })
        }

        pub fn per_path_loss(&self, method: u8) -> Vec<(HostId, HostId, f64)> {
            self.paths(method)
                .filter(|(_, _, c)| c.pairs > 0)
                .map(|(s, d, c)| (s, d, c.pairs_lost as f64 / c.pairs as f64))
                .collect()
        }

        pub fn per_path_clp(&self, method: u8, min_first_losses: u64) -> Vec<f64> {
            self.paths(method)
                .filter(|(_, _, c)| c.first_lost_with_second >= min_first_losses.max(1))
                .map(|(_, _, c)| 100.0 * c.both_lost as f64 / c.first_lost_with_second as f64)
                .collect()
        }

        pub fn per_path_latency_ms(&self, method: u8) -> Vec<(HostId, HostId, f64)> {
            let raw: Vec<(u16, u16, f64)> = self
                .paths(method)
                .filter(|(_, _, c)| c.lat_cnt > 0)
                .map(|(s, d, c)| (s.0, d.0, c.lat_sum_us / c.lat_cnt as f64))
                .collect();
            corrected_path_means(&raw)
                .into_iter()
                .map(|(s, d, us)| (HostId(s), HostId(d), us / 1_000.0))
                .collect()
        }
    }
}
