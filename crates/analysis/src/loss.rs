//! Per-(path, method) loss and latency accumulation.
//!
//! The vocabulary follows Table 5 of the paper:
//!
//! * **1lp** — probability the first packet of a probe was lost;
//! * **2lp** — probability the second packet was lost;
//! * **totlp** — probability the probe failed end-to-end (every copy
//!   lost); equals 1lp for single-packet methods;
//! * **clp** — conditional loss probability of the second packet given
//!   the first was lost;
//! * **lat** — mean one-way latency of the first copy to arrive.

use crate::latency::corrected_path_means;
use crate::pairs::{PairIndex, FLOAT_JSON, INT_JSON};
use netsim::HostId;
use std::sync::Arc;
use trace::PairOutcome;

/// Counters for one (method, src, dst) cell.
#[derive(Debug, Clone, Copy, Default, serde::Serialize, serde::Deserialize)]
pub struct Cell {
    /// Probe pairs observed.
    pub pairs: u64,
    /// Pairs where every copy was lost.
    pub pairs_lost: u64,
    /// First legs sent / lost.
    pub l1_sent: u64,
    /// First legs lost.
    pub l1_lost: u64,
    /// Second legs sent.
    pub l2_sent: u64,
    /// Second legs lost.
    pub l2_lost: u64,
    /// Pairs with both legs present where both were lost.
    pub both_lost: u64,
    /// Pairs with both legs present where the first was lost.
    pub first_lost_with_second: u64,
    /// Sum of best (min across received copies) one-way micros.
    pub lat_sum_us: f64,
    /// Count behind `lat_sum_us`.
    pub lat_cnt: u64,
}

/// Summary statistics for one method (the paper's table columns, in
/// percent and milliseconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MethodSummary {
    /// First-packet loss, percent.
    pub lp1: f64,
    /// Second-packet loss, percent (`None` for single-packet methods).
    pub lp2: Option<f64>,
    /// End-to-end pair loss, percent.
    pub totlp: f64,
    /// Conditional loss of packet 2 given packet 1 lost, percent.
    pub clp: Option<f64>,
    /// Mean latency, milliseconds (skew-corrected; RTT for round-trip
    /// datasets).
    pub lat_ms: f64,
    /// Number of probe pairs behind the summary.
    pub pairs: u64,
}

/// The per-cell counters of [`Cell`], structure-of-arrays: summaries,
/// curves and merges scan one counter across every cell, so each scan
/// walks a dense array instead of striding 80-byte structs.
#[derive(Debug)]
struct CellArrays {
    pairs: Vec<u64>,
    pairs_lost: Vec<u64>,
    l1_sent: Vec<u64>,
    l1_lost: Vec<u64>,
    l2_sent: Vec<u64>,
    l2_lost: Vec<u64>,
    both_lost: Vec<u64>,
    first_lost_with_second: Vec<u64>,
    lat_sum_us: Vec<f64>,
    lat_cnt: Vec<u64>,
}

impl CellArrays {
    fn with_len(len: usize) -> Self {
        CellArrays {
            pairs: vec![0; len],
            pairs_lost: vec![0; len],
            l1_sent: vec![0; len],
            l1_lost: vec![0; len],
            l2_sent: vec![0; len],
            l2_lost: vec![0; len],
            both_lost: vec![0; len],
            first_lost_with_second: vec![0; len],
            lat_sum_us: vec![0.0; len],
            lat_cnt: vec![0; len],
        }
    }

    fn get(&self, i: usize) -> Cell {
        Cell {
            pairs: self.pairs[i],
            pairs_lost: self.pairs_lost[i],
            l1_sent: self.l1_sent[i],
            l1_lost: self.l1_lost[i],
            l2_sent: self.l2_sent[i],
            l2_lost: self.l2_lost[i],
            both_lost: self.both_lost[i],
            first_lost_with_second: self.first_lost_with_second[i],
            lat_sum_us: self.lat_sum_us[i],
            lat_cnt: self.lat_cnt[i],
        }
    }
}

/// Bytes one [`Cell`] folds into a digest: ten 8-byte counters.
const CELL_DIGEST_BYTES: u64 = 80;

/// The wire's cell columns, one per [`Cell`] counter.
const CELL_COLUMNS: [&str; 10] = [
    "pairs",
    "pairs_lost",
    "l1_sent",
    "l1_lost",
    "l2_sent",
    "l2_lost",
    "both_lost",
    "first_lost_with_second",
    "lat_sum_us",
    "lat_cnt",
];

/// Streaming per-path loss/latency accumulator.
///
/// Cells exist only for the pairs the campaign probes (its
/// [`PairIndex`]): `n · k` of them on a sparse `k`-regular mesh, the full
/// `n · n` grid on a clique. Digests, summaries and per-path series are
/// exactly those of the historical dense grid, whose unprobed cells were
/// all zero.
#[derive(Debug)]
pub struct LossAccum {
    pairs: Arc<PairIndex>,
    methods: usize,
    /// Laid out `method * pairs.len() + slot`.
    cells: CellArrays,
    /// Redundancy degree: the maximum legs any method sends. The base
    /// [`Cell`] counters cover the paper's pair shape (legs 1–2); when
    /// `max_legs > 2` the `deep` extension tracks the full
    /// best-of-first-j loss curve.
    max_legs: usize,
    /// Per (cell, j) count of probes whose first `j` legs were all lost,
    /// `j = 1..=max_legs`, laid out `cell * max_legs + (j - 1)`. Empty
    /// when `max_legs <= 2` — there the curve is derivable from the base
    /// cells (`j=1` ↔ `l1_lost`, `j=2` ↔ `pairs_lost`), and keeping the
    /// allocation (and the digest, see [`Self::digest`]) untouched
    /// preserves every recorded pair-era fingerprint golden.
    deep: Vec<u64>,
}

impl LossAccum {
    /// Creates a clique accumulator for `methods` methods over `n`
    /// hosts, for method sets of at most two legs (the paper's pairs).
    pub fn new(n: usize, methods: usize) -> Self {
        Self::with_depth(n, methods, 2)
    }

    /// Creates a clique accumulator tracking best-of-first-j loss for
    /// methods of up to `max_legs` redundant legs.
    pub fn with_depth(n: usize, methods: usize, max_legs: usize) -> Self {
        Self::with_pairs(Arc::new(PairIndex::clique(n)), methods, max_legs)
    }

    /// Creates an accumulator with cells for exactly the pairs in
    /// `pairs` (share one index between a slice's accumulators).
    pub fn with_pairs(pairs: Arc<PairIndex>, methods: usize, max_legs: usize) -> Self {
        let max_legs = max_legs.max(1);
        let cells = pairs.len() * methods;
        let deep = if max_legs > 2 { vec![0; cells * max_legs] } else { Vec::new() };
        LossAccum { pairs, methods, cells: CellArrays::with_len(cells), max_legs, deep }
    }

    #[inline]
    fn idx(&self, method: u8, src: HostId, dst: HostId) -> Option<usize> {
        debug_assert!((method as usize) < self.methods);
        self.pairs.slot(src, dst).map(|slot| method as usize * self.pairs.len() + slot)
    }

    /// The cell range of one method.
    fn range(&self, method: u8) -> std::ops::Range<usize> {
        let base = method as usize * self.pairs.len();
        base..base + self.pairs.len()
    }

    /// Ingests one resolved probe pair (discarded samples are skipped).
    ///
    /// # Panics
    ///
    /// When the outcome's path is not in the accumulator's pair set.
    pub fn on_outcome(&mut self, o: &PairOutcome) {
        if o.discarded {
            return;
        }
        let Some(i) = self.idx(o.method, o.src, o.dst) else {
            panic!("outcome for unprobed pair {} -> {}", o.src.0, o.dst.0);
        };
        let c = &mut self.cells;
        c.pairs[i] += 1;
        if o.all_lost() {
            c.pairs_lost[i] += 1;
        }
        if let Some(l1) = o.leg(0) {
            c.l1_sent[i] += 1;
            if l1.lost {
                c.l1_lost[i] += 1;
            }
            if let Some(l2) = o.leg(1) {
                if l1.lost {
                    c.first_lost_with_second[i] += 1;
                    if l2.lost {
                        c.both_lost[i] += 1;
                    }
                }
            }
        }
        if let Some(l2) = o.leg(1) {
            c.l2_sent[i] += 1;
            if l2.lost {
                c.l2_lost[i] += 1;
            }
        }
        if let Some(us) = o.best_one_way_us() {
            c.lat_sum_us[i] += us as f64;
            c.lat_cnt[i] += 1;
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

    /// Folds another accumulator into this one, cell by cell.
    ///
    /// This is the sharded-run merge: each workload slice streams its
    /// outcomes into a private `LossAccum`, and the slices are merged in
    /// slice order. Counter sums are exact; the latency sums are f64, so
    /// the *order* of merging is part of the result's byte identity —
    /// callers must merge in a fixed order (the shard runner always
    /// merges ascending by slice index).
    ///
    /// Panics if the shapes (host count, method count, depth, pair set)
    /// differ.
    pub fn merge(&mut self, other: &LossAccum) {
        assert_eq!(self.n(), other.n(), "host counts must match");
        assert_eq!(self.methods, other.methods, "method counts must match");
        assert_eq!(self.max_legs, other.max_legs, "redundancy depths must match");
        assert!(
            Arc::ptr_eq(&self.pairs, &other.pairs) || self.pairs == other.pairs,
            "probe pair sets must match"
        );
        for (a, b) in self.deep.iter_mut().zip(&other.deep) {
            *a += b;
        }
        // Array-at-a-time instead of cell-at-a-time: every addition is
        // elementwise per cell, so the result (including the f64 latency
        // sums) is bit-identical to the struct-wise fold — what matters
        // for byte identity is the order *accumulators* merge in, which
        // is the caller's contract above.
        let (a, b) = (&mut self.cells, &other.cells);
        let sum = |x: &mut Vec<u64>, y: &Vec<u64>| {
            for (xa, yb) in x.iter_mut().zip(y) {
                *xa += yb;
            }
        };
        sum(&mut a.pairs, &b.pairs);
        sum(&mut a.pairs_lost, &b.pairs_lost);
        sum(&mut a.l1_sent, &b.l1_sent);
        sum(&mut a.l1_lost, &b.l1_lost);
        sum(&mut a.l2_sent, &b.l2_sent);
        sum(&mut a.l2_lost, &b.l2_lost);
        sum(&mut a.both_lost, &b.both_lost);
        sum(&mut a.first_lost_with_second, &b.first_lost_with_second);
        for (xa, yb) in a.lat_sum_us.iter_mut().zip(&b.lat_sum_us) {
            *xa += yb;
        }
        sum(&mut a.lat_cnt, &b.lat_cnt);
    }

    /// Feeds the accumulator's exact state (every counter and the bit
    /// patterns of every latency sum) into a fingerprint fold.
    ///
    /// The fold is that of the dense `n × n` grid in `(method, src,
    /// dst)` order — every recorded fingerprint golden depends on it —
    /// with each unprobed pair folding as the zeros its cell would have
    /// held. The depth extension is folded only when it exists
    /// (`max_legs > 2`): pair-shaped accumulators must keep producing
    /// the exact digest stream they did before k-leg probes existed.
    pub fn digest(&self, fnv: &mut crate::fingerprint::Fnv) {
        fnv.write_u64(self.n() as u64);
        fnv.write_u64(self.methods as u64);
        if !self.deep.is_empty() {
            fnv.write_u64(self.max_legs as u64);
            let legs = self.max_legs;
            self.pairs.fold_dense(self.methods, fnv, 8 * legs as u64, |fnv, i| {
                for &v in &self.deep[i * legs..(i + 1) * legs] {
                    fnv.write_u64(v);
                }
            });
        }
        // The per-cell interleaving is the pair-era order, so this
        // gathers across the arrays rather than streaming each in turn.
        let c = &self.cells;
        self.pairs.fold_dense(self.methods, fnv, CELL_DIGEST_BYTES, |fnv, i| {
            fnv.write_u64(c.pairs[i]);
            fnv.write_u64(c.pairs_lost[i]);
            fnv.write_u64(c.l1_sent[i]);
            fnv.write_u64(c.l1_lost[i]);
            fnv.write_u64(c.l2_sent[i]);
            fnv.write_u64(c.l2_lost[i]);
            fnv.write_u64(c.both_lost[i]);
            fnv.write_u64(c.first_lost_with_second[i]);
            fnv.write_f64(c.lat_sum_us[i]);
            fnv.write_u64(c.lat_cnt[i]);
        });
    }

    /// Read access to one cell (assembled from the per-counter arrays);
    /// an unprobed pair reads as all zeros.
    pub fn cell(&self, method: u8, src: HostId, dst: HostId) -> Cell {
        self.idx(method, src, dst).map_or_else(Cell::default, |i| self.cells.get(i))
    }

    /// Host count.
    pub fn n(&self) -> usize {
        self.pairs.n()
    }

    /// Method count.
    pub fn methods(&self) -> usize {
        self.methods
    }

    /// An upper bound on the JSON length of an accumulator over `pairs`
    /// for `methods` methods of up to `max_legs` legs, every counter at
    /// its widest rendering: what a result frame may honestly spend on
    /// it.
    pub fn max_encoded_len(pairs: &PairIndex, methods: usize, max_legs: usize) -> usize {
        let cells = pairs.len().saturating_mul(methods);
        let deep = if max_legs > 2 { cells.saturating_mul(max_legs) } else { 0 };
        // Keys, scalar fields and brackets.
        const FIXED: usize = 512;
        let per_cell = (CELL_COLUMNS.len() - 1) * INT_JSON + FLOAT_JSON;
        FIXED
            .saturating_add(pairs.max_encoded_len())
            .saturating_add(cells.saturating_mul(per_cell))
            .saturating_add(deep.saturating_mul(INT_JSON))
    }

    /// The probed pair set the cells are keyed by.
    pub fn pairs(&self) -> &Arc<PairIndex> {
        &self.pairs
    }

    /// The accumulator's redundancy degree (maximum legs any method
    /// sends; 2 for the paper's pair-shaped sets).
    pub fn depth(&self) -> usize {
        self.max_legs
    }

    /// The best-of-first-j loss curve for a method: element `j - 1` is
    /// the percentage of probes whose first `j` copies were *all* lost,
    /// for `j = 1..=depth()`.
    ///
    /// `j = 1` is the paper's first-packet loss over all probes and the
    /// last element is `totlp` — the curve's drop from j=1 to j=k is
    /// exactly what the k-th redundant copy buys. Single-packet methods
    /// yield a flat curve. Denominator: probes observed (the summary's
    /// `pairs`).
    pub fn best_of_first_pct(&self, method: u8) -> Vec<f64> {
        let range = self.range(method);
        let pairs: u64 = self.cells.pairs[range.clone()].iter().sum();
        let pct = |num: u64| if pairs == 0 { 0.0 } else { 100.0 * num as f64 / pairs as f64 };
        if self.deep.is_empty() {
            // Pair-shaped sets: the curve lives in the base counters.
            let l1: u64 = self.cells.l1_lost[range.clone()].iter().sum();
            let all: u64 = self.cells.pairs_lost[range].iter().sum();
            return match self.max_legs {
                1 => vec![pct(all)],
                _ => vec![pct(l1), pct(all)],
            };
        }
        (1..=self.max_legs)
            .map(|j| {
                let lost: u64 =
                    range.clone().map(|cell| self.deep[cell * self.max_legs + j - 1]).sum();
                pct(lost)
            })
            .collect()
    }

    /// Summary row for a method (the Table 5 / Table 7 columns).
    pub fn summary(&self, method: u8) -> MethodSummary {
        let range = self.range(method);
        let c = &self.cells;
        let t = Cell {
            pairs: c.pairs[range.clone()].iter().sum(),
            pairs_lost: c.pairs_lost[range.clone()].iter().sum(),
            l1_sent: c.l1_sent[range.clone()].iter().sum(),
            l1_lost: c.l1_lost[range.clone()].iter().sum(),
            l2_sent: c.l2_sent[range.clone()].iter().sum(),
            l2_lost: c.l2_lost[range.clone()].iter().sum(),
            both_lost: c.both_lost[range.clone()].iter().sum(),
            first_lost_with_second: c.first_lost_with_second[range].iter().sum(),
            ..Cell::default()
        };
        let pct = |num: u64, den: u64| if den == 0 { 0.0 } else { 100.0 * num as f64 / den as f64 };
        let lat_ms = {
            let means = self.per_path_latency_ms(method);
            if means.is_empty() {
                0.0
            } else {
                means.iter().map(|&(_, _, m)| m).sum::<f64>() / means.len() as f64
            }
        };
        MethodSummary {
            lp1: pct(t.l1_lost, t.l1_sent),
            lp2: if t.l2_sent > 0 { Some(pct(t.l2_lost, t.l2_sent)) } else { None },
            totlp: pct(t.pairs_lost, t.pairs),
            clp: if t.first_lost_with_second > 0 {
                Some(pct(t.both_lost, t.first_lost_with_second))
            } else {
                None
            },
            lat_ms,
            pairs: t.pairs,
        }
    }

    /// Every probed path with its cell for `method`, in `(src, dst)`
    /// order, self pairs skipped.
    fn paths(&self, method: u8) -> impl Iterator<Item = (HostId, HostId, Cell)> + '_ {
        let base = self.range(method).start;
        self.pairs
            .iter()
            .enumerate()
            .filter(|(_, (s, d))| s != d)
            .map(move |(slot, (s, d))| (s, d, self.cells.get(base + slot)))
    }

    /// Per-path end-to-end loss rates (fraction), for Figure 2.
    pub fn per_path_loss(&self, method: u8) -> Vec<(HostId, HostId, f64)> {
        self.paths(method)
            .filter(|(_, _, c)| c.pairs > 0)
            .map(|(s, d, c)| (s, d, c.pairs_lost as f64 / c.pairs as f64))
            .collect()
    }

    /// Per-path conditional loss probabilities (percent) for paths that
    /// observed at least `min_first_losses` first-packet losses — the
    /// population of Figure 4.
    pub fn per_path_clp(&self, method: u8, min_first_losses: u64) -> Vec<f64> {
        self.paths(method)
            .filter(|(_, _, c)| c.first_lost_with_second >= min_first_losses.max(1))
            .map(|(_, _, c)| 100.0 * c.both_lost as f64 / c.first_lost_with_second as f64)
            .collect()
    }

    /// Per-path mean latency in milliseconds, clock-skew corrected by
    /// averaging with the reverse path (§4.1).
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

// Versioned wire format (v2): the probed pair set (`mesh`: `null` for
// the clique) plus its cells only, column by column — every private
// counter and the exact f64 bit pattern of each latency sum (via
// serde_json's shortest-round-trip float writer) crosses the wire, so a
// deserialized accumulator merges byte-identically to one that never
// left memory. Unknown fields and versions are rejected loudly.
impl serde::Serialize for LossAccum {
    fn to_value(&self) -> serde::Value {
        let c = &self.cells;
        // In wire (and `Cell` field) order; see `CELL_COLUMNS`.
        let cells = vec![
            ("pairs".into(), c.pairs.to_value()),
            ("pairs_lost".into(), c.pairs_lost.to_value()),
            ("l1_sent".into(), c.l1_sent.to_value()),
            ("l1_lost".into(), c.l1_lost.to_value()),
            ("l2_sent".into(), c.l2_sent.to_value()),
            ("l2_lost".into(), c.l2_lost.to_value()),
            ("both_lost".into(), c.both_lost.to_value()),
            ("first_lost_with_second".into(), c.first_lost_with_second.to_value()),
            ("lat_sum_us".into(), c.lat_sum_us.to_value()),
            ("lat_cnt".into(), c.lat_cnt.to_value()),
        ];
        serde::Value::Map(vec![
            ("v".into(), serde::Value::Int(2)),
            ("n".into(), self.n().to_value()),
            ("methods".into(), self.methods.to_value()),
            ("max_legs".into(), self.max_legs.to_value()),
            ("mesh".into(), self.pairs.to_value()),
            ("cells".into(), serde::Value::Map(cells)),
            ("deep".into(), self.deep.to_value()),
        ])
    }
}

impl serde::Deserialize for LossAccum {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let err = |msg: String| serde::Error::new(format!("LossAccum: {msg}"));
        let serde::Value::Map(entries) = v else {
            return Err(err(format!("expected map, found {}", v.kind())));
        };
        for (k, _) in entries {
            if !matches!(k.as_str(), "v" | "n" | "methods" | "max_legs" | "mesh" | "cells" | "deep")
            {
                return Err(err(format!("unknown field `{k}`")));
            }
        }
        let version = u32::from_value(v.field("v")?)?;
        if version != 2 {
            return Err(err(format!("unsupported wire version {version} (this build speaks 2)")));
        }
        let n = usize::from_value(v.field("n")?)?;
        let pairs = PairIndex::from_value(n, v.field("mesh")?)?;
        let methods = usize::from_value(v.field("methods")?)?;
        let max_legs = usize::from_value(v.field("max_legs")?)?;
        if max_legs == 0 {
            return Err(err("max_legs must be >= 1".into()));
        }
        let want = pairs
            .len()
            .checked_mul(methods)
            .ok_or_else(|| err(format!("{methods} methods overflow the cell count")))?;
        let wire = v.field("cells")?;
        let serde::Value::Map(cols) = wire else {
            return Err(err(format!("cells: expected map, found {}", wire.kind())));
        };
        for (k, _) in cols {
            if !CELL_COLUMNS.contains(&k.as_str()) {
                return Err(err(format!("unknown cell column `{k}`")));
            }
        }
        let column = |name: &str| -> Result<Vec<u64>, serde::Error> {
            let col = Vec::<u64>::from_value(wire.field(name)?)?;
            if col.len() != want {
                return Err(err(format!(
                    "{} `{name}` cells for {} pairs x {methods} methods (want {want})",
                    col.len(),
                    pairs.len()
                )));
            }
            Ok(col)
        };
        let lat_sum_us = Vec::<f64>::from_value(wire.field("lat_sum_us")?)?;
        if lat_sum_us.len() != want {
            return Err(err(format!(
                "{} `lat_sum_us` cells for {} pairs x {methods} methods (want {want})",
                lat_sum_us.len(),
                pairs.len()
            )));
        }
        if lat_sum_us.iter().any(|s| !s.is_finite()) {
            return Err(err("non-finite latency sum".into()));
        }
        let cells = CellArrays {
            pairs: column("pairs")?,
            pairs_lost: column("pairs_lost")?,
            l1_sent: column("l1_sent")?,
            l1_lost: column("l1_lost")?,
            l2_sent: column("l2_sent")?,
            l2_lost: column("l2_lost")?,
            both_lost: column("both_lost")?,
            first_lost_with_second: column("first_lost_with_second")?,
            lat_sum_us,
            lat_cnt: column("lat_cnt")?,
        };
        // The depth extension exists exactly when max_legs > 2 (the
        // pair-era digest invariant depends on this).
        let deep = Vec::<u64>::from_value(v.field("deep")?)?;
        let want_deep = if max_legs > 2 { want.saturating_mul(max_legs) } else { 0 };
        if deep.len() != want_deep {
            return Err(err(format!(
                "{} deep counters for max_legs={max_legs} (want {want_deep})",
                deep.len()
            )));
        }
        Ok(LossAccum { pairs: Arc::new(pairs), methods, cells, max_legs, deep })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::SimTime;
    use trace::LegOutcome;

    fn outcome(
        method: u8,
        src: u16,
        dst: u16,
        legs: [Option<(bool, Option<i64>)>; 2],
        discarded: bool,
    ) -> PairOutcome {
        let mk = |x: Option<(bool, Option<i64>)>| {
            x.map(|(lost, ow)| LegOutcome { route: 0, lost, one_way_us: ow })
        };
        PairOutcome::from_legs(
            0,
            method,
            HostId(src),
            HostId(dst),
            SimTime::ZERO,
            [mk(legs[0]), mk(legs[1]), None, None],
            discarded,
        )
    }

    #[test]
    fn single_leg_method_totlp_equals_lp1() {
        let mut a = LossAccum::new(3, 2);
        for i in 0..100 {
            a.on_outcome(&outcome(
                0,
                0,
                1,
                [Some((i < 10, if i < 10 { None } else { Some(50_000) })), None],
                false,
            ));
        }
        let s = a.summary(0);
        assert_eq!(s.lp1, 10.0);
        assert_eq!(s.totlp, 10.0);
        assert_eq!(s.lp2, None);
        assert_eq!(s.clp, None);
        assert_eq!(s.pairs, 100);
    }

    #[test]
    fn pair_method_counts_clp_and_totlp() {
        let mut a = LossAccum::new(3, 1);
        // 10 pairs: 4 both-lost, 2 first-lost-only, 1 second-lost-only,
        // 3 clean.
        for _ in 0..4 {
            a.on_outcome(&outcome(0, 0, 1, [Some((true, None)), Some((true, None))], false));
        }
        for _ in 0..2 {
            a.on_outcome(&outcome(0, 0, 1, [Some((true, None)), Some((false, Some(70_000)))], false));
        }
        a.on_outcome(&outcome(0, 0, 1, [Some((false, Some(50_000))), Some((true, None))], false));
        for _ in 0..3 {
            a.on_outcome(&outcome(
                0,
                0,
                1,
                [Some((false, Some(50_000))), Some((false, Some(60_000)))],
                false,
            ));
        }
        let s = a.summary(0);
        assert_eq!(s.lp1, 60.0); // 6/10
        assert_eq!(s.lp2, Some(50.0)); // 5/10
        assert_eq!(s.totlp, 40.0); // 4/10
        assert_eq!(s.clp, Some(100.0 * 4.0 / 6.0));
    }

    #[test]
    fn latency_uses_first_arriving_copy() {
        let mut a = LossAccum::new(2, 1);
        a.on_outcome(&outcome(
            0,
            0,
            1,
            [Some((false, Some(80_000))), Some((false, Some(30_000)))],
            false,
        ));
        // Reverse direction so skew correction has both sides.
        a.on_outcome(&outcome(
            0,
            1,
            0,
            [Some((false, Some(40_000))), Some((false, Some(50_000)))],
            false,
        ));
        let s = a.summary(0);
        // Forward best = 30 ms, reverse best = 40 ms; corrected both to 35.
        assert!((s.lat_ms - 35.0).abs() < 1e-9, "lat={}", s.lat_ms);
    }

    #[test]
    fn discarded_samples_are_ignored() {
        let mut a = LossAccum::new(2, 1);
        a.on_outcome(&outcome(0, 0, 1, [Some((true, None)), None], true));
        let s = a.summary(0);
        assert_eq!(s.pairs, 0);
        assert_eq!(s.totlp, 0.0);
    }

    #[test]
    fn per_path_loss_lists_only_observed_paths() {
        let mut a = LossAccum::new(3, 1);
        a.on_outcome(&outcome(0, 0, 1, [Some((true, None)), None], false));
        a.on_outcome(&outcome(0, 0, 1, [Some((false, Some(1_000))), None], false));
        let v = a.per_path_loss(0);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].0, HostId(0));
        assert_eq!(v[0].1, HostId(1));
        assert!((v[0].2 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn per_path_clp_requires_first_losses() {
        let mut a = LossAccum::new(3, 1);
        // Path 0→1: first losses present (CLP 50%).
        a.on_outcome(&outcome(0, 0, 1, [Some((true, None)), Some((true, None))], false));
        a.on_outcome(&outcome(0, 0, 1, [Some((true, None)), Some((false, Some(1_000)))], false));
        // Path 0→2: clean.
        a.on_outcome(&outcome(0, 0, 2, [Some((false, Some(1))), Some((false, Some(1)))], false));
        let v = a.per_path_clp(0, 1);
        assert_eq!(v, vec![50.0]);
    }

    fn deep_outcome(method: u8, lost: [bool; 4]) -> PairOutcome {
        let legs = lost.map(|l| {
            Some(LegOutcome { route: 0, lost: l, one_way_us: if l { None } else { Some(1_000) } })
        });
        PairOutcome::from_legs(0, method, HostId(0), HostId(1), SimTime::ZERO, legs, false)
    }

    #[test]
    fn best_of_first_curve_tracks_every_depth() {
        let mut a = LossAccum::with_depth(2, 1, 4);
        assert_eq!(a.depth(), 4);
        // 10 probes: 2 lose all 4 copies, 3 lose the first 2 only, 1
        // loses the first only, 4 lose nothing.
        for _ in 0..2 {
            a.on_outcome(&deep_outcome(0, [true, true, true, true]));
        }
        for _ in 0..3 {
            a.on_outcome(&deep_outcome(0, [true, true, false, false]));
        }
        a.on_outcome(&deep_outcome(0, [true, false, false, false]));
        for _ in 0..4 {
            a.on_outcome(&deep_outcome(0, [false, false, false, false]));
        }
        let curve = a.best_of_first_pct(0);
        assert_eq!(curve, vec![60.0, 50.0, 20.0, 20.0]);
        // The curve is monotone nonincreasing: extra copies never hurt.
        for w in curve.windows(2) {
            assert!(w[1] <= w[0]);
        }
        assert_eq!(a.summary(0).totlp, 20.0, "last point equals totlp");
    }

    #[test]
    fn pair_depth_curve_is_derived_from_the_base_cells() {
        let mut a = LossAccum::new(2, 1);
        a.on_outcome(&outcome(0, 0, 1, [Some((true, None)), Some((true, None))], false));
        a.on_outcome(&outcome(0, 0, 1, [Some((true, None)), Some((false, Some(1)))], false));
        a.on_outcome(&outcome(0, 0, 1, [Some((false, Some(1))), Some((false, Some(1)))], false));
        assert_eq!(a.depth(), 2);
        let curve = a.best_of_first_pct(0);
        assert!((curve[0] - 200.0 / 3.0).abs() < 1e-9, "j=1: 2 of 3 first copies lost");
        assert!((curve[1] - 100.0 / 3.0).abs() < 1e-9, "j=2: 1 of 3 probes fully lost");
    }

    #[test]
    fn deep_merge_equals_sequential_feed_and_moves_the_digest() {
        let feed = |a: &mut LossAccum, range: std::ops::Range<u64>| {
            for i in range {
                a.on_outcome(&deep_outcome(0, [i % 2 == 0, i % 3 == 0, i % 5 == 0, i % 7 == 0]));
            }
        };
        let mut whole = LossAccum::with_depth(2, 1, 4);
        feed(&mut whole, 0..30);
        let mut first = LossAccum::with_depth(2, 1, 4);
        let mut second = LossAccum::with_depth(2, 1, 4);
        feed(&mut first, 0..15);
        feed(&mut second, 15..30);
        first.merge(&second);
        assert_eq!(whole.best_of_first_pct(0), first.best_of_first_pct(0));
        let (mut fa, mut fb) = (crate::Fnv::new(), crate::Fnv::new());
        whole.digest(&mut fa);
        first.digest(&mut fb);
        assert_eq!(fa.finish(), fb.finish(), "deep merge must be exact");
        // And the deep counters are part of the digest.
        let mut tweaked = LossAccum::with_depth(2, 1, 4);
        feed(&mut tweaked, 0..29);
        let (mut fc, mut fd) = (crate::Fnv::new(), crate::Fnv::new());
        whole.digest(&mut fc);
        tweaked.digest(&mut fd);
        assert_ne!(fc.finish(), fd.finish());
    }

    #[test]
    #[should_panic(expected = "redundancy depths must match")]
    fn merge_rejects_depth_mismatch() {
        let mut a = LossAccum::with_depth(2, 1, 4);
        let b = LossAccum::with_depth(2, 1, 3);
        a.merge(&b);
    }

    #[test]
    fn merge_equals_sequential_feed() {
        // Outcomes split across two accumulators and merged must equal
        // one accumulator fed everything in the same order.
        let outcomes: Vec<PairOutcome> = (0..40)
            .map(|i| {
                outcome(
                    (i % 2) as u8,
                    (i % 3) as u16,
                    ((i + 1) % 3) as u16,
                    [
                        Some((i % 5 == 0, if i % 5 == 0 { None } else { Some(1_000 + i) })),
                        if i % 2 == 0 { Some((i % 7 == 0, Some(2_000 + i))) } else { None },
                    ],
                    i % 11 == 0,
                )
            })
            .collect();
        let mut whole = LossAccum::new(3, 2);
        for o in &outcomes {
            whole.on_outcome(o);
        }
        let mut first = LossAccum::new(3, 2);
        let mut second = LossAccum::new(3, 2);
        for (i, o) in outcomes.iter().enumerate() {
            if i < 20 {
                first.on_outcome(o);
            } else {
                second.on_outcome(o);
            }
        }
        first.merge(&second);
        let (mut fa, mut fb) = (crate::Fnv::new(), crate::Fnv::new());
        whole.digest(&mut fa);
        first.digest(&mut fb);
        assert_eq!(fa.finish(), fb.finish(), "merge must be exact");
    }

    #[test]
    fn digest_sees_every_counter() {
        let mut a = LossAccum::new(2, 1);
        let b = LossAccum::new(2, 1);
        a.on_outcome(&outcome(0, 0, 1, [Some((true, None)), None], false));
        let (mut fa, mut fb) = (crate::Fnv::new(), crate::Fnv::new());
        a.digest(&mut fa);
        b.digest(&mut fb);
        assert_ne!(fa.finish(), fb.finish());
    }

    #[test]
    fn max_encoded_len_bounds_the_widest_encoding() {
        // Every counter at u64::MAX and every latency sum at the longest
        // float rendering, on a mesh and a clique, with and without the
        // depth extension.
        let mesh = PairIndex::from_neighbor_lists(4, &[vec![1, 3], vec![0, 2], vec![3], vec![0]]);
        for pairs in [mesh, PairIndex::clique(3)] {
            for legs in [2, 4] {
                let mut a = LossAccum::with_pairs(Arc::new(pairs.clone()), 3, legs);
                let c = &mut a.cells;
                for col in [
                    &mut c.pairs,
                    &mut c.pairs_lost,
                    &mut c.l1_sent,
                    &mut c.l1_lost,
                    &mut c.l2_sent,
                    &mut c.l2_lost,
                    &mut c.both_lost,
                    &mut c.first_lost_with_second,
                    &mut c.lat_cnt,
                ] {
                    col.fill(u64::MAX);
                }
                c.lat_sum_us.fill(-1.2345678901234567e-308);
                a.deep.fill(u64::MAX);
                let len = serde_json::to_string(&a).unwrap().len();
                let bound = LossAccum::max_encoded_len(&pairs, 3, legs);
                assert!(len <= bound, "{} pairs, {legs} legs: {len} > {bound}", pairs.len());
            }
        }
    }

    #[test]
    #[should_panic(expected = "host counts must match")]
    fn merge_rejects_shape_mismatch() {
        let mut a = LossAccum::new(2, 1);
        let b = LossAccum::new(3, 1);
        a.merge(&b);
    }

    #[test]
    fn clock_skew_cancels_in_latency() {
        let mut a = LossAccum::new(2, 1);
        // True one-way 50 ms both directions; dst clock +20 ms.
        a.on_outcome(&outcome(0, 0, 1, [Some((false, Some(70_000))), None], false));
        a.on_outcome(&outcome(0, 1, 0, [Some((false, Some(30_000))), None], false));
        let v = a.per_path_latency_ms(0);
        for (_, _, ms) in v {
            assert!((ms - 50.0).abs() < 1e-9, "ms={ms}");
        }
    }
}
