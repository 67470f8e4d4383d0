//! Windowed loss-rate accumulation.
//!
//! Two consumers in the paper:
//!
//! * **Figure 3** — the CDF of 20-minute loss-rate samples per method;
//! * **Table 6** — counts of hour-long (path, window) periods whose loss
//!   rate exceeds 0%, 10%, …, 90%, per method.
//!
//! Windows are per (method, path) and aligned to absolute time; a window
//! closes when a later sample for the same cell arrives (or at
//! [`WindowAccum::finish`]) and its end-to-end pair loss rate feeds a
//! per-method histogram and the threshold counters.

use crate::cdf::Histogram;
use crate::pairs::{PairIndex, INT_JSON};
use netsim::SimDuration;
use std::sync::Arc;
use trace::PairOutcome;

/// Streaming fixed-width window accumulator.
///
/// One open-window cell per (method, probed pair) — keyed by the
/// campaign's [`PairIndex`], like [`crate::LossAccum`] — stored
/// structure-of-arrays: the hot same-window path reads one `u64` per
/// outcome and the close scan at a window boundary (or
/// [`finish`](Self::finish)) walks a dense 8-byte array. The cells exist
/// only while windows can be open: they are allocated by the first
/// outcome and freed by `finish`, so a finished accumulator — every
/// slice result — holds just its per-method statistics.
#[derive(Debug)]
pub struct WindowAccum {
    width_us: u64,
    /// Start (µs) and index of the most recently computed window — pure
    /// strength reduction: outcomes arrive in near-time-order, so a
    /// range check replaces the per-outcome u64 division almost always.
    /// Not serialized (it is derivable and never observable): a
    /// round-tripped accumulator starts at window 0, which is exactly
    /// what `(0, 0)` encodes.
    cached_start_us: u64,
    cached_idx: u64,
    pairs: Arc<PairIndex>,
    /// `0` = cell unused, else the open window's index plus one. The
    /// bias keeps "unused" and "open at window 0" distinct without a
    /// separate `used` array. Laid out `method * pairs.len() + slot`;
    /// empty (with `sent` and `lost`) while no window is open.
    win: Vec<u64>,
    sent: Vec<u32>,
    lost: Vec<u32>,
    hist: Vec<Histogram>,
    /// Per method: windows with loss > 0%, >10%, …, >90%.
    thresholds: Vec<[u64; 10]>,
    windows: Vec<u64>,
}

/// Bins of each per-method loss-rate histogram.
pub const HISTOGRAM_BINS: usize = 200;

impl WindowAccum {
    /// Creates a clique accumulator with the given window width.
    pub fn new(n: usize, methods: usize, width: SimDuration) -> Self {
        Self::with_pairs(Arc::new(PairIndex::clique(n)), methods, width)
    }

    /// Creates an accumulator with open-window cells for exactly the
    /// pairs in `pairs`.
    pub fn with_pairs(pairs: Arc<PairIndex>, methods: usize, width: SimDuration) -> Self {
        assert!(width.as_micros() > 0);
        WindowAccum {
            width_us: width.as_micros(),
            cached_start_us: 0,
            cached_idx: 0,
            pairs,
            win: Vec::new(),
            sent: Vec::new(),
            lost: Vec::new(),
            hist: (0..methods).map(|_| Histogram::new(HISTOGRAM_BINS)).collect(),
            thresholds: vec![[0; 10]; methods],
            windows: vec![0; methods],
        }
    }

    fn close(&mut self, cell: usize) {
        let (sent, lost) = (self.sent[cell], self.lost[cell]);
        if self.win[cell] == 0 || sent == 0 {
            return;
        }
        let method = cell / self.pairs.len();
        let rate = lost as f64 / sent as f64;
        self.hist[method].push(rate);
        self.windows[method] += 1;
        let th = &mut self.thresholds[method];
        if lost > 0 {
            th[0] += 1;
        }
        for (i, t) in th.iter_mut().enumerate().skip(1) {
            if rate > i as f64 / 10.0 {
                *t += 1;
            }
        }
    }

    /// Ingests one resolved pair (discarded samples are skipped).
    ///
    /// # Panics
    ///
    /// When the outcome's path is not in the accumulator's pair set.
    pub fn on_outcome(&mut self, o: &PairOutcome) {
        if o.discarded {
            return;
        }
        let Some(slot) = self.pairs.slot(o.src, o.dst) else {
            panic!("outcome for unprobed pair {} -> {}", o.src.0, o.dst.0);
        };
        let cell = o.method as usize * self.pairs.len() + slot;
        if self.win.is_empty() {
            self.open_cells();
        }
        let sent_us = o.sent.as_micros();
        // Same-window fast path: a wrapping range check against the
        // cached window start. `wrapping_sub` sends out-of-order sends
        // (sent < cached start) far above `width_us`, into the slow
        // path, so the cache can never mis-assign a window.
        let idx = if sent_us.wrapping_sub(self.cached_start_us) < self.width_us {
            self.cached_idx
        } else {
            let idx = sent_us / self.width_us;
            self.cached_start_us = idx * self.width_us;
            self.cached_idx = idx;
            idx
        };
        // `idx + 1` cannot wrap: idx == sent_us / width_us with
        // width_us >= 1, and a simulated send time of u64::MAX µs is
        // half a million millennia in.
        let tag = idx + 1;
        if self.win[cell] != tag {
            // Covers both "unused" (close is a no-op on win == 0) and
            // "open at an older window" (close, then start fresh).
            self.close(cell);
            self.win[cell] = tag;
            self.sent[cell] = 0;
            self.lost[cell] = 0;
        }
        self.sent[cell] += 1;
        if o.all_lost() {
            self.lost[cell] += 1;
        }
    }

    /// Allocates the (all-unused) open-window cells.
    fn open_cells(&mut self) {
        let cells = self.pairs.len() * self.hist.len();
        self.win = vec![0; cells];
        self.sent = vec![0; cells];
        self.lost = vec![0; cells];
    }

    /// Closes every open window and frees the cells (end of run).
    pub fn finish(&mut self) {
        for cell in 0..self.win.len() {
            self.close(cell);
        }
        self.win = Vec::new();
        self.sent = Vec::new();
        self.lost = Vec::new();
    }

    /// True when no window is open (i.e. [`finish`](Self::finish) ran
    /// after the last outcome).
    pub fn is_finished(&self) -> bool {
        self.win.iter().all(|&w| w == 0)
    }

    /// Folds another *finished* accumulator into this one.
    ///
    /// Sharded runs close every window at their slice boundary (slices
    /// are independent sub-experiments), so merging is a plain sum of
    /// the per-method histograms, threshold counters and window counts.
    /// Panics if either side still has open windows or the shapes
    /// (width, host count, method count) differ.
    pub fn merge(&mut self, other: &WindowAccum) {
        assert_eq!(self.width_us, other.width_us, "window widths must match");
        assert_eq!(self.pairs.n(), other.pairs.n(), "host counts must match");
        assert_eq!(self.hist.len(), other.hist.len(), "method counts must match");
        assert!(
            Arc::ptr_eq(&self.pairs, &other.pairs) || self.pairs == other.pairs,
            "probe pair sets must match"
        );
        assert!(
            self.is_finished() && other.is_finished(),
            "merge requires finished accumulators (no open windows)"
        );
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

    /// Feeds the accumulator's exact closed-window state into a
    /// fingerprint fold.
    pub fn digest(&self, fnv: &mut crate::fingerprint::Fnv) {
        fnv.write_u64(self.width_us);
        fnv.write_u64(self.pairs.n() as u64);
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

    /// An upper bound on the JSON length of a *finished* accumulator over
    /// `pairs` for `methods` methods (no open cells), every counter at
    /// its widest rendering: what a result frame may honestly spend on
    /// it.
    pub fn max_finished_encoded_len(pairs: &PairIndex, methods: usize) -> usize {
        // Keys, scalar fields and brackets.
        const FIXED: usize = 256;
        // Histogram, the bracketed row of ten threshold counters and the
        // windows count.
        let per_method = Histogram::max_encoded_len(HISTOGRAM_BINS) + 12 * INT_JSON;
        FIXED
            .saturating_add(pairs.max_encoded_len())
            .saturating_add(methods.saturating_mul(per_method))
    }

    /// The probed pair set the open-window cells are keyed by.
    pub fn pairs(&self) -> &Arc<PairIndex> {
        &self.pairs
    }

    /// Window width.
    pub fn width(&self) -> SimDuration {
        SimDuration::from_micros(self.width_us)
    }

    /// Method count.
    pub fn methods(&self) -> usize {
        self.hist.len()
    }

    /// The per-method loss-rate histogram (Figure 3's raw material).
    pub fn histogram(&self, method: u8) -> &Histogram {
        &self.hist[method as usize]
    }

    /// Windows whose loss exceeded `10·i` percent, for i = 0..10
    /// (`i = 0` means "any loss at all": the paper's `> 0` row).
    pub fn threshold_counts(&self, method: u8) -> [u64; 10] {
        self.thresholds[method as usize]
    }

    /// Total closed windows for a method.
    pub fn window_count(&self, method: u8) -> u64 {
        self.windows[method as usize]
    }
}

// Versioned wire format (v2): the probed pair set (`mesh`: `null` for
// the clique) and only the cells that hold an open window, as ascending
// `[cell, window_idx, sent, lost]` rows — so a finished accumulator,
// which is what every slice result is, carries no cells at all. The
// open windows still cross with full fidelity: a round-tripped
// accumulator must be indistinguishable from the original in *every*
// state, or the serde-fidelity proptests could not pin the wire format
// to the in-memory merge semantics.
impl serde::Serialize for WindowAccum {
    fn to_value(&self) -> serde::Value {
        let open: Vec<(usize, u64, u32, u32)> = (0..self.win.len())
            .filter(|&i| self.win[i] != 0)
            .map(|i| (i, self.win[i] - 1, self.sent[i], self.lost[i]))
            .collect();
        serde::Value::Map(vec![
            ("v".into(), serde::Value::Int(2)),
            ("width_us".into(), self.width_us.to_value()),
            ("n".into(), self.pairs.n().to_value()),
            ("mesh".into(), self.pairs.to_value()),
            ("open".into(), open.to_value()),
            ("hist".into(), self.hist.to_value()),
            ("thresholds".into(), self.thresholds.to_value()),
            ("windows".into(), self.windows.to_value()),
        ])
    }
}

impl serde::Deserialize for WindowAccum {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let err = |msg: String| serde::Error::new(format!("WindowAccum: {msg}"));
        let serde::Value::Map(entries) = v else {
            return Err(err(format!("expected map, found {}", v.kind())));
        };
        for (k, _) in entries {
            if !matches!(
                k.as_str(),
                "v" | "width_us" | "n" | "mesh" | "open" | "hist" | "thresholds" | "windows"
            ) {
                return Err(err(format!("unknown field `{k}`")));
            }
        }
        let version = u32::from_value(v.field("v")?)?;
        if version != 2 {
            return Err(err(format!("unsupported wire version {version} (this build speaks 2)")));
        }
        let width_us = u64::from_value(v.field("width_us")?)?;
        if width_us == 0 {
            return Err(err("width_us must be > 0".into()));
        }
        let n = usize::from_value(v.field("n")?)?;
        let pairs = PairIndex::from_value(n, v.field("mesh")?)?;
        let hist = Vec::<Histogram>::from_value(v.field("hist")?)?;
        let thresholds = Vec::<[u64; 10]>::from_value(v.field("thresholds")?)?;
        let windows = Vec::<u64>::from_value(v.field("windows")?)?;
        let methods = hist.len();
        if let Some(h) = hist.iter().find(|h| h.bin_count() != HISTOGRAM_BINS) {
            return Err(err(format!(
                "histogram has {} bins (want {HISTOGRAM_BINS})",
                h.bin_count()
            )));
        }
        if thresholds.len() != methods || windows.len() != methods {
            return Err(err(format!(
                "per-method lengths disagree (hist {methods}, thresholds {}, windows {})",
                thresholds.len(),
                windows.len()
            )));
        }
        let cells = pairs
            .len()
            .checked_mul(methods)
            .ok_or_else(|| err(format!("{methods} methods overflow the cell count")))?;
        let open = Vec::<(usize, u64, u32, u32)>::from_value(v.field("open")?)?;
        let mut w = WindowAccum {
            width_us,
            cached_start_us: 0,
            cached_idx: 0,
            pairs: Arc::new(pairs),
            win: Vec::new(),
            sent: Vec::new(),
            lost: Vec::new(),
            hist,
            thresholds,
            windows,
        };
        // Cells are allocated only for an accumulator with open windows;
        // a finished one (every slice result) decodes without them.
        if !open.is_empty() {
            w.open_cells();
        }
        let mut prev = None;
        for &(cell, window_idx, s, l) in &open {
            if cell >= cells {
                return Err(err(format!(
                    "open cell {cell} outside {} pairs x {methods} methods",
                    w.pairs.len()
                )));
            }
            if prev.is_some_and(|p| p >= cell) {
                return Err(err(format!("open cells not strictly ascending at {cell}")));
            }
            if s == 0 || l > s || window_idx == u64::MAX {
                return Err(err(format!(
                    "open cell {cell}: window {window_idx} with {l} lost of {s} sent"
                )));
            }
            prev = Some(cell);
            w.win[cell] = window_idx + 1;
            w.sent[cell] = s;
            w.lost[cell] = l;
        }
        Ok(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{HostId, SimTime};
    use trace::LegOutcome;

    fn outcome(method: u8, src: u16, dst: u16, t_secs: u64, lost: bool) -> PairOutcome {
        PairOutcome::from_legs(
            0,
            method,
            HostId(src),
            HostId(dst),
            SimTime::from_secs(t_secs),
            [
                Some(LegOutcome { route: 0, lost, one_way_us: if lost { None } else { Some(1) } }),
                None,
                None,
                None,
            ],
            false,
        )
    }

    #[test]
    fn windows_split_on_boundaries() {
        let mut w = WindowAccum::new(2, 1, SimDuration::from_mins(20));
        // Window 1: 2 sent, 1 lost. Window 2: 1 sent, 0 lost.
        w.on_outcome(&outcome(0, 0, 1, 10, true));
        w.on_outcome(&outcome(0, 0, 1, 20, false));
        w.on_outcome(&outcome(0, 0, 1, 1_500, false));
        w.finish();
        assert_eq!(w.window_count(0), 2);
        assert_eq!(w.threshold_counts(0)[0], 1, "one window saw loss");
        // 50% loss > 40% threshold (index 4) but not > 50% (index 5).
        assert_eq!(w.threshold_counts(0)[4], 1);
        assert_eq!(w.threshold_counts(0)[5], 0);
    }

    #[test]
    fn separate_paths_do_not_mix() {
        let mut w = WindowAccum::new(3, 1, SimDuration::from_hours(1));
        w.on_outcome(&outcome(0, 0, 1, 10, true));
        w.on_outcome(&outcome(0, 0, 2, 10, false));
        w.finish();
        assert_eq!(w.window_count(0), 2, "two (path, window) cells");
        assert_eq!(w.threshold_counts(0)[0], 1);
    }

    #[test]
    fn separate_methods_do_not_mix() {
        let mut w = WindowAccum::new(2, 2, SimDuration::from_hours(1));
        w.on_outcome(&outcome(0, 0, 1, 10, true));
        w.on_outcome(&outcome(1, 0, 1, 10, false));
        w.finish();
        assert_eq!(w.threshold_counts(0)[0], 1);
        assert_eq!(w.threshold_counts(1)[0], 0);
    }

    #[test]
    fn discarded_outcomes_skip_windows() {
        let mut w = WindowAccum::new(2, 1, SimDuration::from_hours(1));
        let mut o = outcome(0, 0, 1, 10, true);
        o.discarded = true;
        w.on_outcome(&o);
        w.finish();
        assert_eq!(w.window_count(0), 0);
    }

    #[test]
    fn histogram_collects_rates() {
        let mut w = WindowAccum::new(2, 1, SimDuration::from_mins(20));
        // One fully lossy window, one clean window.
        w.on_outcome(&outcome(0, 0, 1, 10, true));
        w.on_outcome(&outcome(0, 0, 1, 2_000, false));
        w.finish();
        let h = w.histogram(0);
        assert_eq!(h.count(), 2);
        assert!((h.fraction_at_or_below(0.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn merge_sums_closed_windows() {
        // Two disjoint time ranges accumulated separately and merged
        // must equal one accumulator that saw both ranges.
        let mk = |range: std::ops::Range<u64>| {
            let mut w = WindowAccum::new(2, 1, SimDuration::from_mins(20));
            for t in range {
                w.on_outcome(&outcome(0, 0, 1, t * 700, t % 3 == 0));
            }
            w.finish();
            w
        };
        let mut whole = WindowAccum::new(2, 1, SimDuration::from_mins(20));
        for t in 0..12 {
            whole.on_outcome(&outcome(0, 0, 1, t * 700, t % 3 == 0));
        }
        whole.finish();
        let mut a = mk(0..6);
        let b = mk(6..12);
        a.merge(&b);
        // Window boundaries at 1200 s: samples at 0..4200 s in steps of
        // 700 s. The split at t=6 (4200 s) coincides with a window edge,
        // so the merged statistics are identical.
        let (mut fa, mut fb) = (crate::Fnv::new(), crate::Fnv::new());
        whole.digest(&mut fa);
        a.digest(&mut fb);
        assert_eq!(fa.finish(), fb.finish());
    }

    #[test]
    fn max_finished_encoded_len_bounds_the_widest_encoding() {
        use serde::{Deserialize, Serialize};
        // The widest histogram whose counts still add up: 20-digit
        // `zeros` and `count`, 19-digit bins.
        let bins = vec![u64::MAX / (2 * HISTOGRAM_BINS as u64); HISTOGRAM_BINS];
        let zeros = u64::MAX - bins.iter().sum::<u64>();
        let wide = serde::Value::Map(vec![
            ("v".into(), serde::Value::Int(1)),
            ("zeros".into(), zeros.to_value()),
            ("bins".into(), bins.to_value()),
            ("count".into(), u64::MAX.to_value()),
        ]);
        let hist = Histogram::from_value(&wide).expect("counts add up");
        let mesh = PairIndex::from_neighbor_lists(4, &[vec![1, 3], vec![0, 2], vec![3], vec![0]]);
        for pairs in [mesh, PairIndex::clique(3)] {
            let mut w = WindowAccum::with_pairs(Arc::new(pairs.clone()), 3, SimDuration::MAX);
            w.width_us = u64::MAX;
            w.hist = vec![hist.clone(); 3];
            w.thresholds = vec![[u64::MAX; 10]; 3];
            w.windows = vec![u64::MAX; 3];
            let len = serde_json::to_string(&w).unwrap().len();
            let bound = WindowAccum::max_finished_encoded_len(&pairs, 3);
            assert!(len <= bound, "{} pairs: {len} > {bound}", pairs.len());
        }
    }

    #[test]
    #[should_panic(expected = "finished accumulators")]
    fn merge_rejects_open_windows() {
        let mut a = WindowAccum::new(2, 1, SimDuration::from_mins(20));
        let mut b = WindowAccum::new(2, 1, SimDuration::from_mins(20));
        b.on_outcome(&outcome(0, 0, 1, 10, false));
        // b not finished: must panic.
        a.merge(&b);
    }

    #[test]
    fn empty_windows_are_not_counted() {
        let mut w = WindowAccum::new(2, 1, SimDuration::from_mins(20));
        w.finish();
        assert_eq!(w.window_count(0), 0);
        assert_eq!(w.histogram(0).count(), 0);
    }
}
