//! The probe pair set: which `(src, dst)` paths a campaign measures.
//!
//! Accumulators keep one cell per (method, probed pair), laid out
//! `method * len() + slot`. A clique campaign probes every ordered pair,
//! so its slot is plain arithmetic (`src * n + dst`, self-pairs included
//! so the historical layout is untouched). A sparse `k`-regular mesh
//! probes only `n · k` pairs; its index is CSR — per-source sorted
//! destination rows — and a slot is a search within one short row.
//!
//! Slots run in ascending `(src, dst)` order for both shapes, so walking
//! the slots is walking the paths in the order the dense `n × n` grid
//! did: per-path reports keep their row order, and [`PairIndex::fold_dense`]
//! reproduces the dense grid's fingerprint stream without materialising
//! its absent cells.

use crate::fingerprint::Fnv;
use netsim::HostId;

/// Largest host count a pair index accepts: hosts are `u16` ids.
pub const MAX_HOSTS: usize = 1 << 16;

/// The set of ordered host pairs a campaign probes, with a dense slot
/// numbering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairIndex {
    n: usize,
    /// Slot count, kept so the per-outcome cell arithmetic reads a field.
    len: usize,
    mesh: Option<Csr>,
}

/// Compressed sparse rows: source `s` probes
/// `dsts[offsets[s]..offsets[s + 1]]`, strictly ascending.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Csr {
    offsets: Vec<usize>,
    dsts: Vec<u16>,
}

impl Csr {
    /// The slot of `(s, d)` by a search of row `s`.
    #[inline(never)]
    fn slot(&self, s: usize, d: u16) -> Option<usize> {
        let lo = self.offsets[s];
        let row = &self.dsts[lo..self.offsets[s + 1]];
        row.binary_search(&d).ok().map(|i| lo + i)
    }
}

impl PairIndex {
    /// Every ordered pair of `n` hosts (the full probing clique).
    pub fn clique(n: usize) -> PairIndex {
        assert!(n <= MAX_HOSTS, "{n} hosts exceed the {MAX_HOSTS}-host id space");
        PairIndex { n, len: n * n, mesh: None }
    }

    /// The pairs of a sparse probe mesh: `lists[s]` names the hosts `s`
    /// probes, in any order (duplicates collapse).
    ///
    /// # Panics
    ///
    /// When `lists` does not have one row per host, or names a self
    /// pair or a host outside `0..n` — the topology checks both when
    /// the mesh is installed.
    pub fn from_neighbor_lists(n: usize, lists: &[Vec<u16>]) -> PairIndex {
        assert_eq!(lists.len(), n, "probe mesh must have one row per host");
        let rows = lists.iter().map(|row| {
            let mut row = row.clone();
            row.sort_unstable();
            row.dedup();
            row
        });
        Self::from_sorted_rows(n, rows).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds a mesh index from rows that must already be strictly
    /// ascending, in range and free of self pairs.
    fn from_sorted_rows(
        n: usize,
        rows: impl Iterator<Item = Vec<u16>>,
    ) -> Result<PairIndex, String> {
        if n > MAX_HOSTS {
            return Err(format!("{n} hosts exceed the {MAX_HOSTS}-host id space"));
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut dsts = Vec::new();
        offsets.push(0);
        for (s, row) in rows.enumerate() {
            if s >= n {
                return Err(format!("pair set has more than {n} source rows"));
            }
            for (i, &d) in row.iter().enumerate() {
                if d as usize >= n {
                    return Err(format!("pair ({s}, {d}) names a host outside 0..{n}"));
                }
                if d as usize == s {
                    return Err(format!("pair ({s}, {d}) is a self pair"));
                }
                if i > 0 && row[i - 1] >= d {
                    return Err(format!(
                        "row {s} is not strictly ascending ({} then {d})",
                        row[i - 1]
                    ));
                }
            }
            dsts.extend_from_slice(&row);
            offsets.push(dsts.len());
        }
        if offsets.len() != n + 1 {
            return Err(format!("pair set has {} source rows, want {n}", offsets.len() - 1));
        }
        Ok(PairIndex { n, len: dsts.len(), mesh: Some(Csr { offsets, dsts }) })
    }

    /// Host count.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of pairs (slots).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no pair is indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True for the full clique.
    pub fn is_clique(&self) -> bool {
        self.mesh.is_none()
    }

    /// The slot of `(src, dst)`, or `None` when the pair is not probed.
    #[inline]
    pub fn slot(&self, src: HostId, dst: HostId) -> Option<usize> {
        let (s, d) = (src.idx(), dst.idx());
        if s >= self.n || d >= self.n {
            return None;
        }
        match &self.mesh {
            // The row search stays out of line so this function inlines
            // into every accumulator's per-outcome path, keeping the
            // clique's lookup plain arithmetic.
            None => Some(s * self.n + d),
            Some(csr) => csr.slot(s, dst.0),
        }
    }

    /// Every pair in slot order — ascending `(src, dst)`.
    pub fn iter(&self) -> Pairs<'_> {
        Pairs { index: self, src: 0, slot: 0 }
    }

    /// Folds per-cell state for `methods` methods in the dense
    /// `(method, src, dst)` order of an `n × n` grid: `write` folds each
    /// indexed cell (given its `method * len() + slot` index), and every
    /// pair outside the index folds as the `cell_bytes` zero bytes its
    /// all-zero counters would have written. A run of `z` zero bytes
    /// folds in O(log z) (see [`Fnv::write_zeros`]), so a sparse index
    /// reproduces the dense fingerprint at sparse cost.
    pub fn fold_dense(
        &self,
        methods: usize,
        fnv: &mut Fnv,
        cell_bytes: u64,
        mut write: impl FnMut(&mut Fnv, usize),
    ) {
        let len = self.len();
        if self.is_clique() {
            // The slots *are* the dense grid: nothing to skip.
            (0..methods * len).for_each(|i| write(fnv, i));
            return;
        }
        let n = self.n as u64;
        // Dense position of the next cell the fold expects.
        let mut next = 0u64;
        for m in 0..methods {
            let base = m as u64 * n * n;
            for (slot, (s, d)) in self.iter().enumerate() {
                let pos = base + s.0 as u64 * n + d.0 as u64;
                fnv.write_zeros((pos - next) * cell_bytes);
                write(fnv, m * len + slot);
                next = pos + 1;
            }
        }
        fnv.write_zeros((methods as u64 * n * n - next) * cell_bytes);
    }

    /// An upper bound on the JSON length of [`Self::to_value`]'s form:
    /// `null`, or one `[d,…],` row per source with every destination
    /// at its widest (`65535,`).
    pub fn max_encoded_len(&self) -> usize {
        match &self.mesh {
            None => 4,
            Some(csr) => 6 * csr.dsts.len() + 3 * self.n + 2,
        }
    }

    /// The wire form: `null` for the clique, else one strictly ascending
    /// destination list per source.
    pub fn to_value(&self) -> serde::Value {
        use serde::Serialize;
        match &self.mesh {
            None => serde::Value::Null,
            Some(csr) => serde::Value::Seq(
                csr.offsets
                    .windows(2)
                    .map(|w| csr.dsts[w[0]..w[1]].to_vec().to_value())
                    .collect(),
            ),
        }
    }

    /// Decodes [`Self::to_value`]'s form for `n` hosts, rejecting rows
    /// that are unsorted, repeat a pair, name a self pair or a host out
    /// of range, or do not number exactly `n`.
    pub fn from_value(n: usize, v: &serde::Value) -> Result<PairIndex, serde::Error> {
        use serde::Deserialize;
        if n > MAX_HOSTS {
            return Err(serde::Error::new(format!(
                "pair set: {n} hosts exceed the {MAX_HOSTS}-host id space"
            )));
        }
        match v {
            serde::Value::Null => Ok(PairIndex::clique(n)),
            serde::Value::Seq(rows) => {
                let rows = rows.iter().map(Vec::<u16>::from_value).collect::<Result<Vec<_>, _>>()?;
                PairIndex::from_sorted_rows(n, rows.into_iter())
                    .map_err(|e| serde::Error::new(format!("pair set: {e}")))
            }
            other => Err(serde::Error::new(format!(
                "pair set: expected null or a list of rows, found {}",
                other.kind()
            ))),
        }
    }
}

/// Iterator over a [`PairIndex`]'s pairs in slot order.
pub struct Pairs<'a> {
    index: &'a PairIndex,
    src: usize,
    slot: usize,
}

impl Iterator for Pairs<'_> {
    type Item = (HostId, HostId);

    #[inline]
    fn next(&mut self) -> Option<(HostId, HostId)> {
        let p = self.index;
        let dst = match &p.mesh {
            None => {
                if self.slot >= p.n * p.n {
                    return None;
                }
                self.src = self.slot / p.n;
                (self.slot % p.n) as u16
            }
            Some(csr) => {
                let &dst = csr.dsts.get(self.slot)?;
                while csr.offsets[self.src + 1] <= self.slot {
                    self.src += 1;
                }
                dst
            }
        };
        self.slot += 1;
        Some((HostId(self.src as u16), HostId(dst)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.index.len() - self.slot;
        (left, Some(left))
    }
}

/// Widest JSON rendering of an integer counter (`u64`/`i64`) plus its
/// separator: the worst case behind every `max_encoded_len`.
pub(crate) const INT_JSON: usize = 21;
/// Widest shortest-round-trip rendering of an `f64`
/// (`-2.2250738585072014e-308`) plus its separator.
pub(crate) const FLOAT_JSON: usize = 25;

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Serialize;

    fn mesh() -> PairIndex {
        PairIndex::from_neighbor_lists(4, &[vec![3, 1], vec![0, 2], vec![1, 3, 1], vec![0, 2]])
    }

    #[test]
    fn clique_slots_are_the_dense_grid() {
        let p = PairIndex::clique(5);
        assert_eq!(p.len(), 25);
        assert_eq!(p.slot(HostId(2), HostId(3)), Some(13));
        assert_eq!(p.slot(HostId(5), HostId(0)), None);
        let pairs: Vec<_> = p.iter().map(|(s, d)| (s.0, d.0)).collect();
        assert_eq!(pairs.len(), 25);
        assert_eq!(pairs[13], (2, 3));
    }

    #[test]
    fn mesh_rows_sort_dedup_and_slot_in_order() {
        let p = mesh();
        assert_eq!(p.len(), 8);
        let pairs: Vec<_> = p.iter().map(|(s, d)| (s.0, d.0)).collect();
        assert_eq!(pairs, vec![(0, 1), (0, 3), (1, 0), (1, 2), (2, 1), (2, 3), (3, 0), (3, 2)]);
        for (slot, (s, d)) in p.iter().enumerate() {
            assert_eq!(p.slot(s, d), Some(slot));
        }
        assert_eq!(p.slot(HostId(0), HostId(2)), None, "unprobed pair");
        assert_eq!(p.slot(HostId(0), HostId(0)), None);
    }

    #[test]
    fn fold_dense_matches_writing_every_zero_cell() {
        let p = mesh();
        let cell = |i: usize| i as u64 * 7 + 1;
        let mut sparse = Fnv::new();
        p.fold_dense(2, &mut sparse, 8, |f, i| f.write_u64(cell(i)));
        let mut dense = Fnv::new();
        for m in 0..2 {
            for s in 0..4u16 {
                for d in 0..4u16 {
                    match p.slot(HostId(s), HostId(d)) {
                        Some(slot) => dense.write_u64(cell(m * p.len() + slot)),
                        None => dense.write_u64(0),
                    }
                }
            }
        }
        assert_eq!(sparse.finish(), dense.finish());
    }

    #[test]
    fn max_encoded_len_bounds_the_widest_rows() {
        // Five-digit destinations: the first hosts probe the last ones.
        let mut far = vec![Vec::new(); MAX_HOSTS];
        for (s, row) in far.iter_mut().enumerate().take(6) {
            *row = (0..6).map(|d| (MAX_HOSTS - 1 - d - s) as u16).collect();
        }
        for p in [PairIndex::clique(6), mesh(), PairIndex::from_neighbor_lists(MAX_HOSTS, &far)] {
            let len = serde_json::to_string(&p.to_value()).unwrap().len();
            assert!(len <= p.max_encoded_len(), "{} pairs: {len} > {}", p.len(), p.max_encoded_len());
        }
    }

    #[test]
    fn wire_form_round_trips_and_rejects_bad_rows() {
        let p = mesh();
        assert_eq!(PairIndex::from_value(4, &p.to_value()).unwrap(), p);
        assert_eq!(PairIndex::from_value(3, &serde::Value::Null).unwrap(), PairIndex::clique(3));
        let bad = |rows: Vec<Vec<u16>>, n: usize, want: &str| {
            let err = PairIndex::from_value(n, &rows.to_value()).unwrap_err().to_string();
            assert!(err.contains(want), "{rows:?}: got `{err}`, want `{want}`");
        };
        bad(vec![vec![2, 1], vec![0], vec![0]], 3, "not strictly ascending");
        bad(vec![vec![1, 1], vec![0], vec![0]], 3, "not strictly ascending");
        bad(vec![vec![1], vec![0], vec![7]], 3, "outside 0..3");
        bad(vec![vec![0], vec![0], vec![0]], 3, "self pair");
        bad(vec![vec![1], vec![0]], 3, "2 source rows");
        bad(vec![vec![1], vec![0], vec![0], vec![0]], 3, "more than 3 source rows");
        assert!(PairIndex::from_value(1 << 20, &serde::Value::Null).is_err());
    }
}
