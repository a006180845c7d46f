//! Candidate pruning for fleet-scale assignment.
//!
//! A 10k-server fleet gives every BE row 10k candidate edges, but an
//! optimal assignment seldom sends a BE app far down its own value
//! ranking. [`SparseCandidates`] keeps per BE row its top-k enabled
//! columns and nothing else.
//!
//! Pruning is a heuristic; exactness comes from the auction solver's
//! certification loop, which bounds every enabled column of every row and
//! splices in any pruned edge whose dual price proves it could still
//! matter (the escape hatch — see [`crate::assign::auction`]). That
//! certificate is why no column is kept "just in case": an edge the top-k
//! cut is restored exactly when, and only where, the optimum needs it.
//!
//! Each row also carries a *certificate order*, which the certificate
//! walks instead of the dense row: a prefix of the row's enabled columns
//! by value descending, ties by column ascending, at most `rows + 1`
//! deep. Invariant: every enabled column that precedes the prefix's last
//! entry in that order is in the prefix.

use crate::matrix::{ColumnEdit, MatrixDelta, PerfMatrix};

/// Per-row top-k candidate edge lists over a [`PerfMatrix`].
///
/// Each row's list holds `(col, value)` pairs, descending by value, over
/// enabled columns only: the row's k best columns, plus whatever edges
/// certification spliced in. The auction solver bids only on these edges;
/// its certification loop calls [`SparseCandidates::ensure_edge`] /
/// [`SparseCandidates::widen`] when the dual prices prove the pruning cut
/// too deep.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseCandidates {
    k: usize,
    cols: usize,
    rows: Vec<Vec<(usize, f64)>>,
    pub(crate) order: CertOrder,
}

/// Per-row certificate orders (module docs), flat at a stride of
/// `depth` entries a row: a `u32` column beside its `f64` value.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CertOrder {
    depth: usize,
    len: Vec<u32>,
    cols: Vec<u32>,
    vals: Vec<f64>,
}

/// Ascending keys are descending values: values are finite and ≥ 0, and
/// their bits sort like them once `+ 0.0` folds −0.0 into +0.0.
fn order_key(v: f64) -> u64 {
    !(v + 0.0).to_bits()
}

impl CertOrder {
    /// One row's prefix: its columns and their values, in order.
    pub(crate) fn row(&self, row: usize) -> (&[u32], &[f64]) {
        let at = row * self.depth..row * self.depth + self.len[row] as usize;
        (&self.cols[at.clone()], &self.vals[at])
    }

    fn entry(&self, at: usize) -> (u64, u32) {
        (order_key(self.vals[at]), self.cols[at])
    }

    /// Rebuilds `row`'s prefix by an integer-key select over the row.
    pub(crate) fn rebuild(
        &mut self,
        matrix: &PerfMatrix,
        row: usize,
        scratch: &mut Vec<(u64, u32)>,
    ) {
        let values = matrix.row(row);
        let enabled = (0..values.len()).filter(|&j| !matrix.is_col_disabled(j));
        scratch.clear();
        scratch.extend(enabled.map(|j| (order_key(values[j]), j as u32)));
        if scratch.len() > self.depth {
            scratch.select_nth_unstable(self.depth);
            scratch.truncate(self.depth);
        }
        scratch.sort_unstable();
        let base = row * self.depth;
        for (at, &(_, col)) in (base..).zip(scratch.iter()) {
            (self.cols[at], self.vals[at]) = (col, values[col as usize]);
        }
        self.len[row] = scratch.len() as u32;
    }

    /// Brings `row`'s prefix up to date with a delta already applied to
    /// `matrix`: dirtied members drop out, each dirtied enabled column
    /// that precedes the last remaining entry is merged in, and the prefix
    /// is cut back to `depth`. A column that now precedes the last entry
    /// was kept or merged in, so the invariant holds.
    fn patch(
        &mut self,
        matrix: &PerfMatrix,
        row: usize,
        delta: &MatrixDelta,
        dirty: &[bool],
        scratch: &mut Vec<(u64, u32)>,
    ) {
        let base = row * self.depth;
        let end = base + self.len[row] as usize;
        let first = self.cols[base..end].iter().position(|&j| dirty[j as usize]);
        let start = first.map_or(end, |first| base + first);
        let mut kept = start;
        for at in start..end {
            if !dirty[self.cols[at] as usize] {
                (self.cols[kept], self.vals[kept]) = (self.cols[at], self.vals[at]);
                kept += 1;
            }
        }
        scratch.clear();
        if kept > base {
            let last = self.entry(kept - 1);
            let enabled = delta.dirty_cols().filter(|&j| !matrix.is_col_disabled(j));
            let entries = enabled.map(|j| (order_key(matrix.value(row, j)), j as u32));
            scratch.extend(entries.filter(|&e| e < last));
            scratch.sort_unstable();
        }
        // Merge from the back; entries that land past `depth` fall off.
        let (mut i, mut j) = (kept, scratch.len());
        let cut = (kept + j).min(base + self.depth);
        self.len[row] = (cut - base) as u32;
        while j > 0 {
            let at = i + j - 1;
            let (col, val) = if i > base && self.entry(i - 1) > scratch[j - 1] {
                i -= 1;
                (self.cols[i], self.vals[i])
            } else {
                j -= 1;
                (scratch[j].1, matrix.value(row, scratch[j].1 as usize))
            };
            if at < cut {
                (self.cols[at], self.vals[at]) = (col, val);
            }
        }
    }
}

impl SparseCandidates {
    /// Default list width for a fleet of `cols` servers: `log2(cols) + 8`,
    /// clamped to the fleet size. Deep enough that the certification loop
    /// almost never widens on realistically clustered fleets, shallow
    /// enough that a 10k-column row carries ~20 edges instead of 10k.
    pub fn default_k(cols: usize) -> usize {
        ((usize::BITS - cols.leading_zeros()) as usize + 8).min(cols)
    }

    /// Builds per-row candidate lists of width `k` (clamped to the column
    /// count) over the enabled columns of `matrix`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn build(matrix: &PerfMatrix, k: usize) -> Self {
        assert!(k > 0, "candidate width k must be positive");
        let depth = (matrix.rows() + 1).min(matrix.cols());
        let mut cands = SparseCandidates {
            k: k.min(matrix.cols()),
            cols: matrix.cols(),
            rows: Vec::with_capacity(matrix.rows()),
            order: CertOrder {
                depth,
                len: vec![0; matrix.rows()],
                cols: vec![0; matrix.rows() * depth],
                vals: vec![0.0; matrix.rows() * depth],
            },
        };
        let mut scratch = Vec::with_capacity(matrix.cols());
        for row in 0..matrix.rows() {
            let list = cands.build_row(matrix, row);
            cands.rows.push(list);
            cands.order.rebuild(matrix, row, &mut scratch);
        }
        cands
    }

    /// One row's `(col, value)` candidates, descending by value.
    pub fn row(&self, row: usize) -> &[(usize, f64)] {
        &self.rows[row]
    }

    /// The current list width.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The `(rows, cols)` of the matrix these lists were built over.
    pub(crate) fn shape(&self) -> (usize, usize) {
        (self.rows.len(), self.cols)
    }

    fn build_row(&self, matrix: &PerfMatrix, row: usize) -> Vec<(usize, f64)> {
        let values = matrix.row(row);
        // Top-k selection: keep a small sorted (descending) buffer.
        let mut list: Vec<(usize, f64)> = Vec::with_capacity(self.k);
        for (j, &v) in values.iter().enumerate() {
            if matrix.is_col_disabled(j) {
                continue;
            }
            if list.len() < self.k {
                let at = list.partition_point(|&(_, lv)| lv >= v);
                list.insert(at, (j, v));
            } else if v > list[self.k - 1].1 {
                list.pop();
                let at = list.partition_point(|&(_, lv)| lv >= v);
                list.insert(at, (j, v));
            }
        }
        list
    }

    /// Widens every row's list to `new_k` (rebuilding from the matrix).
    /// No-op when `new_k` does not exceed the current width.
    pub fn widen(&mut self, matrix: &PerfMatrix, new_k: usize) {
        let new_k = new_k.min(self.cols);
        if new_k <= self.k {
            return;
        }
        self.k = new_k;
        for row in 0..self.rows.len() {
            self.rows[row] = self.build_row(matrix, row);
        }
    }

    /// Guarantees `(row, col)` is present (certification found a pruned
    /// edge whose dual price proves it matters).
    pub fn ensure_edge(&mut self, row: usize, col: usize, value: f64) {
        let list = &mut self.rows[row];
        if list.iter().any(|&(j, _)| j == col) {
            return;
        }
        let at = list.partition_point(|&(_, lv)| lv >= value);
        list.insert(at, (col, value));
    }

    /// Applies a [`MatrixDelta`] to the candidate lists and certificate
    /// orders of the (already patched) `matrix`: values of dirtied columns
    /// are refreshed in every list containing them, disabled columns drop
    /// out, and a changed column that now beats a row's worst candidate is
    /// inserted. Returns the rows whose lists changed — the auction's
    /// dirty-row set.
    ///
    /// Cost is O(rows · (k + depth + |delta|)): each row scans its own
    /// list and order plus one comparison per dirtied column — never the
    /// full matrix.
    pub fn apply_delta(&mut self, matrix: &PerfMatrix, delta: &MatrixDelta) -> Vec<usize> {
        let mut dirty = vec![false; self.cols];
        for (col, _) in delta.edits() {
            dirty[*col] = true;
        }
        let mut scratch = Vec::new();
        let mut touched = Vec::new();
        for (row, list) in self.rows.iter_mut().enumerate() {
            self.order.patch(matrix, row, delta, &dirty, &mut scratch);
            let before = list.len();
            let mut changed = false;
            list.retain_mut(|(j, v)| {
                if !dirty[*j] {
                    return true;
                }
                changed = true;
                if matrix.is_col_disabled(*j) {
                    return false;
                }
                *v = matrix.value(row, *j);
                true
            });
            if changed {
                list.sort_unstable_by(|a, b| b.1.partial_cmp(&a.1).expect("finite values"));
            }
            // Changed columns absent from the list may now belong in it.
            let floor = if list.len() >= self.k {
                list[self.k - 1].1
            } else {
                f64::NEG_INFINITY
            };
            for (col, edit) in delta.edits() {
                if matches!(edit, ColumnEdit::Disable) || list.iter().any(|&(j, _)| j == *col) {
                    continue;
                }
                let v = matrix.value(row, *col);
                if v > floor {
                    let at = list.partition_point(|&(_, lv)| lv >= v);
                    list.insert(at, (*col, v));
                    changed = true;
                }
            }
            // Lists eroded by disables refill lazily — only when more than
            // half the width is gone does the row rescan the matrix.
            if list.len() < self.k.div_ceil(2).max(1) {
                changed = true;
            }
            if changed || list.len() != before {
                touched.push(row);
            }
        }
        // Refill the eroded rows (borrow-split: compute outside the loop).
        let eroded: Vec<usize> = touched
            .iter()
            .copied()
            .filter(|&r| self.rows[r].len() < self.k.div_ceil(2).max(1))
            .collect();
        for row in eroded {
            self.rows[row] = self.build_row(matrix, row);
        }
        touched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn matrix(values: Vec<Vec<f64>>) -> PerfMatrix {
        let rows = values.len();
        let cols = values[0].len();
        PerfMatrix::new(
            (0..rows).map(|i| format!("be{i}")).collect(),
            (0..cols).map(|j| format!("lc{j}")).collect(),
            values,
        )
        .unwrap()
    }

    fn clustered(rows: usize, cols: usize, classes: usize, seed: u64) -> PerfMatrix {
        // `classes` geometry classes: servers in a class share a profile
        // shape, scaled by a per-server magnitude.
        let mut rng = StdRng::seed_from_u64(seed);
        let profiles: Vec<Vec<f64>> = (0..classes)
            .map(|_| (0..rows).map(|_| rng.gen_range(0.1..1.0)).collect())
            .collect();
        let mut values = vec![vec![0.0; cols]; rows];
        for j in 0..cols {
            let p = &profiles[j % classes];
            let scale = rng.gen_range(0.5..1.0);
            for (i, row) in values.iter_mut().enumerate() {
                row[j] = p[i] * scale;
            }
        }
        matrix(values)
    }

    #[test]
    fn top_k_lists_are_sorted_and_capped() {
        let m = clustered(6, 40, 4, 1);
        let c = SparseCandidates::build(&m, 5);
        for row in 0..6 {
            let list = c.row(row);
            assert_eq!(list.len(), 5, "exactly k edges");
            assert!(list.windows(2).all(|w| w[0].1 >= w[1].1), "descending");
            let mut cols: Vec<usize> = list.iter().map(|&(j, _)| j).collect();
            cols.sort_unstable();
            cols.dedup();
            assert_eq!(cols.len(), list.len(), "no duplicate columns");
            // The true row maximum always survives pruning.
            let best = (0..40)
                .max_by(|&a, &b| m.value(row, a).partial_cmp(&m.value(row, b)).unwrap())
                .unwrap();
            assert!(list.iter().any(|&(j, _)| j == best));
        }
    }

    #[test]
    fn widen_extends_lists() {
        let m = clustered(4, 30, 3, 2);
        let mut c = SparseCandidates::build(&m, 3);
        let edges = |c: &SparseCandidates| (0..4).map(|r| c.row(r).len()).sum::<usize>();
        let before = edges(&c);
        c.widen(&m, 10);
        assert_eq!(c.k(), 10);
        assert!(edges(&c) > before);
        c.widen(&m, 5); // no-op shrink
        assert_eq!(c.k(), 10);
        c.widen(&m, 1000); // clamped to cols
        assert_eq!(c.k(), 30);
        for row in 0..4 {
            assert_eq!(c.row(row).len(), 30, "full width covers every column");
        }
    }

    #[test]
    fn ensure_edge_inserts_once_in_order() {
        let m = clustered(2, 10, 2, 3);
        let mut c = SparseCandidates::build(&m, 2);
        let missing = (0..10)
            .find(|&j| !c.row(0).iter().any(|&(cj, _)| cj == j))
            .unwrap();
        let n = c.row(0).len();
        c.ensure_edge(0, missing, m.value(0, missing));
        assert_eq!(c.row(0).len(), n + 1);
        c.ensure_edge(0, missing, m.value(0, missing));
        assert_eq!(c.row(0).len(), n + 1, "idempotent");
        assert!(c.row(0).windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn apply_delta_touches_only_affected_rows() {
        let m = clustered(8, 40, 4, 4);
        let mut c = SparseCandidates::build(&m, 6);
        // Pick a column and bump it above everything: every row is touched.
        let delta = MatrixDelta::new().set_column(7, vec![2.0; 8]);
        let patched = m.patched(&delta).unwrap();
        let touched = c.apply_delta(&patched, &delta);
        assert_eq!(touched.len(), 8, "a now-dominant column enters every row");
        for row in 0..8 {
            assert_eq!(c.row(row)[0], (7, 2.0));
        }
        // Disable it again: every row that listed it is touched and drops it.
        let delta2 = MatrixDelta::new().disable_column(7);
        let patched2 = patched.patched(&delta2).unwrap();
        let touched2 = c.apply_delta(&patched2, &delta2);
        assert_eq!(touched2.len(), 8);
        for row in 0..8 {
            assert!(!c.row(row).iter().any(|&(j, _)| j == 7));
            assert!(c.row(row).len() >= 3, "lazy refill keeps lists usable");
        }
        // A delta over a column nobody lists and nobody wants touches no
        // row. The disable above eroded every list to k − 1, where any
        // edit enters, so this clause runs on full-width lists.
        let mut c = SparseCandidates::build(&patched2, 6);
        let worst = (0..40)
            .filter(|&j| j != 7)
            .min_by(|&a, &b| {
                let sa: f64 = (0..8).map(|i| patched2.value(i, a)).sum();
                let sb: f64 = (0..8).map(|i| patched2.value(i, b)).sum();
                sa.partial_cmp(&sb).unwrap()
            })
            .unwrap();
        assert!(!(0..8).any(|r| c.row(r).iter().any(|&(j, _)| j == worst)));
        let tiny = MatrixDelta::new().set_column(worst, vec![1e-6; 8]);
        let patched3 = patched2.patched(&tiny).unwrap();
        let touched3 = c.apply_delta(&patched3, &tiny);
        assert!(
            touched3.is_empty(),
            "unlisted, unwanted column: no rows touched"
        );
    }

    #[test]
    fn default_k_scales_logarithmically() {
        assert_eq!(SparseCandidates::default_k(4), 4);
        assert!(SparseCandidates::default_k(1000) <= 20);
        assert!(SparseCandidates::default_k(10_000) <= 24);
        assert!(SparseCandidates::default_k(10_000) >= 16);
    }

    #[test]
    fn disabled_columns_never_enter_lists() {
        let m = clustered(4, 12, 3, 5);
        let delta = MatrixDelta::new().disable_column(0).disable_column(5);
        let p = m.patched(&delta).unwrap();
        let c = SparseCandidates::build(&p, 12);
        for row in 0..4 {
            assert!(c.row(row).iter().all(|&(j, _)| j != 0 && j != 5));
            assert_eq!(c.row(row).len(), 10);
        }
    }
}
