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
//! Each row keeps one structure, its *certificate order*: a prefix of the
//! row's enabled columns by value descending, ties by column ascending,
//! `max(rows + 1, k)` deep. Invariant: every enabled column that precedes
//! the prefix's last entry in that order is in the prefix. The certificate
//! walks it instead of the dense row, and a row's candidate list is its
//! first k entries followed by the edges certification spliced in.

use crate::matrix::{MatrixDelta, PerfMatrix};

/// Per-row top-k candidate edge lists over a [`PerfMatrix`].
///
/// A row's list is `(col, value)` pairs over enabled columns only: the
/// row's k best columns, descending by value, then whatever edges
/// certification spliced in. The auction solver bids only on these edges;
/// its certification loop calls [`SparseCandidates::ensure_edge`] /
/// [`SparseCandidates::widen`] when the dual prices prove the pruning cut
/// too deep.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseCandidates {
    k: usize,
    cols: usize,
    /// Per row, the edges outside its top k that certification added,
    /// descending by value.
    spliced: Vec<Vec<(usize, f64)>>,
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
    /// Every row's prefix, `depth` deep, selected from `matrix`.
    fn build(matrix: &PerfMatrix, depth: usize) -> Self {
        let rows = matrix.rows();
        let mut order = CertOrder {
            depth,
            len: vec![0; rows],
            cols: vec![0; rows * depth],
            vals: vec![0.0; rows * depth],
        };
        let mut scratch = Vec::with_capacity(matrix.cols());
        for row in 0..rows {
            order.rebuild(matrix, row, &mut scratch);
        }
        order
    }

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
        let k = k.min(matrix.cols());
        let depth = (matrix.rows() + 1).max(k).min(matrix.cols());
        SparseCandidates {
            k,
            cols: matrix.cols(),
            spliced: vec![Vec::new(); matrix.rows()],
            order: CertOrder::build(matrix, depth),
        }
    }

    /// One row's `(col, value)` candidates: its top k by value, then its
    /// spliced edges.
    pub fn row(&self, row: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (cols, vals) = self.order.row(row);
        let top = self.k.min(cols.len());
        let top = cols[..top].iter().zip(&vals[..top]);
        let top = top.map(|(&col, &value)| (col as usize, value));
        top.chain(self.spliced[row].iter().copied())
    }

    /// How many candidates [`SparseCandidates::row`] yields.
    pub fn row_len(&self, row: usize) -> usize {
        self.k.min(self.order.len[row] as usize) + self.spliced[row].len()
    }

    /// The current list width.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The `(rows, cols)` of the matrix these lists were built over.
    pub(crate) fn shape(&self) -> (usize, usize) {
        (self.spliced.len(), self.cols)
    }

    /// Widens every row's list to its top `new_k` and drops the splices.
    /// Only a prefix shorter than that is rebuilt from the matrix, and past
    /// the orders' depth every row is, at depth `new_k`. No-op when
    /// `new_k` does not exceed the current width.
    pub fn widen(&mut self, matrix: &PerfMatrix, new_k: usize) {
        let new_k = new_k.min(self.cols);
        if new_k <= self.k {
            return;
        }
        self.k = new_k;
        self.spliced.iter_mut().for_each(Vec::clear);
        if new_k > self.order.depth {
            self.order = CertOrder::build(matrix, new_k);
            return;
        }
        let want = new_k.min(matrix.enabled_cols());
        let mut scratch = Vec::new();
        for row in 0..self.spliced.len() {
            if (self.order.len[row] as usize) < want {
                self.order.rebuild(matrix, row, &mut scratch);
            }
        }
    }

    /// Guarantees `(row, col)` is present (certification found a pruned
    /// edge whose dual price proves it matters).
    pub fn ensure_edge(&mut self, row: usize, col: usize, value: f64) {
        if self.row(row).any(|(j, _)| j == col) {
            return;
        }
        let spliced = &mut self.spliced[row];
        let at = spliced.partition_point(|&(_, v)| v >= value);
        spliced.insert(at, (col, value));
    }

    /// Applies a [`MatrixDelta`] to the certificate orders and splices of
    /// the (already patched) `matrix`: dirtied columns leave or re-enter
    /// each order at their new place, a prefix shorter than k is rebuilt,
    /// dirtied splices take their new values, and a splice that is now
    /// among its row's top k (or disabled) is dropped. Returns the rows
    /// whose lists held a dirtied column before or after — the auction's
    /// dirty-row set; every other row's list is unchanged.
    ///
    /// Cost is O(rows · (k + depth + |delta|)) plus a row scan per prefix
    /// that fell short of k — never the full matrix otherwise.
    pub fn apply_delta(&mut self, matrix: &PerfMatrix, delta: &MatrixDelta) -> Vec<usize> {
        let mut dirty = vec![false; self.cols];
        for col in delta.dirty_cols() {
            dirty[col] = true;
        }
        let want = self.k.min(matrix.enabled_cols());
        let mut scratch = Vec::new();
        let mut touched = Vec::new();
        for row in 0..self.spliced.len() {
            let held_dirty = self.row(row).any(|(j, _)| dirty[j]);
            self.order.patch(matrix, row, delta, &dirty, &mut scratch);
            if (self.order.len[row] as usize) < want {
                self.order.rebuild(matrix, row, &mut scratch);
            }
            // A prefix shorter than k holds every enabled column.
            let floor = (self.order.len[row] as usize >= self.k)
                .then(|| self.order.entry(row * self.order.depth + self.k - 1));
            let spliced = &mut self.spliced[row];
            let mut moved = false;
            spliced.retain_mut(|(j, v)| {
                if dirty[*j] {
                    if matrix.is_col_disabled(*j) {
                        return false;
                    }
                    *v = matrix.value(row, *j);
                    moved = true;
                }
                floor.is_some_and(|f| (order_key(*v), *j as u32) > f)
            });
            if moved {
                spliced.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite values"));
            }
            if held_dirty || self.row(row).any(|(j, _)| dirty[j]) {
                touched.push(row);
            }
        }
        touched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::auction::{self, tests as oracle, AuctionConfig};
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

    /// Values on a quarters grid with −0.0 beside +0.0, every third column
    /// a copy of an earlier one: ties everywhere.
    fn tied(rows: usize, cols: usize, seed: u64) -> PerfMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut values: Vec<Vec<f64>> = (0..rows)
            .map(|_| {
                (0..cols)
                    .map(|_| match rng.gen_range(0..5u8) {
                        4 => -0.0,
                        x => f64::from(x) / 4.0,
                    })
                    .collect()
            })
            .collect();
        for col in (2..cols).step_by(3) {
            let twin = rng.gen_range(0..col);
            for row in &mut values {
                row[col] = row[twin];
            }
        }
        matrix(values)
    }

    /// The lists before they were order prefixes: a top-k insertion
    /// buffer over the row, which keeps the earlier column of a tie and
    /// reads −0.0 and +0.0 as equal — the order's tie rule.
    fn insertion_buffer(matrix: &PerfMatrix, row: usize, k: usize) -> Vec<(usize, f64)> {
        let mut list: Vec<(usize, f64)> = Vec::with_capacity(k);
        for (j, &v) in matrix.row(row).iter().enumerate() {
            if matrix.is_col_disabled(j) {
                continue;
            }
            if list.len() < k {
                let at = list.partition_point(|&(_, lv)| lv >= v);
                list.insert(at, (j, v));
            } else if v > list[k - 1].1 {
                list.pop();
                let at = list.partition_point(|&(_, lv)| lv >= v);
                list.insert(at, (j, v));
            }
        }
        list
    }

    fn bits(list: impl Iterator<Item = (usize, f64)>) -> Vec<(usize, u64)> {
        list.map(|(j, v)| (j, v.to_bits())).collect()
    }

    #[test]
    fn prefix_lists_match_the_insertion_buffer() {
        // Why a cold plan does not move: a width-k list is bit for bit the
        // first k entries of the order, built at width k or widened to it,
        // within the order's depth and past it.
        for seed in 0..24 {
            let (rows, cols) = (1 + seed as usize % 5, 6 + seed as usize % 13);
            let mut m = tied(rows, cols, seed);
            if seed % 2 == 1 && cols > rows + 2 {
                m = m.patched(&MatrixDelta::new().disable_column(1)).unwrap();
            }
            for k in 1..=cols {
                let built = SparseCandidates::build(&m, k);
                let mut widened = SparseCandidates::build(&m, k);
                widened.widen(&m, 2 * k);
                for row in 0..rows {
                    let want = bits(insertion_buffer(&m, row, k).into_iter());
                    assert_eq!(bits(built.row(row)), want, "seed {seed} k {k} row {row}");
                    let want = bits(insertion_buffer(&m, row, widened.k()).into_iter());
                    assert_eq!(bits(widened.row(row)), want, "seed {seed} 2k {k} row {row}");
                }
            }
        }
    }

    #[test]
    fn top_k_lists_are_sorted_and_capped() {
        let m = clustered(6, 40, 4, 1);
        let c = SparseCandidates::build(&m, 5);
        for row in 0..6 {
            let list: Vec<(usize, f64)> = c.row(row).collect();
            assert_eq!(list.len(), 5, "exactly k edges");
            assert_eq!(c.row_len(row), 5);
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
        let edges = |c: &SparseCandidates| (0..4).map(|r| c.row(r).count()).sum::<usize>();
        let before = edges(&c);
        c.widen(&m, 10); // past the order's depth, rows + 1 = 5
        assert_eq!(c.k(), 10);
        assert!(edges(&c) > before);
        // The deepened orders still certify like the dense scan, cold and
        // through a repair.
        let cfg = AuctionConfig::default();
        let mut dense = c.clone();
        let walk = auction::solve_with_candidates(&m, &mut c, &cfg).unwrap();
        let cold = oracle::with_dense_scan(|| auction::solve_with_candidates(&m, &mut dense, &cfg));
        oracle::assert_same_solution(&walk, &cold.unwrap(), true, "widened cold");
        let delta = MatrixDelta::new().disable_column(walk.assignment.server_for(0).unwrap());
        let p = m.patched(&delta).unwrap();
        let inc = auction::solve_incremental(&p, &mut c, &walk, &delta, &cfg).unwrap();
        let inc_dense = oracle::with_dense_scan(|| {
            auction::solve_incremental(&p, &mut dense, &walk, &delta, &cfg)
        });
        oracle::assert_same_solution(&inc, &inc_dense.unwrap(), true, "widened repair");
        c.widen(&m, 5); // no-op shrink
        assert_eq!(c.k(), 10);
        c.widen(&m, 1000); // clamped to cols
        assert_eq!(c.k(), 30);
        for row in 0..4 {
            assert_eq!(c.row(row).count(), 30, "full width covers every column");
        }
    }

    #[test]
    fn ensure_edge_inserts_once_in_order() {
        let m = clustered(2, 10, 2, 3);
        let mut c = SparseCandidates::build(&m, 2);
        let missing = (0..10).find(|&j| !c.row(0).any(|(cj, _)| cj == j)).unwrap();
        let n = c.row_len(0);
        c.ensure_edge(0, missing, m.value(0, missing));
        assert_eq!(c.row_len(0), n + 1);
        c.ensure_edge(0, missing, m.value(0, missing));
        assert_eq!(c.row_len(0), n + 1, "idempotent");
        let list: Vec<(usize, f64)> = c.row(0).collect();
        assert_eq!(list.len(), n + 1);
        assert!(list.windows(2).all(|w| w[0].1 >= w[1].1));
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
            assert_eq!(c.row(row).next(), Some((7, 2.0)));
        }
        // Disable it again: every row that listed it is touched and drops it.
        let delta2 = MatrixDelta::new().disable_column(7);
        let patched2 = patched.patched(&delta2).unwrap();
        let touched2 = c.apply_delta(&patched2, &delta2);
        assert_eq!(touched2.len(), 8);
        for row in 0..8 {
            assert!(!c.row(row).any(|(j, _)| j == 7));
            assert_eq!(c.row_len(row), 6, "the next entry of the order moves up");
        }
        // The lists are the ones a fresh build makes, so a delta over a
        // column nobody lists and nobody wants touches no row.
        let fresh = SparseCandidates::build(&patched2, 6);
        assert!((0..8).all(|r| bits(c.row(r)) == bits(fresh.row(r))));
        let worst = (0..40)
            .filter(|&j| j != 7)
            .min_by(|&a, &b| {
                let sa: f64 = (0..8).map(|i| patched2.value(i, a)).sum();
                let sb: f64 = (0..8).map(|i| patched2.value(i, b)).sum();
                sa.partial_cmp(&sb).unwrap()
            })
            .unwrap();
        assert!(!(0..8).any(|r| c.row(r).any(|(j, _)| j == worst)));
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
            assert!(c.row(row).all(|(j, _)| j != 0 && j != 5));
            assert_eq!(c.row_len(row), 10);
        }
    }
}
