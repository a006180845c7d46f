//! The BE×LC performance matrix (Fig. 7-II of the paper) and the sparse
//! delta representation the incremental replan path consumes.

use std::fmt;

use crate::error::ClusterError;

/// A labelled rows×cols matrix of estimated throughputs: entry `(i, j)` is
/// the predicted average throughput of best-effort app `i` when placed on
/// latency-critical server `j`.
///
/// A column may be **disabled** (server faulted out of the fleet): its
/// values read as zero and solvers must not place anything there. Freshly
/// built matrices have every column enabled; disabling happens through
/// [`PerfMatrix::patched`] with a [`MatrixDelta`].
#[derive(Debug, Clone, PartialEq)]
pub struct PerfMatrix {
    row_labels: Vec<String>,
    col_labels: Vec<String>,
    values: Vec<Vec<f64>>,
    /// `disabled[j]` — column `j` is out of the fleet. Empty ⇔ all enabled
    /// (the common case pays no memory).
    disabled: Vec<bool>,
    /// `col_max[j]` — the largest entry of column `j` (0.0 once disabled),
    /// kept current by every patch so [`PerfMatrix::max_value`] never
    /// rescans the values.
    col_max: Vec<f64>,
}

/// What [`PerfMatrix::patch`] overwrote — enough to put the matrix back
/// exactly as it was, at the cost of the dirtied columns only.
#[derive(Debug)]
pub(crate) struct PatchUndo {
    /// `(col, old values, old disabled bit, old column maximum)`.
    cols: Vec<(usize, Vec<f64>, bool, f64)>,
    /// The disabled mask was still unallocated before the patch.
    mask_was_empty: bool,
}

impl PerfMatrix {
    /// Builds a matrix from labels and row-major values.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidMatrix`] if empty, ragged, label
    /// counts mismatch, or any value is not finite and non-negative.
    pub fn new(
        row_labels: Vec<String>,
        col_labels: Vec<String>,
        values: Vec<Vec<f64>>,
    ) -> Result<Self, ClusterError> {
        if values.is_empty() || col_labels.is_empty() {
            return Err(ClusterError::InvalidMatrix("matrix is empty".into()));
        }
        if values.len() != row_labels.len() {
            return Err(ClusterError::InvalidMatrix(format!(
                "{} rows but {} row labels",
                values.len(),
                row_labels.len()
            )));
        }
        let mut col_max = vec![0.0f64; col_labels.len()];
        for row in &values {
            if row.len() != col_labels.len() {
                return Err(ClusterError::InvalidMatrix(format!(
                    "ragged row: {} entries, {} col labels",
                    row.len(),
                    col_labels.len()
                )));
            }
            for (&v, max) in row.iter().zip(&mut col_max) {
                if !v.is_finite() || v < 0.0 {
                    return Err(ClusterError::InvalidMatrix(format!(
                        "throughput {v} must be finite and non-negative"
                    )));
                }
                if v > *max {
                    *max = v;
                }
            }
        }
        Ok(PerfMatrix {
            row_labels,
            col_labels,
            values,
            disabled: Vec::new(),
            col_max,
        })
    }

    /// Number of best-effort apps (rows).
    pub fn rows(&self) -> usize {
        self.values.len()
    }

    /// Number of servers (columns), enabled or not.
    pub fn cols(&self) -> usize {
        self.col_labels.len()
    }

    /// Number of columns still in the fleet.
    pub fn enabled_cols(&self) -> usize {
        if self.disabled.is_empty() {
            self.cols()
        } else {
            self.disabled.iter().filter(|&&d| !d).count()
        }
    }

    /// Whether column `j` has been disabled (server faulted out).
    pub fn is_col_disabled(&self, col: usize) -> bool {
        self.disabled.get(col).copied().unwrap_or(false)
    }

    /// Entry `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics when out of range.
    pub fn value(&self, row: usize, col: usize) -> f64 {
        self.values[row][col]
    }

    /// One row as a slice — candidate scoring iterates rows without
    /// materializing anything.
    ///
    /// # Panics
    ///
    /// Panics when out of range.
    pub fn row(&self, row: usize) -> &[f64] {
        &self.values[row]
    }

    /// Iterates column `col` top-to-bottom without materializing it —
    /// change detection and column snapshots walk columns through this.
    ///
    /// # Panics
    ///
    /// Panics when out of range.
    pub fn col_iter(&self, col: usize) -> impl Iterator<Item = f64> + '_ {
        assert!(col < self.cols(), "column {col} out of range");
        self.values.iter().map(move |r| r[col])
    }

    /// The largest entry over enabled columns (0.0 if everything is
    /// disabled) — the auction's ε-scaling schedule starts here. O(cols):
    /// read off the per-column maxima, which hold 0.0 for disabled columns.
    pub fn max_value(&self) -> f64 {
        let mut best = 0.0f64;
        for &v in &self.col_max {
            if v > best {
                best = v;
            }
        }
        best
    }

    /// The raw row-major values.
    pub fn values(&self) -> &[Vec<f64>] {
        &self.values
    }

    /// Row (best-effort app) labels.
    pub fn row_labels(&self) -> &[String] {
        &self.row_labels
    }

    /// Column (server / LC app) labels.
    pub fn col_labels(&self) -> &[String] {
        &self.col_labels
    }

    /// Total value of an assignment given as `pairs[(row, col)]`.
    pub fn assignment_value(&self, pairs: &[(usize, usize)]) -> f64 {
        pairs.iter().map(|&(r, c)| self.values[r][c]).sum()
    }

    /// Applies a [`MatrixDelta`], returning the patched matrix. Disabled
    /// columns have their values zeroed and are excluded from placement.
    ///
    /// # Errors
    ///
    /// Rejects out-of-range columns, wrong-length replacement columns, and
    /// non-finite or negative replacement values.
    pub fn patched(&self, delta: &MatrixDelta) -> Result<PerfMatrix, ClusterError> {
        self.check_delta(delta)?;
        let mut out = self.clone();
        out.apply_checked(delta);
        Ok(out)
    }

    /// [`PerfMatrix::patched`] in place: validates the whole delta, then
    /// overwrites only the dirtied columns. The returned [`PatchUndo`]
    /// holds what they held before, for [`PerfMatrix::unpatch`].
    ///
    /// # Errors
    ///
    /// As [`PerfMatrix::patched`]; on error the matrix is untouched.
    pub(crate) fn patch(&mut self, delta: &MatrixDelta) -> Result<PatchUndo, ClusterError> {
        self.check_delta(delta)?;
        let undo = PatchUndo {
            cols: delta
                .dirty_cols()
                .map(|col| {
                    (
                        col,
                        self.col_iter(col).collect(),
                        self.is_col_disabled(col),
                        self.col_max[col],
                    )
                })
                .collect(),
            mask_was_empty: self.disabled.is_empty(),
        };
        self.apply_checked(delta);
        Ok(undo)
    }

    /// Reverts the [`PerfMatrix::patch`] that produced `undo`, bit for bit.
    pub(crate) fn unpatch(&mut self, undo: PatchUndo) {
        for (col, values, was_disabled, max) in undo.cols {
            for (row, v) in self.values.iter_mut().zip(values) {
                row[col] = v;
            }
            if !self.disabled.is_empty() {
                self.disabled[col] = was_disabled;
            }
            self.col_max[col] = max;
        }
        if undo.mask_was_empty {
            self.disabled = Vec::new();
        }
    }

    fn check_delta(&self, delta: &MatrixDelta) -> Result<(), ClusterError> {
        for (col, edit) in &delta.edits {
            if *col >= self.cols() {
                return Err(ClusterError::InvalidMatrix(format!(
                    "delta column {col} out of range ({} cols)",
                    self.cols()
                )));
            }
            if let ColumnEdit::Set(values) = edit {
                if values.len() != self.rows() {
                    return Err(ClusterError::InvalidMatrix(format!(
                        "delta column {col} has {} entries, matrix has {} rows",
                        values.len(),
                        self.rows()
                    )));
                }
                for &v in values {
                    if !v.is_finite() || v < 0.0 {
                        return Err(ClusterError::InvalidMatrix(format!(
                            "delta throughput {v} must be finite and non-negative"
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// Applies a delta that [`PerfMatrix::check_delta`] accepted.
    fn apply_checked(&mut self, delta: &MatrixDelta) {
        for (col, edit) in &delta.edits {
            let col = *col;
            match edit {
                ColumnEdit::Set(values) => {
                    let mut max = 0.0f64;
                    for (row, &v) in self.values.iter_mut().zip(values) {
                        row[col] = v;
                        if v > max {
                            max = v;
                        }
                    }
                    self.col_max[col] = max;
                    if !self.disabled.is_empty() {
                        self.disabled[col] = false;
                    }
                }
                ColumnEdit::Disable => {
                    if self.disabled.is_empty() {
                        self.disabled = vec![false; self.cols()];
                    }
                    self.disabled[col] = true;
                    for row in &mut self.values {
                        row[col] = 0.0;
                    }
                    self.col_max[col] = 0.0;
                }
            }
        }
    }

    /// Projects out disabled columns: returns the compacted matrix and the
    /// map from compact column index back to the original one. `None` when
    /// nothing is disabled (solvers run on `self` directly).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidMatrix`] when every column is
    /// disabled.
    pub fn compact_enabled(&self) -> Result<Option<(PerfMatrix, Vec<usize>)>, ClusterError> {
        if self.disabled.iter().all(|&d| !d) {
            return Ok(None);
        }
        let keep: Vec<usize> = (0..self.cols())
            .filter(|&j| !self.is_col_disabled(j))
            .collect();
        if keep.is_empty() {
            return Err(ClusterError::InvalidMatrix(
                "every column is disabled".into(),
            ));
        }
        let values: Vec<Vec<f64>> = self
            .values
            .iter()
            .map(|row| keep.iter().map(|&j| row[j]).collect())
            .collect();
        let compact = PerfMatrix::new(
            self.row_labels.clone(),
            keep.iter().map(|&j| self.col_labels[j].clone()).collect(),
            values,
        )?;
        Ok(Some((compact, keep)))
    }
}

/// One column's worth of change in a [`MatrixDelta`].
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnEdit {
    /// The server's estimates changed (cap de-rate, model refit): the new
    /// column values, one per BE row. Re-enables a disabled column.
    Set(Vec<f64>),
    /// The server left the fleet (crash, maintenance): values read as zero
    /// and no BE may be placed there.
    Disable,
}

/// A sparse set of column edits between two replans — what changed since
/// the matrix was last solved, so the incremental solver can repair only
/// the dirtied part instead of re-solving from scratch.
///
/// Edits are column-oriented because every fleet event the replan loop
/// sees (per-server fault, per-server cap de-rate, a server's model refit)
/// dirties whole columns; BE-side changes (new candidate set) rebuild the
/// matrix outright.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MatrixDelta {
    /// `(col, edit)`, sorted and unique by column.
    edits: Vec<(usize, ColumnEdit)>,
}

impl MatrixDelta {
    /// An empty delta (nothing changed).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records new values for a column (builder style). A later edit for
    /// the same column replaces the earlier one.
    #[must_use]
    pub fn set_column(mut self, col: usize, values: Vec<f64>) -> Self {
        self.insert(col, ColumnEdit::Set(values));
        self
    }

    /// Records a column leaving the fleet (builder style).
    #[must_use]
    pub fn disable_column(mut self, col: usize) -> Self {
        self.insert(col, ColumnEdit::Disable);
        self
    }

    fn insert(&mut self, col: usize, edit: ColumnEdit) {
        match self.edits.binary_search_by_key(&col, |(c, _)| *c) {
            Ok(i) => self.edits[i].1 = edit,
            Err(i) => self.edits.insert(i, (col, edit)),
        }
    }

    /// The edits, sorted by column.
    pub fn edits(&self) -> &[(usize, ColumnEdit)] {
        &self.edits
    }

    /// The dirtied column indices, ascending.
    pub fn dirty_cols(&self) -> impl Iterator<Item = usize> + '_ {
        self.edits.iter().map(|(c, _)| *c)
    }

    /// Number of dirtied columns.
    pub fn len(&self) -> usize {
        self.edits.len()
    }

    /// Whether nothing changed.
    pub fn is_empty(&self) -> bool {
        self.edits.is_empty()
    }
}

impl fmt::Display for PerfMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:>10}", "")?;
        for c in &self.col_labels {
            write!(f, " {c:>9}")?;
        }
        writeln!(f)?;
        for (r, row) in self.row_labels.iter().zip(&self.values) {
            write!(f, "{r:>10}")?;
            for v in row {
                write!(f, " {v:>9.4}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn matrix3() -> PerfMatrix {
        PerfMatrix::new(
            labels(&["a", "b"]),
            labels(&["x", "y", "z"]),
            vec![vec![0.1, 0.2, 0.3], vec![0.4, 0.5, 0.6]],
        )
        .unwrap()
    }

    #[test]
    fn construction_and_access() {
        let m = PerfMatrix::new(
            labels(&["lstm", "graph"]),
            labels(&["sphinx", "xapian"]),
            vec![vec![0.5, 0.7], vec![0.9, 0.4]],
        )
        .unwrap();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        assert_eq!(m.enabled_cols(), 2);
        assert_eq!(m.value(1, 0), 0.9);
        assert_eq!(m.row(0), &[0.5, 0.7]);
        assert_eq!(m.col_iter(1).collect::<Vec<_>>(), vec![0.7, 0.4]);
        assert_eq!(m.max_value(), 0.9);
        assert_eq!(m.assignment_value(&[(0, 1), (1, 0)]), 0.7 + 0.9);
    }

    #[test]
    fn validation() {
        assert!(PerfMatrix::new(labels(&[]), labels(&["a"]), vec![]).is_err());
        assert!(PerfMatrix::new(labels(&["x"]), labels(&["a", "b"]), vec![vec![1.0]]).is_err());
        assert!(PerfMatrix::new(labels(&["x"]), labels(&["a"]), vec![vec![-1.0]]).is_err());
        assert!(PerfMatrix::new(labels(&["x"]), labels(&["a"]), vec![vec![f64::NAN]]).is_err());
        assert!(PerfMatrix::new(labels(&["x", "y"]), labels(&["a"]), vec![vec![1.0]]).is_err());
    }

    #[test]
    fn display_contains_labels() {
        let m =
            PerfMatrix::new(labels(&["lstm"]), labels(&["sphinx"]), vec![vec![0.1234]]).unwrap();
        let s = m.to_string();
        assert!(s.contains("lstm") && s.contains("sphinx") && s.contains("0.1234"));
    }

    #[test]
    fn patched_set_and_disable() {
        let m = matrix3();
        let delta = MatrixDelta::new()
            .set_column(0, vec![1.0, 2.0])
            .disable_column(2);
        let p = m.patched(&delta).unwrap();
        assert_eq!(p.value(0, 0), 1.0);
        assert_eq!(p.value(1, 0), 2.0);
        assert_eq!(p.value(0, 1), 0.2, "untouched column survives");
        assert!(p.is_col_disabled(2));
        assert_eq!(p.value(0, 2), 0.0, "disabled column reads zero");
        assert_eq!(p.enabled_cols(), 2);
        // Re-enabling by setting fresh values.
        let back = p
            .patched(&MatrixDelta::new().set_column(2, vec![0.3, 0.6]))
            .unwrap();
        assert!(!back.is_col_disabled(2));
        assert_eq!(back.enabled_cols(), 3);
    }

    #[test]
    fn patched_rejects_bad_edits() {
        let m = matrix3();
        assert!(m.patched(&MatrixDelta::new().disable_column(9)).is_err());
        assert!(m
            .patched(&MatrixDelta::new().set_column(0, vec![1.0]))
            .is_err());
        assert!(m
            .patched(&MatrixDelta::new().set_column(0, vec![1.0, f64::NAN]))
            .is_err());
    }

    #[test]
    fn compact_projects_out_disabled_columns() {
        let m = matrix3();
        assert!(m.compact_enabled().unwrap().is_none());
        let p = m.patched(&MatrixDelta::new().disable_column(1)).unwrap();
        let (compact, map) = p.compact_enabled().unwrap().unwrap();
        assert_eq!(compact.cols(), 2);
        assert_eq!(map, vec![0, 2]);
        assert_eq!(compact.value(1, 1), 0.6);
        assert_eq!(compact.col_labels(), &["x".to_string(), "z".to_string()]);
        // All-disabled is rejected.
        let dead = p
            .patched(&MatrixDelta::new().disable_column(0).disable_column(2))
            .unwrap();
        assert!(dead.compact_enabled().is_err());
    }

    #[test]
    fn patch_in_place_and_undo() {
        let mut m = matrix3();
        let pristine = m.clone();
        let delta = MatrixDelta::new()
            .set_column(0, vec![1.0, 2.0])
            .disable_column(2);
        let undo = m.patch(&delta).unwrap();
        assert_eq!(m, pristine.patched(&delta).unwrap());
        assert_eq!(m.max_value(), 2.0);
        m.unpatch(undo);
        assert_eq!(m, pristine, "the unallocated mask comes back too");
        assert_eq!(m.max_value(), 0.6);
        // A rejected delta touches nothing, whichever edit is the bad one.
        let bad = MatrixDelta::new()
            .set_column(0, vec![9.0, 9.0])
            .set_column(1, vec![1.0, f64::NAN]);
        assert!(m.patch(&bad).is_err());
        assert_eq!(m, pristine);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;
        use rand::prelude::*;

        /// Draws from a coarse grid so exact ties and zeros are common.
        fn grid(rng: &mut StdRng) -> f64 {
            f64::from(rng.gen_range(0..8u32)) / 8.0
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// In-place patching against a naive model: after any sequence
            /// of deltas — disable → set re-enables and repeated edits of
            /// one column included — values, mask and labels are the
            /// model's and what `patched()` returns, `max_value()` is a
            /// brute-force scan over enabled columns, and `unpatch` is an
            /// exact inverse.
            #[test]
            fn in_place_patches_track_a_naive_model(
                rows in 1usize..=5,
                cols in 1usize..=7,
                steps in 1usize..=12,
                seed in any::<u64>(),
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut values: Vec<Vec<f64>> = (0..rows)
                    .map(|_| (0..cols).map(|_| grid(&mut rng)).collect())
                    .collect();
                let mut disabled = vec![false; cols];
                let row_labels: Vec<String> = (0..rows).map(|i| format!("be{i}")).collect();
                let col_labels: Vec<String> = (0..cols).map(|j| format!("lc{j}")).collect();
                let mut m =
                    PerfMatrix::new(row_labels.clone(), col_labels.clone(), values.clone()).unwrap();
                for _ in 0..steps {
                    let mut delta = MatrixDelta::new();
                    for _ in 0..rng.gen_range(1..=3usize) {
                        let col = rng.gen_range(0..cols);
                        delta = if rng.gen_bool(0.4) {
                            delta.disable_column(col)
                        } else {
                            delta.set_column(col, (0..rows).map(|_| grid(&mut rng)).collect())
                        };
                    }
                    for (col, edit) in delta.edits() {
                        for (i, row) in values.iter_mut().enumerate() {
                            row[*col] = match edit {
                                ColumnEdit::Set(v) => v[i],
                                ColumnEdit::Disable => 0.0,
                            };
                        }
                        disabled[*col] = matches!(edit, ColumnEdit::Disable);
                    }
                    let before = m.clone();
                    let copy = m.patched(&delta).unwrap();
                    let undo = m.patch(&delta).unwrap();
                    m.unpatch(undo);
                    prop_assert_eq!(&m, &before);
                    m.patch(&delta).unwrap();
                    prop_assert_eq!(&m, &copy);
                    prop_assert_eq!(m.row_labels(), &row_labels[..]);
                    prop_assert_eq!(m.col_labels(), &col_labels[..]);
                    let mut brute = 0.0f64;
                    for (i, row) in values.iter().enumerate() {
                        for (j, &v) in row.iter().enumerate() {
                            prop_assert_eq!(m.value(i, j).to_bits(), v.to_bits());
                            if !disabled[j] && v > brute {
                                brute = v;
                            }
                        }
                    }
                    for (j, &d) in disabled.iter().enumerate() {
                        prop_assert_eq!(m.is_col_disabled(j), d);
                    }
                    prop_assert_eq!(m.max_value().to_bits(), brute.to_bits());
                }
            }
        }
    }

    #[test]
    fn delta_edits_replace_per_column() {
        let d = MatrixDelta::new()
            .disable_column(1)
            .set_column(1, vec![1.0, 2.0]);
        assert_eq!(d.len(), 1);
        assert!(matches!(d.edits()[0], (1, ColumnEdit::Set(_))));
    }
}
