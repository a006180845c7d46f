//! Property tests for the sparse auction path: on random dense matrices
//! up to 64×96 — plain, with columns that tie exactly, with columns
//! disabled, or both — the auction total stays within the ε·rows band of the
//! exact Hungarian optimum, and an incremental repair after a matrix
//! delta lands in the same band as a cold solve on the patched matrix.
//!
//! The auction is ε-approximate and path-dependent, so "equals a cold
//! solve" is asserted the only way it is well-defined: both totals sit
//! within ε·rows of the patched matrix's exact optimum, which also bounds
//! them within 2·ε·rows of each other.
//!
//! The certificate has to be exact, not approximate: over seeded
//! sequences of faults, restores, edits and fleet-wide rebuilds on tied
//! matrices, the walk down each row's certificate order gives the same
//! bound bits and violations as a dense scan of every enabled edge, at
//! the prices as they stand or floored, whichever certifies.
//!
//! A repair keeps what still holds and certifies at the prices it bid at:
//! over seeded fault / restore / refit / ×0.8 sequences, each repair
//! re-bids exactly the pairs the keep rule drops (on a dirtied column, or
//! beaten by more than ε by a dirtied column on the row's updated list),
//! and the benchmark's dense dual gap at its prices stays within ε·rows.
//!
//! The candidate lists have to be exact too: over seeded sequences of
//! builds, widenings, splices, deltas and repairs on tied matrices, every
//! row's list is the first k entries of a dense sort of its enabled
//! columns, followed by the edges certification spliced in.

use pocolo_cluster::assign::auction::{self, AuctionConfig, AuctionSolution};
use pocolo_cluster::assign::sparse::SparseCandidates;
use pocolo_cluster::matrix::{MatrixDelta, PerfMatrix};
use proptest::prelude::*;
use rand::prelude::*;

/// A random matrix; `shape` decides whether some columns are exact copies
/// of earlier ones (ties between columns, bit 0) and whether up to the
/// spare columns are disabled (bit 1).
fn random_matrix(rows: usize, cols: usize, seed: u64, shape: u8) -> PerfMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut values: Vec<Vec<f64>> = (0..rows)
        .map(|_| (0..cols).map(|_| rng.gen_range(0.0..1.0)).collect())
        .collect();
    if shape & 1 != 0 {
        for col in 1..cols {
            if rng.gen_bool(0.3) {
                let twin = rng.gen_range(0..col);
                for row in &mut values {
                    row[col] = row[twin];
                }
            }
        }
    }
    let matrix = PerfMatrix::new(
        (0..rows).map(|i| format!("be{i}")).collect(),
        (0..cols).map(|j| format!("lc{j}")).collect(),
        values,
    )
    .expect("random matrix is well-formed");
    if shape & 2 == 0 {
        return matrix;
    }
    let mut order: Vec<usize> = (0..cols).collect();
    order.shuffle(&mut rng);
    let spare = cols - rows;
    let faults = order
        .iter()
        .take(rng.gen_range(0..=spare.min(8)))
        .fold(MatrixDelta::new(), |d, &col| d.disable_column(col));
    matrix.patched(&faults).expect("faults are in range")
}

/// A cold solve at the default candidate width.
fn cold_solve(matrix: &PerfMatrix, cfg: &AuctionConfig) -> auction::AuctionSolution {
    let mut cands = SparseCandidates::build(matrix, SparseCandidates::default_k(matrix.cols()));
    auction::solve_with_candidates(matrix, &mut cands, cfg).expect("cold solve")
}

/// The exact optimum, through the dispatcher so disabled columns are
/// projected out.
fn exact_total(matrix: &PerfMatrix) -> f64 {
    pocolo_cluster::assign::solve(matrix, pocolo_cluster::assign::Solver::Hungarian)
        .expect("exact solve")
        .total
}

/// Perfect matching: every row placed once, no column reused, no
/// disabled column assigned.
fn assert_valid(matrix: &PerfMatrix, pairs: &[(usize, usize)]) {
    assert_eq!(pairs.len(), matrix.rows());
    let mut used = vec![false; matrix.cols()];
    for (i, &(row, col)) in pairs.iter().enumerate() {
        assert_eq!(row, i, "pairs sorted by row");
        assert!(!matrix.is_col_disabled(col), "assigned a disabled column");
        assert!(!used[col], "column {col} assigned twice");
        used[col] = true;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn auction_total_within_eps_of_hungarian(
        rows in 1usize..=64,
        extra in 0usize..=95,
        seed in any::<u64>(),
        shape in 0u8..4,
    ) {
        let cols = (rows + extra).clamp(rows, 96);
        let matrix = random_matrix(rows, cols, seed, shape);
        let cfg = AuctionConfig::default();
        let sol = cold_solve(&matrix, &cfg);
        assert_valid(&matrix, &sol.assignment.pairs);
        prop_assert!(sol.certified, "solve must certify its gap");
        let exact = exact_total(&matrix);
        let bound = cfg.eps * rows as f64 + 1e-9 * rows as f64;
        prop_assert!(
            sol.assignment.total >= exact - bound,
            "auction {} below hungarian {exact} by more than {bound}",
            sol.assignment.total,
        );
        prop_assert!(
            sol.assignment.total <= exact + bound,
            "auction {} exceeds the exact optimum {exact}",
            sol.assignment.total,
        );
    }

    #[test]
    fn incremental_matches_cold_solve_on_patched_matrix(
        rows in 1usize..=64,
        extra in 0usize..=95,
        seed in any::<u64>(),
        edited in any::<u32>(),
        shape in 0u8..4,
    ) {
        let cols = (rows + extra).clamp(rows, 96);
        let matrix = random_matrix(rows, cols, seed, shape);
        let cfg = AuctionConfig::default();
        let mut cands = SparseCandidates::build(&matrix, SparseCandidates::default_k(cols));
        let prev = auction::solve_with_candidates(&matrix, &mut cands, &cfg)
            .expect("reference solve");

        // Rewrite one column's values; additionally disable the column
        // hosting row 0 when a spare column exists (the fault path).
        let victim = edited as usize % cols;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xDE17A);
        let fresh: Vec<f64> = (0..rows).map(|_| rng.gen_range(0.0..1.0)).collect();
        let mut delta = MatrixDelta::new().set_column(victim, fresh);
        let enabled_after = matrix.enabled_cols() + usize::from(matrix.is_col_disabled(victim));
        if enabled_after > rows {
            let faulted = prev.assignment.server_for(0).expect("row 0 placed");
            if faulted != victim {
                delta = delta.disable_column(faulted);
            }
        }
        let patched = matrix.patched(&delta).expect("patched matrix");

        let inc = auction::solve_incremental(&patched, &mut cands, &prev, &delta, &cfg)
            .expect("incremental repair");
        assert_valid(&patched, &inc.assignment.pairs);
        prop_assert!(inc.certified, "repair must certify its gap");

        let exact = exact_total(&patched);
        let bound = cfg.eps * rows as f64 + 1e-9 * rows as f64;
        prop_assert!(
            inc.assignment.total >= exact - bound,
            "incremental {} below patched optimum {exact} by more than {bound}",
            inc.assignment.total,
        );
        let cold = cold_solve(&patched, &cfg);
        prop_assert!(
            (inc.assignment.total - cold.assignment.total).abs() <= 2.0 * bound,
            "incremental {} and cold {} disagree beyond 2·ε·rows",
            inc.assignment.total,
            cold.assignment.total
        );
    }
}

/// A matrix made of ties: values on an eighths grid with −0.0 beside +0.0
/// (the two sort as one value), and about a third of the columns exact
/// copies of an earlier one.
fn tied_matrix(rows: usize, cols: usize, rng: &mut StdRng) -> PerfMatrix {
    let mut values: Vec<Vec<f64>> = (0..rows).map(|_| tied_column(cols, rng)).collect();
    for col in 1..cols {
        if rng.gen_bool(0.3) {
            let twin = rng.gen_range(0..col);
            for row in &mut values {
                row[col] = row[twin];
            }
        }
    }
    PerfMatrix::new(
        (0..rows).map(|i| format!("be{i}")).collect(),
        (0..cols).map(|j| format!("lc{j}")).collect(),
        values,
    )
    .expect("tied matrix is well-formed")
}

/// `n` values on the eighths grid, zeros of both signs included.
fn tied_column(n: usize, rng: &mut StdRng) -> Vec<f64> {
    (0..n)
        .map(|_| match rng.gen_range(0..9u8) {
            8 => -0.0,
            x => f64::from(x) / 8.0,
        })
        .collect()
}

/// A dense certificate at `sol`'s prices: `π_i` is the first maximum of
/// `v_ij − p_j` over every enabled column. Unfloored, the bound is
/// `Σ_{enabled j} p_j + Σπ_i`; floored, unowned columns' prices read as
/// zero and the bound is `Σ_{owned j} p_j + Σπ_i`.
fn dense_bound(
    matrix: &PerfMatrix,
    sol: &AuctionSolution,
    floor: bool,
) -> (f64, Vec<(usize, usize)>) {
    let mut owned = vec![false; matrix.cols()];
    for &(_, col) in &sol.assignment.pairs {
        owned[col] = true;
    }
    let price = |col: usize| {
        if floor && !owned[col] {
            0.0
        } else {
            sol.prices[col]
        }
    };
    let enabled = |&col: &usize| !matrix.is_col_disabled(col);
    let mut ub: f64 = if floor {
        (0..matrix.cols()).filter(|&j| owned[j]).map(price).sum()
    } else {
        (0..matrix.cols()).filter(enabled).map(price).sum()
    };
    let mut violations = Vec::new();
    for &(row, own) in &sol.assignment.pairs {
        let (mut pi, mut pi_col) = (f64::NEG_INFINITY, 0);
        for col in (0..matrix.cols()).filter(enabled) {
            let profit = matrix.value(row, col) - price(col);
            if profit > pi {
                (pi, pi_col) = (profit, col);
            }
        }
        ub += pi;
        if pi - (matrix.value(row, own) - price(own)) > sol.eps {
            violations.push((row, pi_col));
        }
    }
    (ub, violations)
}

/// The certificate a solve certifies with, densely: the unfloored bound
/// when it is within the auction's tolerance (ε·rows plus rounding slack
/// `1e-9 · (1 + vmax) · rows`) of the total, else the floored one: its
/// bits and its violations.
fn dense_certificate(matrix: &PerfMatrix, sol: &AuctionSolution) -> (u64, Vec<(usize, usize)>) {
    let total: f64 = sol
        .assignment
        .pairs
        .iter()
        .map(|&(i, j)| matrix.value(i, j))
        .sum();
    let rows = matrix.rows() as f64;
    let tol = sol.eps * rows + 1e-9 * (1.0 + matrix.max_value()) * rows;
    let unfloored = dense_bound(matrix, sol, false);
    let (ub, violations) = if unfloored.0 - total <= tol {
        unfloored
    } else {
        dense_bound(matrix, sol, true)
    };
    (ub.to_bits(), violations)
}

/// A solution no solve produced: a random complete assignment over the
/// enabled columns, grid prices on every column (junk on the ones nobody
/// owns, which only the floored bound reads as zero) and an ε drawn from
/// 1/64 to 64, so either bound can be the one that certifies.
fn hostile_state(matrix: &PerfMatrix, rng: &mut StdRng) -> AuctionSolution {
    let mut enabled: Vec<usize> = (0..matrix.cols())
        .filter(|&j| !matrix.is_col_disabled(j))
        .collect();
    enabled.shuffle(rng);
    let pairs: Vec<(usize, usize)> = enabled
        .into_iter()
        .take(matrix.rows())
        .enumerate()
        .collect();
    let prices = tied_column(matrix.cols(), rng);
    AuctionSolution {
        assignment: pocolo_cluster::assign::Assignment::new(pairs, 0.0),
        prices,
        eps: [1.0 / 64.0, 0.25, 1.0, 64.0][rng.gen_range(0..4usize)],
        certified: false,
        stats: Default::default(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The walk against both dense bounds, bit for bit, whichever one
    /// certifies: on the solves' own states (a repair's prices as bid, a
    /// floored cold plan's) and on hostile ones.
    #[test]
    fn the_walk_certifies_like_the_dense_scan(
        rows in 1usize..=10,
        extra in 0usize..=12,
        k in 1usize..=4,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cols = rows + extra;
        let mut matrix = tied_matrix(rows, cols, &mut rng);
        let cfg = AuctionConfig::with_eps(1.0 / 64.0);
        let mut cands = SparseCandidates::build(&matrix, k);
        let mut sol = auction::solve_with_candidates(&matrix, &mut cands, &cfg)
            .expect("cold solve");
        let mut out: Vec<usize> = Vec::new();
        for step in 0..10 {
            for state in [sol.clone(), hostile_state(&matrix, &mut rng)] {
                let (ub, violations) = auction::certificate(&matrix, &mut cands, &state)
                    .expect("a complete assignment");
                prop_assert_eq!(
                    (ub.to_bits(), violations),
                    dense_certificate(&matrix, &state),
                    "step {}", step
                );
            }
            let enabled: Vec<usize> = (0..cols).filter(|&j| !matrix.is_col_disabled(j)).collect();
            let delta = match rng.gen_range(0..4) {
                // A fault, while a column is spare: often a row's host.
                0 if enabled.len() > rows => {
                    let col = if rng.gen_bool(0.5) {
                        sol.assignment.pairs[rng.gen_range(0..rows)].1
                    } else {
                        enabled[rng.gen_range(0..enabled.len())]
                    };
                    out.push(col);
                    MatrixDelta::new().disable_column(col)
                }
                // A restore of a faulted column.
                1 if !out.is_empty() => {
                    let col = out.swap_remove(rng.gen_range(0..out.len()));
                    MatrixDelta::new().set_column(col, tied_column(rows, &mut rng))
                }
                // A fleet-wide rebuild: every prefix loses every member.
                2 => enabled.iter().fold(MatrixDelta::new(), |d, &col| {
                    d.set_column(col, tied_column(rows, &mut rng))
                }),
                // An edit: a fresh column, or a copy of another one.
                _ => {
                    let col = enabled[rng.gen_range(0..enabled.len())];
                    let twin = rng.gen_range(0..cols);
                    let values = if rng.gen_bool(0.5) {
                        matrix.col_iter(twin).collect()
                    } else {
                        tied_column(rows, &mut rng)
                    };
                    MatrixDelta::new().set_column(col, values)
                }
            };
            matrix = matrix.patched(&delta).expect("delta in range");
            sol = auction::solve_incremental(&matrix, &mut cands, &sol, &delta, &cfg)
                .expect("repair");
        }
    }
}

/// The dual gap as the benchmark's optimality check computes it: the
/// unfloored dual bound at the solution's prices, over enabled columns,
/// minus the placement's value.
fn dual_gap(matrix: &PerfMatrix, sol: &AuctionSolution) -> f64 {
    let enabled: Vec<usize> = (0..matrix.cols())
        .filter(|&j| !matrix.is_col_disabled(j))
        .collect();
    let price_sum: f64 = enabled.iter().map(|&j| sol.prices[j]).sum();
    let profit_sum: f64 = (0..matrix.rows())
        .map(|i| {
            enabled
                .iter()
                .map(|&j| matrix.value(i, j) - sol.prices[j])
                .fold(f64::NEG_INFINITY, f64::max)
        })
        .sum();
    price_sum + profit_sum - sol.assignment.total
}

/// The pairs of `prev` a repair must drop: those on a dirtied column, and
/// those a dirtied column on the row's updated list (`after`) beats by
/// more than ε at `prev`'s prices.
fn dropped_pairs(
    matrix: &PerfMatrix,
    prev: &AuctionSolution,
    after: &SparseCandidates,
    delta: &MatrixDelta,
) -> usize {
    let dirty = |j: usize| delta.dirty_cols().any(|d| d == j);
    let p = &prev.prices;
    let dropped = |&&(row, col): &&(usize, usize)| {
        let own = matrix.value(row, col) - p[col];
        dirty(col)
            || after
                .row(row)
                .any(|(j, v)| dirty(j) && (v - p[j]) - own > prev.eps)
    };
    prev.assignment.pairs.iter().filter(dropped).count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// 96 seeded sequences of 12 repairs on tied matrices — a fault, a
    /// restore of a faulted column, a refit (one enabled column's values
    /// redrawn) or every enabled column × 0.8 — and after each: the
    /// benchmark's dense dual gap within ε·rows, `certified`, and
    /// `dirty_rows` the pairs the keep rule drops.
    #[test]
    fn repairs_keep_what_holds_and_certify_as_bid(
        rows in 1usize..=10,
        extra in 0usize..=12,
        k in 1usize..=4,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cols = rows + extra;
        let mut matrix = tied_matrix(rows, cols, &mut rng);
        let cfg = AuctionConfig::with_eps(1.0 / 64.0);
        let mut cands = SparseCandidates::build(&matrix, k);
        let mut sol = auction::solve_with_candidates(&matrix, &mut cands, &cfg)
            .expect("cold solve");
        let mut out: Vec<usize> = Vec::new();
        for step in 0..12 {
            let enabled: Vec<usize> = (0..cols).filter(|&j| !matrix.is_col_disabled(j)).collect();
            let delta = match rng.gen_range(0..4) {
                0 if enabled.len() > rows => {
                    let col = if rng.gen_bool(0.5) {
                        sol.assignment.pairs[rng.gen_range(0..rows)].1
                    } else {
                        enabled[rng.gen_range(0..enabled.len())]
                    };
                    out.push(col);
                    MatrixDelta::new().disable_column(col)
                }
                1 if !out.is_empty() => {
                    let col = out.swap_remove(rng.gen_range(0..out.len()));
                    MatrixDelta::new().set_column(col, tied_column(rows, &mut rng))
                }
                2 => enabled.iter().fold(MatrixDelta::new(), |d, &col| {
                    d.set_column(col, matrix.col_iter(col).map(|v| v * 0.8).collect())
                }),
                _ => {
                    let col = enabled[rng.gen_range(0..enabled.len())];
                    MatrixDelta::new().set_column(col, tied_column(rows, &mut rng))
                }
            };
            let patched = matrix.patched(&delta).expect("delta in range");
            let mut applied = cands.clone();
            applied.apply_delta(&patched, &delta);
            let dropped = dropped_pairs(&patched, &sol, &applied, &delta);
            matrix = patched;
            sol = auction::solve_incremental(&matrix, &mut cands, &sol, &delta, &cfg)
                .expect("repair");
            prop_assert!(sol.certified, "step {}: repair must certify", step);
            let gap = dual_gap(&matrix, &sol);
            let bound = cfg.eps * rows as f64 + 1e-9;
            prop_assert!(gap <= bound, "step {}: dual gap {} over {}", step, gap, bound);
            prop_assert_eq!(sol.stats.dirty_rows, dropped, "step {}", step);
        }
    }
}

/// A row's top `k` enabled columns as `(col, value bits)`: a dense sort by
/// value descending (−0.0 equal to +0.0), ties by column ascending.
fn dense_top(matrix: &PerfMatrix, row: usize, k: usize) -> Vec<(usize, u64)> {
    let mut cols: Vec<usize> = (0..matrix.cols())
        .filter(|&j| !matrix.is_col_disabled(j))
        .collect();
    cols.sort_by(|&a, &b| {
        let (va, vb) = (matrix.value(row, a), matrix.value(row, b));
        vb.partial_cmp(&va).expect("finite values").then(a.cmp(&b))
    });
    cols.truncate(k);
    cols.into_iter()
        .map(|j| (j, matrix.value(row, j).to_bits()))
        .collect()
}

/// What the lists must be: the candidate width and each row's splices,
/// descending by value, outside its top k.
struct ListModel {
    k: usize,
    depth: usize,
    spliced: Vec<Vec<(usize, f64)>>,
}

impl ListModel {
    fn new(matrix: &PerfMatrix, k: usize) -> Self {
        let k = k.min(matrix.cols());
        ListModel {
            k,
            depth: (matrix.rows() + 1).max(k).min(matrix.cols()),
            spliced: vec![Vec::new(); matrix.rows()],
        }
    }

    fn top(&self, matrix: &PerfMatrix, row: usize) -> Vec<(usize, u64)> {
        dense_top(matrix, row, self.k)
    }

    fn widen(&mut self, new_k: usize) {
        if new_k > self.k {
            self.k = new_k;
            self.depth = self.depth.max(new_k);
            self.spliced.iter_mut().for_each(Vec::clear);
        }
    }

    fn ensure(&mut self, matrix: &PerfMatrix, row: usize, col: usize) {
        let listed = self.top(matrix, row).iter().any(|&(j, _)| j == col)
            || self.spliced[row].iter().any(|&(j, _)| j == col);
        if !listed {
            let value = matrix.value(row, col);
            let at = self.spliced[row].partition_point(|&(_, v)| v >= value);
            self.spliced[row].insert(at, (col, value));
        }
    }

    /// `matrix` already patched with `delta`.
    fn apply(&mut self, matrix: &PerfMatrix, delta: &MatrixDelta) {
        for row in 0..self.spliced.len() {
            let top = self.top(matrix, row);
            let spliced = &mut self.spliced[row];
            spliced.retain(|&(j, _)| !matrix.is_col_disabled(j) && top.iter().all(|t| t.0 != j));
            for (j, v) in spliced.iter_mut() {
                if delta.dirty_cols().any(|d| d == *j) {
                    *v = matrix.value(row, *j);
                }
            }
            spliced.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite values"));
        }
    }

    /// A solve may splice edges in or widen: adopt what it left after
    /// checking that the top k is exact and the rest are valid splices.
    fn adopt(&mut self, matrix: &PerfMatrix, cands: &SparseCandidates) {
        self.widen(cands.k());
        for row in 0..matrix.rows() {
            let list: Vec<(usize, f64)> = cands.row(row).collect();
            let top = self.top(matrix, row);
            let (head, rest) = list.split_at(top.len().min(list.len()));
            let head: Vec<(usize, u64)> = head.iter().map(|&(j, v)| (j, v.to_bits())).collect();
            assert_eq!(head, top, "row {row}: the top k after a solve");
            for (i, &(j, v)) in rest.iter().enumerate() {
                assert!(
                    top.iter().all(|t| t.0 != j),
                    "row {row}: splice {j} in the top k"
                );
                assert!(
                    rest[..i].iter().all(|&(o, _)| o != j),
                    "row {row}: splice {j} twice"
                );
                assert_eq!(v.to_bits(), matrix.value(row, j).to_bits());
            }
            assert!(
                rest.windows(2).all(|w| w[0].1 >= w[1].1),
                "row {row}: splice order"
            );
            self.spliced[row] = rest.to_vec();
        }
    }

    fn check(&self, matrix: &PerfMatrix, cands: &SparseCandidates, what: &str) {
        assert_eq!(cands.k(), self.k, "{what}");
        for row in 0..matrix.rows() {
            let got: Vec<(usize, u64)> = cands.row(row).map(|(j, v)| (j, v.to_bits())).collect();
            assert!(
                got.iter().all(|&(j, _)| !matrix.is_col_disabled(j)),
                "{what}: disabled"
            );
            let mut want = self.top(matrix, row);
            want.extend(self.spliced[row].iter().map(|&(j, v)| (j, v.to_bits())));
            assert_eq!(got, want, "{what}: row {row}");
            assert_eq!(cands.row_len(row), want.len(), "{what}: row {row} length");
        }
    }
}

/// One step of the list property's delta mix: a fault, a restore of a
/// faulted column, a tied-column edit, or every enabled column × 0.8.
fn list_delta(matrix: &PerfMatrix, out: &mut Vec<usize>, rng: &mut StdRng) -> MatrixDelta {
    let (rows, cols) = (matrix.rows(), matrix.cols());
    let enabled: Vec<usize> = (0..cols).filter(|&j| !matrix.is_col_disabled(j)).collect();
    match rng.gen_range(0..4) {
        0 if enabled.len() > rows => {
            let col = enabled[rng.gen_range(0..enabled.len())];
            out.push(col);
            MatrixDelta::new().disable_column(col)
        }
        1 if !out.is_empty() => {
            let col = out.swap_remove(rng.gen_range(0..out.len()));
            MatrixDelta::new().set_column(col, tied_column(rows, rng))
        }
        2 => enabled.iter().fold(MatrixDelta::new(), |d, &col| {
            d.set_column(col, matrix.col_iter(col).map(|v| v * 0.8).collect())
        }),
        _ => {
            let col = enabled[rng.gen_range(0..enabled.len())];
            let twin = rng.gen_range(0..cols);
            let values = if rng.gen_bool(0.5) {
                matrix.col_iter(twin).collect()
            } else {
                tied_column(rows, rng)
            };
            MatrixDelta::new().set_column(col, values)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// 96 seeded sequences of 12 steps (a widening within the orders'
    /// depth or past it, a burst of splices, or a delta applied to a copy
    /// of the lists and then repaired through), each list checked against
    /// the dense sort after every step.
    #[test]
    fn lists_are_order_prefixes_plus_splices(
        rows in 1usize..=8,
        extra in 0usize..=12,
        k in 1usize..=4,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cols = rows + extra;
        let mut matrix = tied_matrix(rows, cols, &mut rng);
        let cfg = AuctionConfig::with_eps(1.0 / 64.0);
        let mut cands = SparseCandidates::build(&matrix, k);
        let mut model = ListModel::new(&matrix, k);
        model.check(&matrix, &cands, "build");
        let mut sol = auction::solve_with_candidates(&matrix, &mut cands, &cfg)
            .expect("cold solve");
        prop_assert!(sol.certified, "cold solve must certify");
        model.adopt(&matrix, &cands);
        let mut out: Vec<usize> = Vec::new();
        for step in 0..12 {
            let what = format!("step {step}");
            match rng.gen_range(0..3) {
                0 if model.k < cols => {
                    let new_k = if model.k < model.depth && rng.gen_bool(0.5) {
                        rng.gen_range(model.k + 1..=model.depth)
                    } else {
                        rng.gen_range(model.k + 1..=cols)
                    };
                    cands.widen(&matrix, new_k);
                    model.widen(new_k);
                }
                1 => {
                    for _ in 0..rng.gen_range(1..=4) {
                        let row = rng.gen_range(0..rows);
                        let col = rng.gen_range(0..cols);
                        if !matrix.is_col_disabled(col) {
                            cands.ensure_edge(row, col, matrix.value(row, col));
                            model.ensure(&matrix, row, col);
                        }
                    }
                }
                _ => {
                    let delta = list_delta(&matrix, &mut out, &mut rng);
                    let patched = matrix.patched(&delta).expect("delta in range");
                    let mut applied = cands.clone();
                    let touched = applied.apply_delta(&patched, &delta);
                    model.apply(&patched, &delta);
                    model.check(&patched, &applied, &format!("{what} delta"));
                    for row in (0..rows).filter(|r| touched.binary_search(r).is_err()) {
                        let before: Vec<(usize, f64)> = cands.row(row).collect();
                        let after: Vec<(usize, f64)> = applied.row(row).collect();
                        prop_assert_eq!(before, after, "{}: untouched row {} moved", what, row);
                    }
                    matrix = patched;
                    sol = auction::solve_incremental(&matrix, &mut cands, &sol, &delta, &cfg)
                        .expect("repair");
                    prop_assert!(sol.certified, "{}: repair must certify", what);
                    model.adopt(&matrix, &cands);
                }
            }
            model.check(&matrix, &cands, &what);
        }
    }
}
