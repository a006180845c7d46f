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

use pocolo_cluster::assign::auction::{self, AuctionConfig};
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
