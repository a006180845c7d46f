//! Forward-auction assignment with ε-scaling over sparse candidate lists.
//!
//! The dense exact solvers (Hungarian, simplex LP) re-solve from scratch
//! and touch every matrix entry; at fleet scale (10k servers × 500 BE
//! apps) that is the replan-loop bottleneck the ROADMAP calls out. The
//! auction algorithm (Bertsekas-style) instead lets each unassigned BE row
//! *bid* for its most profitable server — profit = value − price — raising
//! that server's price by the bid increment plus ε. At termination the
//! assignment satisfies ε-complementary slackness, which bounds the gap to
//! the true optimum by ε per row.
//!
//! Two properties make it the scale path, and it has one entry for each
//! use: [`solve_with_candidates`] for a cold plan, [`solve_incremental`]
//! for its repairs.
//!
//! * **Sparsity.** Bids scan only the row's [`SparseCandidates`] list
//!   (~k ≈ log₂(cols) + 8 edges), not the dense row: the first k entries
//!   of the certificate order below, then the row's splices.
//!   Certification (below) restores exactness when pruning cut too deep.
//! * **Incremental repair.** Prices are a dual solution.
//!   [`solve_incremental`] keeps every pair whose column the
//!   [`MatrixDelta`] did not dirty and re-bids only the dirtied rows from
//!   the previous prices, so its work is O(k · dirtied rows) — counted, not
//!   timed, so CI can assert the bound without wall-clock flakiness.
//!
//! **Certification.** Prices give a feasible dual: with unassigned-column
//! prices read as zero, `π_i = max_j (v_ij − p_j)` over *all* enabled
//! columns makes `Σπ_i + Σ_{assigned j} p_j` an upper bound on the
//! optimum. No dense row is scanned for it: each row walks its
//! certificate order ([`SparseCandidates`]) to the first column nobody
//! owns, whose price is zero, and no column past it can do better — at
//! most `rows + 1` entries a row instead of every column. If the bound
//! exceeds the auction total by more than ε·rows,
//! the violating rows' best off-list edges are spliced into their
//! candidate lists ([`SparseCandidates::ensure_edge`]) and those rows
//! re-bid — the exactness escape hatch. A price crossing the feasibility
//! ceiling means the pruned graph has no perfect matching (e.g. k columns
//! shared by k+1 rows): the engine widens k and restarts; a k past the
//! order's depth deepens the order with it.

use std::collections::VecDeque;

use crate::assign::sparse::SparseCandidates;
use crate::assign::Assignment;
use crate::error::ClusterError;
use crate::matrix::{MatrixDelta, PerfMatrix};

/// Default ε: with paper-scale throughputs (≈0..1) this keeps the
/// per-row optimality loss three orders of magnitude below the signal.
pub const DEFAULT_EPS: f64 = 1e-3;

/// ε-scaling factor: each phase divides ε by `THETA` until the final ε.
/// Larger factors mean fewer phases but more bids per phase.
const THETA: f64 = 4.0;

// The scaling schedule terminates only if every phase shrinks ε.
const _: () = assert!(THETA > 1.0);

/// Certification repair rounds before the full-width fallback. Each round
/// splices the violating rows' best off-list edges in and re-bids them.
const MAX_WIDEN: usize = 16;

/// Tuning knobs for the auction engine. Every solve certifies its gap
/// with the dual bound (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct AuctionConfig {
    /// Final ε: the per-row optimality tolerance.
    pub eps: f64,
}

impl Default for AuctionConfig {
    fn default() -> Self {
        AuctionConfig::with_eps(DEFAULT_EPS)
    }
}

impl AuctionConfig {
    /// The default configuration with a custom ε.
    pub fn with_eps(eps: f64) -> Self {
        AuctionConfig { eps }
    }
}

/// Operation counters — the timing-independent evidence for the scale
/// claims (mirrors the PR 1 `min_power_solves_on_thread` pattern).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AuctionStats {
    /// Bid operations (one row picking its best candidate).
    pub bids: u64,
    /// Candidate edges scanned while bidding — the headline counter the
    /// incremental O(k · dirtied rows) bound is asserted against.
    pub bid_edges: u64,
    /// Edges certification looked at: certificate-order entries walked,
    /// plus every enabled column of a row whose walk ran out and fell
    /// back to the dense row scan.
    pub cert_edges: u64,
    /// ε-scaling phases run.
    pub phases: u32,
    /// Candidate-list widenings (certification splices + restarts).
    pub widen_rounds: u32,
    /// Rows the last incremental repair had to re-bid.
    pub dirty_rows: usize,
}

/// An auction result: the assignment plus the dual state needed to
/// warm-start the next replan.
#[derive(Debug, Clone, PartialEq)]
pub struct AuctionSolution {
    /// The placement, pairs sorted by row.
    pub assignment: Assignment,
    /// Final column prices — the warm-start state.
    pub prices: Vec<f64>,
    /// The ε the solution satisfies ε-complementary slackness for.
    pub eps: f64,
    /// Whether the dual bound certified `total ≥ optimum − eps·rows`.
    pub certified: bool,
    /// Operation counters.
    pub stats: AuctionStats,
}

/// Why a bidding phase stopped early.
enum Abort {
    /// A price crossed the feasibility ceiling: the sparse graph has no
    /// perfect matching — widen and restart.
    Ceiling,
    /// A row had no enabled candidates at all.
    Starved,
}

struct Engine<'a> {
    matrix: &'a PerfMatrix,
    cfg: &'a AuctionConfig,
    vmax: f64,
    ceiling: f64,
    prices: Vec<f64>,
    /// Column assigned to each row.
    assigned: Vec<Option<usize>>,
    /// Row owning each column.
    owner: Vec<Option<usize>>,
    queue: VecDeque<usize>,
    certified: bool,
    stats: AuctionStats,
}

impl<'a> Engine<'a> {
    fn new(matrix: &'a PerfMatrix, cfg: &'a AuctionConfig, prices: Vec<f64>) -> Self {
        let vmax = matrix.max_value();
        let rows = matrix.rows() as f64;
        let p0 = prices.iter().cloned().fold(0.0f64, f64::max);
        Engine {
            matrix,
            cfg,
            vmax,
            // Feasible-auction price bound: initial + (rows+1)(vmax + ε₀).
            ceiling: p0 + (rows + 1.0) * (vmax + vmax / 2.0 + cfg.eps) + 1.0,
            prices,
            assigned: vec![None; matrix.rows()],
            owner: vec![None; matrix.cols()],
            queue: VecDeque::new(),
            certified: false,
            stats: AuctionStats::default(),
        }
    }

    fn unassign(&mut self, row: usize) {
        if let Some(col) = self.assigned[row].take() {
            self.owner[col] = None;
            // A vacated column must not keep its stale price: certification
            // counts unassigned columns at zero, and re-bidding rows must
            // see the same number or the repair loop cannot converge.
            self.prices[col] = 0.0;
        }
        self.queue.push_back(row);
    }

    fn reset_assignment(&mut self) {
        self.assigned.fill(None);
        self.owner.fill(None);
        self.queue.clear();
        self.queue.extend(0..self.matrix.rows());
    }

    /// One Gauss-Seidel bidding phase at a fixed ε: drain the unassigned
    /// queue, each row bidding on its best candidate.
    fn bid_phase(&mut self, cands: &SparseCandidates, eps: f64) -> Result<(), Abort> {
        self.stats.phases += 1;
        while let Some(row) = self.queue.pop_front() {
            self.stats.bids += 1;
            self.stats.bid_edges += cands.row_len(row) as u64;
            let mut best = f64::NEG_INFINITY;
            let mut best_col = usize::MAX;
            let mut second = f64::NEG_INFINITY;
            // `for_each` runs the top-k prefix and the splices as two
            // plain loops; a `for` over the chain branches per edge.
            cands.row(row).for_each(|(col, value)| {
                let profit = value - self.prices[col];
                if profit > best {
                    second = best;
                    best = profit;
                    best_col = col;
                } else if profit > second {
                    second = profit;
                }
            });
            if best_col == usize::MAX {
                self.queue.push_front(row);
                return Err(Abort::Starved);
            }
            if second == f64::NEG_INFINITY {
                // Lone candidate: bid decisively.
                second = best - (self.vmax + eps);
            }
            let bid = self.prices[best_col] + (best - second) + eps;
            if bid > self.ceiling {
                self.queue.push_front(row);
                return Err(Abort::Ceiling);
            }
            if let Some(evicted) = self.owner[best_col].replace(row) {
                self.assigned[evicted] = None;
                self.queue.push_back(evicted);
            }
            self.assigned[row] = Some(best_col);
            self.prices[best_col] = bid;
        }
        Ok(())
    }

    /// The full ε-scaling schedule: phases at ε = vmax/2, vmax/2θ, …
    /// down to the configured final ε, keeping prices across phases.
    fn run_scaled(&mut self, cands: &SparseCandidates) -> Result<(), Abort> {
        let mut eps = self.vmax / 2.0;
        while eps > self.cfg.eps {
            self.reset_assignment();
            self.bid_phase(cands, eps)?;
            eps /= THETA;
        }
        self.reset_assignment();
        self.bid_phase(cands, self.cfg.eps)
    }

    /// Pruning infeasibility: double the candidate width, reset the dual
    /// state (aborted runs leave inflated prices), and report whether a
    /// retry makes sense.
    fn widen_restart(&mut self, cands: &mut SparseCandidates) -> Result<(), ClusterError> {
        if cands.k() >= self.matrix.cols() {
            return Err(ClusterError::Infeasible);
        }
        self.stats.widen_rounds += 1;
        cands.widen(self.matrix, cands.k() * 2);
        self.prices.fill(0.0);
        let rows = self.matrix.rows() as f64;
        self.ceiling = (rows + 1.0) * (self.vmax + self.vmax / 2.0 + self.cfg.eps) + 1.0;
        Ok(())
    }

    /// Cold/restartable solve: scaled schedule, widening on infeasibility.
    fn run_to_completion(&mut self, cands: &mut SparseCandidates) -> Result<(), ClusterError> {
        loop {
            match self.run_scaled(cands) {
                Ok(()) => return Ok(()),
                Err(_) => self.widen_restart(cands)?,
            }
        }
    }

    /// Floors unassigned columns' prices to zero. ε-scaling phases and
    /// repair re-bids leave stale inflated prices on columns nobody owns;
    /// bidding would keep avoiding them while the dual bound counts them
    /// at zero, so the two views must be reconciled before certifying.
    fn floor_unassigned_prices(&mut self) {
        for (col, owner) in self.owner.iter().enumerate() {
            if owner.is_none() {
                self.prices[col] = 0.0;
            }
        }
    }

    /// Dual certificate: after flooring unassigned-column prices,
    /// computes `π_i = max_j (v_ij − p_j)` over all enabled columns.
    /// Returns the dual upper bound and, per row with slack > ε, its best
    /// column (the first maximum in column order).
    ///
    /// Each row walks its certificate order ([`SparseCandidates`]) up to
    /// its first unowned column F. Every price is ≥ 0 and `p_F` is 0.0,
    /// so no column after F can beat `v_F − p_F`: the walk's maximum is
    /// the dense one, bit for bit. A row whose prefix runs out first
    /// takes the dense row scan and has its prefix rebuilt.
    fn certify_scan(&mut self, cands: &mut SparseCandidates) -> (f64, Vec<(usize, usize)>) {
        #[cfg(test)]
        let dense = tests::DENSE_SCAN.with(std::cell::Cell::get);
        #[cfg(not(test))]
        let dense = false;
        self.floor_unassigned_prices();
        debug_assert!(self.prices.iter().all(|&p| p >= 0.0), "a negative price");
        let owned = self
            .owner
            .iter()
            .zip(&self.prices)
            .filter(|(o, _)| o.is_some());
        let mut ub: f64 = owned.map(|(_, &p)| p).sum();
        let mut violations = Vec::new();
        let mut scratch = Vec::new();
        for row in 0..self.matrix.rows() {
            let (cols, vals) = cands.order.row(row);
            let walked = if dense { None } else { self.walk(cols, vals) };
            let (pi, pi_col) = walked.unwrap_or_else(|| {
                cands.order.rebuild(self.matrix, row, &mut scratch);
                self.dense_row(row)
            });
            ub += pi;
            let own_col = self.assigned[row].expect("certify runs on a complete assignment");
            if pi - (self.matrix.value(row, own_col) - self.prices[own_col]) > self.cfg.eps {
                violations.push((row, pi_col));
            }
        }
        (ub, violations)
    }

    /// `(π, first arg-max)` over a certificate order walked up to and
    /// including its first unowned column; `None` if it runs out first.
    /// Ties go to the smaller column, as in the dense scan: a column after
    /// F that ties sorts after F, so it has a larger index.
    fn walk(&mut self, cols: &[u32], vals: &[f64]) -> Option<(f64, usize)> {
        let (mut pi, mut pi_col) = (f64::NEG_INFINITY, usize::MAX);
        for (walked, (&col, &v)) in (1..).zip(cols.iter().zip(vals)) {
            let col = col as usize;
            let profit = v - self.prices[col];
            if profit > pi || (profit == pi && col < pi_col) {
                (pi, pi_col) = (profit, col);
            }
            if self.owner[col].is_none() {
                self.stats.cert_edges += walked;
                return Some((pi, pi_col));
            }
        }
        self.stats.cert_edges += cols.len() as u64;
        None
    }

    /// The dense row scan: `(π, first arg-max)` over every enabled column.
    fn dense_row(&mut self, row: usize) -> (f64, usize) {
        let (mut pi, mut pi_col) = (f64::NEG_INFINITY, 0);
        for (col, &v) in self.matrix.row(row).iter().enumerate() {
            if !self.matrix.is_col_disabled(col) {
                self.stats.cert_edges += 1;
                let profit = v - self.prices[col];
                if profit > pi {
                    (pi, pi_col) = (profit, col);
                }
            }
        }
        (pi, pi_col)
    }

    fn total(&self) -> f64 {
        self.assigned
            .iter()
            .enumerate()
            .map(|(row, col)| self.matrix.value(row, col.expect("complete assignment")))
            .sum()
    }

    /// Certification/repair: bound the gap; splice violating off-list
    /// edges in and re-bid their rows; after `MAX_WIDEN` rounds fall back
    /// to full-width lists (where ε-CS alone certifies).
    fn certify_repair(&mut self, cands: &mut SparseCandidates) -> Result<(), ClusterError> {
        let rows = self.matrix.rows() as f64;
        let tol = self.cfg.eps * rows + 1e-9 * (1.0 + self.vmax) * rows;
        for round in 0..=MAX_WIDEN {
            let (ub, violations) = self.certify_scan(cands);
            if ub - self.total() <= tol {
                self.certified = true;
                return Ok(());
            }
            if round == MAX_WIDEN {
                break;
            }
            self.stats.widen_rounds += 1;
            for &(row, col) in &violations {
                cands.ensure_edge(row, col, self.matrix.value(row, col));
                self.unassign(row);
            }
            if self.bid_phase(cands, self.cfg.eps).is_err() {
                self.widen_restart(cands)?;
                self.run_to_completion(cands)?;
            }
        }
        // Escape hatch of last resort: full-width lists and zero prices.
        // From an empty assignment with zero prices, a column bid on stays
        // owned for the rest of the phase, so unassigned columns end at
        // price zero and ε-CS over all columns certifies by construction.
        cands.widen(self.matrix, self.matrix.cols());
        self.stats.widen_rounds += 1;
        self.prices.fill(0.0);
        self.reset_assignment();
        if self.bid_phase(cands, self.cfg.eps).is_err() {
            return Err(ClusterError::Infeasible);
        }
        let (ub, _) = self.certify_scan(cands);
        self.certified = ub - self.total() <= tol;
        Ok(())
    }

    fn into_solution(mut self) -> AuctionSolution {
        // Stored prices warm-start the next replan; stale prices on
        // unowned columns would poison it the same way they poison
        // certification.
        self.floor_unassigned_prices();
        let pairs: Vec<(usize, usize)> = self
            .assigned
            .iter()
            .enumerate()
            .map(|(row, col)| (row, col.expect("complete assignment")))
            .collect();
        let total = self.matrix.assignment_value(&pairs);
        AuctionSolution {
            assignment: Assignment::new(pairs, total),
            prices: self.prices,
            eps: self.cfg.eps,
            certified: self.certified,
            stats: self.stats,
        }
    }
}

fn validate(
    matrix: &PerfMatrix,
    cands: &SparseCandidates,
    cfg: &AuctionConfig,
) -> Result<(), ClusterError> {
    if cands.shape() != (matrix.rows(), matrix.cols()) {
        let (rows, cols) = cands.shape();
        return Err(ClusterError::InvalidMatrix(format!(
            "candidate lists built for {rows}x{cols}, matrix is {}x{}",
            matrix.rows(),
            matrix.cols()
        )));
    }
    if !cfg.eps.is_finite() || cfg.eps <= 0.0 {
        return Err(ClusterError::InvalidMatrix(format!(
            "auction eps {} must be finite and positive",
            cfg.eps
        )));
    }
    if matrix.rows() > matrix.enabled_cols() {
        return Err(ClusterError::TooManyApps {
            apps: matrix.rows(),
            servers: matrix.enabled_cols(),
        });
    }
    Ok(())
}

/// Cold solve over caller-owned candidate lists: the full ε-scaling
/// schedule from zero prices. The caller keeps the lists for later
/// [`solve_incremental`] repairs.
///
/// # Errors
///
/// [`ClusterError::TooManyApps`] when rows exceed enabled columns,
/// [`ClusterError::InvalidMatrix`] for a bad ε or when `cands` was built
/// over a matrix of another shape, and [`ClusterError::Infeasible`] if no
/// perfect matching exists even at full candidate width.
pub fn solve_with_candidates(
    matrix: &PerfMatrix,
    cands: &mut SparseCandidates,
    cfg: &AuctionConfig,
) -> Result<AuctionSolution, ClusterError> {
    validate(matrix, cands, cfg)?;
    let mut eng = Engine::new(matrix, cfg, vec![0.0; matrix.cols()]);
    eng.run_to_completion(cands)?;
    eng.certify_repair(cands)?;
    Ok(eng.into_solution())
}

/// Incremental repair: patches the candidate lists with `delta`, keeps
/// every pair of `prev` whose column the delta did not dirty, and re-bids
/// only the dirtied rows from the previous prices.
///
/// `matrix` must already be the patched matrix (`old.patched(delta)`, or
/// the plan's own matrix patched in place) and
/// `cands` the lists built against the *old* matrix — this function
/// brings them up to date. Work is O(k · dirtied rows) candidate edges
/// (plus certification); `stats.dirty_rows` and
/// `stats.bid_edges` report the actual counts.
///
/// # Errors
///
/// As [`solve_with_candidates`]; additionally
/// [`ClusterError::InvalidMatrix`] when `prev.prices` does not have one
/// entry per column, or a delta column or a pair of `prev` is out of
/// range. Every error leaves `cands` untouched.
pub fn solve_incremental(
    matrix: &PerfMatrix,
    cands: &mut SparseCandidates,
    prev: &AuctionSolution,
    delta: &MatrixDelta,
    cfg: &AuctionConfig,
) -> Result<AuctionSolution, ClusterError> {
    validate(matrix, cands, cfg)?;
    if prev.prices.len() != matrix.cols() {
        return Err(ClusterError::InvalidMatrix(format!(
            "{} previous prices for {} columns",
            prev.prices.len(),
            matrix.cols()
        )));
    }
    // The edits are sorted by column, so the last one is the largest.
    if let Some(&(col, _)) = delta
        .edits()
        .last()
        .filter(|(col, _)| *col >= matrix.cols())
    {
        return Err(ClusterError::InvalidMatrix(format!(
            "delta column {col} out of range ({} cols)",
            matrix.cols()
        )));
    }
    let pairs = &prev.assignment.pairs;
    if let Some(&(row, col)) = pairs
        .iter()
        .find(|&&(row, col)| row >= matrix.rows() || col >= matrix.cols())
    {
        return Err(ClusterError::InvalidMatrix(format!(
            "previous pair ({row}, {col}) out of range"
        )));
    }
    let touched = cands.apply_delta(matrix, delta);
    let mut dirty_col = vec![false; matrix.cols()];
    for col in delta.dirty_cols() {
        dirty_col[col] = true;
    }
    let mut eng = Engine::new(matrix, cfg, prev.prices.clone());
    for &(row, col) in pairs {
        if dirty_col[col] || touched.binary_search(&row).is_ok() {
            continue;
        }
        eng.assigned[row] = Some(col);
        eng.owner[col] = Some(row);
    }
    for row in 0..matrix.rows() {
        if eng.assigned[row].is_none() {
            eng.queue.push_back(row);
        }
    }
    eng.stats.dirty_rows = eng.queue.len();
    // Columns vacated by dropping pairs keep their certified prices: they
    // are the equilibrium dual, and re-bidding rows re-take them with an
    // O(ε) adjustment. Flooring them to zero here would force the auction
    // to rebuild each price from scratch in ε-sized increments — turning
    // an O(k · dirty rows) repair into thousands of bids. Columns that
    // were unassigned in `prev` already carry price zero
    // (`into_solution` floors them), so certification stays consistent.
    if eng.bid_phase(cands, cfg.eps).is_err() {
        eng.widen_restart(cands)?;
        eng.run_to_completion(cands)?;
    }
    eng.certify_repair(cands)?;
    Ok(eng.into_solution())
}

/// A finished solution's dual certificate, as its solve last computed it:
/// the upper bound and each row violating ε-CS with its best column.
/// `cands` are the lists the solve left behind over `matrix`.
///
/// # Errors
///
/// [`ClusterError::InvalidMatrix`] unless `cands` fit `matrix` and `sol`
/// holds a price ≥ 0 per column and an enabled, unshared column per row.
pub fn certificate(
    matrix: &PerfMatrix,
    cands: &mut SparseCandidates,
    sol: &AuctionSolution,
) -> Result<(f64, Vec<(usize, usize)>), ClusterError> {
    let cfg = AuctionConfig::with_eps(sol.eps);
    validate(matrix, cands, &cfg)?;
    let mut eng = Engine::new(matrix, &cfg, sol.prices.clone());
    let pairs = &sol.assignment.pairs;
    let placed = pairs.iter().enumerate().all(|(i, &(row, col))| {
        let free = col < matrix.cols() && !matrix.is_col_disabled(col);
        row == i && free && eng.owner[col].replace(row).is_none()
    });
    let priced = sol.prices.len() == matrix.cols() && sol.prices.iter().all(|&p| p >= 0.0);
    if !(placed && priced && pairs.len() == matrix.rows()) {
        return Err(ClusterError::InvalidMatrix(
            "not a complete priced assignment".into(),
        ));
    }
    for &(row, col) in pairs {
        eng.assigned[row] = Some(col);
    }
    Ok(eng.certify_scan(cands))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::assign::hungarian;
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

    /// A cold solve at the default candidate width.
    fn solve(m: &PerfMatrix, cfg: &AuctionConfig) -> Result<AuctionSolution, ClusterError> {
        let mut cands = SparseCandidates::build(m, SparseCandidates::default_k(m.cols()));
        solve_with_candidates(m, &mut cands, cfg)
    }

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> PerfMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        matrix(
            (0..rows)
                .map(|_| (0..cols).map(|_| rng.gen_range(0.0..1.0)).collect())
                .collect(),
        )
    }

    thread_local! {
        /// Makes `Engine::certify_scan` scan every row densely: the sweep
        /// as it was before the walk, kept as the oracle the walk must
        /// match.
        pub(super) static DENSE_SCAN: std::cell::Cell<bool> =
            const { std::cell::Cell::new(false) };
    }

    /// Runs `f` with every certification done by the dense oracle.
    pub(crate) fn with_dense_scan<T>(f: impl FnOnce() -> T) -> T {
        DENSE_SCAN.with(|s| s.set(true));
        let out = f();
        DENSE_SCAN.with(|s| s.set(false));
        out
    }

    /// A seeded matrix built to stress the walk: values on a coarse grid,
    /// every third column an exact copy of an earlier one (ties between
    /// columns, which the order breaks by column index).
    fn tied_matrix(rows: usize, cols: usize, seed: u64) -> PerfMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut values: Vec<Vec<f64>> = (0..rows)
            .map(|_| {
                (0..cols)
                    .map(|_| f64::from(rng.gen_range(0..16u32)) / 16.0)
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

    /// Pairs, total and price bits, `certified` and every counter but
    /// `cert_edges` match the oracle's; where some enabled column is
    /// spare, the walk also looked at fewer edges than the dense sweep.
    pub(crate) fn assert_same_solution(
        walk: &AuctionSolution,
        dense: &AuctionSolution,
        spare: bool,
        what: &str,
    ) {
        assert_eq!(walk.assignment.pairs, dense.assignment.pairs, "{what}");
        assert_eq!(
            walk.assignment.total.to_bits(),
            dense.assignment.total.to_bits(),
            "{what}"
        );
        let bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&walk.prices), bits(&dense.prices), "{what}");
        assert_eq!(walk.certified, dense.certified, "{what}");
        let uncounted = |s: &AuctionStats| AuctionStats {
            cert_edges: 0,
            ..*s
        };
        assert_eq!(uncounted(&walk.stats), uncounted(&dense.stats), "{what}");
        if spare {
            assert!(
                walk.stats.cert_edges < dense.stats.cert_edges,
                "{what}: walked {} edges, dense {}",
                walk.stats.cert_edges,
                dense.stats.cert_edges
            );
        }
    }

    #[test]
    fn the_walk_reproduces_the_dense_oracle() {
        // k = 2 prunes hard, so certification has violations to report
        // and splice; the default width covers the quiet path. The square
        // cases leave no column spare, so every walk runs out and falls
        // back to the dense row.
        let mut violations_seen = 0;
        let shapes = [
            (5, 9),
            (7, 16),
            (12, 23),
            (6, 31),
            (20, 45),
            (3, 8),
            (4, 4),
            (9, 9),
        ];
        for (i, &(rows, cols)) in shapes.iter().enumerate() {
            for k in [2, SparseCandidates::default_k(cols)] {
                let seed = 100 + i as u64;
                let base = tied_matrix(rows, cols, seed);
                // Two disabled columns (one of them the last) once there
                // is room to spare.
                let disable = MatrixDelta::new()
                    .disable_column(1)
                    .disable_column(cols - 1);
                let m = if cols >= rows + 2 {
                    base.patched(&disable).unwrap()
                } else {
                    base
                };
                let cfg = AuctionConfig::default();
                let what = format!("{rows}x{cols} k {k}");
                let mut cands = SparseCandidates::build(&m, k);
                let walk = solve_with_candidates(&m, &mut cands, &cfg).unwrap();
                let mut cands_dense = SparseCandidates::build(&m, k);
                let dense =
                    with_dense_scan(|| solve_with_candidates(&m, &mut cands_dense, &cfg)).unwrap();
                valid(&m, &walk);
                let spare = m.enabled_cols() > rows;
                assert_same_solution(&walk, &dense, spare, &format!("cold {what}"));
                violations_seen += walk.stats.widen_rounds;

                // A repair on top: the host of row 0 leaves, a tied column
                // changes.
                let host = walk.assignment.server_for(0).unwrap();
                let edited = (host + 3) % cols;
                let mut delta = MatrixDelta::new().disable_column(host);
                if !m.is_col_disabled(edited) {
                    delta = delta.set_column(edited, vec![0.5; rows]);
                }
                if m.enabled_cols() - 1 < rows {
                    continue;
                }
                let patched = m.patched(&delta).unwrap();
                let inc = solve_incremental(&patched, &mut cands, &walk, &delta, &cfg).unwrap();
                let inc_dense = with_dense_scan(|| {
                    solve_incremental(&patched, &mut cands_dense, &dense, &delta, &cfg)
                })
                .unwrap();
                valid(&patched, &inc);
                let spare = patched.enabled_cols() > rows;
                assert_same_solution(&inc, &inc_dense, spare, &format!("repair {what}"));
                violations_seen += inc.stats.widen_rounds;
            }
        }
        assert!(
            violations_seen > 0,
            "no case exercised the arg-max recovery"
        );
    }

    fn valid(matrix: &PerfMatrix, sol: &AuctionSolution) {
        assert_eq!(sol.assignment.pairs.len(), matrix.rows());
        let mut cols: Vec<usize> = sol.assignment.pairs.iter().map(|&(_, c)| c).collect();
        cols.sort_unstable();
        let n = cols.len();
        cols.dedup();
        assert_eq!(cols.len(), n, "one BE per server");
        assert!(cols.iter().all(|&c| !matrix.is_col_disabled(c)));
        let recomputed = matrix.assignment_value(&sol.assignment.pairs);
        assert!((sol.assignment.total - recomputed).abs() < 1e-9);
    }

    #[test]
    fn matches_exact_solver_within_eps_bound() {
        for seed in 0..10 {
            let m = random_matrix(12, 20, seed);
            let cfg = AuctionConfig::default();
            let sol = solve(&m, &cfg).unwrap();
            valid(&m, &sol);
            assert!(sol.certified, "seed {seed} not certified");
            let opt = hungarian::solve_max(&m);
            let bound = cfg.eps * m.rows() as f64 + 1e-9;
            assert!(
                sol.assignment.total >= opt.total - bound,
                "seed {seed}: auction {} vs optimum {} (bound {bound})",
                sol.assignment.total,
                opt.total
            );
        }
    }

    #[test]
    fn deterministic() {
        let m = random_matrix(10, 30, 7);
        let a = solve(&m, &AuctionConfig::default()).unwrap();
        let b = solve(&m, &AuctionConfig::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn incremental_repair_matches_cold_solve_and_is_bounded() {
        let m = random_matrix(40, 120, 11);
        let cfg = AuctionConfig::default();
        let mut cands = SparseCandidates::build(&m, SparseCandidates::default_k(m.cols()));
        let prev = solve_with_candidates(&m, &mut cands, &cfg).unwrap();
        // Fault the server hosting row 0.
        let faulted = prev.assignment.server_for(0).unwrap();
        let delta = MatrixDelta::new().disable_column(faulted);
        let patched = m.patched(&delta).unwrap();
        let inc = solve_incremental(&patched, &mut cands, &prev, &delta, &cfg).unwrap();
        valid(&patched, &inc);
        assert!(!inc.assignment.pairs.iter().any(|&(_, c)| c == faulted));
        // Quality: within the ε bound of a cold solve on the patched matrix.
        let cold = solve(&patched, &cfg).unwrap();
        let bound = 2.0 * cfg.eps * patched.rows() as f64 + 1e-9;
        assert!(
            inc.assignment.total >= cold.assignment.total - bound,
            "incremental {} vs cold {}",
            inc.assignment.total,
            cold.assignment.total
        );
        // Work bound: O(k · dirtied rows) edges, generous cascade slack.
        let k_eff = cands.k() + 8;
        let budget = (k_eff * inc.stats.dirty_rows.max(1) * 16) as u64;
        assert!(
            inc.stats.bid_edges <= budget,
            "incremental scanned {} edges, budget {budget} (dirty rows {})",
            inc.stats.bid_edges,
            inc.stats.dirty_rows
        );
        assert!(inc.stats.bid_edges < prev.stats.bid_edges / 2);
    }

    #[test]
    fn empty_delta_keeps_everything() {
        let m = random_matrix(15, 40, 5);
        let cfg = AuctionConfig::default();
        let mut cands = SparseCandidates::build(&m, SparseCandidates::default_k(m.cols()));
        let prev = solve_with_candidates(&m, &mut cands, &cfg).unwrap();
        let delta = MatrixDelta::new();
        let inc = solve_incremental(&m, &mut cands, &prev, &delta, &cfg).unwrap();
        assert_eq!(inc.stats.dirty_rows, 0);
        assert_eq!(inc.assignment.pairs, prev.assignment.pairs);
    }

    #[test]
    fn certification_widens_past_adversarial_pruning() {
        // k = 1 prunes everything but each row's favourite; with three
        // rows sharing a favourite, bidding alone cannot finish — the
        // engine must widen to find a perfect matching, and certification
        // must still bound the gap.
        let m = matrix(vec![
            vec![1.0, 0.9, 0.1, 0.1],
            vec![1.0, 0.1, 0.9, 0.1],
            vec![1.0, 0.1, 0.1, 0.9],
        ]);
        let cfg = AuctionConfig::default();
        let mut cands = SparseCandidates::build(&m, 1);
        let sol = solve_with_candidates(&m, &mut cands, &cfg).unwrap();
        valid(&m, &sol);
        assert!(sol.stats.widen_rounds > 0, "must have widened: {sol:?}");
        assert!(sol.certified);
        let opt = hungarian::solve_max(&m);
        assert!(sol.assignment.total >= opt.total - cfg.eps * 3.0 - 1e-9);
    }

    #[test]
    fn certification_splices_the_edge_top_k_pruned() {
        // Row 0's optimal host is column 3, its third choice: top-2 cuts
        // it. Rows 1 and 2 want columns 0 and 1, so only the dense dual
        // certificate can find the missing edge.
        let m = matrix(vec![
            vec![1.0, 0.99, 0.0, 0.98],
            vec![1.0, 0.5, 0.0, 0.0],
            vec![0.0, 1.0, 0.5, 0.0],
        ]);
        let mut cands = SparseCandidates::build(&m, 2);
        let listed = |c: &SparseCandidates| c.row(0).any(|(j, _)| j == 3);
        assert!(!listed(&cands), "top-2 prunes (0, 3)");
        let sol = solve_with_candidates(&m, &mut cands, &AuctionConfig::default()).unwrap();
        assert!(sol.certified);
        let opt = hungarian::solve_max(&m);
        assert_eq!(sol.assignment.pairs, vec![(0, 3), (1, 0), (2, 1)]);
        assert_eq!(sol.assignment.pairs, opt.pairs);
        assert!((sol.assignment.total - 2.98).abs() < 1e-12);
        assert_eq!(sol.stats.widen_rounds, 1);
        assert_eq!(cands.k(), 2, "a splice, not a k-doubling");
        assert!(listed(&cands));
    }

    #[test]
    fn lists_of_another_shape_are_an_error() {
        let built = random_matrix(3, 5, 1);
        let m = random_matrix(4, 6, 2);
        let mut cands = SparseCandidates::build(&built, 2);
        let before = cands.clone();
        let cfg = AuctionConfig::default();
        assert!(matches!(
            solve_with_candidates(&m, &mut cands, &cfg),
            Err(ClusterError::InvalidMatrix(_))
        ));
        let prev = solve(&m, &cfg).unwrap();
        assert!(matches!(
            solve_incremental(&m, &mut cands, &prev, &MatrixDelta::new(), &cfg),
            Err(ClusterError::InvalidMatrix(_))
        ));
        assert_eq!(cands, before);
    }

    #[test]
    fn out_of_range_delta_column_is_an_error() {
        let m = random_matrix(3, 5, 3);
        let cfg = AuctionConfig::default();
        let mut cands = SparseCandidates::build(&m, 2);
        let prev = solve_with_candidates(&m, &mut cands, &cfg).unwrap();
        let before = cands.clone();
        let delta = MatrixDelta::new().disable_column(9);
        assert!(matches!(
            solve_incremental(&m, &mut cands, &prev, &delta, &cfg),
            Err(ClusterError::InvalidMatrix(_))
        ));
        assert_eq!(cands, before);
    }

    #[test]
    fn too_many_rows_for_enabled_columns() {
        let m = matrix(vec![vec![0.4, 0.5], vec![0.6, 0.7]]);
        let dead = m.patched(&MatrixDelta::new().disable_column(0)).unwrap();
        assert!(matches!(
            solve(&dead, &AuctionConfig::default()),
            Err(ClusterError::TooManyApps {
                apps: 2,
                servers: 1
            })
        ));
    }

    #[test]
    fn bad_config_rejected() {
        let m = matrix(vec![vec![0.5]]);
        assert!(solve(&m, &AuctionConfig::with_eps(0.0)).is_err());
        assert!(solve(&m, &AuctionConfig::with_eps(f64::NAN)).is_err());
    }

    #[test]
    fn disabled_columns_are_never_assigned() {
        let m = random_matrix(6, 12, 9);
        let delta = MatrixDelta::new()
            .disable_column(2)
            .disable_column(7)
            .disable_column(11);
        let p = m.patched(&delta).unwrap();
        let sol = solve(&p, &AuctionConfig::default()).unwrap();
        valid(&p, &sol);
    }
}
