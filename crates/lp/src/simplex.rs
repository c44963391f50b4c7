//! Two-phase primal simplex on a dense tableau.

use crate::problem::{ConstraintOp, LpProblem, Sense};
use crate::{LpError, Result};

/// Termination status of an LP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// An optimal basic feasible solution was found.
    Optimal,
    /// The constraint set is infeasible.
    Infeasible,
    /// The objective is unbounded in the optimization direction.
    Unbounded,
}

/// Result of an LP solve.
#[derive(Debug, Clone)]
pub struct LpSolution {
    /// Termination status.
    pub status: LpStatus,
    /// Optimal objective value in the *original* sense (only meaningful when
    /// `status == Optimal`).
    pub objective: f64,
    /// Values of the structural variables (only meaningful when
    /// `status == Optimal`).
    pub x: Vec<f64>,
    /// Total number of simplex pivots performed across both phases.
    pub iterations: usize,
}

/// Which algorithm [`LpProblem::solve_with`](crate::LpProblem::solve_with)
/// dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimplexEngine {
    /// Revised simplex over a sparse CSC matrix with an LU-factored basis
    /// (see [`crate::revised`]). The default.
    #[default]
    Revised,
    /// The original two-phase dense tableau, kept as a test oracle and for
    /// debugging numerical discrepancies; nothing falls back to it.
    DenseTableau,
}

/// Options controlling the simplex iterations.
#[derive(Debug, Clone, Copy)]
pub struct SimplexOptions {
    /// Numerical tolerance for reduced costs, pivots and feasibility.
    pub tolerance: f64,
    /// Maximum number of pivots across both phases.
    pub max_iterations: usize,
    /// Number of non-improving pivots after which the pricing rule switches
    /// from Dantzig (most negative reduced cost) to Bland (smallest index),
    /// which guarantees termination in the presence of degeneracy.
    pub stall_threshold: usize,
    /// Which engine solves the problem.
    pub engine: SimplexEngine,
    /// Base salt of the revised engine's deterministic anti-degeneracy
    /// RHS-perturbation draw. Every solve under a fixed salt is exactly
    /// reproducible (the engine re-draws by bumping the salt at degenerate
    /// dead ends, deterministically). Ensemble drivers that want distinct
    /// perturbation streams per scenario must derive this from the **job
    /// index**, never from a worker id or thread id — a schedule-dependent
    /// salt would make results depend on the worker count.
    pub perturbation_salt: u64,
    /// Cooperative solve budget checked inside the pivot loops of both
    /// engines. The default ([`mapqn_linalg::EngineBudget::none`]) imposes
    /// nothing; front doors in `mapqn-core` anchor a
    /// [`mapqn_linalg::SolveBudget`] here at solve entry.
    pub budget: mapqn_linalg::EngineBudget,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        Self {
            // The bound LPs of mapqn-core are heavily degenerate (many
            // probability terms sit at zero in the optimal basis); a
            // tolerance that is too strict makes the solver chase 1e-9-level
            // reduced-cost noise for a long time without changing the optimum
            // in any meaningful digit.
            tolerance: 1e-7,
            max_iterations: 500_000,
            stall_threshold: 50,
            engine: SimplexEngine::default(),
            perturbation_salt: 0,
            budget: mapqn_linalg::EngineBudget::none(),
        }
    }
}

/// Dense simplex tableau.
///
/// Layout: `m` constraint rows followed by one objective row; each row has
/// `total_cols` coefficient entries followed by the right-hand side. The
/// objective row stores reduced costs and, in its rhs cell, minus the current
/// objective value.
struct Tableau {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
    /// Index of the basic variable of each constraint row.
    basis: Vec<usize>,
}

impl Tableau {
    #[inline]
    fn at(&self, r: usize, c: usize) -> f64 {
        self.data[r * (self.cols + 1) + c]
    }

    #[inline]
    fn at_mut(&mut self, r: usize, c: usize) -> &mut f64 {
        &mut self.data[r * (self.cols + 1) + c]
    }

    #[inline]
    fn rhs(&self, r: usize) -> f64 {
        self.at(r, self.cols)
    }

    /// Performs a pivot on `(pivot_row, pivot_col)`.
    fn pivot(&mut self, pivot_row: usize, pivot_col: usize) {
        let width = self.cols + 1;
        let pivot_value = self.at(pivot_row, pivot_col);
        debug_assert!(pivot_value.abs() > 0.0);
        // Normalize the pivot row.
        {
            let start = pivot_row * width;
            let inv = 1.0 / pivot_value;
            for v in &mut self.data[start..start + width] {
                *v *= inv;
            }
        }
        // Eliminate the pivot column from every other row (including the
        // objective row, which is the last row).
        for r in 0..=self.rows {
            if r == pivot_row {
                continue;
            }
            let factor = self.at(r, pivot_col);
            if factor == 0.0 {
                continue;
            }
            let (pivot_slice_start, row_start) = (pivot_row * width, r * width);
            // Split borrows: copy of the pivot row values is avoided by
            // indexing carefully through raw offsets.
            for c in 0..width {
                let pv = self.data[pivot_slice_start + c];
                if pv != 0.0 {
                    self.data[row_start + c] -= factor * pv;
                }
            }
            // Force the eliminated entry to exactly zero to avoid drift.
            self.data[row_start + pivot_col] = 0.0;
        }
        self.basis[pivot_row] = pivot_col;
    }
}

/// Internal standard form of the problem.
struct StandardForm {
    tableau: Tableau,
    num_structural: usize,
    first_artificial: usize,
    /// Objective coefficients of the *minimization* problem over structural
    /// variables (already negated when the original sense is maximize).
    min_costs: Vec<f64>,
    /// Whether the original problem was a maximization.
    maximize: bool,
}

fn build_standard_form(problem: &LpProblem) -> StandardForm {
    let m = problem.num_constraints();
    let n = problem.num_vars();
    let maximize = problem.sense() == Sense::Maximize;

    // Count auxiliary columns after normalizing right-hand sides to be
    // non-negative.
    let mut num_slack = 0usize;
    let mut num_artificial = 0usize;
    type NormalizedRow = (Vec<(usize, f64)>, ConstraintOp, f64);
    let mut normalized: Vec<NormalizedRow> = Vec::with_capacity(m);
    for c in problem.constraints() {
        let mut coeffs = c.coefficients.clone();
        let mut op = c.op;
        let mut rhs = c.rhs;
        if rhs < 0.0 {
            rhs = -rhs;
            for term in &mut coeffs {
                term.1 = -term.1;
            }
            op = match op {
                ConstraintOp::Le => ConstraintOp::Ge,
                ConstraintOp::Ge => ConstraintOp::Le,
                ConstraintOp::Eq => ConstraintOp::Eq,
            };
        }
        match op {
            ConstraintOp::Le => num_slack += 1,
            ConstraintOp::Ge => {
                num_slack += 1;
                num_artificial += 1;
            }
            ConstraintOp::Eq => num_artificial += 1,
        }
        normalized.push((coeffs, op, rhs));
    }

    let first_slack = n;
    let first_artificial = n + num_slack;
    let total_cols = n + num_slack + num_artificial;
    let width = total_cols + 1;

    let mut tableau = Tableau {
        rows: m,
        cols: total_cols,
        data: vec![0.0; (m + 1) * width],
        basis: vec![0; m],
    };

    let mut slack_cursor = first_slack;
    let mut artificial_cursor = first_artificial;
    for (i, (coeffs, op, rhs)) in normalized.iter().enumerate() {
        for &(idx, v) in coeffs {
            *tableau.at_mut(i, idx) += v;
        }
        *tableau.at_mut(i, total_cols) = *rhs;
        match op {
            ConstraintOp::Le => {
                *tableau.at_mut(i, slack_cursor) = 1.0;
                tableau.basis[i] = slack_cursor;
                slack_cursor += 1;
            }
            ConstraintOp::Ge => {
                *tableau.at_mut(i, slack_cursor) = -1.0;
                slack_cursor += 1;
                *tableau.at_mut(i, artificial_cursor) = 1.0;
                tableau.basis[i] = artificial_cursor;
                artificial_cursor += 1;
            }
            ConstraintOp::Eq => {
                *tableau.at_mut(i, artificial_cursor) = 1.0;
                tableau.basis[i] = artificial_cursor;
                artificial_cursor += 1;
            }
        }
    }

    // Minimization costs over structural variables.
    let min_costs: Vec<f64> = problem
        .objective()
        .iter()
        .map(|&c| if maximize { -c } else { c })
        .collect();

    StandardForm {
        tableau,
        num_structural: n,
        first_artificial,
        min_costs,
        maximize,
    }
}

/// Installs the phase-1 objective (minimize the sum of artificial variables)
/// in the objective row.
fn install_phase1_objective(sf: &mut StandardForm) {
    let t = &mut sf.tableau;
    let obj_row = t.rows;
    let width = t.cols + 1;
    // Reset.
    for c in 0..width {
        *t.at_mut(obj_row, c) = 0.0;
    }
    // c_j = 1 for artificial columns.
    for c in sf.first_artificial..t.cols {
        *t.at_mut(obj_row, c) = 1.0;
    }
    // Reduced costs: subtract the rows whose basic variable is artificial
    // (their basic cost is 1).
    for r in 0..t.rows {
        if t.basis[r] >= sf.first_artificial {
            for c in 0..width {
                let v = t.at(r, c);
                if v != 0.0 {
                    *t.at_mut(obj_row, c) -= v;
                }
            }
        }
    }
}

/// Installs the phase-2 objective (the real minimization costs) in the
/// objective row, pricing out the current basis.
fn install_phase2_objective(sf: &mut StandardForm) {
    let t = &mut sf.tableau;
    let obj_row = t.rows;
    let width = t.cols + 1;
    for c in 0..width {
        *t.at_mut(obj_row, c) = 0.0;
    }
    for (j, &cost) in sf.min_costs.iter().enumerate() {
        *t.at_mut(obj_row, j) = cost;
    }
    for r in 0..t.rows {
        let basic = t.basis[r];
        let cost = if basic < sf.num_structural {
            sf.min_costs[basic]
        } else {
            0.0
        };
        if cost != 0.0 {
            for c in 0..width {
                let v = t.at(r, c);
                if v != 0.0 {
                    *t.at_mut(obj_row, c) -= cost * v;
                }
            }
        }
    }
}

/// Runs simplex pivots on the current objective row until optimality,
/// unboundedness or the iteration limit. `allowed_cols` limits which columns
/// may enter the basis (used to ban artificial columns in phase 2).
///
/// Returns `Ok(true)` on optimality, `Ok(false)` on unboundedness.
fn run_pivots(
    sf: &mut StandardForm,
    allowed_cols: usize,
    options: &SimplexOptions,
    iterations: &mut usize,
) -> Result<bool> {
    let tol = options.tolerance;
    let mut stall_counter = 0usize;
    let mut best_objective = f64::INFINITY;
    // Once degeneracy forces the switch to Bland's rule, stay on it: the
    // anti-cycling guarantee only holds if the rule is used consistently.
    let mut bland_mode = false;
    loop {
        if *iterations >= options.max_iterations
            || mapqn_faults::fire(mapqn_faults::FaultSite::LpIterations)
        {
            return Err(LpError::IterationLimit {
                limit: options.max_iterations,
            });
        }
        options
            .budget
            .check(*iterations as u64)
            .map_err(LpError::BudgetExhausted)?;
        let obj_row = sf.tableau.rows;
        if stall_counter >= options.stall_threshold {
            bland_mode = true;
        }
        let use_bland = bland_mode;

        // Choose the entering column.
        let mut entering: Option<usize> = None;
        let mut most_negative = -tol;
        for j in 0..allowed_cols {
            let rc = sf.tableau.at(obj_row, j);
            if rc < -tol {
                if use_bland {
                    entering = Some(j);
                    break;
                }
                if rc < most_negative {
                    most_negative = rc;
                    entering = Some(j);
                }
            }
        }
        let Some(pivot_col) = entering else {
            return Ok(true); // optimal
        };

        // Ratio test. Pivot eligibility is floored at 1e-7 independently of
        // the optimality tolerance: accepting pivots as small as a tight
        // `tolerance` (say 1e-11) divides rows by near-zero values and
        // destroys the tableau numerically — on the heavily degenerate bound
        // LPs this made the solver report "optimal" points that were far
        // from the optimum and occasionally infeasible. (A *larger*,
        // column-scaled threshold is not safe either: excluding too many
        // rows breaks Bland's anti-cycling guarantee.) Among (near-)tied
        // ratios the smallest basic index leaves (the lexicographic-style
        // tie-break that keeps the heavily degenerate bound LPs from
        // cycling; a largest-pivot tie-break was tried and cycles on the
        // Figure 8 case study).
        const RATIO_PIVOT_TOL: f64 = 1e-7;
        let pivot_eligibility = tol.max(RATIO_PIVOT_TOL);
        let mut pivot_row: Option<usize> = None;
        let mut best_ratio = f64::INFINITY;
        for r in 0..sf.tableau.rows {
            let a = sf.tableau.at(r, pivot_col);
            if a > pivot_eligibility {
                let ratio = sf.tableau.rhs(r) / a;
                let better = ratio < best_ratio - tol
                    || (ratio < best_ratio + tol
                        && pivot_row.is_some_and(|pr| sf.tableau.basis[r] < sf.tableau.basis[pr]));
                if pivot_row.is_none() || better {
                    best_ratio = ratio;
                    pivot_row = Some(r);
                }
            }
        }
        let Some(pivot_row) = pivot_row else {
            return Ok(false); // unbounded
        };

        sf.tableau.pivot(pivot_row, pivot_col);
        *iterations += 1;

        // Track stalling to decide when to switch to Bland's rule.
        let current_objective = -sf.tableau.rhs(sf.tableau.rows);
        if current_objective < best_objective - tol {
            best_objective = current_objective;
            stall_counter = 0;
        } else {
            stall_counter += 1;
        }
    }
}

/// Attempts to pivot artificial variables out of the basis after phase 1.
fn drive_out_artificials(sf: &mut StandardForm, options: &SimplexOptions, iterations: &mut usize) {
    let tol = options.tolerance.max(1e-9);
    for r in 0..sf.tableau.rows {
        if sf.tableau.basis[r] >= sf.first_artificial {
            // Pivot on the non-artificial column with the *largest* entry in
            // this row: taking the first entry above the tolerance can pick
            // a near-zero pivot whose normalization amplifies round-off
            // through the rest of the tableau.
            let mut col = None;
            let mut best = tol;
            for j in 0..sf.first_artificial {
                let a = sf.tableau.at(r, j).abs();
                if a > best {
                    best = a;
                    col = Some(j);
                }
            }
            if let Some(j) = col {
                sf.tableau.pivot(r, j);
                *iterations += 1;
            }
            // If no pivot exists the row is redundant (all structural
            // coefficients are zero); the artificial stays basic at value
            // zero and can never become positive because the row can never
            // change again.
        }
    }
}

/// Solves `problem` with the two-phase simplex method.
///
/// # Errors
/// Returns [`LpError::IterationLimit`] when the pivot budget is exhausted.
pub fn solve_simplex(problem: &LpProblem, options: &SimplexOptions) -> Result<LpSolution> {
    let mut sf = build_standard_form(problem);
    let mut iterations = 0usize;
    let n = sf.num_structural;
    let tol = options.tolerance;

    let has_artificials = sf.first_artificial < sf.tableau.cols;
    if has_artificials {
        install_phase1_objective(&mut sf);
        let all_cols = sf.tableau.cols;
        let optimal = run_pivots(&mut sf, all_cols, options, &mut iterations)?;
        // Phase 1 is always bounded (objective >= 0), so `optimal` is true.
        debug_assert!(optimal);
        let phase1_value = -sf.tableau.rhs(sf.tableau.rows);
        if phase1_value > 1e-6 {
            return Ok(LpSolution {
                status: LpStatus::Infeasible,
                objective: 0.0,
                x: vec![0.0; n],
                iterations,
            });
        }
        drive_out_artificials(&mut sf, options, &mut iterations);
    }

    install_phase2_objective(&mut sf);
    let structural_and_slack = sf.first_artificial;
    let optimal = run_pivots(&mut sf, structural_and_slack, options, &mut iterations)?;
    if !optimal {
        return Ok(LpSolution {
            status: LpStatus::Unbounded,
            objective: 0.0,
            x: vec![0.0; n],
            iterations,
        });
    }

    // Extract the structural solution.
    let mut x = vec![0.0; n];
    for r in 0..sf.tableau.rows {
        let b = sf.tableau.basis[r];
        if b < n {
            let v = sf.tableau.rhs(r);
            x[b] = if v.abs() < tol { 0.0 } else { v };
        }
    }
    let min_objective = -sf.tableau.rhs(sf.tableau.rows);
    let objective = if sf.maximize {
        -min_objective
    } else {
        min_objective
    };
    Ok(LpSolution {
        status: LpStatus::Optimal,
        objective,
        x,
        iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{LpProblem, Sense};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-7, "{a} != {b}");
    }

    /// These tests exercise the dense tableau specifically (the default
    /// options would dispatch to the revised engine).
    fn dense() -> SimplexOptions {
        SimplexOptions {
            engine: SimplexEngine::DenseTableau,
            ..SimplexOptions::default()
        }
    }

    #[test]
    fn maximization_with_le_constraints() {
        // max 3x + 2y s.t. x + y <= 4, x <= 2 => x = 2, y = 2, obj = 10.
        let mut lp = LpProblem::new(2, Sense::Maximize);
        lp.set_objective(&[(0, 3.0), (1, 2.0)]);
        lp.add_le(&[(0, 1.0), (1, 1.0)], 4.0);
        lp.add_le(&[(0, 1.0)], 2.0);
        let s = lp.solve_with(&dense()).unwrap();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 10.0);
        assert_close(s.x[0], 2.0);
        assert_close(s.x[1], 2.0);
        assert!(s.iterations > 0);
    }

    #[test]
    fn minimization_with_ge_constraints() {
        // min 2x + 3y s.t. x + y >= 10, x >= 3 => x = 10 is better? cost of x
        // is cheaper, so x = 10, y = 0, obj = 20 (x >= 3 satisfied).
        let mut lp = LpProblem::new(2, Sense::Minimize);
        lp.set_objective(&[(0, 2.0), (1, 3.0)]);
        lp.add_ge(&[(0, 1.0), (1, 1.0)], 10.0);
        lp.add_ge(&[(0, 1.0)], 3.0);
        let s = lp.solve_with(&dense()).unwrap();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 20.0);
        assert_close(s.x[0], 10.0);
        assert_close(s.x[1], 0.0);
    }

    #[test]
    fn equality_constraints_probability_style() {
        // Variables form a probability distribution; maximize / minimize a
        // linear functional — the archetype of the bound LPs.
        // p0 + p1 + p2 = 1, p1 + 2 p2 <= 1.2, maximize p2.
        let mut lp = LpProblem::new(3, Sense::Maximize);
        lp.set_objective(&[(2, 1.0)]);
        lp.add_eq(&[(0, 1.0), (1, 1.0), (2, 1.0)], 1.0);
        lp.add_le(&[(1, 1.0), (2, 2.0)], 1.2);
        let s = lp.solve_with(&dense()).unwrap();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 0.6);
        // And the minimum is 0.
        let mut lp_min = lp.clone();
        lp_min.set_sense(Sense::Minimize);
        let s_min = lp_min.solve_with(&dense()).unwrap();
        assert_close(s_min.objective, 0.0);
    }

    #[test]
    fn infeasible_problem_is_detected() {
        let mut lp = LpProblem::new(1, Sense::Minimize);
        lp.set_objective(&[(0, 1.0)]);
        lp.add_le(&[(0, 1.0)], 1.0);
        lp.add_ge(&[(0, 1.0)], 2.0);
        let s = lp.solve_with(&dense()).unwrap();
        assert_eq!(s.status, LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_problem_is_detected() {
        let mut lp = LpProblem::new(1, Sense::Maximize);
        lp.set_objective(&[(0, 1.0)]);
        lp.add_ge(&[(0, 1.0)], 1.0);
        let s = lp.solve_with(&dense()).unwrap();
        assert_eq!(s.status, LpStatus::Unbounded);
    }

    #[test]
    fn negative_rhs_is_normalized() {
        // x - y <= -2 with x, y >= 0 means y >= x + 2.
        // minimize y subject to that: x = 0, y = 2.
        let mut lp = LpProblem::new(2, Sense::Minimize);
        lp.set_objective(&[(1, 1.0)]);
        lp.add_le(&[(0, 1.0), (1, -1.0)], -2.0);
        let s = lp.solve_with(&dense()).unwrap();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 2.0);
        assert_close(s.x[1], 2.0);
    }

    #[test]
    fn equality_with_negative_rhs() {
        // -x = -3 => x = 3.
        let mut lp = LpProblem::new(1, Sense::Minimize);
        lp.set_objective(&[(0, 1.0)]);
        lp.add_eq(&[(0, -1.0)], -3.0);
        let s = lp.solve_with(&dense()).unwrap();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.x[0], 3.0);
        assert_close(s.objective, 3.0);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Multiple redundant constraints through the same vertex.
        let mut lp = LpProblem::new(2, Sense::Maximize);
        lp.set_objective(&[(0, 1.0), (1, 1.0)]);
        lp.add_le(&[(0, 1.0)], 1.0);
        lp.add_le(&[(1, 1.0)], 1.0);
        lp.add_le(&[(0, 1.0), (1, 1.0)], 2.0);
        lp.add_le(&[(0, 2.0), (1, 2.0)], 4.0);
        let s = lp.solve_with(&dense()).unwrap();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 2.0);
    }

    #[test]
    fn redundant_equalities_are_handled() {
        // The same equality twice: phase 1 leaves an artificial basic at
        // zero in a redundant row.
        let mut lp = LpProblem::new(2, Sense::Maximize);
        lp.set_objective(&[(0, 1.0)]);
        lp.add_eq(&[(0, 1.0), (1, 1.0)], 1.0);
        lp.add_eq(&[(0, 2.0), (1, 2.0)], 2.0);
        let s = lp.solve_with(&dense()).unwrap();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 1.0);
    }

    #[test]
    fn zero_objective_returns_any_feasible_point() {
        let mut lp = LpProblem::new(2, Sense::Minimize);
        lp.add_eq(&[(0, 1.0), (1, 1.0)], 5.0);
        let s = lp.solve_with(&dense()).unwrap();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.x[0] + s.x[1], 5.0);
        assert_close(s.objective, 0.0);
    }

    #[test]
    fn iteration_limit_is_reported() {
        let mut lp = LpProblem::new(3, Sense::Maximize);
        lp.set_objective(&[(0, 1.0), (1, 1.0), (2, 1.0)]);
        lp.add_le(&[(0, 1.0), (1, 2.0), (2, 3.0)], 10.0);
        lp.add_le(&[(0, 3.0), (1, 1.0), (2, 2.0)], 10.0);
        let options = SimplexOptions {
            max_iterations: 0,
            ..dense()
        };
        assert!(matches!(
            lp.solve_with(&options),
            Err(LpError::IterationLimit { limit: 0 })
        ));
    }

    #[test]
    fn larger_random_like_problem_has_consistent_primal_objective() {
        // Deterministic pseudo-random LP; check that the reported objective
        // matches the recomputed c^T x and that constraints hold.
        let n = 20;
        let m = 12;
        let mut lp = LpProblem::new(n, Sense::Maximize);
        let coeff = |i: usize, j: usize| (((i * 31 + j * 17) % 13) as f64) / 13.0 + 0.05;
        let obj: Vec<(usize, f64)> = (0..n).map(|j| (j, ((j % 7) as f64) * 0.3 + 0.1)).collect();
        lp.set_objective(&obj);
        for i in 0..m {
            let terms: Vec<(usize, f64)> = (0..n).map(|j| (j, coeff(i, j))).collect();
            lp.add_le(&terms, 5.0 + i as f64);
        }
        let s = lp.solve_with(&dense()).unwrap();
        assert_eq!(s.status, LpStatus::Optimal);
        // Recompute objective.
        let recomputed: f64 = obj.iter().map(|&(j, c)| c * s.x[j]).sum();
        assert_close(s.objective, recomputed);
        // Check feasibility.
        for i in 0..m {
            let lhs: f64 = (0..n).map(|j| coeff(i, j) * s.x[j]).sum();
            assert!(lhs <= 5.0 + i as f64 + 1e-6);
        }
        // All variables non-negative.
        assert!(s.x.iter().all(|&v| v >= -1e-9));
    }
}
