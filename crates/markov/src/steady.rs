//! Stationary distribution solvers for CTMCs.
//!
//! Two complementary algorithms are provided:
//!
//! * **Band GTH elimination** (Grassmann–Taksar–Heyman) on the band of the
//!   generator. GTH performs Gaussian elimination using only additions of
//!   non-negative quantities, so it is backward stable for Markov chains and
//!   has no convergence parameters. Elimination fill-in stays inside the
//!   band of the off-diagonal nonzeros (lower bandwidth `b_l`, upper `b_u`),
//!   so the cost is `O(n·b_l·b_u)` time and `O(n·min(b_l + b_u + 1, n))`
//!   memory — at worst the `O(n^3)` / `O(n^2)` of dense GTH, and far less on
//!   the banded breadth-first-ordered generators of queueing networks. The
//!   answers are bitwise those of dense GTH.
//! * The **sparse preconditioned engine** of [`crate::sparse_steady`]:
//!   row-block-parallel Gauss–Seidel / Jacobi-preconditioned iterations on
//!   the CSR generator with a residual-based (`‖πQ‖_∞`) stopping rule —
//!   the path that carries the paper's exact ("global balance") validation
//!   references into the `10^5`–`10^7`-state regime. Its most
//!   conservative internal fallback is plain power iteration on the
//!   globally uniformized chain.
//!
//! [`stationary_auto`] picks band GTH below
//! [`SteadyStateOptions::dense_threshold`] states and the sparse engine
//! above it.

use crate::ctmc::Ctmc;
use crate::sparse_steady::{stationary_sparse, SparseSteadyOptions};
use crate::{MarkovError, Result};
use mapqn_linalg::{norms, CsrMatrix, DVector};

/// Options controlling the automatic dense/sparse selection and the routed
/// sparse solve.
#[derive(Debug, Clone, Copy)]
pub struct SteadyStateOptions {
    /// Legacy tolerance knob: the routed sparse solve runs at the tighter
    /// of this and [`SparseSteadyOptions::tolerance`] (see
    /// [`SteadyStateOptions::sparse_options`]).
    pub tolerance: f64,
    /// Legacy work cap: the routed sparse solve runs at most the smaller
    /// of this and [`SparseSteadyOptions::max_sweeps`] sweeps (see
    /// [`SteadyStateOptions::sparse_options`]).
    pub max_iterations: usize,
    /// State-count threshold below which the band GTH solver
    /// ([`stationary_dense_gth`]) is used by
    /// [`stationary_auto`].
    pub dense_threshold: usize,
    /// Options for the sparse preconditioned engine used above the
    /// threshold (tolerance, preconditioner, worker count, block length).
    pub sparse: SparseSteadyOptions,
}

impl Default for SteadyStateOptions {
    fn default() -> Self {
        Self {
            tolerance: 1e-12,
            max_iterations: 200_000,
            dense_threshold: 2_000,
            sparse: SparseSteadyOptions::default(),
        }
    }
}

impl SteadyStateOptions {
    /// The options of the routed sparse solve: [`Self::sparse`] at the
    /// *tighter* of the legacy and sparse tolerances and the *smaller* of
    /// the two work budgets, so a caller that set the legacy knobs keeps
    /// its bound instead of having the fields silently ignored.
    #[must_use]
    pub fn sparse_options(&self) -> SparseSteadyOptions {
        SparseSteadyOptions {
            tolerance: self.sparse.tolerance.min(self.tolerance),
            max_sweeps: self.sparse.max_sweeps.min(self.max_iterations),
            ..self.sparse
        }
    }
}

/// Computes the stationary distribution with the GTH algorithm on the band
/// of the generator.
///
/// One pass over the CSR entries measures the lower and upper bandwidths
/// `b_l` and `b_u` of the off-diagonal nonzeros; elimination fill-in never
/// leaves that band, so the band is all that is stored (row-major, each row
/// a window of `min(b_l + b_u + 1, n)` entries — never more than the `n^2`
/// of a dense copy) and all that is eliminated. Cost is `O(n·b_l·b_u)` time
/// and `O(n·min(b_l + b_u + 1, n))` memory; breadth-first-ordered network
/// generators are banded, so this is far below the `O(n^3)` of dense GTH.
///
/// For a finite generator the result is bitwise identical to dense GTH
/// ([`gth_reference`]): every skipped term is an exact zero, and the
/// remaining operations run in the same order.
///
/// # Errors
/// Returns [`MarkovError::InvalidChain`] when the chain is reducible in a way
/// that produces a zero pivot (states that cannot reach the rest of the
/// chain).
pub fn stationary_dense_gth(ctmc: &Ctmc) -> Result<DVector> {
    let n = ctmc.num_states();
    if n == 1 {
        return Ok(DVector::from_vec(vec![1.0]));
    }
    let mut band = Band::new(ctmc.generator());
    let (lower, upper, width) = (band.lower, band.upper, band.width);

    // GTH elimination, states last to second, restricted to the band: state
    // k only reaches columns [k - b_l, k) and is reached only from rows
    // [k - b_u, k). `pivots[k]` is the total outflow of state `k` towards
    // lower-numbered states at the moment it was eliminated.
    let mut pivots = vec![0.0_f64; n];
    for k in (1..n).rev() {
        let cols = k.saturating_sub(lower)..k;
        let (above, rest) = band.data.split_at_mut(k * width);
        let lo_k = band_start(k, lower, width, n);
        let row_k = &mut rest[cols.start - lo_k..k - lo_k];
        let mut s = 0.0;
        for &v in row_k.iter() {
            s += v;
        }
        if s <= 0.0 {
            return Err(MarkovError::InvalidChain(format!(
                "GTH pivot for state {k} is non-positive: the chain is reducible"
            )));
        }
        pivots[k] = s;
        for v in row_k.iter_mut() {
            *v /= s;
        }
        let row_k = &*row_k;
        for i in k.saturating_sub(upper)..k {
            let lo_i = band_start(i, lower, width, n);
            let row_i = &mut above[i * width..(i + 1) * width];
            let qik = row_i[k - lo_i];
            if qik != 0.0 {
                // The window includes the diagonal q[i][i], which GTH never
                // reads, so it may take the update with the rest of the row.
                let row_i = &mut row_i[cols.start - lo_i..k - lo_i];
                for (x, &y) in row_i.iter_mut().zip(row_k) {
                    *x += qik * y;
                }
            }
        }
    }

    // Back-substitution on the censored chains:
    // pi[0] = 1, pi[k] = (sum_{i<k} pi[i] * q[i,k]) / pivot_k.
    let mut pi = vec![0.0_f64; n];
    pi[0] = 1.0;
    for k in 1..n {
        let rows = k.saturating_sub(upper)..k;
        let mut s = 0.0;
        for (i, &pi_i) in rows.clone().zip(&pi[rows]) {
            s += pi_i * band.data[i * width + k - band_start(i, lower, width, n)];
        }
        pi[k] = s / pivots[k];
    }
    let total: f64 = pi.iter().sum();
    let mut result = DVector::from_vec(pi);
    result.scale(1.0 / total);
    Ok(result)
}

/// Row-major band copy of a generator for [`stationary_dense_gth`].
struct Band {
    /// Lower bandwidth: `q[i][j] != 0` with `j < i` implies `i - j <= lower`.
    lower: usize,
    /// Upper bandwidth: `q[i][j] != 0` with `j > i` implies `j - i <= upper`.
    upper: usize,
    /// Stored entries per row, `min(lower + upper + 1, n)`.
    width: usize,
    /// Row `i` holds columns `band_start(i)..band_start(i) + width`.
    data: Vec<f64>,
}

impl Band {
    fn new(q: &CsrMatrix) -> Self {
        let n = q.nrows();
        let (mut lower, mut upper) = (0, 0);
        for r in 0..n {
            for (c, v) in q.row_iter(r) {
                if v != 0.0 {
                    lower = lower.max(r.saturating_sub(c));
                    upper = upper.max(c.saturating_sub(r));
                }
            }
        }
        let width = (lower + upper + 1).min(n);
        let mut data = vec![0.0_f64; n * width];
        for r in 0..n {
            let lo = band_start(r, lower, width, n);
            for (c, v) in q.row_iter(r) {
                // Zeros may sit outside the band; they are the slot's 0.0.
                if v != 0.0 {
                    data[r * width + c - lo] += v;
                }
            }
        }
        Self {
            lower,
            upper,
            width,
            data,
        }
    }
}

/// First column stored for row `i` of a band of the given `lower`
/// bandwidth and row `width` over `n` columns: the window is shifted into
/// `[0, n)` at the edges, so every in-band column `[i - lower, i + upper]`
/// falls inside it.
fn band_start(i: usize, lower: usize, width: usize, n: usize) -> usize {
    i.saturating_sub(lower).min(n - width)
}

/// Dense `O(n^3)` GTH elimination on a full copy of the generator: the
/// reference [`stationary_dense_gth`] is tested bitwise against. No solver
/// path calls it.
///
/// # Errors
/// As [`stationary_dense_gth`].
#[doc(hidden)]
pub fn gth_reference(ctmc: &Ctmc) -> Result<DVector> {
    let n = ctmc.num_states();
    let mut q = ctmc.generator().to_dense();

    if n == 1 {
        return Ok(DVector::from_vec(vec![1.0]));
    }

    // GTH elimination: process states from the last to the second, folding
    // each eliminated state's behaviour into the remaining ones using only
    // non-negative quantities. `pivots[k]` stores the total outflow of state
    // `k` towards lower-numbered states at the moment it was eliminated; it
    // is needed again during back-substitution.
    let mut pivots = vec![0.0_f64; n];
    for k in (1..n).rev() {
        // Total outflow of state k towards states 0..k.
        let mut s = 0.0;
        for j in 0..k {
            s += q[(k, j)];
        }
        if s <= 0.0 {
            return Err(MarkovError::InvalidChain(format!(
                "GTH pivot for state {k} is non-positive: the chain is reducible"
            )));
        }
        pivots[k] = s;
        for j in 0..k {
            q[(k, j)] /= s;
        }
        for i in 0..k {
            let qik = q[(i, k)];
            if qik != 0.0 {
                for j in 0..k {
                    if i != j {
                        let add = qik * q[(k, j)];
                        q[(i, j)] += add;
                    }
                }
            }
        }
    }

    // Back-substitution on the censored chains:
    // pi[0] = 1, pi[k] = (sum_{i<k} pi[i] * q[i,k]) / pivot_k.
    let mut pi = vec![0.0_f64; n];
    pi[0] = 1.0;
    for k in 1..n {
        let mut s = 0.0;
        for (i, &pi_i) in pi.iter().enumerate().take(k) {
            s += pi_i * q[(i, k)];
        }
        pi[k] = s / pivots[k];
    }
    let total: f64 = pi.iter().sum();
    let mut result = DVector::from_vec(pi);
    result.scale(1.0 / total);
    Ok(result)
}

/// Computes the stationary distribution, choosing the band GTH solver
/// ([`stationary_dense_gth`]) for small chains and the sparse preconditioned engine
/// ([`crate::sparse_steady::stationary_sparse`]) for large ones.
///
/// The sparse engine runs with [`SteadyStateOptions::sparse_options`], so
/// the legacy `tolerance` / `max_iterations` knobs still bound it.
///
/// # Errors
/// Propagates the error of whichever solver was selected; if GTH fails due
/// to reducibility the sparse engine is tried as a fallback (its internal
/// power path handles reducible generators).
pub fn stationary_auto(ctmc: &Ctmc, options: &SteadyStateOptions) -> Result<DVector> {
    let sparse_options = options.sparse_options();
    if ctmc.num_states() <= options.dense_threshold {
        match stationary_dense_gth(ctmc) {
            Ok(pi) => Ok(pi),
            Err(MarkovError::InvalidChain(_)) => {
                Ok(stationary_sparse(ctmc, &sparse_options)?.pi)
            }
            Err(e) => Err(e),
        }
    } else {
        Ok(stationary_sparse(ctmc, &sparse_options)?.pi)
    }
}

/// Residual `‖pi Q‖_inf` of a candidate stationary vector — used by tests and
/// by callers that want to double-check a solution.
///
/// # Errors
/// Propagates dimension mismatches.
pub fn stationary_residual(ctmc: &Ctmc, pi: &DVector) -> Result<f64> {
    Ok(norms::left_residual_sparse(ctmc.generator(), pi)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapqn_linalg::approx_eq;

    fn birth_death(n: usize, birth: f64, death: f64) -> Ctmc {
        let mut transitions = Vec::new();
        for i in 0..n - 1 {
            transitions.push((i, i + 1, birth));
            transitions.push((i + 1, i, death));
        }
        Ctmc::from_transitions(n, &transitions).unwrap()
    }

    /// Closed-form stationary distribution of an M/M/1/K-style birth-death
    /// chain with constant rates.
    fn birth_death_exact(n: usize, birth: f64, death: f64) -> Vec<f64> {
        let rho = birth / death;
        let weights: Vec<f64> = (0..n).map(|i| rho.powi(i as i32)).collect();
        let total: f64 = weights.iter().sum();
        weights.into_iter().map(|w| w / total).collect()
    }

    #[test]
    fn gth_matches_birth_death_closed_form() {
        let ctmc = birth_death(6, 1.0, 2.0);
        let pi = stationary_dense_gth(&ctmc).unwrap();
        let exact = birth_death_exact(6, 1.0, 2.0);
        for i in 0..6 {
            assert!(approx_eq(pi[i], exact[i], 1e-12), "state {i}: {} vs {}", pi[i], exact[i]);
        }
        assert!(stationary_residual(&ctmc, &pi).unwrap() < 1e-12);
    }

    #[test]
    fn auto_picks_a_working_solver() {
        let ctmc = birth_death(4, 1.0, 1.0);
        let opts = SteadyStateOptions {
            dense_threshold: 2, // force the sparse path
            ..SteadyStateOptions::default()
        };
        let pi_sparse = stationary_auto(&ctmc, &opts).unwrap();
        let pi_dense = stationary_auto(&ctmc, &SteadyStateOptions::default()).unwrap();
        assert!(pi_sparse.max_abs_diff(&pi_dense).unwrap() < 1e-8);
        // Uniform for symmetric rates.
        for i in 0..4 {
            assert!(approx_eq(pi_dense[i], 0.25, 1e-10));
        }
    }

    #[test]
    fn single_state_chain() {
        let ctmc = Ctmc::from_transitions(1, &[]).unwrap();
        let pi = stationary_dense_gth(&ctmc).unwrap();
        assert_eq!(pi.as_slice(), &[1.0]);
    }

    /// Below the threshold a reducible chain makes GTH fail, and the
    /// sparse engine's answer is what `stationary_auto` returns.
    #[test]
    fn auto_falls_back_to_sparse_when_gth_finds_a_reducible_chain() {
        // State 0 is transient: nothing enters it, so eliminating down to
        // state 1 leaves it no outflow towards state 0.
        let ctmc = Ctmc::from_transitions(3, &[(0, 1, 1.0), (1, 2, 2.0), (2, 1, 1.0)]).unwrap();
        assert!(matches!(
            stationary_dense_gth(&ctmc),
            Err(MarkovError::InvalidChain(_))
        ));
        let opts = SteadyStateOptions::default();
        assert!(ctmc.num_states() <= opts.dense_threshold);
        let pi = stationary_auto(&ctmc, &opts).unwrap();
        let sparse = stationary_sparse(&ctmc, &opts.sparse_options()).unwrap().pi;
        assert_eq!(pi.as_slice(), sparse.as_slice());
        assert!(approx_eq(pi[0], 0.0, 1e-10));
        assert!(approx_eq(pi[1], 1.0 / 3.0, 1e-8));
        assert!(approx_eq(pi[2], 2.0 / 3.0, 1e-8));
    }

    #[test]
    fn reducible_chain_is_reported_by_gth() {
        // Two disconnected states (no transitions at all): GTH pivot is zero.
        let ctmc = Ctmc::from_transitions(2, &[]).unwrap();
        assert!(matches!(
            stationary_dense_gth(&ctmc),
            Err(MarkovError::InvalidChain(_))
        ));
    }

    /// The legacy cap still bounds the routed sparse solve.
    #[test]
    fn no_convergence_is_reported_by_iterative_solver() {
        let ctmc = birth_death(20, 1.0, 1.1);
        let opts = SteadyStateOptions {
            tolerance: 1e-15,
            max_iterations: 2,
            dense_threshold: 0,
            ..SteadyStateOptions::default()
        };
        assert!(matches!(
            stationary_auto(&ctmc, &opts),
            Err(MarkovError::NoConvergence { .. })
        ));
    }

    #[test]
    fn three_state_cycle_with_asymmetric_rates() {
        // 0 -> 1 -> 2 -> 0 with different rates; stationary probabilities are
        // inversely proportional to the exit rates.
        let ctmc =
            Ctmc::from_transitions(3, &[(0, 1, 1.0), (1, 2, 2.0), (2, 0, 4.0)]).unwrap();
        let pi = stationary_dense_gth(&ctmc).unwrap();
        // pi_i proportional to 1/rate_i: (1, 0.5, 0.25) normalized.
        let total = 1.75;
        assert!(approx_eq(pi[0], 1.0 / total, 1e-12));
        assert!(approx_eq(pi[1], 0.5 / total, 1e-12));
        assert!(approx_eq(pi[2], 0.25 / total, 1e-12));
    }
}
