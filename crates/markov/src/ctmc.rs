//! Continuous-time Markov chains with sparse generators.

use crate::{MarkovError, Result};
use mapqn_linalg::CsrMatrix;

/// A continuous-time Markov chain described by its infinitesimal generator
/// `Q` in sparse CSR form.
///
/// Validity requirements: square, non-negative off-diagonal rates, row sums
/// equal to zero (within a small tolerance).
#[derive(Debug, Clone)]
pub struct Ctmc {
    generator: CsrMatrix,
}

impl Ctmc {
    /// Creates a CTMC from a sparse generator, validating its structure.
    ///
    /// # Errors
    /// Returns [`MarkovError::InvalidChain`] when the matrix is not square,
    /// has non-finite entries, negative off-diagonal entries, positive
    /// diagonal entries, or row sums that deviate from zero by more than
    /// `1e-7` relative to the largest rate in the row.
    pub fn new(generator: CsrMatrix) -> Result<Self> {
        let n = generator.nrows();
        if n == 0 {
            return Err(MarkovError::InvalidChain("empty generator".into()));
        }
        if generator.ncols() != n {
            return Err(MarkovError::InvalidChain(format!(
                "generator must be square, got {}x{}",
                generator.nrows(),
                generator.ncols()
            )));
        }
        for i in 0..n {
            let mut row_sum = 0.0;
            let mut max_rate = 0.0_f64;
            for (j, v) in generator.row_iter(i) {
                // NaN fails every comparison below: test finiteness first.
                if !v.is_finite() {
                    return Err(MarkovError::InvalidChain(format!(
                        "entry Q[{i},{j}] = {v} is not finite"
                    )));
                }
                if i == j {
                    if v > 1e-12 {
                        return Err(MarkovError::InvalidChain(format!(
                            "diagonal entry Q[{i},{i}] = {v} must be non-positive"
                        )));
                    }
                } else if v < -1e-12 {
                    return Err(MarkovError::InvalidChain(format!(
                        "off-diagonal entry Q[{i},{j}] = {v} must be non-negative"
                    )));
                }
                row_sum += v;
                max_rate = max_rate.max(v.abs());
            }
            let tol = 1e-7 * max_rate.max(1.0);
            if row_sum.abs() > tol {
                return Err(MarkovError::InvalidChain(format!(
                    "row {i} of the generator sums to {row_sum:.3e}, expected 0"
                )));
            }
        }
        Ok(Self { generator })
    }

    /// Builds a CTMC from `(from, to, rate)` transition triplets over
    /// `num_states` states. Diagonal entries are filled in automatically so
    /// that rows sum to zero; any diagonal triplets passed in are rejected.
    ///
    /// # Errors
    /// Returns [`MarkovError::InvalidChain`] for negative rates, diagonal
    /// entries, or out-of-range indices.
    pub fn from_transitions(num_states: usize, transitions: &[(usize, usize, f64)]) -> Result<Self> {
        let mut triplets: Vec<(usize, usize, f64)> = Vec::with_capacity(transitions.len() * 2);
        let mut diag = vec![0.0_f64; num_states];
        for &(from, to, rate) in transitions {
            if from >= num_states || to >= num_states {
                return Err(MarkovError::InvalidChain(format!(
                    "transition ({from} -> {to}) out of range for {num_states} states"
                )));
            }
            if from == to {
                return Err(MarkovError::InvalidChain(format!(
                    "self-loop transition on state {from}: CTMC rates must be off-diagonal"
                )));
            }
            if rate < 0.0 || !rate.is_finite() {
                return Err(MarkovError::InvalidChain(format!(
                    "transition ({from} -> {to}) has invalid rate {rate}"
                )));
            }
            if rate == 0.0 {
                continue;
            }
            triplets.push((from, to, rate));
            diag[from] -= rate;
        }
        for (i, &d) in diag.iter().enumerate() {
            if d != 0.0 {
                triplets.push((i, i, d));
            }
        }
        let generator = CsrMatrix::from_triplets(num_states, num_states, &triplets)
            .map_err(MarkovError::from)?;
        Self::new(generator)
    }

    /// Number of states.
    #[must_use]
    pub fn num_states(&self) -> usize {
        self.generator.nrows()
    }

    /// The sparse generator `Q`.
    #[must_use]
    pub fn generator(&self) -> &CsrMatrix {
        &self.generator
    }

    /// The largest total exit rate `max_i |Q[i,i]|`, the scale of the
    /// sparse engine's residual tolerance.
    #[must_use]
    pub fn max_exit_rate(&self) -> f64 {
        let mut m = 0.0_f64;
        for i in 0..self.num_states() {
            m = m.max(-self.generator.get(i, i));
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapqn_linalg::approx_eq;

    fn two_state() -> Ctmc {
        // 0 -> 1 at rate 1, 1 -> 0 at rate 2.
        Ctmc::from_transitions(2, &[(0, 1, 1.0), (1, 0, 2.0)]).unwrap()
    }

    #[test]
    fn from_transitions_fills_diagonal() {
        let c = two_state();
        assert_eq!(c.num_states(), 2);
        assert!(approx_eq(c.generator().get(0, 0), -1.0, 1e-12));
        assert!(approx_eq(c.generator().get(1, 1), -2.0, 1e-12));
        assert!(approx_eq(c.max_exit_rate(), 2.0, 1e-12));
    }

    #[test]
    fn invalid_transitions_are_rejected() {
        assert!(Ctmc::from_transitions(2, &[(0, 5, 1.0)]).is_err());
        assert!(Ctmc::from_transitions(2, &[(0, 0, 1.0)]).is_err());
        assert!(Ctmc::from_transitions(2, &[(0, 1, -1.0)]).is_err());
        assert!(Ctmc::from_transitions(2, &[(0, 1, f64::NAN)]).is_err());
    }

    #[test]
    fn zero_rate_transitions_are_ignored() {
        let c = Ctmc::from_transitions(2, &[(0, 1, 0.0), (1, 0, 1.0)]).unwrap();
        assert_eq!(c.generator().get(0, 1), 0.0);
        assert_eq!(c.generator().get(0, 0), 0.0);
    }

    #[test]
    fn new_validates_row_sums_and_signs() {
        // Row sums not zero.
        let bad = CsrMatrix::from_triplets(2, 2, &[(0, 0, -1.0), (0, 1, 2.0), (1, 1, -1.0), (1, 0, 1.0)])
            .unwrap();
        assert!(Ctmc::new(bad).is_err());
        // Positive diagonal.
        let bad = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 1, -1.0), (1, 0, 1.0), (1, 1, -1.0)])
            .unwrap();
        assert!(Ctmc::new(bad).is_err());
        // Not square.
        let bad = CsrMatrix::zeros(2, 3);
        assert!(Ctmc::new(bad).is_err());
        // Empty.
        assert!(Ctmc::new(CsrMatrix::zeros(0, 0)).is_err());
    }

    #[test]
    fn new_rejects_non_finite_entries() {
        // Each generator slips past the sign and row-sum checks when the
        // entries are not tested for finiteness: NaN compares false, and an
        // infinite rate makes the row-sum tolerance infinite too.
        let generators = [
            [(0, 0, -1.0), (0, 1, f64::NAN), (1, 0, 1.0), (1, 1, -1.0)],
            [(0, 0, f64::NEG_INFINITY), (0, 1, f64::INFINITY), (1, 0, 1.0), (1, 1, -1.0)],
            [(0, 0, f64::NEG_INFINITY), (0, 1, 1.0), (1, 0, 1.0), (1, 1, -1.0)],
        ];
        for triplets in generators {
            let q = CsrMatrix::from_triplets(2, 2, &triplets).unwrap();
            match Ctmc::new(q) {
                Err(MarkovError::InvalidChain(msg)) => assert!(msg.contains("not finite"), "{msg}"),
                other => panic!("non-finite generator accepted: {other:?}"),
            }
        }
    }
}
