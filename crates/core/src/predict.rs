//! Predictors and prediction records.

use crate::measurement::relative_error;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which prediction methodology to apply.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Predictor {
    /// The traditional baseline: sum the isolated kernel times
    /// (equivalently, all composition coefficients are 1).
    Summation,
    /// The paper's contribution: weight each kernel model by the
    /// coupling-derived coefficient computed from chains of
    /// `chain_len` kernels.
    Coupling {
        /// Window length the coupling values were measured at.
        chain_len: usize,
    },
}

impl Predictor {
    /// Convenience constructor for the coupling predictor.
    pub fn coupling(chain_len: usize) -> Self {
        Predictor::Coupling { chain_len }
    }

    /// Short label as it appears in the paper's tables.
    pub fn label(&self) -> String {
        match self {
            Predictor::Summation => "Summation".to_string(),
            Predictor::Coupling { chain_len } => format!("Coupling: {chain_len} kernels"),
        }
    }
}

impl fmt::Display for Predictor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// One prediction against ground truth.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Prediction {
    /// Predicted total execution time (seconds).
    pub predicted: f64,
    /// Measured total execution time (seconds).
    pub actual: f64,
}

impl Prediction {
    /// Relative error `|predicted − actual| / actual` as the paper
    /// reports it.
    pub fn rel_err(&self) -> f64 {
        relative_error(self.predicted, self.actual)
    }

    /// Relative error in percent.
    pub fn rel_err_pct(&self) -> f64 {
        100.0 * self.rel_err()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_tables() {
        assert_eq!(Predictor::Summation.label(), "Summation");
        assert_eq!(Predictor::coupling(3).label(), "Coupling: 3 kernels");
    }

    #[test]
    fn rel_err_is_symmetric_around_actual() {
        let over = Prediction {
            predicted: 110.0,
            actual: 100.0,
        };
        let under = Prediction {
            predicted: 90.0,
            actual: 100.0,
        };
        assert!((over.rel_err() - 0.1).abs() < 1e-12);
        assert!((under.rel_err() - 0.1).abs() < 1e-12);
        assert!((over.rel_err_pct() - 10.0).abs() < 1e-12);
    }
}
