//! Error type for coupling analysis.

use std::fmt;

/// Errors from coupling collection and prediction.
#[derive(Clone, Debug, PartialEq)]
pub enum CouplingError {
    /// Requested chain length does not fit the kernel set.
    BadChainLength {
        /// Requested window length.
        requested: usize,
        /// Number of kernels in the loop.
        kernels: usize,
    },
    /// A chain's isolated-time denominator is zero, so its coupling
    /// value is undefined.
    ZeroDenominator {
        /// Description of the offending chain.
        chain: String,
    },
    /// A kernel has no containing window with positive measured time,
    /// so its coefficient is undefined.
    UndefinedCoefficient {
        /// Name of the kernel.
        kernel: String,
    },
    /// The number of supplied per-kernel models does not match the
    /// kernel set.
    ModelCountMismatch {
        /// Models supplied.
        supplied: usize,
        /// Kernels expected.
        expected: usize,
    },
}

impl fmt::Display for CouplingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CouplingError::BadChainLength { requested, kernels } => write!(
                f,
                "chain length {requested} is invalid for a loop of {kernels} kernels \
                 (must be 1..={kernels})"
            ),
            CouplingError::ZeroDenominator { chain } => {
                write!(
                    f,
                    "chain {chain} has zero total isolated time; coupling undefined"
                )
            }
            CouplingError::UndefinedCoefficient { kernel } => {
                write!(
                    f,
                    "kernel '{kernel}' has no weighted window; coefficient undefined"
                )
            }
            CouplingError::ModelCountMismatch { supplied, expected } => {
                write!(f, "got {supplied} kernel models, expected {expected}")
            }
        }
    }
}

impl std::error::Error for CouplingError {}

/// Result alias for the measurement path.
pub type KcResult<T> = Result<T, KcError>;

/// Errors from the measurement-provider path (cell resolution,
/// cache/backend access, analysis assembly).  Wraps [`CouplingError`]
/// so the whole measurement pipeline reports failures instead of
/// panicking.
#[derive(Clone, Debug, PartialEq)]
pub enum KcError {
    /// The coupling algebra rejected the assembled measurements.
    Coupling(CouplingError),
    /// A measurement key names a benchmark the provider cannot build.
    UnknownBenchmark(String),
    /// A measurement key names a problem class the provider cannot
    /// build.
    UnknownClass(String),
    /// A measurement key carries a machine fingerprint that was never
    /// registered with the provider.
    UnknownMachine {
        /// The unresolvable fingerprint.
        fingerprint: String,
    },
    /// A measurement key carries an execution-config digest that was
    /// never registered with the provider.
    UnknownExecConfig {
        /// The unresolvable digest.
        digest: String,
    },
    /// A measurement key is structurally invalid for its target (e.g.
    /// a chain referencing kernels outside the loop).
    BadCell {
        /// Canonical form of the offending key.
        key: String,
        /// What is wrong with it.
        reason: String,
    },
    /// An assembly read a cell that is not in the in-memory cache: no
    /// prefetch brought it in.
    NotPrefetched {
        /// Canonical form of the missing cell's key.
        key: String,
        /// What was being assembled (an analysis, an experiment).
        reader: String,
    },
    /// Persistence (store/backend) failure.
    Io(String),
}

impl From<CouplingError> for KcError {
    fn from(e: CouplingError) -> Self {
        KcError::Coupling(e)
    }
}

impl fmt::Display for KcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KcError::Coupling(e) => write!(f, "coupling error: {e}"),
            KcError::UnknownBenchmark(b) => write!(f, "unknown benchmark '{b}'"),
            KcError::UnknownClass(c) => write!(f, "unknown problem class '{c}'"),
            KcError::UnknownMachine { fingerprint } => {
                write!(f, "no machine registered for fingerprint {fingerprint}")
            }
            KcError::UnknownExecConfig { digest } => {
                write!(f, "no exec config registered for digest {digest}")
            }
            KcError::BadCell { key, reason } => {
                write!(f, "invalid measurement cell {key}: {reason}")
            }
            KcError::NotPrefetched { key, reader } => {
                write!(f, "{reader} reads cell {key}, which no prefetch brought in")
            }
            KcError::Io(msg) => write!(f, "measurement store error: {msg}"),
        }
    }
}

impl std::error::Error for KcError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            KcError::Coupling(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = CouplingError::BadChainLength {
            requested: 9,
            kernels: 5,
        };
        assert!(e.to_string().contains("9"));
        assert!(e.to_string().contains("5"));
        let e = CouplingError::ZeroDenominator {
            chain: "{a,b}".into(),
        };
        assert!(e.to_string().contains("{a,b}"));
    }

    #[test]
    fn kc_error_wraps_and_displays() {
        let inner = CouplingError::BadChainLength {
            requested: 9,
            kernels: 5,
        };
        let e: KcError = inner.clone().into();
        assert_eq!(e, KcError::Coupling(inner));
        assert!(e.to_string().contains("chain length 9"));
        let e = KcError::UnknownMachine {
            fingerprint: "deadbeef".into(),
        };
        assert!(e.to_string().contains("deadbeef"));
        let e = KcError::BadCell {
            key: "k".into(),
            reason: "out of range".into(),
        };
        assert!(e.to_string().contains("out of range"));
    }
}
