//! Error types for frustum detection and schedule derivation.

use std::error::Error;
use std::fmt;

use tpn_dataflow::NodeId;
use tpn_petri::PetriError;

/// Errors produced by the scheduling layer.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum SchedError {
    /// No instantaneous state repeated within the step budget. For live
    /// safe nets with deterministic policies this indicates the budget was
    /// too small (the state space is finite, so repetition is guaranteed
    /// eventually).
    FrustumNotFound {
        /// The exhausted step budget.
        max_steps: u64,
    },
    /// The net deadlocked: an instant passed with no activity and none
    /// pending.
    Deadlock {
        /// The instant at which everything went idle.
        time: u64,
    },
    /// A problem in the underlying net.
    Petri(PetriError),
    /// Schedule derivation found unequal firing counts for loop nodes
    /// where the marked-graph theory requires them to be uniform.
    NonUniformCounts {
        /// Two nodes with different frustum firing counts.
        nodes: (NodeId, NodeId),
        /// Their counts.
        counts: (u64, u64),
    },
    /// A node never fired inside the frustum, so no schedule row exists for
    /// it.
    NodeNeverFires {
        /// The silent node.
        node: NodeId,
    },
    /// The loop has no nodes, so per-node rates (and the SCP resource
    /// bound `1/n`) are undefined.
    EmptyLoop,
    /// The net exceeds the exhaustive optimality checker's size gate
    /// ([`crate::exact::EXACT_LIMIT`]); fall back to the scalable
    /// analyses.
    ExactTooLarge {
        /// Transitions in the offered net.
        transitions: usize,
        /// The checker's limit.
        limit: usize,
    },
    /// Trace-replay validation found the recorded event stream
    /// inconsistent with the net's semantics or the claimed rates.
    Trace(crate::validate::TraceViolation),
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::FrustumNotFound { max_steps } => {
                write!(f, "no repeated instantaneous state within {max_steps} steps")
            }
            SchedError::Deadlock { time } => {
                write!(f, "net deadlocked at time {time}")
            }
            SchedError::Petri(e) => write!(f, "{e}"),
            SchedError::NonUniformCounts { nodes, counts } => write!(
                f,
                "nodes {} and {} fire {} and {} times per frustum; a marked-graph frustum fires all nodes equally",
                nodes.0, nodes.1, counts.0, counts.1
            ),
            SchedError::NodeNeverFires { node } => {
                write!(f, "node {node} never fires inside the frustum")
            }
            SchedError::EmptyLoop => {
                write!(f, "the loop body is empty; rates are undefined")
            }
            SchedError::ExactTooLarge { transitions, limit } => write!(
                f,
                "net has {transitions} transitions; the exhaustive optimality checker is gated to {limit}"
            ),
            SchedError::Trace(v) => write!(f, "trace replay failed: {v}"),
        }
    }
}

impl Error for SchedError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SchedError::Petri(e) => Some(e),
            SchedError::Trace(v) => Some(v),
            _ => None,
        }
    }
}

impl From<crate::validate::TraceViolation> for SchedError {
    fn from(v: crate::validate::TraceViolation) -> Self {
        SchedError::Trace(v)
    }
}

impl From<PetriError> for SchedError {
    fn from(e: PetriError) -> Self {
        SchedError::Petri(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_meaningful() {
        let e = SchedError::FrustumNotFound { max_steps: 100 };
        assert!(e.to_string().contains("100"));
        let e = SchedError::NodeNeverFires {
            node: NodeId::from_index(2),
        };
        assert!(e.to_string().contains("n2"));
        let e: SchedError = PetriError::NoCycle.into();
        assert!(matches!(e, SchedError::Petri(_)));
        assert!(Error::source(&e).is_some());
    }
}
