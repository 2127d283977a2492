//! Error types for net construction and analysis.

use std::error::Error;
use std::fmt;

use crate::ids::{PlaceId, TransitionId};
use crate::rational::Ratio;

/// Errors produced by net construction, validation and analysis.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum PetriError {
    /// A place violates the marked-graph condition `|•p| = |p•| = 1`.
    NotAMarkedGraph {
        /// The offending place.
        place: PlaceId,
        /// Number of input transitions of the place.
        inputs: usize,
        /// Number of output transitions of the place.
        outputs: usize,
    },
    /// The marking admits a token-free simple cycle, so it is not live
    /// (Theorem A.5.1 of the paper).
    NotLive {
        /// Transitions along a witnessing token-free cycle.
        cycle: Vec<TransitionId>,
    },
    /// The marking is live but not safe: the given place does not lie on any
    /// simple cycle with token count 1 (Theorem A.5.2).
    NotSafe {
        /// The place that can accumulate more than one token.
        place: PlaceId,
    },
    /// Cycle enumeration exceeded the configured limit.
    TooManyCycles {
        /// The limit that was exceeded.
        limit: usize,
    },
    /// The net has no simple cycle at all, so no cycle time is defined.
    NoCycle,
    /// A transition has an execution time of zero; the discrete-time engine
    /// requires `τ ≥ 1`.
    ZeroExecutionTime {
        /// The offending transition.
        transition: TransitionId,
    },
    /// No scaled potentials exist for the trial cycle time: longest-path
    /// relaxation found a cycle of positive weight `q·Ω(C) − p·M(C)`, so
    /// some cycle's `Ω/M` exceeds `p/q` (or the cycle carries no tokens).
    PositiveCycle {
        /// The trial cycle time `p/q`.
        cycle_time: Ratio,
        /// A transition reached by a walk that contains the cycle.
        transition: TransitionId,
    },
}

impl fmt::Display for PetriError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PetriError::NotAMarkedGraph {
                place,
                inputs,
                outputs,
            } => write!(
                f,
                "place {place} has {inputs} input and {outputs} output transitions; \
                 a marked graph requires exactly one of each"
            ),
            PetriError::NotLive { cycle } => {
                write!(f, "marking is not live: token-free cycle through ")?;
                for (i, t) in cycle.iter().enumerate() {
                    if i > 0 {
                        write!(f, " -> ")?;
                    }
                    write!(f, "{t}")?;
                }
                Ok(())
            }
            PetriError::NotSafe { place } => write!(
                f,
                "marking is not safe: place {place} lies on no simple cycle with token count 1"
            ),
            PetriError::TooManyCycles { limit } => {
                write!(f, "more than {limit} simple cycles; enumeration aborted")
            }
            PetriError::NoCycle => write!(f, "net has no simple cycle; cycle time is undefined"),
            PetriError::ZeroExecutionTime { transition } => write!(
                f,
                "transition {transition} has execution time 0; the engine requires at least 1"
            ),
            PetriError::PositiveCycle {
                cycle_time,
                transition,
            } => write!(
                f,
                "potentials diverge at {transition}: a cycle's ratio exceeds \
                 the trial cycle time {cycle_time}"
            ),
        }
    }
}

impl Error for PetriError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_nonempty() {
        let errs = [
            PetriError::NotAMarkedGraph {
                place: PlaceId::from_index(0),
                inputs: 2,
                outputs: 0,
            },
            PetriError::NotLive {
                cycle: vec![TransitionId::from_index(0), TransitionId::from_index(1)],
            },
            PetriError::NotSafe {
                place: PlaceId::from_index(3),
            },
            PetriError::TooManyCycles { limit: 10 },
            PetriError::NoCycle,
            PetriError::ZeroExecutionTime {
                transition: TransitionId::from_index(2),
            },
            PetriError::PositiveCycle {
                cycle_time: Ratio::new(5, 2),
                transition: TransitionId::from_index(1),
            },
        ];
        for e in errs {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase() || s.starts_with('p'));
        }
    }
}
