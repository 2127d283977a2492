//! Explicit reachability exploration for bounded nets (Appendix A.2–A.3).
//!
//! The structural theorems of [`tpn_petri::marked`] are fast but only
//! apply to marked graphs; this module provides the *behavioural*
//! definitions of liveness, boundedness, safety and persistence by
//! exhaustively exploring the forward marking class `R(M₀)`. It is
//! intended for small nets — the exploration takes an explicit state
//! limit — and is used throughout the test suites to cross-validate the
//! structural characterisations.

use std::collections::HashMap;
use std::fmt;

use tpn_petri::{Marking, PetriNet, TransitionId};

/// [`explore`] reached its state limit before closing the marking class:
/// more than `limit` markings are reachable (the net may be unbounded).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StateSpaceTooLarge {
    /// The limit that was exceeded.
    pub limit: usize,
}

impl fmt::Display for StateSpaceTooLarge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "reachability exploration exceeded {} markings",
            self.limit
        )
    }
}

impl std::error::Error for StateSpaceTooLarge {}

/// The reachability graph of a bounded net: every reachable marking and
/// every firing between them.
#[derive(Clone, Debug)]
pub struct ReachabilityGraph {
    markings: Vec<Marking>,
    /// `(source marking index, fired transition, target marking index)`.
    edges: Vec<(usize, TransitionId, usize)>,
}

impl ReachabilityGraph {
    /// All distinct reachable markings; index 0 is the initial marking.
    pub fn markings(&self) -> &[Marking] {
        &self.markings
    }

    /// All firings `(from, t, to)` between reachable markings.
    pub fn edges(&self) -> &[(usize, TransitionId, usize)] {
        &self.edges
    }

    /// Number of reachable markings.
    pub fn len(&self) -> usize {
        self.markings.len()
    }

    /// A reachability graph always contains at least the initial marking.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Behavioural liveness: from every reachable marking, every transition
    /// can eventually fire (Appendix A.3).
    pub fn is_live(&self, net: &PetriNet) -> bool {
        // For each transition t: the set of markings from which t is
        // eventually fireable is the backward closure of the sources of
        // t-edges. Live iff that closure covers all markings, for every t.
        let mut pred: Vec<Vec<usize>> = vec![Vec::new(); self.markings.len()];
        for &(from, _, to) in &self.edges {
            pred[to].push(from);
        }
        for t in net.transition_ids() {
            let mut can = vec![false; self.markings.len()];
            let mut work: Vec<usize> = self
                .edges
                .iter()
                .filter(|&&(_, tt, _)| tt == t)
                .map(|&(from, _, _)| from)
                .collect();
            for &w in &work {
                can[w] = true;
            }
            while let Some(m) = work.pop() {
                for &p in &pred[m] {
                    if !can[p] {
                        can[p] = true;
                        work.push(p);
                    }
                }
            }
            if !can.iter().all(|&c| c) {
                return false;
            }
        }
        true
    }

    /// Behavioural boundedness: no reachable marking puts more than `k`
    /// tokens on any place.
    pub fn is_bounded_by(&self, k: u32) -> bool {
        self.markings
            .iter()
            .all(|m| m.marked_places().all(|(_, n)| n <= k))
    }

    /// Behavioural safety: 1-boundedness.
    pub fn is_safe(&self) -> bool {
        self.is_bounded_by(1)
    }

    /// Behavioural persistence: whenever two distinct transitions are both
    /// enabled, firing one leaves the other enabled (Appendix A.3).
    pub fn is_persistent(&self, net: &PetriNet) -> bool {
        for m in &self.markings {
            let enabled = m.enabled_transitions(net);
            for &t1 in &enabled {
                for &t2 in &enabled {
                    if t1 == t2 {
                        continue;
                    }
                    let mut after = m.clone();
                    after.fire(net, t1);
                    if !after.enables(net, t2) {
                        return false;
                    }
                }
            }
        }
        true
    }
}

/// Explores the forward marking class of `initial`, visiting at most
/// `limit` distinct markings.
///
/// # Errors
///
/// Returns [`StateSpaceTooLarge`] if more than `limit` markings are
/// reachable.
///
/// # Example
///
/// ```
/// use tpn_petri::{PetriNet, Marking};
/// use tpn_conform::reach::explore;
///
/// let mut net = PetriNet::new();
/// let a = net.add_transition("A", 1);
/// let b = net.add_transition("B", 1);
/// let fwd = net.add_place("fwd");
/// let ack = net.add_place("ack");
/// net.connect_tp(a, fwd);
/// net.connect_pt(fwd, b);
/// net.connect_tp(b, ack);
/// net.connect_pt(ack, a);
///
/// let graph = explore(&net, Marking::from_pairs(&net, [(ack, 1)]), 100)?;
/// assert_eq!(graph.len(), 2); // token on ack / token on fwd
/// assert!(graph.is_live(&net));
/// assert!(graph.is_safe());
/// assert!(graph.is_persistent(&net));
/// # Ok::<(), tpn_conform::reach::StateSpaceTooLarge>(())
/// ```
pub fn explore(
    net: &PetriNet,
    initial: Marking,
    limit: usize,
) -> Result<ReachabilityGraph, StateSpaceTooLarge> {
    let mut index: HashMap<Marking, usize> = HashMap::new();
    let mut markings = vec![initial.clone()];
    index.insert(initial, 0);
    let mut edges = Vec::new();
    let mut frontier = vec![0usize];
    while let Some(mi) = frontier.pop() {
        let marking = markings[mi].clone();
        for t in marking.enabled_transitions(net) {
            let mut next = marking.clone();
            next.fire(net, t);
            let ni = match index.get(&next) {
                Some(&i) => i,
                None => {
                    if markings.len() >= limit {
                        return Err(StateSpaceTooLarge { limit });
                    }
                    let i = markings.len();
                    markings.push(next.clone());
                    index.insert(next, i);
                    frontier.push(i);
                    i
                }
            };
            edges.push((mi, t, ni));
        }
    }
    Ok(ReachabilityGraph { markings, edges })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring3(tokens: &[u32; 3]) -> (PetriNet, Marking) {
        let mut net = PetriNet::new();
        let ts: Vec<_> = (0..3)
            .map(|i| net.add_transition(format!("t{i}"), 1))
            .collect();
        let mut pairs = Vec::new();
        for i in 0..3 {
            let p = net.add_place(format!("p{i}"));
            net.connect_tp(ts[i], p);
            net.connect_pt(p, ts[(i + 1) % 3]);
            pairs.push((p, tokens[i]));
        }
        let m = Marking::from_pairs(&net, pairs);
        (net, m)
    }

    #[test]
    fn ring_reachability_counts() {
        let (net, m) = ring3(&[1, 0, 0]);
        let g = explore(&net, m, 100).unwrap();
        // The token travels around: 3 states.
        assert_eq!(g.len(), 3);
        assert_eq!(g.edges().len(), 3);
        assert!(g.is_live(&net));
        assert!(g.is_safe());
        assert!(g.is_persistent(&net));
    }

    #[test]
    fn dead_ring_is_not_live() {
        let (net, _) = ring3(&[1, 0, 0]);
        let g = explore(&net, Marking::empty(&net), 100).unwrap();
        assert_eq!(g.len(), 1);
        assert!(!g.is_live(&net));
    }

    #[test]
    fn two_tokens_not_safe_but_bounded() {
        let (net, m) = ring3(&[1, 1, 0]);
        let g = explore(&net, m, 100).unwrap();
        assert!(g.is_live(&net));
        assert!(!g.is_safe());
        assert!(g.is_bounded_by(2));
    }

    #[test]
    fn unbounded_net_hits_limit() {
        // A source transition with no inputs produces without bound.
        let mut net = PetriNet::new();
        let t = net.add_transition("src", 1);
        let p = net.add_place("sink");
        net.connect_tp(t, p);
        let err = explore(&net, Marking::empty(&net), 10).unwrap_err();
        assert_eq!(err, StateSpaceTooLarge { limit: 10 });
        assert_eq!(
            err.to_string(),
            "reachability exploration exceeded 10 markings"
        );
    }

    #[test]
    fn conflict_net_is_not_persistent() {
        // One token, two competing consumers: firing one disables the
        // other.
        let mut net = PetriNet::new();
        let a = net.add_transition("a", 1);
        let b = net.add_transition("b", 1);
        let shared = net.add_place("shared");
        let ra = net.add_place("ra");
        let rb = net.add_place("rb");
        net.connect_pt(shared, a);
        net.connect_pt(shared, b);
        net.connect_tp(a, ra);
        net.connect_tp(b, rb);
        let m = Marking::from_pairs(&net, [(shared, 1)]);
        let g = explore(&net, m, 100).unwrap();
        assert_eq!(g.len(), 3);
        assert!(!g.is_persistent(&net));
    }
}
