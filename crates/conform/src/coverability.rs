//! Coverability (Karp–Miller) analysis for possibly-unbounded nets.
//!
//! The behaviour-graph machinery of the paper assumes live *safe* nets, so
//! plain reachability ([`crate::reach`]) suffices there. Diagnosing a
//! **broken** model — a translation bug that drops an acknowledgement arc,
//! say — needs the classical generalisation: the Karp–Miller tree, whose
//! markings take counts in ℕ ∪ {ω}. A place reaching ω is unbounded: some
//! firing sequence strictly pumps it. The tree is always finite, so the
//! analysis terminates even where explicit reachability diverges.

use std::collections::VecDeque;

use tpn_petri::{Marking, PetriNet, PlaceId, TransitionId};

/// A token count that may be the unbounded symbol ω.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Count {
    /// A concrete number of tokens.
    Finite(u32),
    /// Unbounded ("ω"): pumpable beyond any bound.
    Omega,
}

impl Count {
    fn at_least(self, n: u32) -> bool {
        match self {
            Count::Finite(v) => v >= n,
            Count::Omega => true,
        }
    }

    fn minus(self, n: u32) -> Count {
        match self {
            Count::Finite(v) => Count::Finite(v - n),
            Count::Omega => Count::Omega,
        }
    }

    fn plus(self, n: u32) -> Count {
        match self {
            Count::Finite(v) => Count::Finite(v + n),
            Count::Omega => Count::Omega,
        }
    }
}

impl std::fmt::Display for Count {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Count::Finite(v) => write!(f, "{v}"),
            Count::Omega => write!(f, "\u{03C9}"),
        }
    }
}

/// An extended marking: one [`Count`] per place.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct OmegaMarking {
    counts: Vec<Count>,
}

impl OmegaMarking {
    /// Lifts a concrete marking.
    pub fn from_marking(marking: &Marking) -> Self {
        OmegaMarking {
            counts: (0..marking.len())
                .map(|i| Count::Finite(marking.tokens(PlaceId::from_index(i))))
                .collect(),
        }
    }

    /// The count of `p`.
    pub fn count(&self, p: PlaceId) -> Count {
        self.counts[p.index()]
    }

    /// Whether every count of `self` is ≥ the corresponding count of
    /// `other` (the coverability order).
    pub fn covers(&self, other: &OmegaMarking) -> bool {
        self.counts
            .iter()
            .zip(&other.counts)
            .all(|(a, b)| match (a, b) {
                (Count::Omega, _) => true,
                (Count::Finite(_), Count::Omega) => false,
                (Count::Finite(x), Count::Finite(y)) => x >= y,
            })
    }

    fn enabled(&self, net: &PetriNet, t: TransitionId) -> bool {
        net.transition(t)
            .inputs()
            .iter()
            .all(|&p| self.counts[p.index()].at_least(1))
    }

    fn fire(&self, net: &PetriNet, t: TransitionId) -> OmegaMarking {
        let mut next = self.clone();
        for &p in net.transition(t).inputs() {
            next.counts[p.index()] = next.counts[p.index()].minus(1);
        }
        for &p in net.transition(t).outputs() {
            next.counts[p.index()] = next.counts[p.index()].plus(1);
        }
        next
    }

    /// ω-accelerates against an ancestor: any place strictly grown along a
    /// covering path pumps without bound.
    fn accelerate(&mut self, ancestor: &OmegaMarking) {
        for (mine, old) in self.counts.iter_mut().zip(&ancestor.counts) {
            if let (Count::Finite(a), Count::Finite(b)) = (*mine, *old) {
                if a > b {
                    *mine = Count::Omega;
                }
            }
        }
    }
}

/// The result of coverability analysis.
#[derive(Clone, Debug)]
pub struct Coverability {
    /// All distinct extended markings discovered.
    pub markings: Vec<OmegaMarking>,
    /// Places that can grow without bound.
    pub unbounded_places: Vec<PlaceId>,
}

impl Coverability {
    /// Whether the net (from the analysed marking) is bounded.
    pub fn is_bounded(&self) -> bool {
        self.unbounded_places.is_empty()
    }

    /// The tightest uniform bound `k` such that the net is `k`-bounded,
    /// or `None` if some place is unbounded.
    pub fn bound(&self) -> Option<u32> {
        let mut best = 0u32;
        for m in &self.markings {
            for &c in &m.counts {
                match c {
                    Count::Finite(v) => best = best.max(v),
                    Count::Omega => return None,
                }
            }
        }
        Some(best)
    }
}

/// Builds the Karp–Miller coverability tree from `initial`.
///
/// Always terminates; the tree can be large in pathological cases, so a
/// node `limit` guards against blow-up.
///
/// # Panics
///
/// Panics if more than `limit` tree nodes are generated.
///
/// # Example
///
/// A producer with no consumer is unbounded; adding an acknowledgement
/// bounds it:
///
/// ```
/// use tpn_petri::{PetriNet, Marking};
/// use tpn_conform::coverability::analyze;
///
/// let mut net = PetriNet::new();
/// let src = net.add_transition("src", 1);
/// let p = net.add_place("p");
/// net.connect_tp(src, p);
/// let cov = analyze(&net, &Marking::empty(&net), 10_000);
/// assert!(!cov.is_bounded());
/// assert_eq!(cov.unbounded_places, vec![p]);
/// ```
pub fn analyze(net: &PetriNet, initial: &Marking, limit: usize) -> Coverability {
    let root = OmegaMarking::from_marking(initial);
    // Tree nodes: (marking, parent index).
    let mut nodes: Vec<(OmegaMarking, Option<usize>)> = vec![(root, None)];
    let mut work: VecDeque<usize> = VecDeque::from([0]);
    // Nodes whose subtree is closed because an equal marking exists.
    let mut seen: Vec<OmegaMarking> = vec![nodes[0].0.clone()];

    while let Some(idx) = work.pop_front() {
        let marking = nodes[idx].0.clone();
        for t in net.transition_ids() {
            if !marking.enabled(net, t) {
                continue;
            }
            let mut next = marking.fire(net, t);
            // Accelerate against every ancestor it covers.
            let mut cursor = Some(idx);
            while let Some(c) = cursor {
                let (ancestor, parent) = (&nodes[c].0, nodes[c].1);
                if next.covers(ancestor) && &next != ancestor {
                    let ancestor = ancestor.clone();
                    next.accelerate(&ancestor);
                }
                cursor = parent;
            }
            if seen.contains(&next) {
                continue;
            }
            assert!(
                nodes.len() < limit,
                "coverability tree exceeded {limit} nodes"
            );
            seen.push(next.clone());
            nodes.push((next, Some(idx)));
            work.push_back(nodes.len() - 1);
        }
    }

    let mut unbounded: Vec<PlaceId> = Vec::new();
    for p in net.place_ids() {
        if nodes.iter().any(|(m, _)| m.count(p) == Count::Omega) {
            unbounded.push(p);
        }
    }
    Coverability {
        markings: seen,
        unbounded_places: unbounded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_ring_reports_its_bound() {
        let mut net = PetriNet::new();
        let ts: Vec<_> = (0..3)
            .map(|i| net.add_transition(format!("t{i}"), 1))
            .collect();
        let mut first = None;
        for i in 0..3 {
            let p = net.add_place(format!("p{i}"));
            net.connect_tp(ts[i], p);
            net.connect_pt(p, ts[(i + 1) % 3]);
            first.get_or_insert(p);
        }
        let m = Marking::from_pairs(&net, [(first.unwrap(), 2)]);
        let cov = analyze(&net, &m, 10_000);
        assert!(cov.is_bounded());
        assert_eq!(cov.bound(), Some(2));
    }

    #[test]
    fn source_transition_is_unbounded() {
        let mut net = PetriNet::new();
        let src = net.add_transition("src", 1);
        let p = net.add_place("p");
        net.connect_tp(src, p);
        let cov = analyze(&net, &Marking::empty(&net), 10_000);
        assert!(!cov.is_bounded());
        assert_eq!(cov.bound(), None);
        assert_eq!(cov.unbounded_places, vec![p]);
    }

    #[test]
    fn dropping_an_acknowledgement_makes_the_data_place_unbounded() {
        // Producer/consumer WITH ack: bounded. Without: the data place
        // pumps — exactly the translation bug this analysis diagnoses.
        let mut with_ack = PetriNet::new();
        let a = with_ack.add_transition("A", 1);
        let b = with_ack.add_transition("B", 1);
        let data = with_ack.add_place("data");
        let ack = with_ack.add_place("ack");
        with_ack.connect_tp(a, data);
        with_ack.connect_pt(data, b);
        with_ack.connect_tp(b, ack);
        with_ack.connect_pt(ack, a);
        let m = Marking::from_pairs(&with_ack, [(ack, 1)]);
        assert!(analyze(&with_ack, &m, 10_000).is_bounded());

        let mut without = PetriNet::new();
        let a = without.add_transition("A", 1);
        let b = without.add_transition("B", 1);
        let data = without.add_place("data");
        without.connect_tp(a, data);
        without.connect_pt(data, b);
        let _ = (a, b);
        let cov = analyze(&without, &Marking::empty(&without), 10_000);
        assert!(!cov.is_bounded());
        assert_eq!(cov.unbounded_places, vec![data]);
    }

    #[test]
    fn sdsp_pns_are_one_bounded() {
        // Every place of a safe marked graph stays at <= 1 token.
        let mut net = PetriNet::new();
        let a = net.add_transition("A", 1);
        let b = net.add_transition("B", 1);
        let c = net.add_transition("C", 1);
        let mut pairs = Vec::new();
        for (x, y) in [(a, b), (b, c)] {
            let fwd = net.add_place(format!("{x}->{y}"));
            let ack = net.add_place(format!("{y}=>{x}"));
            net.connect_tp(x, fwd);
            net.connect_pt(fwd, y);
            net.connect_tp(y, ack);
            net.connect_pt(ack, x);
            pairs.push((ack, 1));
        }
        let m = Marking::from_pairs(&net, pairs);
        let cov = analyze(&net, &m, 100_000);
        assert_eq!(cov.bound(), Some(1));
    }

    #[test]
    fn capacity_two_buffers_are_two_bounded() {
        let mut net = PetriNet::new();
        let a = net.add_transition("A", 1);
        let b = net.add_transition("B", 1);
        let data = net.add_place("data");
        let ack = net.add_place("ack");
        net.connect_tp(a, data);
        net.connect_pt(data, b);
        net.connect_tp(b, ack);
        net.connect_pt(ack, a);
        let m = Marking::from_pairs(&net, [(ack, 2)]);
        let cov = analyze(&net, &m, 10_000);
        assert_eq!(cov.bound(), Some(2));
    }

    #[test]
    fn omega_counts_display() {
        assert_eq!(Count::Finite(3).to_string(), "3");
        assert_eq!(Count::Omega.to_string(), "\u{03C9}");
        assert!(Count::Omega.at_least(1_000_000));
    }

    #[test]
    fn covers_is_a_partial_order() {
        let mut net = PetriNet::new();
        let _ = net.add_transition("t", 1);
        let p = net.add_place("p");
        let q = net.add_place("q");
        let m10 = OmegaMarking::from_marking(&Marking::from_pairs(&net, [(p, 1)]));
        let m01 = OmegaMarking::from_marking(&Marking::from_pairs(&net, [(q, 1)]));
        let m11 = OmegaMarking::from_marking(&Marking::from_pairs(&net, [(p, 1), (q, 1)]));
        assert!(m11.covers(&m10) && m11.covers(&m01));
        assert!(!m10.covers(&m01) && !m01.covers(&m10));
        assert!(m10.covers(&m10));
    }
}
