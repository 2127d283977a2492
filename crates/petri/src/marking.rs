//! Markings and the untimed firing rule (Appendix A.2).

use std::fmt;

use crate::ids::{PlaceId, TransitionId};
use crate::net::PetriNet;

/// A marking `M : P → ℕ`: the number of tokens on each place.
///
/// Markings are dense vectors indexed by [`PlaceId`]; they implement
/// `Hash`/`Eq` so that reachability exploration and cyclic-frustum detection
/// can use them as map keys.
///
/// # Example
///
/// ```
/// use tpn_petri::{PetriNet, Marking};
///
/// let mut net = PetriNet::new();
/// let t = net.add_transition("t", 1);
/// let a = net.add_place("a");
/// let b = net.add_place("b");
/// net.connect_pt(a, t);
/// net.connect_tp(t, b);
///
/// let mut m = Marking::empty(&net);
/// m.set(a, 1);
/// assert!(m.enables(&net, t));
/// m.fire(&net, t);
/// assert_eq!(m.tokens(a), 0);
/// assert_eq!(m.tokens(b), 1);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Marking {
    tokens: Vec<u32>,
}

impl Marking {
    /// The empty marking (no tokens anywhere) for `net`.
    pub fn empty(net: &PetriNet) -> Self {
        Marking {
            tokens: vec![0; net.num_places()],
        }
    }

    /// Builds a marking from `(place, count)` pairs, all other places empty.
    ///
    /// # Panics
    ///
    /// Panics if a place id is out of range for `net`.
    pub fn from_pairs(net: &PetriNet, pairs: impl IntoIterator<Item = (PlaceId, u32)>) -> Self {
        let mut m = Marking::empty(net);
        for (p, n) in pairs {
            m.set(p, n);
        }
        m
    }

    /// Tokens currently on `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[inline]
    pub fn tokens(&self, p: PlaceId) -> u32 {
        self.tokens[p.index()]
    }

    /// Sets the token count of `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[inline]
    pub fn set(&mut self, p: PlaceId, n: u32) {
        self.tokens[p.index()] = n;
    }

    /// Adds `n` tokens to `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range or the count overflows.
    #[inline]
    pub fn add(&mut self, p: PlaceId, n: u32) {
        let slot = &mut self.tokens[p.index()];
        *slot = slot.checked_add(n).expect("token count overflow");
    }

    /// Removes `n` tokens from `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range or holds fewer than `n` tokens.
    #[inline]
    pub fn remove(&mut self, p: PlaceId, n: u32) {
        let slot = &mut self.tokens[p.index()];
        *slot = slot
            .checked_sub(n)
            .expect("removing tokens from an underfull place");
    }

    /// Total number of tokens in the marking.
    pub fn total(&self) -> u64 {
        self.tokens.iter().map(|&n| n as u64).sum()
    }

    /// Number of places tracked by this marking.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Whether the marking covers no places (only for degenerate nets).
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Iterates over `(place, count)` for places with at least one token.
    pub fn marked_places(&self) -> impl Iterator<Item = (PlaceId, u32)> + '_ {
        self.tokens
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (PlaceId::from_index(i), n))
    }

    /// Whether `M` enables transition `t`: every input place holds a token
    /// (`M →t` in the paper's notation).
    pub fn enables(&self, net: &PetriNet, t: TransitionId) -> bool {
        net.transition(t)
            .inputs()
            .iter()
            .all(|&p| self.tokens(p) > 0)
    }

    /// All transitions enabled at this marking, in id order.
    pub fn enabled_transitions(&self, net: &PetriNet) -> Vec<TransitionId> {
        net.transition_ids()
            .filter(|&t| self.enables(net, t))
            .collect()
    }

    /// Fires `t` atomically (untimed semantics): removes one token from each
    /// input place and deposits one on each output place.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not enabled.
    pub fn fire(&mut self, net: &PetriNet, t: TransitionId) {
        assert!(self.enables(net, t), "transition {t} is not enabled");
        self.consume_inputs(net, t);
        self.produce_outputs(net, t);
    }

    /// Removes one token from each input place of `t` (the start of a timed
    /// firing).
    ///
    /// # Panics
    ///
    /// Panics if an input place is empty.
    pub fn consume_inputs(&mut self, net: &PetriNet, t: TransitionId) {
        for &p in net.transition(t).inputs() {
            self.remove(p, 1);
        }
    }

    /// Deposits one token on each output place of `t` (the end of a timed
    /// firing).
    pub fn produce_outputs(&mut self, net: &PetriNet, t: TransitionId) {
        for &p in net.transition(t).outputs() {
            self.add(p, 1);
        }
    }
}

impl fmt::Debug for Marking {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Marking{{")?;
        let mut first = true;
        for (p, n) in self.marked_places() {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            if n == 1 {
                write!(f, "{p}")?;
            } else {
                write!(f, "{p}:{n}")?;
            }
        }
        if first {
            write!(f, "empty")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for Marking {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> (
        PetriNet,
        TransitionId,
        TransitionId,
        PlaceId,
        PlaceId,
        PlaceId,
    ) {
        // a --(p0)--> t0 --(p1)--> t1 --(p2)
        let mut net = PetriNet::new();
        let t0 = net.add_transition("t0", 1);
        let t1 = net.add_transition("t1", 1);
        let p0 = net.add_place("p0");
        let p1 = net.add_place("p1");
        let p2 = net.add_place("p2");
        net.connect_pt(p0, t0);
        net.connect_tp(t0, p1);
        net.connect_pt(p1, t1);
        net.connect_tp(t1, p2);
        (net, t0, t1, p0, p1, p2)
    }

    #[test]
    fn enabling_and_firing_moves_tokens() {
        let (net, t0, t1, p0, p1, p2) = chain();
        let mut m = Marking::from_pairs(&net, [(p0, 1)]);
        assert!(m.enables(&net, t0));
        assert!(!m.enables(&net, t1));
        m.fire(&net, t0);
        assert_eq!(m.tokens(p0), 0);
        assert_eq!(m.tokens(p1), 1);
        m.fire(&net, t1);
        assert_eq!(m.tokens(p2), 1);
        assert_eq!(m.total(), 1);
    }

    #[test]
    #[should_panic(expected = "not enabled")]
    fn firing_disabled_transition_panics() {
        let (net, t0, ..) = chain();
        let mut m = Marking::empty(&net);
        m.fire(&net, t0);
    }

    #[test]
    fn enabled_transitions_in_id_order() {
        let (net, t0, t1, p0, p1, _) = chain();
        let m = Marking::from_pairs(&net, [(p0, 1), (p1, 1)]);
        assert_eq!(m.enabled_transitions(&net), vec![t0, t1]);
    }

    #[test]
    fn marked_places_skips_empty() {
        let (net, _, _, p0, _, p2) = chain();
        let m = Marking::from_pairs(&net, [(p0, 1), (p2, 3)]);
        let pairs: Vec<_> = m.marked_places().collect();
        assert_eq!(pairs, vec![(p0, 1), (p2, 3)]);
    }

    #[test]
    fn debug_format_lists_tokens() {
        let (net, _, _, p0, _, p2) = chain();
        let m = Marking::from_pairs(&net, [(p0, 1), (p2, 2)]);
        assert_eq!(format!("{m:?}"), "Marking{p0, p2:2}");
        let e = Marking::empty(&net);
        assert_eq!(format!("{e:?}"), "Marking{empty}");
    }

    #[test]
    #[should_panic(expected = "underfull")]
    fn remove_from_empty_place_panics() {
        let (net, _, _, p0, ..) = chain();
        let mut m = Marking::empty(&net);
        m.remove(p0, 1);
    }
}
