//! Marked-graph structure theory (Appendix A.5 of the paper).
//!
//! A *marked graph* is a Petri net in which every place has exactly one
//! input and one output transition, so places behave like edges of a
//! directed multigraph over the transitions. The classical results of
//! Commoner, Holt, Even & Pnueli connect behavioural properties to cycle
//! structure:
//!
//! * **Theorem A.5.1** — a marking is live iff the token count of every
//!   simple cycle is positive ([`check_live`]).
//! * **Theorem A.5.2** — a live marking is safe iff every place lies on a
//!   simple cycle with token count 1 ([`check_safe`]).
//! * **Theorem A.5.3** — a cyclic firing sequence fires every transition
//!   equally often (checked behaviourally by the scheduling layer).
//!
//! Marked graphs are structurally persistent (each place has a single
//! consumer, so one firing can never disable another) and consistent (the
//! all-ones firing vector reproduces any marking).

use crate::cycles::transition_multigraph;
use crate::error::PetriError;
use crate::ids::{PlaceId, TransitionId};
use crate::marking::Marking;
use crate::net::PetriNet;

/// Checks liveness of `marking` for the marked graph `net`
/// (Theorem A.5.1): no simple cycle may be token-free.
///
/// # Errors
///
/// * [`PetriError::NotAMarkedGraph`] if `net` is not a marked graph.
/// * [`PetriError::NotLive`] with a witnessing token-free cycle otherwise.
///
/// # Example
///
/// ```
/// use tpn_petri::{PetriNet, Marking};
/// use tpn_petri::marked::check_live;
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
/// assert!(check_live(&net, &Marking::from_pairs(&net, [(ack, 1)])).is_ok());
/// assert!(check_live(&net, &Marking::empty(&net)).is_err());
/// ```
pub fn check_live(net: &PetriNet, marking: &Marking) -> Result<(), PetriError> {
    net.validate_marked_graph()?;
    live(net.num_transitions(), || {
        net.places().map(|(pid, place)| {
            let (from, to) = (place.preset()[0].index(), place.postset()[0].index());
            (from, to, marking.tokens(pid))
        })
    })
}

/// A marked graph as rate analysis reads it: the execution time of each
/// transition, and each place as `(producer, consumer, tokens)` by index,
/// in place order. [`check_live`] and [`crate::ratio::critical_ratio`]
/// reduce their net to this form; a caller that holds the structure
/// already, such as the storage optimiser, builds it directly and skips
/// building a [`PetriNet`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MarkedArcs {
    /// `τ` of each transition.
    pub times: Vec<u64>,
    /// `(from, to, tokens)` of each place.
    pub places: Vec<(usize, usize, u32)>,
}

impl MarkedArcs {
    /// The arcs of `net` under `marking`.
    ///
    /// # Errors
    ///
    /// [`PetriError::NotAMarkedGraph`] if `net` is not a marked graph.
    pub fn new(net: &PetriNet, marking: &Marking) -> Result<Self, PetriError> {
        net.validate_marked_graph()?;
        Ok(MarkedArcs {
            times: net.transitions().map(|(_, t)| t.time()).collect(),
            places: net
                .places()
                .map(|(pid, place)| {
                    let (from, to) = (place.preset()[0].index(), place.postset()[0].index());
                    (from, to, marking.tokens(pid))
                })
                .collect(),
        })
    }

    /// [`check_live`] on the arcs: no simple cycle may be token-free.
    ///
    /// # Errors
    ///
    /// [`PetriError::NotLive`] with a witnessing token-free cycle.
    pub fn check_live(&self) -> Result<(), PetriError> {
        live(self.times.len(), || self.places.iter().copied())
    }
}

/// [`check_live`] over `n` transitions and the places `(from, to, tokens)`
/// that `places()` lists: a token-free cycle exists iff the transition
/// graph restricted to empty places has a cycle; find one by DFS. The
/// adjacency is CSR (one flat array and offsets) — this check runs on
/// every compile, so per-node allocations would dominate it.
fn live<I>(n: usize, places: impl Fn() -> I) -> Result<(), PetriError>
where
    I: Iterator<Item = (usize, usize, u32)>,
{
    let empty = || places().filter(|&(_, _, tokens)| tokens == 0);
    let mut start = vec![0usize; n + 1];
    for (from, _, _) in empty() {
        start[from + 1] += 1;
    }
    for v in 0..n {
        start[v + 1] += start[v];
    }
    let mut succ = vec![0usize; start[n]];
    let mut fill: Vec<usize> = start[..n].to_vec();
    for (from, to, _) in empty() {
        succ[fill[from]] = to;
        fill[from] += 1;
    }
    // Colours: 0 = white, 1 = on stack, 2 = done.
    let mut colour = vec![0u8; n];
    let mut parent_edge: Vec<usize> = vec![usize::MAX; n];
    for root in 0..n {
        if colour[root] != 0 {
            continue;
        }
        // Iterative DFS keeping the grey path so we can report the cycle.
        let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
        colour[root] = 1;
        while let Some(&mut (v, ref mut ei)) = stack.last_mut() {
            if start[v] + *ei < start[v + 1] {
                let w = succ[start[v] + *ei];
                *ei += 1;
                match colour[w] {
                    0 => {
                        colour[w] = 1;
                        parent_edge[w] = v;
                        stack.push((w, 0));
                    }
                    1 => {
                        // Found a token-free cycle w -> ... -> v -> w.
                        let mut cycle = vec![TransitionId::from_index(v)];
                        let mut cur = v;
                        while cur != w {
                            cur = parent_edge[cur];
                            cycle.push(TransitionId::from_index(cur));
                        }
                        cycle.reverse();
                        return Err(PetriError::NotLive { cycle });
                    }
                    _ => {}
                }
            } else {
                colour[v] = 2;
                stack.pop();
            }
        }
    }
    Ok(())
}

/// Checks safety of a **live** marking for the marked graph `net`
/// (Theorem A.5.2): every place must lie on a simple cycle with token
/// count 1.
///
/// # Errors
///
/// * Whatever [`check_live`] reports if the marking is not live (safety is
///   only meaningful for live markings).
/// * [`PetriError::NotSafe`] naming a place whose minimum token-count cycle
///   has more than one token, or that lies on no cycle at all.
pub fn check_safe(net: &PetriNet, marking: &Marking) -> Result<(), PetriError> {
    check_live(net, marking)?;
    let adj = transition_multigraph(net);
    for (pid, place) in net.places() {
        let producer = place.preset()[0].index();
        let consumer = place.postset()[0].index();
        // Minimum token-count path consumer -> producer closes the minimum
        // token-count simple cycle through this place.
        match min_token_distance(&adj, marking, consumer, producer) {
            Some(d) => {
                let min_cycle_tokens = d + marking.tokens(pid) as u64;
                if min_cycle_tokens != 1 {
                    return Err(PetriError::NotSafe { place: pid });
                }
            }
            None => return Err(PetriError::NotSafe { place: pid }),
        }
    }
    Ok(())
}

/// Convenience: checks both liveness and safety.
///
/// # Errors
///
/// Propagates the first failure from [`check_live`] / [`check_safe`].
pub fn check_live_safe(net: &PetriNet, marking: &Marking) -> Result<(), PetriError> {
    check_safe(net, marking)
}

/// Dijkstra over token counts (non-negative weights) in the transition
/// multigraph; returns the minimum token sum of a path `from -> to`, or
/// `None` if unreachable. A zero-length path has distance 0 only when
/// `from == to`.
fn min_token_distance(
    adj: &[Vec<(usize, PlaceId)>],
    marking: &Marking,
    from: usize,
    to: usize,
) -> Option<u64> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let n = adj.len();
    let mut dist = vec![u64::MAX; n];
    let mut heap = BinaryHeap::new();
    dist[from] = 0;
    heap.push(Reverse((0u64, from)));
    while let Some(Reverse((d, v))) = heap.pop() {
        if d > dist[v] {
            continue;
        }
        if v == to {
            return Some(d);
        }
        for &(w, pid) in &adj[v] {
            let nd = d + marking.tokens(pid) as u64;
            if nd < dist[w] {
                dist[w] = nd;
                heap.push(Reverse((nd, w)));
            }
        }
    }
    if dist[to] == u64::MAX {
        None
    } else {
        Some(dist[to])
    }
}

/// Whether the integer assignment `weights` (one per transition) witnesses
/// consistency of the net (Appendix A.4): at every place, the weight of its
/// producers equals the weight of its consumers.
///
/// For a marked graph the all-ones vector is such a witness on every
/// weakly-connected net, which is why cyclic frustums fire each transition
/// equally often.
///
/// # Panics
///
/// Panics if `weights.len() != net.num_transitions()`.
pub fn is_consistent_with(net: &PetriNet, weights: &[u64]) -> bool {
    assert_eq!(
        weights.len(),
        net.num_transitions(),
        "one weight per transition"
    );
    if weights.contains(&0) {
        return false;
    }
    net.places().all(|(_, place)| {
        let inflow: u64 = place.preset().iter().map(|t| weights[t.index()]).sum();
        let outflow: u64 = place.postset().iter().map(|t| weights[t.index()]).sum();
        inflow == outflow
    })
}

/// The canonical consistency witness for a marked graph: the all-ones
/// firing vector.
///
/// # Errors
///
/// Returns [`PetriError::NotAMarkedGraph`] if `net` is not a marked graph.
pub fn marked_graph_consistency(net: &PetriNet) -> Result<Vec<u64>, PetriError> {
    net.validate_marked_graph()?;
    Ok(vec![1; net.num_transitions()])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The L2-like net: ring of 3 with one token, plus a 2-cycle.
    fn ring3(tokens_on: &[usize]) -> (PetriNet, Marking, Vec<PlaceId>) {
        let mut net = PetriNet::new();
        let t: Vec<_> = (0..3)
            .map(|i| net.add_transition(format!("t{i}"), 1))
            .collect();
        let mut ps = Vec::new();
        for i in 0..3 {
            let p = net.add_place(format!("p{i}"));
            net.connect_tp(t[i], p);
            net.connect_pt(p, t[(i + 1) % 3]);
            ps.push(p);
        }
        let mut m = Marking::empty(&net);
        for &i in tokens_on {
            m.add(ps[i], 1);
        }
        (net, m, ps)
    }

    #[test]
    fn live_iff_every_cycle_has_token() {
        let (net, m, _) = ring3(&[0]);
        assert!(check_live(&net, &m).is_ok());
        let (net, empty, _) = ring3(&[]);
        let err = check_live(&net, &empty).unwrap_err();
        match err {
            PetriError::NotLive { cycle } => assert_eq!(cycle.len(), 3),
            other => panic!("expected NotLive, got {other:?}"),
        }
    }

    #[test]
    fn safety_requires_token_count_exactly_one() {
        let (net, m, _) = ring3(&[0]);
        assert!(check_safe(&net, &m).is_ok());
        // Two tokens on the only cycle: live but places can hold 2 tokens.
        let (net, m2, _) = ring3(&[0, 1]);
        assert!(check_live(&net, &m2).is_ok());
        assert!(matches!(
            check_safe(&net, &m2),
            Err(PetriError::NotSafe { .. })
        ));
    }

    #[test]
    fn place_on_no_cycle_is_unsafe() {
        // a -> p -> b with no return path: live trivially has no cycles,
        // but p is on no cycle so the marking is not safe (p is unbounded
        // under repeated firing in larger contexts).
        let mut net = PetriNet::new();
        let a = net.add_transition("a", 1);
        let b = net.add_transition("b", 1);
        let p = net.add_place("p");
        net.connect_tp(a, p);
        net.connect_pt(p, b);
        let m = Marking::empty(&net);
        assert!(check_live(&net, &m).is_ok());
        assert_eq!(check_safe(&net, &m), Err(PetriError::NotSafe { place: p }));
    }

    #[test]
    fn self_loop_with_one_token_is_live_and_safe() {
        let mut net = PetriNet::new();
        let t = net.add_transition("t", 1);
        let p = net.add_place("self");
        net.connect_tp(t, p);
        net.connect_pt(p, t);
        let m = Marking::from_pairs(&net, [(p, 1)]);
        assert!(check_live_safe(&net, &m).is_ok());
        let empty = Marking::empty(&net);
        assert!(check_live(&net, &empty).is_err());
    }

    #[test]
    fn consistency_all_ones_for_marked_graph() {
        let (net, _, _) = ring3(&[0]);
        let w = marked_graph_consistency(&net).unwrap();
        assert!(is_consistent_with(&net, &w));
    }

    #[test]
    fn consistency_rejects_unbalanced_weights() {
        let (net, _, _) = ring3(&[0]);
        assert!(!is_consistent_with(&net, &[1, 2, 1]));
        assert!(!is_consistent_with(&net, &[0, 0, 0]));
        // Any uniform positive vector works for a connected marked graph.
        assert!(is_consistent_with(&net, &[4, 4, 4]));
    }

    #[test]
    fn liveness_on_multi_cycle_net_requires_all_cycles_marked() {
        // Ring of 3 plus a chord creating a 2-cycle t0 -> t1 -> t0.
        let (mut net, _, ps) = ring3(&[]);
        let chord = net.add_place("chord");
        net.connect_tp(TransitionId::from_index(1), chord);
        net.connect_pt(chord, TransitionId::from_index(0));
        // Token only on the ring: the 2-cycle t0 -p0-> t1 -chord-> t0 is
        // token-free unless p0 or chord carries a token.
        let m = Marking::from_pairs(&net, [(ps[1], 1)]);
        assert!(check_live(&net, &m).is_err());
        let m2 = Marking::from_pairs(&net, [(ps[1], 1), (chord, 1)]);
        assert!(check_live(&net, &m2).is_ok());
    }
}
