//! Enumeration of simple cycles in marked graphs (Johnson's algorithm).
//!
//! In a marked graph every place has exactly one producer and one consumer,
//! so places act as *edges* of a directed multigraph over the transitions.
//! Simple cycles of that multigraph are exactly the simple cycles used by
//! the paper's analyses: the token sum `M(C)` and value (execution-time) sum
//! `Ω(C)` of a cycle determine the cycle time `Ω(C)/M(C)` (Appendix A.7).
//!
//! Cycle counts can be exponential in the worst case (the paper cites
//! Magott's observation to this effect), so enumeration takes an explicit
//! `limit` and fails with [`PetriError::TooManyCycles`] rather than
//! diverging; policy iteration in [`crate::ratio`] covers nets too large
//! to enumerate.

use crate::error::PetriError;
use crate::ids::{PlaceId, TransitionId};
use crate::marking::Marking;
use crate::net::PetriNet;

/// A simple cycle through transitions and places of a marked graph.
///
/// `places[i]` is the place (edge) from `transitions[i]` to
/// `transitions[(i + 1) % len]`. Both vectors always have the same, nonzero
/// length. A self-loop place yields a cycle of length 1.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cycle {
    transitions: Vec<TransitionId>,
    places: Vec<PlaceId>,
}

impl Cycle {
    /// Builds a cycle from parallel transition/place lists.
    ///
    /// # Panics
    ///
    /// Panics if the lists are empty or of different lengths.
    pub fn new(transitions: Vec<TransitionId>, places: Vec<PlaceId>) -> Self {
        assert!(
            !transitions.is_empty(),
            "a cycle has at least one transition"
        );
        assert_eq!(
            transitions.len(),
            places.len(),
            "a cycle alternates transitions and places"
        );
        Cycle {
            transitions,
            places,
        }
    }

    /// The transitions along the cycle, in order.
    pub fn transitions(&self) -> &[TransitionId] {
        &self.transitions
    }

    /// The places along the cycle; `places()[i]` connects `transitions()[i]`
    /// to the next transition.
    pub fn places(&self) -> &[PlaceId] {
        &self.places
    }

    /// Number of transitions (equivalently places) on the cycle.
    pub fn len(&self) -> usize {
        self.transitions.len()
    }

    /// Cycles are never empty; this always returns `false`.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Token sum `M(C)`: tokens of `marking` on the cycle's places.
    pub fn token_sum(&self, marking: &Marking) -> u64 {
        self.places.iter().map(|&p| marking.tokens(p) as u64).sum()
    }

    /// Value sum `Ω(C)`: total execution time of the cycle's transitions.
    pub fn time_sum(&self, net: &PetriNet) -> u64 {
        self.transitions
            .iter()
            .map(|&t| net.transition(t).time())
            .sum()
    }
}

/// Adjacency representation of the transition multigraph of a marked graph.
pub(crate) fn transition_multigraph(net: &PetriNet) -> Vec<Vec<(usize, PlaceId)>> {
    let mut adj = vec![Vec::new(); net.num_transitions()];
    for (pid, place) in net.places() {
        // Marked graph: exactly one producer and one consumer.
        let from = place.preset()[0].index();
        let to = place.postset()[0].index();
        adj[from].push((to, pid));
    }
    adj
}

/// Enumerates all simple cycles of a marked graph, up to `limit`.
///
/// # Errors
///
/// * [`PetriError::NotAMarkedGraph`] if some place is not a single-producer,
///   single-consumer edge.
/// * [`PetriError::TooManyCycles`] if more than `limit` cycles exist.
///
/// # Example
///
/// ```
/// use tpn_petri::PetriNet;
/// use tpn_petri::cycles::simple_cycles;
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
/// let cycles = simple_cycles(&net, 16)?;
/// assert_eq!(cycles.len(), 1);
/// assert_eq!(cycles[0].len(), 2);
/// # Ok::<(), tpn_petri::PetriError>(())
/// ```
pub fn simple_cycles(net: &PetriNet, limit: usize) -> Result<Vec<Cycle>, PetriError> {
    net.validate_marked_graph()?;
    let adj = transition_multigraph(net);
    let mut enumerator = Johnson::new(&adj, limit);
    enumerator.run()?;
    Ok(enumerator.cycles)
}

/// Johnson's simple-cycle enumeration, adapted to multigraphs.
struct Johnson<'a> {
    adj: &'a [Vec<(usize, PlaceId)>],
    limit: usize,
    cycles: Vec<Cycle>,
    blocked: Vec<bool>,
    block_lists: Vec<Vec<usize>>,
    /// Vertices on the current DFS path (starting at `start`).
    path: Vec<usize>,
    /// `path_edges[i]` connects `path[i]` to `path[i + 1]`; one shorter than
    /// `path` during the search.
    path_edges: Vec<PlaceId>,
    start: usize,
    /// Vertices allowed in the current round (the SCC under exploration).
    allowed: Vec<bool>,
}

impl<'a> Johnson<'a> {
    fn new(adj: &'a [Vec<(usize, PlaceId)>], limit: usize) -> Self {
        let n = adj.len();
        Johnson {
            adj,
            limit,
            cycles: Vec::new(),
            blocked: vec![false; n],
            block_lists: vec![Vec::new(); n],
            path: Vec::new(),
            path_edges: Vec::new(),
            start: 0,
            allowed: vec![false; n],
        }
    }

    fn run(&mut self) -> Result<(), PetriError> {
        let n = self.adj.len();
        let mut s = 0;
        while s < n {
            // SCCs of the subgraph induced by vertices >= s.
            let sccs = sccs_at_least(self.adj, s);
            // The SCC containing the least vertex >= s that can carry a
            // cycle (size > 1, or a self-loop edge).
            let candidate = sccs
                .into_iter()
                .filter(|scc| {
                    scc.len() > 1
                        || scc
                            .iter()
                            .any(|&v| self.adj[v].iter().any(|&(w, _)| w == v))
                })
                .min_by_key(|scc| *scc.iter().min().expect("nonempty scc"));
            let Some(scc) = candidate else { break };
            let least = *scc.iter().min().expect("nonempty scc");
            self.allowed.iter_mut().for_each(|a| *a = false);
            for &v in &scc {
                self.allowed[v] = true;
            }
            for &v in &scc {
                self.blocked[v] = false;
                self.block_lists[v].clear();
            }
            self.start = least;
            self.circuit(least)?;
            s = least + 1;
        }
        Ok(())
    }

    fn unblock(&mut self, v0: usize) {
        let mut work = vec![v0];
        while let Some(v) = work.pop() {
            self.blocked[v] = false;
            let list = std::mem::take(&mut self.block_lists[v]);
            for w in list {
                if self.blocked[w] {
                    work.push(w);
                }
            }
        }
    }

    /// Iterative version of Johnson's `CIRCUIT` procedure (explicit frames
    /// to stay within thread stack limits on long cycles).
    fn circuit(&mut self, root: usize) -> Result<(), PetriError> {
        struct Frame {
            v: usize,
            edge_idx: usize,
            found: bool,
        }
        let mut frames = Vec::new();
        self.path.push(root);
        self.blocked[root] = true;
        frames.push(Frame {
            v: root,
            edge_idx: 0,
            found: false,
        });
        while let Some(frame) = frames.last_mut() {
            let v = frame.v;
            if frame.edge_idx < self.adj[v].len() {
                let (w, edge) = self.adj[v][frame.edge_idx];
                frame.edge_idx += 1;
                if !self.allowed[w] || w < self.start {
                    continue;
                }
                if w == self.start {
                    // Close the cycle through `edge`.
                    frame.found = true;
                    let transitions = self
                        .path
                        .iter()
                        .map(|&u| TransitionId::from_index(u))
                        .collect::<Vec<_>>();
                    let mut places = self.path_edges.clone();
                    places.push(edge);
                    self.cycles.push(Cycle::new(transitions, places));
                    if self.cycles.len() > self.limit {
                        return Err(PetriError::TooManyCycles { limit: self.limit });
                    }
                } else if !self.blocked[w] {
                    self.path_edges.push(edge);
                    self.path.push(w);
                    self.blocked[w] = true;
                    frames.push(Frame {
                        v: w,
                        edge_idx: 0,
                        found: false,
                    });
                }
            } else {
                let found = frame.found;
                if found {
                    self.unblock(v);
                } else {
                    for i in 0..self.adj[v].len() {
                        let (w, _) = self.adj[v][i];
                        if !self.allowed[w] || w < self.start {
                            continue;
                        }
                        if !self.block_lists[w].contains(&v) {
                            self.block_lists[w].push(v);
                        }
                    }
                }
                frames.pop();
                self.path.pop();
                if let Some(parent) = frames.last_mut() {
                    parent.found |= found;
                    self.path_edges.pop();
                }
            }
        }
        Ok(())
    }
}

/// Tarjan SCCs of the subgraph induced by vertices `>= s`.
fn sccs_at_least(adj: &[Vec<(usize, PlaceId)>], s: usize) -> Vec<Vec<usize>> {
    let n = adj.len();
    let mut index = vec![usize::MAX; n];
    let mut lowlink = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack = Vec::new();
    let mut next_index = 0usize;
    let mut sccs = Vec::new();

    // Iterative Tarjan to avoid deep recursion on long chains.
    enum Frame {
        Enter(usize),
        Resume(usize, usize),
    }
    for root in s..n {
        if index[root] != usize::MAX {
            continue;
        }
        let mut frames = vec![Frame::Enter(root)];
        while let Some(frame) = frames.pop() {
            match frame {
                Frame::Enter(v) => {
                    index[v] = next_index;
                    lowlink[v] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[v] = true;
                    frames.push(Frame::Resume(v, 0));
                }
                Frame::Resume(v, mut ei) => {
                    let mut descended = false;
                    while ei < adj[v].len() {
                        let (w, _) = adj[v][ei];
                        ei += 1;
                        if w < s {
                            continue;
                        }
                        if index[w] == usize::MAX {
                            frames.push(Frame::Resume(v, ei));
                            frames.push(Frame::Enter(w));
                            descended = true;
                            break;
                        } else if on_stack[w] {
                            lowlink[v] = lowlink[v].min(index[w]);
                        }
                    }
                    if descended {
                        continue;
                    }
                    if lowlink[v] == index[v] {
                        let mut scc = Vec::new();
                        while let Some(w) = stack.pop() {
                            on_stack[w] = false;
                            scc.push(w);
                            if w == v {
                                break;
                            }
                        }
                        sccs.push(scc);
                    }
                    // Propagate lowlink to parent.
                    if let Some(Frame::Resume(parent, _)) = frames.last() {
                        let parent = *parent;
                        lowlink[parent] = lowlink[parent].min(lowlink[v]);
                    }
                }
            }
        }
    }
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;

    /// fwd/ack two-cycle.
    fn two_cycle_net() -> (PetriNet, Marking) {
        let mut net = PetriNet::new();
        let a = net.add_transition("A", 1);
        let b = net.add_transition("B", 1);
        let fwd = net.add_place("fwd");
        let ack = net.add_place("ack");
        net.connect_tp(a, fwd);
        net.connect_pt(fwd, b);
        net.connect_tp(b, ack);
        net.connect_pt(ack, a);
        let m = Marking::from_pairs(&net, [(ack, 1)]);
        (net, m)
    }

    #[test]
    fn finds_single_two_cycle() {
        let (net, m) = two_cycle_net();
        let cycles = simple_cycles(&net, 16).unwrap();
        assert_eq!(cycles.len(), 1);
        let c = &cycles[0];
        assert_eq!(c.len(), 2);
        assert_eq!(c.token_sum(&m), 1);
        assert_eq!(c.time_sum(&net), 2);
    }

    /// Three transitions in a ring plus a chord, giving two simple cycles.
    #[test]
    fn finds_ring_and_chord_cycles() {
        let mut net = PetriNet::new();
        let t: Vec<_> = (0..3)
            .map(|i| net.add_transition(format!("t{i}"), 1))
            .collect();
        // ring 0 -> 1 -> 2 -> 0
        for i in 0..3 {
            let p = net.add_place(format!("ring{i}"));
            net.connect_tp(t[i], p);
            net.connect_pt(p, t[(i + 1) % 3]);
        }
        // chord 1 -> 0
        let chord = net.add_place("chord");
        net.connect_tp(t[1], chord);
        net.connect_pt(chord, t[0]);
        let cycles = simple_cycles(&net, 16).unwrap();
        assert_eq!(cycles.len(), 2);
        let mut lens: Vec<_> = cycles.iter().map(Cycle::len).collect();
        lens.sort_unstable();
        assert_eq!(lens, vec![2, 3]);
    }

    #[test]
    fn multigraph_parallel_places_count_as_distinct_cycles() {
        let mut net = PetriNet::new();
        let a = net.add_transition("A", 1);
        let b = net.add_transition("B", 1);
        for name in ["f1", "f2"] {
            let p = net.add_place(name);
            net.connect_tp(a, p);
            net.connect_pt(p, b);
        }
        let back = net.add_place("back");
        net.connect_tp(b, back);
        net.connect_pt(back, a);
        let cycles = simple_cycles(&net, 16).unwrap();
        // Two cycles: A -f1-> B -back-> A and A -f2-> B -back-> A.
        assert_eq!(cycles.len(), 2);
    }

    #[test]
    fn self_loop_place_is_a_cycle_of_length_one() {
        let mut net = PetriNet::new();
        let t = net.add_transition("T", 3);
        let p = net.add_place("self");
        net.connect_tp(t, p);
        net.connect_pt(p, t);
        let cycles = simple_cycles(&net, 16).unwrap();
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].len(), 1);
        assert_eq!(cycles[0].time_sum(&net), 3);
    }

    #[test]
    fn acyclic_net_has_no_cycles() {
        let mut net = PetriNet::new();
        let a = net.add_transition("A", 1);
        let b = net.add_transition("B", 1);
        let p = net.add_place("p");
        net.connect_tp(a, p);
        net.connect_pt(p, b);
        let cycles = simple_cycles(&net, 16).unwrap();
        assert!(cycles.is_empty());
    }

    #[test]
    fn limit_is_enforced() {
        // Complete bidirectional triangle has 5 simple cycles (3 two-cycles
        // + 2 three-cycles).
        let mut net = PetriNet::new();
        let t: Vec<_> = (0..3)
            .map(|i| net.add_transition(format!("t{i}"), 1))
            .collect();
        for i in 0..3 {
            for j in 0..3 {
                if i != j {
                    let p = net.add_place(format!("p{i}{j}"));
                    net.connect_tp(t[i], p);
                    net.connect_pt(p, t[j]);
                }
            }
        }
        let all = simple_cycles(&net, 100).unwrap();
        assert_eq!(all.len(), 5);
        assert_eq!(
            simple_cycles(&net, 3),
            Err(PetriError::TooManyCycles { limit: 3 })
        );
    }

    #[test]
    fn rejects_non_marked_graph() {
        let mut net = PetriNet::new();
        let a = net.add_transition("A", 1);
        let p = net.add_place("dangling");
        net.connect_tp(a, p);
        assert!(matches!(
            simple_cycles(&net, 16),
            Err(PetriError::NotAMarkedGraph { .. })
        ));
    }

    #[test]
    fn long_chain_does_not_overflow_stack() {
        // A long cycle of 5000 transitions exercises the iterative Tarjan.
        let mut net = PetriNet::new();
        let n = 5000;
        let ts: Vec<_> = (0..n)
            .map(|i| net.add_transition(format!("t{i}"), 1))
            .collect();
        for i in 0..n {
            let p = net.add_place(format!("p{i}"));
            net.connect_tp(ts[i], p);
            net.connect_pt(p, ts[(i + 1) % n]);
        }
        let cycles = simple_cycles(&net, 10).unwrap();
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].len(), n);
    }
}
