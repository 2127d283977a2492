//! The SDSP → SDSP-PN translation (§3.2 of the paper).
//!
//! Each actor becomes a transition with its execution time; each data arc
//! and each acknowledgement arc becomes a place. Arcs that initially hold a
//! token (feedback arcs, and acknowledgement arcs of chains whose storage
//! location is free) are marked. The two key properties the paper states —
//! that the initial marking is **live and safe** and that the SDSP-PN is a
//! **marked graph** — hold by construction and are re-checked in this
//! module's tests via both the structural theorems and explicit
//! reachability.
//!
//! Environment reads (input arrays, literals, the loop index) impose no
//! scheduling constraint: successive waves of array elements are always
//! available (§2), so they produce no places. A degenerate acknowledgement
//! whose chain already closes a cycle on its own (a self-feedback arc
//! `Q → Q`) would add a token-free self-loop place and deadlock the net;
//! since the data cycle itself already enforces the single-location
//! capacity, such acknowledgements produce no place either (the location is
//! still counted by [`Sdsp::storage_locations`]).

use tpn_petri::marked::MarkedArcs;
use tpn_petri::{Marking, PetriNet, PlaceId, TransitionId};

use crate::graph::{NodeId, Sdsp};

/// The Petri-net image of an SDSP, with the correspondence maps needed to
/// interpret analysis results back at the dataflow level.
#[derive(Clone, Debug)]
pub struct SdspPn {
    /// The SDSP-PN itself: a marked graph.
    pub net: PetriNet,
    /// Its initial marking (live and safe).
    pub marking: Marking,
    /// Transition of each SDSP node, indexed by node arena order.
    pub transition_of: Vec<TransitionId>,
    /// Place of each data arc, indexed by arc arena order.
    pub place_of_arc: Vec<PlaceId>,
    /// Place of each acknowledgement arc (None for degenerate
    /// self-feedback acknowledgements, which need no place).
    pub place_of_ack: Vec<Option<PlaceId>>,
}

impl SdspPn {
    /// The SDSP node behind `t`, if `t` is a node transition (in plain
    /// SDSP-PNs every transition is; resource models add dummies).
    pub fn node_of(&self, t: TransitionId) -> Option<NodeId> {
        self.transition_of
            .iter()
            .position(|&x| x == t)
            .map(NodeId::from_index)
    }
}

/// Translates a validated SDSP into its SDSP-PN.
///
/// # Example
///
/// ```
/// use tpn_dataflow::{SdspBuilder, OpKind, Operand};
/// use tpn_dataflow::to_petri::to_petri;
/// use tpn_petri::marked::check_live_safe;
///
/// let mut b = SdspBuilder::new();
/// let a = b.node("A", OpKind::Add, [Operand::env("X", 0), Operand::lit(5.0)]);
/// let _b2 = b.node("B", OpKind::Neg, [Operand::node(a)]);
/// let sdsp = b.finish()?;
/// let pn = to_petri(&sdsp);
/// assert!(pn.net.is_marked_graph());
/// assert!(check_live_safe(&pn.net, &pn.marking).is_ok());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn to_petri(sdsp: &Sdsp) -> SdspPn {
    let (arcs, place_of_ack) = to_marked_arcs(sdsp);
    let mut net = PetriNet::new();
    let transition_of: Vec<TransitionId> = sdsp
        .nodes()
        .map(|(_, node)| net.add_transition(node.name.clone(), node.time))
        .collect();
    let name = |id: NodeId| &sdsp.node(id).name;
    let data_names = sdsp
        .arcs()
        .map(|(_, arc)| format!("{}->{}", name(arc.from), name(arc.to)));
    let ack_names = sdsp
        .acks()
        .zip(&place_of_ack)
        .filter(|(_, place)| place.is_some())
        .map(|((_, ack), _)| format!("ack:{}=>{}", name(ack.from), name(ack.to)));
    let mut marking_pairs = Vec::new();
    for (&(from, to, tokens), name) in arcs.places.iter().zip(data_names.chain(ack_names)) {
        let p = net.add_place(name);
        net.connect_tp(transition_of[from], p);
        net.connect_pt(p, transition_of[to]);
        if tokens > 0 {
            marking_pairs.push((p, tokens));
        }
    }
    let marking = Marking::from_pairs(&net, marking_pairs);
    SdspPn {
        net,
        marking,
        transition_of,
        place_of_arc: (0..sdsp.arcs().count()).map(PlaceId::from_index).collect(),
        place_of_ack: place_of_ack
            .into_iter()
            .map(|p| p.map(PlaceId::from_index))
            .collect(),
    }
}

/// The SDSP-PN as rate analysis reads it, without building the net or
/// naming anything: one transition per node, then one place per data arc
/// (holding its initial tokens) and one per acknowledgement (holding the
/// free slots, `capacity − chain tokens`), in arena order. Also returns
/// the place index of each acknowledgement, `None` for self-feedback,
/// which gets no place. [`to_petri`] renders exactly these places.
pub fn to_marked_arcs(sdsp: &Sdsp) -> (MarkedArcs, Vec<Option<usize>>) {
    let times = sdsp.nodes().map(|(_, node)| node.time).collect();
    let mut places: Vec<(usize, usize, u32)> = sdsp
        .arcs()
        .map(|(_, arc)| (arc.from.index(), arc.to.index(), arc.initial_tokens()))
        .collect();
    let place_of_ack = sdsp
        .acks()
        .map(|(_, ack)| {
            if ack.from == ack.to {
                // Self-feedback: the data cycle already bounds the buffer.
                return None;
            }
            let chain_tokens: u32 = ack
                .covers
                .iter()
                .map(|&a| sdsp.arc(a).initial_tokens())
                .sum();
            debug_assert!(chain_tokens <= ack.capacity, "validated by Sdsp::validate");
            places.push((
                ack.from.index(),
                ack.to.index(),
                ack.capacity - chain_tokens,
            ));
            Some(places.len() - 1)
        })
        .collect();
    (MarkedArcs { times, places }, place_of_ack)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SdspBuilder;
    use crate::graph::Operand;
    use crate::ops::OpKind;
    use tpn_petri::marked::check_live_safe;
    use tpn_petri::ratio::critical_ratio;
    use tpn_petri::Ratio;

    fn l1() -> Sdsp {
        let mut b = SdspBuilder::new();
        let a = b.node("A", OpKind::Add, [Operand::env("X", 0), Operand::lit(5.0)]);
        let bb = b.node("B", OpKind::Add, [Operand::env("Y", 0), Operand::node(a)]);
        let c = b.node("C", OpKind::Add, [Operand::node(a), Operand::env("Z", 0)]);
        let d = b.node("D", OpKind::Add, [Operand::node(bb), Operand::node(c)]);
        let _e = b.node("E", OpKind::Add, [Operand::env("W", 0), Operand::node(d)]);
        b.finish().unwrap()
    }

    /// Loop L2 of the paper: same as L1 but C[i] reads E[i-1].
    fn l2() -> Sdsp {
        let mut b = SdspBuilder::new();
        let a = b.node("A", OpKind::Add, [Operand::env("X", 0), Operand::lit(5.0)]);
        let bb = b.node("B", OpKind::Add, [Operand::env("Y", 0), Operand::node(a)]);
        let c = b.node("C", OpKind::Add, [Operand::node(a), Operand::lit(0.0)]);
        let d = b.node("D", OpKind::Add, [Operand::node(bb), Operand::node(c)]);
        let e = b.node("E", OpKind::Add, [Operand::env("W", 0), Operand::node(d)]);
        b.set_operand(c, 1, Operand::feedback(e, 1));
        b.finish().unwrap()
    }

    #[test]
    fn l1_pn_is_live_safe_marked_graph() {
        let pn = to_petri(&l1());
        assert!(pn.net.is_marked_graph());
        assert!(check_live_safe(&pn.net, &pn.marking).is_ok());
        // 5 transitions, 5 data places + 5 ack places.
        assert_eq!(pn.net.num_transitions(), 5);
        assert_eq!(pn.net.num_places(), 10);
        // Initially only acks are marked: 5 tokens.
        assert_eq!(pn.marking.total(), 5);
    }

    #[test]
    fn l1_rate_is_one_half() {
        // With unit times and one buffer per arc, each fwd/ack pair is a
        // 2-cycle with one token: cycle time 2, rate 1/2 (Figure 1(e)'s
        // steady state fires each node every other cycle).
        let pn = to_petri(&l1());
        let r = critical_ratio(&pn.net, &pn.marking).unwrap();
        assert_eq!(r.cycle_time, Ratio::new(2, 1));
        assert_eq!(r.rate, Ratio::new(1, 2));
    }

    #[test]
    fn l2_pn_critical_cycle_is_cde() {
        // The paper (§6): critical cycle of L2 is C -> D -> E -> C with
        // cycle time 3, so the maximum computation rate is 1/3.
        let pn = to_petri(&l2());
        assert!(pn.net.is_marked_graph());
        assert!(check_live_safe(&pn.net, &pn.marking).is_ok());
        let r = critical_ratio(&pn.net, &pn.marking).unwrap();
        assert_eq!(r.cycle_time, Ratio::new(3, 1));
        assert_eq!(r.rate, Ratio::new(1, 3));
    }

    #[test]
    fn feedback_arc_carries_the_initial_token() {
        let s = l2();
        let pn = to_petri(&s);
        let (fb_id, _) = s
            .arcs()
            .find(|(_, a)| a.kind == crate::graph::ArcKind::Feedback)
            .unwrap();
        let place = pn.place_of_arc[fb_id.index()];
        assert_eq!(pn.marking.tokens(place), 1);
        // Its acknowledgement place exists but is empty (buffer full).
        let (ack_id, _) = s.acks().find(|(_, k)| k.covers.contains(&fb_id)).unwrap();
        let ack_place = pn.place_of_ack[ack_id.index()].unwrap();
        assert_eq!(pn.marking.tokens(ack_place), 0);
    }

    #[test]
    fn self_feedback_gets_no_ack_place() {
        // Q = Q + Z[i]*X[i] (Livermore loop 3).
        let mut b = SdspBuilder::new();
        let mul = b.node(
            "m",
            OpKind::Mul,
            [Operand::env("Z", 0), Operand::env("X", 0)],
        );
        let q = b.node("Q", OpKind::Add, [Operand::lit(0.0), Operand::node(mul)]);
        b.set_operand(q, 0, Operand::feedback(q, 1));
        let s = b.finish().unwrap();
        let pn = to_petri(&s);
        // Places: m->Q data, Q->Q feedback, ack Q=>m; self-ack omitted.
        assert_eq!(pn.net.num_places(), 3);
        assert!(pn.place_of_ack.iter().any(Option::is_none));
        assert!(check_live_safe(&pn.net, &pn.marking).is_ok());
        let r = critical_ratio(&pn.net, &pn.marking).unwrap();
        // Q -> Q self-cycle: 1 token, time 1... and the m/Q 2-cycle gives
        // cycle time 2.
        assert_eq!(r.cycle_time, Ratio::new(2, 1));
    }

    #[test]
    fn marked_arcs_match_the_built_net() {
        let mut b = SdspBuilder::new();
        let mul = b.node("m", OpKind::Mul, [Operand::env("Z", 0), Operand::lit(1.0)]);
        let q = b.node("Q", OpKind::Add, [Operand::lit(0.0), Operand::node(mul)]);
        b.set_operand(q, 0, Operand::feedback(q, 1));
        let self_feedback = b.finish().unwrap();
        for sdsp in [l1(), l2(), self_feedback] {
            let pn = to_petri(&sdsp);
            let (arcs, place_of_ack) = to_marked_arcs(&sdsp);
            assert_eq!(arcs, MarkedArcs::new(&pn.net, &pn.marking).unwrap());
            let expected: Vec<_> = pn
                .place_of_ack
                .iter()
                .map(|p| p.map(|p| p.index()))
                .collect();
            assert_eq!(place_of_ack, expected);
        }
    }

    #[test]
    fn node_of_round_trips() {
        let s = l1();
        let pn = to_petri(&s);
        for (nid, _) in s.nodes() {
            assert_eq!(pn.node_of(pn.transition_of[nid.index()]), Some(nid));
        }
    }

    #[test]
    fn coalesced_acks_translate_to_longer_cycles() {
        // L2 with the Figure 4 optimisation: acks of A->B and B->D merged.
        let s = l2();
        let names = s.names();
        let (a, b, d) = (names["A"], names["B"], names["D"]);
        let mut ab = None;
        let mut bd = None;
        for (id, arc) in s.arcs() {
            if arc.from == a && arc.to == b {
                ab = Some(id);
            }
            if arc.from == b && arc.to == d {
                bd = Some(id);
            }
        }
        let (ab, bd) = (ab.unwrap(), bd.unwrap());
        let mut acks: Vec<_> = s
            .acks()
            .filter(|(_, k)| !k.covers.contains(&ab) && !k.covers.contains(&bd))
            .map(|(_, k)| k.clone())
            .collect();
        acks.push(crate::graph::AckArc {
            from: d,
            to: a,
            covers: vec![ab, bd],
            capacity: 1,
        });
        let opt = s.with_acks(acks).unwrap();
        assert_eq!(opt.storage_locations(), 5); // was 6
        let pn = to_petri(&opt);
        assert!(check_live_safe(&pn.net, &pn.marking).is_ok());
        // Rate unchanged: the new A->B->D->A cycle has ratio 3/1 = the
        // critical cycle's, exactly the paper's Figure 4 observation.
        let r = critical_ratio(&pn.net, &pn.marking).unwrap();
        assert_eq!(r.cycle_time, Ratio::new(3, 1));
    }
}
