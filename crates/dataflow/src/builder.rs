//! Incremental construction of SDSP graphs.

use std::collections::HashMap;

use crate::error::DataflowError;
use crate::graph::{AckArc, ArcKind, DataArc, Node, NodeId, Operand, Sdsp};
use crate::ops::OpKind;

/// Builder for [`Sdsp`] graphs.
///
/// Nodes are added one at a time; forward references are expressed by
/// adding the node first with a placeholder operand and patching it with
/// [`set_operand`](SdspBuilder::set_operand) (loop-carried self-references
/// need this, since the node id does not exist until the node is added).
///
/// [`finish`](SdspBuilder::finish) expands loop-carried dependences of
/// distance `d > 1` into chains of `d − 1` buffer ([`OpKind::Id`]) actors —
/// the paper's SDSP model carries exactly one token per feedback arc, so
/// longer distances are realised structurally — then derives the data arcs,
/// attaches the default one-acknowledgement-per-arc storage allocation, and
/// validates the result.
///
/// # Example
///
/// Loop 5 of the Livermore suite, `X[i] = Z[i] * (Y[i] - X[i-1])`:
///
/// ```
/// use tpn_dataflow::{SdspBuilder, OpKind, Operand};
///
/// let mut b = SdspBuilder::new();
/// let sub = b.node("t", OpKind::Sub, [Operand::env("Y", 0), Operand::lit(0.0)]);
/// let x = b.node("X", OpKind::Mul, [Operand::env("Z", 0), Operand::node(sub)]);
/// b.set_operand(sub, 1, Operand::feedback(x, 1)); // X[i-1]
/// let sdsp = b.finish()?;
/// assert!(sdsp.has_loop_carried_dependence());
/// # Ok::<(), tpn_dataflow::DataflowError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct SdspBuilder {
    nodes: Vec<Node>,
}

impl SdspBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a unit-time node and returns its id.
    pub fn node(
        &mut self,
        name: impl Into<String>,
        op: OpKind,
        operands: impl IntoIterator<Item = Operand>,
    ) -> NodeId {
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(Node {
            name: name.into(),
            op,
            operands: operands.into_iter().collect(),
            time: 1,
            initial_value: 0.0,
        });
        id
    }

    /// Overrides the execution time of `node` (default 1).
    ///
    /// # Panics
    ///
    /// Panics if `node` is unknown.
    pub fn set_time(&mut self, node: NodeId, time: u64) -> &mut Self {
        self.nodes[node.index()].time = time;
        self
    }

    /// Sets the initial (pre-loop) value seen by loop-carried consumers of
    /// `node` (default 0.0).
    ///
    /// # Panics
    ///
    /// Panics if `node` is unknown.
    pub fn set_initial(&mut self, node: NodeId, value: f64) -> &mut Self {
        self.nodes[node.index()].initial_value = value;
        self
    }

    /// Renames `node` (front-ends create operation nodes bottom-up with
    /// derived names and rename the statement's top node afterwards).
    ///
    /// # Panics
    ///
    /// Panics if `node` is unknown.
    pub fn set_name(&mut self, node: NodeId, name: impl Into<String>) -> &mut Self {
        self.nodes[node.index()].name = name.into();
        self
    }

    /// Replaces operand `slot` of `node`, enabling forward and
    /// self-references.
    ///
    /// # Panics
    ///
    /// Panics if `node` is unknown or `slot` is out of range for the
    /// operands supplied at [`node`](SdspBuilder::node) time.
    pub fn set_operand(&mut self, node: NodeId, slot: usize, operand: Operand) -> &mut Self {
        self.nodes[node.index()].operands[slot] = operand;
        self
    }

    /// Number of nodes added so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no nodes have been added.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Finishes construction: expands long feedback distances, derives data
    /// arcs and default acknowledgements, and validates.
    ///
    /// # Errors
    ///
    /// Any [`DataflowError`] reported by [`Sdsp::validate`], most commonly
    /// [`DataflowError::ForwardCycle`] for same-iteration dependence cycles
    /// and [`DataflowError::WrongArity`] for malformed operand lists.
    pub fn finish(mut self) -> Result<Sdsp, DataflowError> {
        self.expand_long_feedback();
        // Liveness repair: a loop-carried buffer of capacity one can
        // deadlock when its producer's first firing transitively waits on
        // its own consumer (the token-free cycle runs through feedback
        // acknowledgements — e.g. cross-coupled recurrences, or a producer
        // with both same-iteration and loop-carried consumers). Static
        // dataflow resolves this with a dedicated buffer actor on the
        // offending feedback; we insert buffers lazily, only where the
        // marked-graph liveness test actually fails, so loops that are
        // live as written (all of the paper's examples) keep their exact
        // structure. Each insertion removes one producer from all non-self
        // feedback positions, so the loop terminates.
        loop {
            let sdsp = self.build_candidate();
            sdsp.validate()?;
            // The arcs list the SDSP-PN's places in `to_petri`'s order, so
            // the check reports the same cycle without naming a net.
            match crate::to_petri::to_marked_arcs(&sdsp).0.check_live() {
                Ok(()) => return Ok(sdsp),
                Err(tpn_petri::PetriError::NotLive { cycle }) => {
                    let producer = self
                        .find_feedback_producer_on(&sdsp, &cycle)
                        .expect("a token-free cycle contains a feedback acknowledgement");
                    self.buffer_feedback_of(producer);
                }
                Err(other) => unreachable!("SDSP-PNs are marked graphs: {other}"),
            }
        }
    }

    /// Derives data arcs and the default one-acknowledgement-per-arc
    /// storage allocation from the current nodes.
    fn build_candidate(&self) -> Sdsp {
        let mut arcs = Vec::new();
        for (consumer_idx, node) in self.nodes.iter().enumerate() {
            for operand in &node.operands {
                if let Operand::Node {
                    node: producer,
                    distance,
                } = operand
                {
                    debug_assert!(*distance <= 1, "expanded in finish()");
                    arcs.push(DataArc {
                        from: *producer,
                        to: NodeId::from_index(consumer_idx),
                        kind: if *distance == 0 {
                            ArcKind::Forward
                        } else {
                            ArcKind::Feedback
                        },
                    });
                }
            }
        }
        let acks = arcs
            .iter()
            .enumerate()
            .map(|(i, arc)| AckArc::single(crate::graph::ArcId::from_index(i), arc))
            .collect();
        Sdsp {
            nodes: self.nodes.clone(),
            arcs,
            acks,
        }
    }

    /// Finds, on a witness token-free cycle of the candidate's SDSP-PN, a
    /// feedback producer whose acknowledgement participates — the arc to
    /// buffer. Transition indices equal node indices by construction of
    /// the translation.
    fn find_feedback_producer_on(
        &self,
        sdsp: &Sdsp,
        cycle: &[tpn_petri::TransitionId],
    ) -> Option<NodeId> {
        for (i, t) in cycle.iter().enumerate() {
            let consumer = NodeId::from_index(t.index());
            let producer = NodeId::from_index(cycle[(i + 1) % cycle.len()].index());
            // Is there a feedback arc producer -> consumer (whose ack is
            // the cycle edge consumer -> producer)?
            let has_fb = sdsp.arcs().any(|(_, a)| {
                a.kind == ArcKind::Feedback
                    && a.from == producer
                    && a.to == consumer
                    && a.from != a.to
            });
            if has_fb {
                return Some(producer);
            }
        }
        None
    }

    /// Inserts (or reuses) the buffer actor for `producer` and reroutes
    /// every non-self distance-1 feedback reference through it.
    fn buffer_feedback_of(&mut self, producer: NodeId) {
        let buf_name = format!("{}~fb", self.nodes[producer.index()].name);
        let buf = NodeId::from_index(self.nodes.len());
        self.nodes.push(Node {
            name: buf_name,
            op: OpKind::Id,
            operands: vec![Operand::node(producer)],
            time: 1,
            initial_value: self.nodes[producer.index()].initial_value,
        });
        for idx in 0..self.nodes.len() {
            if idx == producer.index() || idx == buf.index() {
                continue;
            }
            for operand in &mut self.nodes[idx].operands {
                if let Operand::Node { node, distance } = operand {
                    if *node == producer && *distance > 0 {
                        *node = buf;
                    }
                }
            }
        }
    }

    /// Rewrites operands with distance `d > 1` to go through shared chains
    /// of `Id` buffer nodes, each a distance-1 feedback hop.
    fn expand_long_feedback(&mut self) {
        // (producer, delay) -> buffer node holding the producer's value
        // delayed by `delay` iterations.
        let mut buffers: HashMap<(NodeId, u32), NodeId> = HashMap::new();
        for idx in 0..self.nodes.len() {
            for slot in 0..self.nodes[idx].operands.len() {
                let (producer, distance) = match self.nodes[idx].operands[slot] {
                    Operand::Node { node, distance } if distance > 1 => (node, distance),
                    _ => continue,
                };
                // Build (or reuse) buffers delaying by 1 .. distance-1.
                let mut upstream = producer;
                for delay in 1..distance {
                    let key = (producer, delay);
                    upstream = match buffers.get(&key) {
                        Some(&b) => b,
                        None => {
                            let name = format!("{}~{}", self.nodes[producer.index()].name, delay);
                            let initial = self.nodes[producer.index()].initial_value;
                            let id = NodeId::from_index(self.nodes.len());
                            self.nodes.push(Node {
                                name,
                                op: OpKind::Id,
                                operands: vec![Operand::Node {
                                    node: upstream,
                                    distance: 1,
                                }],
                                time: 1,
                                initial_value: initial,
                            });
                            buffers.insert(key, id);
                            id
                        }
                    };
                }
                self.nodes[idx].operands[slot] = Operand::Node {
                    node: upstream,
                    distance: 1,
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ArcKind;

    /// `finish` as first written: each repair round checks liveness on
    /// the named SDSP-PN that `to_petri` builds.
    fn finish_on_named_nets(mut b: SdspBuilder) -> Result<Sdsp, DataflowError> {
        b.expand_long_feedback();
        loop {
            let sdsp = b.build_candidate();
            sdsp.validate()?;
            let pn = crate::to_petri::to_petri(&sdsp);
            match tpn_petri::marked::check_live(&pn.net, &pn.marking) {
                Ok(()) => return Ok(sdsp),
                Err(tpn_petri::PetriError::NotLive { cycle }) => {
                    let producer = b.find_feedback_producer_on(&sdsp, &cycle).unwrap();
                    b.buffer_feedback_of(producer);
                }
                Err(other) => panic!("{other}"),
            }
        }
    }

    #[test]
    fn liveness_repair_matches_the_named_net_check() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Random bodies whose recurrences cross-couple at distances 1-3:
        // the shapes that need buffers inserted, often more than one.
        let mut repaired = 0;
        for seed in 0..200u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.random_range(2..10usize);
            let mut b = SdspBuilder::new();
            let ids: Vec<NodeId> = (0..n)
                .map(|j| {
                    let first = if j > 0 && rng.random_range(0..3u32) > 0 {
                        Operand::node(NodeId::from_index(rng.random_range(0..j)))
                    } else {
                        Operand::env("X", 0)
                    };
                    b.node(format!("N{j}"), OpKind::Add, [first, Operand::lit(1.0)])
                })
                .collect();
            for _ in 0..rng.random_range(1..4usize) {
                let to = ids[rng.random_range(0..n)];
                let from = ids[rng.random_range(0..n)];
                let distance = rng.random_range(1..4u32);
                b.set_operand(to, 1, Operand::feedback(from, distance));
            }
            let fast = b.clone().finish();
            let named = finish_on_named_nets(b.clone());
            match (&fast, &named) {
                (Ok(fast), Ok(named)) => {
                    assert_eq!(
                        crate::acode::write(fast),
                        crate::acode::write(named),
                        "{seed}"
                    );
                    repaired += usize::from(fast.num_nodes() > n);
                }
                _ => assert_eq!(fast.err(), named.err(), "{seed}"),
            }
        }
        assert!(repaired > 20, "only {repaired} bodies needed a buffer");
    }

    #[test]
    fn distance_two_inserts_buffers_and_stays_live() {
        let mut b = SdspBuilder::new();
        let x = b.node("X", OpKind::Add, [Operand::env("A", 0), Operand::lit(0.0)]);
        b.set_operand(x, 1, Operand::feedback(x, 2));
        b.set_initial(x, 7.0);
        let s = b.finish().unwrap();
        // X, the delay buffer X~1, and the liveness buffer X~fb: a
        // distance-2 recurrence needs two outstanding values, so one
        // capacity-1 hop cannot carry it.
        assert_eq!(s.num_nodes(), 3);
        let buffers: Vec<_> = s.nodes().filter(|(_, n)| n.op == OpKind::Id).collect();
        assert_eq!(buffers.len(), 2);
        for (_, buf) in &buffers {
            assert_eq!(buf.initial_value, 7.0);
        }
        let pn = crate::to_petri::to_petri(&s);
        assert!(tpn_petri::marked::check_live(&pn.net, &pn.marking).is_ok());
    }

    #[test]
    fn shared_buffers_for_same_producer_and_delay() {
        let mut b = SdspBuilder::new();
        let x = b.node("X", OpKind::Add, [Operand::lit(0.0), Operand::lit(0.0)]);
        let y = b.node("Y", OpKind::Add, [Operand::lit(0.0), Operand::lit(0.0)]);
        b.set_operand(x, 0, Operand::feedback(x, 3));
        b.set_operand(y, 0, Operand::feedback(x, 3));
        let s = b.finish().unwrap();
        // X, Y, two shared delay buffers (delays 1 and 2), and the
        // liveness buffer for X.
        assert_eq!(s.num_nodes(), 5);
        let pn = crate::to_petri::to_petri(&s);
        assert!(tpn_petri::marked::check_live(&pn.net, &pn.marking).is_ok());
    }

    #[test]
    fn self_feedback_distance_one_needs_no_buffer() {
        let mut b = SdspBuilder::new();
        let q = b.node("Q", OpKind::Add, [Operand::lit(0.0), Operand::env("Z", 0)]);
        b.set_operand(q, 0, Operand::feedback(q, 1));
        let s = b.finish().unwrap();
        assert_eq!(s.num_nodes(), 1);
        assert_eq!(s.arcs().count(), 1);
        let (_, arc) = s.arcs().next().unwrap();
        assert_eq!(arc.from, q);
        assert_eq!(arc.to, q);
        assert_eq!(arc.kind, ArcKind::Feedback);
    }

    #[test]
    fn mixed_feedback_gets_a_buffer() {
        // E has a same-iteration consumer (Y) and a loop-carried consumer
        // (V): without a buffer the SDSP-PN deadlocks on a token-free
        // cycle through V's acknowledgement.
        let mut b = SdspBuilder::new();
        let e = b.node("E", OpKind::Id, [Operand::env("S", 0)]);
        let y = b.node("Y", OpKind::Mul, [Operand::node(e), Operand::lit(2.0)]);
        let v = b.node(
            "V",
            OpKind::Add,
            [Operand::feedback(e, 1), Operand::node(y)],
        );
        let _ = v;
        let s = b.finish().unwrap();
        // E, Y, V plus the feedback buffer E~fb.
        assert_eq!(s.num_nodes(), 4);
        let buf = s.nodes().find(|(_, n)| n.name == "E~fb").unwrap().0;
        // V now reads the buffer, not E directly.
        let v_node = s.node(v);
        assert!(v_node
            .operands
            .iter()
            .any(|o| *o == Operand::feedback(buf, 1)));
    }

    #[test]
    fn self_feedback_with_forward_consumers_needs_no_buffer() {
        // Q := old Q + x, and R reads Q[i]: the self cycle is direct, no
        // buffer required.
        let mut b = SdspBuilder::new();
        let q = b.node("Q", OpKind::Add, [Operand::lit(0.0), Operand::env("X", 0)]);
        b.set_operand(q, 0, Operand::feedback(q, 1));
        b.node("R", OpKind::Add, [Operand::node(q), Operand::lit(1.0)]);
        let s = b.finish().unwrap();
        assert_eq!(s.num_nodes(), 2);
    }

    #[test]
    fn builder_setters_apply() {
        let mut b = SdspBuilder::new();
        let n = b.node("slow", OpKind::Neg, [Operand::lit(1.0)]);
        b.set_time(n, 4);
        assert_eq!(b.len(), 1);
        assert!(!b.is_empty());
        let s = b.finish().unwrap();
        assert_eq!(s.node(n).time, 4);
    }

    #[test]
    fn empty_builder_produces_empty_graph() {
        let s = SdspBuilder::new().finish().unwrap();
        assert_eq!(s.num_nodes(), 0);
        assert_eq!(s.storage_locations(), 0);
    }

    #[test]
    fn wrong_arity_reported() {
        let mut b = SdspBuilder::new();
        b.node("bad", OpKind::Add, [Operand::lit(1.0)]);
        assert!(matches!(
            b.finish(),
            Err(DataflowError::WrongArity {
                expected: 2,
                found: 1,
                ..
            })
        ));
    }
}
