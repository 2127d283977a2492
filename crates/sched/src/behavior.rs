//! Behaviour graphs (§3.3, Figures 1(e) and 3(c) of the paper).
//!
//! A behaviour graph is the trace of an earliest-firing execution: at each
//! time step it records the newly marked places and the transitions fired
//! at that step, with directed arcs for token consumption (place event →
//! firing) and token production (firing → place event). This module
//! reconstructs the graph from a detection run's [`Step`]s and renders it
//! as text (for terminal output mirroring the paper's figures) or Graphviz.

use std::collections::HashMap;
use std::fmt::Write as _;

use tpn_petri::{Marking, PetriNet, PlaceId, TransitionId};

use crate::frustum::Step;

/// An event in the behaviour graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// Place `place` became marked at `time` (one event per token).
    Marked {
        /// The instant of the event.
        time: u64,
        /// The place that received a token.
        place: PlaceId,
    },
    /// Transition `transition` started firing at `time`.
    Fired {
        /// The instant of the event.
        time: u64,
        /// The transition that started.
        transition: TransitionId,
    },
}

/// The behaviour graph: events plus token-flow edges between them.
#[derive(Clone, Debug)]
pub struct BehaviorGraph {
    events: Vec<Event>,
    /// `(from, to)` indices into `events`: token production and
    /// consumption.
    edges: Vec<(usize, usize)>,
    /// Rows for rendering: per instant, fired transitions and newly marked
    /// places.
    rows: Vec<Row>,
}

/// One rendered instant of the behaviour graph.
#[derive(Clone, Debug, Default)]
pub struct Row {
    /// The instant.
    pub time: u64,
    /// Transitions that started at this instant.
    pub fired: Vec<TransitionId>,
    /// Places that became marked at this instant (initial marking at 0).
    pub marked: Vec<PlaceId>,
}

impl BehaviorGraph {
    /// Reconstructs the behaviour graph of a trace.
    ///
    /// `initial` must be the marking the trace started from; `steps` the
    /// recorded instants from 0 on, such as
    /// [`FrustumReport::steps`](crate::FrustumReport::steps).
    pub fn build<'a>(
        net: &PetriNet,
        initial: &Marking,
        steps: impl IntoIterator<Item = Step<'a>>,
    ) -> Self {
        let mut events = Vec::new();
        let mut edges = Vec::new();
        let mut rows: Vec<Row> = Vec::new();
        // FIFO of outstanding token events per place.
        let mut pending: Vec<Vec<usize>> = vec![Vec::new(); net.num_places()];
        // In-flight firings: transition -> event index of its start.
        let mut inflight: HashMap<TransitionId, usize> = HashMap::new();

        let mut row0 = Row {
            time: 0,
            ..Row::default()
        };
        for (p, n) in initial.marked_places() {
            for _ in 0..n {
                let ev = events.len();
                events.push(Event::Marked { time: 0, place: p });
                pending[p.index()].push(ev);
                row0.marked.push(p);
            }
        }
        rows.push(row0);

        for step in steps {
            let row = if step.time == 0 {
                &mut rows[0]
            } else {
                rows.push(Row {
                    time: step.time,
                    ..Row::default()
                });
                rows.last_mut().expect("just pushed")
            };
            // Completions first: they deposit tokens.
            for &t in step.completed {
                let start_ev = inflight.remove(&t);
                for &p in net.transition(t).outputs() {
                    let ev = events.len();
                    events.push(Event::Marked {
                        time: step.time,
                        place: p,
                    });
                    pending[p.index()].push(ev);
                    row.marked.push(p);
                    if let Some(se) = start_ev {
                        edges.push((se, ev));
                    }
                }
            }
            // Then starts: they consume tokens.
            for &t in step.started {
                let ev = events.len();
                events.push(Event::Fired {
                    time: step.time,
                    transition: t,
                });
                row.fired.push(t);
                inflight.insert(t, ev);
                for &p in net.transition(t).inputs() {
                    // Consume the oldest outstanding token event.
                    if !pending[p.index()].is_empty() {
                        let src = pending[p.index()].remove(0);
                        edges.push((src, ev));
                    }
                }
            }
        }
        BehaviorGraph {
            events,
            edges,
            rows,
        }
    }

    /// The rendered rows, one per instant.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// All events in creation order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Token-flow edges as `(from, to)` event indices.
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Renders the behaviour graph as a text table in the style of the
    /// paper's Figure 1(e): one row per instant listing fired transitions
    /// and newly marked places.
    pub fn render(&self, net: &PetriNet) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{:>5} | {:<28} | marked places", "time", "fired");
        let _ = writeln!(out, "{:-<5}-+-{:-<28}-+--------------", "", "");
        for row in &self.rows {
            let fired = row
                .fired
                .iter()
                .map(|&t| net.transition(t).name().to_string())
                .collect::<Vec<_>>()
                .join(" ");
            let marked = row
                .marked
                .iter()
                .map(|&p| net.place(p).name().to_string())
                .collect::<Vec<_>>()
                .join(" ");
            let _ = writeln!(out, "{:>5} | {:<28} | {}", row.time, fired, marked);
        }
        out
    }

    /// Renders the behaviour graph in Graphviz dot format with one rank
    /// per instant.
    pub fn to_dot(&self, net: &PetriNet) -> String {
        let mut out = String::from("digraph behavior {\n  rankdir=TB;\n");
        for (i, ev) in self.events.iter().enumerate() {
            match ev {
                Event::Marked { time, place } => {
                    let _ = writeln!(
                        out,
                        "  e{i} [shape=circle, label=\"{}@{}\"];",
                        net.place(*place).name(),
                        time
                    );
                }
                Event::Fired { time, transition } => {
                    let _ = writeln!(
                        out,
                        "  e{i} [shape=box, style=filled, fillcolor=lightgray, label=\"{}@{}\"];",
                        net.transition(*transition).name(),
                        time
                    );
                }
            }
        }
        for &(a, b) in &self.edges {
            let _ = writeln!(out, "  e{a} -> e{b};");
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frustum::detect_frustum_eager;
    use tpn_dataflow::to_petri::to_petri;
    use tpn_dataflow::{OpKind, Operand, SdspBuilder};

    fn chain_pn() -> tpn_dataflow::to_petri::SdspPn {
        let mut b = SdspBuilder::new();
        let a = b.node("A", OpKind::Neg, [Operand::env("X", 0)]);
        let _b2 = b.node("B", OpKind::Neg, [Operand::node(a)]);
        to_petri(&b.finish().unwrap())
    }

    #[test]
    fn rows_track_firings_and_markings() {
        let pn = chain_pn();
        let f = detect_frustum_eager(&pn.net, pn.marking.clone(), 100).unwrap();
        let bg = BehaviorGraph::build(&pn.net, &pn.marking, f.steps());
        // Instant 0: initial marking (ack token) + A fires.
        let row0 = &bg.rows()[0];
        assert_eq!(row0.fired.len(), 1);
        assert_eq!(row0.marked.len(), 1);
        // Instant 1: A completes -> fwd marked; B fires.
        let row1 = &bg.rows()[1];
        assert_eq!(row1.fired.len(), 1);
        assert!(!row1.marked.is_empty());
    }

    #[test]
    fn every_consumption_edge_respects_time_order() {
        let pn = chain_pn();
        let f = detect_frustum_eager(&pn.net, pn.marking.clone(), 100).unwrap();
        let bg = BehaviorGraph::build(&pn.net, &pn.marking, f.steps());
        let time_of = |i: usize| match bg.events()[i] {
            Event::Marked { time, .. } | Event::Fired { time, .. } => time,
        };
        for &(a, b) in bg.edges() {
            assert!(time_of(a) <= time_of(b));
        }
        assert!(!bg.edges().is_empty());
    }

    #[test]
    fn behavior_graph_of_scp_traces_dummy_latency() {
        use crate::frustum::detect_frustum;
        use crate::policy::FifoPolicy;
        use crate::scp::build_scp;
        let pn = chain_pn();
        let scp = build_scp(&pn, 4);
        let f = detect_frustum(
            &scp.net,
            scp.marking.clone(),
            FifoPolicy::new(&scp),
            100_000,
        )
        .unwrap();
        let bg = BehaviorGraph::build(&scp.net, &scp.marking, f.steps());
        // A dummy of time 3 separates its production event from its start
        // by exactly 3 instants.
        let mut saw_dummy_latency = false;
        for &(from, to) in bg.edges() {
            let (
                Event::Fired {
                    time: t0,
                    transition,
                },
                Event::Marked { time: t1, .. },
            ) = (&bg.events()[from], &bg.events()[to])
            else {
                continue;
            };
            if !scp.is_sdsp[transition.index()] {
                assert_eq!(t1 - t0, 3, "dummy latency must be depth - 1");
                saw_dummy_latency = true;
            }
        }
        assert!(saw_dummy_latency, "no dummy production edges found");
    }

    #[test]
    fn render_contains_transition_names() {
        let pn = chain_pn();
        let f = detect_frustum_eager(&pn.net, pn.marking.clone(), 100).unwrap();
        let bg = BehaviorGraph::build(&pn.net, &pn.marking, f.steps());
        let text = bg.render(&pn.net);
        assert!(text.contains("A"));
        assert!(text.contains("B"));
        assert!(text.contains("time"));
        let dot = bg.to_dot(&pn.net);
        assert!(dot.starts_with("digraph behavior"));
        assert!(dot.contains("A@0"));
    }
}
