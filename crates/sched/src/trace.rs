//! Firing traces: the detection run as a structured, exportable timeline.
//!
//! The paper's central artifacts — the behaviour graph, the cyclic
//! frustum, the steady-state kernel — are all *timelines*. A
//! [`FiringTrace`] materialises one: the full start/complete event stream
//! of a frustum-detection run (see [`tpn_petri::trace`]) annotated with
//! the detected frustum window as [`TraceSpan`]s, plus per-transition
//! metadata (name, execution time, node-vs-dummy).
//!
//! The engine records each instant as a [`StepRecord`], and a
//! [`FrustumReport`] keeps every one of them, so the event stream is a
//! view of those records: [`FiringTrace::from_frustum`] expands them in
//! engine mutation order and stamps each event's marking digest with a
//! running [`MarkingHash`]. The trace is always complete; the
//! independent check of its digests is
//! [`crate::validate::replay_trace`], which rehashes every marking from
//! scratch.
//!
//! Exports are deterministic byte-for-byte: [`chrome_trace_json`]
//! (Chrome trace-event JSON, loadable in Perfetto / `chrome://tracing`)
//! and [`jsonl`] (one compact JSON object per line, for diffing and
//! scripting).
//!
//! [`chrome_trace_json`]: FiringTrace::chrome_trace_json
//! [`jsonl`]: FiringTrace::jsonl
//! [`StepRecord`]: tpn_petri::timed::StepRecord

use tpn_petri::timed::MarkingHash;
use tpn_petri::trace::{EventKind, FiringEvent};
use tpn_petri::{Marking, PetriNet, TransitionId};

use crate::frustum::FrustumReport;
use crate::scp::ScpPn;

/// Static description of one transition, carried so exports need no net.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TransitionInfo {
    /// The transition's name.
    pub name: String,
    /// Its execution time `τ`.
    pub time: u64,
    /// `true` for SDSP node transitions, `false` for series-expansion
    /// dummies (in-flight pipeline stages of an SCP run).
    pub is_node: bool,
}

/// A named half-open-free interval `[begin, end]` of instants on the
/// timeline (the prologue, the steady-state kernel).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceSpan {
    /// Span label.
    pub name: String,
    /// First instant covered.
    pub begin: u64,
    /// Last instant covered.
    pub end: u64,
}

/// A detection run's firing history plus its frustum annotations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FiringTrace {
    /// Start/complete events in engine mutation order: per instant,
    /// completions in transition-id order, then starts in start order.
    pub events: Vec<FiringEvent>,
    /// Per-transition metadata, indexed by [`TransitionId::index`].
    pub transitions: Vec<TransitionInfo>,
    /// First occurrence of the repeated state (frustum start).
    pub start_time: u64,
    /// Second occurrence (frustum repeat).
    pub repeat_time: u64,
    /// Timeline annotations: the prologue and the steady-state kernel.
    pub spans: Vec<TraceSpan>,
}

impl FiringTrace {
    /// The empty trace of a zero-node loop: no events, no transitions, a
    /// degenerate window at instant 0.
    pub fn empty() -> Self {
        FiringTrace {
            events: Vec::new(),
            transitions: Vec::new(),
            start_time: 0,
            repeat_time: 0,
            spans: Vec::new(),
        }
    }

    /// Derives the complete event stream of a detection run from its
    /// [`StepRecord`]s: per instant, one completion event per completed
    /// transition, then one start event per started transition, each
    /// stamped with the digest of the marking after its token movement
    /// (tracked incrementally from `initial_marking`).
    ///
    /// [`StepRecord`]: tpn_petri::timed::StepRecord
    pub fn from_frustum(
        net: &PetriNet,
        initial_marking: &Marking,
        frustum: &FrustumReport,
    ) -> Self {
        let mut hash = MarkingHash::new(initial_marking);
        let mut events = Vec::with_capacity(
            frustum
                .steps
                .iter()
                .map(|s| s.completed.len() + s.started.len())
                .sum(),
        );
        for step in &frustum.steps {
            for &t in &step.completed {
                events.push(FiringEvent {
                    time: step.time,
                    transition: t,
                    kind: EventKind::Complete,
                    residual: 0,
                    marking_digest: hash.produce(net, t),
                });
            }
            for &t in &step.started {
                events.push(FiringEvent {
                    time: step.time,
                    transition: t,
                    kind: EventKind::Start,
                    residual: net.transition(t).time(),
                    marking_digest: hash.consume(net, t),
                });
            }
        }
        Self::assemble(net, events, frustum.start_time, frustum.repeat_time)
    }

    /// [`from_frustum`](Self::from_frustum) for an SCP run: dummy
    /// transitions are marked as pipeline stages rather than nodes.
    pub fn from_scp_frustum(scp: &ScpPn, frustum: &FrustumReport) -> Self {
        Self::from_frustum(&scp.net, &scp.marking, frustum).with_node_mask(&scp.is_sdsp)
    }

    /// Reclassifies transitions as node (`true`) or pipeline-stage dummy
    /// (`false`), e.g. with [`ScpPn::is_sdsp`].
    #[must_use]
    pub fn with_node_mask(mut self, is_node: &[bool]) -> Self {
        for (info, &n) in self.transitions.iter_mut().zip(is_node) {
            info.is_node = n;
        }
        self
    }

    /// Wraps `events` with `net`'s transition table (every transition a
    /// node) and the prologue `[0, start_time]` and steady-state kernel
    /// `[start_time, repeat_time]` spans.
    pub(crate) fn assemble(
        net: &PetriNet,
        events: Vec<FiringEvent>,
        start_time: u64,
        repeat_time: u64,
    ) -> Self {
        let transitions = net
            .transitions()
            .map(|(_, t)| TransitionInfo {
                name: t.name().to_string(),
                time: t.time(),
                is_node: true,
            })
            .collect();
        let spans = vec![
            TraceSpan {
                name: "prologue".to_string(),
                begin: 0,
                end: start_time,
            },
            TraceSpan {
                name: "steady-state kernel".to_string(),
                begin: start_time,
                end: repeat_time,
            },
        ];
        FiringTrace {
            events,
            transitions,
            start_time,
            repeat_time,
            spans,
        }
    }

    /// The frustum length `repeat_time − start_time`.
    pub fn period(&self) -> u64 {
        self.repeat_time - self.start_time
    }

    /// Whether any transition is a pipeline-stage dummy (an SCP trace).
    pub fn is_scp(&self) -> bool {
        self.transitions.iter().any(|t| !t.is_node)
    }

    /// Exports the trace as Chrome trace-event JSON.
    ///
    /// Load the file in [Perfetto](https://ui.perfetto.dev) or
    /// `chrome://tracing`: one track per transition (each firing is a
    /// duration slice of length `τ`), a `timeline` track carrying the
    /// prologue / steady-state-kernel spans with instant markers at the
    /// frustum boundaries, and — for SCP traces — an `issue slot` track
    /// showing the occupancy of the shared pipeline. Timestamps are in
    /// microseconds, one µs per machine cycle. The output is
    /// deterministic: equal traces serialize byte-identically.
    pub fn chrome_trace_json(&self) -> String {
        let mut items: Vec<String> = Vec::new();
        let scp = self.is_scp();
        items.push(
            "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
             \"args\":{\"name\":\"tpn earliest-firing run\"}}"
                .to_string(),
        );
        items.push(meta_thread(0, "timeline"));
        if scp {
            items.push(meta_thread(1, "issue slot"));
        }
        for (idx, info) in self.transitions.iter().enumerate() {
            items.push(meta_thread(idx as u64 + 2, &info.name));
        }
        for span in &self.spans {
            items.push(format!(
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":{},\"dur\":{},\"name\":{}}}",
                span.begin,
                span.end - span.begin,
                json_str(&span.name)
            ));
        }
        for (name, ts) in [
            ("frustum start", self.start_time),
            ("frustum repeat", self.repeat_time),
        ] {
            items.push(format!(
                "{{\"ph\":\"i\",\"pid\":1,\"tid\":0,\"ts\":{ts},\"s\":\"p\",\"name\":{}}}",
                json_str(name)
            ));
        }
        for e in &self.events {
            if e.kind != EventKind::Start {
                continue; // a start slice of length τ covers the firing
            }
            let info = &self.transitions[e.transition.index()];
            let slice = format!(
                "\"ts\":{},\"dur\":{},\"name\":{},\"args\":{{\"digest\":\"{:#018x}\"}}}}",
                e.time,
                info.time,
                json_str(&info.name),
                e.marking_digest
            );
            items.push(format!(
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},{slice}",
                e.transition.index() as u64 + 2
            ));
            if scp && info.is_node {
                items.push(format!("{{\"ph\":\"X\",\"pid\":1,\"tid\":1,{slice}"));
            }
        }
        format!("{{\"traceEvents\":[{}]}}", items.join(","))
    }

    /// Exports the trace as compact JSONL: one `meta` line (window and
    /// transition table), one line per span, then one line per event with
    /// the marking digest in hex. Deterministic byte-for-byte.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"kind\":\"meta\",\"start_time\":{},\"repeat_time\":{},\"period\":{},\
             \"transitions\":[",
            self.start_time,
            self.repeat_time,
            self.period()
        ));
        for (i, info) in self.transitions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"time\":{},\"node\":{}}}",
                json_str(&info.name),
                info.time,
                info.is_node
            ));
        }
        out.push_str("]}\n");
        for span in &self.spans {
            out.push_str(&format!(
                "{{\"kind\":\"span\",\"name\":{},\"begin\":{},\"end\":{}}}\n",
                json_str(&span.name),
                span.begin,
                span.end
            ));
        }
        for e in &self.events {
            let kind = match e.kind {
                EventKind::Start => "start",
                EventKind::Complete => "complete",
            };
            out.push_str(&format!(
                "{{\"kind\":\"{kind}\",\"time\":{},\"transition\":{},\"name\":{},\
                 \"residual\":{},\"digest\":\"{:#018x}\"}}\n",
                e.time,
                e.transition.index(),
                json_str(&self.transitions[e.transition.index()].name),
                e.residual,
                e.marking_digest
            ));
        }
        out
    }

    /// Events inside the frustum window `(start_time, repeat_time]`.
    pub fn window_events(&self) -> impl Iterator<Item = &FiringEvent> {
        self.events
            .iter()
            .filter(|e| e.time > self.start_time && e.time <= self.repeat_time)
    }

    /// Start events of `t` recorded anywhere in the trace, in time order.
    pub fn start_times_of(&self, t: TransitionId) -> Vec<u64> {
        self.events
            .iter()
            .filter(|e| e.kind == EventKind::Start && e.transition == t)
            .map(|e| e.time)
            .collect()
    }
}

fn meta_thread(tid: u64, name: &str) -> String {
    format!(
        "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
         \"args\":{{\"name\":{}}}}}",
        json_str(name)
    )
}

/// Escapes `s` as a JSON string literal (quotes, backslashes, controls).
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frustum::detect_frustum_eager;
    use crate::policy::FifoPolicy;
    use crate::scp::build_scp;
    use tpn_dataflow::to_petri::{to_petri, SdspPn};
    use tpn_dataflow::{OpKind, Operand, SdspBuilder};

    fn l2_pn() -> SdspPn {
        let mut b = SdspBuilder::new();
        let a = b.node("A", OpKind::Add, [Operand::env("X", 0), Operand::lit(5.0)]);
        let bb = b.node("B", OpKind::Add, [Operand::env("Y", 0), Operand::node(a)]);
        let c = b.node("C", OpKind::Add, [Operand::node(a), Operand::lit(0.0)]);
        let d = b.node("D", OpKind::Add, [Operand::node(bb), Operand::node(c)]);
        let e = b.node("E", OpKind::Add, [Operand::env("W", 0), Operand::node(d)]);
        b.set_operand(c, 1, Operand::feedback(e, 1));
        to_petri(&b.finish().unwrap())
    }

    #[test]
    fn exports_are_deterministic_across_runs() {
        let one = {
            let pn = l2_pn();
            let f = detect_frustum_eager(&pn.net, pn.marking.clone(), 1_000).unwrap();
            FiringTrace::from_frustum(&pn.net, &pn.marking, &f).chrome_trace_json()
        };
        let two = {
            let pn = l2_pn();
            let f = detect_frustum_eager(&pn.net, pn.marking.clone(), 1_000).unwrap();
            FiringTrace::from_frustum(&pn.net, &pn.marking, &f).chrome_trace_json()
        };
        assert_eq!(one, two);
    }

    #[test]
    fn chrome_export_has_tracks_spans_and_markers() {
        let pn = l2_pn();
        let f = detect_frustum_eager(&pn.net, pn.marking.clone(), 1_000).unwrap();
        let trace = FiringTrace::from_frustum(&pn.net, &pn.marking, &f);
        let json = trace.chrome_trace_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        for (_, t) in pn.net.transitions() {
            assert!(json.contains(&format!("{{\"name\":\"{}\"}}", t.name())));
        }
        assert!(json.contains("steady-state kernel"));
        assert!(json.contains("frustum start"));
        assert!(json.contains("frustum repeat"));
        assert!(!json.contains("issue slot"), "SDSP trace has no SCP track");
        // One X slice per start event plus the two spans.
        let starts = trace
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Start)
            .count();
        assert_eq!(json.matches("\"ph\":\"X\"").count(), starts + 2);
    }

    #[test]
    fn scp_trace_marks_dummies_and_issue_slot() {
        let pn = l2_pn();
        let scp = build_scp(&pn, 8);
        let f = crate::frustum::detect_frustum(
            &scp.net,
            scp.marking.clone(),
            FifoPolicy::new(&scp),
            100_000,
        )
        .unwrap();
        let trace = FiringTrace::from_scp_frustum(&scp, &f);
        assert!(trace.is_scp());
        let nodes = trace.transitions.iter().filter(|t| t.is_node).count();
        assert_eq!(nodes, scp.num_sdsp_transitions());
        let json = trace.chrome_trace_json();
        assert!(json.contains("issue slot"));
        // Node starts appear on both their own track and the issue track.
        let node_starts = trace
            .events
            .iter()
            .filter(|e| {
                e.kind == EventKind::Start && trace.transitions[e.transition.index()].is_node
            })
            .count();
        let total_starts = trace
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Start)
            .count();
        assert_eq!(
            json.matches("\"ph\":\"X\"").count(),
            total_starts + node_starts + 2
        );
    }

    #[test]
    fn jsonl_has_meta_spans_and_one_line_per_event() {
        let pn = l2_pn();
        let f = detect_frustum_eager(&pn.net, pn.marking.clone(), 1_000).unwrap();
        let trace = FiringTrace::from_frustum(&pn.net, &pn.marking, &f);
        let jsonl = trace.jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 1 + trace.spans.len() + trace.events.len());
        assert!(lines[0].starts_with("{\"kind\":\"meta\""));
        assert!(lines[1].contains("prologue"));
        assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn trace_queries_match_frustum_report() {
        let pn = l2_pn();
        let f = detect_frustum_eager(&pn.net, pn.marking.clone(), 1_000).unwrap();
        let trace = FiringTrace::from_frustum(&pn.net, &pn.marking, &f);
        assert_eq!(trace.period(), f.period());
        for t in pn.net.transition_ids() {
            assert_eq!(trace.start_times_of(t), f.start_times_of(t));
        }
        let window_starts = trace
            .window_events()
            .filter(|e| e.kind == EventKind::Start)
            .count() as u64;
        assert_eq!(window_starts, f.counts.iter().sum::<u64>());
    }

    #[test]
    fn empty_trace_exports_valid_skeletons() {
        let t = FiringTrace::empty();
        assert_eq!(t.period(), 0);
        let json = t.chrome_trace_json();
        assert!(json.starts_with("{\"traceEvents\":[") && json.ends_with("]}"));
        assert_eq!(t.jsonl().lines().count(), 1); // just the meta line
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_str("x\ny"), "\"x\\u000ay\"");
    }
}
