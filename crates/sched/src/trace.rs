//! Firing traces: the detection run as a structured, exportable timeline.
//!
//! The paper's central artifacts — the behaviour graph, the cyclic
//! frustum, the steady-state kernel — are all *timelines*. A
//! [`FiringTrace`] materialises one: the full start/complete event stream
//! of a frustum-detection run (see [`tpn_petri::trace`]) annotated with
//! the detected frustum window as [`TraceSpan`]s, plus per-transition
//! metadata (name, execution time, node-vs-dummy).
//!
//! A [`FrustumReport`] keeps every instant's completions and starts, so
//! the event stream is a view of its [`steps`](FrustumReport::steps):
//! [`FiringTrace::from_frustum`] expands them in
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
    /// [`steps`](FrustumReport::steps): per instant, one completion event
    /// per completed transition, then one start event per started
    /// transition, each stamped with the digest of the marking after its
    /// token movement (tracked incrementally from `initial_marking`).
    pub fn from_frustum(
        net: &PetriNet,
        initial_marking: &Marking,
        frustum: &FrustumReport,
    ) -> Self {
        let mut hash = MarkingHash::new(initial_marking);
        let mut events = Vec::with_capacity(
            frustum
                .steps()
                .map(|s| s.completed.len() + s.started.len())
                .sum(),
        );
        for step in frustum.steps() {
            for &t in step.completed {
                events.push(FiringEvent {
                    time: step.time,
                    transition: t,
                    kind: EventKind::Complete,
                    residual: 0,
                    marking_digest: hash.produce(net, t),
                });
            }
            for &t in step.started {
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
        let mut out = String::new();
        self.write_chrome_trace_json(&mut out, false);
        out
    }

    /// Appends [`chrome_trace_json`](Self::chrome_trace_json)'s document
    /// to `out`; with `embedded`, as the body of a JSON string literal,
    /// every `"` and `\` escaped, so a reply can carry the document
    /// without escaping it a second time.
    ///
    /// One pass into a buffer reserved up front: each transition's name is
    /// escaped once, and the fixed text between the numbers and names
    /// comes from one of two constant tables, raw or already escaped.
    pub fn write_chrome_trace_json(&self, out: &mut String, embedded: bool) {
        let text = if embedded { &EMBEDDED } else { &RAW };
        let quote = |s: &str| quoted(s, embedded);
        let names = self.quoted_names(embedded);
        let scp = self.is_scp();
        let slices: usize = self
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Start)
            .map(|e| {
                let t = e.transition.index();
                let copies = 1 + usize::from(scp && self.transitions[t].is_node);
                copies * (SLICE_BYTES + names[t].len())
            })
            .sum();
        let metas: usize = names.iter().map(|n| META_BYTES + n.len()).sum();
        out.reserve(4 * META_BYTES + metas + slices);
        out.push_str(text.head);
        let meta = |out: &mut String, tid: u64, name: &str| {
            out.push_str(text.meta);
            push_u64(out, tid);
            out.push_str(text.meta_name);
            out.push_str(name);
            out.push_str(text.close2);
        };
        meta(out, 0, &quote("timeline"));
        if scp {
            meta(out, 1, &quote("issue slot"));
        }
        for (idx, name) in names.iter().enumerate() {
            meta(out, idx as u64 + 2, name);
        }
        for span in &self.spans {
            out.push_str(text.span);
            push_u64(out, span.begin);
            out.push_str(text.dur);
            push_u64(out, span.end - span.begin);
            out.push_str(text.name);
            out.push_str(&quote(&span.name));
            out.push_str(text.close1);
        }
        for (name, ts) in [
            ("frustum start", self.start_time),
            ("frustum repeat", self.repeat_time),
        ] {
            out.push_str(text.marker);
            push_u64(out, ts);
            out.push_str(text.marker_name);
            out.push_str(&quote(name));
            out.push_str(text.close1);
        }
        // A start slice of length τ covers the firing, so completions
        // render nothing. An SCP node's slice repeats on the issue track,
        // tid 1.
        for e in &self.events {
            if e.kind != EventKind::Start {
                continue;
            }
            let t = e.transition.index();
            let info = &self.transitions[t];
            let issue = scp && info.is_node;
            for tid in [t as u64 + 2, 1].into_iter().take(1 + usize::from(issue)) {
                out.push_str(text.slice);
                push_u64(out, tid);
                out.push_str(text.ts);
                push_u64(out, e.time);
                out.push_str(text.dur);
                push_u64(out, info.time);
                out.push_str(text.name);
                out.push_str(&names[t]);
                out.push_str(text.digest);
                push_hex_digest(out, e.marking_digest);
                out.push_str(text.digest_close);
            }
        }
        out.push_str(text.tail);
    }

    /// Exports the trace as compact JSONL: one `meta` line (window and
    /// transition table), one line per span, then one line per event with
    /// the marking digest in hex. Deterministic byte-for-byte; written in
    /// one pass like [`chrome_trace_json`](Self::chrome_trace_json).
    pub fn jsonl(&self) -> String {
        let names = self.quoted_names(false);
        let lines: usize = self
            .events
            .iter()
            .map(|e| EVENT_LINE_BYTES + names[e.transition.index()].len())
            .sum();
        let mut out = String::with_capacity(256 + 64 * names.len() + lines);
        out.push_str("{\"kind\":\"meta\",\"start_time\":");
        push_u64(&mut out, self.start_time);
        out.push_str(",\"repeat_time\":");
        push_u64(&mut out, self.repeat_time);
        out.push_str(",\"period\":");
        push_u64(&mut out, self.period());
        out.push_str(",\"transitions\":[");
        for (i, (info, name)) in self.transitions.iter().zip(&names).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            out.push_str(name);
            out.push_str(",\"time\":");
            push_u64(&mut out, info.time);
            out.push_str(if info.is_node {
                ",\"node\":true}"
            } else {
                ",\"node\":false}"
            });
        }
        out.push_str("]}\n");
        for span in &self.spans {
            out.push_str("{\"kind\":\"span\",\"name\":");
            push_json_str(&mut out, &span.name);
            out.push_str(",\"begin\":");
            push_u64(&mut out, span.begin);
            out.push_str(",\"end\":");
            push_u64(&mut out, span.end);
            out.push_str("}\n");
        }
        for e in &self.events {
            out.push_str(match e.kind {
                EventKind::Start => "{\"kind\":\"start\",\"time\":",
                EventKind::Complete => "{\"kind\":\"complete\",\"time\":",
            });
            push_u64(&mut out, e.time);
            out.push_str(",\"transition\":");
            push_u64(&mut out, e.transition.index() as u64);
            out.push_str(",\"name\":");
            out.push_str(&names[e.transition.index()]);
            out.push_str(",\"residual\":");
            push_u64(&mut out, e.residual);
            out.push_str(",\"digest\":\"");
            push_hex_digest(&mut out, e.marking_digest);
            out.push_str("\"}\n");
        }
        out
    }

    /// Every transition's name as a JSON string literal, escaped once
    /// (twice when `embedded`, see [`quoted`]).
    fn quoted_names(&self, embedded: bool) -> Vec<String> {
        self.transitions
            .iter()
            .map(|info| quoted(&info.name, embedded))
            .collect()
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

/// The fixed text of a Chrome trace-event document, between the numbers
/// and names [`FiringTrace::write_chrome_trace_json`] fills in.
struct ChromeText {
    /// The document's opening and its process-name metadata event.
    head: &'static str,
    /// A thread-name metadata event: `meta`, tid, `meta_name`, name,
    /// `close2`.
    meta: &'static str,
    meta_name: &'static str,
    close2: &'static str,
    /// A timeline span: `span`, begin, `dur`, length, `name`, name,
    /// `close1`.
    span: &'static str,
    dur: &'static str,
    name: &'static str,
    close1: &'static str,
    /// A frustum marker: `marker`, instant, `marker_name`, name, `close1`.
    marker: &'static str,
    marker_name: &'static str,
    /// A firing slice: `slice`, tid, `ts`, start, `dur`, τ, `name`, name,
    /// `digest`, marking digest, `digest_close`.
    slice: &'static str,
    ts: &'static str,
    digest: &'static str,
    digest_close: &'static str,
    /// The document's closing.
    tail: &'static str,
}

/// The document's fixed text as JSON.
const RAW: ChromeText = ChromeText {
    head: r#"{"traceEvents":[{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"tpn earliest-firing run"}}"#,
    meta: r#",{"ph":"M","pid":1,"tid":"#,
    meta_name: r#","name":"thread_name","args":{"name":"#,
    close2: "}}",
    span: r#",{"ph":"X","pid":1,"tid":0,"ts":"#,
    dur: r#","dur":"#,
    name: r#","name":"#,
    close1: "}",
    marker: r#",{"ph":"i","pid":1,"tid":0,"ts":"#,
    marker_name: r#","s":"p","name":"#,
    slice: r#",{"ph":"X","pid":1,"tid":"#,
    ts: r#","ts":"#,
    digest: r#","args":{"digest":""#,
    digest_close: r#""}}"#,
    tail: "]}",
};

/// [`RAW`] escaped for the body of a JSON string literal.
const EMBEDDED: ChromeText = ChromeText {
    head: r#"{\"traceEvents\":[{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"tpn earliest-firing run\"}}"#,
    meta: r#",{\"ph\":\"M\",\"pid\":1,\"tid\":"#,
    meta_name: r#",\"name\":\"thread_name\",\"args\":{\"name\":"#,
    close2: "}}",
    span: r#",{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":"#,
    dur: r#",\"dur\":"#,
    name: r#",\"name\":"#,
    close1: "}",
    marker: r#",{\"ph\":\"i\",\"pid\":1,\"tid\":0,\"ts\":"#,
    marker_name: r#",\"s\":\"p\",\"name\":"#,
    slice: r#",{\"ph\":\"X\",\"pid\":1,\"tid\":"#,
    ts: r#",\"ts\":"#,
    digest: r#",\"args\":{\"digest\":\""#,
    digest_close: r#"\"}}"#,
    tail: "]}",
};

/// Bytes of a Chrome start slice besides the transition's name, embedded
/// or not: the fixed text, three numbers and the 18-character digest.
const SLICE_BYTES: usize = 144;
/// Bytes of a thread-name metadata event besides the name.
const META_BYTES: usize = 96;
/// Bytes of a JSONL event line besides the transition's name.
const EVENT_LINE_BYTES: usize = 128;

/// Appends `n` in decimal.
fn push_u64(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// Appends `digest` as `0x` and 16 lowercase hex digits (`{:#018x}`).
fn push_hex_digest(out: &mut String, digest: u64) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut text = *b"0x0000000000000000";
    for (i, slot) in text[2..].iter_mut().enumerate() {
        *slot = HEX[(digest >> (60 - 4 * i)) as usize & 0xF];
    }
    out.push_str(std::str::from_utf8(&text).expect("ASCII hex"));
}

/// `s` as a JSON string literal; with `embedded`, that literal escaped
/// again for the body of an enclosing JSON string.
fn quoted(s: &str, embedded: bool) -> String {
    let mut lit = String::with_capacity(s.len() + 2);
    push_json_str(&mut lit, s);
    if embedded {
        let mut twice = String::with_capacity(lit.len() + 4);
        push_escaped(&mut twice, &lit);
        lit = twice;
    }
    lit
}

/// Appends `s` as a JSON string literal (quotes, backslashes, controls
/// as `\u00XX`).
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    push_escaped(out, s);
    out.push('"');
}

/// Appends the body of `s`'s JSON string literal.
fn push_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                let code = [
                    b'\\',
                    b'u',
                    b'0',
                    b'0',
                    HEX[c as usize >> 4],
                    HEX[c as usize & 0xF],
                ];
                out.push_str(std::str::from_utf8(&code).expect("ASCII escape"));
            }
            c => out.push(c),
        }
    }
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
        let json_str = |s: &str| {
            let mut out = String::new();
            push_json_str(&mut out, s);
            out
        };
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_str("x\ny"), "\"x\\u000ay\"");
        assert_eq!(json_str("\u{1f}é"), "\"\\u001fé\"");
    }

    #[test]
    fn embedded_text_is_the_raw_text_escaped() {
        let pairs = [
            (RAW.head, EMBEDDED.head),
            (RAW.meta, EMBEDDED.meta),
            (RAW.meta_name, EMBEDDED.meta_name),
            (RAW.close2, EMBEDDED.close2),
            (RAW.span, EMBEDDED.span),
            (RAW.dur, EMBEDDED.dur),
            (RAW.name, EMBEDDED.name),
            (RAW.close1, EMBEDDED.close1),
            (RAW.marker, EMBEDDED.marker),
            (RAW.marker_name, EMBEDDED.marker_name),
            (RAW.slice, EMBEDDED.slice),
            (RAW.ts, EMBEDDED.ts),
            (RAW.digest, EMBEDDED.digest),
            (RAW.digest_close, EMBEDDED.digest_close),
            (RAW.tail, EMBEDDED.tail),
        ];
        for (raw, embedded) in pairs {
            let mut escaped = String::new();
            push_escaped(&mut escaped, raw);
            assert_eq!(escaped, embedded);
        }
    }

    #[test]
    fn embedded_documents_are_the_raw_ones_escaped() {
        let pn = l2_pn();
        let scp = build_scp(&pn, 8);
        let f = crate::frustum::detect_frustum(
            &scp.net,
            scp.marking.clone(),
            FifoPolicy::new(&scp),
            100_000,
        )
        .unwrap();
        let mut trace = FiringTrace::from_scp_frustum(&scp, &f);
        trace.transitions[0].name = "q\"uote\\ \u{1}".into();
        let raw = trace.chrome_trace_json();
        let mut escaped = String::new();
        push_escaped(&mut escaped, &raw);
        let mut embedded = String::from("prefix");
        trace.write_chrome_trace_json(&mut embedded, true);
        assert_eq!(embedded, format!("prefix{escaped}"));
    }

    #[test]
    fn numbers_render_as_format_does() {
        for n in [0, 7, 10, 99, 1_000_000, u64::MAX] {
            let mut out = String::new();
            push_u64(&mut out, n);
            assert_eq!(out, n.to_string());
            out.clear();
            push_hex_digest(&mut out, n);
            assert_eq!(out, format!("{n:#018x}"));
        }
    }
}
