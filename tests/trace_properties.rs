//! Differential properties of the firing-trace checker and renderers.
//!
//! [`replay_trace`] compares each event's stamped marking digest against a
//! running sum over its own token moves; [`replay_trace_reference`], in
//! `tpn-conform`, rehashes the whole marking at every event. On random
//! SDSP-PNs and their SCP machines at depths 1–8, the two must agree on
//! genuine traces and on tampered ones: the same validation, or the same
//! first violation.
//!
//! [`FiringTrace::chrome_trace_json`] and [`FiringTrace::jsonl`] write in
//! one pass; the `format!`-built references must match them byte for
//! byte on the Livermore kernels, random loops and SCP traces.

use proptest::prelude::*;
use tpn::CompiledLoop;
use tpn_conform::{chrome_trace_json_reference, jsonl_reference, replay_trace_reference};
use tpn_dataflow::to_petri::to_petri;
use tpn_livermore::kernels;
use tpn_livermore::synth::{generate, SynthConfig};
use tpn_petri::trace::EventKind;
use tpn_petri::{Marking, PetriNet};
use tpn_sched::frustum::{detect_frustum, detect_frustum_eager};
use tpn_sched::policy::FifoPolicy;
use tpn_sched::scp::build_scp;
use tpn_sched::validate::replay_trace;
use tpn_sched::FiringTrace;

const BUDGET: u64 = 2_000_000;

fn synth_config() -> impl Strategy<Value = SynthConfig> {
    (2usize..20, 0.0f64..1.0, 0usize..3, 1u32..4, any::<u64>()).prop_map(
        |(nodes, forward_density, recurrences, distance, seed)| SynthConfig {
            nodes,
            forward_density,
            recurrences,
            distance,
            seed,
        },
    )
}

/// The loop's net, initial marking and firing trace: plain at depth 0,
/// otherwise the FIFO run of its SCP machine at that depth.
fn traced(config: &SynthConfig, depth: u64) -> (PetriNet, Marking, FiringTrace) {
    let pn = to_petri(&generate(config));
    if depth == 0 {
        let f = detect_frustum_eager(&pn.net, pn.marking.clone(), BUDGET).unwrap();
        let trace = FiringTrace::from_frustum(&pn.net, &pn.marking, &f);
        (pn.net, pn.marking, trace)
    } else {
        let scp = build_scp(&pn, depth);
        let f =
            detect_frustum(&scp.net, scp.marking.clone(), FifoPolicy::new(&scp), BUDGET).unwrap();
        let trace = FiringTrace::from_scp_frustum(&scp, &f);
        (scp.net, scp.marking, trace)
    }
}

/// The tamperings a replay must catch, applied at event `at` (and `at + 1`
/// for a swap): a dropped event, a duplicated start, a flipped digest
/// bit, a shifted time and two events' transitions swapped.
fn tampered(trace: &FiringTrace, at: usize, bit: u32) -> Vec<(&'static str, FiringTrace)> {
    let n = trace.events.len();
    if n < 2 {
        return Vec::new();
    }
    let at = at % (n - 1);
    let mut out = Vec::new();
    let mut t = trace.clone();
    t.events.remove(at);
    out.push(("dropped", t));
    if let Some(start) = trace.events[at..]
        .iter()
        .position(|e| e.kind == EventKind::Start)
    {
        let mut t = trace.clone();
        let e = t.events[at + start];
        t.events.insert(at + start + 1, e);
        out.push(("duplicated start", t));
    }
    let mut t = trace.clone();
    t.events[at].marking_digest ^= 1 << (bit % 64);
    out.push(("flipped digest bit", t));
    let mut t = trace.clone();
    t.events[at].time += 1;
    out.push(("shifted time", t));
    let mut t = trace.clone();
    let (a, b) = (t.events[at].transition, t.events[at + 1].transition);
    t.events[at].transition = b;
    t.events[at + 1].transition = a;
    out.push(("swapped transitions", t));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The running-digest replay and the rehash-every-event reference
    /// return the same result on genuine and tampered traces, plain and
    /// SCP at depths 1–8.
    #[test]
    fn replay_matches_the_reference_on_genuine_and_tampered_traces(
        config in synth_config(),
        depth in 0u64..9,
        at in any::<u64>(),
        bit in any::<u32>(),
    ) {
        let (net, marking, trace) = traced(&config, depth);
        let genuine = replay_trace(&net, &marking, &trace);
        prop_assert!(genuine.is_ok(), "{genuine:?}");
        prop_assert_eq!(&genuine, &replay_trace_reference(&net, &marking, &trace));
        for (how, bad) in tampered(&trace, at as usize, bit) {
            let got = replay_trace(&net, &marking, &bad);
            let want = replay_trace_reference(&net, &marking, &bad);
            prop_assert_eq!(&got, &want, "{} at depth {}", how, depth);
        }
    }

    /// The one-pass renderers equal the `format!`-built references on
    /// random loops, plain and SCP.
    #[test]
    fn renderers_match_the_reference_on_random_traces(
        config in synth_config(),
        depth in 0u64..9,
    ) {
        let (_, _, trace) = traced(&config, depth);
        prop_assert_eq!(trace.chrome_trace_json(), chrome_trace_json_reference(&trace));
        prop_assert_eq!(trace.jsonl(), jsonl_reference(&trace));
    }
}

#[test]
fn renderers_match_the_reference_on_the_kernels() {
    for kernel in kernels() {
        let lp = CompiledLoop::from_source(kernel.source).expect(kernel.name);
        let plain = lp.firing_trace().expect(kernel.name);
        let traces = [plain, lp.scp_trace(1).unwrap(), lp.scp_trace(8).unwrap()];
        for trace in &traces {
            assert_eq!(
                trace.chrome_trace_json(),
                chrome_trace_json_reference(trace),
                "{}",
                kernel.name
            );
            assert_eq!(trace.jsonl(), jsonl_reference(trace), "{}", kernel.name);
        }
    }
    let empty = FiringTrace::empty();
    assert_eq!(
        empty.chrome_trace_json(),
        chrome_trace_json_reference(&empty)
    );
    assert_eq!(empty.jsonl(), jsonl_reference(&empty));
}

#[test]
fn renderers_escape_names_as_the_reference_does() {
    let pn = to_petri(&generate(&SynthConfig {
        nodes: 3,
        forward_density: 0.5,
        recurrences: 1,
        distance: 1,
        seed: 7,
    }));
    let f = detect_frustum_eager(&pn.net, pn.marking.clone(), BUDGET).unwrap();
    let mut trace = FiringTrace::from_frustum(&pn.net, &pn.marking, &f);
    for (i, info) in trace.transitions.iter_mut().enumerate() {
        info.name = ["q\"uote", "back\\slash", "tab\tnew\nline\u{1}", "ünï"][i % 4].to_string();
    }
    trace.spans[0].name = "pro\"logue".into();
    assert_eq!(
        trace.chrome_trace_json(),
        chrome_trace_json_reference(&trace)
    );
    assert_eq!(trace.jsonl(), jsonl_reference(&trace));
}
