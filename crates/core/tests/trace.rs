//! End-to-end checks of the firing-event tracing subsystem through the
//! [`CompiledLoop`] facade: byte-level determinism and replay validation
//! (safety, liveness, steady-state rate) over every Livermore kernel.

use tpn::CompiledLoop;
use tpn_livermore::kernels;

const L5: &str = "do i from 2 to n { X[i] := Z[i] * (Y[i] - X[i-1]); }";

#[test]
fn traces_are_deterministic_across_compilations() {
    let a = CompiledLoop::from_source(L5).unwrap();
    let b = CompiledLoop::from_source(L5).unwrap();
    let ta = a.firing_trace().unwrap();
    let tb = b.firing_trace().unwrap();
    assert_eq!(ta.chrome_trace_json(), tb.chrome_trace_json());
    assert_eq!(ta.jsonl(), tb.jsonl());
}

#[test]
fn replay_validation_confirms_every_kernel() {
    for k in kernels() {
        let lp = CompiledLoop::from_source(k.source).unwrap();
        let v = lp
            .validate_trace()
            .unwrap_or_else(|e| panic!("{}: trace replay rejected a genuine run: {e}", k.name));
        assert!(v.is_safe(), "{}: marking exceeded one token", k.name);
        assert!(v.events_checked > 0, "{}: empty event stream", k.name);
    }
}

#[test]
fn replay_validation_confirms_scp_runs() {
    for k in kernels().iter().take(4) {
        let lp = CompiledLoop::from_source(k.source).unwrap();
        let v = lp
            .validate_scp_trace(8)
            .unwrap_or_else(|e| panic!("{}: SCP trace replay rejected a genuine run: {e}", k.name));
        assert!(v.events_checked > 0, "{}: empty SCP event stream", k.name);
    }
}

#[test]
fn degenerate_loops_trace_and_validate() {
    // A zero-node body has nothing to fire: the trace is empty but well
    // formed, and validation accepts it trivially.
    let empty = CompiledLoop::from_source("do i from 1 to n { }").unwrap();
    let trace = empty.firing_trace().unwrap();
    assert!(trace.events.is_empty());
    assert!(trace.chrome_trace_json().starts_with("{\"traceEvents\":["));
    let v = empty.validate_trace().unwrap();
    assert_eq!(v.events_checked, 0);
    // A single node feeding itself is the smallest real recurrence.
    let single = CompiledLoop::from_source("do i from 2 to n { X[i] := X[i-1] + 1; }").unwrap();
    let trace = single.firing_trace().unwrap();
    assert!(!trace.events.is_empty());
    let v = single.validate_trace().unwrap();
    assert!(v.is_safe());
    assert!(v.events_checked > 0);
}
