//! Independent validation of derived schedules.
//!
//! The schedules of [`crate::schedule`] come from legal Petri-net
//! executions, so they are correct *by construction* — but a reproduction
//! should not take its own word for it. This module re-checks schedules
//! against the dataflow semantics directly, without any Petri-net
//! machinery:
//!
//! * [`check_schedule`] — every dependence (forward and loop-carried) is
//!   satisfied with the producer's full latency; no node overlaps itself;
//!   optionally, at most `issue_width` nodes start per cycle (1 for the
//!   SCP machine).
//! * [`replay_semantics`] — executes the loop *in schedule order* against
//!   real inputs and compares every produced value with the reference
//!   interpreter, demonstrating semantics preservation end to end.
//! * [`replay_trace`] — reconstructs markings from a
//!   [`FiringTrace`]'s event stream *alone* (no engine, no residual
//!   vectors, no frustum machinery) and independently confirms safety
//!   (boundedness), liveness over the recorded window, firing latencies,
//!   non-reentrance, and every per-event marking digest. Where
//!   `tpn-conform`'s reference detector re-steps the net naively and
//!   compares every instant, this validator runs no stepper at all — it
//!   is an end-to-end oracle that the engine, the frustum detector, and
//!   the rate analysis agree. It costs O(arcs) per event: the digest
//!   it compares is a running sum over its own token moves, re-anchored
//!   against a from-scratch hash at the window bounds and at the end
//!   (`tpn-conform` keeps the rehash-every-event replay as a reference).

use std::collections::HashMap;

use tpn_dataflow::interp::{execute, Env, Trace};
use tpn_dataflow::{DataflowError, NodeId, Operand, Sdsp};
use tpn_petri::rational::Ratio;
use tpn_petri::timed::{marking_digest, mix64, place_word};
use tpn_petri::trace::EventKind;
use tpn_petri::{Marking, PetriNet, PlaceId, TransitionId};

use crate::schedule::LoopSchedule;
use crate::trace::FiringTrace;

/// A violation found by [`check_schedule`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScheduleViolation {
    /// A consumer started before its producer's value was ready.
    Dependence {
        /// The consuming node and iteration.
        consumer: (NodeId, u64),
        /// The producing node and iteration.
        producer: (NodeId, u64),
        /// When the consumer started.
        start: u64,
        /// When the producer's value became available.
        available: u64,
    },
    /// Two executions of the same node overlap in time.
    SelfOverlap {
        /// The node.
        node: NodeId,
        /// The two iterations involved.
        iterations: (u64, u64),
    },
    /// More nodes started in one cycle than the machine issues.
    IssueWidth {
        /// The cycle.
        cycle: u64,
        /// How many started.
        started: usize,
        /// The machine's width.
        width: usize,
    },
}

impl std::fmt::Display for ScheduleViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleViolation::Dependence {
                consumer,
                producer,
                start,
                available,
            } => write!(
                f,
                "node {} iteration {} starts at {} but {}'s iteration {} value is ready at {}",
                consumer.0, consumer.1, start, producer.0, producer.1, available
            ),
            ScheduleViolation::SelfOverlap { node, iterations } => write!(
                f,
                "node {node} iterations {} and {} overlap",
                iterations.0, iterations.1
            ),
            ScheduleViolation::IssueWidth {
                cycle,
                started,
                width,
            } => write!(
                f,
                "cycle {cycle} starts {started} nodes on a width-{width} machine"
            ),
        }
    }
}

/// Checks `iterations` iterations of `schedule` against the dependence
/// structure of `sdsp`. `issue_width` of `None` means unlimited
/// parallelism (the ideal dataflow machine); `Some(1)` models the SCP.
///
/// The producer latency used for an SCP schedule should include the
/// pipeline transit: pass `extra_latency = l − 1` so a value issued at `t`
/// is consumable at `t + τ + (l − 1)`.
///
/// # Errors
///
/// The first [`ScheduleViolation`] found.
pub fn check_schedule(
    sdsp: &Sdsp,
    schedule: &LoopSchedule,
    iterations: u64,
    issue_width: Option<usize>,
    extra_latency: u64,
) -> Result<(), ScheduleViolation> {
    // Dependences.
    for (nid, node) in sdsp.nodes() {
        for operand in &node.operands {
            let Operand::Node { node: m, distance } = operand else {
                continue;
            };
            for iter in 0..iterations {
                let d = *distance as u64;
                if iter < d {
                    continue; // reads the initial value, always ready
                }
                let start = schedule.start_time(nid, iter);
                let available =
                    schedule.start_time(*m, iter - d) + schedule.node_time(*m) + extra_latency;
                if start < available {
                    return Err(ScheduleViolation::Dependence {
                        consumer: (nid, iter),
                        producer: (*m, iter - d),
                        start,
                        available,
                    });
                }
            }
        }
    }
    // Self overlap.
    for nid in sdsp.node_ids() {
        let tau = schedule.node_time(nid);
        for iter in 1..iterations {
            let prev = schedule.start_time(nid, iter - 1);
            let cur = schedule.start_time(nid, iter);
            if cur < prev + tau {
                return Err(ScheduleViolation::SelfOverlap {
                    node: nid,
                    iterations: (iter - 1, iter),
                });
            }
        }
    }
    // Issue width.
    if let Some(width) = issue_width {
        let mut per_cycle: HashMap<u64, usize> = HashMap::new();
        for nid in sdsp.node_ids() {
            for iter in 0..iterations {
                *per_cycle.entry(schedule.start_time(nid, iter)).or_default() += 1;
            }
        }
        for (&cycle, &started) in &per_cycle {
            if started > width {
                return Err(ScheduleViolation::IssueWidth {
                    cycle,
                    started,
                    width,
                });
            }
        }
    }
    Ok(())
}

/// Executes `iterations` iterations of the loop **in schedule order** and
/// compares every value against the reference interpreter.
///
/// Nodes are evaluated sorted by `(start time, node id)`; loop-carried
/// reads see exactly the values present at that point of the schedule, so
/// a schedule that reordered a dependence would compute different numbers
/// and fail the comparison.
///
/// # Errors
///
/// Environment errors from either execution.
///
/// # Panics
///
/// Panics if the schedule-ordered execution reads a value the schedule has
/// not yet produced (i.e. the schedule is invalid — run
/// [`check_schedule`] first for a structured error).
pub fn replay_semantics(
    sdsp: &Sdsp,
    schedule: &LoopSchedule,
    env: &Env,
    iterations: u64,
) -> Result<ReplayOutcome, DataflowError> {
    let reference = execute(sdsp, env, iterations as usize)?;

    // Gather and order all (start, node, iter) events.
    let mut events: Vec<(u64, NodeId, u64)> = Vec::new();
    for nid in sdsp.node_ids() {
        for iter in 0..iterations {
            events.push((schedule.start_time(nid, iter), nid, iter));
        }
    }
    events.sort_unstable_by_key(|&(t, n, i)| (t, n, i));

    let mut values: Vec<HashMap<u64, f64>> = vec![HashMap::new(); sdsp.num_nodes()];
    let mut mismatches = 0usize;
    let mut args = Vec::new();
    for (_, nid, iter) in events {
        let node = sdsp.node(nid);
        args.clear();
        for operand in &node.operands {
            let v = match operand {
                Operand::Node { node: m, distance } => {
                    let d = *distance as u64;
                    if iter >= d {
                        *values[m.index()].get(&(iter - d)).unwrap_or_else(|| {
                            panic!(
                                "schedule-order read of {}@{} before it was produced",
                                m,
                                iter - d
                            )
                        })
                    } else {
                        sdsp.node(*m).initial_value
                    }
                }
                Operand::Env { array, offset } => env.get(array, iter as i64 + offset)?,
                Operand::Lit(v) => *v,
                Operand::Param(name) => env.scalar(name)?,
                Operand::Index => iter as f64,
            };
            args.push(v);
        }
        let out = node.op.eval(&args);
        if out.to_bits() != reference.value(nid, iter as usize).to_bits() {
            mismatches += 1;
        }
        values[nid.index()].insert(iter, out);
    }
    Ok(ReplayOutcome {
        values_checked: (iterations as usize) * sdsp.num_nodes(),
        mismatches,
        reference,
    })
}

/// A violation found by [`replay_trace`]: the event stream is internally
/// inconsistent, or contradicts the net's semantics or the claimed rates.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceViolation {
    /// An event's instant precedes its predecessor's.
    TimeRegression {
        /// Index of the offending event.
        index: usize,
        /// Its instant.
        time: u64,
        /// The previous event's instant.
        prev: u64,
    },
    /// A transition started without every input place marked.
    StartWithoutTokens {
        /// The transition.
        transition: TransitionId,
        /// The instant.
        time: u64,
    },
    /// A transition started while a previous firing was still in flight
    /// (Assumption A.6.1 forbids overlap).
    StartWhileBusy {
        /// The transition.
        transition: TransitionId,
        /// The instant.
        time: u64,
    },
    /// A completion with no matching start.
    CompleteWithoutStart {
        /// The transition.
        transition: TransitionId,
        /// The instant.
        time: u64,
    },
    /// A firing's duration differs from the transition's execution time.
    WrongLatency {
        /// The transition.
        transition: TransitionId,
        /// When it started.
        start: u64,
        /// When it completed.
        complete: u64,
        /// The declared `τ`.
        expected: u64,
    },
    /// A start event's recorded residual is not the transition's `τ`.
    ResidualMismatch {
        /// The transition.
        transition: TransitionId,
        /// The instant.
        time: u64,
        /// The recorded residual.
        residual: u64,
        /// The declared `τ`.
        expected: u64,
    },
    /// A place exceeded the token bound implied by the initial marking.
    Unsafe {
        /// The place.
        place: PlaceId,
        /// The instant.
        time: u64,
        /// Its token count after the event.
        tokens: u32,
        /// The bound it broke.
        bound: u32,
    },
    /// The marking reconstructed from the events disagrees with the digest
    /// stamped on an event.
    DigestMismatch {
        /// Index of the offending event.
        index: usize,
        /// Its instant.
        time: u64,
    },
    /// A transition never fired inside the frustum window, contradicting
    /// liveness of the steady state.
    DeadTransition {
        /// The silent transition.
        transition: TransitionId,
    },
    /// The firing rate observed in the window differs from the claimed
    /// steady-state rate.
    RateMismatch {
        /// The transition.
        transition: TransitionId,
        /// Rate counted from the trace.
        observed: Ratio,
        /// The claimed rate (e.g. `RateReport::measured`).
        expected: Ratio,
    },
}

impl std::fmt::Display for TraceViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceViolation::TimeRegression { index, time, prev } => {
                write!(f, "event {index} at instant {time} precedes instant {prev}")
            }
            TraceViolation::StartWithoutTokens { transition, time } => {
                write!(f, "{transition} started at {time} without its input tokens")
            }
            TraceViolation::StartWhileBusy { transition, time } => {
                write!(f, "{transition} started at {time} while still firing")
            }
            TraceViolation::CompleteWithoutStart { transition, time } => {
                write!(f, "{transition} completed at {time} without starting")
            }
            TraceViolation::WrongLatency {
                transition,
                start,
                complete,
                expected,
            } => write!(f, "{transition} ran {start}..{complete} but τ = {expected}"),
            TraceViolation::ResidualMismatch {
                transition,
                time,
                residual,
                expected,
            } => write!(
                f,
                "{transition} started at {time} with residual {residual}, τ = {expected}"
            ),
            TraceViolation::Unsafe {
                place,
                time,
                tokens,
                bound,
            } => write!(
                f,
                "place {place} holds {tokens} tokens at {time} (bound {bound})"
            ),
            TraceViolation::DigestMismatch { index, time } => write!(
                f,
                "marking digest of event {index} (instant {time}) disagrees with replay"
            ),
            TraceViolation::DeadTransition { transition } => {
                write!(f, "{transition} never fires inside the frustum window")
            }
            TraceViolation::RateMismatch {
                transition,
                observed,
                expected,
            } => write!(
                f,
                "{transition} fires at rate {observed} in the window, expected {expected}"
            ),
        }
    }
}

impl std::error::Error for TraceViolation {}

/// What [`replay_trace`] established about a trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceValidation {
    /// Events replayed and checked.
    pub events_checked: usize,
    /// The highest token count any place reached during replay.
    pub max_tokens: u32,
    /// The bound enforced: the larger of 1 and the initial marking's
    /// maximum (balanced nets legitimately start above 1).
    pub bound: u32,
    /// The frustum period the window rates are measured against.
    pub period: u64,
    /// Firing starts per transition inside the window
    /// `(start_time, repeat_time]`.
    pub window_counts: Vec<u64>,
}

impl TraceValidation {
    /// Whether the replay stayed 1-bounded (the paper's safety property).
    pub fn is_safe(&self) -> bool {
        self.max_tokens <= 1
    }

    /// The steady-state rate of `t` counted from the window.
    pub fn rate_of(&self, t: TransitionId) -> Ratio {
        Ratio::new(self.window_counts[t.index()], self.period)
    }

    /// Confirms that every listed transition fires at `expected` inside
    /// the window — the independent cross-check against
    /// [`crate::rate::RateReport`]'s min-cycle-ratio.
    ///
    /// # Errors
    ///
    /// [`TraceViolation::RateMismatch`] on the first disagreeing
    /// transition.
    pub fn confirm_rate<I: IntoIterator<Item = TransitionId>>(
        &self,
        transitions: I,
        expected: Ratio,
    ) -> Result<(), TraceViolation> {
        for t in transitions {
            let observed = self.rate_of(t);
            if observed != expected {
                return Err(TraceViolation::RateMismatch {
                    transition: t,
                    observed,
                    expected,
                });
            }
        }
        Ok(())
    }
}

/// Replays a [`FiringTrace`] from the event stream **alone** — starting at
/// `initial` and applying only recorded token movements — and checks, per
/// event: monotone time, enabledness at starts, non-reentrance, exact
/// firing latency `τ`, boundedness against the initial marking's maximum,
/// and the stamped marking digest. After replay, liveness over the window:
/// every transition must fire in `(start_time, repeat_time]`.
///
/// The digest is compared at every event against a running sum of
/// [`place_word`]s that the replay keeps over its own token moves, so an
/// event costs O(arcs) rather than O(places). At the last event of each
/// window bound's instant and at the final event the sum is re-anchored:
/// the marking is rehashed from scratch with [`marking_digest`] and must
/// agree too.
///
/// No engine, residual vector, frustum machinery or producer-side hash
/// ([`MarkingHash`](tpn_petri::timed::MarkingHash)) is consulted, so this
/// is an independent oracle for all of them (contrast `tpn-conform`'s
/// reference detector, which re-steps the net naively under the earliest
/// firing rule).
///
/// # Errors
///
/// The first [`TraceViolation`] found.
pub fn replay_trace(
    net: &PetriNet,
    initial: &Marking,
    trace: &FiringTrace,
) -> Result<TraceValidation, TraceViolation> {
    let initial_max = (0..net.num_places())
        .map(|i| initial.tokens(PlaceId::from_index(i)))
        .max()
        .unwrap_or(0);
    let bound = initial_max.max(1);
    let mut marking = initial.clone();
    // `mix64(raw)` is the digest of `marking`: each token adds its place's
    // word.
    let mut raw = marking.marked_places().fold(0u64, |raw, (p, n)| {
        raw.wrapping_add(place_word(p).wrapping_mul(u64::from(n)))
    });
    let mut in_flight: Vec<Option<u64>> = vec![None; net.num_transitions()];
    let mut window_counts = vec![0u64; net.num_transitions()];
    let mut max_tokens = initial_max;
    let mut prev_time = 0u64;
    for (index, e) in trace.events.iter().enumerate() {
        if e.time < prev_time {
            return Err(TraceViolation::TimeRegression {
                index,
                time: e.time,
                prev: prev_time,
            });
        }
        prev_time = e.time;
        let t = e.transition;
        let tau = net.transition(t).time();
        match e.kind {
            EventKind::Start => {
                if in_flight[t.index()].is_some() {
                    return Err(TraceViolation::StartWhileBusy {
                        transition: t,
                        time: e.time,
                    });
                }
                if !marking.enables(net, t) {
                    return Err(TraceViolation::StartWithoutTokens {
                        transition: t,
                        time: e.time,
                    });
                }
                if e.residual != tau {
                    return Err(TraceViolation::ResidualMismatch {
                        transition: t,
                        time: e.time,
                        residual: e.residual,
                        expected: tau,
                    });
                }
                marking.consume_inputs(net, t);
                for &p in net.transition(t).inputs() {
                    raw = raw.wrapping_sub(place_word(p));
                }
                in_flight[t.index()] = Some(e.time);
                if e.time > trace.start_time && e.time <= trace.repeat_time {
                    window_counts[t.index()] += 1;
                }
            }
            EventKind::Complete => {
                let Some(started) = in_flight[t.index()].take() else {
                    return Err(TraceViolation::CompleteWithoutStart {
                        transition: t,
                        time: e.time,
                    });
                };
                if e.time != started + tau {
                    return Err(TraceViolation::WrongLatency {
                        transition: t,
                        start: started,
                        complete: e.time,
                        expected: tau,
                    });
                }
                marking.produce_outputs(net, t);
                for &p in net.transition(t).outputs() {
                    raw = raw.wrapping_add(place_word(p));
                    let tokens = marking.tokens(p);
                    max_tokens = max_tokens.max(tokens);
                    if tokens > bound {
                        return Err(TraceViolation::Unsafe {
                            place: p,
                            time: e.time,
                            tokens,
                            bound,
                        });
                    }
                }
            }
        }
        let next = trace.events.get(index + 1).map(|n| n.time);
        let crosses = |bound: u64| e.time <= bound && next.is_none_or(|n| n > bound);
        let anchor = next.is_none() || crosses(trace.start_time) || crosses(trace.repeat_time);
        if e.marking_digest != mix64(raw)
            || (anchor && e.marking_digest != marking_digest(&marking))
        {
            return Err(TraceViolation::DigestMismatch {
                index,
                time: e.time,
            });
        }
    }
    for t in net.transition_ids() {
        if window_counts[t.index()] == 0 {
            return Err(TraceViolation::DeadTransition { transition: t });
        }
    }
    Ok(TraceValidation {
        events_checked: trace.events.len(),
        max_tokens,
        bound,
        period: trace.period().max(1),
        window_counts,
    })
}

/// Result of [`replay_semantics`].
#[derive(Clone, Debug)]
pub struct ReplayOutcome {
    /// Total values compared.
    pub values_checked: usize,
    /// Values that differed from the reference interpreter (0 for a valid
    /// schedule).
    pub mismatches: usize,
    /// The reference trace, for further inspection.
    pub reference: Trace,
}

impl ReplayOutcome {
    /// Whether the scheduled execution matched the reference exactly.
    pub fn semantics_preserved(&self) -> bool {
        self.mismatches == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frustum::detect_frustum_eager;
    use tpn_dataflow::to_petri::to_petri;
    use tpn_dataflow::{OpKind, SdspBuilder};

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

    fn schedule_of(sdsp: &Sdsp) -> LoopSchedule {
        let pn = to_petri(sdsp);
        let f = detect_frustum_eager(&pn.net, pn.marking.clone(), 1_000).unwrap();
        LoopSchedule::from_frustum(sdsp, &pn, &f).unwrap()
    }

    #[test]
    fn derived_schedule_passes_dependence_check() {
        let sdsp = l2();
        let s = schedule_of(&sdsp);
        check_schedule(&sdsp, &s, 100, None, 0).unwrap();
    }

    #[test]
    fn replay_matches_reference_interpreter() {
        let sdsp = l2();
        let s = schedule_of(&sdsp);
        let env = Env::ramp(&["X", "Y", "W"], 64, |ai, i| (ai as f64) * 0.5 + i as f64);
        let outcome = replay_semantics(&sdsp, &s, &env, 64).unwrap();
        assert!(outcome.semantics_preserved());
        assert_eq!(outcome.values_checked, 64 * 5);
    }

    #[test]
    fn trace_replay_confirms_safety_liveness_and_rate() {
        let sdsp = l2();
        let pn = to_petri(&sdsp);
        let f = detect_frustum_eager(&pn.net, pn.marking.clone(), 1_000).unwrap();
        let trace = FiringTrace::from_frustum(&pn.net, &pn.marking, &f);
        let v = replay_trace(&pn.net, &pn.marking, &trace).unwrap();
        assert!(v.is_safe());
        assert_eq!(v.events_checked, trace.events.len());
        let expected = crate::rate::RateReport::for_sdsp_pn(&pn, &f)
            .unwrap()
            .measured;
        v.confirm_rate(pn.net.transition_ids(), expected).unwrap();
    }

    #[test]
    fn trace_replay_validates_scp_runs() {
        let sdsp = l2();
        let pn = to_petri(&sdsp);
        let scp = crate::scp::build_scp(&pn, 8);
        let f = crate::frustum::detect_frustum(
            &scp.net,
            scp.marking.clone(),
            crate::policy::FifoPolicy::new(&scp),
            100_000,
        )
        .unwrap();
        let trace = FiringTrace::from_scp_frustum(&scp, &f);
        let v = replay_trace(&scp.net, &scp.marking, &trace).unwrap();
        assert!(v.is_safe());
        let expected = crate::rate::ScpRateReport::for_scp(&scp, &f)
            .unwrap()
            .measured;
        v.confirm_rate(scp.sdsp_transitions(), expected).unwrap();
    }

    #[test]
    fn tampered_traces_are_rejected() {
        let sdsp = l2();
        let pn = to_petri(&sdsp);
        let f = detect_frustum_eager(&pn.net, pn.marking.clone(), 1_000).unwrap();
        let good = FiringTrace::from_frustum(&pn.net, &pn.marking, &f);

        // Dropping an event desynchronizes the replayed marking.
        let mut missing = good.clone();
        missing.events.remove(2);
        assert!(replay_trace(&pn.net, &pn.marking, &missing).is_err());

        // Duplicating a start violates non-reentrance or enabledness.
        let mut dup = good.clone();
        let first_start = *dup
            .events
            .iter()
            .find(|e| e.kind == tpn_petri::trace::EventKind::Start)
            .unwrap();
        dup.events.insert(1, first_start);
        assert!(matches!(
            replay_trace(&pn.net, &pn.marking, &dup),
            Err(TraceViolation::StartWhileBusy { .. })
                | Err(TraceViolation::StartWithoutTokens { .. })
        ));

        // Corrupting a digest is caught at exactly that event.
        let mut bad_digest = good.clone();
        bad_digest.events[4].marking_digest ^= 1;
        assert_eq!(
            replay_trace(&pn.net, &pn.marking, &bad_digest),
            Err(TraceViolation::DigestMismatch {
                index: 4,
                time: bad_digest.events[4].time
            })
        );

        // Shifting an event's time breaks latency accounting.
        let mut late = good;
        let idx = late
            .events
            .iter()
            .position(|e| e.kind == tpn_petri::trace::EventKind::Complete)
            .unwrap();
        late.events[idx].time += 1;
        assert!(matches!(
            replay_trace(&pn.net, &pn.marking, &late),
            Err(TraceViolation::WrongLatency { .. }) | Err(TraceViolation::TimeRegression { .. })
        ));
    }

    #[test]
    fn trace_violations_display() {
        let v = TraceViolation::DeadTransition {
            transition: tpn_petri::TransitionId::from_index(1),
        };
        assert!(v.to_string().contains("never fires"));
        let v = TraceViolation::RateMismatch {
            transition: tpn_petri::TransitionId::from_index(0),
            observed: Ratio::new(1, 2),
            expected: Ratio::new(1, 3),
        };
        assert!(v.to_string().contains("1/2") && v.to_string().contains("1/3"));
    }

    #[test]
    fn violations_display() {
        let v = ScheduleViolation::Dependence {
            consumer: (NodeId::from_index(1), 3),
            producer: (NodeId::from_index(0), 3),
            start: 2,
            available: 4,
        };
        assert!(v.to_string().contains("ready at 4"));
        let v = ScheduleViolation::SelfOverlap {
            node: NodeId::from_index(2),
            iterations: (1, 2),
        };
        assert!(v.to_string().contains("overlap"));
        let v = ScheduleViolation::IssueWidth {
            cycle: 7,
            started: 3,
            width: 1,
        };
        assert!(v.to_string().contains("width-1"));
    }
}
