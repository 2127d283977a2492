//! Reference implementations: oracles for production fast paths.
//!
//! [`detect_frustum_reference`] runs the earliest firing rule the plain
//! way and shares no stepping code with [`tpn_petri::timed::Engine`] or
//! with the SCP policies of [`tpn_sched::policy`]:
//!
//! * every start is followed by a fresh [`InstantaneousState::startable`]
//!   scan of the whole net;
//! * every tick scans every residual for completions;
//! * the FIFO issue queue re-syncs over every instruction on each choice,
//!   tests membership with `VecDeque::contains`, and fingerprints itself
//!   with SipHash;
//! * repetition is keyed on the full state plus the whole queue, so no
//!   digest or hash collision can fake a frustum.
//!
//! [`agree`] then compares a production [`FrustumReport`] with the
//! reference run instant by instant. Digests agree only under the eager
//! policy, where neither side has a policy fingerprint; the FIFO sides
//! hash their queues differently by design.
//!
//! [`minimize_storage_reference`] is the §6 storage greedy verified the
//! plain way: every candidate merge rebuilds the SDSP-PN and re-solves
//! its critical ratio. It shares no code with the potentials check of
//! [`tpn_storage::minimize_storage_steps`], and the two must return
//! identical reports and acknowledgement structures.
//!
//! [`replay_trace_reference`] is the trace-replay validator the plain
//! way: every event rehashes the whole marking with
//! [`marking_digest`], where [`tpn_sched::validate::replay_trace`] keeps a
//! running sum. The two must return the same validation or the same first
//! violation on any event stream, genuine or tampered.
//!
//! [`chrome_trace_json_reference`] and [`jsonl_reference`] render a
//! [`FiringTrace`] one `format!`-built string per item, joined at the
//! end; the one-pass writers of [`FiringTrace`] must match them byte for
//! byte.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};

use tpn_dataflow::to_petri::to_petri;
use tpn_dataflow::{AckArc, Sdsp};
use tpn_petri::marked::check_live;
use tpn_petri::ratio::critical_ratio;
use tpn_petri::timed::{marking_digest, state_digest, InstantaneousState, StepRecord};
use tpn_petri::trace::EventKind;
use tpn_petri::{Marking, PetriNet, PlaceId, TransitionId};
use tpn_sched::validate::{TraceValidation, TraceViolation};
use tpn_sched::{FiringTrace, FrustumReport, SchedError, ScpPn};
use tpn_storage::{minimize_storage_steps, CoalescedGroup, StorageError, StorageReport};

/// Conflict resolution as the reference stepper runs it.
#[derive(Clone, Debug)]
pub enum ReferencePolicy {
    /// Starts every startable transition, lowest id first.
    Eager,
    /// Starts pipeline stages first, then the front of a FIFO queue of
    /// data-ready instructions.
    Fifo {
        /// The SCP run place.
        run_place: PlaceId,
        /// Whether each transition is an instruction.
        is_sdsp: Vec<bool>,
        /// The issue queue, front first.
        queue: VecDeque<TransitionId>,
    },
    /// Starts pipeline stages first, then the lowest-id instruction.
    Priority {
        /// The SCP run place.
        run_place: PlaceId,
        /// Whether each transition is an instruction.
        is_sdsp: Vec<bool>,
    },
}

impl ReferencePolicy {
    /// The FIFO issue policy for `scp`, with an empty queue.
    pub fn fifo(scp: &ScpPn) -> Self {
        ReferencePolicy::Fifo {
            run_place: scp.run_place,
            is_sdsp: scp.is_sdsp.clone(),
            queue: VecDeque::new(),
        }
    }

    /// The lowest-id-first issue policy for `scp`.
    pub fn priority(scp: &ScpPn) -> Self {
        ReferencePolicy::Priority {
            run_place: scp.run_place,
            is_sdsp: scp.is_sdsp.clone(),
        }
    }

    fn choose(
        &mut self,
        net: &PetriNet,
        state: &InstantaneousState,
        startable: &[TransitionId],
    ) -> Option<TransitionId> {
        match self {
            ReferencePolicy::Eager => startable.first().copied(),
            ReferencePolicy::Fifo {
                run_place,
                is_sdsp,
                queue,
            } => {
                if let Some(&dummy) = startable.iter().find(|t| !is_sdsp[t.index()]) {
                    return Some(dummy);
                }
                fifo_sync(net, state, *run_place, is_sdsp, queue);
                if state.marking.tokens(*run_place) == 0 {
                    return None;
                }
                queue.front().copied()
            }
            ReferencePolicy::Priority { run_place, is_sdsp } => {
                if let Some(&dummy) = startable.iter().find(|t| !is_sdsp[t.index()]) {
                    return Some(dummy);
                }
                if state.marking.tokens(*run_place) == 0 {
                    return None;
                }
                startable.iter().find(|t| is_sdsp[t.index()]).copied()
            }
        }
    }

    fn on_instant_end(&mut self, net: &PetriNet, state: &InstantaneousState) {
        if let ReferencePolicy::Fifo {
            run_place,
            is_sdsp,
            queue,
        } = self
        {
            fifo_sync(net, state, *run_place, is_sdsp, queue);
        }
    }

    /// The policy's whole memory: the FIFO queue, front first.
    fn memory(&self) -> Vec<TransitionId> {
        match self {
            ReferencePolicy::Fifo { queue, .. } => queue.iter().copied().collect(),
            _ => Vec::new(),
        }
    }

    fn fingerprint(&self) -> u64 {
        match self {
            ReferencePolicy::Fifo { queue, .. } => {
                let mut h = DefaultHasher::new();
                for t in queue {
                    t.hash(&mut h);
                }
                h.finish()
            }
            _ => 0,
        }
    }
}

/// Drops every queued entry that is no longer data-ready, then appends
/// every data-ready instruction not yet queued, in id order.
fn fifo_sync(
    net: &PetriNet,
    state: &InstantaneousState,
    run_place: PlaceId,
    is_sdsp: &[bool],
    queue: &mut VecDeque<TransitionId>,
) {
    let data_ready = |t: TransitionId| {
        !state.is_busy(t)
            && net
                .transition(t)
                .inputs()
                .iter()
                .all(|&p| p == run_place || state.marking.tokens(p) > 0)
    };
    queue.retain(|&t| is_sdsp[t.index()] && data_ready(t));
    for t in net.transition_ids() {
        if is_sdsp[t.index()] && data_ready(t) && !queue.contains(&t) {
            queue.push_back(t);
        }
    }
}

/// What [`detect_frustum_reference`] found.
#[derive(Clone, Debug)]
pub struct ReferenceRun {
    /// One record per simulated instant, `0 ..= repeat_time`. Digests are
    /// computed from scratch with [`state_digest`].
    pub steps: Vec<StepRecord>,
    /// First occurrence of the repeated state.
    pub start_time: u64,
    /// Second occurrence of the repeated state.
    pub repeat_time: u64,
    /// Firings of each transition in `(start_time, repeat_time]`.
    pub counts: Vec<u64>,
}

/// Runs `net` from `marking` under `policy` until the state and the
/// policy's memory repeat, within `max_steps` simulated instants — the
/// budget, errors and results of [`tpn_sched::detect_frustum`], computed
/// the naive way.
///
/// # Errors
///
/// The same as [`tpn_sched::detect_frustum`]: `FrustumNotFound` past the
/// budget, `EmptyLoop`, `Petri` (a dead marked graph or a zero execution
/// time) and `Deadlock`.
pub fn detect_frustum_reference(
    net: &PetriNet,
    marking: Marking,
    mut policy: ReferencePolicy,
    max_steps: u64,
) -> Result<ReferenceRun, SchedError> {
    net.validate_times()?;
    let initial = marking.clone();
    let mut state = InstantaneousState::initial(net, marking);
    let mut seen: HashMap<(InstantaneousState, Vec<TransitionId>), u64> = HashMap::new();
    let mut steps = vec![instant(net, &mut state, &mut policy, 0, Vec::new())];
    seen.insert((state.clone(), policy.memory()), 0);
    loop {
        if steps.len() as u64 >= max_steps {
            return Err(SchedError::FrustumNotFound { max_steps });
        }
        let time = steps.len() as u64;
        let completed = complete(net, &mut state);
        let step = instant(net, &mut state, &mut policy, time, completed);
        if step.started.is_empty() && step.completed.is_empty() && state.all_idle() {
            return Err(diagnose(net, &initial, time));
        }
        steps.push(step);
        let key = (state.clone(), policy.memory());
        if let Some(&start_time) = seen.get(&key) {
            let mut counts = vec![0u64; net.num_transitions()];
            for step in &steps[(start_time + 1) as usize..] {
                for &t in &step.started {
                    counts[t.index()] += 1;
                }
            }
            return Ok(ReferenceRun {
                steps,
                start_time,
                repeat_time: time,
                counts,
            });
        }
        seen.insert(key, time);
    }
}

/// Advances every busy residual by one cycle and deposits the outputs of
/// the firings that end, in id order.
fn complete(net: &PetriNet, state: &mut InstantaneousState) -> Vec<TransitionId> {
    let mut completed = Vec::new();
    for t in net.transition_ids() {
        let residual = &mut state.residual[t.index()];
        if *residual > 0 {
            *residual -= 1;
            if *residual == 0 {
                state.marking.produce_outputs(net, t);
                completed.push(t);
            }
        }
    }
    completed
}

/// Starts transitions while the policy picks one, rescanning the whole net
/// after every start, and records the instant.
fn instant(
    net: &PetriNet,
    state: &mut InstantaneousState,
    policy: &mut ReferencePolicy,
    time: u64,
    completed: Vec<TransitionId>,
) -> StepRecord {
    let mut started = Vec::new();
    loop {
        let startable = state.startable(net);
        if startable.is_empty() {
            break;
        }
        let Some(t) = policy.choose(net, state, &startable) else {
            break;
        };
        assert!(
            startable.contains(&t),
            "reference policy chose {t}, which cannot start"
        );
        state.marking.consume_inputs(net, t);
        state.residual[t.index()] = net.transition(t).time();
        started.push(t);
    }
    policy.on_instant_end(net, state);
    let policy_fingerprint = policy.fingerprint();
    StepRecord {
        time,
        completed,
        started,
        digest: state_digest(state, policy_fingerprint),
        policy_fingerprint,
    }
}

/// Types a permanent stall the way the production detector does.
fn diagnose(net: &PetriNet, initial: &Marking, time: u64) -> SchedError {
    if net.num_transitions() == 0 {
        return SchedError::EmptyLoop;
    }
    if net.validate_marked_graph().is_ok() {
        if let Err(e) = check_live(net, initial) {
            return SchedError::Petri(e);
        }
    }
    SchedError::Deadlock { time }
}

/// Compares a production detection with the reference run: the same
/// `start_time`, `repeat_time` and `counts`, and at every instant the same
/// `started` and `completed` lists — plus the same digests when
/// `compare_digests` is set (meaningful only under the eager policy).
///
/// # Errors
///
/// A message naming the first disagreement.
pub fn agree(
    report: &FrustumReport,
    reference: &ReferenceRun,
    compare_digests: bool,
) -> Result<(), String> {
    if (report.start_time, report.repeat_time) != (reference.start_time, reference.repeat_time) {
        return Err(format!(
            "frustum ({}, {}] but the reference found ({}, {}]",
            report.start_time, report.repeat_time, reference.start_time, reference.repeat_time
        ));
    }
    for (a, b) in report.steps().zip(&reference.steps) {
        if a.time != b.time || a.started != b.started || a.completed != b.completed {
            return Err(format!(
                "instant {}: started {:?} completed {:?} but the reference started {:?} \
                 completed {:?}",
                b.time, a.started, a.completed, b.started, b.completed
            ));
        }
        if compare_digests && a.digest != b.digest {
            return Err(format!(
                "instant {}: digest differs from the reference",
                b.time
            ));
        }
    }
    if report.steps().len() != reference.steps.len() {
        return Err(format!(
            "{} records but the reference has {}",
            report.steps().len(),
            reference.steps.len()
        ));
    }
    if report.counts != reference.counts {
        return Err(format!(
            "window counts {:?} but the reference counted {:?}",
            report.counts, reference.counts
        ));
    }
    Ok(())
}

/// [`tpn_storage::minimize_storage_steps`] with every candidate verified
/// from scratch: the merged loop is rebuilt, translated to its SDSP-PN,
/// and its critical ratio re-solved; the merge stands only if the cycle
/// time is unchanged. Candidates are found by scanning all ordered pairs
/// of acknowledgements, and the scan restarts after each accepted merge.
///
/// # Errors
///
/// Analysis errors for malformed or dead nets.
pub fn minimize_storage_reference(
    sdsp: &Sdsp,
    max_merges: usize,
) -> Result<(Sdsp, StorageReport), StorageError> {
    let before = sdsp.storage_locations();
    let base_pn = to_petri(sdsp);
    let target = critical_ratio(&base_pn.net, &base_pn.marking)?.cycle_time;

    let mut current = sdsp.clone();
    let mut merges = 0usize;
    while merges < max_merges {
        let mut merged = false;
        let acks: Vec<AckArc> = current.acks().map(|(_, a)| a.clone()).collect();
        'pairs: for i in 0..acks.len() {
            for j in 0..acks.len() {
                if i == j {
                    continue;
                }
                // Chain i ends where chain j begins.
                if acks[i].from != acks[j].to {
                    continue;
                }
                let mut covers = acks[i].covers.clone();
                covers.extend_from_slice(&acks[j].covers);
                let tokens: u32 = covers
                    .iter()
                    .map(|&a| current.arc(a).initial_tokens())
                    .sum();
                if tokens > 1 {
                    continue; // two live values cannot share one location
                }
                let candidate_ack = AckArc {
                    from: acks[j].from,
                    to: acks[i].to,
                    covers,
                    capacity: acks[i].capacity.min(acks[j].capacity),
                };
                let mut new_acks: Vec<AckArc> = acks
                    .iter()
                    .enumerate()
                    .filter(|&(k, _)| k != i && k != j)
                    .map(|(_, a)| a.clone())
                    .collect();
                new_acks.push(candidate_ack);
                let Ok(candidate) = current.with_acks(new_acks) else {
                    continue;
                };
                let pn = to_petri(&candidate);
                let Ok(ratio) = critical_ratio(&pn.net, &pn.marking) else {
                    continue;
                };
                if ratio.cycle_time == target {
                    current = candidate;
                    merged = true;
                    merges += 1;
                    break 'pairs;
                }
            }
        }
        if !merged {
            break;
        }
    }

    let groups = current
        .acks()
        .filter(|(_, a)| a.covers.len() > 1)
        .map(|(_, a)| CoalescedGroup {
            to: a.to,
            from: a.from,
            arcs: a.covers.len(),
        })
        .collect();
    let report = StorageReport {
        before,
        after: current.storage_locations(),
        groups,
        cycle_time: target,
    };
    Ok((current, report))
}

/// Runs [`tpn_storage::minimize_storage_steps`] and
/// [`minimize_storage_reference`] with the same `max_merges` and
/// describes the first difference: in the report, in the optimised
/// acknowledgement structure, or in the error.
///
/// # Errors
///
/// A description of the disagreement.
pub fn storage_agree(sdsp: &Sdsp, max_merges: usize) -> Result<(), String> {
    let production = minimize_storage_steps(sdsp, max_merges);
    let reference = minimize_storage_reference(sdsp, max_merges);
    match (production, reference) {
        (Ok((got, got_report)), Ok((want, want_report))) => {
            if got_report != want_report {
                return Err(format!(
                    "report {got_report:?} != reference {want_report:?}"
                ));
            }
            let got: Vec<&AckArc> = got.acks().map(|(_, a)| a).collect();
            let want: Vec<&AckArc> = want.acks().map(|(_, a)| a).collect();
            if got != want {
                return Err(format!("acknowledgements {got:?} != reference {want:?}"));
            }
            Ok(())
        }
        (Err(got), Err(want)) if got == want => Ok(()),
        (got, want) => Err(format!(
            "{:?} != reference {:?}",
            got.map(|(_, report)| report),
            want.map(|(_, report)| report)
        )),
    }
}

/// [`tpn_sched::validate::replay_trace`] as it was first written: the same
/// checks in the same order, with the stamped digest compared at every
/// event against the marking rehashed from scratch, O(places) per event.
///
/// # Errors
///
/// The first [`TraceViolation`] found.
pub fn replay_trace_reference(
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
        if e.marking_digest != marking_digest(&marking) {
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

/// [`FiringTrace::chrome_trace_json`] built the plain way: one `format!`
/// string per trace event, escaped per use, joined at the end.
pub fn chrome_trace_json_reference(trace: &FiringTrace) -> String {
    let mut items: Vec<String> = Vec::new();
    let scp = trace.is_scp();
    items.push(
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
         \"args\":{\"name\":\"tpn earliest-firing run\"}}"
            .to_string(),
    );
    items.push(meta_thread(0, "timeline"));
    if scp {
        items.push(meta_thread(1, "issue slot"));
    }
    for (idx, info) in trace.transitions.iter().enumerate() {
        items.push(meta_thread(idx as u64 + 2, &info.name));
    }
    for span in &trace.spans {
        items.push(format!(
            "{{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":{},\"dur\":{},\"name\":{}}}",
            span.begin,
            span.end - span.begin,
            json_str(&span.name)
        ));
    }
    for (name, ts) in [
        ("frustum start", trace.start_time),
        ("frustum repeat", trace.repeat_time),
    ] {
        items.push(format!(
            "{{\"ph\":\"i\",\"pid\":1,\"tid\":0,\"ts\":{ts},\"s\":\"p\",\"name\":{}}}",
            json_str(name)
        ));
    }
    for e in &trace.events {
        if e.kind != EventKind::Start {
            continue;
        }
        let info = &trace.transitions[e.transition.index()];
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

/// [`FiringTrace::jsonl`] built the plain way, one `format!` per line.
pub fn jsonl_reference(trace: &FiringTrace) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"kind\":\"meta\",\"start_time\":{},\"repeat_time\":{},\"period\":{},\
         \"transitions\":[",
        trace.start_time,
        trace.repeat_time,
        trace.period()
    ));
    for (i, info) in trace.transitions.iter().enumerate() {
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
    for span in &trace.spans {
        out.push_str(&format!(
            "{{\"kind\":\"span\",\"name\":{},\"begin\":{},\"end\":{}}}\n",
            json_str(&span.name),
            span.begin,
            span.end
        ));
    }
    for e in &trace.events {
        let kind = match e.kind {
            EventKind::Start => "start",
            EventKind::Complete => "complete",
        };
        out.push_str(&format!(
            "{{\"kind\":\"{kind}\",\"time\":{},\"transition\":{},\"name\":{},\
             \"residual\":{},\"digest\":\"{:#018x}\"}}\n",
            e.time,
            e.transition.index(),
            json_str(&trace.transitions[e.transition.index()].name),
            e.residual,
            e.marking_digest
        ));
    }
    out
}

fn meta_thread(tid: u64, name: &str) -> String {
    format!(
        "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
         \"args\":{{\"name\":{}}}}}",
        json_str(name)
    )
}

/// A JSON string literal: quotes and backslashes escaped, other control
/// characters as `\u00XX`.
fn json_str(s: &str) -> String {
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
    use tpn_dataflow::to_petri::to_petri;
    use tpn_sched::detect_frustum_eager;

    #[test]
    fn agree_names_the_first_divergent_instant() {
        let pn = to_petri(&crate::generate(0, 1, crate::Shape::Chains));
        let fast = detect_frustum_eager(&pn.net, pn.marking.clone(), 100_000).unwrap();
        let mut slow =
            detect_frustum_reference(&pn.net, pn.marking.clone(), ReferencePolicy::Eager, 100_000)
                .unwrap();
        slow.steps[1].started.reverse();
        slow.steps[1].started.push(TransitionId::from_index(0));
        let err = agree(&fast, &slow, false).unwrap_err();
        assert!(err.starts_with("instant 1:"), "{err}");
    }
}
