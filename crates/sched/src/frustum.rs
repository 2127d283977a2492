//! Cyclic-frustum detection (§3.3 of the paper).
//!
//! The behaviour graph of an SDSP-PN under the earliest firing rule is an
//! infinite trace, but because the net is live and safe (and the choice
//! policy deterministic), the instantaneous state — marking plus residual
//! firing times plus policy state — ranges over a finite set, so some state
//! repeats; from then on the whole trace repeats (Lemmas 3.3.1/3.3.2 and
//! 5.2.1). The segment between the first repeated state's two occurrences
//! is the **cyclic frustum**; its firing counts and length give the
//! steady-state computation rate of every transition.
//!
//! §4 of the paper proves the repetition happens within a polynomial number
//! of steps (O(n⁴) for a single critical cycle); §5 observes that on real
//! loops it appears within `O(n)` steps. [`detect_frustum`] runs the
//! engine with a step budget looking for a repeated state.
//!
//! # Digest-based repetition detection
//!
//! Hashing the full instantaneous state at every instant (and keeping a
//! clone of it as the map key) dominates detection time on large nets.
//! [`detect_frustum`] instead indexes instants by the engine's
//! **incrementally maintained 64-bit digest** (see
//! [`tpn_petri::timed::state_digest`]): per instant the detector stores
//! only the digest and the instant's events, in one arena the engine
//! appends to, plus a compact [`PackedState`] checkpoint every
//! [`CHECKPOINT_INTERVAL`] instants. A digest match is
//! only a *candidate* repetition; it is confirmed — making the result
//! exact despite possible 64-bit collisions — by replaying the recorded
//! events from the nearest checkpoint (bounded work) and comparing the
//! reconstructed state and policy fingerprint against the live engine
//! state.
//!
//! The engine is event-driven (see [`tpn_petri::timed`]), and the detect
//! loop adds only O(1) work per instant between checkpoints: a digest
//! lookup, a record push and the engine's own idle flag. Nothing is
//! allocated per instant: the arena, the records and the digest index
//! grow by doubling, and the index hashes the already-mixed digests with
//! one multiply instead of SipHash. The
//! differential oracle, a naive full-state-key detector that shares no
//! stepping code with this one, lives in `tpn-conform`.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use tpn_petri::marked::check_live;
use tpn_petri::rational::Ratio;
use tpn_petri::timed::{
    ChoicePolicy, EagerPolicy, Engine, EngineStats, InstantaneousState, PackedState,
};
use tpn_petri::{Marking, PetriNet, TransitionId};

use crate::error::SchedError;

/// Classifies a permanently idle run: degenerate inputs surface as the
/// same typed errors the analytic path ([`tpn_petri::ratio::critical_ratio`])
/// reports — [`SchedError::EmptyLoop`] for a zero-transition net,
/// [`SchedError::Petri`] ([`tpn_petri::PetriError::NotLive`]) for a dead
/// marking on a marked graph — instead of a bare [`SchedError::Deadlock`],
/// which remains only for stalls the structure cannot explain (non-marked-
/// graph nets under a conflict policy).
fn diagnose_deadlock(net: &PetriNet, initial: &PackedState, time: u64) -> SchedError {
    if net.num_transitions() == 0 {
        return SchedError::EmptyLoop;
    }
    if net.validate_marked_graph().is_ok() {
        let marking = initial.unpack(net).marking;
        if let Err(e) = check_live(net, &marking) {
            return SchedError::Petri(e);
        }
    }
    SchedError::Deadlock { time }
}

/// Instants between [`PackedState`] checkpoints along the trace. Bounds
/// the replay work per digest-match verification (and per
/// [`FrustumReport::state_at`] query) to this many recorded instants.
pub const CHECKPOINT_INTERVAL: u64 = 64;

/// Counters describing how a frustum detection run spent its work: how
/// many instants were simulated, how selective the digest index was, and
/// how much checkpoint/replay machinery the confirmation path used.
///
/// `digest_candidates` counts instants whose digest matched an earlier
/// instant's; each candidate whose policy fingerprint also matches costs
/// one bounded `replay` from the nearest checkpoint. `confirmed` is the
/// number of replays whose reconstructed state equalled the live state
/// (1 on success, 0 on failure); `replays - confirmed` is therefore the
/// number of genuine 64-bit digest collisions survived.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DetectionStats {
    /// Instants simulated (records in the trace).
    pub instants: u64,
    /// Digest-index candidate hits (possible repetitions).
    pub digest_candidates: u64,
    /// Checkpoint replays run to verify candidates.
    pub replays: u64,
    /// Replays that confirmed a true repetition.
    pub confirmed: u64,
    /// [`PackedState`] checkpoints written along the trace.
    pub checkpoints: u64,
    /// The engine's execution counters for this run.
    pub engine: EngineStats,
}

/// The detected cyclic frustum plus the full trace leading to it.
#[derive(Clone, Debug)]
pub struct FrustumReport {
    /// The full trace, instants `0 ..= repeat_time`; read it through
    /// [`steps`](Self::steps).
    trace: Trace,
    /// Instant of the first occurrence of the repeated state (the *initial
    /// instantaneous state* of Definition 3.3.1). `start time` in Table 1.
    pub start_time: u64,
    /// Instant of the second occurrence (the *terminal instantaneous
    /// state*). `repeat time` in Table 1.
    pub repeat_time: u64,
    /// Firings of each transition within the frustum window
    /// `(start_time, repeat_time]`.
    pub counts: Vec<u64>,
    /// How the detection run spent its work (see [`DetectionStats`]).
    pub stats: DetectionStats,
    /// State before instant 0: the initial marking, all transitions idle.
    initial: PackedState,
    /// Sparse `(time, state-after-that-instant)` snapshots, increasing in
    /// time. May be empty; [`state_at`](Self::state_at) falls back to
    /// replay from `initial`.
    checkpoints: Vec<(u64, PackedState)>,
}

impl FrustumReport {
    /// The frustum length `repeat_time − start_time` (Table 1's "length of
    /// frustum"). The steady state repeats with this period.
    pub fn period(&self) -> u64 {
        self.repeat_time - self.start_time
    }

    /// The steady-state computation rate of `t`: firings per cycle.
    pub fn rate_of(&self, t: TransitionId) -> Ratio {
        Ratio::new(self.counts[t.index()], self.period())
    }

    /// The per-transition firing count if it is the same for every
    /// transition (always true for connected marked graphs, by
    /// Theorem A.5.3), else `None`.
    pub fn uniform_count(&self) -> Option<u64> {
        let first = *self.counts.first()?;
        self.counts.iter().all(|&c| c == first).then_some(first)
    }

    /// Every recorded instant, `0 ..= repeat_time`, in time order.
    pub fn steps(&self) -> impl ExactSizeIterator<Item = Step<'_>> {
        (0..self.trace.records.len()).map(|u| self.trace.step(u))
    }

    /// The steps inside the frustum window `(start_time, repeat_time]` —
    /// the repeating kernel of the behaviour graph.
    pub fn frustum_steps(&self) -> impl ExactSizeIterator<Item = Step<'_>> {
        self.steps().skip(self.start_time as usize + 1)
    }

    /// Reconstructs the full instantaneous state after instant `time` by
    /// replaying the recorded events from the nearest checkpoint.
    /// `net` must be the net the frustum was detected on.
    ///
    /// # Panics
    ///
    /// Panics if `time > repeat_time` or the net does not match the trace.
    pub fn state_at(&self, net: &PetriNet, time: u64) -> InstantaneousState {
        assert!(
            time <= self.repeat_time,
            "instant {time} is beyond the recorded trace (repeat time {})",
            self.repeat_time
        );
        replay_state(net, &self.initial, &self.checkpoints, &self.trace, time)
    }

    /// Start instants of every firing of `t` recorded in the trace
    /// (prologue and frustum), in increasing order.
    pub fn start_times_of(&self, t: TransitionId) -> Vec<u64> {
        self.steps()
            .flat_map(|s| {
                s.started
                    .iter()
                    .filter(move |&&x| x == t)
                    .map(move |_| s.time)
            })
            .collect()
    }
}

/// One recorded instant of a detection run, borrowed from its
/// [`FrustumReport`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Step<'a> {
    /// The instant.
    pub time: u64,
    /// Transitions whose firing completed at this instant, in id order.
    pub completed: &'a [TransitionId],
    /// Transitions that started firing at this instant, in start order.
    pub started: &'a [TransitionId],
    /// Digest of `(state, policy_fingerprint)` after this instant.
    pub digest: u64,
    /// The policy fingerprint after this instant.
    pub policy_fingerprint: u64,
}

/// Recorded instants: per instant its digests and where its events sit
/// in one arena, so recording an instant allocates nothing once the two
/// vectors have grown.
#[derive(Clone, Debug, Default)]
struct Trace {
    records: Vec<Record>,
    /// Every instant's completions and then its starts, in time order.
    events: Vec<TransitionId>,
}

/// One instant of a [`Trace`]: its completions are
/// `events[completed..started]`, and its starts run from `started` to the
/// next record's `completed`, or to the arena's end.
#[derive(Clone, Copy, Debug)]
struct Record {
    digest: u64,
    policy_fingerprint: u64,
    completed: usize,
    started: usize,
}

impl Trace {
    /// Where instant `u`'s events end in the arena.
    fn end(&self, u: usize) -> usize {
        self.records
            .get(u + 1)
            .map_or(self.events.len(), |r| r.completed)
    }

    fn started(&self, u: usize) -> &[TransitionId] {
        &self.events[self.records[u].started..self.end(u)]
    }

    fn step(&self, u: usize) -> Step<'_> {
        let record = &self.records[u];
        Step {
            time: u as u64,
            completed: &self.events[record.completed..record.started],
            started: self.started(u),
            digest: record.digest,
            policy_fingerprint: record.policy_fingerprint,
        }
    }
}

/// Hashes the digests that key `detect_frustum`'s index with one
/// multiply. The engine's digests are already splitmix64 outputs, so
/// SipHash would only mix them again; the multiply spreads their low bits
/// into the high bits the table also reads. The keys are not input: a
/// client chooses a loop, not the digests of its simulated states, so the
/// index does not need SipHash's defence against chosen keys.
#[derive(Clone, Copy, Debug, Default)]
struct DigestHasher(u64);

impl Hasher for DigestHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Ends a chain of instants with the same digest in `detect_frustum`.
const END: u64 = u64::MAX;

/// The instants of the digest chain that starts at `first`, earliest
/// first.
fn chain(same: &[u64], first: u64) -> impl Iterator<Item = u64> + '_ {
    std::iter::successors(Some(first), |&t| {
        Some(same[t as usize]).filter(|&next| next != END)
    })
}

/// Replays the starts recorded in `trace` onto the nearest snapshot at or
/// before `time` and returns the state after instant `time`.
fn replay_state(
    net: &PetriNet,
    initial: &PackedState,
    checkpoints: &[(u64, PackedState)],
    trace: &Trace,
    time: u64,
) -> InstantaneousState {
    let (mut state, from) = match checkpoints.iter().rev().find(|(t, _)| *t <= time) {
        Some((t, packed)) => (packed.unpack(net), t + 1),
        None => (initial.unpack(net), 0),
    };
    for u in from..=time {
        state.apply_step(net, trace.started(u as usize));
    }
    state
}

/// Tallies firings within the window `(start_time, repeat_time]`.
fn window_counts(net: &PetriNet, trace: &Trace, start_time: u64, repeat_time: u64) -> Vec<u64> {
    let mut counts = vec![0u64; net.num_transitions()];
    for u in start_time + 1..=repeat_time {
        for &t in trace.started(u as usize) {
            counts[t.index()] += 1;
        }
    }
    counts
}

/// Runs `net` from `marking` under `policy` and the earliest firing rule
/// until an instantaneous state repeats, within a budget of `max_steps`
/// simulated instants (instant 0 counts; detection thus needs
/// `max_steps ≥ repeat_time + 1`).
///
/// Repetition is detected through the engine's incremental state digest;
/// every digest match is confirmed by bounded event replay from the
/// nearest checkpoint, so the result is exact even under hash collisions.
///
/// # Errors
///
/// * [`SchedError::FrustumNotFound`] if no state repeats within the budget.
/// * [`SchedError::EmptyLoop`] for a net with no transitions,
///   [`SchedError::Petri`] ([`tpn_petri::PetriError::NotLive`]) for a dead
///   marking on a marked graph — the same typed errors the analytic path
///   reports on these degenerate inputs.
/// * [`SchedError::Deadlock`] if the net goes permanently idle for a
///   reason the structure cannot explain (not possible for live markings).
/// * [`SchedError::Petri`] for structurally invalid nets (zero execution
///   times).
///
/// # Example
///
/// See [`detect_frustum_eager`] for the common persistent-net form.
pub fn detect_frustum<P: ChoicePolicy>(
    net: &PetriNet,
    marking: Marking,
    policy: P,
    max_steps: u64,
) -> Result<FrustumReport, SchedError> {
    let mut engine = Engine::try_new(net, marking, policy)?;
    let initial = engine.packed_state();
    // Digest -> (first, last) instant whose post-state hashed to it;
    // `same[t]` links instant `t` to the next instant with its digest, so
    // each collision chain is walked earliest first without a per-instant
    // allocation.
    let mut seen: HashMap<u64, (u64, u64), BuildHasherDefault<DigestHasher>> = HashMap::default();
    let mut same: Vec<u64> = Vec::new();
    let mut checkpoints: Vec<(u64, PackedState)> = Vec::new();
    let mut trace = Trace::default();
    let mut stats = DetectionStats::default();

    let started = engine.start_into(&mut trace.events);
    trace.records.push(Record {
        digest: engine.digest(),
        policy_fingerprint: engine.policy_fingerprint(),
        completed: 0,
        started,
    });
    seen.insert(engine.digest(), (0, 0));
    same.push(END);

    loop {
        if trace.records.len() as u64 >= max_steps {
            return Err(SchedError::FrustumNotFound { max_steps });
        }
        let completed = trace.events.len();
        let started = engine.tick_into(&mut trace.events);
        let time = engine.time();
        if trace.events.len() == completed && engine.all_idle() {
            return Err(diagnose_deadlock(net, &initial, time));
        }
        let (digest, fingerprint) = (engine.digest(), engine.policy_fingerprint());
        trace.records.push(Record {
            digest,
            policy_fingerprint: fingerprint,
            completed,
            started,
        });
        if let Some(&(head, _)) = seen.get(&digest) {
            stats.digest_candidates += chain(&same, head).count() as u64;
            for start_time in chain(&same, head) {
                if trace.records[start_time as usize].policy_fingerprint != fingerprint {
                    continue;
                }
                stats.replays += 1;
                if replay_state(net, &initial, &checkpoints, &trace, start_time) == *engine.state()
                {
                    stats.confirmed += 1;
                    stats.instants = trace.records.len() as u64;
                    stats.checkpoints = checkpoints.len() as u64;
                    stats.engine = engine.stats();
                    let counts = window_counts(net, &trace, start_time, time);
                    return Ok(FrustumReport {
                        trace,
                        start_time,
                        repeat_time: time,
                        counts,
                        stats,
                        initial,
                        checkpoints,
                    });
                }
            }
        }
        same.push(END);
        seen.entry(digest)
            .and_modify(|(_, last)| {
                same[*last as usize] = time;
                *last = time;
            })
            .or_insert((time, time));
        if time % CHECKPOINT_INTERVAL == 0 {
            checkpoints.push((time, engine.packed_state()));
        }
    }
}

/// [`detect_frustum`] with the maximally parallel [`EagerPolicy`] — the
/// earliest firing rule on persistent nets (plain SDSP-PNs).
///
/// # Errors
///
/// Same as [`detect_frustum`].
///
/// # Example
///
/// ```
/// use tpn_dataflow::{SdspBuilder, OpKind, Operand};
/// use tpn_dataflow::to_petri::to_petri;
/// use tpn_sched::frustum::detect_frustum_eager;
///
/// let mut b = SdspBuilder::new();
/// let a = b.node("A", OpKind::Add, [Operand::env("X", 0), Operand::lit(5.0)]);
/// let _b2 = b.node("B", OpKind::Neg, [Operand::node(a)]);
/// let pn = to_petri(&b.finish()?);
/// let f = detect_frustum_eager(&pn.net, pn.marking.clone(), 1_000)?;
/// // Both nodes settle into firing once every 2 cycles.
/// assert_eq!(f.period(), 2);
/// assert_eq!(f.uniform_count(), Some(1));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn detect_frustum_eager(
    net: &PetriNet,
    marking: Marking,
    max_steps: u64,
) -> Result<FrustumReport, SchedError> {
    detect_frustum(net, marking, EagerPolicy, max_steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpn_dataflow::to_petri::to_petri;
    use tpn_dataflow::{OpKind, Operand, Sdsp, SdspBuilder};

    fn l1() -> Sdsp {
        let mut b = SdspBuilder::new();
        let a = b.node("A", OpKind::Add, [Operand::env("X", 0), Operand::lit(5.0)]);
        let bb = b.node("B", OpKind::Add, [Operand::env("Y", 0), Operand::node(a)]);
        let c = b.node("C", OpKind::Add, [Operand::node(a), Operand::env("Z", 0)]);
        let d = b.node("D", OpKind::Add, [Operand::node(bb), Operand::node(c)]);
        let _e = b.node("E", OpKind::Add, [Operand::env("W", 0), Operand::node(d)]);
        b.finish().unwrap()
    }

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
    fn l1_frustum_has_rate_one_half() {
        let pn = to_petri(&l1());
        let f = detect_frustum_eager(&pn.net, pn.marking.clone(), 1_000).unwrap();
        assert_eq!(f.period(), 2);
        assert_eq!(f.uniform_count(), Some(1));
        for t in pn.net.transition_ids() {
            assert_eq!(f.rate_of(t), Ratio::new(1, 2));
        }
        // The paper observes detection within 2n steps.
        assert!(f.repeat_time <= 2 * pn.net.num_transitions() as u64);
    }

    #[test]
    fn l2_frustum_matches_critical_cycle_rate() {
        let pn = to_petri(&l2());
        let f = detect_frustum_eager(&pn.net, pn.marking.clone(), 1_000).unwrap();
        let r = tpn_petri::ratio::critical_ratio(&pn.net, &pn.marking).unwrap();
        for t in pn.net.transition_ids() {
            assert_eq!(f.rate_of(t), r.rate, "transition {t}");
        }
        assert_eq!(f.rate_of(pn.transition_of[0]), Ratio::new(1, 3));
    }

    #[test]
    fn state_at_reconstructs_boundary_states() {
        let pn = to_petri(&l2());
        let f = detect_frustum_eager(&pn.net, pn.marking.clone(), 1_000).unwrap();
        // The states at start_time and repeat_time are the repeated pair.
        assert_eq!(
            f.state_at(&pn.net, f.start_time),
            f.state_at(&pn.net, f.repeat_time)
        );
        // Every reconstructed state hashes to the recorded digest.
        for step in f.steps() {
            let state = f.state_at(&pn.net, step.time);
            assert_eq!(
                tpn_petri::timed::state_digest(&state, step.policy_fingerprint),
                step.digest,
                "instant {}",
                step.time
            );
        }
    }

    #[test]
    fn frustum_repeats_forever() {
        // Replay one more period and confirm the firing pattern repeats.
        let pn = to_petri(&l2());
        let f = detect_frustum_eager(&pn.net, pn.marking.clone(), 1_000).unwrap();
        let mut engine = Engine::new(&pn.net, pn.marking.clone(), EagerPolicy);
        engine.start();
        let horizon = f.repeat_time + 2 * f.period();
        let mut trace = Vec::new();
        for _ in 0..horizon {
            trace.push(engine.tick().started);
        }
        let p = f.period() as usize;
        let s = f.start_time as usize;
        for u in s..(horizon as usize - p) {
            assert_eq!(trace[u], trace[u + p], "instant {u} vs {}", u + p);
        }
    }

    #[test]
    fn trace_queries_are_consistent() {
        let pn = to_petri(&l1());
        let f = detect_frustum_eager(&pn.net, pn.marking.clone(), 1_000).unwrap();
        for t in pn.net.transition_ids() {
            let starts = f.start_times_of(t);
            let total: usize = f
                .steps()
                .map(|s| s.started.iter().filter(|&&x| x == t).count())
                .sum();
            assert_eq!(starts.len(), total);
            assert!(starts.windows(2).all(|w| w[0] < w[1]));
        }
        assert_eq!(f.frustum_steps().len() as u64, f.period());
    }

    #[test]
    fn detection_stats_account_for_the_run() {
        let pn = to_petri(&l2());
        let f = detect_frustum_eager(&pn.net, pn.marking.clone(), 1_000).unwrap();
        let s = &f.stats;
        assert_eq!(s.instants, f.steps().len() as u64);
        assert_eq!(s.engine.instants, s.instants);
        // Detection succeeded: exactly one confirmed repetition, reached
        // through at least one candidate and one replay.
        assert_eq!(s.confirmed, 1);
        assert!(s.digest_candidates >= 1);
        assert!(s.replays >= 1 && s.replays <= s.digest_candidates);
        // Every firing in the trace is counted by the engine.
        let fired: u64 = f.steps().map(|st| st.started.len() as u64).sum();
        assert_eq!(s.engine.firings, fired);
        // Under the eager policy every candidate starts or is pruned.
        assert_eq!(
            s.engine.startable_scanned,
            s.engine.firings + s.engine.startable_pruned
        );
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let pn = to_petri(&l2());
        assert!(matches!(
            detect_frustum_eager(&pn.net, pn.marking.clone(), 1),
            Err(SchedError::FrustumNotFound { max_steps: 1 })
        ));
    }

    #[test]
    fn budget_counts_simulated_instants_exactly() {
        // Regression: a budget of N must allow exactly N instants, not
        // N + 1. The single-node do-all repeats at instant 1, i.e. after
        // simulating two instants (0 and 1): budget 2 finds it, budget 1
        // must not.
        let mut b = SdspBuilder::new();
        b.node(
            "D",
            OpKind::Sub,
            [Operand::env("Y", 1), Operand::env("Y", 0)],
        );
        let pn = to_petri(&b.finish().unwrap());
        let found = detect_frustum_eager(&pn.net, pn.marking.clone(), 2).unwrap();
        assert_eq!((found.start_time, found.repeat_time), (0, 1));
        assert!(matches!(
            detect_frustum_eager(&pn.net, pn.marking.clone(), 1),
            Err(SchedError::FrustumNotFound { max_steps: 1 })
        ));
    }

    #[test]
    fn dead_marking_reports_not_live() {
        // A token-free marking on a marked graph is diagnosed as the same
        // NotLive error the analytic path reports, not a bare Deadlock.
        let pn = to_petri(&l1());
        let empty = Marking::empty(&pn.net);
        assert!(matches!(
            detect_frustum_eager(&pn.net, empty, 100),
            Err(SchedError::Petri(tpn_petri::PetriError::NotLive { .. }))
        ));
    }

    #[test]
    fn empty_net_reports_empty_loop() {
        let pn = to_petri(&SdspBuilder::new().finish().unwrap());
        assert!(matches!(
            detect_frustum_eager(&pn.net, pn.marking.clone(), 100),
            Err(SchedError::EmptyLoop)
        ));
    }

    #[test]
    fn single_node_doall_fires_every_cycle() {
        // Loop 12: one node, no arcs at all -> rate 1.
        let mut b = SdspBuilder::new();
        b.node(
            "D",
            OpKind::Sub,
            [Operand::env("Y", 1), Operand::env("Y", 0)],
        );
        let pn = to_petri(&b.finish().unwrap());
        let f = detect_frustum_eager(&pn.net, pn.marking.clone(), 100).unwrap();
        assert_eq!(f.period(), 1);
        assert_eq!(f.uniform_count(), Some(1));
    }
}
