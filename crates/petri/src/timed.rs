//! Timed execution under the earliest firing rule (Appendix A.6).
//!
//! The state of a timed Petri net at an instant is an
//! [`InstantaneousState`]: the current marking plus the *residual firing
//! time vector* `R`, which records, for each transition, how many cycles of
//! an ongoing firing remain (Chretienne). Execution proceeds in discrete
//! unit time steps:
//!
//! 1. ongoing firings whose residual reaches zero **complete**, depositing
//!    one token on each output place;
//! 2. idle transitions whose input places are all marked **start**,
//!    consuming their input tokens and setting their residual to `τ`
//!    (Assumption A.6.2, the earliest firing rule).
//!
//! Assumption A.6.1 — distinct firings of a transition never overlap — is
//! enforced directly by the residual vector instead of materialising the
//! implicit self-loop place.
//!
//! For nets with structural conflicts (the run place of the SDSP-SCP-PN
//! model of §5.2), the set of transitions to start is no longer unique; a
//! [`ChoicePolicy`] resolves the choice deterministically, matching
//! Assumption 5.2.1 ("the machine exhibits repeatable behavior"). The
//! policy's internal state participates in state hashing via
//! [`ChoicePolicy::fingerprint`], so cyclic-frustum detection remains sound.
//!
//! # Zero-clone state tracking
//!
//! Traces of the earliest firing rule run for up to O(n⁴) instants
//! (Lemma 3.3.2), so a [`StepRecord`] must stay allocation-light: it
//! carries only the instant's **event lists** plus a 64-bit [`state
//! digest`](state_digest) maintained *incrementally* across the
//! complete/fire phases — the engine never clones the full state per step.
//! The digest is an additive (Zobrist-style) hash: every `(place, token)`
//! and `(transition, residual-cycle)` contributes a fixed pseudo-random
//! word, so token moves update the digest in O(arcs touched). Full states
//! are reconstructed on demand by [`InstantaneousState::apply_step`]
//! (event replay is policy-free: the recorded start events fully determine
//! the evolution) or snapshotted compactly via [`PackedState`].

use std::hash::{Hash, Hasher};

use crate::error::PetriError;
use crate::ids::{PlaceId, TransitionId};
use crate::marking::Marking;
use crate::net::PetriNet;

/// Marking plus residual firing times: the full execution state at an
/// instant.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct InstantaneousState {
    /// Tokens on each place.
    pub marking: Marking,
    /// Remaining execution time per transition; `0` means idle.
    pub residual: Vec<u64>,
}

impl InstantaneousState {
    /// The initial state: `marking` with every transition idle.
    pub fn initial(net: &PetriNet, marking: Marking) -> Self {
        InstantaneousState {
            marking,
            residual: vec![0; net.num_transitions()],
        }
    }

    /// Whether transition `t` is currently firing.
    pub fn is_busy(&self, t: TransitionId) -> bool {
        self.residual[t.index()] > 0
    }

    /// Whether no transition is currently firing.
    pub fn all_idle(&self) -> bool {
        self.residual.iter().all(|&r| r == 0)
    }

    /// Whether `t` can start now: idle, and every input place marked.
    pub fn can_start(&self, net: &PetriNet, t: TransitionId) -> bool {
        !self.is_busy(t) && self.marking.enables(net, t)
    }

    /// Transitions that can start now, in id order.
    pub fn startable(&self, net: &PetriNet) -> Vec<TransitionId> {
        net.transition_ids()
            .filter(|&t| self.can_start(net, t))
            .collect()
    }

    /// Replays one recorded instant onto this state: busy residuals
    /// advance one cycle (completions deposit their outputs), then the
    /// recorded `started` transitions consume inputs and begin firing.
    ///
    /// Replay needs no [`ChoicePolicy`] — the event lists already encode
    /// every decision — so any state along a trace can be reconstructed
    /// from the initial state (or a checkpoint) and the [`StepRecord`]s.
    pub fn apply_step(&mut self, net: &PetriNet, started: &[TransitionId]) {
        for idx in 0..self.residual.len() {
            if self.residual[idx] > 0 {
                self.residual[idx] -= 1;
                if self.residual[idx] == 0 {
                    self.marking
                        .produce_outputs(net, TransitionId::from_index(idx));
                }
            }
        }
        for &t in started {
            self.marking.consume_inputs(net, t);
            self.residual[t.index()] = net.transition(t).time();
        }
    }
}

// ---------------------------------------------------------------------------
// State digests
// ---------------------------------------------------------------------------

const PLACE_SALT: u64 = 0x9AE1_6A3B_2F90_404F;
const TRANS_SALT: u64 = 0xD1B5_4A32_D192_ED03;
const POLICY_SALT: u64 = 0x2545_F491_4F6C_DD1D;

/// splitmix64's finalizer: a strong 64-bit mixing permutation.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The pseudo-random word one token on place `p` contributes.
#[inline]
fn place_word(p: usize) -> u64 {
    mix64(PLACE_SALT ^ p as u64)
}

/// The pseudo-random word one residual cycle of transition `t`
/// contributes.
#[inline]
fn transition_word(t: usize) -> u64 {
    mix64(TRANS_SALT ^ t as u64)
}

/// Folds the additive hash and the policy fingerprint into the final
/// digest.
#[inline]
fn finalize_digest(raw: u64, policy_fingerprint: u64) -> u64 {
    mix64(raw) ^ mix64(policy_fingerprint ^ POLICY_SALT)
}

/// Computes the 64-bit repetition digest of a state from scratch.
///
/// The engine maintains the same value incrementally (see
/// [`Engine::digest`]); this standalone recomputation exists for
/// verification and for hashing reconstructed states.
pub fn state_digest(state: &InstantaneousState, policy_fingerprint: u64) -> u64 {
    let mut raw = 0u64;
    for (p, count) in state.marking.marked_places() {
        raw = raw.wrapping_add(place_word(p.index()).wrapping_mul(count as u64));
    }
    for (idx, &r) in state.residual.iter().enumerate() {
        if r > 0 {
            raw = raw.wrapping_add(transition_word(idx).wrapping_mul(r));
        }
    }
    finalize_digest(raw, policy_fingerprint)
}

/// The additive hash of a marking alone (no residuals, no policy state).
#[inline]
fn raw_marking_digest(marking: &Marking) -> u64 {
    let mut raw = 0u64;
    for (p, count) in marking.marked_places() {
        raw = raw.wrapping_add(place_word(p.index()).wrapping_mul(count as u64));
    }
    raw
}

/// Computes the 64-bit digest of a marking alone.
///
/// This is the digest stamped on every
/// [`FiringEvent`](crate::trace::FiringEvent): unlike the full state
/// digest it ignores residual firing times and policy state, so the
/// marking — and hence this digest — changes only *at* start/complete
/// events. A consumer replaying nothing but the event stream can therefore
/// reproduce and verify it exactly (the trace-replay validator in
/// `tpn-sched` does). [`MarkingHash`] maintains the same value across
/// token moves.
pub fn marking_digest(marking: &Marking) -> u64 {
    mix64(raw_marking_digest(marking))
}

/// A running [`marking_digest`]: the additive place words of a marking,
/// updated per firing in O(arcs touched) instead of rehashed in
/// O(places) per event.
#[derive(Clone, Copy, Debug)]
pub struct MarkingHash {
    raw: u64,
}

impl MarkingHash {
    /// Seeds the hash with `marking`.
    pub fn new(marking: &Marking) -> Self {
        MarkingHash {
            raw: raw_marking_digest(marking),
        }
    }

    /// Deposits one token on each output place of `t` (a completion) and
    /// returns the digest of the resulting marking.
    pub fn produce(&mut self, net: &PetriNet, t: TransitionId) -> u64 {
        for &p in net.transition(t).outputs() {
            self.raw = self.raw.wrapping_add(place_word(p.index()));
        }
        mix64(self.raw)
    }

    /// Takes one token from each input place of `t` (a start) and returns
    /// the digest of the resulting marking.
    pub fn consume(&mut self, net: &PetriNet, t: TransitionId) -> u64 {
        for &p in net.transition(t).inputs() {
            self.raw = self.raw.wrapping_sub(place_word(p.index()));
        }
        mix64(self.raw)
    }
}

// ---------------------------------------------------------------------------
// Packed snapshots
// ---------------------------------------------------------------------------

/// A full instantaneous state flattened into one word buffer: the marking
/// and the residual-time vector packed four 16-bit lanes per `u64` (with a
/// transparent fallback to full 64-bit lanes if any value overflows a
/// lane). Checkpoints along a trace cost `(|P| + |T|) / 4` words instead
/// of a `Marking` plus a `Vec<u64>`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct PackedState {
    words: Box<[u64]>,
    wide: bool,
    places: usize,
}

impl PackedState {
    /// Packs a state. Values (token counts and residuals) up to
    /// `u16::MAX` take a 16-bit lane; anything larger switches the whole
    /// snapshot to 64-bit lanes.
    pub fn pack(state: &InstantaneousState) -> Self {
        let places = state.marking.len();
        let total = places + state.residual.len();
        let values = || {
            (0..places)
                .map(|i| state.marking.tokens(PlaceId::from_index(i)) as u64)
                .chain(state.residual.iter().copied())
        };
        let wide = values().any(|v| v > u16::MAX as u64);
        let words = if wide {
            values().collect::<Vec<u64>>().into_boxed_slice()
        } else {
            let mut packed = vec![0u64; total.div_ceil(4)];
            for (i, v) in values().enumerate() {
                packed[i / 4] |= v << ((i % 4) * 16);
            }
            packed.into_boxed_slice()
        };
        PackedState {
            words,
            wide,
            places,
        }
    }

    /// The packed value at flat index `i`.
    fn value(&self, i: usize) -> u64 {
        if self.wide {
            self.words[i]
        } else {
            (self.words[i / 4] >> ((i % 4) * 16)) & 0xFFFF
        }
    }

    /// Reconstructs the full state.
    ///
    /// # Panics
    ///
    /// Panics if `net` has a different shape than the packed snapshot.
    pub fn unpack(&self, net: &PetriNet) -> InstantaneousState {
        assert_eq!(net.num_places(), self.places, "net/place count mismatch");
        let mut marking = Marking::empty(net);
        for i in 0..self.places {
            let v = self.value(i);
            if v > 0 {
                marking.set(PlaceId::from_index(i), v as u32);
            }
        }
        let residual = (0..net.num_transitions())
            .map(|i| self.value(self.places + i))
            .collect();
        InstantaneousState { marking, residual }
    }

    /// The buffer size in words (diagnostics / memory accounting).
    pub fn num_words(&self) -> usize {
        self.words.len()
    }
}

// ---------------------------------------------------------------------------
// Policies
// ---------------------------------------------------------------------------

/// Everything a [`ChoicePolicy`] may inspect when resolving a choice.
#[derive(Debug)]
pub struct PolicyCtx<'a> {
    /// The net being executed.
    pub net: &'a PetriNet,
    /// The current state (marking + residuals), mid-instant.
    pub state: &'a InstantaneousState,
    /// Transitions that can start right now, in id order.
    pub startable: &'a [TransitionId],
    /// The current instant.
    pub time: u64,
}

/// Deterministic conflict resolution for nets with structural conflicts.
///
/// Within one instant the engine repeatedly asks the policy for the next
/// transition to start; returning `None` ends the instant. Implementations
/// must be deterministic functions of the observable history so that a
/// repeated instantaneous state implies repeated behaviour (the paper's
/// Assumption 5.2.1); any internal state must be exposed through
/// [`fingerprint`](ChoicePolicy::fingerprint).
pub trait ChoicePolicy {
    /// Picks the next transition to start, from `ctx.startable` (never
    /// empty). Returning `None` leaves the remaining startable transitions
    /// idle this instant.
    fn choose(&mut self, ctx: &PolicyCtx<'_>) -> Option<TransitionId>;

    /// Notifies the policy that an instant ended (after all completions and
    /// starts). Default: no-op.
    fn on_instant_end(&mut self, _net: &PetriNet, _state: &InstantaneousState, _time: u64) {}

    /// A digest of the policy's internal state, combined with the
    /// instantaneous state when detecting repeated states. Stateless
    /// policies return 0 (the default).
    fn fingerprint(&self) -> u64 {
        0
    }
}

/// The maximally parallel policy: starts **every** startable transition.
///
/// On persistent nets (marked graphs) this is the unique earliest-firing
/// behaviour; on nets with conflicts it greedily fires in transition-id
/// order, which is deterministic but usually not what a resource model
/// wants — use a queueing policy there.
#[derive(Clone, Copy, Debug, Default)]
pub struct EagerPolicy;

impl ChoicePolicy for EagerPolicy {
    fn choose(&mut self, ctx: &PolicyCtx<'_>) -> Option<TransitionId> {
        ctx.startable.first().copied()
    }
}

// ---------------------------------------------------------------------------
// Step records and repetition keys
// ---------------------------------------------------------------------------

/// One executed instant: what completed, what started, and the digest of
/// the state left behind.
///
/// The record deliberately does **not** carry the state itself — traces
/// are long and states are wide. Use
/// [`InstantaneousState::apply_step`] to replay event lists into a
/// concrete state when one is needed.
#[derive(Clone, Debug)]
pub struct StepRecord {
    /// The instant at which these events happened.
    pub time: u64,
    /// Transitions whose firing completed at this instant (tokens
    /// deposited), in id order.
    pub completed: Vec<TransitionId>,
    /// Transitions that started firing at this instant (tokens consumed),
    /// in start order.
    pub started: Vec<TransitionId>,
    /// Digest of `(state, policy_fingerprint)` after all events of this
    /// instant (see [`state_digest`]).
    pub digest: u64,
    /// The policy fingerprint after this instant.
    pub policy_fingerprint: u64,
}

/// The full repetition key for frustum detection: instantaneous state plus
/// the conflict-resolution policy's internal state. The digest-based fast
/// path makes carrying these per step unnecessary; the key remains the
/// ground truth that digest matches are verified against (and the whole
/// key that reference implementations may hash).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StateKey {
    /// Marking and residual firing times.
    pub state: InstantaneousState,
    /// Digest of the policy state.
    pub policy_fingerprint: u64,
}

impl Hash for StateKey {
    fn hash<H: Hasher>(&self, h: &mut H) {
        self.state.hash(h);
        self.policy_fingerprint.hash(h);
    }
}

// ---------------------------------------------------------------------------
// Engine counters
// ---------------------------------------------------------------------------

/// Cheap always-on execution counters maintained by the [`Engine`].
///
/// Every field is a plain `u64` incremented on the hot path (no branches,
/// no allocation), so keeping them unconditionally costs a few ALU ops per
/// instant. Consumers that want a full profile read them out with
/// [`Engine::stats`] after (or during) a run; the scheduler's frustum
/// detector snapshots them into its detection report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Instants simulated: one per [`Engine::start`] / [`Engine::tick`].
    pub instants: u64,
    /// Transition firings started (token consumptions).
    pub firings: u64,
    /// Transition firings completed (token depositions).
    pub completions: u64,
    /// Candidates placed on the startable list across all fire phases —
    /// the work a naive rescan-per-start implementation would redo.
    pub startable_scanned: u64,
    /// Candidates removed by the incremental prune (a started transition
    /// drained one of their input places) without rescanning the net.
    /// `startable_pruned / startable_scanned` is the prune efficiency.
    pub startable_pruned: u64,
}

impl EngineStats {
    /// Field-wise sum, for aggregating the counters of several runs.
    #[must_use]
    pub fn merged(self, other: EngineStats) -> EngineStats {
        EngineStats {
            instants: self.instants + other.instants,
            firings: self.firings + other.firings,
            completions: self.completions + other.completions,
            startable_scanned: self.startable_scanned + other.startable_scanned,
            startable_pruned: self.startable_pruned + other.startable_pruned,
        }
    }
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

/// Discrete-time earliest-firing execution engine.
///
/// # Example
///
/// ```
/// use tpn_petri::{PetriNet, Marking};
/// use tpn_petri::timed::{Engine, EagerPolicy};
///
/// // A ring of two transitions: fires alternately forever.
/// let mut net = PetriNet::new();
/// let a = net.add_transition("A", 1);
/// let b = net.add_transition("B", 1);
/// let ab = net.add_place("ab");
/// let ba = net.add_place("ba");
/// net.connect_tp(a, ab);
/// net.connect_pt(ab, b);
/// net.connect_tp(b, ba);
/// net.connect_pt(ba, a);
/// let m = Marking::from_pairs(&net, [(ba, 1)]);
///
/// let mut engine = Engine::new(&net, m, EagerPolicy);
/// assert_eq!(engine.start().started, vec![a]);
/// assert_eq!(engine.tick().started, vec![b]);
/// assert_eq!(engine.tick().started, vec![a]);
/// ```
#[derive(Debug)]
pub struct Engine<'a, P> {
    net: &'a PetriNet,
    state: InstantaneousState,
    /// Additive state hash, updated in lockstep with every token move and
    /// residual change (before policy-fingerprint folding).
    raw_digest: u64,
    time: u64,
    policy: P,
    started: bool,
    stats: EngineStats,
}

impl<'a, P: ChoicePolicy> Engine<'a, P> {
    /// Creates an engine over `net` at `initial_marking` with all
    /// transitions idle, at time 0.
    ///
    /// # Panics
    ///
    /// Panics if some transition has execution time 0 (use
    /// [`PetriNet::validate_times`] to check first).
    pub fn new(net: &'a PetriNet, initial_marking: Marking, policy: P) -> Self {
        net.validate_times()
            .unwrap_or_else(|e| panic!("invalid net for timed execution: {e}"));
        Self::new_unchecked(net, initial_marking, policy)
    }

    /// Fallible constructor variant.
    ///
    /// # Errors
    ///
    /// Returns [`PetriError::ZeroExecutionTime`] if some transition has
    /// `τ = 0`.
    pub fn try_new(
        net: &'a PetriNet,
        initial_marking: Marking,
        policy: P,
    ) -> Result<Self, PetriError> {
        net.validate_times()?;
        Ok(Self::new_unchecked(net, initial_marking, policy))
    }

    fn new_unchecked(net: &'a PetriNet, initial_marking: Marking, policy: P) -> Self {
        let state = InstantaneousState::initial(net, initial_marking);
        let raw_digest = raw_marking_digest(&state.marking);
        Engine {
            net,
            state,
            raw_digest,
            time: 0,
            policy,
            started: false,
            stats: EngineStats::default(),
        }
    }

    /// Executes instant 0: fires the initially enabled transitions.
    ///
    /// # Panics
    ///
    /// Panics if called twice, or after [`tick`](Self::tick).
    pub fn start(&mut self) -> StepRecord {
        assert!(!self.started, "start() must be the first step");
        self.started = true;
        self.stats.instants += 1;
        let completed = Vec::new();
        let started = self.fire_phase();
        self.policy.on_instant_end(self.net, &self.state, self.time);
        self.record(completed, started)
    }

    /// Executes the next instant: completions, then earliest-rule starts.
    ///
    /// # Panics
    ///
    /// Panics if [`start`](Self::start) has not been called.
    pub fn tick(&mut self) -> StepRecord {
        assert!(self.started, "call start() before tick()");
        self.time += 1;
        self.stats.instants += 1;
        let completed = self.complete_phase();
        let started = self.fire_phase();
        self.policy.on_instant_end(self.net, &self.state, self.time);
        self.record(completed, started)
    }

    fn record(&self, completed: Vec<TransitionId>, started: Vec<TransitionId>) -> StepRecord {
        StepRecord {
            time: self.time,
            completed,
            started,
            digest: self.digest(),
            policy_fingerprint: self.policy.fingerprint(),
        }
    }

    /// Advances busy transitions by one cycle; completes those reaching 0.
    fn complete_phase(&mut self) -> Vec<TransitionId> {
        let mut completed = Vec::new();
        for idx in 0..self.state.residual.len() {
            if self.state.residual[idx] > 0 {
                self.state.residual[idx] -= 1;
                self.raw_digest = self.raw_digest.wrapping_sub(transition_word(idx));
                if self.state.residual[idx] == 0 {
                    let t = TransitionId::from_index(idx);
                    self.state.marking.produce_outputs(self.net, t);
                    for &p in self.net.transition(t).outputs() {
                        self.raw_digest = self.raw_digest.wrapping_add(place_word(p.index()));
                    }
                    completed.push(t);
                }
            }
        }
        self.stats.completions += completed.len() as u64;
        completed
    }

    /// Starts transitions under the earliest firing rule, consulting the
    /// policy while choices remain.
    ///
    /// Within one fire phase, starts only consume tokens and mark the
    /// started transition busy, so the startable set shrinks monotonically.
    /// It is therefore scanned once and pruned incrementally: starting `t`
    /// removes `t` itself plus any candidate sharing a drained input place
    /// (found via the place postsets), instead of rescanning the whole net
    /// after every start.
    fn fire_phase(&mut self) -> Vec<TransitionId> {
        let mut started = Vec::new();
        let mut startable = self.state.startable(self.net);
        // Counters accumulate in locals so the loop body below touches no
        // `self.stats` memory; they fold in once on exit.
        let scanned = startable.len() as u64;
        let mut pruned = 0u64;
        let mut is_candidate = vec![false; self.net.num_transitions()];
        for &t in &startable {
            is_candidate[t.index()] = true;
        }
        while !startable.is_empty() {
            let ctx = PolicyCtx {
                net: self.net,
                state: &self.state,
                startable: &startable,
                time: self.time,
            };
            let Some(t) = self.policy.choose(&ctx) else {
                break;
            };
            assert!(
                is_candidate[t.index()] && startable.contains(&t),
                "policy chose {t}, which cannot start now"
            );
            self.state.marking.consume_inputs(self.net, t);
            for &p in self.net.transition(t).inputs() {
                self.raw_digest = self.raw_digest.wrapping_sub(place_word(p.index()));
            }
            let tau = self.net.transition(t).time();
            self.state.residual[t.index()] = tau;
            self.raw_digest = self
                .raw_digest
                .wrapping_add(transition_word(t.index()).wrapping_mul(tau));
            started.push(t);
            is_candidate[t.index()] = false;
            for &p in self.net.transition(t).inputs() {
                for &u in self.net.place(p).postset() {
                    if is_candidate[u.index()] && !self.state.marking.enables(self.net, u) {
                        is_candidate[u.index()] = false;
                        pruned += 1;
                    }
                }
            }
            startable.retain(|&u| is_candidate[u.index()]);
        }
        self.stats.startable_scanned += scanned;
        self.stats.startable_pruned += pruned;
        self.stats.firings += started.len() as u64;
        started
    }

    /// The current instant (0 until the first [`tick`](Self::tick)).
    pub fn time(&self) -> u64 {
        self.time
    }

    /// The current instantaneous state.
    pub fn state(&self) -> &InstantaneousState {
        &self.state
    }

    /// The net being executed.
    pub fn net(&self) -> &'a PetriNet {
        self.net
    }

    /// The policy's current fingerprint.
    pub fn policy_fingerprint(&self) -> u64 {
        self.policy.fingerprint()
    }

    /// The execution counters accumulated so far (see [`EngineStats`]).
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// The current repetition digest, maintained incrementally — equal to
    /// [`state_digest`]`(self.state(), self.policy_fingerprint())` at
    /// every instant boundary, without rehashing the state.
    pub fn digest(&self) -> u64 {
        finalize_digest(self.raw_digest, self.policy.fingerprint())
    }

    /// A compact snapshot of the current state (for checkpointing).
    pub fn packed_state(&self) -> PackedState {
        PackedState::pack(&self.state)
    }

    /// The full repetition key of the current state (see [`StateKey`]).
    /// Clones the state: intended for reference implementations and
    /// verification, not per-step use.
    pub fn state_key(&self) -> StateKey {
        StateKey {
            state: self.state.clone(),
            policy_fingerprint: self.policy.fingerprint(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// L1-like diamond with acknowledgement arcs: A feeds B and C, both
    /// feed D. All unit times.
    fn diamond() -> (PetriNet, Marking, Vec<TransitionId>) {
        let mut net = PetriNet::new();
        let a = net.add_transition("A", 1);
        let b = net.add_transition("B", 1);
        let c = net.add_transition("C", 1);
        let d = net.add_transition("D", 1);
        let mut marking_pairs = Vec::new();
        let wire = |net: &mut PetriNet, from: TransitionId, to: TransitionId| {
            let fwd = net.add_place(format!("{from}->{to}"));
            let ack = net.add_place(format!("{to}=>{from}"));
            net.connect_tp(from, fwd);
            net.connect_pt(fwd, to);
            net.connect_tp(to, ack);
            net.connect_pt(ack, from);
            ack
        };
        for (x, y) in [(a, b), (a, c), (b, d), (c, d)] {
            let ack = wire(&mut net, x, y);
            marking_pairs.push((ack, 1));
        }
        let m = Marking::from_pairs(&net, marking_pairs);
        (net, m, vec![a, b, c, d])
    }

    #[test]
    fn earliest_rule_fires_wavefronts() {
        let (net, m, ts) = diamond();
        let (a, b, c, d) = (ts[0], ts[1], ts[2], ts[3]);
        let mut engine = Engine::new(&net, m, EagerPolicy);
        assert_eq!(engine.start().started, vec![a]);
        let s1 = engine.tick();
        assert_eq!(s1.completed, vec![a]);
        assert_eq!(s1.started, vec![b, c]);
        let s2 = engine.tick();
        // B and C complete; D starts, and A restarts (acks from B, C).
        assert_eq!(s2.completed, vec![b, c]);
        assert_eq!(s2.started, vec![a, d]);
    }

    #[test]
    fn residuals_track_multi_cycle_transitions() {
        let mut net = PetriNet::new();
        let a = net.add_transition("slow", 3);
        let p = net.add_place("self");
        net.connect_tp(a, p);
        net.connect_pt(p, a);
        let m = Marking::from_pairs(&net, [(p, 1)]);
        let mut engine = Engine::new(&net, m, EagerPolicy);
        let s0 = engine.start();
        assert_eq!(s0.started, vec![a]);
        assert!(engine.state().is_busy(a));
        let s1 = engine.tick();
        assert!(s1.completed.is_empty() && s1.started.is_empty());
        let s2 = engine.tick();
        assert!(s2.completed.is_empty());
        let s3 = engine.tick();
        // Completes after exactly 3 cycles and immediately restarts.
        assert_eq!(s3.completed, vec![a]);
        assert_eq!(s3.started, vec![a]);
        assert_eq!(engine.time(), 3);
    }

    #[test]
    fn non_reentrance_is_enforced_without_self_loop() {
        // A source-like transition (no inputs) must not overlap itself.
        let mut net = PetriNet::new();
        let src = net.add_transition("src", 2);
        let sink = net.add_transition("sink", 1);
        let p = net.add_place("p");
        let back = net.add_place("back");
        net.connect_tp(src, p);
        net.connect_pt(p, sink);
        net.connect_tp(sink, back);
        net.connect_pt(back, src);
        let m = Marking::from_pairs(&net, [(back, 1)]);
        let mut engine = Engine::new(&net, m, EagerPolicy);
        engine.start();
        let s1 = engine.tick();
        // src is mid-firing: nothing new starts even though it has no
        // unmarked inputs (its only input is empty anyway here).
        assert!(s1.started.is_empty());
        let s2 = engine.tick();
        assert_eq!(s2.completed, vec![src]);
        assert_eq!(s2.started, vec![sink]);
    }

    #[test]
    fn deterministic_replay_from_equal_states() {
        let (net, m, _) = diamond();
        let mut e1 = Engine::new(&net, m.clone(), EagerPolicy);
        let mut e2 = Engine::new(&net, m, EagerPolicy);
        e1.start();
        e2.start();
        for _ in 0..20 {
            let s1 = e1.tick();
            let s2 = e2.tick();
            assert_eq!(s1.started, s2.started);
            assert_eq!(s1.digest, s2.digest);
            assert_eq!(e1.state(), e2.state());
        }
    }

    #[test]
    fn incremental_digest_matches_from_scratch_hash() {
        let (net, m, _) = diamond();
        let mut engine = Engine::new(&net, m, EagerPolicy);
        let s0 = engine.start();
        assert_eq!(
            s0.digest,
            state_digest(engine.state(), engine.policy_fingerprint())
        );
        for _ in 0..40 {
            let step = engine.tick();
            assert_eq!(
                step.digest,
                state_digest(engine.state(), engine.policy_fingerprint()),
                "incremental digest diverged at instant {}",
                step.time
            );
        }
    }

    #[test]
    fn event_replay_reconstructs_states() {
        let (net, m, _) = diamond();
        let mut engine = Engine::new(&net, m.clone(), EagerPolicy);
        let mut replayed = InstantaneousState::initial(&net, m);
        let s0 = engine.start();
        replayed.apply_step(&net, &s0.started);
        assert_eq!(&replayed, engine.state());
        for _ in 0..30 {
            let step = engine.tick();
            replayed.apply_step(&net, &step.started);
            assert_eq!(&replayed, engine.state(), "diverged at {}", step.time);
            assert_eq!(
                state_digest(&replayed, step.policy_fingerprint),
                step.digest
            );
        }
    }

    #[test]
    fn packed_state_round_trips() {
        let (net, m, _) = diamond();
        let mut engine = Engine::new(&net, m, EagerPolicy);
        engine.start();
        for _ in 0..10 {
            engine.tick();
            let packed = engine.packed_state();
            assert_eq!(&packed.unpack(&net), engine.state());
            // 8 places + 4 transitions at 4 lanes/word -> 3 words.
            assert_eq!(packed.num_words(), 3);
        }
    }

    #[test]
    fn packed_state_wide_fallback_round_trips() {
        let mut net = PetriNet::new();
        let t = net.add_transition("huge", (u16::MAX as u64) + 10);
        let p = net.add_place("self");
        net.connect_tp(t, p);
        net.connect_pt(p, t);
        let m = Marking::from_pairs(&net, [(p, 1)]);
        let mut engine = Engine::new(&net, m, EagerPolicy);
        engine.start();
        let packed = engine.packed_state();
        assert_eq!(&packed.unpack(&net), engine.state());
        assert_eq!(packed.num_words(), 2); // one place + one transition, wide
    }

    #[test]
    fn state_key_distinguishes_policy_state() {
        struct Counter(u64);
        impl ChoicePolicy for Counter {
            fn choose(&mut self, ctx: &PolicyCtx<'_>) -> Option<TransitionId> {
                ctx.startable.first().copied()
            }
            fn on_instant_end(&mut self, _: &PetriNet, _: &InstantaneousState, _: u64) {
                self.0 += 1;
            }
            fn fingerprint(&self) -> u64 {
                self.0
            }
        }
        let (net, m, _) = diamond();
        let mut engine = Engine::new(&net, m, Counter(0));
        let s0 = engine.start();
        let s2 = {
            engine.tick();
            engine.tick()
        };
        // Policy fingerprints differ, so both the digest and the full
        // state key must differ even when the raw state repeats.
        assert_ne!(s0.digest, s2.digest);
        assert_ne!(s0.policy_fingerprint, s2.policy_fingerprint);
    }

    #[test]
    #[should_panic(expected = "invalid net")]
    fn zero_time_rejected_by_engine() {
        let mut net = PetriNet::new();
        net.add_transition("z", 0);
        let m = Marking::empty(&net);
        let _ = Engine::new(&net, m, EagerPolicy);
    }

    #[test]
    fn try_new_reports_zero_time() {
        let mut net = PetriNet::new();
        let t = net.add_transition("z", 0);
        let m = Marking::empty(&net);
        match Engine::try_new(&net, m, EagerPolicy) {
            Err(PetriError::ZeroExecutionTime { transition }) => assert_eq!(transition, t),
            other => panic!("expected ZeroExecutionTime, got {other:?}"),
        }
    }

    #[test]
    fn engine_stats_count_instants_and_events() {
        let (net, m, _) = diamond();
        let mut engine = Engine::new(&net, m, EagerPolicy);
        let mut firings = 0u64;
        let mut completions = 0u64;
        firings += engine.start().started.len() as u64;
        for _ in 0..19 {
            let s = engine.tick();
            firings += s.started.len() as u64;
            completions += s.completed.len() as u64;
        }
        let stats = engine.stats();
        assert_eq!(stats.instants, 20);
        assert_eq!(stats.firings, firings);
        assert_eq!(stats.completions, completions);
        assert!(stats.firings > 0 && stats.completions > 0);
        // Every candidate either starts or is pruned (the eager policy
        // starts everything it can), so scanned = fired + pruned.
        assert_eq!(
            stats.startable_scanned,
            stats.firings + stats.startable_pruned
        );
        let merged = stats.merged(stats);
        assert_eq!(merged.instants, 40);
        assert_eq!(merged.firings, 2 * stats.firings);
    }

    #[test]
    fn dead_net_idles_forever() {
        let (net, _, _) = diamond();
        let mut engine = Engine::new(&net, Marking::empty(&net), EagerPolicy);
        assert!(engine.start().started.is_empty());
        for _ in 0..5 {
            let s = engine.tick();
            assert!(s.started.is_empty() && s.completed.is_empty());
        }
        assert!(engine.state().all_idle());
    }
}
