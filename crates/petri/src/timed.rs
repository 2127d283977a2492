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
//! (Lemma 3.3.2), so an instant is recorded as its **event lists** only
//! — [`Engine::tick_into`] appends them to a buffer the caller owns, and
//! [`Engine::tick`] wraps them in a [`StepRecord`] — plus a 64-bit [`state
//! digest`](state_digest) maintained *incrementally* across the
//! complete/fire phases — the engine never clones the full state per step.
//! The digest is an additive (Zobrist-style) hash: every `(place, token)`
//! and `(transition, residual-cycle)` contributes a fixed pseudo-random
//! word, so token moves update the digest in O(arcs touched). Full states
//! are reconstructed on demand by [`InstantaneousState::apply_step`]
//! (event replay is policy-free: the recorded start events fully determine
//! the evolution) or snapshotted compactly via [`PackedState`].
//!
//! # Event-driven stepping
//!
//! The [`Engine`] never scans the whole net per instant; an instant costs
//! the tokens it moves plus the firings in flight:
//!
//! * every transition keeps a count of its **unshared** input places
//!   (places with one consumer) holding no token. Such a place gaining its
//!   first token lowers its consumer's count; it loses its last token only
//!   when that consumer starts;
//! * a **shared** place — one with several consumers, such as the run place
//!   of an SCP net — never drives the counts. It is a *gate*, checked
//!   through a flat per-transition list of shared inputs when a candidate
//!   is admitted and when a start empties the place. A marked graph has no
//!   shared place, so its gates are always open;
//! * an idle transition whose count reaches 0, or a transition completing
//!   with a count of 0, is **listed**. Listed transitions with every gate
//!   open form the **startable** list, kept sorted across instants: the
//!   fire phase merges in the few newly listed candidates (by binary
//!   search and block moves, in place) and the gated ones whose places
//!   refilled, and hands the list to the policy as
//!   [`PolicyCtx::startable`]. A start that empties a shared place moves
//!   the candidates it gates to the **gated** list, which stays sorted too;
//!   their listing and counts are untouched, so nothing walks the shared
//!   place's consumers;
//! * when the net has one shared place and its consumers are exactly the
//!   lowest transition ids (an SCP net: the run place gates every
//!   instruction, and instruction ids precede the pipeline stages'), the
//!   candidates behind the gate are always a prefix of both lists, so an
//!   issue that empties the run place and the completion that refills it
//!   move the waiting instructions as one block, with no gate check each.
//!   An SCP instant then costs its starts and completions; the R waiting
//!   instructions cost only binary searches and memmoves. Other nets with
//!   shared places check each moved candidate's gates;
//! * busy transitions live in a **busy list** with the running sum of
//!   their transition words, so the complete phase decrements only the
//!   residuals in flight and takes that sum off the digest in one step.

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

/// splitmix64's finalizer: a strong 64-bit mixing permutation. Policies
/// that hash their own state for [`ChoicePolicy::fingerprint`] draw their
/// words from it too.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The pseudo-random word one token on place `p` contributes to
/// [`marking_digest`] and [`state_digest`]: a marking's digest is `mix64`
/// of the wrapping sum of its tokens' words, so a checker that moves
/// tokens can keep that sum itself.
#[inline]
pub fn place_word(p: PlaceId) -> u64 {
    mix64(PLACE_SALT ^ p.index() as u64)
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
        raw = raw.wrapping_add(place_word(p).wrapping_mul(count as u64));
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
        raw = raw.wrapping_add(place_word(p).wrapping_mul(count as u64));
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
            self.raw = self.raw.wrapping_add(place_word(p));
        }
        mix64(self.raw)
    }

    /// Takes one token from each input place of `t` (a start) and returns
    /// the digest of the resulting marking.
    pub fn consume(&mut self, net: &PetriNet, t: TransitionId) -> u64 {
        for &p in net.transition(t).inputs() {
            self.raw = self.raw.wrapping_sub(place_word(p));
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
        // Only marked places and busy transitions contribute lanes, so a
        // checkpoint writes what the state holds, not every zero.
        let nonzero = || {
            let busy = state.residual.iter().enumerate().filter(|(_, &r)| r > 0);
            state
                .marking
                .marked_places()
                .map(|(p, count)| (p.index(), u64::from(count)))
                .chain(busy.map(|(t, &r)| (places + t, r)))
        };
        let mut words = vec![0u64; total.div_ceil(4)];
        let mut all_bits = 0;
        for (i, v) in nonzero() {
            all_bits |= v;
            words[i / 4] |= v << (i % 4 * 16);
        }
        let wide = all_bits > u64::from(u16::MAX);
        if wide {
            words = vec![0u64; total];
            for (i, v) in nonzero() {
                words[i] = v;
            }
        }
        PackedState {
            words: words.into_boxed_slice(),
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
    /// Transitions that can start right now, in id order. Empty in
    /// [`ChoicePolicy::on_instant_end`].
    pub startable: &'a [TransitionId],
    /// Transitions whose firing completed at this instant, in id order
    /// (empty at instant 0). Every token deposited this instant came from
    /// one of them, so a policy can update its state from these alone.
    pub completed: &'a [TransitionId],
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
    /// starts). `ctx.startable` is empty. Default: no-op.
    fn on_instant_end(&mut self, _ctx: &PolicyCtx<'_>) {}

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
// Step records
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
    /// Candidates unlisted because a started transition drained one of
    /// their input places. Under [`EagerPolicy`] every candidate starts or
    /// is pruned, so `startable_scanned = firings + startable_pruned`.
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
    /// Per transition: how many of its unshared input places hold no
    /// token.
    missing: Vec<u32>,
    /// Per transition: its shared input places.
    gates: Gates,
    /// Whether a shared place gained its first token since the last fire
    /// phase, so gated candidates may have reopened.
    gates_refilled: bool,
    /// Exactly the idle transitions with no missing input. Each is on one
    /// of `fresh`, `startable` and `gated`.
    listed: Vec<bool>,
    /// Listed since the last fire phase, unordered.
    fresh: Vec<TransitionId>,
    /// Listed with every gate open (as of the last check), in id order:
    /// the next fire phase's candidates.
    startable: Vec<TransitionId>,
    /// Listed with a gate closed, in id order.
    gated: Vec<TransitionId>,
    /// A buffer for moving candidates between the lists.
    moved: Vec<TransitionId>,
    /// This instant's completions, in id order.
    completed: Vec<TransitionId>,
    /// The transitions mid-firing, unordered, and the wrapping sum of
    /// their transition words (one residual cycle each).
    busy: Vec<TransitionId>,
    busy_words: u64,
}

/// Whether `p` is shared: it has more than one consumer, so a start can
/// empty it under another candidate (the run place of an SCP net).
#[inline]
fn is_shared(net: &PetriNet, p: PlaceId) -> bool {
    net.place(p).postset().len() > 1
}

/// Every transition's shared input places. The fire phase checks these
/// gates for every waiting candidate at every instant, so the first one
/// sits in a flat per-transition word and only a transition with several
/// reads the flattened rest, `places[at[t]..at[t + 1]]`.
#[derive(Debug)]
struct Gates {
    /// Per transition: its first shared input's index, with [`MORE_GATES`]
    /// set when it has others, or [`NO_GATE`] when it has none (every
    /// transition of a marked graph).
    first: Vec<u32>,
    at: Vec<u32>,
    places: Vec<PlaceId>,
    /// `Some(k)` when the net has one shared place and its consumers are
    /// exactly transitions `0..k`, with no other gate: the shape of an
    /// SCP net, whose run place gates every instruction and whose
    /// instruction ids precede the pipeline stages'. The candidates behind
    /// the gate are then the id-ordered lists' prefix below `k`, and the
    /// engine moves them as one block.
    block: Option<usize>,
}

const NO_GATE: u32 = u32::MAX;
const MORE_GATES: u32 = 1 << 31;

impl Gates {
    fn new(net: &PetriNet) -> Self {
        assert!(net.num_places() < MORE_GATES as usize, "too many places");
        let mut first = Vec::with_capacity(net.num_transitions());
        let mut at = Vec::with_capacity(net.num_transitions() + 1);
        let mut places: Vec<PlaceId> = Vec::new();
        at.push(0);
        for (_, t) in net.transitions() {
            let from = places.len();
            places.extend(t.inputs().iter().filter(|&&p| is_shared(net, p)));
            first.push(match &places[from..] {
                [] => NO_GATE,
                [p] => p.index() as u32,
                [p, ..] => p.index() as u32 | MORE_GATES,
            });
            at.push(places.len() as u32);
        }
        let block = match places.first() {
            Some(&p) if places.iter().all(|&q| q == p) => {
                let k = net.place(p).postset().len();
                let only_p = |(i, &gate): (usize, &u32)| (gate == p.index() as u32) == (i < k);
                first.iter().enumerate().all(only_p).then_some(k)
            }
            _ => None,
        };
        Gates {
            first,
            at,
            places,
            block,
        }
    }

    /// Whether every shared input of `t` holds a token.
    #[inline]
    fn open(&self, t: TransitionId, marking: &Marking) -> bool {
        let gate = self.first[t.index()];
        if gate == NO_GATE {
            return true;
        }
        if marking.tokens(PlaceId::from_index((gate & !MORE_GATES) as usize)) == 0 {
            return false;
        }
        gate & MORE_GATES == 0 || {
            let i = t.index();
            self.places[self.at[i] as usize..self.at[i + 1] as usize]
                .iter()
                .all(|&p| marking.tokens(p) > 0)
        }
    }
}

/// Merges the id-ordered `extra` into the id-ordered `list` in place and
/// leaves `extra` empty. Each entry of `extra`, largest first, finds its
/// place by binary search, and the entries of `list` above it move up as
/// one block, so merging a few candidates into a long list (the waiting
/// instructions of an SCP net) costs a few searches and one memmove, not a
/// comparison per entry.
fn merge_into(list: &mut Vec<TransitionId>, extra: &mut Vec<TransitionId>) {
    if list.is_empty() {
        std::mem::swap(list, extra);
        return;
    }
    if list.last() < extra.first() {
        list.append(extra);
        return;
    }
    let mut end = list.len();
    list.extend_from_slice(extra);
    for (i, &t) in extra.iter().enumerate().rev() {
        let at = list[..end].partition_point(|&x| x < t);
        list.copy_within(at..end, at + i + 1);
        list[at + i] = t;
        end = at;
    }
    extra.clear();
}

/// Moves the entries of the id-ordered `from` for which `stays` fails
/// into the id-ordered `to`, keeping both in id order, and returns how
/// many moved. When `to` starts empty the lists swap first and the
/// entries that stay are moved back, so moving a whole list writes
/// nothing per entry, though every entry is still checked. Only nets with
/// shared places get here, so it stays out of line of the marked-graph
/// path; nets with [`Gates::block`]'s shape (SCP nets) use it only for
/// the few candidates each instant lists.
#[inline(never)]
fn transfer(
    from: &mut Vec<TransitionId>,
    to: &mut Vec<TransitionId>,
    stays: impl Fn(TransitionId) -> bool,
    moved: &mut Vec<TransitionId>,
) -> usize {
    let before = to.len();
    if to.is_empty() {
        std::mem::swap(from, to);
        to.retain(|&t| {
            !stays(t) || {
                moved.push(t);
                false
            }
        });
        merge_into(from, moved);
    } else {
        from.retain(|&t| {
            stays(t) || {
                moved.push(t);
                false
            }
        });
        merge_into(to, moved);
    }
    to.len() - before
}

/// Moves the id-ordered prefix of `startable` below `k` into the empty
/// `gated` and returns how many moved: the block move of a net with
/// [`Gates::block`] when a start empties its shared place. Only the
/// ungated suffix is copied, through `spare`; the prefix changes lists by
/// a swap of buffers.
fn close_block(
    startable: &mut Vec<TransitionId>,
    gated: &mut Vec<TransitionId>,
    k: usize,
    spare: &mut Vec<TransitionId>,
) -> usize {
    debug_assert!(gated.is_empty() && spare.is_empty());
    let at = startable.partition_point(|t| t.index() < k);
    spare.extend_from_slice(&startable[at..]);
    startable.truncate(at);
    std::mem::swap(gated, startable);
    std::mem::swap(startable, spare);
    at
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
        let missing: Vec<u32> = net
            .transitions()
            .map(|(_, t)| {
                let empty = t
                    .inputs()
                    .iter()
                    .filter(|&&p| !is_shared(net, p) && state.marking.tokens(p) == 0);
                empty.count() as u32
            })
            .collect();
        let fresh: Vec<TransitionId> = net
            .transition_ids()
            .filter(|t| missing[t.index()] == 0)
            .collect();
        let listed = missing.iter().map(|&m| m == 0).collect();
        Engine {
            net,
            state,
            raw_digest,
            time: 0,
            policy,
            started: false,
            stats: EngineStats::default(),
            missing,
            gates: Gates::new(net),
            gates_refilled: false,
            listed,
            fresh,
            startable: Vec::new(),
            gated: Vec::new(),
            moved: Vec::new(),
            completed: Vec::new(),
            busy: Vec::new(),
            busy_words: 0,
        }
    }

    /// Executes instant 0: fires the initially enabled transitions.
    ///
    /// # Panics
    ///
    /// Panics if called twice, or after [`tick`](Self::tick).
    pub fn start(&mut self) -> StepRecord {
        let mut events = Vec::new();
        let started = self.start_into(&mut events);
        self.record(events, started)
    }

    /// Executes the next instant: completions, then earliest-rule starts.
    ///
    /// # Panics
    ///
    /// Panics if [`start`](Self::start) has not been called.
    pub fn tick(&mut self) -> StepRecord {
        let mut events = Vec::new();
        let started = self.tick_into(&mut events);
        self.record(events, started)
    }

    /// [`start`](Self::start), appending the instant's starts to `events`
    /// instead of returning a record. Returns the index in `events` where
    /// they begin (its length on entry).
    ///
    /// # Panics
    ///
    /// As [`start`](Self::start).
    pub fn start_into(&mut self, events: &mut Vec<TransitionId>) -> usize {
        assert!(!self.started, "start() must be the first step");
        self.started = true;
        self.stats.instants += 1;
        self.completed.clear();
        self.finish_instant(events)
    }

    /// [`tick`](Self::tick), appending the instant's completions (in id
    /// order) and then its starts (in start order) to `events` instead of
    /// returning a record. Returns the index in `events` where the starts
    /// begin.
    ///
    /// # Panics
    ///
    /// As [`tick`](Self::tick).
    pub fn tick_into(&mut self, events: &mut Vec<TransitionId>) -> usize {
        assert!(self.started, "call start() before tick()");
        self.time += 1;
        self.stats.instants += 1;
        self.complete_phase();
        events.extend_from_slice(&self.completed);
        self.finish_instant(events)
    }

    /// The record of the instant just run, from its events.
    fn record(&self, mut completed: Vec<TransitionId>, started: usize) -> StepRecord {
        let started = completed.split_off(started);
        StepRecord {
            time: self.time,
            completed,
            started,
            digest: self.digest(),
            policy_fingerprint: self.policy.fingerprint(),
        }
    }

    /// Runs the fire phase after this instant's completions, appending its
    /// starts to `events`, tells the policy the instant ended, and returns
    /// where the starts begin.
    fn finish_instant(&mut self, events: &mut Vec<TransitionId>) -> usize {
        let from = events.len();
        let completed = std::mem::take(&mut self.completed);
        self.fire_phase(&completed, events);
        self.policy.on_instant_end(&PolicyCtx {
            net: self.net,
            state: &self.state,
            startable: &[],
            completed: &completed,
            time: self.time,
        });
        self.completed = completed;
        from
    }

    /// Advances the busy transitions by one cycle and collects those
    /// reaching 0 in `completed`, in id order.
    fn complete_phase(&mut self) {
        // Every busy transition loses one residual cycle.
        self.raw_digest = self.raw_digest.wrapping_sub(self.busy_words);
        let mut completed = std::mem::take(&mut self.completed);
        completed.clear();
        let mut i = 0;
        while i < self.busy.len() {
            let t = self.busy[i];
            let residual = &mut self.state.residual[t.index()];
            *residual -= 1;
            if *residual == 0 {
                self.busy.swap_remove(i);
                self.busy_words = self.busy_words.wrapping_sub(transition_word(t.index()));
                completed.push(t);
            } else {
                i += 1;
            }
        }
        completed.sort_unstable();
        for &t in &completed {
            self.produce(t);
            if self.missing[t.index()] == 0 {
                self.list(t);
            }
        }
        self.stats.completions += completed.len() as u64;
        self.completed = completed;
    }

    /// Deposits one token on each output place of `t`. An unshared place
    /// gaining its first token lowers its consumer's missing count, and an
    /// idle consumer left with none is listed; a shared one may reopen
    /// gates.
    fn produce(&mut self, t: TransitionId) {
        let net = self.net;
        for &p in net.transition(t).outputs() {
            self.raw_digest = self.raw_digest.wrapping_add(place_word(p));
            let was_empty = self.state.marking.tokens(p) == 0;
            self.state.marking.add(p, 1);
            if was_empty {
                match net.place(p).postset() {
                    [] => {}
                    &[u] => {
                        self.missing[u.index()] -= 1;
                        if self.missing[u.index()] == 0 && !self.state.is_busy(u) {
                            self.list(u);
                        }
                    }
                    _ => self.gates_refilled = true,
                }
            }
        }
    }

    /// Takes one token from each input place of `t`, which is starting.
    /// An unshared place left empty raises the missing count of its only
    /// consumer, `t` itself; returns whether a shared place was left
    /// empty, closing the gates of the candidates that share it.
    fn consume(&mut self, t: TransitionId) -> bool {
        let net = self.net;
        let mut closed = false;
        for &p in net.transition(t).inputs() {
            self.raw_digest = self.raw_digest.wrapping_sub(place_word(p));
            self.state.marking.remove(p, 1);
            if self.state.marking.tokens(p) == 0 {
                if is_shared(net, p) {
                    closed = true;
                } else {
                    self.missing[t.index()] += 1;
                }
            }
        }
        closed
    }

    fn list(&mut self, t: TransitionId) {
        if !self.listed[t.index()] {
            self.listed[t.index()] = true;
            self.fresh.push(t);
        }
    }

    /// Admits this instant's candidates into the id-ordered lists: gated
    /// candidates whose shared places refilled and newly listed ones with
    /// open gates merge into `startable`; newly listed ones behind a
    /// closed gate merge into `gated`. Nothing is re-sorted but `fresh`.
    fn admit(&mut self) {
        let (marking, gates) = (&self.state.marking, &self.gates);
        let closed = |t| !gates.open(t, marking);
        if std::mem::take(&mut self.gates_refilled) {
            if gates.block.is_some() {
                // Every waiting candidate sat behind the one shared place,
                // which refilled, and precedes every startable one.
                std::mem::swap(&mut self.gated, &mut self.startable);
                self.startable.append(&mut self.gated);
            } else {
                transfer(
                    &mut self.gated,
                    &mut self.startable,
                    closed,
                    &mut self.moved,
                );
            }
        }
        self.fresh.sort_unstable();
        // A marked graph has no gates to check.
        if !gates.places.is_empty() && self.fresh.iter().any(|&t| closed(t)) {
            transfer(
                &mut self.fresh,
                &mut self.gated,
                |t| !closed(t),
                &mut self.moved,
            );
        }
        merge_into(&mut self.startable, &mut self.fresh);
    }

    /// Starts transitions under the earliest firing rule, consulting the
    /// policy while choices remain, and appends them to `started`.
    ///
    /// The policy sees `startable[head..]`, the idle enabled transitions
    /// in id order. Starting the head advances `head`; starting another
    /// entry removes just that entry. Starts only consume tokens, and an
    /// unshared place only under its one consumer, so the list changes
    /// beyond the started entry only when a start empties a shared place
    /// (never in a marked graph; once per issue in an SCP net): then the
    /// candidates behind that gate move to `gated`, as one block when the
    /// net has [`Gates::block`]'s shape. Candidates the policy leaves idle
    /// stay startable for the next instant.
    fn fire_phase(&mut self, completed: &[TransitionId], started: &mut Vec<TransitionId>) {
        self.admit();
        let mut startable = std::mem::take(&mut self.startable);
        debug_assert!(startable.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(startable.iter().all(|&t| !self.state.is_busy(t)
            && self.missing[t.index()] == 0
            && self.gates.open(t, &self.state.marking)));
        debug_assert!(self.gated.iter().all(|&t| !self.state.is_busy(t)
            && self.missing[t.index()] == 0
            && !self.gates.open(t, &self.state.marking)));
        // Counters accumulate in locals and fold in once on exit.
        let scanned = startable.len() as u64;
        let mut pruned = 0u64;
        let from = started.len();
        let mut head = 0;
        while head < startable.len() {
            let ctx = PolicyCtx {
                net: self.net,
                state: &self.state,
                startable: &startable[head..],
                completed,
                time: self.time,
            };
            let Some(t) = self.policy.choose(&ctx) else {
                break;
            };
            if startable[head] == t {
                head += 1;
            } else {
                let at = startable[head..]
                    .binary_search(&t)
                    .unwrap_or_else(|_| panic!("policy chose {t}, which cannot start now"));
                startable.remove(head + at);
            }
            self.listed[t.index()] = false;
            let closed = self.consume(t);
            let tau = self.net.transition(t).time();
            let word = transition_word(t.index());
            self.state.residual[t.index()] = tau;
            self.raw_digest = self.raw_digest.wrapping_add(word.wrapping_mul(tau));
            self.busy.push(t);
            self.busy_words = self.busy_words.wrapping_add(word);
            started.push(t);
            if closed {
                // The candidates behind the emptied place wait, still
                // listed, in `gated`.
                startable.drain(..head);
                head = 0;
                let (marking, gates) = (&self.state.marking, &self.gates);
                let (gated, moved) = (&mut self.gated, &mut self.moved);
                pruned += match gates.block {
                    Some(k) => close_block(&mut startable, gated, k, moved),
                    None => transfer(&mut startable, gated, |u| gates.open(u, marking), moved),
                } as u64;
            }
        }
        startable.drain(..head);
        self.startable = startable;
        self.stats.startable_scanned += scanned;
        self.stats.startable_pruned += pruned;
        self.stats.firings += (started.len() - from) as u64;
    }

    /// The current instant (0 until the first [`tick`](Self::tick)).
    pub fn time(&self) -> u64 {
        self.time
    }

    /// The current instantaneous state.
    pub fn state(&self) -> &InstantaneousState {
        &self.state
    }

    /// Whether no transition is firing — [`InstantaneousState::all_idle`]
    /// without the scan.
    pub fn all_idle(&self) -> bool {
        self.busy.is_empty()
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
    fn digest_distinguishes_policy_state() {
        struct Counter(u64);
        impl ChoicePolicy for Counter {
            fn choose(&mut self, ctx: &PolicyCtx<'_>) -> Option<TransitionId> {
                ctx.startable.first().copied()
            }
            fn on_instant_end(&mut self, _: &PolicyCtx<'_>) {
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
        // Policy fingerprints differ, so the digests must differ even
        // when the raw state repeats.
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
        assert!(engine.state().all_idle() && engine.all_idle());
    }

    #[test]
    fn transitions_behind_several_shared_places_wait_for_all_of_them() {
        // `a` and `b` share `left`, `b` and `c` share `right`, so `b`
        // waits behind two gates; each returns its tokens on completion.
        // The policy rotates through the candidates by instant, so `c`
        // sometimes takes `right` while `left` stays marked, and every
        // list it is shown must equal a from-scratch scan.
        struct Rotate;
        impl ChoicePolicy for Rotate {
            fn choose(&mut self, ctx: &PolicyCtx<'_>) -> Option<TransitionId> {
                assert_eq!(ctx.startable, ctx.state.startable(ctx.net).as_slice());
                let at = ctx.time as usize % ctx.startable.len();
                Some(ctx.startable[at])
            }
            fn on_instant_end(&mut self, ctx: &PolicyCtx<'_>) {
                assert!(ctx.state.startable(ctx.net).is_empty());
            }
        }
        let mut net = PetriNet::new();
        let a = net.add_transition("a", 1);
        let b = net.add_transition("b", 1);
        let c = net.add_transition("c", 2);
        let left = net.add_place("left");
        let right = net.add_place("right");
        for (t, shared) in [(a, vec![left]), (b, vec![left, right]), (c, vec![right])] {
            for p in shared {
                net.connect_pt(p, t);
                net.connect_tp(t, p);
            }
        }
        let m = Marking::from_pairs(&net, [(left, 1), (right, 1)]);
        let mut engine = Engine::new(&net, m.clone(), Rotate);
        let mut replayed = InstantaneousState::initial(&net, m);
        let mut fired = [0u32; 3];
        for time in 0..30 {
            let step = if time == 0 {
                engine.start()
            } else {
                engine.tick()
            };
            replayed.apply_step(&net, &step.started);
            assert_eq!(&replayed, engine.state(), "instant {}", step.time);
            for t in &step.started {
                fired[t.index()] += 1;
            }
        }
        assert!(fired.iter().all(|&n| n > 0), "{fired:?}");
        assert!(engine.stats().startable_pruned > 0);
    }

    #[test]
    fn block_moves_keep_the_candidates_a_policy_leaves_idle() {
        // `a` and `b` share `run` and are transitions 0 and 1, so the
        // engine moves them as a block; `c` has no gate. The policy starts
        // a gated candidate, taking turns, whenever it can, but `c` only
        // every third instant, so `c` is often startable while `run`
        // empties and refills, and every list must still equal a
        // from-scratch scan.
        struct Skip(usize);
        impl ChoicePolicy for Skip {
            fn choose(&mut self, ctx: &PolicyCtx<'_>) -> Option<TransitionId> {
                assert_eq!(ctx.startable, ctx.state.startable(ctx.net).as_slice());
                let gated = ctx.startable.partition_point(|t| t.index() < 2);
                if gated > 0 {
                    self.0 += 1;
                    return Some(ctx.startable[self.0 % gated]);
                }
                ctx.time.is_multiple_of(3).then_some(ctx.startable[0])
            }
        }
        let mut net = PetriNet::new();
        let a = net.add_transition("a", 1);
        let b = net.add_transition("b", 2);
        let c = net.add_transition("c", 1);
        let run = net.add_place("run");
        let mut pairs = vec![(run, 1)];
        for t in [a, b, c] {
            let own = net.add_place(format!("own:{t}"));
            net.connect_tp(t, own);
            net.connect_pt(own, t);
            pairs.push((own, 1));
        }
        for t in [a, b] {
            net.connect_pt(run, t);
            net.connect_tp(t, run);
        }
        let m = Marking::from_pairs(&net, pairs);
        let mut engine = Engine::new(&net, m.clone(), Skip(0));
        assert_eq!(engine.gates.block, Some(2));
        let mut replayed = InstantaneousState::initial(&net, m);
        let mut fired = [0u32; 3];
        for time in 0..30 {
            let step = if time == 0 {
                engine.start()
            } else {
                engine.tick()
            };
            replayed.apply_step(&net, &step.started);
            assert_eq!(&replayed, engine.state(), "instant {}", step.time);
            for t in &step.started {
                fired[t.index()] += 1;
            }
        }
        assert!(fired.iter().all(|&n| n > 2), "{fired:?}");
    }

    #[test]
    fn startable_lists_stay_exact_under_prunes_and_non_head_starts() {
        // Two transitions share the input place `shared`: starting one
        // prunes the other. A policy that always starts the *last*
        // candidate exercises the non-head removal, and every list it is
        // shown must equal a from-scratch scan.
        struct Last;
        impl ChoicePolicy for Last {
            fn choose(&mut self, ctx: &PolicyCtx<'_>) -> Option<TransitionId> {
                assert_eq!(ctx.startable, ctx.state.startable(ctx.net).as_slice());
                ctx.startable.last().copied()
            }
            fn on_instant_end(&mut self, ctx: &PolicyCtx<'_>) {
                assert!(ctx.startable.is_empty());
                assert!(ctx.completed.windows(2).all(|w| w[0] < w[1]));
            }
        }
        let mut net = PetriNet::new();
        let ts: Vec<_> = (0..4)
            .map(|i| net.add_transition(format!("t{i}"), 1 + i as u64 % 2))
            .collect();
        let shared = net.add_place("shared");
        net.connect_pt(shared, ts[1]);
        net.connect_pt(shared, ts[2]);
        net.connect_tp(ts[1], shared);
        net.connect_tp(ts[2], shared);
        let mut pairs = vec![(shared, 1)];
        for &t in &ts {
            let own = net.add_place(format!("own:{t}"));
            net.connect_tp(t, own);
            net.connect_pt(own, t);
            pairs.push((own, 1));
        }
        let m = Marking::from_pairs(&net, pairs);
        let mut engine = Engine::new(&net, m.clone(), Last);
        let mut replayed = InstantaneousState::initial(&net, m);
        let s0 = engine.start();
        replayed.apply_step(&net, &s0.started);
        for _ in 0..12 {
            let step = engine.tick();
            replayed.apply_step(&net, &step.started);
            assert_eq!(&replayed, engine.state(), "instant {}", step.time);
            assert_eq!(step.digest, state_digest(&replayed, 0));
        }
        assert!(engine.stats().startable_pruned > 0);
    }
}
