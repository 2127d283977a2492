//! Deterministic conflict resolution for the SCP machine (Assumption
//! 5.2.1).
//!
//! The run place of an SDSP-SCP-PN is a structural conflict: several
//! data-ready instructions may compete for the single issue slot. The
//! paper's simulated machine resolves the choice with a FIFO queue over an
//! adjacency-list representation of the graph — instructions enter the
//! queue when they become data-ready and issue in arrival order, with the
//! machine never idling while something is ready (Assumption 5.2.1).
//! [`FifoPolicy`] reproduces that mechanism; [`PriorityPolicy`] is an
//! alternative deterministic scheme (lowest transition id first) used to
//! demonstrate that the *existence* of a cyclic frustum does not depend on
//! the particular tie-break, only on its repeatability.
//!
//! # The incremental issue queue
//!
//! [`FifoPolicy`] keeps its queue current from each instant's completions
//! ([`PolicyCtx::completed`]) instead of rescanning every instruction.
//! Every place of an SDSP-SCP-PN except the run place has one consumer,
//! so a queued instruction stops being data-ready only by starting, and
//! FIFO starts only the front. The queue fingerprint is a rolling
//! polynomial hash of the exact queue order, updated in O(1) per push and
//! pop.

use std::collections::VecDeque;

use tpn_petri::timed::{mix64, ChoicePolicy, PolicyCtx};
use tpn_petri::{PetriNet, PlaceId, TransitionId};

use crate::scp::ScpPn;

/// Which scheduling engine derives the steady state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SchedulePolicy {
    /// Pick [`Analytic`](SchedulePolicy::Analytic) for pure marked graphs,
    /// [`Frustum`](SchedulePolicy::Frustum) otherwise (SCP runs, nets with
    /// structural conflicts).
    #[default]
    Auto,
    /// Construct the periodic schedule from the critical ratio
    /// ([`crate::analytic`]); errors on nets that are not marked graphs.
    Analytic,
    /// Simulate under the earliest firing rule until the cyclic frustum
    /// repeats (the paper's detection procedure, [`crate::frustum`]).
    Frustum,
}

impl SchedulePolicy {
    /// Parses `auto` / `analytic` / `frustum`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "auto" => Some(SchedulePolicy::Auto),
            "analytic" => Some(SchedulePolicy::Analytic),
            "frustum" => Some(SchedulePolicy::Frustum),
            _ => None,
        }
    }

    /// The canonical spelling accepted by [`parse`](Self::parse).
    pub fn as_str(self) -> &'static str {
        match self {
            SchedulePolicy::Auto => "auto",
            SchedulePolicy::Analytic => "analytic",
            SchedulePolicy::Frustum => "frustum",
        }
    }

    /// Resolves `Auto` against a concrete net: analytic iff the net is a
    /// pure marked graph (every place single-producer single-consumer, so
    /// no SCP run place and no structural conflict).
    pub fn resolve(self, net: &PetriNet) -> SchedulePolicy {
        match self {
            SchedulePolicy::Auto => {
                if net.is_marked_graph() {
                    SchedulePolicy::Analytic
                } else {
                    SchedulePolicy::Frustum
                }
            }
            other => other,
        }
    }
}

/// FIFO issue policy for SDSP-SCP-PNs.
///
/// Dummy (pipeline-stage) transitions fire eagerly — they hold no shared
/// resource. SDSP transitions are queued when **data-ready** (idle, every
/// input place except the run place marked) and issue in queue order, one
/// per cycle, whenever the run place holds its token.
#[derive(Clone, Debug)]
pub struct FifoPolicy {
    run_place: PlaceId,
    is_sdsp: Vec<bool>,
    queue: VecDeque<TransitionId>,
    /// Per transition: whether it is in `queue`.
    queued: Vec<bool>,
    /// The instant whose completions are enqueued; `None` before the
    /// first sync, which scans every instruction.
    synced: Option<u64>,
    /// The queue order, hashed (see [`QueueHash`]).
    hash: QueueHash,
    /// A sync's candidates, kept to reuse the buffer.
    fresh: Vec<TransitionId>,
}

impl FifoPolicy {
    /// Creates the policy for a built SCP model.
    ///
    /// # Panics
    ///
    /// Panics unless `scp` has the shape [`build_scp`](crate::scp::build_scp)
    /// gives it: every place except the run place has at most one consumer
    /// (the queue's exactness rests on it), and the instructions' ids come
    /// before the pipeline stages'.
    pub fn new(scp: &ScpPn) -> Self {
        check_scp_shape(scp);
        FifoPolicy {
            run_place: scp.run_place,
            is_sdsp: scp.is_sdsp.clone(),
            queue: VecDeque::new(),
            queued: vec![false; scp.is_sdsp.len()],
            synced: None,
            hash: QueueHash::new(scp.num_sdsp_transitions()),
            fresh: Vec::new(),
        }
    }

    /// The current queue contents, front first (for behaviour-graph
    /// rendering and debugging).
    pub fn queue(&self) -> impl Iterator<Item = TransitionId> + '_ {
        self.queue.iter().copied()
    }

    /// Whether `t` is data-ready: idle, and every input place except the
    /// run place marked.
    fn data_ready(&self, ctx: &PolicyCtx<'_>, t: TransitionId) -> bool {
        !ctx.state.is_busy(t)
            && ctx
                .net
                .transition(t)
                .inputs()
                .iter()
                .all(|&p| p == self.run_place || ctx.state.marking.tokens(p) > 0)
    }

    /// Brings the queue up to date at `ctx.time`: drops the issued front,
    /// then enqueues, in id order, the instructions this instant's
    /// completions made data-ready — each completed instruction and the
    /// instruction consumers of every completed transition's outputs.
    fn sync(&mut self, ctx: &PolicyCtx<'_>) {
        while let Some(&front) = self.queue.front() {
            if !ctx.state.is_busy(front) {
                break;
            }
            self.queue.pop_front();
            self.queued[front.index()] = false;
            self.hash.pop_front(front, self.queue.len());
        }
        if self.synced == Some(ctx.time) {
            return;
        }
        let mut fresh = std::mem::take(&mut self.fresh);
        fresh.clear();
        match self.synced {
            None => fresh.extend(
                (0..self.is_sdsp.len())
                    .filter(|&i| self.is_sdsp[i])
                    .map(TransitionId::from_index),
            ),
            Some(_) => {
                for &c in ctx.completed {
                    if self.is_sdsp[c.index()] {
                        fresh.push(c);
                    }
                    for &p in ctx.net.transition(c).outputs() {
                        if p != self.run_place {
                            let consumers = ctx.net.place(p).postset().iter();
                            fresh.extend(consumers.filter(|u| self.is_sdsp[u.index()]));
                        }
                    }
                }
                fresh.sort_unstable();
                fresh.dedup();
            }
        }
        fresh.retain(|&t| !self.queued[t.index()] && self.data_ready(ctx, t));
        for &t in &fresh {
            self.queued[t.index()] = true;
            self.hash.push_back(t);
            self.queue.push_back(t);
        }
        self.fresh = fresh;
        self.synced = Some(ctx.time);
    }
}

/// Asserts the structure both SCP policies rely on (see
/// [`FifoPolicy::new`]).
fn check_scp_shape(scp: &ScpPn) {
    assert!(
        scp.net
            .places()
            .all(|(p, place)| p == scp.run_place || place.postset().len() <= 1),
        "a place other than the run place has several consumers"
    );
    assert!(
        scp.is_sdsp.windows(2).all(|w| w[0] || !w[1]),
        "instruction ids must precede pipeline-stage ids"
    );
}

/// The first pipeline-stage (dummy) transition in an id-ordered startable
/// list: instructions come first (see [`check_scp_shape`]).
fn first_dummy(is_sdsp: &[bool], startable: &[TransitionId]) -> Option<TransitionId> {
    let at = startable.partition_point(|t| is_sdsp[t.index()]);
    startable.get(at).copied()
}

impl ChoicePolicy for FifoPolicy {
    fn choose(&mut self, ctx: &PolicyCtx<'_>) -> Option<TransitionId> {
        // Pipeline stages advance unconditionally.
        if let Some(dummy) = first_dummy(&self.is_sdsp, ctx.startable) {
            return Some(dummy);
        }
        self.sync(ctx);
        if ctx.state.marking.tokens(self.run_place) == 0 {
            return None;
        }
        let front = *self.queue.front()?;
        debug_assert!(
            ctx.startable.binary_search(&front).is_ok(),
            "queue front {front} should be startable when the run place is marked"
        );
        Some(front)
    }

    fn on_instant_end(&mut self, ctx: &PolicyCtx<'_>) {
        // Keep the queue current even on instants where nothing could
        // start, so the fingerprint reflects arrival order faithfully.
        self.sync(ctx);
    }

    fn fingerprint(&self) -> u64 {
        self.hash.value
    }
}

/// A rolling polynomial hash of a queue's order modulo the Mersenne prime
/// 2^61 − 1: `Σ word(q_i) · BASE^(len − 1 − i)` over the queue front to
/// back. `push_back` multiplies by `BASE` and adds; `pop_front` subtracts
/// the front's term. Both are O(1), and unlike a set or length digest the
/// value changes when two entries swap places.
#[derive(Clone, Debug)]
struct QueueHash {
    value: u64,
    /// `BASE^k` for every queue length `k` the policy can reach.
    powers: Vec<u64>,
}

const MERSENNE_61: u64 = (1 << 61) - 1;
const QUEUE_BASE: u64 = 0x0F1E_2D3C_4B5A_6978 % MERSENNE_61;

fn mul_mod(a: u64, b: u64) -> u64 {
    let x = u128::from(a) * u128::from(b);
    let r = (x as u64 & MERSENNE_61) + (x >> 61) as u64;
    let r = (r & MERSENNE_61) + (r >> 61);
    if r >= MERSENNE_61 {
        r - MERSENNE_61
    } else {
        r
    }
}

/// A nonzero residue per transition, so every entry moves the hash.
fn queue_word(t: TransitionId) -> u64 {
    mix64(t.index() as u64) % (MERSENNE_61 - 1) + 1
}

impl QueueHash {
    /// A hash for queues of up to `capacity` entries.
    fn new(capacity: usize) -> Self {
        let mut powers = vec![1u64; capacity.max(1)];
        for k in 1..powers.len() {
            powers[k] = mul_mod(powers[k - 1], QUEUE_BASE);
        }
        QueueHash { value: 0, powers }
    }

    fn push_back(&mut self, t: TransitionId) {
        self.value = (mul_mod(self.value, QUEUE_BASE) + queue_word(t)) % MERSENNE_61;
    }

    /// Removes the front entry `t` of a queue now holding `rest` entries.
    fn pop_front(&mut self, t: TransitionId, rest: usize) {
        let term = mul_mod(queue_word(t), self.powers[rest]);
        self.value = (self.value + MERSENNE_61 - term) % MERSENNE_61;
    }
}

/// Lowest-id-first issue policy: an alternative deterministic tie-break
/// (static priority by program order).
#[derive(Clone, Debug)]
pub struct PriorityPolicy {
    run_place: PlaceId,
    is_sdsp: Vec<bool>,
}

impl PriorityPolicy {
    /// Creates the policy for a built SCP model.
    ///
    /// # Panics
    ///
    /// Panics unless `scp` has the shape [`FifoPolicy::new`] requires.
    pub fn new(scp: &ScpPn) -> Self {
        check_scp_shape(scp);
        PriorityPolicy {
            run_place: scp.run_place,
            is_sdsp: scp.is_sdsp.clone(),
        }
    }
}

impl ChoicePolicy for PriorityPolicy {
    fn choose(&mut self, ctx: &PolicyCtx<'_>) -> Option<TransitionId> {
        if let Some(dummy) = first_dummy(&self.is_sdsp, ctx.startable) {
            return Some(dummy);
        }
        if ctx.state.marking.tokens(self.run_place) == 0 {
            return None;
        }
        // `startable` is in id order and holds only instructions here.
        ctx.startable.first().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frustum::detect_frustum;
    use crate::scp::build_scp;
    use tpn_dataflow::to_petri::to_petri;
    use tpn_dataflow::{OpKind, Operand, SdspBuilder};
    use tpn_petri::timed::EagerPolicy;

    fn l1_scp(depth: u64) -> ScpPn {
        let mut b = SdspBuilder::new();
        let a = b.node("A", OpKind::Add, [Operand::env("X", 0), Operand::lit(5.0)]);
        let bb = b.node("B", OpKind::Add, [Operand::env("Y", 0), Operand::node(a)]);
        let c = b.node("C", OpKind::Add, [Operand::node(a), Operand::env("Z", 0)]);
        let d = b.node("D", OpKind::Add, [Operand::node(bb), Operand::node(c)]);
        let _e = b.node("E", OpKind::Add, [Operand::env("W", 0), Operand::node(d)]);
        let pn = to_petri(&b.finish().unwrap());
        build_scp(&pn, depth)
    }

    /// Wraps a policy and checks, at every consultation, that the engine
    /// shows exactly the idle enabled transitions in id order, and, at
    /// every instant's end, that none is left enabled (each wrapped
    /// policy starts everything it may).
    struct Exact<P>(P);

    impl<P: ChoicePolicy> ChoicePolicy for Exact<P> {
        fn choose(&mut self, ctx: &PolicyCtx<'_>) -> Option<TransitionId> {
            assert_eq!(
                ctx.startable,
                ctx.state.startable(ctx.net).as_slice(),
                "instant {}",
                ctx.time
            );
            self.0.choose(ctx)
        }
        fn on_instant_end(&mut self, ctx: &PolicyCtx<'_>) {
            let left = ctx.state.startable(ctx.net);
            assert!(
                left.is_empty(),
                "instant {}: {left:?} left enabled",
                ctx.time
            );
            self.0.on_instant_end(ctx);
        }
        fn fingerprint(&self) -> u64 {
            self.0.fingerprint()
        }
    }

    #[test]
    fn startable_lists_equal_the_enabled_set_around_the_shared_run_place() {
        // The run place has one consumer per instruction: the engine
        // treats it as a gate, and the lists it hands every policy must
        // still be exactly the enabled set, at every instant.
        use tpn_livermore::synth::{chain, generate, recurrence_ring, SynthConfig};
        let mut bodies: Vec<(String, tpn_dataflow::Sdsp)> = tpn_livermore::kernels()
            .into_iter()
            .map(|k| (k.name.to_string(), tpn_lang::compile(k.source).unwrap()))
            .collect();
        bodies.push(("chain/12".into(), chain(12)));
        bodies.push(("ring/6".into(), recurrence_ring(6)));
        for seed in 0..4 {
            let config = SynthConfig {
                nodes: 9,
                forward_density: 0.4,
                recurrences: 1,
                distance: 1,
                seed,
            };
            bodies.push((format!("synth/{seed}"), generate(&config)));
        }
        for (name, sdsp) in &bodies {
            let pn = to_petri(sdsp);
            for depth in 1..=8 {
                let scp = build_scp(&pn, depth);
                let marking = || scp.marking.clone();
                let runs = [
                    (
                        "eager",
                        detect_frustum(&scp.net, marking(), Exact(EagerPolicy), 100_000),
                    ),
                    (
                        "fifo",
                        detect_frustum(&scp.net, marking(), Exact(FifoPolicy::new(&scp)), 100_000),
                    ),
                    (
                        "priority",
                        detect_frustum(
                            &scp.net,
                            marking(),
                            Exact(PriorityPolicy::new(&scp)),
                            100_000,
                        ),
                    ),
                ];
                for (policy, run) in runs {
                    let f = run.unwrap_or_else(|e| panic!("{name}@{depth} {policy}: {e}"));
                    assert!(f.period() > 0, "{name}@{depth} {policy}");
                }
            }
        }
    }

    #[test]
    fn fifo_issues_at_most_one_sdsp_transition_per_cycle() {
        let scp = l1_scp(8);
        let f = detect_frustum(
            &scp.net,
            scp.marking.clone(),
            FifoPolicy::new(&scp),
            100_000,
        )
        .unwrap();
        for step in f.steps() {
            let issues = step
                .started
                .iter()
                .filter(|t| scp.is_sdsp[t.index()])
                .count();
            assert!(issues <= 1, "two issues at instant {}", step.time);
        }
    }

    #[test]
    fn fifo_never_idles_when_ready_and_free() {
        // Assumption 5.2.1: machine never idles while an instruction is
        // data-ready and the pipe is free.
        let scp = l1_scp(4);
        let f = detect_frustum(
            &scp.net,
            scp.marking.clone(),
            FifoPolicy::new(&scp),
            100_000,
        )
        .unwrap();
        // Replay: at any instant where no SDSP transition started, either
        // the run place was empty mid-instant (impossible here without a
        // start) or nothing was data-ready. We verify via the state left
        // behind: run marked && something startable => contradiction.
        let mut state =
            tpn_petri::timed::InstantaneousState::initial(&scp.net, scp.marking.clone());
        for step in f.steps() {
            state.apply_step(&scp.net, step.started);
            let issued = step.started.iter().any(|t| scp.is_sdsp[t.index()]);
            if !issued && state.marking.tokens(scp.run_place) > 0 {
                let ready = state.startable(&scp.net);
                assert!(
                    ready.iter().all(|t| !scp.is_sdsp[t.index()]),
                    "instant {} idled the pipe with ready instructions",
                    step.time
                );
            }
        }
    }

    #[test]
    fn scp_depth_one_rate_is_one_over_n() {
        // With l = 1 and no LCD, the pipe is the only constraint: each of
        // the 5 nodes issues once per 5 cycles... unless acknowledgement
        // round-trips dominate. For L1 at depth 1 the ack cycles allow
        // rate 1/2 > 1/5, so the pipe dominates: expect exactly 1/n.
        let scp = l1_scp(1);
        let f = detect_frustum(
            &scp.net,
            scp.marking.clone(),
            FifoPolicy::new(&scp),
            100_000,
        )
        .unwrap();
        let n = scp.num_sdsp_transitions() as u64;
        for t in scp.sdsp_transitions() {
            assert_eq!(f.rate_of(t), tpn_petri::Ratio::new(1, n), "transition {t}");
        }
    }

    #[test]
    fn priority_policy_also_reaches_a_frustum() {
        let scp = l1_scp(8);
        let f = detect_frustum(
            &scp.net,
            scp.marking.clone(),
            PriorityPolicy::new(&scp),
            100_000,
        )
        .unwrap();
        assert!(f.period() > 0);
        // Theorem 5.2.2: rate of every SDSP transition <= 1/n.
        let n = scp.num_sdsp_transitions() as u64;
        for t in scp.sdsp_transitions() {
            assert!(f.rate_of(t) <= tpn_petri::Ratio::new(1, n));
        }
    }

    #[test]
    fn fifo_and_priority_may_differ_but_agree_on_rate() {
        let scp = l1_scp(8);
        let ff = detect_frustum(
            &scp.net,
            scp.marking.clone(),
            FifoPolicy::new(&scp),
            100_000,
        )
        .unwrap();
        let fp = detect_frustum(
            &scp.net,
            scp.marking.clone(),
            PriorityPolicy::new(&scp),
            100_000,
        )
        .unwrap();
        for t in scp.sdsp_transitions() {
            assert_eq!(ff.rate_of(t), fp.rate_of(t), "transition {t}");
        }
    }

    #[test]
    fn queue_is_observable() {
        let scp = l1_scp(8);
        let policy = FifoPolicy::new(&scp);
        assert_eq!(policy.queue().count(), 0);
    }
}
