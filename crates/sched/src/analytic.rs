//! Analytic steady-state schedules: periodic schedules straight from the
//! critical ratio, no simulation.
//!
//! The frustum engine ([`crate::frustum`]) finds the steady state by
//! *executing* the net until an instantaneous state repeats — O(n⁴)
//! instants in the worst case. For a pure marked graph (no SCP run place,
//! no structural conflict) the steady state is already determined by the
//! critical cycle time `α* = max Ω(C)/M(C)`, which
//! [`tpn_petri::ratio::critical_ratio`] computes exactly by policy
//! iteration. This module turns that rational directly into a periodic
//! schedule:
//!
//! 1. **Offsets.** With `α* = p/q` in lowest terms, every place
//!    `u → v` holding `m` tokens induces the constraint
//!    `σ_v ≥ σ_u + τ_u − m·α*` on fractional start offsets `σ`. Scaling
//!    by `q` makes the weights integral (`q·τ_u − m·p`); the least
//!    non-negative solution is the longest-path fixpoint from an implicit
//!    super-source (`d ≡ 0`), computed by
//!    [`MarkedArcs::scaled_potentials`]. Because `α*` is the
//!    *maximum* cycle ratio, no positive cycle exists and the relaxation
//!    converges; if it did not, the relaxation would report the positive
//!    cycle as a typed error rather than return broken offsets.
//! 2. **Balanced words.** The `j`-th firing of transition `t` is placed
//!    at `S_t(j) = ⌈(σ'_t + j·p) / q⌉`. Each transition's firing
//!    pattern over the `p`-cycle period is therefore the *mechanical*
//!    (balanced binary, Sturmian) word of slope `q/p` rotated by its
//!    offset — the Millo & de Simone construction — so exactly `q`
//!    firings cross any window of `p` cycles, matching the
//!    token-crossing counts [`crate::steady`] derives from a frustum.
//!
//! The schedule is exact: `S_t(j + q) = S_t(j) + p` for every `j ≥ 0`,
//! dependences are preserved (`⌈x + c⌉ = ⌈x⌉ + c` for integral `c`), and
//! non-reentrance follows from `α* ≥ max τ` (the implicit self-loop bound
//! already folded into `critical_ratio`). [`AnalyticSchedule::trace`]
//! synthesises the equivalent firing-event stream so the result can be
//! verified by [`crate::validate::replay_trace`] like any recorded run.

use tpn_dataflow::to_petri::SdspPn;
use tpn_dataflow::{NodeId, Sdsp};
use tpn_petri::marked::MarkedArcs;
use tpn_petri::ratio::ComponentRatio;
use tpn_petri::rational::Ratio;
use tpn_petri::timed::MarkingHash;
use tpn_petri::trace::{EventKind, FiringEvent};
use tpn_petri::TransitionId;

use crate::error::SchedError;
use crate::schedule::LoopSchedule;
use crate::trace::FiringTrace;

pub use crate::policy::SchedulePolicy;

/// A periodic steady-state schedule for every transition of a marked
/// graph, built analytically from the critical ratio.
///
/// Covers *all* transitions (loop nodes and liveness buffers alike);
/// [`AnalyticSchedule::loop_schedule`] projects it onto the loop nodes as
/// a [`LoopSchedule`], and [`AnalyticSchedule::trace`] expands it into a
/// replayable firing-event stream.
#[derive(Clone, Debug)]
pub struct AnalyticSchedule {
    /// Kernel length `p` in cycles.
    period: u64,
    /// Iterations per kernel `q` (`α* = p/q` in lowest terms).
    iterations: u64,
    /// Scaled start offsets `σ'_t` (units of `1/q` cycles), one per
    /// transition, all non-negative.
    offsets: Vec<i128>,
    /// First cycle of the steady-state window: `max_t S_t(0)`.
    anchor: u64,
}

impl AnalyticSchedule {
    /// Builds the analytic schedule of an SDSP-PN.
    ///
    /// # Errors
    ///
    /// * [`SchedError::EmptyLoop`] for a zero-node loop.
    /// * [`SchedError::Petri`] from the critical-ratio analysis (not a
    ///   marked graph, not live, zero execution times).
    /// * [`SchedError::NonUniformCounts`] if the body is disconnected with
    ///   components running at different rates — the same condition that
    ///   makes frustum-based schedule derivation fail, diagnosed here
    ///   without any simulation.
    pub fn for_sdsp_pn(pn: &SdspPn) -> Result<Self, SchedError> {
        if pn.transition_of.is_empty() {
            return Err(SchedError::EmptyLoop);
        }
        let net = &pn.net;
        let arcs = MarkedArcs::new(net, &pn.marking)?;
        let (cr, components) = arcs.critical_ratio_by_component()?;
        check_uniform_components(pn, cr.cycle_time, &components)?;
        // The least longest-path fixpoint from the implicit super-source.
        // α* being the maximum cycle ratio rules out a positive cycle; a
        // wrong α* would be reported here instead of yielding offsets
        // that break their constraints.
        let offsets = arcs.scaled_potentials(cr.cycle_time)?;

        let mut schedule = AnalyticSchedule {
            period: cr.cycle_time.numer(),
            iterations: cr.cycle_time.denom(),
            offsets,
            anchor: 0,
        };
        schedule.anchor = (0..net.num_transitions())
            .map(|t| schedule.start_time(TransitionId::from_index(t), 0))
            .max()
            .unwrap_or(0);
        Ok(schedule)
    }

    /// The kernel length `p` in cycles.
    pub fn period(&self) -> u64 {
        self.period
    }

    /// Loop iterations per kernel instance `q`.
    pub fn iterations_per_period(&self) -> u64 {
        self.iterations
    }

    /// The critical cycle time `α* = p/q`.
    pub fn cycle_time(&self) -> Ratio {
        Ratio::new(self.period, self.iterations)
    }

    /// The sustained computation rate `q/p` of every transition.
    pub fn rate(&self) -> Ratio {
        Ratio::new(self.iterations, self.period)
    }

    /// First cycle of the steady-state window (`max_t S_t(0)`): the
    /// analytic analogue of the frustum start.
    pub fn anchor(&self) -> u64 {
        self.anchor
    }

    /// The cycle at which transition `t` starts its `j`-th firing:
    /// `⌈(σ'_t + j·p) / q⌉` — the balanced-word placement.
    pub fn start_time(&self, t: TransitionId, j: u64) -> u64 {
        let q = self.iterations as i128;
        let v = self.offsets[t.index()] + (j as i128) * (self.period as i128);
        debug_assert!(v >= 0);
        ((v + q - 1) / q) as u64
    }

    /// The balanced (Sturmian) issue word of transition `t`: one bit per
    /// cycle of the steady-state window `[anchor, anchor + p)`, set on
    /// the cycles where `t` starts a firing. Since `α* = p/q ≥ 1`,
    /// consecutive starts never share a cycle, so every word carries
    /// exactly `q` ones — the balanced placement of the periodic-regime
    /// construction (Millo & de Simone).
    ///
    /// Costs `O(p + q)`: the firings before the window are skipped, not
    /// walked.
    pub fn issue_word(&self, t: TransitionId) -> Vec<bool> {
        let mut word = vec![false; self.period as usize];
        // S_t(j) ≤ anchor − 1 whenever σ'_t + j·p ≤ q·(anchor − 1), so
        // every firing before `first` precedes the window.
        let (p, q) = (self.period as i128, self.iterations as i128);
        let before = q * (self.anchor as i128 - 1) - self.offsets[t.index()];
        let first = if before > 0 { (before / p) as u64 } else { 0 };
        for j in first.. {
            let s = self.start_time(t, j);
            if s >= self.anchor + self.period {
                break;
            }
            if s >= self.anchor {
                word[(s - self.anchor) as usize] = true;
            }
        }
        word
    }

    /// Projects the schedule onto the loop nodes as a [`LoopSchedule`],
    /// through the constructor the frustum path uses: each node's starts
    /// below `anchor + p`, with the window `[anchor, anchor + p)` (exactly
    /// `q` firings of every node) as the kernel.
    pub fn loop_schedule(&self, sdsp: &Sdsp, pn: &SdspPn) -> LoopSchedule {
        let horizon = self.anchor + self.period;
        let starts: Vec<Vec<u64>> = pn
            .transition_of
            .iter()
            .map(|&t| {
                (0..)
                    .map(|j| self.start_time(t, j))
                    .take_while(|&s| s < horizon)
                    .collect()
            })
            .collect();
        LoopSchedule::from_starts(sdsp, self.period, self.iterations, self.anchor, starts)
    }

    /// Expands the schedule into a firing-event stream covering the fill
    /// plus `periods` kernel instances, replayable by
    /// [`crate::validate::replay_trace`]. Times are shifted by one cycle
    /// (engine instants start at 1); the frustum window annotation is
    /// `(anchor, anchor + p]` in shifted time.
    pub fn trace(&self, pn: &SdspPn, periods: u64) -> FiringTrace {
        let net = &pn.net;
        let n = net.num_transitions();
        let horizon = self.anchor + periods.max(1) * self.period;
        // (time, kind, transition) for every start < horizon and its
        // completion, both time-shifted by +1.
        let mut pending: Vec<(u64, EventKind, TransitionId)> = Vec::new();
        for idx in 0..n {
            let t = TransitionId::from_index(idx);
            let tau = net.transition(t).time();
            for j in 0.. {
                let s = self.start_time(t, j);
                if s >= horizon {
                    break;
                }
                pending.push((s + 1, EventKind::Start, t));
                if s + tau <= horizon {
                    pending.push((s + 1 + tau, EventKind::Complete, t));
                }
            }
        }
        // Engine mutation order: by time, completions before starts, then
        // transition id.
        pending.sort_by_key(|&(time, kind, t)| (time, kind == EventKind::Start, t.index()));
        let mut hash = MarkingHash::new(&pn.marking);
        let events = pending
            .into_iter()
            .map(|(time, kind, t)| {
                let (residual, marking_digest) = match kind {
                    EventKind::Start => (net.transition(t).time(), hash.consume(net, t)),
                    EventKind::Complete => (0, hash.produce(net, t)),
                };
                FiringEvent {
                    time,
                    transition: t,
                    kind,
                    residual,
                    marking_digest,
                }
            })
            .collect();
        FiringTrace::assemble(net, events, self.anchor, self.anchor + self.period)
    }
}

/// Rejects disconnected bodies whose components run at different rates:
/// exactly the inputs where frustum-based schedule derivation reports
/// [`SchedError::NonUniformCounts`], diagnosed without simulation.
fn check_uniform_components(
    pn: &SdspPn,
    cycle_time: Ratio,
    comps: &[ComponentRatio],
) -> Result<(), SchedError> {
    let Some(slow) = comps.iter().find(|c| c.cycle_time != cycle_time) else {
        return Ok(()); // one component, or equal rates: a uniform schedule exists
    };
    let fast = comps
        .iter()
        .find(|c| c.cycle_time == cycle_time)
        .expect("the global critical ratio is attained by some component");
    // Representative loop node of a component: the first loop node whose
    // transition belongs to it (every component contains a loop node —
    // buffer transitions only arise on edges between nodes).
    let node_in = |comp: &ComponentRatio| -> NodeId {
        pn.transition_of
            .iter()
            .position(|t| comp.transitions.binary_search(t).is_ok())
            .map(NodeId::from_index)
            .expect("every component contains a loop node")
    };
    // Firing counts over a common span of fast_p · slow_p cycles.
    let (fp, fq) = (fast.cycle_time.numer(), fast.cycle_time.denom());
    let (sp, sq) = (slow.cycle_time.numer(), slow.cycle_time.denom());
    Err(SchedError::NonUniformCounts {
        nodes: (node_in(fast), node_in(slow)),
        counts: (fq * sp, sq * fp),
    })
}

/// Convenience entry point: the analytic [`LoopSchedule`] of `sdsp`.
///
/// # Errors
///
/// Same conditions as [`AnalyticSchedule::for_sdsp_pn`].
pub fn analytic_schedule(sdsp: &Sdsp, pn: &SdspPn) -> Result<LoopSchedule, SchedError> {
    Ok(AnalyticSchedule::for_sdsp_pn(pn)?.loop_schedule(sdsp, pn))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frustum::detect_frustum_eager;
    use crate::rate::RateReport;
    use crate::validate::{check_schedule, replay_trace};
    use tpn_dataflow::to_petri::to_petri;
    use tpn_dataflow::{OpKind, Operand, SdspBuilder};

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

    fn fractional() -> Sdsp {
        // Cycle time 5/2: two tokens around a five-transition cycle.
        let mut b = SdspBuilder::new();
        let u = b.node("u", OpKind::Id, [Operand::lit(0.0)]);
        let v1 = b.node("v1", OpKind::Id, [Operand::node(u)]);
        let v2 = b.node("v2", OpKind::Id, [Operand::node(v1)]);
        let v3 = b.node("v3", OpKind::Id, [Operand::node(v2)]);
        let w = b.node("w", OpKind::Id, [Operand::feedback(v3, 1)]);
        b.set_operand(u, 0, Operand::feedback(w, 1));
        b.finish().unwrap()
    }

    #[test]
    fn policy_parses_and_resolves() {
        assert_eq!(SchedulePolicy::parse("auto"), Some(SchedulePolicy::Auto));
        assert_eq!(
            SchedulePolicy::parse("analytic"),
            Some(SchedulePolicy::Analytic)
        );
        assert_eq!(
            SchedulePolicy::parse("frustum"),
            Some(SchedulePolicy::Frustum)
        );
        assert_eq!(SchedulePolicy::parse("eager"), None);
        for p in [
            SchedulePolicy::Auto,
            SchedulePolicy::Analytic,
            SchedulePolicy::Frustum,
        ] {
            assert_eq!(SchedulePolicy::parse(p.as_str()), Some(p));
        }
        let pn = to_petri(&l2());
        assert_eq!(
            SchedulePolicy::Auto.resolve(&pn.net),
            SchedulePolicy::Analytic
        );
        assert_eq!(
            SchedulePolicy::Frustum.resolve(&pn.net),
            SchedulePolicy::Frustum
        );
        let scp = crate::scp::build_scp(&pn, 4);
        assert_eq!(
            SchedulePolicy::Auto.resolve(&scp.net),
            SchedulePolicy::Frustum
        );
    }

    #[test]
    fn analytic_matches_frustum_rate_on_l2() {
        let sdsp = l2();
        let pn = to_petri(&sdsp);
        let s = analytic_schedule(&sdsp, &pn).unwrap();
        assert_eq!(s.initiation_interval(), Ratio::new(3, 1));
        assert_eq!(s.rate(), Ratio::new(1, 3));
        let f = detect_frustum_eager(&pn.net, pn.marking.clone(), 1_000).unwrap();
        let report = RateReport::for_sdsp_pn(&pn, &f).unwrap();
        assert_eq!(s.rate(), report.measured);
        check_schedule(&sdsp, &s, 100, None, 0).unwrap();
    }

    #[test]
    fn issue_words_are_balanced() {
        // Fractional case: q = 2 ones in every p = 5-cycle word, spread
        // as evenly as a Sturmian word allows (gaps of 2 and 3 cycles).
        let pn = to_petri(&fractional());
        let a = AnalyticSchedule::for_sdsp_pn(&pn).unwrap();
        for idx in 0..pn.net.num_transitions() {
            let t = tpn_petri::TransitionId::from_index(idx);
            let word = a.issue_word(t);
            assert_eq!(word.len(), 5);
            assert_eq!(word.iter().filter(|&&b| b).count(), 2);
            // The word matches the start times directly.
            for (c, &fired) in word.iter().enumerate() {
                let cycle = a.anchor() + c as u64;
                let hits = (0..8).any(|j| a.start_time(t, j) == cycle);
                assert_eq!(fired, hits, "transition {idx}, cycle {cycle}");
            }
        }
        // A 40-node chain in front of the 5/2 ring puts the window far
        // past the first firings; the word still matches a scan from
        // iteration zero.
        let mut b = SdspBuilder::new();
        let mut prev = b.node("c0", OpKind::Id, [Operand::env("X", 0)]);
        for i in 1..40 {
            prev = b.node(format!("c{i}"), OpKind::Id, [Operand::node(prev)]);
        }
        let u = b.node("u", OpKind::Add, [Operand::node(prev), Operand::lit(0.0)]);
        let v1 = b.node("v1", OpKind::Id, [Operand::node(u)]);
        let v2 = b.node("v2", OpKind::Id, [Operand::node(v1)]);
        let v3 = b.node("v3", OpKind::Id, [Operand::node(v2)]);
        let w = b.node("w", OpKind::Id, [Operand::feedback(v3, 1)]);
        b.set_operand(u, 1, Operand::feedback(w, 1));
        let sdsp = b.finish().unwrap();
        let pn = to_petri(&sdsp);
        let a = AnalyticSchedule::for_sdsp_pn(&pn).unwrap();
        assert!(a.anchor() > a.period(), "the window should start late");
        assert!(a.iterations_per_period() > 1, "a fractional rate");
        for t in pn.net.transition_ids() {
            let mut scanned = vec![false; a.period() as usize];
            for j in 0.. {
                let s = a.start_time(t, j);
                if s >= a.anchor() + a.period() {
                    break;
                }
                if s >= a.anchor() {
                    scanned[(s - a.anchor()) as usize] = true;
                }
            }
            assert_eq!(a.issue_word(t), scanned, "transition {t}");
        }
        // Integer case: exactly one start per word.
        let pn = to_petri(&l2());
        let a = AnalyticSchedule::for_sdsp_pn(&pn).unwrap();
        for idx in 0..pn.net.num_transitions() {
            let word = a.issue_word(tpn_petri::TransitionId::from_index(idx));
            assert_eq!(word.len(), 3);
            assert_eq!(word.iter().filter(|&&b| b).count(), 1);
        }
    }

    #[test]
    fn fractional_ratio_builds_multi_iteration_kernel() {
        let sdsp = fractional();
        let pn = to_petri(&sdsp);
        let a = AnalyticSchedule::for_sdsp_pn(&pn).unwrap();
        assert_eq!(a.cycle_time(), Ratio::new(5, 2));
        assert_eq!(a.period(), 5);
        assert_eq!(a.iterations_per_period(), 2);
        let s = a.loop_schedule(&sdsp, &pn);
        assert_eq!(s.iterations_per_period(), 2);
        assert_eq!(s.kernel().len(), 10);
        check_schedule(&sdsp, &s, 200, None, 0).unwrap();
        // Exact periodicity from iteration zero.
        for node in sdsp.node_ids() {
            for j in 0..40 {
                assert_eq!(s.start_time(node, j + 2), s.start_time(node, j) + 5);
            }
        }
    }

    #[test]
    fn balanced_word_firing_counts_cross_every_window() {
        // In every window of p consecutive cycles at or past the anchor,
        // each transition fires exactly q times (the balanced property).
        let sdsp = fractional();
        let pn = to_petri(&sdsp);
        let a = AnalyticSchedule::for_sdsp_pn(&pn).unwrap();
        let (p, q) = (a.period(), a.iterations_per_period());
        for t in pn.net.transition_ids() {
            let starts: Vec<u64> = (0..10 * q).map(|j| a.start_time(t, j)).collect();
            for w0 in a.anchor()..a.anchor() + 3 * p {
                let crossing = starts.iter().filter(|&&s| s >= w0 && s < w0 + p).count() as u64;
                assert_eq!(crossing, q, "window [{w0}, {}) of {t}", w0 + p);
            }
        }
    }

    #[test]
    fn synthesized_trace_replays_cleanly() {
        for sdsp in [l2(), fractional()] {
            let pn = to_petri(&sdsp);
            let a = AnalyticSchedule::for_sdsp_pn(&pn).unwrap();
            let trace = a.trace(&pn, 3);
            let v = replay_trace(&pn.net, &pn.marking, &trace).unwrap();
            assert_eq!(v.period, a.period());
            v.confirm_rate(pn.transition_of.iter().copied(), a.rate())
                .unwrap();
        }
    }

    #[test]
    fn offsets_below_the_critical_ratio_report_the_positive_cycle() {
        // L2's C -> D -> E recurrence pins α* = 3; at 5/2 its scaled
        // weight q·Ω − p·M = 2·3 − 5 is positive, so no offsets exist.
        let pn = to_petri(&l2());
        let a = AnalyticSchedule::for_sdsp_pn(&pn).unwrap();
        let arcs = MarkedArcs::new(&pn.net, &pn.marking).unwrap();
        assert_eq!(arcs.scaled_potentials(a.cycle_time()).unwrap(), a.offsets);
        let lowered = Ratio::new(5, 2);
        match arcs.scaled_potentials(lowered) {
            Err(tpn_petri::PetriError::PositiveCycle { cycle_time, .. }) => {
                assert_eq!(cycle_time, lowered)
            }
            other => panic!("expected a positive cycle, got {other:?}"),
        }
    }

    #[test]
    fn empty_loop_is_a_typed_error() {
        let sdsp = SdspBuilder::new().finish().unwrap();
        let pn = to_petri(&sdsp);
        assert!(matches!(
            analytic_schedule(&sdsp, &pn),
            Err(SchedError::EmptyLoop)
        ));
    }

    #[test]
    fn disconnected_components_with_unequal_rates_are_rejected() {
        // Two independent recurrences with different latencies: the body
        // has no uniform rate, exactly like the frustum path's
        // NonUniformCounts failure.
        let mut b = SdspBuilder::new();
        let a = b.node("A", OpKind::Add, [Operand::lit(0.0), Operand::lit(1.0)]);
        b.set_operand(a, 0, Operand::feedback(a, 1));
        let c = b.node("C", OpKind::Add, [Operand::lit(0.0), Operand::lit(1.0)]);
        b.set_time(c, 3);
        b.set_operand(c, 0, Operand::feedback(c, 1));
        let sdsp = b.finish().unwrap();
        let pn = to_petri(&sdsp);
        match analytic_schedule(&sdsp, &pn) {
            Err(SchedError::NonUniformCounts { counts, .. }) => {
                assert_ne!(counts.0, counts.1);
            }
            other => panic!("expected NonUniformCounts, got {other:?}"),
        }
    }

    #[test]
    fn disconnected_components_with_equal_rates_schedule_uniformly() {
        let mut b = SdspBuilder::new();
        let a = b.node("A", OpKind::Add, [Operand::lit(0.0), Operand::lit(1.0)]);
        b.set_operand(a, 0, Operand::feedback(a, 1));
        let c = b.node("C", OpKind::Add, [Operand::lit(0.0), Operand::lit(1.0)]);
        b.set_operand(c, 0, Operand::feedback(c, 1));
        let sdsp = b.finish().unwrap();
        let pn = to_petri(&sdsp);
        let s = analytic_schedule(&sdsp, &pn).unwrap();
        check_schedule(&sdsp, &s, 50, None, 0).unwrap();
    }
}
