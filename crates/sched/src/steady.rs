//! Steady-state equivalent nets (Figure 1(f) of the paper).
//!
//! Instead of extending the behaviour graph indefinitely, the cyclic
//! frustum is extracted and its initial and terminal instantaneous states
//! are coalesced, yielding a strongly connected Petri net whose executions
//! reproduce the steady-state schedule. Each *firing instance* inside the
//! frustum becomes a transition; each token flow between instances becomes
//! a place, carrying one token per period boundary the token crosses (0
//! for same-period hand-offs; ≥ 1 for values handed to later kernel
//! instances — more than 1 arises in the FIFO-queued extension, where a
//! buffered value can wait several periods).
//!
//! A pleasant consequence, visible in the tests: even when the source net
//! has structural conflicts (the SCP run place), the steady-state
//! equivalent net is a **marked graph** — the frustum has already resolved
//! every choice, so the run place unrolls into a ring of issue slots.

use std::collections::VecDeque;

use tpn_petri::{Marking, PetriNet, TransitionId};

use crate::frustum::FrustumReport;

/// One firing instance of the frustum, now a transition of the steady net.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Instance {
    /// The transition of the original net.
    pub original: TransitionId,
    /// Which in-frustum occurrence of that transition this is (0-based).
    pub occurrence: u64,
    /// Start offset within the period, `0 .. period`.
    pub slot: u64,
}

/// The steady-state equivalent net.
#[derive(Clone, Debug)]
pub struct SteadyStateNet {
    /// The coalesced net.
    pub net: PetriNet,
    /// Tokens on the period-crossing places.
    pub marking: Marking,
    /// Metadata for each transition of `net`, in transition order.
    pub instances: Vec<Instance>,
    /// The frustum period the net reproduces.
    pub period: u64,
}

/// A token in a place's FIFO during replay.
#[derive(Clone, Copy, Debug)]
enum Entry {
    /// The `position`-th token (front first) present at the frustum
    /// boundary; its producer is a push of an earlier period, resolved by
    /// the steady-state position shift.
    Boundary {
        /// Queue position at the period boundary.
        position: usize,
    },
    /// Pushed within the window as push number `index`; `extra_period` is
    /// 1 when the producing firing was already in flight at the boundary
    /// (it belongs to the previous period).
    Pushed {
        /// Push order within the window.
        index: usize,
        /// Period offset of the producer relative to the push.
        extra_period: u32,
    },
}

/// Who performed a push (resolved after replay for wrapped completions).
#[derive(Clone, Copy, Debug)]
enum Pusher {
    /// An in-window instance.
    Inst(usize),
    /// The final in-window instance of this original transition (its
    /// previous-period image was in flight at the boundary).
    WrapLast(TransitionId),
}

/// Builds the steady-state equivalent net of a detected frustum.
///
/// # Panics
///
/// Panics if the trace is not in steady state over the window (never the
/// case for frustums detected by [`crate::frustum::detect_frustum`]).
///
/// # Example
///
/// ```
/// use tpn_dataflow::{SdspBuilder, OpKind, Operand};
/// use tpn_dataflow::to_petri::to_petri;
/// use tpn_sched::frustum::detect_frustum_eager;
/// use tpn_sched::steady::steady_state_net;
///
/// let mut b = SdspBuilder::new();
/// let a = b.node("A", OpKind::Neg, [Operand::env("X", 0)]);
/// let _b2 = b.node("B", OpKind::Neg, [Operand::node(a)]);
/// let pn = to_petri(&b.finish()?);
/// let f = detect_frustum_eager(&pn.net, pn.marking.clone(), 100)?;
/// let steady = steady_state_net(&pn.net, &f);
/// assert_eq!(steady.instances.len(), 2); // one instance of A, one of B
/// assert!(steady.net.is_marked_graph());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn steady_state_net(net: &PetriNet, frustum: &FrustumReport) -> SteadyStateNet {
    let start = frustum.start_time;
    let boundary_state = frustum.state_at(net, start);

    // FIFO of tokens per original place.
    let mut queues: Vec<VecDeque<Entry>> = net
        .place_ids()
        .map(|p| {
            (0..boundary_state.marking.tokens(p) as usize)
                .map(|position| Entry::Boundary { position })
                .collect()
        })
        .collect();
    // Boundary queue length per place (constant across periods).
    let boundary_len: Vec<usize> = net
        .place_ids()
        .map(|p| boundary_state.marking.tokens(p) as usize)
        .collect();
    // Pushes per place, in window order.
    let mut pushes: Vec<Vec<Pusher>> = vec![Vec::new(); net.num_places()];
    // Deferred consumptions of boundary tokens: (place, position, consumer).
    let mut boundary_pops: Vec<(usize, usize, usize)> = Vec::new();

    // Attribution of the next completion of each original transition.
    #[derive(Clone, Copy)]
    enum Attr {
        Idle,
        BoundaryBusy,
        Inst(usize),
    }
    let mut attr: Vec<Attr> = (0..net.num_transitions())
        .map(|i| {
            if boundary_state.residual[i] > 0 {
                Attr::BoundaryBusy
            } else {
                Attr::Idle
            }
        })
        .collect();

    let mut instances: Vec<Instance> = Vec::new();
    let mut occurrence_count = vec![0u64; net.num_transitions()];
    // Immediate edges: (pusher, consumer, extra tokens, original place).
    let mut edges: Vec<(Pusher, usize, u32, tpn_petri::PlaceId)> = Vec::new();

    for step in frustum.frustum_steps() {
        for &t in step.completed {
            let pusher = match attr[t.index()] {
                Attr::Inst(i) => (Pusher::Inst(i), 0u32),
                Attr::BoundaryBusy => (Pusher::WrapLast(t), 1u32),
                Attr::Idle => unreachable!("completion of a transition that never started"),
            };
            attr[t.index()] = Attr::Idle;
            for &p in net.transition(t).outputs() {
                let index = pushes[p.index()].len();
                pushes[p.index()].push(pusher.0);
                queues[p.index()].push_back(Entry::Pushed {
                    index,
                    extra_period: pusher.1,
                });
            }
        }
        for &t in step.started {
            let idx = instances.len();
            instances.push(Instance {
                original: t,
                occurrence: occurrence_count[t.index()],
                slot: step.time - start - 1,
            });
            occurrence_count[t.index()] += 1;
            attr[t.index()] = Attr::Inst(idx);
            for &p in net.transition(t).inputs() {
                match queues[p.index()].pop_front() {
                    Some(Entry::Boundary { position }) => {
                        boundary_pops.push((p.index(), position, idx));
                    }
                    Some(Entry::Pushed {
                        index,
                        extra_period,
                    }) => {
                        edges.push((pushes[p.index()][index], idx, extra_period, p));
                    }
                    None => unreachable!("earliest-firing trace consumed a missing token"),
                }
            }
        }
    }

    // Resolve boundary tokens by the steady-state position shift: with a
    // constant boundary queue length B and C pushes (= pops) per period, a
    // token at boundary position p was pushed r periods earlier as push
    // number i, where r = ceil((B - p) / C) and i = p - B + r*C.
    for (place_idx, position, consumer) in boundary_pops {
        let b = boundary_len[place_idx];
        let c = pushes[place_idx].len();
        assert!(
            c > 0,
            "boundary token consumed on a place that is never produced in the window"
        );
        let r = (b - position).div_ceil(c);
        let i = position + r * c - b;
        let pusher = pushes[place_idx][i];
        let extra = match pusher {
            Pusher::WrapLast(_) => 1,
            Pusher::Inst(_) => 0,
        };
        edges.push((
            pusher,
            consumer,
            r as u32 + extra,
            tpn_petri::PlaceId::from_index(place_idx),
        ));
    }

    // Resolve WrapLast pushers to each transition's final instance.
    let last_instance_of = |orig: TransitionId| -> usize {
        instances
            .iter()
            .rposition(|i| i.original == orig)
            .expect("every transition fires at least once in the frustum")
    };

    let mut steady = PetriNet::new();
    for inst in &instances {
        let name = format!(
            "{}#{}",
            net.transition(inst.original).name(),
            inst.occurrence
        );
        steady.add_transition(name, net.transition(inst.original).time());
    }
    let mut marking_pairs = Vec::new();
    for (pusher, consumer, tokens, p) in edges {
        let j = match pusher {
            Pusher::Inst(j) => j,
            Pusher::WrapLast(orig) => last_instance_of(orig),
        };
        let place = steady.add_place(format!("{}:{}->{}", net.place(p).name(), j, consumer));
        steady.connect_tp(TransitionId::from_index(j), place);
        steady.connect_pt(place, TransitionId::from_index(consumer));
        if tokens > 0 {
            marking_pairs.push((place, tokens));
        }
    }
    let marking = Marking::from_pairs(&steady, marking_pairs);
    SteadyStateNet {
        net: steady,
        marking,
        instances,
        period: frustum.period(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frustum::{detect_frustum, detect_frustum_eager};
    use crate::policy::FifoPolicy;
    use crate::scp::build_scp;
    use tpn_dataflow::to_petri::to_petri;
    use tpn_dataflow::{OpKind, Operand, Sdsp, SdspBuilder};
    use tpn_petri::marked::check_live;
    use tpn_petri::ratio::critical_ratio;
    use tpn_petri::Ratio;

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
    fn steady_net_of_l2_is_live_marked_graph_with_period_ratio() {
        let pn = to_petri(&l2());
        let f = detect_frustum_eager(&pn.net, pn.marking.clone(), 1_000).unwrap();
        let steady = steady_state_net(&pn.net, &f);
        assert!(steady.net.is_marked_graph());
        assert!(check_live(&steady.net, &steady.marking).is_ok());
        // Every node appears count times.
        let count = f.uniform_count().unwrap();
        assert_eq!(
            steady.instances.len() as u64,
            count * pn.net.num_transitions() as u64
        );
        // The steady net reproduces the period: its critical cycle time is
        // exactly the frustum period (each instance fires once per period).
        let r = critical_ratio(&steady.net, &steady.marking).unwrap();
        assert_eq!(r.cycle_time, Ratio::from_integer(f.period()));
    }

    #[test]
    fn slots_are_within_period_and_ordered_per_transition() {
        let pn = to_petri(&l2());
        let f = detect_frustum_eager(&pn.net, pn.marking.clone(), 1_000).unwrap();
        let steady = steady_state_net(&pn.net, &f);
        for inst in &steady.instances {
            assert!(inst.slot < f.period());
        }
        for t in pn.net.transition_ids() {
            let slots: Vec<u64> = steady
                .instances
                .iter()
                .filter(|i| i.original == t)
                .map(|i| i.slot)
                .collect();
            assert!(slots.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn steady_net_of_scp_resolves_conflicts_into_marked_graph() {
        let pn = to_petri(&l2());
        let scp = build_scp(&pn, 4);
        let f = detect_frustum(
            &scp.net,
            scp.marking.clone(),
            FifoPolicy::new(&scp),
            100_000,
        )
        .unwrap();
        let steady = steady_state_net(&scp.net, &f);
        // The run place unrolls into issue edges: the steady net is a
        // marked graph even though the SCP net is not.
        assert!(steady.net.is_marked_graph());
        assert!(check_live(&steady.net, &steady.marking).is_ok());
        let r = critical_ratio(&steady.net, &steady.marking).unwrap();
        assert_eq!(r.cycle_time, Ratio::from_integer(f.period()));
    }

    #[test]
    fn token_totals_match_boundary_marking() {
        let pn = to_petri(&l2());
        let f = detect_frustum_eager(&pn.net, pn.marking.clone(), 1_000).unwrap();
        let steady = steady_state_net(&pn.net, &f);
        // Wrapping tokens equal the boundary marking total plus in-flight
        // productions; at minimum the marking is nonempty for a live net.
        assert!(steady.marking.total() > 0);
        assert_eq!(steady.period, f.period());
    }

    #[test]
    fn multi_token_places_get_multi_period_wraps() {
        // A two-transition ring with TWO tokens on one place: producer u
        // can run two firings ahead, so a handed-over token waits up to
        // two periods. The steady net must carry multi-token places yet
        // still reproduce the period exactly.
        let mut net = PetriNet::new();
        let u = net.add_transition("u", 1);
        let v = net.add_transition("v", 3);
        let fwd = net.add_place("fwd");
        let back = net.add_place("back");
        net.connect_tp(u, fwd);
        net.connect_pt(fwd, v);
        net.connect_tp(v, back);
        net.connect_pt(back, u);
        let m = Marking::from_pairs(&net, [(back, 2)]);
        // Cycle: Ω = 4, M = 2 -> cycle time 2... bounded below by τ(v)=3.
        let f = detect_frustum_eager(&net, m.clone(), 10_000).unwrap();
        let steady = steady_state_net(&net, &f);
        assert!(steady.net.is_marked_graph());
        assert!(check_live(&steady.net, &steady.marking).is_ok());
        let r = critical_ratio(&steady.net, &steady.marking).unwrap();
        assert_eq!(
            r.cycle_time,
            Ratio::from_integer(f.period()),
            "steady net must reproduce the period for multi-token buffers"
        );
    }
}
