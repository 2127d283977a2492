//! Time-optimal static loop schedules (Figure 1(g) of the paper).
//!
//! Once the cyclic frustum is known, the static parallel schedule falls
//! out: the instants before the frustum are the **prologue** (pipeline
//! fill), and the frustum itself is the **kernel**, repeated forever with
//! period `p`. Within one kernel instance each loop node fires `k` times
//! (`k` is the same for every node, by marked-graph consistency), so the
//! loop sustains `k` iterations every `p` cycles — an initiation interval
//! of `p / k`, which Theorem 4.1.1 shows equals the critical-cycle bound:
//! the schedule is time-optimal.

use tpn_dataflow::to_petri::SdspPn;
use tpn_dataflow::{NodeId, Sdsp};
use tpn_petri::rational::Ratio;
use tpn_petri::TransitionId;

use crate::error::SchedError;
use crate::frustum::FrustumReport;
use crate::scp::ScpPn;

/// One kernel entry: node `node`'s `occurrence`-th firing within the
/// kernel, at cycle `slot` of the period, executing iteration
/// `i + offset` when the kernel instance is anchored at iteration `i`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KernelEntry {
    /// Cycle within the period, `0 .. period`.
    pub slot: u64,
    /// The loop node issued at this slot.
    pub node: NodeId,
    /// Which of the node's `k` kernel firings this is (0-based).
    pub occurrence: u64,
    /// Iteration offset relative to the kernel's most advanced firing
    /// (≤ 0, like the `i`, `i−1` annotations of Figure 1(g)).
    pub offset: i64,
}

/// A static software-pipelining schedule for a loop.
#[derive(Clone, Debug)]
pub struct LoopSchedule {
    period: u64,
    iterations_per_period: u64,
    kernel: Vec<KernelEntry>,
    /// `(cycle, node, iteration)` starts before the kernel anchors.
    prologue: Vec<(u64, NodeId, u64)>,
    /// For each node: all recorded start times (prologue + one kernel
    /// period), and the count recorded before the kernel window.
    recorded_starts: Vec<Vec<u64>>,
    node_times: Vec<u64>,
    node_names: Vec<String>,
}

impl LoopSchedule {
    /// Derives the schedule of `sdsp` from a frustum of its SDSP-PN.
    ///
    /// The loop body must be **weakly connected** (every statement tied to
    /// the others through data flow), the paper's implicit assumption for
    /// an SDSP: by marked-graph consistency all nodes then fire equally
    /// often per frustum. A body with independent components would let the
    /// cheap components race ahead of the slow ones under the earliest
    /// firing rule, and no single per-iteration kernel exists.
    ///
    /// # Errors
    ///
    /// * [`SchedError::NonUniformCounts`] if the frustum fires two loop
    ///   nodes unequally (the disconnected-body case above).
    /// * [`SchedError::NodeNeverFires`] if some node is absent from the
    ///   frustum.
    pub fn from_frustum(
        sdsp: &Sdsp,
        pn: &SdspPn,
        frustum: &FrustumReport,
    ) -> Result<Self, SchedError> {
        Self::build(sdsp, &pn.transition_of, frustum)
    }

    /// Derives the schedule from a frustum of the resource-constrained
    /// SDSP-SCP-PN (dummy transitions are ignored; only instruction issues
    /// appear in the schedule).
    ///
    /// # Errors
    ///
    /// Same conditions as [`LoopSchedule::from_frustum`].
    pub fn from_scp_frustum(
        sdsp: &Sdsp,
        scp: &ScpPn,
        frustum: &FrustumReport,
    ) -> Result<Self, SchedError> {
        Self::build(sdsp, &scp.transition_of, frustum)
    }

    fn build(
        sdsp: &Sdsp,
        transition_of: &[TransitionId],
        frustum: &FrustumReport,
    ) -> Result<Self, SchedError> {
        let period = frustum.period();
        // Uniform firing count over the loop nodes.
        let counts: Vec<u64> = transition_of
            .iter()
            .map(|&t| frustum.counts[t.index()])
            .collect();
        for (i, &c) in counts.iter().enumerate() {
            if c == 0 {
                return Err(SchedError::NodeNeverFires {
                    node: NodeId::from_index(i),
                });
            }
            if c != counts[0] {
                return Err(SchedError::NonUniformCounts {
                    nodes: (NodeId::from_index(0), NodeId::from_index(i)),
                    counts: (counts[0], c),
                });
            }
        }
        let iterations_per_period = counts.first().copied().unwrap_or(0);

        // Start times per node over the whole recorded trace.
        let mut recorded_starts: Vec<Vec<u64>> = vec![Vec::new(); sdsp.num_nodes()];
        // Transition index -> node index; `None` for SCP dummies.
        let mut node_of: Vec<Option<usize>> = vec![None; frustum.counts.len()];
        for (i, &t) in transition_of.iter().enumerate() {
            node_of[t.index()] = Some(i);
        }
        let mut prologue = Vec::new();
        let mut kernel = Vec::new();
        for step in frustum.steps() {
            for &t in step.started {
                let Some(node_idx) = node_of[t.index()] else {
                    continue; // SCP dummy transition
                };
                let iteration = recorded_starts[node_idx].len() as u64;
                recorded_starts[node_idx].push(step.time);
                if step.time <= frustum.start_time {
                    prologue.push((step.time, NodeId::from_index(node_idx), iteration));
                } else {
                    kernel.push(KernelEntry {
                        slot: step.time - frustum.start_time - 1,
                        node: NodeId::from_index(node_idx),
                        occurrence: 0,            // fixed up below
                        offset: iteration as i64, // temporarily absolute
                    });
                }
            }
        }
        fix_up_kernel(&mut kernel, sdsp.num_nodes());

        Ok(LoopSchedule {
            period,
            iterations_per_period,
            kernel,
            prologue,
            recorded_starts,
            node_times: sdsp.nodes().map(|(_, n)| n.time).collect(),
            node_names: sdsp.nodes().map(|(_, n)| n.name.clone()).collect(),
        })
    }

    /// Builds a schedule from explicit periodic per-node start times (the
    /// analytic engine's entry point, [`crate::analytic`]).
    ///
    /// `starts_per_node[n]` holds every start of node `n` strictly before
    /// `anchor + period`, in increasing order; the window
    /// `[anchor, anchor + period)` is the kernel (exactly
    /// `iterations_per_period` firings of every node, by the balanced-word
    /// construction) and everything earlier is the prologue.
    pub(crate) fn from_periodic_starts(
        sdsp: &Sdsp,
        period: u64,
        iterations_per_period: u64,
        anchor: u64,
        starts_per_node: Vec<Vec<u64>>,
    ) -> Self {
        // (time, node, iteration) over the whole recorded horizon, in the
        // same order the frustum path records: by time, then node.
        let mut firings: Vec<(u64, usize, u64)> = starts_per_node
            .iter()
            .enumerate()
            .flat_map(|(node, starts)| {
                starts
                    .iter()
                    .enumerate()
                    .map(move |(iter, &time)| (time, node, iter as u64))
            })
            .collect();
        firings.sort_unstable();
        let mut prologue = Vec::new();
        let mut kernel = Vec::new();
        for &(time, node, iteration) in &firings {
            if time < anchor {
                prologue.push((time, NodeId::from_index(node), iteration));
            } else {
                kernel.push(KernelEntry {
                    slot: time - anchor,
                    node: NodeId::from_index(node),
                    occurrence: 0,            // fixed up below
                    offset: iteration as i64, // temporarily absolute
                });
            }
        }
        fix_up_kernel(&mut kernel, sdsp.num_nodes());
        LoopSchedule {
            period,
            iterations_per_period,
            kernel,
            prologue,
            recorded_starts: starts_per_node,
            node_times: sdsp.nodes().map(|(_, n)| n.time).collect(),
            node_names: sdsp.nodes().map(|(_, n)| n.name.clone()).collect(),
        }
    }

    /// The kernel length in cycles (the frustum period).
    pub fn period(&self) -> u64 {
        self.period
    }

    /// Loop iterations completed per kernel instance (`k`).
    pub fn iterations_per_period(&self) -> u64 {
        self.iterations_per_period
    }

    /// The initiation interval `period / k` as an exact rational: average
    /// cycles between consecutive loop iterations.
    pub fn initiation_interval(&self) -> Ratio {
        Ratio::new(self.period, self.iterations_per_period)
    }

    /// The sustained computation rate `k / period` of every node.
    pub fn rate(&self) -> Ratio {
        self.initiation_interval().recip()
    }

    /// The kernel entries, in slot order.
    pub fn kernel(&self) -> &[KernelEntry] {
        &self.kernel
    }

    /// The prologue starts `(cycle, node, iteration)`, in time order.
    pub fn prologue(&self) -> &[(u64, NodeId, u64)] {
        &self.prologue
    }

    /// The cycle at which `node` starts its `iteration`-th execution
    /// (0-based), for any iteration: recorded times for the fill, then the
    /// periodic extension.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn start_time(&self, node: NodeId, iteration: u64) -> u64 {
        let starts = &self.recorded_starts[node.index()];
        let k = self.iterations_per_period;
        let idx = iteration as usize;
        if idx < starts.len() {
            return starts[idx];
        }
        // Extend periodically from the final kernel window.
        let base_idx = starts.len() - k as usize + ((iteration - starts.len() as u64) % k) as usize;
        let periods = 1 + (iteration - starts.len() as u64) / k;
        starts[base_idx] + periods * self.period
    }

    /// The execution time of `node` (for completion-time queries).
    pub fn node_time(&self, node: NodeId) -> u64 {
        self.node_times[node.index()]
    }

    /// Number of start times recorded from the trace for `node` (prologue
    /// plus one kernel window); iterations beyond this use the periodic
    /// extension.
    pub fn recorded_iterations(&self, node: NodeId) -> usize {
        self.recorded_starts[node.index()].len()
    }

    /// Number of loop nodes covered by the schedule.
    pub fn num_nodes(&self) -> usize {
        self.node_times.len()
    }

    /// Renders the kernel in the style of Figure 1(g): one line per
    /// non-empty slot, entries as `NAME(i+offset)`. Slots where only
    /// pipeline transit happens (SCP kernels) are elided.
    pub fn render_kernel(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "kernel of {} cycles, {} iteration(s) per instance:",
            self.period, self.iterations_per_period
        );
        for slot in 0..self.period {
            let entries: Vec<String> = self
                .kernel
                .iter()
                .filter(|e| e.slot == slot)
                .map(|e| {
                    let name = &self.node_names[e.node.index()];
                    match e.offset {
                        0 => format!("{name}(i)"),
                        o => format!("{name}(i{o})"),
                    }
                })
                .collect();
            if !entries.is_empty() {
                let _ = writeln!(out, "  cycle {slot}: {}", entries.join(" "));
            }
        }
        out
    }
}

/// Numbers each node's kernel entries in slot order (`occurrence`) and
/// makes the absolute iterations held in `offset` relative to the most
/// advanced iteration in the kernel.
fn fix_up_kernel(kernel: &mut [KernelEntry], num_nodes: usize) {
    let max_iter = kernel.iter().map(|e| e.offset).max().unwrap_or(0);
    let mut occurrences = vec![0u64; num_nodes];
    for e in kernel {
        let c = &mut occurrences[e.node.index()];
        e.occurrence = *c;
        *c += 1;
        e.offset -= max_iter;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frustum::{detect_frustum, detect_frustum_eager};
    use crate::policy::FifoPolicy;
    use crate::scp::build_scp;
    use std::collections::HashMap;
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

    use tpn_dataflow::Sdsp;

    #[test]
    fn l2_schedule_achieves_optimal_ii_of_three() {
        let sdsp = l2();
        let pn = to_petri(&sdsp);
        let f = detect_frustum_eager(&pn.net, pn.marking.clone(), 1_000).unwrap();
        let s = LoopSchedule::from_frustum(&sdsp, &pn, &f).unwrap();
        assert_eq!(s.initiation_interval(), Ratio::new(3, 1));
        assert_eq!(s.rate(), Ratio::new(1, 3));
        assert_eq!(
            s.kernel().len() as u64,
            s.iterations_per_period() * sdsp.num_nodes() as u64
        );
    }

    #[test]
    fn start_times_extend_periodically() {
        let sdsp = l2();
        let pn = to_petri(&sdsp);
        let f = detect_frustum_eager(&pn.net, pn.marking.clone(), 1_000).unwrap();
        let s = LoopSchedule::from_frustum(&sdsp, &pn, &f).unwrap();
        for node in sdsp.node_ids() {
            // In the steady region (at and beyond the final recorded kernel
            // window), consecutive iterations are exactly one period apart
            // per k iterations.
            let steady_from = s.recorded_iterations(node) as u64 - s.iterations_per_period();
            for iter in steady_from..steady_from + 40 {
                let t0 = s.start_time(node, iter);
                let t1 = s.start_time(node, iter + s.iterations_per_period());
                assert_eq!(
                    t1 - t0,
                    s.period(),
                    "node {node} iteration {iter}: periodicity broken"
                );
            }
        }
    }

    #[test]
    fn start_times_strictly_increase_per_node() {
        let sdsp = l2();
        let pn = to_petri(&sdsp);
        let f = detect_frustum_eager(&pn.net, pn.marking.clone(), 1_000).unwrap();
        let s = LoopSchedule::from_frustum(&sdsp, &pn, &f).unwrap();
        for node in sdsp.node_ids() {
            let times: Vec<u64> = (0..30).map(|i| s.start_time(node, i)).collect();
            assert!(times.windows(2).all(|w| w[0] < w[1]), "node {node}");
        }
    }

    #[test]
    fn kernel_offsets_are_nonpositive_and_slots_in_range() {
        let sdsp = l2();
        let pn = to_petri(&sdsp);
        let f = detect_frustum_eager(&pn.net, pn.marking.clone(), 1_000).unwrap();
        let s = LoopSchedule::from_frustum(&sdsp, &pn, &f).unwrap();
        assert!(s.kernel().iter().any(|e| e.offset == 0));
        for e in s.kernel() {
            assert!(e.offset <= 0);
            assert!(e.slot < s.period());
        }
    }

    #[test]
    fn render_kernel_mentions_every_node() {
        let sdsp = l2();
        let pn = to_petri(&sdsp);
        let f = detect_frustum_eager(&pn.net, pn.marking.clone(), 1_000).unwrap();
        let s = LoopSchedule::from_frustum(&sdsp, &pn, &f).unwrap();
        let text = s.render_kernel();
        for (_, node) in sdsp.nodes() {
            assert!(text.contains(&node.name), "missing {}", node.name);
        }
    }

    #[test]
    fn fractional_initiation_interval_yields_multi_iteration_kernel() {
        // A cycle with two feedback tokens and five transitions:
        //   w -> u (fb), u -> v1 -> v2 -> v3 (fwd), v3 -> w (fb)
        // has cycle time 5/2: the kernel must run 2 iterations per 5
        // cycles.
        let mut b = SdspBuilder::new();
        let u = b.node("u", OpKind::Id, [Operand::lit(0.0)]);
        let v1 = b.node("v1", OpKind::Id, [Operand::node(u)]);
        let v2 = b.node("v2", OpKind::Id, [Operand::node(v1)]);
        let v3 = b.node("v3", OpKind::Id, [Operand::node(v2)]);
        let w = b.node("w", OpKind::Id, [Operand::feedback(v3, 1)]);
        b.set_operand(u, 0, Operand::feedback(w, 1));
        let sdsp = b.finish().unwrap();
        assert_eq!(sdsp.num_nodes(), 5, "no liveness buffers expected");
        let pn = to_petri(&sdsp);
        let r = tpn_petri::ratio::critical_ratio(&pn.net, &pn.marking).unwrap();
        assert_eq!(r.cycle_time, Ratio::new(5, 2));

        let f = detect_frustum_eager(&pn.net, pn.marking.clone(), 10_000).unwrap();
        let s = LoopSchedule::from_frustum(&sdsp, &pn, &f).unwrap();
        assert_eq!(s.initiation_interval(), Ratio::new(5, 2));
        assert_eq!(s.iterations_per_period(), 2);
        assert_eq!(s.period(), 5);
        // Each node appears twice per kernel instance.
        assert_eq!(s.kernel().len(), 10);
        // Extended start times stay dependence-clean and periodic.
        crate::validate::check_schedule(&sdsp, &s, 100, None, 0).unwrap();
        for node in sdsp.node_ids() {
            let steady = s.recorded_iterations(node) as u64;
            for iter in steady..steady + 20 {
                assert_eq!(s.start_time(node, iter + 2) - s.start_time(node, iter), 5);
            }
        }
    }

    #[test]
    fn scp_schedule_issues_serially() {
        let sdsp = l2();
        let pn = to_petri(&sdsp);
        let scp = build_scp(&pn, 8);
        let f = detect_frustum(
            &scp.net,
            scp.marking.clone(),
            FifoPolicy::new(&scp),
            100_000,
        )
        .unwrap();
        let s = LoopSchedule::from_scp_frustum(&sdsp, &scp, &f).unwrap();
        // A single clean pipeline issues at most one instruction per cycle,
        // at every cycle of the (extended) schedule.
        let mut by_cycle: HashMap<u64, usize> = HashMap::new();
        for node in sdsp.node_ids() {
            for iter in 0..60 {
                *by_cycle.entry(s.start_time(node, iter)).or_default() += 1;
            }
        }
        for (&cycle, &count) in &by_cycle {
            assert!(count <= 1, "cycle {cycle} issues {count} instructions");
        }
    }
}
