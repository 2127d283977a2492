//! Fine-grain loop scheduling from timed Petri-net behaviour.
//!
//! This crate implements the scheduling half of *"A Timed Petri-Net Model
//! for Fine-Grain Loop Scheduling"* (Gao, Wong & Ning, PLDI 1991):
//!
//! * [`frustum`] — executes an SDSP-PN (or SDSP-SCP-PN) under the earliest
//!   firing rule and detects the **cyclic frustum**: the segment of the
//!   behaviour graph between two occurrences of the same instantaneous
//!   state (Definition 3.3.1). Once the state repeats it repeats forever,
//!   so the frustum is the loop's steady-state schedule.
//! * [`behavior`] — the behaviour graph itself (Figure 1(e) / 3(c)):
//!   a per-instant record of newly marked places and fired transitions,
//!   with token-flow edges, renderable as text or Graphviz.
//! * [`steady`] — the **steady-state equivalent net** (Figure 1(f)):
//!   the frustum with its initial and terminal instantaneous states
//!   coalesced into a strongly connected marked net.
//! * [`analytic`] — the **analytic fast path**: for pure marked graphs,
//!   the periodic steady-state schedule constructed directly from the
//!   exact critical ratio (longest-path start offsets plus the
//!   balanced-binary-word issue pattern), no simulation; [`SchedulePolicy`]
//!   dispatches between the engines.
//! * [`exact`] — an **exhaustive optimality checker** for small nets
//!   (≤ 12 transitions): enumerates every candidate initiation interval
//!   from the simple cycles, decides each with an independent
//!   positive-cycle test, and certifies the minimum with witness
//!   offsets — the brute-force ground truth the conformance suite holds
//!   both engines against.
//! * [`schedule`] — the **time-optimal static schedule** read off the
//!   frustum or the analytic window (Figure 1(g)): a software-pipelining
//!   kernel with iteration offsets, with queries for the start time of
//!   any (node, iteration) pair, the pipeline-fill prologue included.
//! * [`scp`] / [`policy`] — the resource-constrained SDSP-SCP-PN model of
//!   §5.2: series expansion (a dummy transition of execution time `l − 1`
//!   per place) plus a run place shared by all SDSP transitions, executed
//!   under a deterministic FIFO choice policy (Assumption 5.2.1).
//! * [`rate`] — measured computation rates, the optimal rate bound from
//!   critical cycles, the SCP bound `γ ≤ 1/n` (Theorem 5.2.2), and
//!   pipeline utilisation.
//! * [`bounds`] — the paper's polynomial detection bounds (§4) and the
//!   empirical `BD` bounds of Tables 1 and 2.
//! * [`baseline`] — the classical comparison points: sequential issue,
//!   per-iteration list scheduling, and unroll-based scheduling.
//! * [`trace`] — the detection run as a first-class timeline: the full
//!   start/complete firing-event stream with the frustum window annotated
//!   as spans, exportable as Chrome trace-event JSON (Perfetto-loadable)
//!   and compact JSONL.
//! * [`validate`] — independent checks that a derived schedule respects
//!   every dependence, never overlaps a node with itself, respects the
//!   single-pipeline resource, and computes the same values as the
//!   dataflow interpreter — plus a trace-replay validator that
//!   reconstructs markings from the event stream alone and re-confirms
//!   safety, liveness, and the steady-state rate.
//!
//! # Example
//!
//! ```
//! use tpn_dataflow::{SdspBuilder, OpKind, Operand};
//! use tpn_dataflow::to_petri::to_petri;
//! use tpn_sched::frustum::detect_frustum_eager;
//! use tpn_sched::schedule::LoopSchedule;
//!
//! // X[i] = Z[i] * (Y[i] - X[i-1])   (Livermore loop 5)
//! let mut b = SdspBuilder::new();
//! let sub = b.node("t", OpKind::Sub, [Operand::env("Y", 0), Operand::lit(0.0)]);
//! let x = b.node("X", OpKind::Mul, [Operand::env("Z", 0), Operand::node(sub)]);
//! b.set_operand(sub, 1, Operand::feedback(x, 1));
//! let sdsp = b.finish()?;
//!
//! let pn = to_petri(&sdsp);
//! let frustum = detect_frustum_eager(&pn.net, pn.marking.clone(), 10_000)?;
//! let schedule = LoopSchedule::from_frustum(&sdsp, &pn, &frustum)?;
//! // The recurrence t -> X -> t limits the loop to one iteration every 2
//! // cycles.
//! assert_eq!(schedule.period(), 2);
//! assert_eq!(schedule.initiation_interval().to_string(), "2");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod analytic;
pub mod baseline;
pub mod behavior;
pub mod bounds;
pub mod error;
pub mod exact;
pub mod frustum;
pub mod modulo;
pub mod policy;
pub mod rate;
pub mod schedule;
pub mod scp;
pub mod steady;
pub mod trace;
pub mod validate;

pub use analytic::{analytic_schedule, AnalyticSchedule};
pub use error::SchedError;
pub use exact::{exact_optimum, exact_optimum_sdsp, ExactOptimum, EXACT_LIMIT};
pub use frustum::{detect_frustum, detect_frustum_eager, FrustumReport};
pub use policy::SchedulePolicy;
pub use schedule::LoopSchedule;
pub use scp::ScpPn;
pub use trace::FiringTrace;
