//! Timed Petri nets, marked graphs, and critical-cycle analysis.
//!
//! This crate is the foundational substrate of the reproduction of
//! *"A Timed Petri-Net Model for Fine-Grain Loop Scheduling"*
//! (Gao, Wong & Ning, PLDI 1991). It implements the model of Appendix A of
//! the paper:
//!
//! * [`PetriNet`] — places, transitions, arcs, with deterministic integer
//!   execution times on transitions (a *timed* Petri net in the sense of
//!   Ramchandani).
//! * [`Marking`] — token assignments and the untimed firing rule
//!   (enabledness, firing).
//! * [`marked`] — the marked-graph subclass (`|•p| = |p•| = 1` for every
//!   place) together with the classical structure theorems used throughout
//!   the paper: liveness ⇔ every simple cycle carries a token, safety ⇔
//!   every place lies on a token-count-1 cycle, and token-count invariance.
//! * [`timed`] — instantaneous states (marking + residual firing-time
//!   vector) and a deterministic *earliest firing rule* execution engine
//!   with pluggable conflict-resolution policies (Assumption A.6.2 and
//!   Assumption 5.2.1 of the paper).
//! * [`cycles`] — enumeration of simple cycles (Johnson's algorithm on the
//!   transition multigraph).
//! * [`ratio`] — critical cycles: maximisation of Ω(C)/M(C) over simple
//!   cycles, both by enumeration and by Howard's policy iteration in
//!   exact arithmetic, yielding the optimal computation rate of §A.7.
//! * [`rational`] — a small exact rational type used for cycle times and
//!   computation rates.
//!
//! # Example
//!
//! Build the two-transition producer/consumer net (a forward place and an
//! acknowledgement place), compute its cycle time, and run it under the
//! earliest firing rule:
//!
//! ```
//! use tpn_petri::{PetriNet, Marking, timed::{Engine, EagerPolicy}};
//! use tpn_petri::ratio::critical_ratio;
//!
//! let mut net = PetriNet::new();
//! let a = net.add_transition("A", 1);
//! let b = net.add_transition("B", 1);
//! let data = net.add_place("data");
//! let ack = net.add_place("ack");
//! net.connect_tp(a, data);
//! net.connect_pt(data, b);
//! net.connect_tp(b, ack);
//! net.connect_pt(ack, a);
//!
//! let mut marking = Marking::empty(&net);
//! marking.set(ack, 1); // the buffer starts out empty
//!
//! // The only simple cycle is A -> data -> B -> ack -> A with 2 time units
//! // and 1 token, so the cycle time is 2 and the computation rate 1/2.
//! let ratio = critical_ratio(&net, &marking).expect("live net");
//! assert_eq!(ratio.cycle_time.to_string(), "2");
//!
//! let mut engine = Engine::new(&net, marking, EagerPolicy::default());
//! let step0 = engine.start();
//! assert_eq!(step0.started, vec![a]);
//! let step1 = engine.tick();
//! assert_eq!(step1.started, vec![b]);
//! ```

pub mod cycles;
pub mod dot;
pub mod error;
pub mod ids;
pub mod marked;
pub mod marking;
pub mod net;
pub mod ratio;
pub mod rational;
pub mod timed;
pub mod trace;

pub use error::PetriError;
pub use ids::{PlaceId, TransitionId};
pub use marking::Marking;
pub use net::{PetriNet, Place, Transition};
pub use rational::Ratio;
