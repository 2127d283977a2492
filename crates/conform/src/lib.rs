//! Conformance fuzzing for the timed Petri-net loop-scheduling pipeline.
//!
//! The paper's claims are exact — the optimal computation rate is
//! `γ = min M(C)/Ω(C)` over simple cycles, the earliest-firing schedule
//! attains it, and storage minimisation must not move it — and the
//! codebase implements each claim along several independent paths
//! (enumeration, policy iteration, simulation, trace replay, storage
//! rewriting).  This crate turns that redundancy into a test instrument:
//!
//! * [`gen`] — a seeded generator of live, safe SDSP loop bodies biased
//!   toward the hard regimes (multiple critical cycles, near-critical
//!   ties, long recurrence rings), and [`marked_gen`] — deterministic
//!   ring/chord composition of live marked graphs;
//! * [`oracle`] — the differential oracle stack cross-checking every
//!   path on every generated case, plus [`oracle::Mutation`] harnesses
//!   that prove the stack actually catches injected rate bugs;
//! * [`exec`] — the semantic execution oracle: emits VLIW programs from
//!   both scheduling engines, runs them on the verifying machine
//!   simulator, and demands bit-exact value agreement with the dataflow
//!   interpreter over seeded deterministic inputs, plus an exhaustive
//!   initiation-interval optimality cross-check on small nets;
//! * [`reference`](mod@reference) — a naive earliest-firing stepper and full-state-key
//!   frustum detector that shares no stepping code with the production
//!   engine, compared with it instant by instant, the storage greedy
//!   that re-solves the critical ratio for every candidate merge, the
//!   trace replay that rehashes every marking, and the `format!`-built
//!   trace renderers;
//! * [`reach`], [`invariants`] and [`coverability`] — behavioural
//!   re-derivations of the Petri-net properties the production crates
//!   establish structurally: explicit reachability (liveness, safety,
//!   persistence), S/T-invariants of the incidence matrix, and the
//!   Karp–Miller coverability tree;
//! * [`chaos`] — a deterministic fault-injection mode for the compile
//!   service, asserting byte-identity and cache coherence under
//!   cancellations, deadline expiries and worker panics.
//!
//! The `tpnc fuzz` subcommand is the command-line front door; failing
//! cases are dumped as replayable `.sdsp` A-code files.

pub mod chaos;
pub mod coverability;
pub mod exec;
pub mod gen;
pub mod invariants;
pub mod marked_gen;
pub mod oracle;
pub mod reach;
pub mod reference;

pub use chaos::{run_chaos, ChaosConfig, ChaosReport};
pub use exec::{build_env, check_exec, env_seed, ExecConfig, ExecReport};
pub use gen::{generate, Shape};
pub use oracle::{
    check_certificate, check_mutated, check_sdsp, CaseReport, Mutation, MutationOutcome,
    OracleConfig,
};
pub use reference::{
    agree, chrome_trace_json_reference, detect_frustum_reference, jsonl_reference,
    minimize_storage_reference, replay_trace_reference, storage_agree, ReferencePolicy,
    ReferenceRun,
};
