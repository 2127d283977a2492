//! Workspace-level umbrella for the PLDI 1991 timed Petri-net loop-scheduling
//! reproduction. The real functionality lives in the `tpn-*` crates; this
//! package exists to host the repository-level `examples/` and `tests/`.

pub use tpn;

// Compiles every Rust block of the README as a doctest, so the
// quickstart cannot drift from the API.
#[doc = include_str!("../README.md")]
#[cfg(doctest)]
pub struct ReadmeDoctests;
