//! Firing events: the unit of a firing trace.
//!
//! A run of the timed engine ([`crate::timed::Engine`]) narrates as a
//! stream of [`FiringEvent`]s — one per firing *start* and one per firing
//! *completion*. The engine itself records only per-instant
//! [`StepRecord`](crate::timed::StepRecord)s; `tpn-sched` derives the event
//! stream from them, stamping each event with a running
//! [`MarkingHash`](crate::timed::MarkingHash).
//!
//! Each event carries the digest of the **marking alone** (no residuals,
//! no policy state; see [`crate::timed::marking_digest`]). Unlike the full
//! repetition digest, the marking changes only *at* events, so a consumer
//! holding nothing but the event stream can replay token movements and
//! verify every digest — the basis of the trace-replay validator in
//! `tpn-sched`.

use crate::ids::TransitionId;

/// Whether a [`FiringEvent`] marks the start or the completion of a firing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// The transition consumed its input tokens and became busy.
    Start,
    /// The transition's residual reached zero and it deposited its outputs.
    Complete,
}

/// One firing event of an earliest-firing run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FiringEvent {
    /// The instant at which the event happened.
    pub time: u64,
    /// The transition that started or completed.
    pub transition: TransitionId,
    /// Start or completion.
    pub kind: EventKind,
    /// The residual firing time immediately after the event: `τ` for a
    /// start, `0` for a completion.
    pub residual: u64,
    /// Digest of the marking immediately after the event's token movement
    /// (see [`crate::timed::marking_digest`]).
    pub marking_digest: u64,
}
