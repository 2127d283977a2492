//! Deterministic marked-graph composition helpers.
//!
//! Property tests need to assemble many live, safe marked graphs from
//! simple structural pieces: rings, chains and chord places layered over
//! a backbone cycle.  The primitives here are fully
//! deterministic — randomness stays with the caller — and enforce the
//! structural token rule that makes liveness hold by construction: every
//! "backward" arc (one that closes a cycle against the construction order)
//! must carry at least one token.
//!
//! The helpers return `(PetriNet, Marking)` pairs; each logical arc `u → v`
//! becomes a dedicated place, so the result is a marked graph by
//! construction (`|•p| = |p•| = 1`).

use tpn_petri::{Marking, PetriError, PetriNet, PlaceId, TransitionId};

/// A chord arc layered over a [`compose`] backbone, identified by backbone
/// transition indices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Chord {
    /// Index of the source transition in the backbone order.
    pub from: usize,
    /// Index of the destination transition in the backbone order.
    pub to: usize,
    /// Initial tokens on the chord place.  Backward chords
    /// (`from >= to`) must carry at least one token.
    pub tokens: u32,
}

/// Incremental builder for marked graphs where every logical arc gets its
/// own place.  Thin sugar over [`PetriNet`] that tracks the marking.
#[derive(Default)]
pub struct MarkedGraphGen {
    net: PetriNet,
    tokens: Vec<(PlaceId, u32)>,
}

impl MarkedGraphGen {
    /// Creates an empty generator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a transition with execution time `time` (must be ≥ 1).
    pub fn transition(&mut self, name: impl Into<String>, time: u64) -> TransitionId {
        self.net.add_transition(name, time)
    }

    /// Adds an arc `from → to` realised as a fresh place carrying `tokens`.
    pub fn arc(&mut self, from: TransitionId, to: TransitionId, tokens: u32) -> PlaceId {
        let p = self.net.add_place(format!("p{}", self.tokens.len()));
        self.net.connect_tp(from, p);
        self.net.connect_pt(p, to);
        self.tokens.push((p, tokens));
        p
    }

    /// Finishes construction, returning the net and its initial marking.
    pub fn finish(self) -> (PetriNet, Marking) {
        let marking = Marking::from_pairs(&self.net, self.tokens.iter().copied());
        (self.net, marking)
    }
}

/// Builds a simple ring of `times.len()` transitions where arc `i → i+1
/// (mod n)` carries `tokens[i]` tokens.
///
/// Returns [`PetriError::NoCycle`] when `times` is empty,
/// [`PetriError::NotLive`] when no arc carries a token (the single cycle
/// would be token-free).
pub fn ring(times: &[u64], tokens: &[u32]) -> Result<(PetriNet, Marking), PetriError> {
    assert_eq!(
        times.len(),
        tokens.len(),
        "ring: times and tokens must have equal length"
    );
    if times.is_empty() {
        return Err(PetriError::NoCycle);
    }
    let mut g = MarkedGraphGen::new();
    let ts: Vec<TransitionId> = times
        .iter()
        .enumerate()
        .map(|(i, &t)| g.transition(format!("r{i}"), t))
        .collect();
    if tokens.iter().all(|&k| k == 0) {
        return Err(PetriError::NotLive { cycle: ts });
    }
    let n = ts.len();
    for i in 0..n {
        g.arc(ts[i], ts[(i + 1) % n], tokens[i]);
    }
    Ok(g.finish())
}

/// Composes a live marked graph from a backbone ring plus chord arcs.
///
/// The backbone visits transitions `0..n` in index order with arc `i → i+1`
/// carrying `backbone_tokens[i]` (index `n-1` is the wrap-around arc back to
/// transition 0).  Chords add extra arcs between backbone transitions.
///
/// Liveness is guaranteed structurally: every simple cycle must use at
/// least one backward arc (the wrap-around or a chord with `from >= to`),
/// so requiring one token on each backward arc puts a token on every cycle
/// (Theorem A.5.1).  The function rejects inputs violating that rule with
/// [`PetriError::NotLive`].
pub fn compose(
    times: &[u64],
    backbone_tokens: &[u32],
    chords: &[Chord],
) -> Result<(PetriNet, Marking), PetriError> {
    assert_eq!(
        times.len(),
        backbone_tokens.len(),
        "compose: times and backbone_tokens must have equal length"
    );
    let n = times.len();
    if n == 0 {
        return Err(PetriError::NoCycle);
    }
    let mut g = MarkedGraphGen::new();
    let ts: Vec<TransitionId> = times
        .iter()
        .enumerate()
        .map(|(i, &t)| g.transition(format!("n{i}"), t))
        .collect();
    if backbone_tokens[n - 1] == 0 {
        // The wrap-around arc closes the backbone cycle; without a token the
        // cycle 0 → 1 → … → n-1 → 0 is token-free.
        return Err(PetriError::NotLive { cycle: ts });
    }
    for i in 0..n {
        g.arc(ts[i], ts[(i + 1) % n], backbone_tokens[i]);
    }
    for c in chords {
        assert!(
            c.from < n && c.to < n,
            "compose: chord index out of range ({} -> {}, n = {n})",
            c.from,
            c.to,
        );
        if c.from >= c.to && c.tokens == 0 {
            return Err(PetriError::NotLive {
                cycle: ts[c.to..=c.from].to_vec(),
            });
        }
        g.arc(ts[c.from], ts[c.to], c.tokens);
    }
    Ok(g.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpn_petri::marked::{check_live, check_live_safe};
    use tpn_petri::ratio::critical_ratio;
    use tpn_petri::Ratio;

    #[test]
    fn ring_rate_matches_token_count() {
        // 4 unit-time transitions, one token: α* = 4/1.
        let (net, marking) = ring(&[1, 1, 1, 1], &[1, 0, 0, 0]).unwrap();
        check_live_safe(&net, &marking).unwrap();
        let r = critical_ratio(&net, &marking).unwrap();
        assert_eq!(r.cycle_time, Ratio::new(4, 1));
        // Two tokens halve the cycle time (no longer safe, still live).
        let (net, marking) = ring(&[1, 1, 1, 1], &[1, 0, 1, 0]).unwrap();
        check_live(&net, &marking).unwrap();
        let r = critical_ratio(&net, &marking).unwrap();
        assert_eq!(r.cycle_time, Ratio::new(2, 1));
    }

    #[test]
    fn ring_rejects_degenerate_inputs() {
        assert_eq!(ring(&[], &[]).unwrap_err(), PetriError::NoCycle);
        assert!(matches!(
            ring(&[1, 2], &[0, 0]).unwrap_err(),
            PetriError::NotLive { .. }
        ));
    }

    #[test]
    fn compose_is_live_by_construction() {
        // Backbone of 6 with a forward chord (no token needed) and a
        // backward chord (token required).
        let chords = [
            Chord {
                from: 1,
                to: 4,
                tokens: 0,
            },
            Chord {
                from: 5,
                to: 2,
                tokens: 1,
            },
        ];
        let (net, marking) = compose(&[1, 2, 1, 3, 1, 1], &[0, 0, 0, 0, 0, 1], &chords).unwrap();
        check_live(&net, &marking).unwrap();
        let r = critical_ratio(&net, &marking).unwrap();
        // Backbone cycle: Ω = 9, M = 1.  Chord cycle 2→3→4→5→2: Ω = 6,
        // M = 1.  Backbone dominates.
        assert_eq!(r.cycle_time, Ratio::new(9, 1));
    }

    #[test]
    fn compose_rejects_token_free_backward_arcs() {
        assert!(matches!(
            compose(&[1, 1, 1], &[1, 0, 0], &[]).unwrap_err(),
            PetriError::NotLive { .. }
        ));
        let bad = [Chord {
            from: 2,
            to: 1,
            tokens: 0,
        }];
        assert!(matches!(
            compose(&[1, 1, 1], &[0, 0, 1], &bad).unwrap_err(),
            PetriError::NotLive { .. }
        ));
    }
}
