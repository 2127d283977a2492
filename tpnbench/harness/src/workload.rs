//! The three workloads: what each sends, to which server, and why.

use crate::corpus::{self, ColdStream, FleetStream, Loop, Req};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ColdFrustum,
    ColdAnalytic,
    FleetRestart,
}

/// Generated loop sizes of the cold-frustum corpus. Capped so the largest
/// request (SCP at depth 8 on chain/160) stays far below the run length.
const FRUSTUM_SIZES: [(&str, usize); 13] = [
    ("doall", 8),
    ("doall", 24),
    ("doall", 48),
    ("recurrence", 12),
    ("recurrence", 32),
    ("recurrence", 64),
    ("tied", 12),
    ("tied", 36),
    ("ring", 16),
    ("ring", 48),
    ("chain", 64),
    ("chain", 160),
    ("chain", 160),
];

/// Generated loop sizes of the cold-analytic corpus. Storage minimisation
/// is the costliest analytic layer (63 ms at 176 nodes), so sizes stop
/// below that.
const ANALYTIC_SIZES: [(&str, usize); 13] = [
    ("doall", 8),
    ("doall", 24),
    ("doall", 48),
    ("recurrence", 12),
    ("recurrence", 32),
    ("recurrence", 64),
    ("tied", 12),
    ("tied", 36),
    ("ring", 16),
    ("ring", 48),
    ("chain", 64),
    ("chain", 128),
    ("chain", 128),
];

/// The nine generated members of the fleet's 16-key hot pool (the seven
/// Livermore kernels are the rest).
const HOT_SIZES: [(&str, usize); 9] = [
    ("doall", 4),
    ("doall", 6),
    ("recurrence", 4),
    ("recurrence", 6),
    ("ring", 3),
    ("ring", 5),
    ("tied", 3),
    ("chain", 4),
    ("chain", 6),
];

/// Shapes of the fleet's first-seen writes and background artifacts:
/// small, so a write costs a compile plus a spill, not a long analysis.
const WRITE_SIZES: [(&str, usize); 6] = [
    ("doall", 3),
    ("doall", 5),
    ("recurrence", 3),
    ("ring", 4),
    ("tied", 3),
    ("chain", 4),
];

/// One fleet request in this many is a write (2%, so p99 lands among the
/// writes and p50 among the hits).
pub const WRITE_EVERY: u64 = 50;

/// Background artifacts spilled into the store before the run.
pub const BACKGROUND: u64 = 3_000;

pub enum Plan {
    Cold(ColdStream),
    Fleet(FleetStream),
}

impl Plan {
    /// Request `index` of the measured stream.
    pub fn request(&self, index: u64) -> Req {
        match self {
            Plan::Cold(stream) => stream.request(index, 1),
            Plan::Fleet(stream) => stream.request(index),
        }
    }

    pub fn is_cold(&self) -> bool {
        matches!(self, Plan::Cold(_))
    }

    /// The name of the loop a sample's pair points at.
    pub fn loop_name(&self, idx: usize) -> &str {
        match self {
            Plan::Cold(stream) => &stream.loops[idx].name,
            Plan::Fleet(stream) => &stream.hot[idx].name,
        }
    }

    pub fn verb_name(&self, idx: usize) -> &'static str {
        match self {
            Plan::Cold(stream) => stream.verbs[idx].0,
            Plan::Fleet(stream) => stream.verbs[idx],
        }
    }

    /// Every loop whose replies the oracle must know before timing.
    pub fn loops(&self) -> &[Loop] {
        match self {
            Plan::Cold(stream) => &stream.loops,
            Plan::Fleet(stream) => &stream.writes,
        }
    }
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ColdFrustum,
        Workload::ColdAnalytic,
        Workload::FleetRestart,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdFrustum => "cold-frustum",
            Workload::ColdAnalytic => "cold-analytic",
            Workload::FleetRestart => "fleet-restart",
        }
    }

    pub fn plan(self, seed: u64) -> Plan {
        match self {
            Workload::ColdFrustum => Plan::Cold(ColdStream::new(
                corpus::corpus(seed, &FRUSTUM_SIZES),
                vec![
                    ("schedule", None),
                    ("rate", None),
                    ("trace", None),
                    ("scp", Some(8)),
                ],
                Some("frustum"),
                seed,
            )),
            Workload::ColdAnalytic => Plan::Cold(ColdStream::new(
                corpus::corpus(seed, &ANALYTIC_SIZES),
                vec![
                    ("analyze", None),
                    ("schedule", None),
                    ("rate", None),
                    ("storage", None),
                    ("explain", None),
                ],
                None,
                seed,
            )),
            Workload::FleetRestart => {
                let hot = corpus::corpus(seed, &HOT_SIZES);
                let writes = corpus::corpus(seed.wrapping_add(1), &WRITE_SIZES)
                    .split_off(corpus::livermore().len());
                Plan::Fleet(FleetStream::new(
                    hot,
                    writes,
                    vec!["analyze", "schedule", "rate", "storage", "explain"],
                    WRITE_EVERY,
                    seed,
                ))
            }
        }
    }
}
