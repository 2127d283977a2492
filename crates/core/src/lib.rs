//! End-to-end pipeline for timed Petri-net fine-grain loop scheduling.
//!
//! A reproduction of *"A Timed Petri-Net Model for Fine-Grain Loop
//! Scheduling"* (Gao, Wong & Ning, PLDI 1991). This crate is the façade:
//! it wires the front-end ([`tpn_lang`]), the dataflow representation
//! ([`tpn_dataflow`]), the Petri-net substrate ([`tpn_petri`]), the
//! scheduler ([`tpn_sched`]) and the storage optimiser ([`tpn_storage`])
//! into one pipeline:
//!
//! ```text
//! loop source ──parse/lower──▶ SDSP ──to_petri──▶ SDSP-PN
//!      ──earliest firing──▶ cyclic frustum ──▶ time-optimal schedule
//! ```
//!
//! The façade is a **staged, memoizing pipeline**: a [`CompiledLoop`]
//! parses and lowers its loop exactly once, and every derived product —
//! the critical-cycle [`Analysis`], the cyclic frustum, the schedule, SCP
//! runs per pipeline depth, storage rewrites — is computed on first use
//! and shared (via [`std::sync::Arc`]) by all later calls, so e.g.
//! [`schedule()`](CompiledLoop::schedule) after
//! [`rate_report()`](CompiledLoop::rate_report) does not re-run frustum
//! detection. Compilation is tuned with [`CompileOptions`]; many loops
//! run concurrently on the [`batch::parallel_map`] worker pool.
//!
//! # Quickstart
//!
//! ```
//! use tpn::CompiledLoop;
//!
//! // Livermore loop 5: a first-order recurrence.
//! let lp = CompiledLoop::from_source(
//!     "do i from 2 to n { X[i] := Z[i] * (Y[i] - X[i-1]); }",
//! )?;
//!
//! // The recurrence bounds the loop at one iteration every 2 cycles, and
//! // the earliest-firing schedule attains exactly that.
//! let analysis = lp.analyze()?;
//! assert_eq!(analysis.optimal_rate.to_string(), "1/2");
//!
//! let schedule = lp.schedule()?;
//! assert_eq!(schedule.initiation_interval().to_string(), "2");
//!
//! // On a machine with a single clean 8-stage pipeline:
//! let scp = lp.scp(8)?;
//! assert!(scp.rates.respects_resource_bound());
//! # Ok::<(), tpn::Error>(())
//! ```

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

pub use tpn_codegen as codegen;
pub use tpn_dataflow as dataflow;
pub use tpn_lang as lang;
pub use tpn_petri as petri;
pub use tpn_sched as sched;
pub use tpn_storage as storage;

pub mod batch;
pub mod metrics;

use tpn_dataflow::to_petri::{to_petri, SdspPn};
use tpn_dataflow::{DataflowError, Sdsp};
use tpn_lang::LangError;
use tpn_petri::ratio::{critical_ratio, explain_rate, CriticalWitness, RateCertificate};
use tpn_petri::rational::Ratio;
use tpn_petri::{Marking, PetriError, PetriNet};
use tpn_sched::analytic::AnalyticSchedule;
use tpn_sched::frustum::{detect_frustum, detect_frustum_eager, FrustumReport};
pub use tpn_sched::policy::SchedulePolicy;
use tpn_sched::policy::{FifoPolicy, PriorityPolicy};
use tpn_sched::rate::{RateReport, ScpRateReport};
use tpn_sched::schedule::LoopSchedule;
use tpn_sched::scp::{build_scp, ScpPn};
use tpn_sched::trace::FiringTrace;
use tpn_sched::validate::{replay_trace, TraceValidation};
use tpn_sched::SchedError;
use tpn_storage::{minimize_storage, BalanceReport, StorageError, StorageReport};

/// Unified error type of the pipeline.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// Front-end (parse / semantic) failure.
    Lang(LangError),
    /// SDSP construction or interpretation failure.
    Dataflow(DataflowError),
    /// Petri-net analysis failure.
    Petri(PetriError),
    /// Frustum detection or schedule derivation failure.
    Sched(SchedError),
    /// Storage optimisation failure.
    Storage(StorageError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Lang(e) => write!(f, "{e}"),
            Error::Dataflow(e) => write!(f, "{e}"),
            Error::Petri(e) => write!(f, "{e}"),
            Error::Sched(e) => write!(f, "{e}"),
            Error::Storage(e) => write!(f, "{e}"),
        }
    }
}

macro_rules! impl_from_error {
    ($($variant:ident($ty:ty)),* $(,)?) => {
        $(impl From<$ty> for Error {
            fn from(e: $ty) -> Self {
                Error::$variant(e)
            }
        })*
    };
}

impl_from_error!(
    Lang(LangError),
    Dataflow(DataflowError),
    Petri(PetriError),
    Sched(SchedError),
    Storage(StorageError),
);

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Lang(e) => Some(e),
            Error::Dataflow(e) => Some(e),
            Error::Petri(e) => Some(e),
            Error::Sched(e) => Some(e),
            Error::Storage(e) => Some(e),
        }
    }
}

/// The issue policy for SCP (resource-constrained) execution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum IssuePolicy {
    /// First-come-first-served issue (Assumption 5.2.1's FIFO machine).
    #[default]
    Fifo,
    /// Static-priority issue (lowest node index first).
    Priority,
}

/// The most instants one frustum detection may simulate, whatever the
/// step budget, pipeline depth or node times ask for; a run that reaches
/// it fails with [`SchedError::FrustumNotFound`]. It bounds instants, not
/// work: one instant can start O(n) transitions, and a detection records
/// every firing, so a request's time and memory still grow with the
/// firings it simulates (about n²/4 on an n-node chain).
pub const MAX_STEP_BUDGET: u64 = 1 << 20;

/// The most characters [`Explanation::issue_words`] may hold. The words
/// carry one character per loop node per cycle of the period, `T·p` in
/// all, which is quadratic in the loop: a whole-body recurrence of `n`
/// nodes has `p = n`. `tpnc serve` takes request lines of up to 1 MiB
/// (`MAX_LINE` in `tpn-service`), enough source for a ring of about
/// 40 000 nodes, whose words would take 1.6·10⁹ bytes. At 16 MiB the words
/// of one explanation cost at most sixteen maximal request lines; past
/// that, `issue_words` is `None` and `validated` covers the certificate
/// alone. The words are a rendering of the analytic offsets, which
/// `schedule` serves at any size.
pub const ISSUE_WORDS_BUDGET: u64 = 16 << 20;

/// Tunable compilation parameters, built fluent-style:
///
/// ```
/// use tpn::{CompileOptions, IssuePolicy};
///
/// let options = CompileOptions::new()
///     .node_time(2)
///     .step_budget(500_000)
///     .issue_policy(IssuePolicy::Priority);
/// # let _ = options;
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CompileOptions {
    node_time: Option<u64>,
    step_budget: Option<u64>,
    issue_policy: IssuePolicy,
    profile: bool,
    engine: SchedulePolicy,
}

impl CompileOptions {
    /// Defaults: unit node times, automatic budget, FIFO issue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets every loop node's execution time to `cycles` (the paper's
    /// model permits arbitrary integer times; the front-end assigns 1).
    ///
    /// # Panics
    ///
    /// Panics if `cycles == 0` (Assumption A.6.1 requires positive times).
    #[must_use]
    pub fn node_time(mut self, cycles: u64) -> Self {
        assert!(cycles > 0, "node execution times must be positive");
        self.node_time = Some(cycles);
        self
    }

    /// Caps frustum detection at `instants` simulated instants instead of
    /// the size-derived default ([`MAX_STEP_BUDGET`] caps both).
    #[must_use]
    pub fn step_budget(mut self, instants: u64) -> Self {
        self.step_budget = Some(instants);
        self
    }

    /// Selects the SCP issue policy (default FIFO).
    #[must_use]
    pub fn issue_policy(mut self, policy: IssuePolicy) -> Self {
        self.issue_policy = policy;
        self
    }

    /// Enables stage-span profiling (default off). When set, the compiled
    /// loop carries a [`metrics::Profiler`] that records the wall-clock
    /// time of every pipeline stage as it is first computed; collect the
    /// result with [`CompiledLoop::metrics_report`]. When unset no clocks
    /// are read and no profiler is allocated.
    #[must_use]
    pub fn profile(mut self, enabled: bool) -> Self {
        self.profile = enabled;
        self
    }

    /// Selects the steady-state scheduling engine (default
    /// [`SchedulePolicy::Auto`]: analytic construction from the critical
    /// ratio on pure marked graphs, frustum simulation otherwise). The
    /// choice affects [`CompiledLoop::schedule`] and
    /// [`CompiledLoop::rate_report`]; frustum-specific artifacts
    /// ([`CompiledLoop::frustum`], traces, SCP runs) always simulate.
    #[must_use]
    pub fn engine(mut self, engine: SchedulePolicy) -> Self {
        self.engine = engine;
        self
    }

    /// The configured uniform node time, if any.
    ///
    /// Getters mirror the fluent setters with a `get_` prefix (the std
    /// convention when the bare name is taken by a setter); every
    /// configuration field follows this one scheme.
    pub fn get_node_time(&self) -> Option<u64> {
        self.node_time
    }

    /// The configured step budget, if any.
    pub fn get_step_budget(&self) -> Option<u64> {
        self.step_budget
    }

    /// The configured SCP issue policy.
    pub fn get_issue_policy(&self) -> IssuePolicy {
        self.issue_policy
    }

    /// Whether stage-span profiling is enabled.
    pub fn get_profile(&self) -> bool {
        self.profile
    }

    /// The configured scheduling engine.
    pub fn get_engine(&self) -> SchedulePolicy {
        self.engine
    }

    /// A stable 64-bit fingerprint of every configuration field, for use
    /// in content-addressed cache keys: two option sets fingerprint
    /// equally iff they compile loops identically. FNV-1a over a canonical
    /// field encoding, stable across processes and platforms.
    pub fn fingerprint(&self) -> u64 {
        fn eat(h: u64, byte: u8) -> u64 {
            (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        }
        // Tag each optional field with a presence byte so `None` and
        // `Some(0)` hash apart.
        fn eat_opt(mut h: u64, v: Option<u64>) -> u64 {
            match v {
                None => eat(h, 0),
                Some(v) => {
                    h = eat(h, 1);
                    v.to_le_bytes().into_iter().fold(h, eat)
                }
            }
        }
        let mut h = 0xcbf2_9ce4_8422_2325;
        h = eat_opt(h, self.node_time);
        h = eat_opt(h, self.step_budget);
        h = eat(
            h,
            match self.issue_policy {
                IssuePolicy::Fifo => 0,
                IssuePolicy::Priority => 1,
            },
        );
        h = eat(h, u8::from(self.profile));
        // The bytes of two removed fields (a `false` flag and an absent
        // capacity). The cache key names the artifact store's objects and
        // picks the router's shard, so every option set keeps the key it
        // had while those fields existed.
        h = eat(h, 0);
        h = eat_opt(h, None);
        h = eat(
            h,
            match self.engine {
                SchedulePolicy::Auto => 0,
                SchedulePolicy::Analytic => 1,
                SchedulePolicy::Frustum => 2,
            },
        );
        h
    }
}

/// Critical-cycle analysis of a compiled loop.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Analysis {
    /// The critical cycle time `α* = max Ω(C)/M(C)`.
    pub cycle_time: Ratio,
    /// The optimal computation rate `1/α*`.
    pub optimal_rate: Ratio,
    /// Names of the loop nodes on a critical cycle (empty if the bound
    /// comes from a single slow node's non-reentrance).
    pub critical_nodes: Vec<String>,
}

/// One transition of an [`Explanation`]'s rate certificate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CertifiedTransition {
    /// The loop node (or liveness buffer) name.
    pub name: String,
    /// Its execution time `τ`.
    pub time: u64,
    /// Its scaled potential `σ′`.
    pub potential: i128,
}

/// One place `u → v` of an [`Explanation`]'s rate certificate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CertifiedPlace {
    /// The producer `u`, as an index into [`Certificate::transitions`].
    pub from: usize,
    /// The consumer `v`, as an index into [`Certificate::transitions`].
    pub to: usize,
    /// The tokens `m` the place holds initially.
    pub tokens: u32,
    /// `σ′_v − σ′_u − (q·τ_u − p·m)`: never negative, zero on every
    /// critical cycle.
    pub slack: i128,
}

/// The rate certificate of an [`Explanation`], complete enough to re-check
/// without the net: every place `u → v` must satisfy
/// `σ′_v − σ′_u ≥ q·τ_u − p·m`, every transition `q·τ ≤ p`, and the
/// witness must attain `p/q`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Certificate {
    /// `p` of `α* = p/q`.
    pub p: u64,
    /// `q` of `α* = p/q`.
    pub q: u64,
    /// Every transition, in net order.
    pub transitions: Vec<CertifiedTransition>,
    /// Every place, by ascending slack, then in net order; empty when the
    /// slacks do not compute (the check has then failed).
    pub places: Vec<CertifiedPlace>,
    /// Positions in [`places`](Self::places) of the witness cycle's
    /// places, in walk order (empty for a self-loop witness).
    pub witness_places: Vec<usize>,
}

/// Why [`CompiledLoop::engine`] resolved the way it did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EngineAudit {
    /// The engine the options asked for.
    pub configured: SchedulePolicy,
    /// The engine actually used after `Auto` resolution.
    pub resolved: SchedulePolicy,
    /// Whether the compiled net is a pure marked graph — the structural
    /// test `Auto` resolution is based on.
    pub marked_graph: bool,
    /// A one-line human-readable decision reason.
    pub reason: String,
}

/// The balanced (Sturmian) issue words of the analytic steady state: for
/// each loop node, one `'1'`/`'0'` character per cycle of the kernel
/// window, `'1'` where the node starts a firing. Every word carries
/// exactly `iterations` ones.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IssueWords {
    /// Kernel length `p` in cycles.
    pub period: u64,
    /// Iterations per kernel `q` (`α* = p/q`).
    pub iterations: u64,
    /// First cycle of the steady-state window.
    pub anchor: u64,
    /// `(node name, word)` pairs in loop-node order.
    pub words: Vec<(String, String)>,
}

/// The scheduling witness behind [`CompiledLoop::explain`]: which cycle
/// pins the rate, a certificate that no cycle beats it with each place's
/// slack, why the engine decision fell the way it did, and the balanced
/// issue word of the periodic steady state — every quantity re-validated
/// in process (see [`Explanation::validated`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Explanation {
    /// The critical cycle time `α* = max Ω(C)/M(C)`.
    pub cycle_time: Ratio,
    /// The optimal computation rate `1/α*`, exactly.
    pub rate: Ratio,
    /// Names of the transitions on the critical witness cycle (empty when
    /// the bound comes from a single slow node's non-reentrance).
    pub witness_transitions: Vec<String>,
    /// For a self-loop witness: the dominating slow node's name.
    pub witness_self_loop: Option<String>,
    /// `Ω(C)` of the witness cycle (`None` for a self-loop witness).
    pub total_time: Option<u64>,
    /// `M(C)` of the witness cycle (`None` for a self-loop witness).
    pub token_count: Option<u64>,
    /// The rate certificate: potentials and per-place slack. The
    /// zero-slack places hold every critical cycle.
    pub certificate: Certificate,
    /// The engine-decision audit.
    pub engine: EngineAudit,
    /// Balanced issue words of the analytic steady state; `None` when the
    /// net is not a pure marked graph (no closed-form periodic regime), or
    /// when the words would exceed [`ISSUE_WORDS_BUDGET`] characters.
    pub issue_words: Option<IssueWords>,
    /// Whether every reported quantity checked out: the rate certificate
    /// passed [`RateCertificate::check`], which includes that the rate is
    /// the exact reciprocal of `α*`, and the issue words, when rendered,
    /// are balanced.
    /// Always check this — `false` means the explanation caught an
    /// internal inconsistency, itemised in `validation_errors`.
    pub validated: bool,
    /// The discrepancies found during re-validation (empty when
    /// `validated`).
    pub validation_errors: Vec<String>,
}

/// Memoized stage results. Every slot is filled at most once (per SCP
/// depth for `scp`) and shared across calls and clones.
#[derive(Default)]
struct Caches {
    analysis: OnceLock<Result<Analysis, Error>>,
    frustum: OnceLock<Result<Arc<FrustumReport>, Error>>,
    trace: OnceLock<Result<Arc<FiringTrace>, Error>>,
    schedule: OnceLock<Result<Arc<LoopSchedule>, Error>>,
    rates: OnceLock<Result<RateReport, Error>>,
    explain: OnceLock<Result<Arc<Explanation>, Error>>,
    /// One cell per SCP depth. The map lock is held only to find a cell,
    /// and each depth runs outside it, so a run that panics (depth 0)
    /// leaves the lock and every other depth usable.
    scp: Mutex<HashMap<u64, ScpCell>>,
    storage: OnceLock<Result<Arc<StorageRun>, Error>>,
    balance: OnceLock<Result<(Sdsp, BalanceReport), Error>>,
}

/// The memo slot of one SCP depth.
type ScpCell = Arc<OnceLock<Result<Arc<ScpRun>, Error>>>;

impl Caches {
    fn clone_lock<T: Clone>(src: &OnceLock<T>) -> OnceLock<T> {
        let dst = OnceLock::new();
        if let Some(v) = src.get() {
            let _ = dst.set(v.clone());
        }
        dst
    }
}

impl Clone for Caches {
    fn clone(&self) -> Self {
        Caches {
            analysis: Self::clone_lock(&self.analysis),
            frustum: Self::clone_lock(&self.frustum),
            trace: Self::clone_lock(&self.trace),
            schedule: Self::clone_lock(&self.schedule),
            rates: Self::clone_lock(&self.rates),
            explain: Self::clone_lock(&self.explain),
            scp: Mutex::new(
                self.scp
                    .lock()
                    .expect("scp cache poisoned")
                    .iter()
                    .filter(|(_, cell)| cell.get().is_some())
                    .map(|(&depth, cell)| (depth, Arc::new(Self::clone_lock(cell))))
                    .collect(),
            ),
            storage: Self::clone_lock(&self.storage),
            balance: Self::clone_lock(&self.balance),
        }
    }
}

impl fmt::Debug for Caches {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Caches").finish_non_exhaustive()
    }
}

/// A loop compiled through the full pipeline: the SDSP and SDSP-PN forms
/// are built once, and each analysis/scheduling stage is computed on
/// first use and memoized (see the [crate docs](crate)).
#[derive(Clone, Debug)]
pub struct CompiledLoop {
    sdsp: Sdsp,
    pn: SdspPn,
    options: CompileOptions,
    profiler: Option<Arc<metrics::Profiler>>,
    caches: Caches,
}

/// The outcome of the §6 storage optimiser on a compiled loop (see
/// [`CompiledLoop::storage`]): the optimised loop plus the merge report,
/// memoized and `Arc`-shared like every other stage artifact.
#[derive(Clone, Debug)]
pub struct StorageRun {
    /// The storage-minimised loop, compiled with the source loop's
    /// options. Its own stage caches are shared by all holders of this
    /// run, so scheduling the optimised loop is also computed once.
    pub optimised: CompiledLoop,
    /// The merge report (§6's before/after location counts).
    pub report: StorageReport,
}

/// An SCP (single-clean-pipeline) execution of a compiled loop.
#[derive(Clone, Debug)]
pub struct ScpRun {
    /// The SDSP-SCP-PN model.
    pub model: ScpPn,
    /// The detected cyclic frustum.
    pub frustum: FrustumReport,
    /// The issue schedule derived from it.
    pub schedule: LoopSchedule,
    /// Rates and pipeline utilisation (Table 2's columns).
    pub rates: ScpRateReport,
    /// The run's firing trace, derived from `frustum` on the first
    /// [`CompiledLoop::scp_trace`] call and shared after that.
    trace: OnceLock<Arc<FiringTrace>>,
}

/// The rows of `cert` by name, with its places sorted by ascending slack
/// (a stable sort, so ties keep net order).
fn certificate_rows(net: &PetriNet, marking: &Marking, cert: &RateCertificate) -> Certificate {
    let transitions = net
        .transitions()
        .zip(&cert.potentials)
        .map(|((_, t), &potential)| CertifiedTransition {
            name: t.name().to_string(),
            time: t.time(),
            potential,
        })
        .collect();
    let mut places: Vec<(usize, CertifiedPlace)> = match cert.slacks(net, marking) {
        Ok(slacks) => net
            .places()
            .zip(slacks)
            .map(|((pid, place), slack)| {
                let row = CertifiedPlace {
                    from: place.preset()[0].index(),
                    to: place.postset()[0].index(),
                    tokens: marking.tokens(pid),
                    slack,
                };
                (pid.index(), row)
            })
            .collect(),
        Err(_) => Vec::new(),
    };
    places.sort_by_key(|(_, row)| row.slack);
    let mut row_of = vec![usize::MAX; net.num_places()];
    for (row, &(place, _)) in places.iter().enumerate() {
        row_of[place] = row;
    }
    let witness_places = match &cert.witness {
        CriticalWitness::Cycle(c) if !places.is_empty() => {
            c.places().iter().map(|p| row_of[p.index()]).collect()
        }
        _ => Vec::new(),
    };
    Certificate {
        p: cert.cycle_time.numer(),
        q: cert.cycle_time.denom(),
        transitions,
        places: places.into_iter().map(|(_, row)| row).collect(),
        witness_places,
    }
}

impl CompiledLoop {
    /// Compiles loop source text through the front-end with default
    /// options.
    ///
    /// # Errors
    ///
    /// [`Error::Lang`] for parse or semantic failures.
    pub fn from_source(source: &str) -> Result<Self, Error> {
        Self::from_source_with(source, CompileOptions::default())
    }

    /// Compiles loop source text with explicit [`CompileOptions`].
    ///
    /// # Errors
    ///
    /// [`Error::Lang`] for parse or semantic failures.
    pub fn from_source_with(source: &str, options: CompileOptions) -> Result<Self, Error> {
        let profiler = options
            .profile
            .then(|| Arc::new(metrics::Profiler::default()));
        let sdsp = match &profiler {
            Some(p) => {
                let ast = p.time("parse", || tpn_lang::parse(source))?;
                p.time("lower", || tpn_lang::lower(&ast))?
            }
            None => tpn_lang::compile(source)?,
        };
        Ok(Self::build(sdsp, options, profiler))
    }

    /// Wraps an already-built SDSP with default options.
    pub fn from_sdsp(sdsp: Sdsp) -> Self {
        Self::from_sdsp_with(sdsp, CompileOptions::default())
    }

    /// Wraps an already-built SDSP with explicit [`CompileOptions`].
    pub fn from_sdsp_with(sdsp: Sdsp, options: CompileOptions) -> Self {
        let profiler = options
            .profile
            .then(|| Arc::new(metrics::Profiler::default()));
        Self::build(sdsp, options, profiler)
    }

    fn build(
        sdsp: Sdsp,
        options: CompileOptions,
        profiler: Option<Arc<metrics::Profiler>>,
    ) -> Self {
        let translate = || {
            let mut pn = to_petri(&sdsp);
            if let Some(cycles) = options.node_time {
                for &t in &pn.transition_of {
                    pn.net.set_time(t, cycles);
                }
            }
            pn
        };
        let pn = match &profiler {
            Some(p) => p.time("to_petri", translate),
            None => translate(),
        };
        CompiledLoop {
            sdsp,
            pn,
            options,
            profiler,
            caches: Caches::default(),
        }
    }

    /// Times `f` under `stage` when profiling is enabled; otherwise just
    /// runs it.
    fn span<R>(&self, stage: &str, f: impl FnOnce() -> R) -> R {
        match &self.profiler {
            Some(p) => p.time(stage, f),
            None => f(),
        }
    }

    /// The loop's dataflow graph.
    pub fn sdsp(&self) -> &Sdsp {
        &self.sdsp
    }

    /// The loop's SDSP-PN.
    pub fn petri_net(&self) -> &SdspPn {
        &self.pn
    }

    /// The options this loop was compiled with.
    pub fn options(&self) -> &CompileOptions {
        &self.options
    }

    /// Loop body size `n` (number of instructions).
    pub fn size(&self) -> usize {
        self.sdsp.num_nodes()
    }

    /// A sensible frustum-detection budget: detection is empirically
    /// `O(n)` (§5), so a generous multiple of the `2n` bound plus slack.
    pub fn default_budget(&self) -> u64 {
        (64 * self.size() as u64).max(100_000)
    }

    /// The effective detection budget: the
    /// [`step_budget`](CompileOptions::step_budget) override if set, else
    /// [`default_budget`](Self::default_budget), at most
    /// [`MAX_STEP_BUDGET`].
    pub fn budget(&self) -> u64 {
        self.options
            .step_budget
            .unwrap_or_else(|| self.default_budget())
            .min(MAX_STEP_BUDGET)
    }

    /// Critical-cycle analysis: cycle time, optimal rate, and the nodes on
    /// a critical cycle. Memoized.
    ///
    /// # Errors
    ///
    /// [`Error::Petri`] for malformed or dead nets.
    pub fn analyze(&self) -> Result<Analysis, Error> {
        self.caches
            .analysis
            .get_or_init(|| {
                let r = self.span("analyze", || critical_ratio(&self.pn.net, &self.pn.marking))?;
                let critical_nodes = match &r.witness {
                    CriticalWitness::Cycle(c) => c
                        .transitions()
                        .iter()
                        .map(|&t| self.pn.net.transition(t).name().to_string())
                        .collect(),
                    CriticalWitness::SelfLoop(_) => Vec::new(),
                };
                Ok(Analysis {
                    cycle_time: r.cycle_time,
                    optimal_rate: r.rate,
                    critical_nodes,
                })
            })
            .clone()
    }

    /// The full scheduling witness: the critical cycle with its token
    /// count `M(C)`, total time `Ω(C)` and exact ratio, the rate
    /// certificate with every place's slack, the engine-decision audit,
    /// and the balanced issue word of the periodic steady state. It costs
    /// about two critical-ratio solves and a pass over the places; no
    /// cycles are enumerated. The certificate is checked in process
    /// before being returned — check [`Explanation::validated`]. Memoized.
    ///
    /// # Errors
    ///
    /// [`Error::Petri`] for malformed, empty or dead nets.
    pub fn explain(&self) -> Result<Arc<Explanation>, Error> {
        self.caches
            .explain
            .get_or_init(|| {
                self.span("explain", || self.build_explanation())
                    .map(Arc::new)
            })
            .clone()
    }

    fn build_explanation(&self) -> Result<Explanation, Error> {
        let net = &self.pn.net;
        let marking = &self.pn.marking;
        let ex = explain_rate(net, marking, 0)?;
        let mut validation_errors = ex.validate(net, marking);

        let name_of = |t: tpn_petri::TransitionId| net.transition(t).name().to_string();
        let (witness_transitions, witness_self_loop, total_time, token_count) =
            match &ex.certificate.witness {
                CriticalWitness::Cycle(c) => (
                    c.transitions().iter().copied().map(name_of).collect(),
                    None,
                    Some(c.time_sum(net)),
                    Some(c.token_sum(marking)),
                ),
                CriticalWitness::SelfLoop(t) => (Vec::new(), Some(name_of(*t)), None, None),
            };
        let certificate = certificate_rows(net, marking, &ex.certificate);

        let engine = self.engine_audit();
        let marked_graph = engine.marked_graph;

        let issue_words = if marked_graph {
            let analytic = AnalyticSchedule::for_sdsp_pn(&self.pn).ok();
            let nodes = self.pn.transition_of.len() as u64;
            let within =
                |a: &AnalyticSchedule| nodes.saturating_mul(a.period()) <= ISSUE_WORDS_BUDGET;
            analytic.filter(within).map(|a| {
                let words: Vec<(String, String)> = self
                    .pn
                    .transition_of
                    .iter()
                    .map(|&t| {
                        let word: String = a
                            .issue_word(t)
                            .into_iter()
                            .map(|fired| if fired { '1' } else { '0' })
                            .collect();
                        (name_of(t), word)
                    })
                    .collect();
                for (name, word) in &words {
                    let ones = word.chars().filter(|&c| c == '1').count() as u64;
                    if ones != a.iterations_per_period() {
                        validation_errors.push(format!(
                            "issue word of {name} has {ones} ones, expected {}",
                            a.iterations_per_period()
                        ));
                    }
                }
                IssueWords {
                    period: a.period(),
                    iterations: a.iterations_per_period(),
                    anchor: a.anchor(),
                    words,
                }
            })
        } else {
            None
        };

        Ok(Explanation {
            cycle_time: ex.critical.cycle_time,
            rate: ex.critical.rate,
            witness_transitions,
            witness_self_loop,
            total_time,
            token_count,
            certificate,
            engine,
            issue_words,
            validated: validation_errors.is_empty(),
            validation_errors,
        })
    }

    /// The cyclic frustum of the SDSP-PN under the earliest firing rule,
    /// detected once and shared by every stage that needs it
    /// ([`schedule`](Self::schedule), [`rate_report`](Self::rate_report),
    /// [`emit`](Self::emit), …).
    ///
    /// Every artifact accessor on `CompiledLoop` returns an
    /// `Arc`-shared result: repeated calls (and clones of the loop)
    /// hand out the same allocation, so services can cache compiled
    /// loops and share their artifacts across threads without copying.
    /// Call `(*lp.frustum()?).clone()` if an owned value is really
    /// needed.
    ///
    /// # Errors
    ///
    /// [`Error::Sched`] if the budget is exhausted (or the net deadlocks).
    pub fn frustum(&self) -> Result<Arc<FrustumReport>, Error> {
        self.caches
            .frustum
            .get_or_init(|| {
                let report = self.span("frustum_detection", || {
                    detect_frustum_eager(&self.pn.net, self.pn.marking.clone(), self.budget())
                })?;
                Ok(Arc::new(report))
            })
            .clone()
    }

    /// The loop's firing trace: the full start/complete event stream of
    /// the detection run with the frustum window annotated as spans (see
    /// [`tpn_sched::trace`]), derived from the shared frustum's step
    /// records. Memoized. A zero-node loop yields the valid empty trace.
    ///
    /// # Errors
    ///
    /// [`Error::Sched`] if frustum detection fails.
    pub fn firing_trace(&self) -> Result<Arc<FiringTrace>, Error> {
        self.caches
            .trace
            .get_or_init(|| {
                if self.size() == 0 {
                    return Ok(Arc::new(FiringTrace::empty()));
                }
                let frustum = self.frustum()?;
                Ok(Arc::new(self.span("trace_derivation", || {
                    FiringTrace::from_frustum(&self.pn.net, &self.pn.marking, &frustum)
                })))
            })
            .clone()
    }

    /// The firing trace of the depth-`depth` SCP run, with dummy
    /// transitions marked as pipeline stages, derived from the run's step
    /// records. Memoized per depth alongside the run.
    ///
    /// # Errors
    ///
    /// Same as [`scp`](Self::scp).
    ///
    /// # Panics
    ///
    /// Panics if `depth == 0`.
    pub fn scp_trace(&self, depth: u64) -> Result<Arc<FiringTrace>, Error> {
        let run = self.scp(depth)?;
        Ok(run
            .trace
            .get_or_init(|| {
                Arc::new(self.span("trace_derivation", || {
                    FiringTrace::from_scp_frustum(&run.model, &run.frustum)
                }))
            })
            .clone())
    }

    /// Independently validates the loop's firing trace: replays markings
    /// from the event stream alone (see
    /// [`tpn_sched::validate::replay_trace`]) confirming safety,
    /// latencies, per-event digests and liveness over the window, then
    /// cross-checks the observed steady-state rate against
    /// [`rate_report`](Self::rate_report)'s min-cycle-ratio. A zero-node
    /// loop validates trivially.
    ///
    /// # Errors
    ///
    /// [`Error::Sched`] wrapping a
    /// [`TraceViolation`](tpn_sched::validate::TraceViolation) on the
    /// first inconsistency, or any detection/analysis failure.
    pub fn validate_trace(&self) -> Result<TraceValidation, Error> {
        let trace = self.firing_trace()?;
        if self.size() == 0 {
            return Ok(TraceValidation {
                events_checked: 0,
                max_tokens: 0,
                bound: 1,
                period: 1,
                window_counts: Vec::new(),
            });
        }
        let validation = self
            .span("trace_validation", || {
                replay_trace(&self.pn.net, &self.pn.marking, &trace)
            })
            .map_err(SchedError::Trace)?;
        let expected = self.rate_report()?.measured;
        validation
            .confirm_rate(self.pn.net.transition_ids(), expected)
            .map_err(SchedError::Trace)?;
        Ok(validation)
    }

    /// [`validate_trace`](Self::validate_trace) for the depth-`depth` SCP
    /// run: rates are cross-checked for the SDSP node transitions against
    /// the run's measured issue rate (dummies are still replayed and
    /// checked for safety/liveness/latency).
    ///
    /// # Errors
    ///
    /// Same as [`validate_trace`](Self::validate_trace).
    ///
    /// # Panics
    ///
    /// Panics if `depth == 0`.
    pub fn validate_scp_trace(&self, depth: u64) -> Result<TraceValidation, Error> {
        let run = self.scp(depth)?;
        let trace = self.scp_trace(depth)?;
        let validation = self
            .span("trace_validation", || {
                replay_trace(&run.model.net, &run.model.marking, &trace)
            })
            .map_err(SchedError::Trace)?;
        validation
            .confirm_rate(run.model.sdsp_transitions(), run.rates.measured)
            .map_err(SchedError::Trace)?;
        Ok(validation)
    }

    /// The scheduling engine actually used for
    /// [`schedule`](Self::schedule) and [`rate_report`](Self::rate_report):
    /// the configured [`CompileOptions::engine`] with `Auto` resolved
    /// against the compiled net (analytic iff it is a pure marked graph).
    pub fn engine(&self) -> SchedulePolicy {
        self.options.engine.resolve(&self.pn.net)
    }

    /// Why [`engine`](Self::engine) resolved the way it did: the
    /// configured policy, the resolved one, the structural test behind
    /// `Auto` resolution, and a one-line reason. Cheap (one structural
    /// scan) — the service journal records it per request.
    pub fn engine_audit(&self) -> EngineAudit {
        let marked_graph = self.pn.net.is_marked_graph();
        let configured = self.options.engine;
        let reason = match configured {
            SchedulePolicy::Auto if marked_graph => {
                "auto: pure marked graph, closed-form periodic regime exists -> analytic"
            }
            SchedulePolicy::Auto => {
                "auto: not a pure marked graph (structural conflict) -> frustum"
            }
            _ => "forced by compile options",
        }
        .to_string();
        EngineAudit {
            configured,
            resolved: self.engine(),
            marked_graph,
            reason,
        }
    }

    /// The time-optimal software-pipelining schedule, `Arc`-shared by
    /// every caller. Depending on [`engine`](Self::engine) it is either
    /// constructed analytically from the critical ratio (no simulation)
    /// or derived from the shared frustum.
    ///
    /// # Errors
    ///
    /// [`Error::Sched`] on detection or derivation failure.
    pub fn schedule(&self) -> Result<Arc<LoopSchedule>, Error> {
        self.caches
            .schedule
            .get_or_init(|| match self.engine() {
                SchedulePolicy::Frustum => {
                    let f = self.frustum()?;
                    let schedule = self.span("schedule_derivation", || {
                        LoopSchedule::from_frustum(&self.sdsp, &self.pn, &f)
                    })?;
                    Ok(Arc::new(schedule))
                }
                _ => {
                    let schedule = self.span("analytic_schedule", || {
                        tpn_sched::analytic::analytic_schedule(&self.sdsp, &self.pn)
                    })?;
                    Ok(Arc::new(schedule))
                }
            })
            .clone()
    }

    /// Measures the steady-state rate against the critical-cycle bound.
    /// Memoized. Under the frustum engine the measured rate comes from
    /// the detected frustum; under the analytic engine both sides are the
    /// exact critical ratio (Theorem 4.1.1 equates them).
    ///
    /// # Errors
    ///
    /// [`Error::Sched`] / [`Error::Petri`] from detection or analysis.
    pub fn rate_report(&self) -> Result<RateReport, Error> {
        self.caches
            .rates
            .get_or_init(|| match self.engine() {
                SchedulePolicy::Frustum => {
                    let f = self.frustum()?;
                    Ok(RateReport::for_sdsp_pn(&self.pn, &f)?)
                }
                _ => Ok(self.span("analytic_rate", || RateReport::analytic(&self.pn))?),
            })
            .clone()
    }

    /// Builds and runs the SDSP-SCP-PN model with an `l`-stage pipeline
    /// under the configured [`IssuePolicy`]. Memoized per depth and
    /// `Arc`-shared by every caller.
    ///
    /// # Errors
    ///
    /// [`Error::Sched`] on detection or derivation failure.
    ///
    /// # Panics
    ///
    /// Panics if `depth == 0`.
    pub fn scp(&self, depth: u64) -> Result<Arc<ScpRun>, Error> {
        let cell = Arc::clone(
            self.caches
                .scp
                .lock()
                .expect("scp cache poisoned")
                .entry(depth)
                .or_default(),
        );
        cell.get_or_init(|| self.run_scp(depth).map(Arc::new))
            .clone()
    }

    fn run_scp(&self, depth: u64) -> Result<ScpRun, Error> {
        let model = self.span(&format!("scp_expansion[l={depth}]"), || {
            build_scp(&self.pn, depth)
        });
        let budget = self
            .budget()
            .saturating_mul(depth.max(1))
            .min(MAX_STEP_BUDGET);
        let frustum = self.span(&format!("scp_detection[l={depth}]"), || {
            let marking = model.marking.clone();
            match self.options.issue_policy {
                IssuePolicy::Fifo => {
                    detect_frustum(&model.net, marking, FifoPolicy::new(&model), budget)
                }
                IssuePolicy::Priority => {
                    detect_frustum(&model.net, marking, PriorityPolicy::new(&model), budget)
                }
            }
        })?;
        let schedule = LoopSchedule::from_scp_frustum(&self.sdsp, &model, &frustum)?;
        let rates = ScpRateReport::for_scp(&model, &frustum)?;
        Ok(ScpRun {
            model,
            frustum,
            schedule,
            rates,
            trace: OnceLock::new(),
        })
    }

    /// Runs the §6 storage optimiser once and shares the outcome: the
    /// optimised loop (carrying this loop's options, with its own
    /// memoized stage caches shared by every caller) plus the report.
    ///
    /// # Errors
    ///
    /// [`Error::Storage`] on analysis failure.
    pub fn storage(&self) -> Result<Arc<StorageRun>, Error> {
        self.caches
            .storage
            .get_or_init(|| {
                let (optimised, report) =
                    self.span("storage_minimization", || minimize_storage(&self.sdsp))?;
                Ok(Arc::new(StorageRun {
                    optimised: CompiledLoop::from_sdsp_with(optimised, self.options.clone()),
                    report,
                }))
            })
            .clone()
    }

    /// Emits the time-optimal schedule as a VLIW program over the loop's
    /// storage locations, for `iterations` iterations (see
    /// [`tpn_codegen`]). Reuses the shared schedule.
    ///
    /// # Errors
    ///
    /// [`Error::Sched`] on detection or derivation failure.
    pub fn emit(&self, iterations: u64) -> Result<tpn_codegen::Program, Error> {
        let schedule = self.schedule()?;
        Ok(tpn_codegen::emit(&self.sdsp, &schedule, iterations))
    }

    /// Balances the loop's buffering (the FIFO-queued extension of §7):
    /// raises acknowledgement capacities until the rate reaches the
    /// data-dependence bound. The inverse trade-off to
    /// [`storage`](Self::storage). Memoized.
    ///
    /// # Errors
    ///
    /// [`Error::Storage`] on analysis failure.
    pub fn balance(&self) -> Result<(CompiledLoop, BalanceReport), Error> {
        let (balanced, report) = self
            .caches
            .balance
            .get_or_init(|| Ok(self.span("buffer_balancing", || tpn_storage::balance(&self.sdsp))?))
            .clone()?;
        Ok((
            CompiledLoop::from_sdsp_with(balanced, self.options.clone()),
            report,
        ))
    }

    /// The loop's [`metrics::MetricsReport`]: stage spans recorded so far
    /// (empty unless [`CompileOptions::profile`] was set) plus the engine
    /// and detection counters of every detection run that has completed.
    /// Counters are collected unconditionally, so the report is useful
    /// even without profiling; stages that have not run yet simply do not
    /// appear.
    pub fn metrics_report(&self) -> metrics::MetricsReport {
        let mut detections = Vec::new();
        if let Some(Ok(f)) = self.caches.frustum.get() {
            detections.push(metrics::DetectionCounters::from_stats("frustum", &f.stats));
        }
        let scp = self.caches.scp.lock().expect("scp cache poisoned");
        let mut runs: Vec<(u64, Arc<ScpRun>)> = scp
            .iter()
            .filter_map(|(&depth, cell)| match cell.get() {
                Some(Ok(run)) => Some((depth, Arc::clone(run))),
                _ => None,
            })
            .collect();
        drop(scp);
        runs.sort_unstable_by_key(|&(depth, _)| depth);
        for (depth, run) in runs {
            detections.push(metrics::DetectionCounters::from_stats(
                format!("scp[l={depth}]"),
                &run.frustum.stats,
            ));
        }
        let engine = detections
            .iter()
            .fold(metrics::EngineCounters::default(), |acc, d| {
                acc.merged(d.engine)
            });
        metrics::MetricsReport {
            stages: self
                .profiler
                .as_ref()
                .map(|p| p.spans())
                .unwrap_or_default(),
            engine,
            detections,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const L2: &str = "do i from 1 to n {\
        A[i] := X[i] + 5;\
        B[i] := Y[i] + A[i];\
        C[i] := A[i] + E[i-1];\
        D[i] := B[i] + C[i];\
        E[i] := W[i] + D[i];\
    }";

    #[test]
    fn end_to_end_l2() {
        let lp = CompiledLoop::from_source(L2).unwrap();
        assert_eq!(lp.size(), 5);
        let analysis = lp.analyze().unwrap();
        assert_eq!(analysis.optimal_rate, Ratio::new(1, 3));
        assert_eq!(analysis.critical_nodes.len(), 3);
        let schedule = lp.schedule().unwrap();
        assert_eq!(schedule.rate(), Ratio::new(1, 3));
        let report = lp.rate_report().unwrap();
        assert!(report.is_time_optimal());
    }

    #[test]
    fn explain_witness_self_validates_on_l2() {
        let lp = CompiledLoop::from_source(L2).unwrap();
        let ex = lp.explain().unwrap();
        assert!(ex.validated, "witness failed: {:?}", ex.validation_errors);
        assert_eq!(ex.cycle_time, Ratio::new(3, 1));
        assert_eq!(ex.rate, Ratio::new(1, 3));
        assert_eq!(ex.rate, ex.cycle_time.recip());
        // The witness cycle's Ω/M re-derives the cycle time exactly.
        assert_eq!(
            Ratio::new(ex.total_time.unwrap(), ex.token_count.unwrap()),
            ex.cycle_time
        );
        assert_eq!(ex.witness_transitions.len(), 3);
        // The certificate: α* = p/q, one row per transition and place,
        // places by ascending slack; the witness's places have zero slack
        // and so sort first.
        let cert = &ex.certificate;
        assert_eq!((cert.p, cert.q), (3, 1));
        let pn = lp.petri_net();
        assert_eq!(cert.transitions.len(), pn.net.num_transitions());
        assert_eq!(cert.places.len(), pn.net.num_places());
        assert!(cert.places.windows(2).all(|w| w[0].slack <= w[1].slack));
        assert_eq!(cert.witness_places.len(), 3);
        for &k in &cert.witness_places {
            assert_eq!(cert.places[k].slack, 0);
        }
        // Every row re-checks from the rows alone.
        let (p, q) = (i128::from(cert.p), i128::from(cert.q));
        for row in &cert.places {
            let (u, v) = (&cert.transitions[row.from], &cert.transitions[row.to]);
            let weight = q * i128::from(u.time) - p * i128::from(row.tokens);
            assert_eq!(row.slack, v.potential - u.potential - weight);
            assert!(row.slack >= 0);
        }
        assert!(cert.transitions.iter().all(|t| q * i128::from(t.time) <= p));
        // Engine audit: L2 is a pure marked graph, so Auto goes analytic.
        assert!(ex.engine.marked_graph);
        assert_eq!(ex.engine.configured, SchedulePolicy::Auto);
        assert_eq!(ex.engine.resolved, SchedulePolicy::Analytic);
        // Issue words: integer cycle time 3 means one start in each
        // 3-cycle word.
        let words = ex.issue_words.as_ref().unwrap();
        assert_eq!(words.period, 3);
        assert_eq!(words.iterations, 1);
        assert_eq!(words.words.len(), 5);
        for (_, word) in &words.words {
            assert_eq!(word.len(), 3);
            assert_eq!(word.chars().filter(|&c| c == '1').count(), 1);
        }
        // Memoized like every other stage.
        assert!(Arc::ptr_eq(&ex, &lp.explain().unwrap()));
    }

    #[test]
    fn explain_reports_the_forced_engine() {
        let lp = CompiledLoop::from_source_with(
            L2,
            CompileOptions::new().engine(SchedulePolicy::Frustum),
        )
        .unwrap();
        let ex = lp.explain().unwrap();
        assert!(ex.validated);
        assert_eq!(ex.engine.configured, SchedulePolicy::Frustum);
        assert_eq!(ex.engine.resolved, SchedulePolicy::Frustum);
        assert_eq!(ex.engine.reason, "forced by compile options");
        // The witness does not depend on the engine choice.
        assert_eq!(ex.cycle_time, Ratio::new(3, 1));
    }

    #[test]
    fn end_to_end_scp() {
        let lp = CompiledLoop::from_source(L2).unwrap();
        let run = lp.scp(8).unwrap();
        assert!(run.rates.respects_resource_bound());
        assert_eq!(run.model.depth, 8);
        assert!(run.schedule.period() > 0);
    }

    #[test]
    fn a_panicking_scp_depth_leaves_the_loop_usable() {
        let lp = CompiledLoop::from_source(L2).unwrap();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| lp.scp(0)));
        assert!(caught.is_err(), "depth 0 panics by contract");
        // The cache lock is not poisoned: other depths run and report.
        let run = lp.scp(2).unwrap();
        assert_eq!(run.model.depth, 2);
        let report = lp.metrics_report();
        assert!(report.detections.iter().any(|d| d.context == "scp[l=2]"));
        // A clone carries the finished depth, not the failed one.
        assert!(Arc::ptr_eq(&lp.clone().scp(2).unwrap(), &run));
    }

    #[test]
    fn end_to_end_storage() {
        let lp = CompiledLoop::from_source(L2).unwrap();
        let run = lp.storage().unwrap();
        assert!(run.report.after < run.report.before);
        // The optimised loop still schedules at the optimal rate.
        let schedule = run.optimised.schedule().unwrap();
        assert_eq!(schedule.rate(), Ratio::new(1, 3));
        // Repeated calls share the same memoized rewrite.
        let again = lp.storage().unwrap();
        assert!(Arc::ptr_eq(&run, &again));
    }

    #[test]
    fn stages_are_memoized_and_shared() {
        let lp = CompiledLoop::from_source(L2).unwrap();
        let f1 = lp.frustum().unwrap();
        let f2 = lp.frustum().unwrap();
        assert!(Arc::ptr_eq(&f1, &f2), "frustum detected more than once");
        let s1 = lp.schedule().unwrap();
        let s2 = lp.schedule().unwrap();
        assert!(Arc::ptr_eq(&s1, &s2));
        let scp1 = lp.scp(8).unwrap();
        let scp2 = lp.scp(8).unwrap();
        assert!(Arc::ptr_eq(&scp1, &scp2));
        // The SCP trace is derived on first request only, then shared.
        assert!(scp1.trace.get().is_none(), "scp() derived a trace");
        let t1 = lp.scp_trace(8).unwrap();
        assert!(Arc::ptr_eq(&t1, &lp.scp_trace(8).unwrap()));
        // Clones share the already-computed results.
        let clone = lp.clone();
        assert!(Arc::ptr_eq(&f1, &clone.frustum().unwrap()));
    }

    #[test]
    fn options_fingerprint_is_stable_and_field_sensitive() {
        let base = CompileOptions::new();
        assert_eq!(base.fingerprint(), CompileOptions::new().fingerprint());
        let variants = [
            CompileOptions::new().node_time(2),
            CompileOptions::new().step_budget(0),
            CompileOptions::new().step_budget(77),
            CompileOptions::new().issue_policy(IssuePolicy::Priority),
            CompileOptions::new().profile(true),
            CompileOptions::new().engine(SchedulePolicy::Analytic),
            CompileOptions::new().engine(SchedulePolicy::Frustum),
        ];
        let mut prints: Vec<u64> = variants.iter().map(CompileOptions::fingerprint).collect();
        prints.push(base.fingerprint());
        let distinct: std::collections::HashSet<u64> = prints.iter().copied().collect();
        assert_eq!(
            distinct.len(),
            prints.len(),
            "fingerprint collision: {prints:?}"
        );
        // Getters follow the get_* scheme.
        let o = CompileOptions::new()
            .node_time(3)
            .step_budget(9)
            .issue_policy(IssuePolicy::Priority)
            .profile(true);
        assert_eq!(o.get_node_time(), Some(3));
        assert_eq!(o.get_step_budget(), Some(9));
        assert_eq!(o.get_issue_policy(), IssuePolicy::Priority);
        assert!(o.get_profile());
        assert_eq!(o.get_engine(), SchedulePolicy::Auto);
        assert_eq!(
            o.engine(SchedulePolicy::Analytic).get_engine(),
            SchedulePolicy::Analytic
        );
    }

    #[test]
    fn options_node_time_scales_the_analysis() {
        let lp = CompiledLoop::from_source_with(L2, CompileOptions::new().node_time(2)).unwrap();
        // Doubling every node time halves the optimal rate: 1/3 -> 1/6.
        let analysis = lp.analyze().unwrap();
        assert_eq!(analysis.optimal_rate, Ratio::new(1, 6));
        let report = lp.rate_report().unwrap();
        assert!(report.is_time_optimal());
    }

    #[test]
    fn options_step_budget_caps_detection() {
        let lp = CompiledLoop::from_source_with(L2, CompileOptions::new().step_budget(2)).unwrap();
        assert_eq!(lp.budget(), 2);
        match lp.frustum() {
            Err(Error::Sched(SchedError::FrustumNotFound { max_steps: 2 })) => {}
            other => panic!("expected FrustumNotFound, got {other:?}"),
        }
    }

    #[test]
    fn budgets_stop_at_the_ceiling() {
        let lp = CompiledLoop::from_source_with(L2, CompileOptions::new().step_budget(u64::MAX))
            .unwrap();
        assert_eq!(lp.budget(), MAX_STEP_BUDGET);
        let lp = CompiledLoop::from_source(L2).unwrap();
        assert_eq!(lp.budget(), lp.default_budget());
    }

    #[test]
    fn options_priority_policy_reaches_a_frustum() {
        let lp = CompiledLoop::from_source_with(
            L2,
            CompileOptions::new().issue_policy(IssuePolicy::Priority),
        )
        .unwrap();
        let run = lp.scp(4).unwrap();
        assert!(run.rates.respects_resource_bound());
    }

    #[test]
    fn error_conversions() {
        let err = CompiledLoop::from_source("garbage").unwrap_err();
        assert!(matches!(err, Error::Lang(_)));
        assert!(!err.to_string().is_empty());
        // The unified error exposes the stage error as its source.
        let source = std::error::Error::source(&err).expect("source");
        assert!(!source.to_string().is_empty());
    }
}
