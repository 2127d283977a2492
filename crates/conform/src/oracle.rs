//! The differential oracle stack.
//!
//! Every generated case is pushed through each independent path the
//! codebase has for computing the loop's computation rate, and the
//! answers are cross-checked exactly (all arithmetic is rational — any
//! difference is a bug, not noise):
//!
//! * **liveness** — `check_live_safe` confirms the generator's contract;
//! * **enumeration** — [`analyze_cycles`] (Johnson-style enumeration of
//!   every simple cycle, max `Ω(C)/M(C)`);
//! * **parametric** — [`critical_ratio`] (Howard's policy iteration, no
//!   enumeration);
//! * **rate** — the earliest-firing frustum simulation's measured rate
//!   ([`RateReport`]), which Theorem 4.2 says attains the optimum;
//! * **trace** — the firing trace derived from the frustum, replayed
//!   from events alone by [`replay_trace`] and held to the same rate;
//! * **storage** — [`minimize_storage`]'s coalesced net must keep both
//!   its parametric cycle time and its simulated rate unchanged, and its
//!   potentials check must make exactly the merges of the re-solving
//!   [`reference`](crate::reference::minimize_storage_reference) at 1, 2,
//!   3 and unbounded merges;
//! * **analytic** — the simulation-free periodic schedule built from the
//!   critical ratio ([`AnalyticSchedule`]) must carry exactly the
//!   parametric rate, pass the independent dependence checker, and its
//!   synthesized firing trace must replay cleanly at the same rate;
//! * **explain** — the scheduling witness (`CompiledLoop::explain`) must
//!   pass its own in-process re-validation and report exactly the
//!   parametric `α*` and rate, and its rate certificate must pass
//!   [`check_certificate`]: the check itself, both engines' kernel II
//!   equal to its `p/q`, and (when enumeration completed) a slack table
//!   that agrees with every enumerated cycle;
//! * **engine** — the production frustum detector must match the naive
//!   [`reference`](crate::reference) stepper instant by instant, on the
//!   plain net under the eager policy and on an SCP expansion at a
//!   depth of 1–8 taken from the case number, under FIFO (even cases) or
//!   priority (odd).
//!
//! [`Mutation`] deliberately breaks one layer (the simulated net) while
//! leaving the analyses untouched; a healthy stack catches the injected
//! rate bug through at least two independent oracles, which is exactly
//! what [`check_mutated`] asserts.

use serde::Serialize;
use tpn_dataflow::to_petri::{to_petri, SdspPn};
use tpn_dataflow::Sdsp;
use tpn_petri::marked::check_live_safe;
use tpn_petri::ratio::{
    analyze_cycles, critical_ratio, explain_rate, CriticalWitness, CycleAnalysis,
};
use tpn_petri::timed::EagerPolicy;
use tpn_petri::PetriError;
use tpn_petri::Ratio;
use tpn_sched::analytic::AnalyticSchedule;
use tpn_sched::frustum::{detect_frustum, detect_frustum_eager, FrustumReport};
use tpn_sched::policy::{FifoPolicy, PriorityPolicy};
use tpn_sched::rate::RateReport;
use tpn_sched::schedule::LoopSchedule;
use tpn_sched::scp::build_scp;
use tpn_sched::trace::FiringTrace;
use tpn_sched::validate::{check_schedule, replay_trace};
use tpn_sched::SchedError;
use tpn_storage::minimize_storage;

use crate::reference::{
    agree, detect_frustum_reference, storage_agree, ReferencePolicy, ReferenceRun,
};

/// Tuning for one oracle run.
#[derive(Clone, Copy, Debug)]
pub struct OracleConfig {
    /// Cycle-enumeration ceiling; beyond it the enumeration oracle is
    /// recorded as skipped (not failed) for the case.
    pub cycle_limit: usize,
    /// Frustum simulation budget in time steps.
    pub step_budget: u64,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            cycle_limit: 50_000,
            step_budget: 400_000,
        }
    }
}

/// The outcome of running the oracle stack over one case.
#[derive(Clone, Debug, Serialize)]
pub struct CaseReport {
    /// Case index within the seed's stream.
    pub case: u64,
    /// Loop-body node count (after feedback expansion).
    pub nodes: usize,
    /// Parametric critical cycle time `α*`.
    pub cycle_time: String,
    /// Parametric optimal rate `γ = 1/α*`.
    pub rate: String,
    /// Whether cycle enumeration completed within the limit.
    pub enumerated: bool,
    /// Whether the case has multiple critical cycles.
    pub multiple_critical: bool,
    /// Simulated steps until the frustum's terminal state repeated.
    pub repeat_time: u64,
    /// The frustum's steady-state period.
    pub period: u64,
    /// Storage locations before minimisation.
    pub storage_before: usize,
    /// Storage locations after minimisation.
    pub storage_after: usize,
    /// Every oracle disagreement, prefixed by the oracle's name; empty
    /// means the case passed.
    pub disagreements: Vec<String>,
}

impl CaseReport {
    /// Whether every oracle agreed.
    pub fn passed(&self) -> bool {
        self.disagreements.is_empty()
    }

    /// The distinct oracles that flagged this case.
    pub fn flagged_oracles(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .disagreements
            .iter()
            .map(|d| d.split(':').next().unwrap_or("unknown").to_string())
            .collect();
        names.sort();
        names.dedup();
        names
    }
}

/// A deliberately injected rate bug, applied to the *simulated* net only
/// so the analytical oracles keep reporting the pristine optimum.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Slows one node past the critical cycle time: the simulated rate
    /// drops strictly below the analytical optimum.
    SlowNode,
    /// Adds a token to the unique critical cycle: the simulation runs
    /// strictly faster than the analytical optimum.  Only applicable
    /// when enumeration confirms a unique critical data cycle.
    ExtraToken,
}

impl Mutation {
    /// Parses the CLI spelling.
    pub fn parse(name: &str) -> Option<Mutation> {
        match name {
            "slow-node" => Some(Mutation::SlowNode),
            "extra-token" => Some(Mutation::ExtraToken),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Mutation::SlowNode => "slow-node",
            Mutation::ExtraToken => "extra-token",
        }
    }
}

/// What happened when a mutation was injected into a case.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MutationOutcome {
    /// The named oracles flagged the injected bug.
    Caught(Vec<String>),
    /// No oracle noticed — a conformance-harness failure.
    Missed,
    /// The mutation provably cannot change this case's rate (e.g. an
    /// extra token when critical cycles tie), so it proves nothing.
    NotApplicable,
}

/// Runs the full oracle stack over one pristine case.
pub fn check_sdsp(case: u64, sdsp: &Sdsp, config: &OracleConfig) -> CaseReport {
    run_case(case, sdsp, None, config)
}

/// Injects `mutation` into the simulated net and reports which oracles
/// caught the divergence from the (untouched) analytical optimum.
pub fn check_mutated(
    case: u64,
    sdsp: &Sdsp,
    mutation: Mutation,
    config: &OracleConfig,
) -> MutationOutcome {
    let report = run_case(case, sdsp, Some(mutation), config);
    if report.disagreements.iter().any(|d| d == NOT_APPLICABLE) {
        return MutationOutcome::NotApplicable;
    }
    let oracles = report.flagged_oracles();
    if oracles.is_empty() {
        MutationOutcome::Missed
    } else {
        MutationOutcome::Caught(oracles)
    }
}

/// Sentinel disagreement marking a mutation that cannot bite.
const NOT_APPLICABLE: &str = "mutation: not applicable";

fn run_case(
    case: u64,
    sdsp: &Sdsp,
    mutation: Option<Mutation>,
    config: &OracleConfig,
) -> CaseReport {
    let pn = to_petri(sdsp);
    let mut report = CaseReport {
        case,
        nodes: sdsp.num_nodes(),
        cycle_time: String::new(),
        rate: String::new(),
        enumerated: false,
        multiple_critical: false,
        repeat_time: 0,
        period: 0,
        storage_before: 0,
        storage_after: 0,
        disagreements: Vec::new(),
    };

    // Oracle 0: the generator's structural contract.
    if let Err(e) = check_live_safe(&pn.net, &pn.marking) {
        report
            .disagreements
            .push(format!("liveness: generated net not live and safe: {e}"));
        return report;
    }

    // Oracle 1: Howard's policy iteration — the baseline every other
    // oracle is compared against.
    let param = match critical_ratio(&pn.net, &pn.marking) {
        Ok(p) => p,
        Err(e) => {
            report
                .disagreements
                .push(format!("parametric: critical_ratio failed: {e}"));
            return report;
        }
    };
    report.cycle_time = param.cycle_time.to_string();
    report.rate = param.rate.to_string();

    // Oracle 2: exhaustive cycle enumeration must find the same α*.
    let analysis = match analyze_cycles(&pn.net, &pn.marking, config.cycle_limit) {
        Ok(analysis) => {
            report.enumerated = true;
            report.multiple_critical = analysis.has_multiple_critical_cycles();
            if analysis.cycle_time != param.cycle_time {
                report.disagreements.push(format!(
                    "enumeration: analyze_cycles α* = {} but critical_ratio α* = {}",
                    analysis.cycle_time, param.cycle_time
                ));
            }
            Some(analysis)
        }
        Err(PetriError::TooManyCycles { .. }) => None,
        Err(e) => {
            report
                .disagreements
                .push(format!("enumeration: analyze_cycles failed: {e}"));
            None
        }
    };
    // Kernel IIs of both engines on the pristine net, for oracle 7.
    let mut kernel_iis: Vec<(&str, Ratio)> = Vec::new();

    // Inject the mutation into the simulated net only.
    let mut sim_net = pn.net.clone();
    let mut sim_marking = pn.marking.clone();
    match mutation {
        None => {}
        Some(Mutation::SlowNode) => {
            // One past ⌈α*⌉: the node's implicit self-loop now bounds the
            // rate strictly below the analytical optimum.
            let slow = param.cycle_time.numer().div_ceil(param.cycle_time.denom()) + 1;
            sim_net.set_time(pn.transition_of[0], slow);
        }
        Some(Mutation::ExtraToken) => match &param.witness {
            CriticalWitness::Cycle(c) if report.enumerated && !report.multiple_critical => {
                let p = c.places()[0];
                sim_marking.set(p, sim_marking.tokens(p) + 1);
            }
            _ => {
                report.disagreements.push(NOT_APPLICABLE.to_string());
                return report;
            }
        },
    }

    // Oracles 3 and 4: the earliest-firing simulation and the replayed
    // firing trace must both attain exactly the analytical optimum.
    match detect_frustum_eager(&sim_net, sim_marking.clone(), config.step_budget) {
        Ok(frustum) => {
            report.repeat_time = frustum.repeat_time;
            report.period = frustum.period();
            let measured = frustum.rate_of(pn.transition_of[0]);
            if measured != param.rate {
                report.disagreements.push(format!(
                    "rate: simulated rate {} != analytical optimum {}",
                    measured, param.rate
                ));
            }
            if mutation.is_none() {
                if let Ok(schedule) = LoopSchedule::from_frustum(sdsp, &pn, &frustum) {
                    kernel_iis.push(("frustum", schedule.initiation_interval()));
                }
                // The public RateReport path must agree with the direct
                // per-transition measurement.
                match RateReport::for_sdsp_pn(&pn, &frustum) {
                    Ok(rr) => {
                        if !rr.is_time_optimal() || rr.measured != measured {
                            report.disagreements.push(format!(
                                "rate: RateReport measured {} optimal {} (direct {})",
                                rr.measured, rr.optimal, measured
                            ));
                        }
                    }
                    Err(e) => report
                        .disagreements
                        .push(format!("rate: RateReport failed: {e}")),
                }
            }
            let trace = FiringTrace::from_frustum(&sim_net, &sim_marking, &frustum);
            match replay_trace(&sim_net, &sim_marking, &trace) {
                Ok(validation) => {
                    if let Err(e) = validation.confirm_rate(sim_net.transition_ids(), param.rate) {
                        report.disagreements.push(format!("trace: {e}"));
                    }
                }
                Err(e) => report
                    .disagreements
                    .push(format!("trace: replay failed: {e}")),
            }
        }
        Err(e) => report
            .disagreements
            .push(format!("rate: frustum detection failed: {e}")),
    }

    // Oracle 5: storage minimisation must not move the rate, neither
    // analytically nor under simulation.  Runs on the pristine loop (the
    // mutation lives in the simulated net, which storage never sees).
    if mutation.is_none() {
        match minimize_storage(sdsp) {
            Ok((optimised, storage_report)) => {
                report.storage_before = storage_report.before;
                report.storage_after = storage_report.after;
                let opn = to_petri(&optimised);
                match critical_ratio(&opn.net, &opn.marking) {
                    Ok(after) => {
                        if after.cycle_time != param.cycle_time {
                            report.disagreements.push(format!(
                                "storage: minimised α* = {} but original α* = {}",
                                after.cycle_time, param.cycle_time
                            ));
                        }
                    }
                    Err(e) => report
                        .disagreements
                        .push(format!("storage: minimised net analysis failed: {e}")),
                }
                match detect_frustum_eager(&opn.net, opn.marking.clone(), config.step_budget) {
                    Ok(f) => {
                        let after = f.rate_of(opn.transition_of[0]);
                        if after != param.rate {
                            report.disagreements.push(format!(
                                "storage: minimised net simulates at {} != {}",
                                after, param.rate
                            ));
                        }
                    }
                    Err(e) => report
                        .disagreements
                        .push(format!("storage: minimised net simulation failed: {e}")),
                }
            }
            Err(e) => report
                .disagreements
                .push(format!("storage: minimize_storage failed: {e}")),
        }
        for max_merges in [1, 2, 3, usize::MAX] {
            if let Err(e) = storage_agree(sdsp, max_merges) {
                report
                    .disagreements
                    .push(format!("storage: at most {max_merges} merges: {e}"));
            }
        }
    }

    // Oracle 6: the analytic fast path — the periodic schedule built
    // straight from the critical ratio, no simulation — must agree with
    // the parametric baseline exactly, pass the independent dependence
    // checker, and its synthesized trace must replay cleanly at the same
    // rate.  Runs on the pristine net (like storage, it never sees the
    // mutated copy, so a mutated run would vacuously "disagree").
    if mutation.is_none() {
        match AnalyticSchedule::for_sdsp_pn(&pn) {
            Ok(analytic) => {
                if analytic.rate() != param.rate {
                    report.disagreements.push(format!(
                        "analytic: constructed rate {} != analytical optimum {}",
                        analytic.rate(),
                        param.rate
                    ));
                }
                let schedule = analytic.loop_schedule(sdsp, &pn);
                kernel_iis.push(("analytic", schedule.initiation_interval()));
                if schedule.initiation_interval() != param.cycle_time {
                    report.disagreements.push(format!(
                        "analytic: schedule II = {} but α* = {}",
                        schedule.initiation_interval(),
                        param.cycle_time
                    ));
                }
                if let Err(e) = check_schedule(sdsp, &schedule, 24, None, 0) {
                    report
                        .disagreements
                        .push(format!("analytic: schedule check failed: {e}"));
                }
                let trace = analytic.trace(&pn, 2);
                match replay_trace(&pn.net, &pn.marking, &trace) {
                    Ok(validation) => {
                        if let Err(e) = validation.confirm_rate(pn.net.transition_ids(), param.rate)
                        {
                            report.disagreements.push(format!("analytic: {e}"));
                        }
                    }
                    Err(e) => report
                        .disagreements
                        .push(format!("analytic: trace replay failed: {e}")),
                }
            }
            Err(e) => report
                .disagreements
                .push(format!("analytic: construction failed: {e}")),
        }
    }

    // Oracle 7: the explanation witness — `CompiledLoop::explain` must
    // self-validate (its certificate checks in process) and report
    // exactly the parametric α* and rate, and the certificate must
    // agree with both engines and with the enumeration.
    if mutation.is_none() {
        report.disagreements.extend(check_certificate(
            &pn,
            param.rate,
            analysis.as_ref(),
            &kernel_iis,
        ));
        let lp = tpn::CompiledLoop::from_sdsp(sdsp.clone());
        match lp.explain() {
            Ok(e) => {
                if !e.validated {
                    report.disagreements.push(format!(
                        "explain: witness failed self-validation: {}",
                        e.validation_errors.join("; ")
                    ));
                }
                if e.cycle_time != param.cycle_time || e.rate != param.rate {
                    report.disagreements.push(format!(
                        "explain: reported α* = {} rate {} but parametric α* = {} rate {}",
                        e.cycle_time, e.rate, param.cycle_time, param.rate
                    ));
                }
            }
            Err(e) => report
                .disagreements
                .push(format!("explain: explanation failed: {e}")),
        }
    }

    // Oracle 8: the production engine against the naive reference.
    if mutation.is_none() {
        report
            .disagreements
            .extend(check_engine(case, &pn, config.step_budget));
    }

    report
}

/// Oracle 7's certificate checks on one SDSP-PN, returning each
/// disagreement:
///
/// * the rate certificate `explain` serves passes
///   [`RateCertificate::check`](tpn_petri::ratio::RateCertificate::check)
///   at the parametric `rate`;
/// * every `(engine, II)` in `kernel_iis` has its kernel II equal to the
///   certificate's `p/q`, at any size;
/// * when `analysis` (a completed Johnson enumeration) is given, every
///   enumerated cycle `C`'s slacks sum to `p·M(C) − q·Ω(C)`, and every
///   critical cycle's places have zero slack. Enumeration stays the
///   slack table's oracle.
pub fn check_certificate(
    pn: &SdspPn,
    rate: Ratio,
    analysis: Option<&CycleAnalysis>,
    kernel_iis: &[(&str, Ratio)],
) -> Vec<String> {
    let ex = match explain_rate(&pn.net, &pn.marking, 0) {
        Ok(ex) => ex,
        Err(e) => return vec![format!("explain: certificate not built: {e}")],
    };
    let cert = &ex.certificate;
    let mut out: Vec<String> = cert
        .check(&pn.net, &pn.marking, rate)
        .into_iter()
        .map(|e| format!("explain: certificate check failed: {e}"))
        .collect();
    for &(engine, ii) in kernel_iis {
        if ii != cert.cycle_time {
            out.push(format!(
                "explain: {engine} kernel II = {ii} but the certificate proves {}",
                cert.cycle_time
            ));
        }
    }
    let Some(analysis) = analysis else {
        return out;
    };
    let slacks = match cert.slacks(&pn.net, &pn.marking) {
        Ok(slacks) => slacks,
        Err(e) => {
            out.push(format!("explain: slacks do not compute: {e}"));
            return out;
        }
    };
    let (p, q) = (
        i128::from(cert.cycle_time.numer()),
        i128::from(cert.cycle_time.denom()),
    );
    for (i, info) in analysis.cycles.iter().enumerate() {
        let places = info.cycle.places();
        let sum: i128 = places.iter().map(|pl| slacks[pl.index()]).sum();
        let expected = p * i128::from(info.token_sum) - q * i128::from(info.time_sum);
        if sum != expected {
            out.push(format!(
                "explain: cycle {i} has slack sum {sum}, but p·M − q·Ω = {expected}"
            ));
        }
        if analysis.critical.contains(&i) && places.iter().any(|pl| slacks[pl.index()] != 0) {
            out.push(format!(
                "explain: critical cycle {i} has a place with slack"
            ));
        }
    }
    out
}

/// The SCP depth, 1–8, at which the engine oracle checks case `case`.
/// Even cases run FIFO and odd cases priority, so each policy meets every
/// depth once in 16 cases.
fn engine_depth(case: u64) -> u64 {
    1 + (case / 2) % 8
}

/// Runs the production detector and the reference on the plain net and on
/// one SCP expansion, and returns each disagreement.
fn check_engine(case: u64, pn: &SdspPn, budget: u64) -> Vec<String> {
    let mut out = Vec::new();
    let plain = detect_frustum(&pn.net, pn.marking.clone(), EagerPolicy, budget);
    let checked = compare(plain, true, |steps| {
        detect_frustum_reference(&pn.net, pn.marking.clone(), ReferencePolicy::Eager, steps)
    });
    if let Err(e) = checked {
        out.push(format!("engine: plain run: {e}"));
    }
    let depth = engine_depth(case);
    let scp = build_scp(pn, depth);
    let budget = budget.saturating_mul(depth);
    let marking = || scp.marking.clone();
    let (name, checked) = if case.is_multiple_of(2) {
        let fast = detect_frustum(&scp.net, marking(), FifoPolicy::new(&scp), budget);
        let checked = compare(fast, false, |steps| {
            detect_frustum_reference(&scp.net, marking(), ReferencePolicy::fifo(&scp), steps)
        });
        ("fifo", checked)
    } else {
        let fast = detect_frustum(&scp.net, marking(), PriorityPolicy::new(&scp), budget);
        let checked = compare(fast, false, |steps| {
            detect_frustum_reference(&scp.net, marking(), ReferencePolicy::priority(&scp), steps)
        });
        ("priority", checked)
    };
    if let Err(e) = checked {
        out.push(format!("engine: SCP depth {depth} under {name}: {e}"));
    }
    out
}

/// Holds a production detection to the reference, which gets exactly the
/// instants the detector used: the naive stepper keys a map on full state
/// clones, so its budget must stay that small.
fn compare(
    fast: Result<FrustumReport, SchedError>,
    digests: bool,
    reference: impl FnOnce(u64) -> Result<ReferenceRun, SchedError>,
) -> Result<(), String> {
    let fast = fast.map_err(|e| format!("detection failed: {e}"))?;
    let steps = fast.repeat_time + 1;
    let slow = reference(steps)
        .map_err(|e| format!("the reference failed within {steps} instants: {e}"))?;
    agree(&fast, &slow, digests)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, Shape};

    #[test]
    fn pristine_cases_pass_every_oracle() {
        let config = OracleConfig::default();
        for shape in Shape::ALL {
            for case in 0..20 {
                let sdsp = generate(0, case, shape);
                let report = check_sdsp(case, &sdsp, &config);
                assert!(
                    report.passed(),
                    "{} case {case}: {:?}",
                    shape.as_str(),
                    report.disagreements
                );
            }
        }
    }

    #[test]
    fn slow_node_mutation_is_caught_by_at_least_two_oracles() {
        let config = OracleConfig::default();
        for shape in Shape::ALL {
            for case in 0..10 {
                let sdsp = generate(0, case, shape);
                match check_mutated(case, &sdsp, Mutation::SlowNode, &config) {
                    MutationOutcome::Caught(oracles) => assert!(
                        oracles.len() >= 2,
                        "{} case {case}: only {oracles:?} caught the bug",
                        shape.as_str()
                    ),
                    other => panic!("{} case {case}: {other:?}", shape.as_str()),
                }
            }
        }
    }

    #[test]
    fn extra_token_mutation_is_caught_when_applicable() {
        let config = OracleConfig::default();
        let mut caught = 0;
        for case in 0..20 {
            let sdsp = generate(0, case, Shape::NearTie);
            match check_mutated(case, &sdsp, Mutation::ExtraToken, &config) {
                MutationOutcome::Caught(oracles) => {
                    assert!(oracles.len() >= 2, "case {case}: {oracles:?}");
                    caught += 1;
                }
                MutationOutcome::NotApplicable => {}
                MutationOutcome::Missed => panic!("case {case}: mutation missed"),
            }
        }
        assert!(caught > 0, "no near-tie case exercised the mutation");
    }
}
