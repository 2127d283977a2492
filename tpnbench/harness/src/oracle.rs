//! The output oracle: values derived in process before timing, and the
//! check every reply must pass.
//!
//! - Frustum-engine replies are checked against `critical_ratio`, and
//!   their SCP and trace fields against the benchmark's own run of the
//!   same layers.
//! - Analytic replies are checked against frustum detection, or against
//!   the exhaustive certifier `tpn_sched::exact` when the net has at most
//!   `EXACT_LIMIT` transitions.
//! - Hits must be byte-identical to the reply recorded for their key when
//!   the store was filled.

use std::collections::HashMap;

use tpn::petri::ratio::critical_ratio;
use tpn::petri::rational::Ratio;
use tpn::sched::exact::{exact_optimum_sdsp, EXACT_LIMIT};
use tpn::sched::frustum::{detect_frustum, detect_frustum_eager};
use tpn::sched::policy::FifoPolicy;
use tpn::sched::rate::{RateReport, ScpRateReport};
use tpn::sched::schedule::LoopSchedule;
use tpn::sched::scp::build_scp;
use tpn::CompiledLoop;

use crate::corpus::{Loop, Req};
use crate::json::{self, Json};

/// What a loop's replies must say, whatever its re-key.
#[derive(Clone, Debug)]
pub struct Expect {
    /// `α*`, the optimal cycle time per iteration.
    pub alpha: Ratio,
    /// Frustum `(start, repeat)` instants (frustum engine only).
    pub frustum: Option<(u64, u64)>,
    /// SCP depth-8 `(initiation interval, rate)` (frustum engine only).
    pub scp8: Option<(Ratio, Ratio)>,
    /// Storage locations `(before, after)` (analytic engine only).
    pub storage: Option<(usize, usize)>,
}

fn frustum_alpha(lp: &CompiledLoop) -> Result<Ratio, String> {
    let pn = lp.petri_net();
    let f = detect_frustum_eager(&pn.net, pn.marking.clone(), lp.default_budget())
        .map_err(|e| e.to_string())?;
    Ok(RateReport::for_sdsp_pn(pn, &f)
        .map_err(|e| e.to_string())?
        .measured
        .recip())
}

/// Derives the expectations of one loop served by the frustum engine.
pub fn expect_frustum(lp: &Loop) -> Result<Expect, String> {
    let sdsp = tpn::lang::compile(&lp.source).map_err(|e| e.to_string())?;
    let compiled = CompiledLoop::from_sdsp(sdsp.clone());
    let pn = compiled.petri_net();
    let alpha = critical_ratio(&pn.net, &pn.marking)
        .map_err(|e| e.to_string())?
        .cycle_time;
    let f = detect_frustum_eager(&pn.net, pn.marking.clone(), compiled.default_budget())
        .map_err(|e| e.to_string())?;
    let model = build_scp(pn, 8);
    let scp = detect_frustum(
        &model.net,
        model.marking.clone(),
        FifoPolicy::new(&model),
        compiled.default_budget() * 8,
    )
    .map_err(|e| e.to_string())?;
    let schedule =
        LoopSchedule::from_scp_frustum(&sdsp, &model, &scp).map_err(|e| e.to_string())?;
    let rates = ScpRateReport::for_scp(&model, &scp).map_err(|e| e.to_string())?;
    Ok(Expect {
        alpha,
        frustum: Some((f.start_time, f.repeat_time)),
        scp8: Some((schedule.initiation_interval(), rates.measured)),
        storage: None,
    })
}

/// Derives the expectations of one loop served by the analytic engine:
/// `α*` from the exact certifier on small nets, else from simulation.
pub fn expect_analytic(lp: &Loop, with_storage: bool) -> Result<Expect, String> {
    let sdsp = tpn::lang::compile(&lp.source).map_err(|e| e.to_string())?;
    let storage = if with_storage {
        let (optimised, report) =
            tpn::storage::minimize_storage(&sdsp).map_err(|e| e.to_string())?;
        // The optimiser must keep the optimal rate: check it by
        // simulating the optimised loop.
        let alpha = frustum_alpha(&CompiledLoop::from_sdsp(optimised))?;
        Some((report.before, report.after, alpha))
    } else {
        None
    };
    let compiled = CompiledLoop::from_sdsp(sdsp);
    let alpha = if compiled.petri_net().net.num_transitions() <= EXACT_LIMIT {
        exact_optimum_sdsp(compiled.petri_net())
            .map_err(|e| e.to_string())?
            .initiation_interval()
    } else {
        frustum_alpha(&compiled)?
    };
    if let Some((_, _, optimised_alpha)) = storage {
        if optimised_alpha != alpha {
            return Err(format!(
                "{}: storage minimisation moved the cycle time {alpha} -> {optimised_alpha}",
                lp.name
            ));
        }
    }
    Ok(Expect {
        alpha,
        frustum: None,
        scp8: None,
        storage: storage.map(|(before, after, _)| (before, after)),
    })
}

fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, String> {
    obj.get(key).ok_or_else(|| format!("reply lacks {key:?}"))
}

fn number(obj: &Json, key: &str) -> Result<u64, String> {
    match field(obj, key)? {
        Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as u64),
        other => Err(format!("{key:?} is not a whole number: {other:?}")),
    }
}

fn rational(obj: &Json, key: &str) -> Result<Ratio, String> {
    let pair = field(obj, key)?;
    let den = number(pair, "den")?;
    if den == 0 {
        return Err(format!("{key:?} has a zero denominator"));
    }
    Ok(Ratio::new(number(pair, "num")?, den))
}

fn flag(obj: &Json, key: &str) -> Result<bool, String> {
    match field(obj, key)? {
        Json::Bool(b) => Ok(*b),
        other => Err(format!("{key:?} is not a boolean: {other:?}")),
    }
}

fn same(what: &str, got: Ratio, want: Ratio) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what} is {got}, expected {want}"))
    }
}

/// The part of a reply line after its `"id":N,` prefix, which is all
/// that may differ between two replies for one key.
pub fn strip_id(line: &str) -> Option<&str> {
    let rest = line.strip_prefix("{\"id\":")?;
    let comma = rest.find(',')?;
    Some(&rest[comma + 1..])
}

/// Checks one cold or write reply against its loop's expectations.
pub fn check(req: &Req, line: &str, expect: &Expect) -> Result<(), String> {
    let reply = json::parse(line)?;
    if number(&reply, "id")? != req.id {
        return Err("reply id does not match the request".into());
    }
    if !flag(&reply, "ok")? {
        return Err(format!("request failed: {line}"));
    }
    let p = field(&reply, "payload")?;
    let alpha = expect.alpha;
    let scp = |p: &Json| -> Result<(), String> {
        let (ii, rate) = expect.scp8.ok_or("no SCP expectation")?;
        same(
            "SCP initiation interval",
            rational(p, "initiation_interval_rational")?,
            ii,
        )?;
        same("SCP rate", rational(p, "rate_rational")?, rate)
    };
    match (req.verb, req.depth) {
        ("analyze", _) => same("cycle time", rational(p, "cycle_time_rational")?, alpha)?,
        ("schedule" | "scp", Some(_)) => scp(p)?,
        ("schedule", None) => same(
            "initiation interval",
            rational(p, "initiation_interval_rational")?,
            alpha,
        )?,
        ("rate", _) => {
            same(
                "measured rate",
                rational(p, "measured_rational")?,
                alpha.recip(),
            )?;
            same(
                "optimal rate",
                rational(p, "optimal_rational")?,
                alpha.recip(),
            )?;
            if !flag(p, "time_optimal")? {
                return Err("rate is not time-optimal".into());
            }
        }
        ("trace", _) => {
            let (start, repeat) = expect.frustum.ok_or("no frustum expectation")?;
            let period = number(p, "period")?;
            if (number(p, "start_time")?, number(p, "repeat_time")?) != (start, repeat)
                || period != repeat - start
            {
                return Err(format!("trace window differs from [{start}, {repeat}]"));
            }
            // The window must hold a whole number of iterations at α*.
            if (u128::from(period) * u128::from(alpha.denom())) % u128::from(alpha.numer()) != 0 {
                return Err(format!("period {period} is not a multiple of {alpha}"));
            }
            if number(p, "events_checked")? == 0 {
                return Err("trace replay checked no events".into());
            }
        }
        ("storage", _) => {
            let (before, after) = expect.storage.ok_or("no storage expectation")?;
            same(
                "rate after storage",
                rational(p, "rate_after_rational")?,
                alpha.recip(),
            )?;
            let got = (
                number(p, "locations_before")? as usize,
                number(p, "locations_after")? as usize,
            );
            if got != (before, after) {
                return Err(format!(
                    "storage locations {got:?}, expected {:?}",
                    (before, after)
                ));
            }
        }
        ("explain", _) => {
            if !flag(p, "validated")? {
                return Err("explain witness did not validate".into());
            }
            same(
                "explain cycle time",
                rational(p, "cycle_time_rational")?,
                alpha,
            )?;
            same("explain rate", rational(p, "rate_rational")?, alpha.recip())?;
        }
        (verb, _) => return Err(format!("no oracle for verb {verb}")),
    }
    Ok(())
}

/// The recorded hit replies of the fleet's hot pool, keyed by
/// `(hot index, verb index)`, with their ids stripped.
pub type HitBook = HashMap<(usize, usize), String>;

/// Checks one hit reply byte for byte.
pub fn check_hit(req: &Req, line: &str, book: &HitBook) -> Result<(), String> {
    let want = book
        .get(&(req.loop_idx, req.verb_idx))
        .ok_or("no recorded reply for this hot key")?;
    match strip_id(line) {
        Some(got) if got == want => Ok(()),
        _ => Err(format!("hit reply differs from the recorded one: {line}")),
    }
}
