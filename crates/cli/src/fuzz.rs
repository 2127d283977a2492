//! The `tpnc fuzz` subcommand: conformance fuzzing from the command
//! line.
//!
//! Generates a seeded stream of live, safe SDSP loop bodies, pushes each
//! through the differential oracle stack of [`tpn_conform`], and — with
//! `--chaos` — storms the compile service with deterministic fault
//! injection.  Failing cases are dumped as replayable `.sdsp` A-code
//! files that feed straight back into every other `tpnc` subcommand
//! (`tpnc analyze fuzz-failures/case-....sdsp`).
//!
//! With `--mutate`, the run instead *injects* a rate bug into every
//! case's simulated net and fails unless at least two independent
//! oracles catch each applicable injection — the harness testing the
//! harness.
//!
//! With `--exec`, every case additionally passes through the semantic
//! execution oracle ([`tpn_conform::exec`]): programs emitted from both
//! scheduling engines run on the verifying machine and every value must
//! agree bit-exactly with the dataflow interpreter, with kernel
//! initiation intervals cross-checked against the exhaustive optimum on
//! small nets. Failing dumps then carry the env seed and engine
//! selection as `;` comments, and `--replay FILE` re-runs a dump
//! end-to-end from the file alone.

use std::path::Path;

use serde::Serialize;
use tpn_conform::{
    check_exec, check_mutated, check_sdsp, env_seed, run_chaos, ChaosConfig, ChaosReport,
    ExecConfig, ExecReport, Mutation, MutationOutcome, OracleConfig, Shape,
};

use crate::{Format, Invocation, Render};

/// Requests one `--chaos` run sends through the service.
const CHAOS_REQUESTS: u64 = 240;

/// Aggregate result of a fuzz run, serialised under `--format json`.
#[derive(Debug, Serialize)]
struct FuzzSummary {
    seed: u64,
    shape: String,
    cases: u64,
    passed: u64,
    failed: u64,
    enumeration_skips: u64,
    multiple_critical: u64,
    max_nodes: usize,
    /// Whether the semantic execution oracle ran (`--exec`).
    exec: bool,
    /// `(node, iteration)` values compared bit-exactly across the
    /// frustum-emitted, analytic-emitted and interpreted executions.
    exec_values_checked: u64,
    /// Cases whose kernel initiation intervals were certified equal to
    /// the exhaustive optimum.
    exec_exact_confirmed: u64,
    /// Cases whose nets exceeded the exhaustive checker's size gate.
    exec_exact_skipped: u64,
    disagreements: Vec<String>,
    reproducers: Vec<String>,
    dump_errors: Vec<String>,
}

impl Render for FuzzSummary {
    fn render_text(&self) -> String {
        let mut out = format!(
            "fuzz: seed {} shape {} cases {} -> {} passed, {} failed\n  \
             multiple-critical {}  enumeration-skips {}  max nodes {}",
            self.seed,
            self.shape,
            self.cases,
            self.passed,
            self.failed,
            self.multiple_critical,
            self.enumeration_skips,
            self.max_nodes
        );
        if self.exec {
            out.push_str(&format!(
                "\n  exec: {} values bit-checked, {} exact-II confirmations, {} nets past the exact gate",
                self.exec_values_checked, self.exec_exact_confirmed, self.exec_exact_skipped
            ));
        }
        for d in &self.disagreements {
            out.push_str(&format!("\n  FAIL {d}"));
        }
        for r in &self.reproducers {
            out.push_str(&format!("\n  reproducer {r}"));
        }
        for e in &self.dump_errors {
            out.push_str(&format!("\n  DUMP {e}"));
        }
        out
    }
}

/// Aggregate result of a mutation run.
#[derive(Debug, Serialize)]
struct MutationSummary {
    seed: u64,
    shape: String,
    mutation: String,
    cases: u64,
    caught: u64,
    not_applicable: u64,
    missed: u64,
    min_oracles: usize,
}

impl Render for MutationSummary {
    fn render_text(&self) -> String {
        format!(
            "fuzz --mutate {}: seed {} shape {} cases {}\n  \
             caught {} (min {} oracles)  not-applicable {}  missed {}",
            self.mutation,
            self.seed,
            self.shape,
            self.cases,
            self.caught,
            self.min_oracles,
            self.not_applicable,
            self.missed
        )
    }
}

/// Everything a dumped reproducer records beyond the A-code itself —
/// enough to replay the failing case end-to-end from the `.sdsp` file
/// alone, with `tpnc fuzz --replay FILE`.
#[derive(Clone, Copy, Debug, PartialEq)]
struct ReproducerMeta {
    seed: u64,
    case: u64,
    shape: Shape,
    /// The execution oracle's input seed, when `--exec` was on.
    env_seed: Option<u64>,
}

impl ReproducerMeta {
    /// The comment header embedded after the `.sdsp` magic line. The
    /// A-code reader strips `;` comments, so the metadata rides along
    /// without affecting any other consumer of the file.
    fn header(&self) -> String {
        let mut out = String::from("; tpnc fuzz reproducer -- replay: tpnc fuzz --replay <file>\n");
        out.push_str(&format!(
            "; seed {} case {} shape {}\n",
            self.seed,
            self.case,
            self.shape.as_str()
        ));
        if let Some(env) = self.env_seed {
            out.push_str(&format!(
                "; env-seed {env} engines frustum,analytic,interp\n"
            ));
        }
        out
    }

    /// Parses the metadata comments back out of a dumped file. Returns
    /// `None` when the file carries no recognisable header (e.g. a
    /// hand-written A-code loop).
    fn parse(text: &str) -> Option<ReproducerMeta> {
        let mut meta: Option<ReproducerMeta> = None;
        let mut env = None;
        for line in text.lines() {
            let Some(comment) = line.trim().strip_prefix(';') else {
                continue;
            };
            let toks: Vec<&str> = comment.split_whitespace().collect();
            match toks.as_slice() {
                ["seed", seed, "case", case, "shape", shape, ..] => {
                    meta = Some(ReproducerMeta {
                        seed: seed.parse().ok()?,
                        case: case.parse().ok()?,
                        shape: Shape::parse(shape)?,
                        env_seed: None,
                    });
                }
                ["env-seed", value, ..] => env = Some(value.parse().ok()?),
                _ => {}
            }
        }
        meta.map(|m| ReproducerMeta { env_seed: env, ..m })
    }
}

/// Writes one failing case as a replayable `.sdsp` file — the A-code
/// plus a comment header carrying the generation seed, env seed and
/// engine selection — creating the dump directory on first use.
/// Filesystem trouble (missing parent, read-only directory, the
/// directory path occupied by a plain file) comes back as a typed
/// `cannot create ...` / `cannot write ...` message — never a panic,
/// and never by discarding the run's summary.
fn dump_reproducer(
    dir: &str,
    meta: ReproducerMeta,
    sdsp: &tpn::dataflow::Sdsp,
) -> Result<String, String> {
    std::fs::create_dir_all(dir)
        .map_err(|e| format!("cannot create reproducer directory {dir}: {e}"))?;
    let name = format!(
        "case-{}-{}-{}.sdsp",
        meta.shape.as_str(),
        meta.seed,
        meta.case
    );
    let path = Path::new(dir).join(&name);
    // The metadata goes immediately after the `.sdsp` magic line: the
    // CLI sniffs the format by the leading `.sdsp`, and the reader
    // skips `;` comments anywhere.
    let acode = tpn::dataflow::acode::write(sdsp);
    let (magic, rest) = acode.split_once('\n').unwrap_or((acode.as_str(), ""));
    let contents = format!("{magic}\n{}{rest}", meta.header());
    std::fs::write(&path, contents)
        .map_err(|e| format!("cannot write reproducer {}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

/// Replays a dumped reproducer end-to-end: the rate-oracle stack plus —
/// when the dump records an env seed, or `--exec` is given — the
/// semantic execution oracle under exactly the recorded inputs.
fn replay(invocation: &Invocation, file: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
    let sdsp = tpn::dataflow::acode::read(&text).map_err(|e| format!("{file}: {e}"))?;
    let meta = ReproducerMeta::parse(&text);
    let case = meta.map_or(0, |m| m.case);
    let report = check_sdsp(case, &sdsp, &OracleConfig::default());
    let mut failures: Vec<String> = report
        .disagreements
        .iter()
        .map(|d| format!("case {case}: {d}"))
        .collect();
    let exec_seed = meta.and_then(|m| m.env_seed);
    let exec_report: Option<ExecReport> = if exec_seed.is_some() || invocation.exec {
        let seed = exec_seed.unwrap_or_else(|| env_seed(meta.map_or(0, |m| m.seed), case));
        let exec = check_exec(case, &sdsp, seed, &ExecConfig::default());
        failures.extend(
            exec.disagreements
                .iter()
                .map(|d| format!("case {case}: {d}")),
        );
        Some(exec)
    } else {
        None
    };
    match invocation.format {
        Format::Json => {
            let mut line = serde_json::to_string(&report).unwrap();
            if let Some(exec) = &exec_report {
                line.pop();
                line.push_str(",\"exec\":");
                line.push_str(&serde_json::to_string(exec).unwrap());
                line.push('}');
            }
            println!("{line}");
        }
        Format::Text | Format::Prometheus => {
            println!(
                "replay {file}: case {case} -> {}",
                if failures.is_empty() { "ok" } else { "FAILED" }
            );
            if let Some(exec) = &exec_report {
                println!(
                    "  exec: env-seed {} pattern {} values {} frustum-II {} analytic-II {} exact-II {}",
                    exec.env_seed,
                    exec.pattern,
                    exec.values_checked,
                    exec.frustum_ii.as_deref().unwrap_or("-"),
                    exec.analytic_ii.as_deref().unwrap_or("-"),
                    exec.exact_ii.as_deref().unwrap_or("-"),
                );
            }
            for f in &failures {
                println!("  FAIL {f}");
            }
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!("{} replay failure(s)", failures.len()))
    }
}

/// Runs `tpnc fuzz`. Prints a summary (text or JSON) and errors — making
/// the process exit nonzero — on any oracle disagreement, chaos
/// violation, or missed mutation.
pub fn run(invocation: &Invocation) -> Result<(), String> {
    if let Some(file) = &invocation.replay {
        return replay(invocation, file);
    }
    let seed = invocation.seed.unwrap_or(0);
    let cases = invocation.cases.unwrap_or(100);
    let shape = match &invocation.shape {
        None => Shape::Mixed,
        Some(name) => Shape::parse(name).ok_or_else(|| {
            format!("bad --shape value {name:?} (mixed|chains|rings|multi-critical|near-tie)")
        })?,
    };
    let mutation = match &invocation.mutate {
        None => None,
        Some(name) => Some(
            Mutation::parse(name)
                .ok_or_else(|| format!("bad --mutate value {name:?} (slow-node|extra-token)"))?,
        ),
    };
    let dump_dir = invocation.dump.as_deref().unwrap_or("fuzz-failures");
    let threads = invocation.jobs.unwrap_or_else(tpn::batch::default_threads);
    let config = OracleConfig::default();
    let case_ids: Vec<u64> = (0..cases).collect();

    match mutation {
        Some(mutation) => {
            let outcomes = tpn::batch::parallel_map(&case_ids, threads, |_, &case| {
                let sdsp = tpn_conform::generate(seed, case, shape);
                check_mutated(case, &sdsp, mutation, &config)
            });
            let mut summary = MutationSummary {
                seed,
                shape: shape.as_str().to_string(),
                mutation: mutation.as_str().to_string(),
                cases,
                caught: 0,
                not_applicable: 0,
                missed: 0,
                min_oracles: usize::MAX,
            };
            let mut failures = Vec::new();
            for (case, outcome) in case_ids.iter().zip(&outcomes) {
                match outcome {
                    MutationOutcome::Caught(oracles) => {
                        summary.caught += 1;
                        summary.min_oracles = summary.min_oracles.min(oracles.len());
                        if oracles.len() < 2 {
                            failures.push(format!(
                                "case {case}: only {oracles:?} caught the injected bug"
                            ));
                        }
                    }
                    MutationOutcome::NotApplicable => summary.not_applicable += 1,
                    MutationOutcome::Missed => {
                        summary.missed += 1;
                        failures.push(format!("case {case}: injected bug went unnoticed"));
                    }
                }
            }
            if summary.caught == 0 {
                failures.push("no case was applicable to the mutation".to_string());
            }
            if summary.min_oracles == usize::MAX {
                summary.min_oracles = 0;
            }
            // parse_args rejects --format prometheus for fuzz, so
            // render() dispatches between the JSON line and the text.
            println!("{}", summary.render(invocation.format)?);
            if failures.is_empty() {
                Ok(())
            } else {
                Err(failures.join("\n"))
            }
        }
        None => {
            let exec_config = ExecConfig::default();
            let reports = tpn::batch::parallel_map(&case_ids, threads, |_, &case| {
                let sdsp = tpn_conform::generate(seed, case, shape);
                let rates = check_sdsp(case, &sdsp, &config);
                let exec = invocation
                    .exec
                    .then(|| check_exec(case, &sdsp, env_seed(seed, case), &exec_config));
                (rates, exec)
            });
            let mut summary = FuzzSummary {
                seed,
                shape: shape.as_str().to_string(),
                cases,
                passed: 0,
                failed: 0,
                enumeration_skips: 0,
                multiple_critical: 0,
                max_nodes: 0,
                exec: invocation.exec,
                exec_values_checked: 0,
                exec_exact_confirmed: 0,
                exec_exact_skipped: 0,
                disagreements: Vec::new(),
                reproducers: Vec::new(),
                dump_errors: Vec::new(),
            };
            for (report, exec) in &reports {
                summary.max_nodes = summary.max_nodes.max(report.nodes);
                if !report.enumerated {
                    summary.enumeration_skips += 1;
                }
                if report.multiple_critical {
                    summary.multiple_critical += 1;
                }
                let exec_failed = exec.as_ref().is_some_and(|e| !e.passed());
                if let Some(exec) = exec {
                    summary.exec_values_checked += exec.values_checked;
                    if exec.exact_ii.is_some() {
                        summary.exec_exact_confirmed += u64::from(exec.passed());
                    } else {
                        summary.exec_exact_skipped += 1;
                    }
                }
                if report.passed() && !exec_failed {
                    summary.passed += 1;
                } else {
                    summary.failed += 1;
                    for d in &report.disagreements {
                        summary
                            .disagreements
                            .push(format!("case {}: {d}", report.case));
                    }
                    if let Some(exec) = exec {
                        for d in &exec.disagreements {
                            summary
                                .disagreements
                                .push(format!("case {}: {d}", report.case));
                        }
                    }
                    let sdsp = tpn_conform::generate(seed, report.case, shape);
                    let meta = ReproducerMeta {
                        seed,
                        case: report.case,
                        shape,
                        env_seed: exec.as_ref().map(|e| e.env_seed),
                    };
                    // A broken dump directory must not abort the run
                    // mid-summary: record the typed message and keep
                    // reporting the disagreements that matter.
                    match dump_reproducer(dump_dir, meta, &sdsp) {
                        Ok(path) => summary.reproducers.push(path),
                        Err(e) => summary
                            .dump_errors
                            .push(format!("case {}: {e}", report.case)),
                    }
                }
            }
            let chaos: Option<ChaosReport> = invocation.chaos.then(|| {
                run_chaos(&ChaosConfig {
                    seed,
                    requests: CHAOS_REQUESTS,
                    workers: threads.min(8),
                    restart: true,
                })
            });
            match invocation.format {
                Format::Json => {
                    let mut line = summary.render(Format::Json)?;
                    if let Some(chaos) = &chaos {
                        line.pop();
                        line.push_str(",\"chaos\":");
                        line.push_str(&serde_json::to_string(chaos).unwrap());
                        line.push('}');
                    }
                    println!("{line}");
                }
                // parse_args rejects --format prometheus for fuzz.
                Format::Text | Format::Prometheus => {
                    println!("{}", summary.render(invocation.format)?);
                    if let Some(chaos) = &chaos {
                        println!(
                            "  chaos: {} requests ({} clean, {} cancels/{} bit, {} deadlines/{} bit, {} panics), {} probes -> {}",
                            chaos.requests,
                            chaos.clean,
                            chaos.injected_cancels,
                            chaos.effective_cancels,
                            chaos.injected_deadlines,
                            chaos.effective_deadlines,
                            chaos.injected_panics,
                            chaos.coherence_probes,
                            if chaos.passed() { "ok" } else { "FAILED" }
                        );
                        for v in &chaos.violations {
                            println!("  CHAOS {v}");
                        }
                    }
                }
            }
            let dumped = !summary.reproducers.is_empty();
            let mut failures = summary.disagreements;
            failures.extend(summary.dump_errors.iter().cloned());
            if let Some(chaos) = &chaos {
                failures.extend(chaos.violations.iter().cloned());
            }
            if failures.is_empty() {
                Ok(())
            } else if dumped {
                Err(format!(
                    "{} conformance failure(s); reproducers in {dump_dir}/",
                    failures.len()
                ))
            } else {
                Err(format!("{} conformance failure(s)", failures.len()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{parse_args, Command};

    fn parse(line: &str) -> Result<crate::Invocation, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn fuzz_is_a_zero_input_subcommand() {
        let inv = parse("fuzz --seed 7 --cases 50 --shape rings --chaos").unwrap();
        assert_eq!(inv.command, Command::Fuzz);
        assert_eq!(inv.seed, Some(7));
        assert_eq!(inv.cases, Some(50));
        assert_eq!(inv.shape.as_deref(), Some("rings"));
        assert!(inv.chaos);
        assert!(parse("fuzz loop.tpn").is_err());
    }

    #[test]
    fn fuzz_flags_are_rejected_elsewhere() {
        assert!(parse("analyze x.tpn --seed 3").is_err());
        assert!(parse("analyze x.tpn --chaos").is_err());
        assert!(parse("fuzz --socket /tmp/t.sock").is_err());
        assert!(parse("fuzz --cases 0").is_err());
    }

    #[test]
    fn small_fuzz_run_passes() {
        let inv = parse("fuzz --cases 5").unwrap();
        super::run(&inv).unwrap();
    }

    fn meta(env_seed: Option<u64>) -> super::ReproducerMeta {
        super::ReproducerMeta {
            seed: 0,
            case: 0,
            shape: tpn_conform::Shape::Chains,
            env_seed,
        }
    }

    #[test]
    fn reproducer_dump_creates_the_directory() {
        let dir = std::env::temp_dir().join("tpnc-fuzz-dump-creates");
        let _ = std::fs::remove_dir_all(&dir);
        let dir = dir.display().to_string();
        let sdsp = tpn_conform::generate(0, 0, tpn_conform::Shape::Chains);
        let path = super::dump_reproducer(&dir, meta(None), &sdsp).unwrap();
        assert!(std::path::Path::new(&path).is_file(), "missing {path}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_reproducer_directory_is_a_typed_error() {
        // Occupy the dump-directory path with a plain file: create_dir_all
        // fails the same way a read-only parent would, deterministically.
        let blocker = std::env::temp_dir().join("tpnc-fuzz-dump-blocked");
        std::fs::write(&blocker, b"not a directory").unwrap();
        let dir = blocker.display().to_string();
        let sdsp = tpn_conform::generate(0, 0, tpn_conform::Shape::Chains);
        let err = super::dump_reproducer(&dir, meta(None), &sdsp).unwrap_err();
        assert!(
            err.contains("cannot create reproducer directory"),
            "got: {err}"
        );
        let _ = std::fs::remove_file(&blocker);
    }

    #[test]
    fn reproducer_metadata_round_trips_and_stays_replayable() {
        let dir = std::env::temp_dir().join("tpnc-fuzz-meta-roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        let sdsp = tpn_conform::generate(3, 7, tpn_conform::Shape::Rings);
        let m = super::ReproducerMeta {
            seed: 3,
            case: 7,
            shape: tpn_conform::Shape::Rings,
            env_seed: Some(tpn_conform::env_seed(3, 7)),
        };
        let path = super::dump_reproducer(&dir.display().to_string(), m, &sdsp).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        // The CLI's format sniffer still sees an A-code file, the reader
        // still parses it to the same graph, and the metadata survives.
        assert!(text.starts_with(".sdsp"));
        let reread = tpn::dataflow::acode::read(&text).unwrap();
        assert_eq!(reread.num_nodes(), sdsp.num_nodes());
        assert_eq!(super::ReproducerMeta::parse(&text), Some(m));
        // Hand-written A-code without a header parses to no metadata.
        assert_eq!(super::ReproducerMeta::parse(".sdsp\n.end\n"), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_runs_end_to_end_from_the_dump_alone() {
        let dir = std::env::temp_dir().join("tpnc-fuzz-replay-e2e");
        let _ = std::fs::remove_dir_all(&dir);
        let sdsp = tpn_conform::generate(5, 11, tpn_conform::Shape::Mixed);
        let m = super::ReproducerMeta {
            seed: 5,
            case: 11,
            shape: tpn_conform::Shape::Mixed,
            env_seed: Some(tpn_conform::env_seed(5, 11)),
        };
        let path = super::dump_reproducer(&dir.display().to_string(), m, &sdsp).unwrap();
        let inv = parse(&format!("fuzz --replay {path}")).unwrap();
        super::run(&inv).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn exec_oracle_runs_from_the_cli() {
        let inv = parse("fuzz --cases 4 --exec").unwrap();
        assert!(inv.exec);
        super::run(&inv).unwrap();
    }

    #[test]
    fn exec_and_replay_are_fuzz_only() {
        assert!(parse("analyze x.tpn --exec").is_err());
        assert!(parse("schedule x.tpn --replay y.sdsp").is_err());
    }

    #[test]
    fn small_mutation_run_catches_the_bug() {
        let inv = parse("fuzz --cases 5 --mutate slow-node").unwrap();
        super::run(&inv).unwrap();
    }
}
