//! Implementation of `tpnc`, the command-line driver.
//!
//! ```text
//! tpnc analyze  <file>...           critical cycles and the optimal rate
//! tpnc schedule <file>... [--scp L] the time-optimal kernel (optionally on
//!                                   an L-stage single-clean-pipeline machine)
//! tpnc emit     <file>... [--iterations N] [--scp L]
//!                                   VLIW bundles over the loop's buffers
//! tpnc dot      <file>... [--pn]    Graphviz of the SDSP (or its SDSP-PN)
//! tpnc behavior <file>...           the behaviour graph up to the frustum
//! tpnc storage  <file>... [--balance]  minimise storage (or balance buffering)
//! tpnc acode    <file>...           dump the compiled SDSP as A-code
//! tpnc trace    <file> [--scp L]    replay-validated firing-event timeline
//!                                   (Chrome trace JSON; Perfetto-loadable)
//! tpnc explain  <file>...           the self-validated scheduling witness:
//!                                   critical cycle, rate certificate with
//!                                   per-place slack, engine audit,
//!                                   balanced issue words
//! ```
//!
//! Every subcommand above takes `--format text|json|prometheus`, `--profile`
//! (append a pipeline profile: stage timings, engine and detection
//! counters), `--jobs N` (worker threads for multiple inputs),
//! `--engine` and one or more inputs;
//! multiple inputs are compiled concurrently through [`tpn::batch`]. Each
//! `<file>` is a loop in the SISAL-flavoured language — or an A-code dump
//! produced by `tpnc acode` (recognised by its `.sdsp` header), so
//! compiled loops can be saved and re-analysed — or `-` for stdin.
//!
//! Flags are described declaratively in [`static@OPTIONS`]: one table row per
//! flag (name, value placeholder, help, the commands whose code reads it,
//! setter), from which both the parser and every synopsis of [`usage`]
//! are derived; a flag given to any other command is rejected. All logic
//! lives here so it can be unit-tested; `main.rs` only forwards
//! `std::env::args` and prints.

#![deny(unsafe_code)]

pub mod fuzz;
pub mod output;
#[cfg(unix)]
#[allow(unsafe_code)]
mod poll;
#[cfg(unix)]
pub mod route;
#[cfg(unix)]
pub mod serve;

use std::fmt::Write as _;

use serde::Serialize;
use tpn::CompiledLoop;
use tpn_sched::behavior::BehaviorGraph;

pub use output::OutputFormat;
/// The historical name of [`OutputFormat`], kept for call sites.
pub use output::OutputFormat as Format;
pub use output::Render;

/// A parsed command line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Invocation {
    /// The subcommand.
    pub command: Command,
    /// The input paths (`-` for stdin), in command-line order.
    pub inputs: Vec<String>,
    /// `--scp L`.
    pub scp_depth: Option<u64>,
    /// `--iterations N` (emit).
    pub iterations: u64,
    /// `--pn` (dot).
    pub petri_form: bool,
    /// `--balance` (storage).
    pub balance: bool,
    /// `--format text|json`.
    pub format: Format,
    /// `--profile`.
    pub profile: bool,
    /// `--trace FILE`: also write the firing-event timeline (Chrome
    /// trace-event JSON) to FILE.
    pub trace_path: Option<String>,
    /// `--jobs N`: worker threads for multiple inputs.
    pub jobs: Option<usize>,
    /// `--socket PATH` (serve/route, repeatable): listen on these
    /// Unix-domain sockets instead of stdin/stdout; route's front
    /// socket is the first one.
    pub sockets: Vec<String>,
    /// `--tcp ADDR` (serve, repeatable): also listen on these TCP
    /// addresses (e.g. `127.0.0.1:7070`).
    pub tcp: Vec<String>,
    /// `--store DIR` (serve/route): persistent artifact store root;
    /// route gives each shard `DIR/shard-<i>`.
    pub store: Option<String>,
    /// `--rate-limit N` (serve/route): per-client sustained requests
    /// per second; enables the token-bucket limiter (burst N, at most 64
    /// in flight).
    pub rate_limit: Option<u64>,
    /// `--shards N` (route): serve processes to spawn and route over.
    pub shards: Option<usize>,
    /// `--queue N` (serve/route): admission queue capacity.
    pub queue: Option<usize>,
    /// `--cache W` (serve/route): result-cache weight capacity.
    pub cache: Option<u64>,
    /// `--journal FILE` (serve): also append every request-journal
    /// event to FILE as NDJSON.
    pub journal: Option<String>,
    /// `--seed N` (fuzz): base seed of the case stream.
    pub seed: Option<u64>,
    /// `--cases N` (fuzz): cases to generate.
    pub cases: Option<u64>,
    /// `--shape S` (fuzz): generator bias.
    pub shape: Option<String>,
    /// `--chaos` (fuzz): also run the service chaos mode.
    pub chaos: bool,
    /// `--mutate M` (fuzz): inject a rate bug and require the oracle
    /// stack to catch it.
    pub mutate: Option<String>,
    /// `--dump DIR` (fuzz): where failing cases land as `.sdsp` files.
    pub dump: Option<String>,
    /// `--exec` (fuzz): also run the semantic execution oracle — emit
    /// from both engines, execute on the verifying machine, compare
    /// every value bit-exactly against the interpreter, and cross-check
    /// kernel initiation intervals against the exhaustive optimum.
    pub exec: bool,
    /// `--replay FILE` (fuzz): re-run the oracle stack (and the
    /// execution oracle) on a dumped `.sdsp` reproducer, using the env
    /// seed and engine metadata embedded in its comment header.
    pub replay: Option<String>,
    /// `--engine auto|analytic|frustum`: scheduling engine (default
    /// auto: analytic on pure marked graphs, frustum otherwise).
    pub engine: tpn::SchedulePolicy,
}

impl Invocation {
    /// The first input path (callers that only support one input).
    ///
    /// # Errors
    ///
    /// [`NoInputError`] when the invocation carries no inputs. Every
    /// invocation produced by [`parse_args`] has at least one, but
    /// hand-built ones may not.
    pub fn input(&self) -> Result<&str, NoInputError> {
        self.inputs.first().map(String::as_str).ok_or(NoInputError)
    }
}

/// Error of [`Invocation::input`]: the invocation has no input paths.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct NoInputError;

impl std::fmt::Display for NoInputError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("invocation has no input files")
    }
}

impl std::error::Error for NoInputError {}

/// Subcommands of `tpnc`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Command {
    /// Critical-cycle analysis.
    Analyze,
    /// Kernel derivation.
    Schedule,
    /// VLIW emission.
    Emit,
    /// Graphviz export.
    Dot,
    /// Behaviour graph.
    Behavior,
    /// Storage transformation.
    Storage,
    /// A-code dump of the compiled SDSP.
    Acode,
    /// Replay-validated firing-event timeline.
    Trace,
    /// The self-validated scheduling witness.
    Explain,
    /// Long-running compile service (NDJSON over stdin/stdout or
    /// Unix/TCP sockets).
    Serve,
    /// Digest-sharded router: spawns `--shards N` serve processes and
    /// forwards by cache-key digest.
    Route,
    /// Conformance fuzzing: generated nets through the differential
    /// oracle stack, optionally with service chaos mode.
    Fuzz,
}

/// The operands of every subcommand that compiles loop files.
const FILES: &str = "<file|-> [<file> ...]";

/// Every subcommand with its name and the operands its synopsis lists
/// before the flags, in usage order.
const COMMANDS: &[(Command, &str, &str)] = &[
    (Command::Analyze, "analyze", FILES),
    (Command::Schedule, "schedule", FILES),
    (Command::Emit, "emit", FILES),
    (Command::Dot, "dot", FILES),
    (Command::Behavior, "behavior", FILES),
    (Command::Storage, "storage", FILES),
    (Command::Acode, "acode", FILES),
    (Command::Trace, "trace", FILES),
    (Command::Explain, "explain", FILES),
    (Command::Serve, "serve", ""),
    (Command::Route, "route", "--socket PATH"),
    (Command::Fuzz, "fuzz", ""),
];

impl Command {
    /// The subcommand's word on the command line.
    fn name(self) -> &'static str {
        COMMANDS
            .iter()
            .find(|c| c.0 == self)
            .expect("every command is listed")
            .1
    }

    /// Whether the subcommand compiles loop files: all but `serve`,
    /// `route` and `fuzz`, which read requests or generate cases.
    fn takes_files(self) -> bool {
        !matches!(self, Command::Serve | Command::Route | Command::Fuzz)
    }
}

/// One row of the option table: a flag, its value placeholder (if it
/// takes one), its help line, the commands that read it, and the setter
/// applying it to an [`Invocation`].
pub struct OptSpec {
    /// The flag, e.g. `--scp`.
    pub flag: &'static str,
    /// Placeholder for the flag's value; `None` for boolean flags.
    pub value: Option<&'static str>,
    /// One-line description, shown in [`usage`].
    pub help: &'static str,
    /// Whether the command's code reads the flag's value; the parser
    /// rejects the flag everywhere else.
    applies: fn(Command) -> bool,
    apply: fn(&mut Invocation, Option<&str>) -> Result<(), String>,
}

fn parse_value<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("bad {flag} value {v:?}"))
}

/// The declarative option table: the parser and every synopsis of
/// [`usage`] are derived from these rows, so adding a flag is one entry
/// here.
pub static OPTIONS: &[OptSpec] = &[
    OptSpec {
        flag: "--scp",
        value: Some("L"),
        help: "run on an L-stage single-clean-pipeline machine (behavior: its --trace only)",
        applies: |c| {
            matches!(
                c,
                Command::Schedule | Command::Emit | Command::Behavior | Command::Trace
            )
        },
        apply: |inv, v| {
            inv.scp_depth = Some(parse_value("--scp", v.unwrap())?);
            Ok(())
        },
    },
    OptSpec {
        flag: "--iterations",
        value: Some("N"),
        help: "iterations to emit (default 16)",
        applies: |c| c == Command::Emit,
        apply: |inv, v| {
            inv.iterations = parse_value("--iterations", v.unwrap())?;
            Ok(())
        },
    },
    OptSpec {
        flag: "--pn",
        value: None,
        help: "export the SDSP-PN instead of the SDSP",
        applies: |c| c == Command::Dot,
        apply: |inv, _| {
            inv.petri_form = true;
            Ok(())
        },
    },
    OptSpec {
        flag: "--balance",
        value: None,
        help: "balance buffering instead of minimising storage",
        applies: |c| c == Command::Storage,
        apply: |inv, _| {
            inv.balance = true;
            Ok(())
        },
    },
    OptSpec {
        flag: "--format",
        value: Some("text|json|prometheus"),
        help: "output format (default text; prometheus prints only the metrics exposition)",
        applies: |c| c.takes_files() || c == Command::Fuzz,
        apply: |inv, v| {
            let v = v.unwrap();
            inv.format =
                OutputFormat::parse(v).ok_or_else(|| format!("bad --format value {v:?}"))?;
            Ok(())
        },
    },
    OptSpec {
        flag: "--profile",
        value: None,
        help: "append a pipeline profile (stage timings, engine counters)",
        applies: Command::takes_files,
        apply: |inv, _| {
            inv.profile = true;
            Ok(())
        },
    },
    OptSpec {
        flag: "--trace",
        value: Some("FILE"),
        help: "also write the Chrome trace JSON to FILE (one input only)",
        applies: |c| matches!(c, Command::Behavior | Command::Schedule | Command::Trace),
        apply: |inv, v| {
            inv.trace_path = Some(v.unwrap().to_string());
            Ok(())
        },
    },
    OptSpec {
        flag: "--jobs",
        value: Some("N"),
        help: "worker threads for multiple inputs (default: all cores)",
        applies: |_| true,
        apply: |inv, v| {
            let n: usize = parse_value("--jobs", v.unwrap())?;
            if n == 0 {
                return Err("--jobs must be at least 1".to_string());
            }
            inv.jobs = Some(n);
            Ok(())
        },
    },
    OptSpec {
        flag: "--socket",
        value: Some("PATH"),
        help: "listen on a Unix-domain socket instead of stdin/stdout (repeatable)",
        applies: |c| matches!(c, Command::Serve | Command::Route),
        apply: |inv, v| {
            inv.sockets.push(v.unwrap().to_string());
            Ok(())
        },
    },
    OptSpec {
        flag: "--tcp",
        value: Some("ADDR"),
        help: "also listen on a TCP address, e.g. 127.0.0.1:7070 (repeatable)",
        applies: |c| c == Command::Serve,
        apply: |inv, v| {
            inv.tcp.push(v.unwrap().to_string());
            Ok(())
        },
    },
    OptSpec {
        flag: "--store",
        value: Some("DIR"),
        help: "persistent artifact store root; warm-starts the cache on boot",
        applies: |c| matches!(c, Command::Serve | Command::Route),
        apply: |inv, v| {
            inv.store = Some(v.unwrap().to_string());
            Ok(())
        },
    },
    OptSpec {
        flag: "--rate-limit",
        value: Some("N"),
        help: "per-client sustained requests/second via a token bucket (burst N, 64 in flight)",
        applies: |c| matches!(c, Command::Serve | Command::Route),
        apply: |inv, v| {
            let n: u64 = parse_value("--rate-limit", v.unwrap())?;
            if n == 0 {
                return Err("--rate-limit must be at least 1".to_string());
            }
            inv.rate_limit = Some(n);
            Ok(())
        },
    },
    OptSpec {
        flag: "--shards",
        value: Some("N"),
        help: "serve shards to spawn and route over by cache-key digest (default 2)",
        applies: |c| c == Command::Route,
        apply: |inv, v| {
            let n: usize = parse_value("--shards", v.unwrap())?;
            if n == 0 {
                return Err("--shards must be at least 1".to_string());
            }
            inv.shards = Some(n);
            Ok(())
        },
    },
    OptSpec {
        flag: "--queue",
        value: Some("N"),
        help: "admission queue capacity (default 64)",
        applies: |c| matches!(c, Command::Serve | Command::Route),
        apply: |inv, v| {
            let n: usize = parse_value("--queue", v.unwrap())?;
            if n == 0 {
                return Err("--queue must be at least 1".to_string());
            }
            inv.queue = Some(n);
            Ok(())
        },
    },
    OptSpec {
        flag: "--cache",
        value: Some("W"),
        help: "result-cache weight capacity (default 4096)",
        applies: |c| matches!(c, Command::Serve | Command::Route),
        apply: |inv, v| {
            inv.cache = Some(parse_value("--cache", v.unwrap())?);
            Ok(())
        },
    },
    OptSpec {
        flag: "--journal",
        value: Some("FILE"),
        help: "append every request-journal event to FILE as NDJSON",
        applies: |c| c == Command::Serve,
        apply: |inv, v| {
            inv.journal = Some(v.unwrap().to_string());
            Ok(())
        },
    },
    OptSpec {
        flag: "--seed",
        value: Some("N"),
        help: "base seed of the generated case stream (default 0)",
        applies: |c| c == Command::Fuzz,
        apply: |inv, v| {
            inv.seed = Some(parse_value("--seed", v.unwrap())?);
            Ok(())
        },
    },
    OptSpec {
        flag: "--cases",
        value: Some("N"),
        help: "cases to generate and cross-check (default 100)",
        applies: |c| c == Command::Fuzz,
        apply: |inv, v| {
            let n: u64 = parse_value("--cases", v.unwrap())?;
            if n == 0 {
                return Err("--cases must be at least 1".to_string());
            }
            inv.cases = Some(n);
            Ok(())
        },
    },
    OptSpec {
        flag: "--shape",
        value: Some("S"),
        help: "generator bias: mixed|chains|rings|multi-critical|near-tie",
        applies: |c| c == Command::Fuzz,
        apply: |inv, v| {
            inv.shape = Some(v.unwrap().to_string());
            Ok(())
        },
    },
    OptSpec {
        flag: "--chaos",
        value: None,
        help: "also run the deterministic service chaos mode",
        applies: |c| c == Command::Fuzz,
        apply: |inv, _| {
            inv.chaos = true;
            Ok(())
        },
    },
    OptSpec {
        flag: "--mutate",
        value: Some("M"),
        help: "inject a rate bug (slow-node|extra-token) and require >= 2 oracles to catch it",
        applies: |c| c == Command::Fuzz,
        apply: |inv, v| {
            inv.mutate = Some(v.unwrap().to_string());
            Ok(())
        },
    },
    OptSpec {
        flag: "--dump",
        value: Some("DIR"),
        help: "directory for failing-case .sdsp reproducers (default fuzz-failures)",
        applies: |c| c == Command::Fuzz,
        apply: |inv, v| {
            inv.dump = Some(v.unwrap().to_string());
            Ok(())
        },
    },
    OptSpec {
        flag: "--exec",
        value: None,
        help: "also run the semantic execution oracle: emitted code vs interpreter, bit-exact",
        applies: |c| c == Command::Fuzz,
        apply: |inv, _| {
            inv.exec = true;
            Ok(())
        },
    },
    OptSpec {
        flag: "--replay",
        value: Some("FILE"),
        help: "replay a dumped .sdsp reproducer end-to-end, honouring its embedded env seed",
        applies: |c| c == Command::Fuzz,
        apply: |inv, v| {
            inv.replay = Some(v.unwrap().to_string());
            Ok(())
        },
    },
    OptSpec {
        flag: "--engine",
        value: Some("auto|analytic|frustum"),
        help: "scheduling engine (default auto: analytic on marked graphs)",
        applies: Command::takes_files,
        apply: |inv, v| {
            let v = v.unwrap();
            inv.engine =
                tpn::SchedulePolicy::parse(v).ok_or_else(|| format!("bad --engine value {v:?}"))?;
            Ok(())
        },
    },
];

/// The usage text: one synopsis per subcommand, listing the flags its
/// code reads, then every flag's help line, all from [`static@OPTIONS`].
pub fn usage() -> String {
    let mut s = String::from("usage:");
    for &(command, name, operands) in COMMANDS {
        let _ = write!(s, " tpnc {name}");
        if !operands.is_empty() {
            let _ = write!(s, " {operands}");
        }
        let flags = OPTIONS
            .iter()
            .filter(|o| (o.applies)(command) && !operands.contains(o.flag));
        for opt in flags {
            match opt.value {
                // Only the file commands print the metrics exposition.
                Some(_) if opt.flag == "--format" && !command.takes_files() => {
                    s.push_str(" [--format text|json]");
                }
                Some(v) => {
                    let _ = write!(s, " [{} {v}]", opt.flag);
                }
                None => {
                    let _ = write!(s, " [{}]", opt.flag);
                }
            }
        }
        s.push_str("\n      ");
    }
    s.push_str(" tpnc --help");
    for opt in OPTIONS {
        let _ = write!(s, "\n  {:<22} {}", opt.flag, opt.help);
    }
    s
}

/// Whether a command line (without the program name) asks for the usage
/// text: `tpnc --help` or `tpnc -h`, which print it to stdout and exit 0.
pub fn asks_for_help(args: &[String]) -> bool {
    matches!(args.first().map(String::as_str), Some("--help" | "-h"))
}

/// Parses a command line (without the leading program name).
///
/// # Errors
///
/// A usage message naming the offending argument.
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Invocation, String> {
    let mut args = args.into_iter();
    let word = args.next().ok_or_else(usage)?;
    let command = COMMANDS
        .iter()
        .find(|c| c.1 == word)
        .ok_or_else(|| format!("unknown command {word:?}\n{}", usage()))?
        .0;
    let mut invocation = Invocation {
        command,
        inputs: Vec::new(),
        scp_depth: None,
        iterations: 16,
        petri_form: false,
        balance: false,
        format: Format::Text,
        profile: false,
        trace_path: None,
        jobs: None,
        sockets: Vec::new(),
        tcp: Vec::new(),
        store: None,
        rate_limit: None,
        shards: None,
        queue: None,
        cache: None,
        journal: None,
        seed: None,
        cases: None,
        shape: None,
        chaos: false,
        mutate: None,
        dump: None,
        exec: false,
        replay: None,
        engine: tpn::SchedulePolicy::default(),
    };
    while let Some(arg) = args.next() {
        if let Some(spec) = OPTIONS.iter().find(|o| o.flag == arg) {
            if !(spec.applies)(command) {
                return Err(format!(
                    "{} does not apply to {}\n{}",
                    spec.flag,
                    command.name(),
                    usage()
                ));
            }
            let value = if spec.value.is_some() {
                Some(args.next().ok_or_else(|| {
                    format!("{} needs a value ({})", spec.flag, spec.value.unwrap())
                })?)
            } else {
                None
            };
            (spec.apply)(&mut invocation, value.as_deref())?;
        } else if arg.starts_with("--") {
            return Err(format!("unknown flag {arg:?}\n{}", usage()));
        } else {
            invocation.inputs.push(arg);
        }
    }
    if !command.takes_files() && !invocation.inputs.is_empty() {
        return Err(format!(
            "{} takes no input files\n{}",
            command.name(),
            usage()
        ));
    }
    if command.takes_files() && invocation.inputs.is_empty() {
        return Err(format!("missing input file\n{}", usage()));
    }
    if command == Command::Route && invocation.sockets.is_empty() {
        return Err(format!("route requires --socket PATH\n{}", usage()));
    }
    if invocation.format == Format::Prometheus && !command.takes_files() {
        return Err(format!(
            "--format prometheus applies to file subcommands only\n{}",
            usage()
        ));
    }
    if invocation.trace_path.is_some() && invocation.inputs.len() > 1 {
        return Err(
            "--trace takes a single input (each input would overwrite the file)".to_string(),
        );
    }
    Ok(invocation)
}

/// Compiles one source, transparently accepting A-code dumps.
fn compile(source: &str, invocation: &Invocation) -> Result<CompiledLoop, String> {
    let options = tpn::CompileOptions::new()
        .profile(invocation.profile || invocation.format == Format::Prometheus)
        .engine(invocation.engine);
    if source.trim_start().starts_with(".sdsp") {
        let sdsp = tpn::dataflow::acode::read(source).map_err(|e| e.to_string())?;
        Ok(CompiledLoop::from_sdsp_with(sdsp, options))
    } else {
        CompiledLoop::from_source_with(source, options).map_err(|e| match e {
            tpn::Error::Lang(ref le) => le.render(source),
            other => other.to_string(),
        })
    }
}

/// Executes an invocation against already-loaded source text, returning
/// the output text (in the invocation's [`Format`]).
///
/// # Errors
///
/// Human-readable pipeline errors (with source positions for language
/// diagnostics).
pub fn execute(invocation: &Invocation, source: &str) -> Result<String, String> {
    execute_named(invocation, source, None)
}

fn execute_named(
    invocation: &Invocation,
    source: &str,
    file: Option<&str>,
) -> Result<String, String> {
    let lp = compile(source, invocation)?;
    let mut out = match invocation.format {
        Format::Text => execute_text(invocation, &lp),
        // Prometheus runs the command for its side effects only (so
        // every pipeline stage and engine counter is populated) and
        // prints nothing but the exposition.
        Format::Prometheus => execute_text(invocation, &lp).map(|_| String::new()),
        Format::Json => execute_json(invocation, &lp, file),
    }?;
    if let Some(path) = &invocation.trace_path {
        let trace = match invocation.scp_depth {
            None => lp.firing_trace().map_err(|e| e.to_string())?,
            Some(depth) => lp.scp_trace(depth).map_err(|e| e.to_string())?,
        };
        let mut json = trace.chrome_trace_json();
        json.push('\n');
        std::fs::write(path, json).map_err(|e| format!("error writing {path}: {e}"))?;
    }
    match invocation.format {
        Format::Prometheus => out.push_str(&tpn::metrics::prometheus_report(&lp.metrics_report())),
        Format::Text if invocation.profile => {
            out.push_str(&lp.metrics_report().render_text());
        }
        Format::Json if invocation.profile => {
            out.push_str(&to_json_line(&ProfileJson {
                file: file.map(String::from),
                command: "profile".into(),
                profile: lp.metrics_report(),
            })?);
        }
        Format::Text | Format::Json => {}
    }
    Ok(out)
}

/// Executes every input concurrently on the [`tpn::batch`] worker pool
/// and merges the outputs in input order: raw for a single text input
/// (byte-stable with [`execute`]), `== name ==` headers for several text
/// inputs, and one JSON object per line for `--format json`.
///
/// # Errors
///
/// The failures of every failing input, one per line, prefixed with the
/// input's name when there are several inputs.
pub fn run_batch(invocation: &Invocation, sources: &[(String, String)]) -> Result<String, String> {
    let threads = invocation.jobs.unwrap_or_else(tpn::batch::default_threads);
    let results = tpn::batch::parallel_map(sources, threads, |_, (name, source)| {
        execute_named(invocation, source, Some(name))
    });
    let single = sources.len() == 1;
    let mut out = String::new();
    let mut errors = String::new();
    for ((name, _), result) in sources.iter().zip(results) {
        match result {
            Ok(text) => {
                if !single && invocation.format == Format::Text {
                    let _ = writeln!(out, "== {name} ==");
                }
                out.push_str(&text);
            }
            Err(e) if single => return Err(e),
            Err(e) => {
                let _ = writeln!(errors, "{name}: {e}");
            }
        }
    }
    if errors.is_empty() {
        Ok(out)
    } else {
        Err(errors.trim_end_matches('\n').to_string())
    }
}

fn execute_text(invocation: &Invocation, lp: &CompiledLoop) -> Result<String, String> {
    let mut out = String::new();
    match invocation.command {
        Command::Analyze => {
            let a = lp.analyze().map_err(|e| e.to_string())?;
            let _ = writeln!(out, "loop body: {} instructions", lp.size());
            let _ = writeln!(
                out,
                "input arrays: {:?}, parameters: {:?}",
                lp.sdsp().input_arrays(),
                lp.sdsp().params()
            );
            let _ = writeln!(
                out,
                "critical cycle: [{}], cycle time {}",
                a.critical_nodes.join(" -> "),
                a.cycle_time
            );
            let _ = writeln!(out, "optimal computation rate: {}", a.optimal_rate);
            let _ = writeln!(out, "storage: {} locations", lp.sdsp().storage_locations());
        }
        Command::Schedule => match invocation.scp_depth {
            None => {
                let s = lp.schedule().map_err(|e| e.to_string())?;
                let _ = writeln!(
                    out,
                    "II = {} ({} iterations per {} cycles)",
                    s.initiation_interval(),
                    s.iterations_per_period(),
                    s.period()
                );
                out.push_str(&s.render_kernel());
            }
            Some(depth) => {
                let run = lp.scp(depth).map_err(|e| e.to_string())?;
                let _ = writeln!(
                    out,
                    "SCP depth {}: II = {}, rate {} (bound 1/{}), usage {}",
                    depth,
                    run.schedule.initiation_interval(),
                    run.rates.measured,
                    lp.size(),
                    run.rates.utilization
                );
                out.push_str(&run.schedule.render_kernel());
            }
        },
        Command::Emit => {
            let program = emit_program(invocation, lp)?;
            let _ = writeln!(
                out,
                "; {} bundles, kernel {} cycles, peak width {}, compact size {} ops",
                program.bundles.len(),
                program.period,
                program.max_width,
                program.compact_size()
            );
            out.push_str(&program.render(lp.sdsp(), usize::MAX));
        }
        Command::Dot => {
            if invocation.petri_form {
                let pn = lp.petri_net();
                out.push_str(&tpn_petri::dot::to_dot(&pn.net, &pn.marking));
            } else {
                out.push_str(&tpn_dataflow::dot::to_dot(lp.sdsp()));
            }
        }
        Command::Behavior => {
            let frustum = lp.frustum().map_err(|e| e.to_string())?;
            let pn = lp.petri_net();
            let bg = BehaviorGraph::build(&pn.net, &pn.marking, frustum.steps());
            out.push_str(&bg.render(&pn.net));
            let _ = writeln!(
                out,
                "repeated instantaneous state: t={} and t={} (frustum length {})",
                frustum.start_time,
                frustum.repeat_time,
                frustum.period()
            );
        }
        Command::Acode => {
            out.push_str(&tpn::dataflow::acode::write(lp.sdsp()));
        }
        Command::Storage => {
            if invocation.balance {
                let (_, report) = lp.balance().map_err(|e| e.to_string())?;
                let _ = writeln!(
                    out,
                    "balanced: rate {} -> {}, storage {} -> {} locations",
                    report.rate_before,
                    report.rate_after,
                    report.locations_before,
                    report.locations_after
                );
            } else {
                let run = lp.storage().map_err(|e| e.to_string())?;
                let report = &run.report;
                let _ = writeln!(
                    out,
                    "minimised: storage {} -> {} locations (saving {}), rate {}",
                    report.before,
                    report.after,
                    report.saving_fraction(),
                    report.cycle_time.recip()
                );
            }
        }
        Command::Trace => {
            let trace = validated_trace(invocation, lp)?;
            out.push_str(&trace.chrome_trace_json());
            out.push('\n');
        }
        Command::Explain => {
            let e = lp.explain().map_err(|e| e.to_string())?;
            let _ = writeln!(
                out,
                "cycle time alpha* = {}, optimal computation rate {}",
                e.cycle_time, e.rate
            );
            match &e.witness_self_loop {
                Some(node) => {
                    let _ = writeln!(out, "witness: non-reentrant slow node {node}");
                }
                None => {
                    let _ = writeln!(
                        out,
                        "witness cycle: [{}], omega = {}, tokens = {}",
                        e.witness_transitions.join(" -> "),
                        e.total_time.unwrap_or(0),
                        e.token_count.unwrap_or(0)
                    );
                }
            }
            let cert = &e.certificate;
            let _ = writeln!(
                out,
                "certificate: alpha* = {}/{} over {} transitions and {} places, {} at zero slack",
                cert.p,
                cert.q,
                cert.transitions.len(),
                cert.places.len(),
                cert.places.iter().filter(|pl| pl.slack == 0).count()
            );
            for pl in &cert.places {
                let _ = writeln!(
                    out,
                    "  {} -> {}: tokens {}, slack {}",
                    cert.transitions[pl.from].name,
                    cert.transitions[pl.to].name,
                    pl.tokens,
                    pl.slack
                );
            }
            let _ = writeln!(
                out,
                "engine: {} -> {} ({})",
                e.engine.configured.as_str(),
                e.engine.resolved.as_str(),
                e.engine.reason
            );
            if let Some(words) = &e.issue_words {
                let _ = writeln!(
                    out,
                    "issue words (period {}, iterations {}, anchor cycle {}):",
                    words.period, words.iterations, words.anchor
                );
                for (node, word) in &words.words {
                    let _ = writeln!(out, "  {node}: {word}");
                }
            }
            match e.validated {
                true => {
                    let _ = writeln!(out, "validated: yes");
                }
                false => {
                    let _ = writeln!(out, "validated: NO ({})", e.validation_errors.join("; "));
                }
            }
        }
        Command::Serve => return Err("serve does not take input files".to_string()),
        Command::Route => return Err("route does not take input files".to_string()),
        Command::Fuzz => return Err("fuzz does not take input files".to_string()),
    }
    Ok(out)
}

/// Replay-validates the firing-event stream, then hands back the trace.
///
/// Validation reconstructs every marking from the events alone and
/// re-confirms safety, liveness over the frustum window, and the
/// steady-state rate against the rate report, so a trace that reaches
/// the user has been independently checked against the net's semantics.
fn validated_trace(
    invocation: &Invocation,
    lp: &CompiledLoop,
) -> Result<std::sync::Arc<tpn_sched::FiringTrace>, String> {
    match invocation.scp_depth {
        None => {
            lp.validate_trace().map_err(|e| e.to_string())?;
            lp.firing_trace().map_err(|e| e.to_string())
        }
        Some(depth) => {
            lp.validate_scp_trace(depth).map_err(|e| e.to_string())?;
            lp.scp_trace(depth).map_err(|e| e.to_string())
        }
    }
}

fn emit_program(
    invocation: &Invocation,
    lp: &CompiledLoop,
) -> Result<tpn_codegen::Program, String> {
    match invocation.scp_depth {
        None => lp.emit(invocation.iterations).map_err(|e| e.to_string()),
        Some(depth) => {
            let run = lp.scp(depth).map_err(|e| e.to_string())?;
            Ok(tpn_codegen::emit(
                lp.sdsp(),
                &run.schedule,
                invocation.iterations,
            ))
        }
    }
}

// The analyze / schedule / storage rows are the service protocol's
// payloads (`tpn_service::protocol::{AnalyzeJson, ScheduleJson,
// StorageJson}`), imported so `tpnc <cmd> --format json` and a `tpnc
// serve` response carry byte-identical payloads. Rows for commands the
// service does not speak stay local.

#[derive(Serialize)]
struct EmitJson {
    file: Option<String>,
    command: String,
    bundles: usize,
    period: u64,
    max_width: usize,
    compact_size: usize,
    program: String,
}

#[derive(Serialize)]
struct DotJson {
    file: Option<String>,
    command: String,
    form: String,
    dot: String,
}

#[derive(Serialize)]
struct BehaviorJson {
    file: Option<String>,
    command: String,
    start_time: u64,
    repeat_time: u64,
    period: u64,
    graph: String,
}

#[derive(Serialize)]
struct AcodeJson {
    file: Option<String>,
    command: String,
    acode: String,
}

#[derive(Serialize)]
struct ProfileJson {
    file: Option<String>,
    command: String,
    profile: tpn::metrics::MetricsReport,
}

fn to_json_line<T: Serialize>(value: &T) -> Result<String, String> {
    serde_json::to_string(value)
        .map(|mut s| {
            s.push('\n');
            s
        })
        .map_err(|e| e.to_string())
}

fn execute_json(
    invocation: &Invocation,
    lp: &CompiledLoop,
    file: Option<&str>,
) -> Result<String, String> {
    let file = file.map(String::from);
    match invocation.command {
        Command::Analyze => {
            let row =
                tpn_service::protocol::analyze_payload(lp, file).map_err(|e| e.to_string())?;
            to_json_line(&row)
        }
        Command::Schedule => {
            let row = tpn_service::protocol::schedule_payload(lp, invocation.scp_depth, file)
                .map_err(|e| e.to_string())?;
            to_json_line(&row)
        }
        Command::Emit => {
            let program = emit_program(invocation, lp)?;
            to_json_line(&EmitJson {
                file,
                command: "emit".into(),
                bundles: program.bundles.len(),
                period: program.period,
                max_width: program.max_width,
                compact_size: program.compact_size(),
                program: program.render(lp.sdsp(), usize::MAX),
            })
        }
        Command::Dot => {
            let (form, dot) = if invocation.petri_form {
                let pn = lp.petri_net();
                ("petri", tpn_petri::dot::to_dot(&pn.net, &pn.marking))
            } else {
                ("sdsp", tpn_dataflow::dot::to_dot(lp.sdsp()))
            };
            to_json_line(&DotJson {
                file,
                command: "dot".into(),
                form: form.into(),
                dot,
            })
        }
        Command::Behavior => {
            let frustum = lp.frustum().map_err(|e| e.to_string())?;
            let pn = lp.petri_net();
            let bg = BehaviorGraph::build(&pn.net, &pn.marking, frustum.steps());
            to_json_line(&BehaviorJson {
                file,
                command: "behavior".into(),
                start_time: frustum.start_time,
                repeat_time: frustum.repeat_time,
                period: frustum.period(),
                graph: bg.render(&pn.net),
            })
        }
        Command::Acode => to_json_line(&AcodeJson {
            file,
            command: "acode".into(),
            acode: tpn::dataflow::acode::write(lp.sdsp()),
        }),
        Command::Storage => {
            let row = if invocation.balance {
                let (_, report) = lp.balance().map_err(|e| e.to_string())?;
                tpn_service::protocol::StorageJson {
                    file,
                    command: "storage".into(),
                    mode: "balance".into(),
                    locations_before: report.locations_before,
                    locations_after: report.locations_after,
                    rate_before: Some(report.rate_before.to_string()),
                    rate_before_rational: Some(report.rate_before.into()),
                    rate_after: report.rate_after.to_string(),
                    rate_after_rational: report.rate_after.into(),
                }
            } else {
                tpn_service::protocol::storage_payload(lp, file).map_err(|e| e.to_string())?
            };
            to_json_line(&row)
        }
        Command::Trace => {
            let trace = validated_trace(invocation, lp)?;
            Ok(trace.jsonl())
        }
        Command::Explain => {
            let row =
                tpn_service::protocol::explain_payload(lp, file).map_err(|e| e.to_string())?;
            to_json_line(&row)
        }
        Command::Serve => Err("serve does not take input files".to_string()),
        Command::Route => Err("route does not take input files".to_string()),
        Command::Fuzz => Err("fuzz does not take input files".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const L5: &str = "do i from 2 to n { X[i] := Z[i] * (Y[i] - X[i-1]); }";
    const L1: &str = "do i from 1 to n { A[i] := X[i] + 5; B[i] := Y[i] + A[i]; }";

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_subcommands_and_flags() {
        let inv = parse_args(args("schedule foo.loop --scp 8")).unwrap();
        assert_eq!(inv.command, Command::Schedule);
        assert_eq!(inv.input().unwrap(), "foo.loop");
        assert_eq!(inv.scp_depth, Some(8));
        let inv = parse_args(args("emit - --iterations 5")).unwrap();
        assert_eq!(inv.command, Command::Emit);
        assert_eq!(inv.input().unwrap(), "-");
        assert_eq!(inv.iterations, 5);
        let inv = parse_args(args("dot x --pn")).unwrap();
        assert!(inv.petri_form);
        let inv = parse_args(args("storage x --balance")).unwrap();
        assert!(inv.balance);
        let inv = parse_args(args("analyze x --format json")).unwrap();
        assert_eq!(inv.format, Format::Json);
    }

    #[test]
    fn parses_multiple_inputs() {
        let inv = parse_args(args("analyze a.loop b.loop c.loop")).unwrap();
        assert_eq!(inv.inputs, vec!["a.loop", "b.loop", "c.loop"]);
        assert_eq!(inv.input().unwrap(), "a.loop");
    }

    #[test]
    fn input_on_an_empty_invocation_is_a_typed_error() {
        let mut inv = parse_args(args("analyze x")).unwrap();
        inv.inputs.clear();
        assert_eq!(inv.input(), Err(NoInputError));
        assert!(!NoInputError.to_string().is_empty());
    }

    #[test]
    fn parses_trace_command_and_flags() {
        let inv = parse_args(args("trace foo.loop")).unwrap();
        assert_eq!(inv.command, Command::Trace);
        let inv = parse_args(args("behavior x --trace out.json")).unwrap();
        assert_eq!(inv.trace_path.as_deref(), Some("out.json"));
        let inv = parse_args(args("analyze a b --jobs 4")).unwrap();
        assert_eq!(inv.jobs, Some(4));
        // --jobs must be positive; --trace only fits commands that have a
        // firing-event timeline, and only a single input.
        assert!(parse_args(args("analyze a --jobs 0")).is_err());
        assert!(parse_args(args("analyze a --trace t.json")).is_err());
        assert!(parse_args(args("behavior a b --trace t.json")).is_err());
    }

    #[test]
    fn serve_is_the_zero_input_subcommand() {
        // serve takes no input files, so the missing-input check (and
        // the NoInputError path behind it) must not fire.
        let inv = parse_args(args("serve")).unwrap();
        assert_eq!(inv.command, Command::Serve);
        assert!(inv.inputs.is_empty());
        assert_eq!(inv.input(), Err(NoInputError));

        let inv = parse_args(args("serve --jobs 4")).unwrap();
        assert_eq!(inv.jobs, Some(4));
        let inv = parse_args(args("serve --socket /tmp/t.sock --queue 8 --cache 128")).unwrap();
        assert_eq!(inv.sockets, vec!["/tmp/t.sock"]);
        assert_eq!(inv.queue, Some(8));
        assert_eq!(inv.cache, Some(128));

        // serve rejects inputs; other subcommands still require one and
        // reject the serve-only flags.
        assert!(parse_args(args("serve a.loop")).is_err());
        assert!(parse_args(args("serve --queue 0")).is_err());
        assert!(parse_args(args("analyze")).is_err());
        assert!(parse_args(args("serve --self-test")).is_err());
        assert!(parse_args(args("analyze a --socket /tmp/t.sock")).is_err());
    }

    #[test]
    fn rejects_bad_usage() {
        assert!(parse_args(args("")).is_err());
        assert!(parse_args(args("frobnicate x")).is_err());
        assert!(parse_args(args("analyze")).is_err());
        assert!(parse_args(args("schedule x --scp")).is_err());
        assert!(parse_args(args("schedule x --scp many")).is_err());
        assert!(parse_args(args("schedule x --wat")).is_err());
        assert!(parse_args(args("analyze x --format yaml")).is_err());
    }

    #[test]
    fn each_synopsis_lists_exactly_the_flags_its_command_accepts() {
        let text = usage();
        let synopses: Vec<&str> = text
            .lines()
            .take_while(|line| !line.starts_with("  --"))
            .collect();
        assert_eq!(synopses.len(), COMMANDS.len() + 1, "{text}");
        for (line, &(command, name, _)) in synopses.iter().zip(COMMANDS) {
            let mut words = line.split(|c: char| c.is_whitespace() || c == '[' || c == ']');
            assert!(words.any(|w| w == "tpnc"), "{line:?}");
            assert_eq!(words.next(), Some(name), "{line:?}");
            let mut flags: Vec<&str> = words.filter(|word| word.starts_with("--")).collect();
            let listed = flags.len();
            flags.sort_unstable();
            flags.dedup();
            assert_eq!(flags.len(), listed, "a flag repeats in {line:?}");
            for opt in OPTIONS {
                let mut words = vec![name.to_string()];
                words.extend(command.takes_files().then(|| "x".to_string()));
                words.push(opt.flag.to_string());
                words.extend(opt.value.map(|_| "1".to_string()));
                let accepted = match parse_args(words) {
                    Ok(_) => true,
                    Err(e) => !e.starts_with(&format!("{} does not apply", opt.flag)),
                };
                assert_eq!(flags.contains(&opt.flag), accepted, "{name} {}", opt.flag);
            }
        }
        // Fuzz prints no metrics exposition, so its synopsis does not
        // offer one.
        assert!(synopses[COMMANDS.len() - 1].contains("[--format text|json]"));
    }

    #[test]
    fn flags_a_command_does_not_read_are_rejected() {
        for line in [
            "schedule F --queue 4 --cache 9 --pn --balance --iterations 3",
            "schedule F --queue 4",
            "schedule F --cache 9",
            "schedule F --pn",
            "schedule F --balance",
            "schedule F --iterations 3",
            "analyze F --scp 4",
            "serve --format json --profile --engine frustum --scp 3",
            "serve --format json",
            "serve --profile",
            "serve --engine frustum",
            "serve --scp 3",
            "serve --burst 3",
            "serve --max-in-flight 8",
        ] {
            let err = parse_args(args(line)).unwrap_err();
            assert!(
                err.contains("does not apply") || err.starts_with("unknown flag"),
                "{line}: {err}"
            );
        }
        // Route forwards these to its shards.
        let route = "route --socket s --jobs 2 --queue 8 --cache 9 --rate-limit 5 --store d";
        assert!(parse_args(args(route)).is_ok());
    }

    #[test]
    fn help_is_asked_for_only_as_the_first_word() {
        assert!(asks_for_help(&args("--help")));
        assert!(asks_for_help(&args("-h")));
        assert!(!asks_for_help(&args("analyze --help")));
        assert!(!asks_for_help(&[]));
        assert!(usage().contains("tpnc --help"));
    }

    #[test]
    fn usage_lists_every_option() {
        let text = usage();
        for opt in OPTIONS {
            assert!(text.contains(opt.flag), "usage misses {}", opt.flag);
            assert!(
                text.contains(opt.help),
                "usage misses help for {}",
                opt.flag
            );
        }
    }

    #[test]
    fn analyze_reports_rate_and_storage() {
        let inv = parse_args(args("analyze -")).unwrap();
        let out = execute(&inv, L5).unwrap();
        assert!(out.contains("optimal computation rate: 1/2"));
        assert!(out.contains("2 instructions"));
        assert!(out.contains("2 locations"));
    }

    #[test]
    fn schedule_prints_kernel() {
        let inv = parse_args(args("schedule -")).unwrap();
        let out = execute(&inv, L5).unwrap();
        assert!(out.contains("II = 2"));
        assert!(out.contains("cycle"));
    }

    #[test]
    fn scp_schedule_prints_bound() {
        let mut inv = parse_args(args("schedule -")).unwrap();
        inv.scp_depth = Some(4);
        let out = execute(&inv, L5).unwrap();
        assert!(out.contains("SCP depth 4"));
        assert!(out.contains("bound 1/2"));
    }

    #[test]
    fn emit_prints_bundles() {
        let inv = parse_args(args("emit - --iterations 4")).unwrap();
        let out = execute(&inv, L5).unwrap();
        assert!(out.contains("bundles"));
        assert!(out.contains("X@0"));
    }

    #[test]
    fn dot_prints_both_forms() {
        let inv = parse_args(args("dot -")).unwrap();
        assert!(execute(&inv, L5).unwrap().contains("digraph sdsp"));
        let inv = parse_args(args("dot - --pn")).unwrap();
        assert!(execute(&inv, L5).unwrap().contains("digraph petri"));
    }

    #[test]
    fn behavior_prints_frustum_bounds() {
        let inv = parse_args(args("behavior -")).unwrap();
        let out = execute(&inv, L5).unwrap();
        assert!(out.contains("repeated instantaneous state"));
    }

    #[test]
    fn storage_minimise_and_balance() {
        let inv = parse_args(args("storage -")).unwrap();
        assert!(execute(&inv, L5).unwrap().contains("minimised"));
        let inv = parse_args(args("storage - --balance")).unwrap();
        assert!(execute(&inv, L5).unwrap().contains("balanced"));
    }

    #[test]
    fn storage_text_reports_no_saving_without_locations() {
        // Livermore loop 12 reads only inputs: no data arc, no location.
        let inv = parse_args(args("storage -")).unwrap();
        let out = execute(&inv, "doall k from 1 to n { X[k] := Y[k+1] - Y[k]; }").unwrap();
        assert!(
            out.contains("storage 0 -> 0 locations (saving 0)"),
            "got: {out}"
        );
    }

    #[test]
    fn acode_round_trips_through_the_cli() {
        let dump = execute(&parse_args(args("acode -")).unwrap(), L5).unwrap();
        assert!(dump.starts_with(".sdsp"));
        // Feed the dump back in for analysis: same rate as from source.
        let from_acode = execute(&parse_args(args("analyze -")).unwrap(), &dump).unwrap();
        let from_source = execute(&parse_args(args("analyze -")).unwrap(), L5).unwrap();
        assert_eq!(from_acode, from_source);
        // And it schedules identically.
        let s1 = execute(&parse_args(args("schedule -")).unwrap(), &dump).unwrap();
        let s2 = execute(&parse_args(args("schedule -")).unwrap(), L5).unwrap();
        assert_eq!(s1, s2);
    }

    #[test]
    fn malformed_acode_is_reported() {
        let err = execute(
            &parse_args(args("analyze -")).unwrap(),
            ".sdsp
wat
.end
",
        )
        .unwrap_err();
        assert!(err.contains("line 2"), "got: {err}");
    }

    #[test]
    fn degenerate_inputs_fail_cleanly_on_every_subcommand() {
        // Empty source text: parse error with a diagnostic, never a panic.
        for cmd in [
            "analyze", "schedule", "emit", "dot", "behavior", "storage", "acode", "trace",
            "explain",
        ] {
            let inv = parse_args(args(&format!("{cmd} -"))).unwrap();
            let err = execute(&inv, "").unwrap_err();
            assert!(!err.is_empty(), "{cmd}: empty diagnostic");
        }
        // A grammatical zero-node loop: the front-end accepts it; stages
        // needing a nonempty body fail with typed diagnostics.
        let empty_body = "do i from 1 to n { }";
        for cmd in ["schedule", "behavior", "emit"] {
            let inv = parse_args(args(&format!("{cmd} -"))).unwrap();
            let err = execute(&inv, empty_body).unwrap_err();
            assert!(!err.is_empty(), "{cmd}: empty diagnostic");
        }
        // The same holds with profiling enabled and at SCP depths.
        let inv = parse_args(args("schedule - --scp 4 --profile")).unwrap();
        assert!(execute(&inv, empty_body).is_err());
        // dot/acode only need the graph: they succeed on the empty loop.
        let inv = parse_args(args("dot -")).unwrap();
        assert!(execute(&inv, empty_body).is_ok());
    }

    #[test]
    fn language_errors_carry_positions() {
        let inv = parse_args(args("analyze -")).unwrap();
        let err = execute(&inv, "do i from 1 to n { A[i] := X[j]; }").unwrap_err();
        assert!(err.contains("1:28"), "got: {err}");
    }

    #[test]
    fn json_format_emits_one_object_per_command() {
        let inv = parse_args(args("analyze - --format json")).unwrap();
        let out = execute(&inv, L5).unwrap();
        assert!(out.starts_with('{') && out.ends_with("}\n"), "got: {out}");
        assert!(out.contains("\"command\":\"analyze\""));
        assert!(out.contains("\"optimal_rate\":\"1/2\""));
        assert_eq!(out.lines().count(), 1);

        let inv = parse_args(args("schedule - --scp 4 --format json")).unwrap();
        let out = execute(&inv, L5).unwrap();
        assert!(out.contains("\"scp_depth\":4"));
        assert!(out.contains("\"kernel\":\""));

        for cmd in ["emit", "dot", "behavior", "storage", "acode", "explain"] {
            let inv = parse_args(args(&format!("{cmd} - --format json"))).unwrap();
            let out = execute(&inv, L5).unwrap();
            assert!(
                out.contains(&format!("\"command\":\"{cmd}\"")),
                "{cmd} got: {out}"
            );
            assert_eq!(out.lines().count(), 1, "{cmd} emitted multiple lines");
        }
    }

    #[test]
    fn explain_prints_a_validated_witness() {
        let inv = parse_args(args("explain -")).unwrap();
        let out = execute(&inv, L5).unwrap();
        assert!(out.contains("cycle time alpha* = 2"), "got: {out}");
        assert!(out.contains("optimal computation rate 1/2"), "got: {out}");
        // The certificate line and one slack row per place: L5's data
        // and acknowledgement cycles between X and X.1 are both critical,
        // so all four places have zero slack.
        assert!(
            out.contains(
                "certificate: alpha* = 2/1 over 2 transitions and 4 places, 4 at zero slack"
            ),
            "got: {out}"
        );
        assert!(out.contains("  X -> X.1: tokens 1, slack 0"), "got: {out}");
        assert!(out.contains("  X.1 -> X: tokens 0, slack 0"), "got: {out}");
        assert!(!out.contains("enumerated"), "got: {out}");
        assert!(out.contains("engine: auto -> analytic"), "got: {out}");
        assert!(out.contains("issue words"), "got: {out}");
        assert!(out.contains("validated: yes"), "got: {out}");

        // The JSON row self-reports validation too.
        let inv = parse_args(args("explain - --format json")).unwrap();
        let out = execute(&inv, L5).unwrap();
        assert!(out.contains("\"validated\":true"), "got: {out}");
        assert!(out.contains("\"cycle_time\":\"2\""), "got: {out}");
        assert!(
            out.contains("\"certificate\":{\"p\":2,\"q\":1,"),
            "got: {out}"
        );
    }

    #[test]
    fn prometheus_format_emits_only_the_exposition() {
        let inv = parse_args(args("schedule - --format prometheus")).unwrap();
        let out = execute(&inv, L5).unwrap();
        assert!(out.starts_with("# HELP"), "got: {out}");
        assert!(out.contains("tpn_stage_duration_nanos"), "got: {out}");
        assert!(out.contains("tpn_engine_instants_total"), "got: {out}");
        assert!(!out.contains("II ="), "schedule text leaked: {out}");
    }

    #[test]
    fn telemetry_flags_are_validated() {
        assert!(parse_args(args("serve --journal j.ndjson")).is_ok());
        assert!(parse_args(args("analyze x --journal j.ndjson")).is_err());
        assert!(parse_args(args("serve --format prometheus")).is_err());
        assert!(parse_args(args("fuzz --format prometheus")).is_err());
        assert!(parse_args(args("analyze x --format prometheus")).is_ok());
    }

    /// Replaces every `"nanos":<digits>` with `"nanos":0` so wall-clock
    /// noise does not break snapshot comparisons.
    fn zero_nanos(s: &str) -> String {
        let mut out = String::new();
        let mut rest = s;
        while let Some(pos) = rest.find("\"nanos\":") {
            let (head, tail) = rest.split_at(pos + "\"nanos\":".len());
            out.push_str(head);
            out.push('0');
            rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
        }
        out.push_str(rest);
        out
    }

    #[test]
    fn profile_text_appends_stage_spans_and_counters() {
        let inv = parse_args(args("schedule - --profile --engine frustum")).unwrap();
        let out = execute(&inv, L5).unwrap();
        assert!(out.contains("II = 2"), "schedule output missing: {out}");
        assert!(out.contains("profile:"));
        for stage in [
            "parse",
            "lower",
            "to_petri",
            "frustum_detection",
            "schedule_derivation",
        ] {
            assert!(out.contains(stage), "profile misses stage {stage}: {out}");
        }
        assert!(out.contains("engine: 3 instants"));
        assert!(out.contains("detection frustum"));
        // Without the flag, nothing profile-related is printed.
        let plain = execute(&parse_args(args("schedule -")).unwrap(), L5).unwrap();
        assert!(!plain.contains("profile:"));
    }

    #[test]
    fn default_engine_profile_shows_the_analytic_path() {
        // L5 is a pure marked graph, so `--engine auto` (the default)
        // takes the analytic fast path: no frustum detection runs, yet
        // the schedule is identical.
        let auto = execute(&parse_args(args("schedule - --profile")).unwrap(), L5).unwrap();
        assert!(auto.contains("II = 2"), "schedule output missing: {auto}");
        assert!(auto.contains("analytic_schedule"), "got: {auto}");
        assert!(!auto.contains("frustum_detection"), "got: {auto}");
        let frustum = execute(
            &parse_args(args("schedule - --engine frustum")).unwrap(),
            L5,
        )
        .unwrap();
        let plain = execute(&parse_args(args("schedule -")).unwrap(), L5).unwrap();
        assert_eq!(plain, frustum, "engines must print identical kernels");
    }

    #[test]
    fn profile_json_snapshot_for_l5_schedule() {
        let inv = parse_args(args("schedule - --profile --format json --engine frustum")).unwrap();
        let out = execute(&inv, L5).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2, "expected result + profile lines: {out}");
        assert!(lines[0].contains("\"command\":\"schedule\""));
        // Counters for L5 are deterministic; only the wall-clock span
        // durations vary, so they are zeroed before comparing.
        const EXPECTED: &str = "{\"file\":null,\"command\":\"profile\",\"profile\":{\
            \"stages\":[\
            {\"stage\":\"parse\",\"nanos\":0},\
            {\"stage\":\"lower\",\"nanos\":0},\
            {\"stage\":\"to_petri\",\"nanos\":0},\
            {\"stage\":\"frustum_detection\",\"nanos\":0},\
            {\"stage\":\"schedule_derivation\",\"nanos\":0}],\
            \"engine\":{\"instants\":3,\"firings\":3,\"completions\":2,\
            \"startable_scanned\":3,\"startable_pruned\":0},\
            \"detections\":[{\"context\":\"frustum\",\"instants\":3,\
            \"digest_candidates\":1,\"replays\":1,\"confirmed\":1,\
            \"collisions\":0,\"checkpoints\":0,\
            \"engine\":{\"instants\":3,\"firings\":3,\"completions\":2,\
            \"startable_scanned\":3,\"startable_pruned\":0}}]}}";
        assert_eq!(zero_nanos(lines[1]), EXPECTED);
    }

    #[test]
    fn profile_json_covers_scp_detections() {
        let inv = parse_args(args("schedule - --scp 4 --profile --format json")).unwrap();
        let out = execute(&inv, L5).unwrap();
        let profile = out.lines().nth(1).expect("profile line");
        assert!(
            profile.contains("\"context\":\"scp[l=4]\""),
            "got: {profile}"
        );
        assert!(profile.contains("\"stage\":\"scp_detection[l=4]\""));
        assert!(profile.contains("\"stage\":\"scp_expansion[l=4]\""));
    }

    #[test]
    fn batch_single_text_input_is_byte_identical_to_execute() {
        let inv = parse_args(args("analyze -")).unwrap();
        let direct = execute(&inv, L5).unwrap();
        let batched = run_batch(&inv, &[("<stdin>".to_string(), L5.to_string())]).unwrap();
        assert_eq!(direct, batched);
    }

    #[test]
    fn batch_multi_text_inputs_get_headers() {
        let inv = parse_args(args("analyze a b")).unwrap();
        let out = run_batch(
            &inv,
            &[
                ("a".to_string(), L5.to_string()),
                ("b".to_string(), L1.to_string()),
            ],
        )
        .unwrap();
        assert!(out.contains("== a =="));
        assert!(out.contains("== b =="));
        assert!(out.contains("optimal computation rate: 1/2"));
        assert!(out.contains("optimal computation rate: 1"));
    }

    #[test]
    fn batch_json_tags_each_line_with_its_file() {
        let inv = parse_args(args("analyze a b --format json")).unwrap();
        let out = run_batch(
            &inv,
            &[
                ("a".to_string(), L5.to_string()),
                ("b".to_string(), L1.to_string()),
            ],
        )
        .unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"file\":\"a\""));
        assert!(lines[1].contains("\"file\":\"b\""));
    }

    // A minimal JSON well-formedness checker. The in-tree serde_json
    // shim only serializes, so emitted traces are validated with this
    // hand-rolled recursive-descent scan instead of a parser dependency.
    mod json_check {
        fn skip_ws(s: &[u8], mut i: usize) -> usize {
            while matches!(s.get(i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                i += 1;
            }
            i
        }

        fn string(s: &[u8], mut i: usize) -> Result<usize, usize> {
            if s.get(i) != Some(&b'"') {
                return Err(i);
            }
            i += 1;
            loop {
                match s.get(i) {
                    Some(b'"') => return Ok(i + 1),
                    Some(b'\\') => match s.get(i + 1) {
                        Some(b'u') => {
                            let hex = s.get(i + 2..i + 6).ok_or(i)?;
                            if !hex.iter().all(u8::is_ascii_hexdigit) {
                                return Err(i);
                            }
                            i += 6;
                        }
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => i += 2,
                        _ => return Err(i),
                    },
                    Some(&c) if c >= 0x20 => i += 1,
                    _ => return Err(i),
                }
            }
        }

        fn digits(s: &[u8], mut i: usize) -> Result<usize, usize> {
            let from = i;
            while matches!(s.get(i), Some(b'0'..=b'9')) {
                i += 1;
            }
            if i == from {
                Err(i)
            } else {
                Ok(i)
            }
        }

        fn number(s: &[u8], mut i: usize) -> Result<usize, usize> {
            if s.get(i) == Some(&b'-') {
                i += 1;
            }
            i = digits(s, i)?;
            if s.get(i) == Some(&b'.') {
                i = digits(s, i + 1)?;
            }
            if matches!(s.get(i), Some(b'e' | b'E')) {
                i += 1;
                if matches!(s.get(i), Some(b'+' | b'-')) {
                    i += 1;
                }
                i = digits(s, i)?;
            }
            Ok(i)
        }

        fn literal(s: &[u8], i: usize, lit: &[u8]) -> Result<usize, usize> {
            if s[i..].starts_with(lit) {
                Ok(i + lit.len())
            } else {
                Err(i)
            }
        }

        fn seq(s: &[u8], i: usize, close: u8, object: bool) -> Result<usize, usize> {
            let mut i = skip_ws(s, i + 1);
            if s.get(i) == Some(&close) {
                return Ok(i + 1);
            }
            loop {
                if object {
                    i = string(s, skip_ws(s, i))?;
                    i = skip_ws(s, i);
                    if s.get(i) != Some(&b':') {
                        return Err(i);
                    }
                    i += 1;
                }
                i = skip_ws(s, value(s, skip_ws(s, i))?);
                match s.get(i) {
                    Some(&c) if c == close => return Ok(i + 1),
                    Some(b',') => i = skip_ws(s, i + 1),
                    _ => return Err(i),
                }
            }
        }

        fn value(s: &[u8], i: usize) -> Result<usize, usize> {
            match s.get(i) {
                Some(b'"') => string(s, i),
                Some(b'{') => seq(s, i, b'}', true),
                Some(b'[') => seq(s, i, b']', false),
                Some(b't') => literal(s, i, b"true"),
                Some(b'f') => literal(s, i, b"false"),
                Some(b'n') => literal(s, i, b"null"),
                Some(b'-' | b'0'..=b'9') => number(s, i),
                _ => Err(i),
            }
        }

        /// Panics unless `text` is exactly one well-formed JSON value.
        pub fn assert_valid(text: &str) {
            let s = text.as_bytes();
            let end = value(s, skip_ws(s, 0))
                .unwrap_or_else(|at| panic!("invalid JSON at byte {at}: {text}"));
            assert_eq!(skip_ws(s, end), s.len(), "trailing garbage: {text}");
        }
    }

    #[test]
    fn trace_text_is_valid_chrome_trace_json() {
        let inv = parse_args(args("trace -")).unwrap();
        let out = execute(&inv, L5).unwrap();
        assert!(out.starts_with("{\"traceEvents\":["), "got: {out}");
        json_check::assert_valid(&out);
        for needle in [
            "\"ph\":\"M\"",
            "\"ph\":\"X\"",
            "frustum start",
            "frustum repeat",
            "steady-state kernel",
            "\"digest\":\"0x",
        ] {
            assert!(out.contains(needle), "trace misses {needle}: {out}");
        }
    }

    #[test]
    fn scp_trace_adds_the_issue_slot_track() {
        let inv = parse_args(args("trace - --scp 4")).unwrap();
        let out = execute(&inv, L5).unwrap();
        json_check::assert_valid(&out);
        assert!(out.contains("issue slot"), "got: {out}");
    }

    #[test]
    fn trace_json_format_emits_jsonl() {
        let inv = parse_args(args("trace - --format json")).unwrap();
        let out = execute(&inv, L5).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines.len() > 3, "got: {out}");
        assert!(lines[0].contains("\"kind\":\"meta\""));
        for line in &lines {
            json_check::assert_valid(line);
        }
        assert!(out.contains("\"kind\":\"start\""));
        assert!(out.contains("\"kind\":\"complete\""));
    }

    #[test]
    fn trace_output_is_deterministic_and_jobs_invariant() {
        let inv = parse_args(args("trace -")).unwrap();
        assert_eq!(execute(&inv, L5).unwrap(), execute(&inv, L5).unwrap());
        // The worker-pool size must not leak into the output bytes.
        let sources = [
            ("a".to_string(), L5.to_string()),
            ("b".to_string(), L1.to_string()),
        ];
        let serial = parse_args(args("analyze a b --jobs 1")).unwrap();
        let wide = parse_args(args("analyze a b --jobs 4")).unwrap();
        assert_eq!(
            run_batch(&serial, &sources).unwrap(),
            run_batch(&wide, &sources).unwrap()
        );
    }

    #[test]
    fn trace_flag_writes_the_timeline_next_to_the_output() {
        let path = std::env::temp_dir().join(format!("tpnc-trace-{}.json", std::process::id()));
        let mut inv = parse_args(args("behavior -")).unwrap();
        inv.trace_path = Some(path.to_string_lossy().into_owned());
        let out = execute(&inv, L5).unwrap();
        assert!(out.contains("repeated instantaneous state"));
        let written = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        json_check::assert_valid(&written);
        assert!(written.starts_with("{\"traceEvents\":["));
    }

    #[test]
    fn trace_handles_degenerate_loops() {
        // A zero-node loop has no events: the timeline still parses and
        // carries only its metadata records.
        let inv = parse_args(args("trace -")).unwrap();
        let out = execute(&inv, "do i from 1 to n { }").unwrap();
        json_check::assert_valid(&out);
        assert!(!out.contains("\"ph\":\"X\""), "got: {out}");
        // A single-node self-feedback loop traces and validates.
        let out = execute(&inv, "do i from 2 to n { X[i] := X[i-1] + 1; }").unwrap();
        json_check::assert_valid(&out);
        assert!(out.contains("\"ph\":\"X\""), "got: {out}");
    }

    #[test]
    fn batch_reports_failures_per_file() {
        let inv = parse_args(args("analyze a b")).unwrap();
        let err = run_batch(
            &inv,
            &[
                ("a".to_string(), "garbage".to_string()),
                ("b".to_string(), L5.to_string()),
            ],
        )
        .unwrap_err();
        assert!(err.starts_with("a: "), "got: {err}");
    }
}
