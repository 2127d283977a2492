//! `tpnc` — the command-line driver (logic in [`tpn_cli`]).

use std::io::Read as _;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if tpn_cli::asks_for_help(&args) {
        println!("{}", tpn_cli::usage());
        return ExitCode::SUCCESS;
    }
    let invocation = match tpn_cli::parse_args(args) {
        Ok(inv) => inv,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    type Subcommand = fn(&tpn_cli::Invocation) -> Result<(), String>;
    let subcommand: Option<Subcommand> = match invocation.command {
        #[cfg(unix)]
        tpn_cli::Command::Serve => Some(tpn_cli::serve::run),
        #[cfg(unix)]
        tpn_cli::Command::Route => Some(tpn_cli::route::run),
        #[cfg(not(unix))]
        tpn_cli::Command::Serve => Some(|_| Err("serve requires a Unix platform".into())),
        #[cfg(not(unix))]
        tpn_cli::Command::Route => Some(|_| Err("route requires a Unix platform".into())),
        tpn_cli::Command::Fuzz => Some(tpn_cli::fuzz::run),
        _ => None,
    };
    if let Some(run) = subcommand {
        return match run(&invocation) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("error: {msg}");
                ExitCode::FAILURE
            }
        };
    }
    let mut sources = Vec::with_capacity(invocation.inputs.len());
    for input in &invocation.inputs {
        let source = if input == "-" {
            let mut buf = String::new();
            if let Err(e) = std::io::stdin().read_to_string(&mut buf) {
                eprintln!("error reading stdin: {e}");
                return ExitCode::FAILURE;
            }
            buf
        } else {
            match std::fs::read_to_string(input) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error reading {input}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        };
        let name = if input == "-" { "<stdin>" } else { input };
        sources.push((name.to_string(), source));
    }
    match tpn_cli::run_batch(&invocation, &sources) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
