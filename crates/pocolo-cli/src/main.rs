//! `pocolo` — command-line interface to the Pocolo stack.
//!
//! ```text
//! pocolo fit --app sphinx [--json]      fit a model, print parameters
//! pocolo convexity --app sphinx         screen an app for the framework
//! pocolo place [--solver lp] [--json]   power-optimized placement
//! pocolo simulate --policy pocolo       run the §V-D sweep, print summary
//! pocolo clusterd / agentd              the daemons of one wire experiment
//! pocolo demo-net                       wire path vs in-process engine
//! pocolo demo-traffic                   open-loop traffic, online refit
//! pocolo demo-fleet                     SKU-aware vs SKU-blind placement
//! pocolo demo-federation                federated vs region-isolated
//! pocolo tco                            amortized monthly TCO comparison
//! pocolo table2                         Table II characteristics
//! pocolo figures                        every table, figure and ablation
//! pocolo help
//! ```
//!
//! A finished run that broke a check exits 1 with one `<command> failed:
//! <check>` line per failed check on stderr and nothing on stdout; bad
//! arguments exit 1 with `error: <message>` and a pointer to `pocolo help`.

mod cli;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cli::run(&args) {
        Ok(output) => {
            // `figures` has already streamed its tables to stdout.
            if !output.is_empty() {
                println!("{output}");
            }
            ExitCode::SUCCESS
        }
        Err(cli::Failure::Checks(lines)) => {
            for line in lines {
                eprintln!("{line}");
            }
            ExitCode::FAILURE
        }
        Err(cli::Failure::Error(e)) => {
            eprintln!("error: {e}");
            eprintln!("run `pocolo help` for usage");
            ExitCode::FAILURE
        }
    }
}
