//! `pocolo` — command-line interface to the Pocolo stack.
//!
//! ```text
//! pocolo fit --app sphinx [--json]      fit a model, print parameters
//! pocolo place [--solver lp] [--json]   power-optimized placement
//! pocolo simulate --policy pocolo       run the §V-D sweep, print summary
//! pocolo tco                            amortized monthly TCO comparison
//! pocolo table2                         Table II characteristics
//! pocolo figures                        every table, figure and ablation
//! pocolo help
//! ```

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
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("run `pocolo help` for usage");
            ExitCode::FAILURE
        }
    }
}
