//! Command line.
//!
//! ```text
//! pocolo-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                  [--smoke] [--report <file>] [--trace-out <file>]
//! pocolo-benchmark run-all --seed <n> --out <file> [--seconds <s>] [--smoke] [--traces <dir>]
//! pocolo-benchmark compare <a.json> <b.json>
//! pocolo-benchmark manifest
//! ```
//!
//! The first form runs one workload in this process and ends standard
//! output with the run line; `run-all` gives every workload a fresh
//! process, untraced then traced, so a dying reactor thread cannot
//! pollute the next run.

use std::path::{Path, PathBuf};
use std::process::Command;

use pocolo_json::{json, Value};

use crate::metrics::{manifest, RUN_SECONDS, WORKLOADS};
use crate::proc::nproc;
use crate::report::{compare, compare_table, run_line, table, workload_report};
use crate::run::Options;
use crate::workloads::run_named;

/// Seconds per phase when `run-all` is not told otherwise: five workloads,
/// untraced and traced, in about a hundred seconds of timed work.
const RUN_ALL_SECONDS: f64 = 8.0;

/// Flags and positional words of one invocation.
#[derive(Debug, Default)]
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    /// Flags that stand alone; every other `--flag` takes a value.
    const SWITCHES: [&'static str; 1] = ["--smoke"];

    fn parse(words: Vec<String>) -> Result<Args, String> {
        let mut args = Args::default();
        let mut words = words.into_iter();
        while let Some(word) = words.next() {
            if Self::SWITCHES.contains(&word.as_str()) {
                args.flags.push((word, String::new()));
            } else if word.starts_with("--") {
                let value = words.next().ok_or(format!("{word} needs a value"))?;
                args.flags.push((word, value));
            } else {
                args.positional.push(word);
            }
        }
        Ok(args)
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value {v:?} for {flag}")),
        }
    }

    fn options(&self, default_seconds: f64) -> Result<Options, String> {
        Ok(Options {
            seed: self.parsed("--seed", 1)?,
            seconds: self.parsed("--seconds", default_seconds)?,
            trace: self.parsed::<u8>("--trace", 0)? != 0,
            smoke: self.get("--smoke").is_some(),
        })
    }
}

fn write(path: &Path, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    pocolo_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs one workload in this process.
fn run_one(args: &Args) -> Result<i32, String> {
    let name = args
        .get("--workload")
        .ok_or("--workload <name> is required")?;
    let opts = args.options(RUN_SECONDS as f64)?;
    let outcome = run_named(name, &opts).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })?;
    if let Some(path) = args.get("--report") {
        write(
            Path::new(path),
            &workload_report(&outcome).to_pretty_string(),
        )?;
    }
    if let (Some(path), Some(tracer)) = (args.get("--trace-out"), &outcome.tracer) {
        write(Path::new(path), &tracer.chrome_json().to_compact_string())?;
    }
    print!("{}", table(&outcome));
    println!("{}", run_line(&outcome, opts.trace));
    Ok(0)
}

/// First line of a command's standard output, or `unknown`.
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Runs every workload, each in a fresh process, untraced then traced.
fn run_all(args: &Args) -> Result<i32, String> {
    let out = PathBuf::from(args.get("--out").ok_or("--out <file> is required")?);
    let opts = args.options(RUN_ALL_SECONDS)?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let traces = args.get("--traces").map(PathBuf::from);
    if let Some(dir) = &traces {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }

    let mut workloads = Vec::new();
    let mut failed_ops = 0u64;
    for def in &WORKLOADS {
        let mut reports = Vec::new();
        for trace in [false, true] {
            let report = out.with_extension(format!("{}.{}.tmp", def.name, u8::from(trace)));
            let mut child = Command::new(&exe);
            child
                .args(["--workload", def.name])
                .args(["--seed", &opts.seed.to_string()])
                .args(["--seconds", &opts.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--report")
                .arg(&report);
            if opts.smoke {
                child.arg("--smoke");
            }
            if let (true, Some(dir)) = (trace, &traces) {
                child
                    .arg("--trace-out")
                    .arg(dir.join(format!("{}.trace.json", def.name)));
            }
            // The child's tables are this command's output too.
            let status = child
                .status()
                .map_err(|e| format!("cannot start {}: {e}", def.name))?;
            if !status.success() {
                return Err(format!("{} (trace {trace}) exited with {status}", def.name));
            }
            reports.push(read_json(&report)?);
            let _ = std::fs::remove_file(&report);
        }
        let (plain, traced) = (&reports[0], &reports[1]);
        // One seed, two processes: the outputs must not have moved. That
        // is one more check, attempted once and failed on a mismatch.
        let moved = u64::from(plain["result_digest"] != traced["result_digest"]);
        let sum = |key: &str| reports.iter().filter_map(|r| r[key].as_u64()).sum::<u64>();
        let failed = sum("ops_failed") + moved;
        failed_ops += failed;
        workloads.push(json!({
            "name": def.name,
            "correct": failed == 0,
            "ops_attempted": sum("ops_attempted") + 1,
            "ops_failed": failed,
            "result_digest": plain["result_digest"].clone(),
            "end_to_end": plain["end_to_end"].clone(),
            "per_layer": traced["per_layer"].clone()
        }));
    }

    let file = json!({
        "stamp": json!({
            "commit": first_line_of("git", &["rev-parse", "HEAD"]),
            "nproc": nproc(),
            "rustc": first_line_of("rustc", &["--version"]),
            "seed": opts.seed,
            "seconds_per_phase": opts.seconds,
            "smoke": opts.smoke
        }),
        "workloads": workloads
    });
    write(&out, &file.to_pretty_string())?;
    println!("run-all: wrote {}; ops_failed {failed_ops}", out.display());
    Ok(i32::from(failed_ops > 0))
}

/// Compares two `run-all` files.
fn compare_files(args: &Args) -> Result<i32, String> {
    let [_, a, b] = args.positional.as_slice() else {
        return Err("usage: compare <a.json> <b.json>".to_string());
    };
    let rows = compare(&read_json(Path::new(a))?, &read_json(Path::new(b))?)?;
    print!("{}", compare_table(&rows));
    let failing = rows.iter().filter(|r| r.verdict.fails()).count();
    println!("compare: {} rows, {failing} beyond bound", rows.len());
    Ok(i32::from(failing > 0))
}

/// Entry point; returns the process exit code.
pub fn main(words: Vec<String>) -> i32 {
    let result =
        Args::parse(words).and_then(|args| match args.positional.first().map(String::as_str) {
            None => run_one(&args),
            Some("run-all") => run_all(&args),
            Some("compare") => compare_files(&args),
            Some("manifest") => {
                print!("{}", manifest());
                Ok(0)
            }
            Some(other) => Err(format!("unknown command {other:?}")),
        });
    result.unwrap_or_else(|message| {
        eprintln!("pocolo-benchmark: {message}");
        2
    })
}
