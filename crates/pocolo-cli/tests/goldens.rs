//! The byte-identity gate: runs every line of the repository's
//! `GOLDENS.txt` through the built `pocolo` binary and checks what it
//! printed against the committed digest (the file's header gives the line
//! grammar).
//!
//! On any mismatch the test fails listing every moved line. It always
//! writes the regenerated file to `$CARGO_TARGET_TMPDIR/GOLDENS.txt`;
//! accepting a move means copying that file over the committed one.

use std::collections::HashMap;
use std::path::Path;
use std::process::Command;

use pocolo_core::digest::{fnv1a, FNV_OFFSET};

const GOLDENS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../GOLDENS.txt");

/// What a line expects of its run.
enum Expect<'a> {
    /// This digest, as 16 hex digits starting at this byte of the line.
    Digest(&'a str, usize),
    /// A zero exit, nothing more: the run's stdout depends on timing.
    Exit0,
    /// The digest of the named earlier line.
    Same(&'a str),
}

/// One run: its name, what it expects, and the argv after `pocolo`.
struct Run<'a> {
    name: &'a str,
    expect: Expect<'a>,
    argv: Vec<&'a str>,
}

/// Parses one line of the file; comments and blank lines are `None`.
fn parse(line: &str) -> Result<Option<Run<'_>>, String> {
    let mut words = line.split_whitespace();
    let Some(name) = words.next().filter(|w| !w.starts_with('#')) else {
        return Ok(None);
    };
    let token = words.next().ok_or("a name needs an expectation")?;
    let expect = match token {
        "exit0" => Expect::Exit0,
        _ if token.starts_with('=') => Expect::Same(&token[1..]),
        _ if token.len() == 16 && u64::from_str_radix(token, 16).is_ok() => {
            let at = token.as_ptr() as usize - line.as_ptr() as usize;
            Expect::Digest(token, at)
        }
        _ => return Err(format!("{token:?} is not a digest, exit0 or =<name>")),
    };
    let argv: Vec<&str> = words.collect();
    if argv.is_empty() {
        return Err(format!("{name} has no command"));
    }
    Ok(Some(Run { name, expect, argv }))
}

/// Runs `pocolo <argv>` with `{tmp}` bound to a fresh directory of the
/// run's own, and digests its stdout, then each `{tmp}` side file in argv
/// order. A nonzero exit is the error, with the first line of stderr.
fn digest_of(run: &Run<'_>) -> Result<u64, String> {
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("goldens")
        .join(run.name);
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    let tmp = tmp.to_str().expect("the target directory is UTF-8");
    let argv: Vec<String> = run.argv.iter().map(|a| a.replace("{tmp}", tmp)).collect();
    let out = Command::new(env!("CARGO_BIN_EXE_pocolo"))
        .args(&argv)
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        return Err(format!(
            "{}: {}",
            out.status,
            stderr.lines().next().unwrap_or("")
        ));
    }
    let mut hash = fnv1a(FNV_OFFSET, &out.stdout);
    for (raw, path) in run.argv.iter().zip(&argv) {
        if raw.contains("{tmp}") {
            hash = fnv1a(
                hash,
                &std::fs::read(path).map_err(|e| format!("{path}: {e}"))?,
            );
        }
    }
    Ok(hash)
}

#[test]
fn every_golden_run_prints_its_committed_bytes() {
    let text = std::fs::read_to_string(GOLDENS).expect("GOLDENS.txt at the repository root");
    // Each line's digest, `None` where the run failed.
    let mut digests: HashMap<&str, Option<u64>> = HashMap::new();
    let mut regenerated = String::new();
    let mut moved = Vec::new();
    for (n, line) in text.lines().enumerate() {
        let run = parse(line).unwrap_or_else(|e| panic!("GOLDENS.txt:{}: {e}", n + 1));
        let mut line = line.to_string();
        if let Some(run) = run {
            let got = digest_of(&run);
            let why = match (&run.expect, &got) {
                (_, Err(e)) => Some(format!("exited {e}")),
                (Expect::Exit0, Ok(_)) => None,
                (Expect::Digest(want, at), Ok(d)) => {
                    let hex = format!("{d:016x}");
                    (*want != hex).then(|| {
                        line.replace_range(*at..*at + 16, &hex);
                        format!("{want} -> {hex}")
                    })
                }
                (Expect::Same(other), Ok(d)) => match digests.get(other) {
                    None => panic!("GOLDENS.txt:{}: ={other} names no earlier line", n + 1),
                    Some(None) => Some(format!("={other} is unchecked: {other} failed")),
                    Some(Some(o)) => (o != d)
                        .then(|| format!("={other} broken: {d:016x}, but {other} is {o:016x}")),
                },
            };
            if let Some(why) = why {
                moved.push(format!(
                    "{}: {why}\n      pocolo {}",
                    run.name,
                    run.argv.join(" ")
                ));
            }
            let dup = digests.insert(run.name, got.ok()).is_some();
            assert!(!dup, "GOLDENS.txt:{}: {} is named twice", n + 1, run.name);
        }
        regenerated.push_str(&line);
        regenerated.push('\n');
    }
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("GOLDENS.txt");
    std::fs::write(&out, regenerated).expect("write the regenerated goldens");
    assert!(
        moved.is_empty(),
        "{} golden line(s) moved:\n  {}\n\nThe regenerated file is {}. To accept moved digests, copy \
         it over GOLDENS.txt and declare them with a `re-baseline:` note in CHANGES.md; a broken \
         `=` link or a failed run is a bug, not a move.",
        moved.len(),
        moved.join("\n  "),
        out.display()
    );
}
