//! CI gate for recorded benchmark artifacts: validates `BENCH_kernels.json`
//! and `BENCH_elastic.json` (or the paths given as arguments) against
//! [`spca_bench::json::SCHEMAS`] and exits nonzero on any artifact that is
//! malformed or fails a gate, so a hand-edited or truncated recording
//! cannot land silently.
//!
//! An artifact names its schema in a `"schema"` field. Per file the gate
//! prints how many gates held and every gate the artifact's own host
//! fields waived, so a floor that measures nothing is visible in the log.

use spca_bench::json::{validate, Json, Verdict};
use std::process::ExitCode;

fn check(path: &str) -> Result<Verdict, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read file: {e}"))?;
    validate(&Json::parse(&text)?)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let paths: Vec<&str> = if args.is_empty() {
        vec!["BENCH_kernels.json", "BENCH_elastic.json"]
    } else {
        args.iter().map(|s| s.as_str()).collect()
    };
    let mut failed = false;
    for path in paths {
        match check(path) {
            Ok(verdict) => println!("{path}: ok ({verdict})"),
            Err(e) => {
                eprintln!("error: {path}: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
