//! `spca-benchmark` — the repository's pipeline benchmark.
//!
//! ```text
//! spca-benchmark --workload W --seed S --seconds T --trace 0|1   one workload (the driver's form)
//! spca-benchmark [--seed S] [--seconds T] [--trace] [--quick]    all six, table + results.json
//! spca-benchmark compare A.json B.json                           verdict per workload × metric
//! ```
//!
//! `pass` and `worker` are the harness re-executing itself: one measured
//! pass in a fresh process, and the worker side of the TCP workload.
//! See `benchmark/README.md`.

mod client;
mod compare;
mod corpus;
mod harness;
mod host;
mod json;
mod pass;
mod replay;
mod stats;
mod trace;
mod workloads;

use harness::{Options, Outcome};
use json::Json;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: spca-benchmark [--workload NAME] [--seed N] [--seconds N] [--trace [0|1]] [--quick]
                      [--scratch DIR] [--out FILE]
       spca-benchmark compare A.json B.json [--bounds BENCHMARK.json]";

/// `--flag value` pairs after the subcommand; `--trace` and `--quick` may
/// stand alone.
struct Args(Vec<String>);

impl Args {
    fn value(&self, flag: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == flag)?;
        self.0
            .get(i + 1)
            .map(String::as_str)
            .filter(|v| !v.starts_with("--"))
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    fn required(&self, flag: &str) -> Result<&str, String> {
        self.value(flag).ok_or(format!("{flag} is required"))
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{flag}: cannot parse '{v}'")),
        }
    }

    /// Rejects any `--flag` outside `allowed`, so a typo cannot silently
    /// fall back to a default.
    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self
            .0
            .iter()
            .find(|a| a.starts_with("--") && !allowed.contains(&a.as_str()))
        {
            Some(unknown) => Err(format!("unknown flag '{unknown}'\n{USAGE}")),
            None => Ok(()),
        }
    }

    fn positional(&self) -> Vec<&str> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.0.len() {
            if self.0[i].starts_with("--") {
                i += 1 + usize::from(self.value(&self.0[i]).is_some());
            } else {
                out.push(self.0[i].as_str());
                i += 1;
            }
        }
        out
    }
}

/// Removes the run's scratch directory however the harness leaves.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(root) = self.0.parent() {
            // Only succeeds once no other run is using the root.
            let _ = std::fs::remove_dir(root);
        }
    }
}

fn print_table(name: &str, outcome: &Outcome) {
    let c = &outcome.corpus;
    println!(
        "{name}: corpus {} rows={} bytes={} d={} masked_row_share={:.3}",
        c.kind.name(),
        c.rows,
        c.bytes,
        c.kind.dim(),
        c.masked_row_share()
    );
    for (metric, unit, pick) in harness::END_TO_END {
        if let Some(values) = outcome.end_to_end.get(metric) {
            println!(
                "  {metric:<44} {:>14.4} {unit:<9} ({} of {}, median {:.4}, spread {:.1}%)",
                pick.of(values),
                pick.label(),
                values.len(),
                stats::median(values),
                100.0 * stats::spread(values)
            );
        }
    }
    for (metric, unit) in harness::PER_LAYER {
        if let Some(value) = outcome.per_layer.get(metric) {
            println!("  {metric:<44} {value:>14.4} {unit}");
        }
    }
}

fn run_benchmark(args: &Args) -> Result<(), String> {
    args.only(&[
        "--workload",
        "--seed",
        "--seconds",
        "--trace",
        "--quick",
        "--scratch",
        "--out",
    ])?;
    if let Some(stray) = args.positional().first() {
        return Err(format!("unexpected argument '{stray}'\n{USAGE}"));
    }
    let seed: u64 = args.parsed("--seed", 1)?;
    let quick = args.has("--quick");
    let traced = args.has("--trace") && args.value("--trace") != Some("0");
    let scratch_root = PathBuf::from(
        args.value("--scratch")
            .unwrap_or("target/benchmark-scratch"),
    );
    let scratch = Scratch(scratch_root.join(format!("run-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0).map_err(|e| format!("{}: {e}", scratch.0.display()))?;
    let opts = Options {
        seed,
        seconds: args.parsed("--seconds", 15.0)?,
        quick,
        scratch: scratch.0.clone(),
        out_dir: PathBuf::from("benchmark/out"),
    };

    println!("machine: {}", host::machine_note());

    // The driver's form: one workload, one result line.
    if let Some(name) = args.value("--workload") {
        let w = workloads::find(name).ok_or_else(|| {
            let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload '{name}' (have: {})", names.join(", "))
        })?;
        let outcome = if traced {
            harness::trace(w, &opts)
        } else {
            harness::measure(w, &opts)
        }?;
        print_table(w.name, &outcome);
        println!("{}", harness::result_line(&outcome));
        return Ok(());
    }

    // Everything: six workloads, a table, and results.json for `compare`.
    println!(
        "seed {seed}, {} s per workload{}",
        opts.seconds,
        if quick {
            ", QUICK (never comparable with full runs)"
        } else {
            ""
        }
    );
    let mut entries = Vec::new();
    for w in &workloads::WORKLOADS {
        let e2e = harness::measure(w, &opts)?;
        print_table(w.name, &e2e);
        let layers = if traced {
            let t = harness::trace(w, &opts)?;
            print_table(w.name, &t);
            Some(t)
        } else {
            None
        };
        entries.push((
            w.name.to_string(),
            harness::results_entry(&e2e, layers.as_ref()),
        ));
    }
    let results = Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("quick", Json::Bool(quick)),
        ("cores", Json::Num(host::cores() as f64)),
        ("machine", Json::Str(host::machine_note())),
        ("workloads", Json::Obj(entries)),
    ]);
    let default_out = opts.out_dir.join(format!("results-seed{seed}.json"));
    let out = args.value("--out").map_or(default_out, PathBuf::from);
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(&out, format!("{results}\n")).map_err(|e| e.to_string())?;
    println!("wrote {}", out.display());
    Ok(())
}

fn run_pass(args: &Args) -> Result<(), String> {
    let name = args.required("--workload")?;
    let pass_args = pass::PassArgs {
        workload: workloads::find(name).ok_or(format!("unknown workload '{name}'"))?,
        corpus: PathBuf::from(args.required("--corpus")?),
        rows: args.parsed("--rows", 0)?,
        reference: PathBuf::from(args.required("--reference")?),
        dir: PathBuf::from(args.required("--dir")?),
        spans: args.value("--spans").map(PathBuf::from),
        run_id: args.value("--run-id").unwrap_or(name).to_string(),
    };
    // A 1/20 corpus is too short to converge; quick runs report the
    // subspace error without gating on it.
    let numbers = pass::run(&pass_args, !args.has("--quick"))?;
    println!("{}", Json::from_number_map(&numbers));
    Ok(())
}

fn run_worker(args: &Args) -> Result<(), String> {
    let addr = |flag: &str| -> Result<std::net::SocketAddr, String> {
        let v = args.required(flag)?;
        v.parse().map_err(|_| format!("{flag}: cannot parse '{v}'"))
    };
    pass::worker_main(
        addr("--coordinator")?,
        args.parsed("--index", 0)?,
        addr("--data")?,
    )
}

fn main() -> ExitCode {
    // Pass and worker processes: before anything else is allocated.
    if let Some(key) = std::env::var(harness::HEAP_KEY_ENV)
        .ok()
        .and_then(|v| v.parse().ok())
    {
        pass::shuffle_heap(key);
    }
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let sub = match argv.first().map(String::as_str) {
        Some(s @ ("pass" | "worker" | "compare")) => {
            let s = s.to_string();
            argv.remove(0);
            s
        }
        Some("help" | "--help" | "-h") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => String::new(),
    };
    let args = Args(argv);
    let result = match sub.as_str() {
        "pass" => run_pass(&args),
        "worker" => run_worker(&args),
        "compare" => compare::run(
            &args.positional(),
            args.value("--bounds").unwrap_or("BENCHMARK.json"),
        ),
        _ => run_benchmark(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}
