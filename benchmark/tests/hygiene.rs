//! Process and scratch hygiene, the quick mode's coverage, and `compare`,
//! driven through the built binary. Run with `cargo test --release` from
//! `benchmark/` (the quick run is several times slower unoptimised).

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_spca-benchmark");
/// Every process the harness starts inherits this variable, so anything
/// left behind can be found in `/proc/*/environ`.
const MARKER: &str = "SPCA_BENCHMARK_TEST_MARKER";

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spca_bm_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Pids (other than `except`) whose environment carries `MARKER=value`.
fn marked_processes(value: &str, except: u32) -> Vec<u32> {
    let needle = format!("{MARKER}={value}");
    std::fs::read_dir("/proc")
        .unwrap()
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|&pid| pid != except && pid != std::process::id())
        .filter(|pid| {
            std::fs::read(format!("/proc/{pid}/environ"))
                .map(|env| env.split(|&b| b == 0).any(|kv| kv == needle.as_bytes()))
                .unwrap_or(false)
        })
        .collect()
}

fn wait_until(deadline: Duration, mut done: impl FnMut() -> bool) -> bool {
    let t0 = Instant::now();
    while t0.elapsed() < deadline {
        if done() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    done()
}

fn names_in(manifest: &str, list: &str) -> Vec<String> {
    // BENCHMARK.json is one directory up from the package.
    let text = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(manifest))
        .expect("BENCHMARK.json beside the benchmark directory");
    let start = text.find(&format!("\"{list}\"")).expect("list present");
    let end = start + text[start..].find(']').expect("list closes");
    text[start..end]
        .split("\"name\":")
        .skip(1)
        .map(|s| s.split('"').nth(1).unwrap().to_string())
        .collect()
}

#[test]
fn quick_run_covers_every_workload_and_metric_and_cleans_up() {
    let dir = temp_dir("quick");
    let marker = format!("quick-{}", std::process::id());
    let out = Command::new(BIN)
        .args(["--quick", "--trace", "--seed", "5"])
        .args(["--scratch", "scratch", "--out", "results.json"])
        .current_dir(&dir)
        .env(MARKER, &marker)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "quick run failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let results = std::fs::read_to_string(dir.join("results.json")).unwrap();
    assert!(results.contains("\"quick\": true"));
    for workload in names_in("../BENCHMARK.json", "workloads") {
        assert!(results.contains(&format!("\"{workload}\"")), "{workload}");
        assert!(
            dir.join(format!("benchmark/out/trace-{workload}.jsonl"))
                .exists(),
            "no trace for {workload}"
        );
    }
    for metric in names_in("../BENCHMARK.json", "end_to_end")
        .into_iter()
        .chain(names_in("../BENCHMARK.json", "per_layer"))
    {
        assert_eq!(
            results.matches(&format!("\"{metric}\":")).count(),
            6,
            "{metric} is not reported by all six workloads"
        );
    }
    assert!(
        !dir.join("scratch").exists(),
        "scratch directory left behind"
    );
    assert_eq!(
        marked_processes(&marker, 0),
        Vec::<u32>::new(),
        "leaked child"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn killing_the_harness_takes_its_children_with_it() {
    let dir = temp_dir("kill");
    let marker = format!("kill-{}", std::process::id());
    // The TCP workload has the deepest tree: harness → pass → worker.
    let mut harness = Command::new(BIN)
        .args([
            "--workload",
            "tcp2-galaxy",
            "--seed",
            "6",
            "--seconds",
            "60",
        ])
        .args(["--scratch", "scratch"])
        .current_dir(&dir)
        .env(MARKER, &marker)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let pid = harness.id();
    assert!(
        wait_until(Duration::from_secs(120), || marked_processes(&marker, pid)
            .len()
            >= 2),
        "pass and worker processes never appeared"
    );
    harness.kill().unwrap();
    harness.wait().unwrap();
    assert!(
        wait_until(Duration::from_secs(5), || marked_processes(&marker, pid)
            .is_empty()),
        "children survived the harness: {:?}",
        marked_processes(&marker, pid)
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_failing_run_prints_the_workload_and_no_result() {
    let dir = temp_dir("fail");
    let out = Command::new(BIN)
        .args(["--workload", "no-such-workload", "--seed", "1"])
        .current_dir(&dir)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no-such-workload"));
    assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn compare_flags_a_regression_and_passes_a_rerun() {
    let dir = temp_dir("compare");
    let results = |rate: [f64; 3]| {
        format!(
            "{{\"quick\": false, \"workloads\": {{\"fused1-galaxy\": {{\"end_to_end\": \
             {{\"ingest_tuples_per_s\": {{\"pick\": \"highest\", \"passes\": [{}, {}, {}]}}}}}}}}}}",
            rate[0], rate[1], rate[2]
        )
    };
    std::fs::write(dir.join("a.json"), results([100.0, 101.0, 99.0])).unwrap();
    std::fs::write(dir.join("b.json"), results([100.5, 99.5, 100.0])).unwrap();
    std::fs::write(dir.join("c.json"), results([80.0, 81.0, 79.0])).unwrap();
    std::fs::write(
        dir.join("bounds.json"),
        "{\"end_to_end\": [{\"name\": \"ingest_tuples_per_s\", \"unit\": \"tuples/s\", \
         \"better\": \"higher\", \"bound\": 0.1}]}",
    )
    .unwrap();
    let compare = |b: &str| {
        Command::new(BIN)
            .args(["compare", "a.json", b, "--bounds", "bounds.json"])
            .current_dir(&dir)
            .output()
            .unwrap()
    };
    let same = compare("b.json");
    assert!(same.status.success());
    assert!(String::from_utf8_lossy(&same.stdout).contains("within-bound"));
    let slower = compare("c.json");
    assert!(!slower.status.success());
    assert!(String::from_utf8_lossy(&slower.stdout).contains("worse"));
    std::fs::remove_dir_all(&dir).unwrap();
}
