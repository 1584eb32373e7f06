//! Black-box tests of the `spca` binary's argument handling: unknown
//! flags must be rejected with a nonzero exit naming the flag, never
//! silently ignored.

use std::process::Command;

fn spca(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_spca"))
        .args(args)
        .output()
        .expect("spawn spca")
}

/// Reads a running `spca`'s output up to the first line that starts with
/// `prefix` and returns the rest of that line.
fn line_after(stdout: &mut impl std::io::BufRead, prefix: &str) -> String {
    loop {
        let mut line = String::new();
        assert!(stdout.read_line(&mut line).unwrap() > 0, "no '{prefix}'");
        if let Some(rest) = line.trim_end().strip_prefix(prefix) {
            return rest.to_string();
        }
    }
}

#[test]
fn unknown_flag_is_rejected_and_named() {
    for (cmd, bogus) in [
        ("generate", "--outt"),
        ("run", "--engnes"),
        ("inspect", "--snapshots"),
        ("simulate", "--placment"),
    ] {
        let out = spca(&[cmd, bogus, "x"]);
        assert!(
            !out.status.success(),
            "{cmd} {bogus}: expected nonzero exit"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(bogus),
            "{cmd}: stderr must name the offending flag, got: {stderr}"
        );
        assert!(
            stderr.contains(cmd),
            "{cmd}: stderr must name the subcommand, got: {stderr}"
        );
    }
}

#[test]
fn unknown_subcommand_is_reported_before_its_flags() {
    let out = spca(&["bogus", "--x", "1"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown subcommand 'bogus'"),
        "got: {stderr}"
    );
    assert!(!stderr.contains("unknown flag --x"), "got: {stderr}");
    assert!(stderr.contains("USAGE:"), "got: {stderr}");
}

#[test]
fn flag_valid_for_one_subcommand_rejected_on_another() {
    // --seed belongs to `generate`, not `simulate`.
    let out = spca(&["simulate", "--seed", "1"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--seed"));
}

#[test]
fn repeated_flag_is_rejected() {
    let out = spca(&["generate", "--out", "a.csv", "--out", "b.csv"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("more than once"), "got: {stderr}");
}

#[test]
fn missing_value_is_rejected() {
    let out = spca(&["generate", "--out"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing a value"));
}

#[test]
fn zero_batch_is_rejected() {
    let out = spca(&["run", "--input", "nonexistent.csv", "--batch", "0"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--batch"));
}

#[test]
fn help_exits_zero() {
    let out = spca(&["help"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("unknown flags are rejected"));
    assert!(stdout.contains("--batch"));
}

#[test]
fn bad_fault_spec_is_rejected_and_named() {
    // Spec validation happens before any input I/O, so no file is needed.
    for bad in ["panic@engine1", "jitter@engine0:5", "drop@split:3"] {
        let out = spca(&["run", "--input", "nonexistent.csv", "--faults", bad]);
        assert!(!out.status.success(), "'{bad}': expected nonzero exit");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--faults"),
            "'{bad}': stderr must name the flag, got: {stderr}"
        );
        assert!(
            stderr.contains(bad),
            "'{bad}': stderr must echo the offending entry, got: {stderr}"
        );
    }
}

#[test]
fn fault_flags_pass_the_allow_list() {
    // A valid spec with a missing input must fail on the *input*, proving
    // --faults and --snapshot-dir themselves were accepted.
    let out = spca(&[
        "run",
        "--input",
        "nonexistent.csv",
        "--faults",
        "panic@engine1:5000",
        "--snapshot-dir",
        "/tmp/does-not-matter",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("does not exist"),
        "expected the input-file error, got: {stderr}"
    );
    assert!(
        !stderr.contains("unknown flag"),
        "fault flags must be allow-listed, got: {stderr}"
    );
}

#[test]
fn repeated_fault_flag_is_rejected() {
    let out = spca(&[
        "run",
        "--faults",
        "panic@engine0:1",
        "--faults",
        "panic@engine1:1",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("more than once"), "got: {stderr}");
}

#[test]
fn backfill_unknown_and_duplicate_flags_rejected() {
    let out = spca(&["backfill", "--partitons", "4"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--partitons"), "got: {stderr}");
    assert!(stderr.contains("backfill"), "got: {stderr}");

    let out = spca(&["backfill", "--workers", "2", "--workers", "4"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("more than once"), "got: {stderr}");

    // `run`-only flags do not leak into backfill's allow list.
    let out = spca(&["backfill", "--sync", "ring"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--sync"));
}

#[test]
fn backfill_flags_parse_and_missing_input_is_the_only_error() {
    // All backfill flags accepted: the failure must be the missing input
    // file, not flag parsing.
    let out = spca(&[
        "backfill",
        "--input",
        "nonexistent.csv",
        "--partitions",
        "4",
        "--state-dir",
        "/tmp/does-not-matter",
        "--workers",
        "2",
        "--components",
        "3",
        "--memory",
        "1000",
        "--out",
        "merged.snapshot",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("does not exist"),
        "expected the input error, got: {stderr}"
    );
    assert!(!stderr.contains("unknown flag"), "got: {stderr}");
}

#[test]
fn backfill_rejects_bad_flag_values() {
    let out = spca(&["backfill", "--input", "x.csv", "--partitions", "abc"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--partitions"), "got: {stderr}");

    let out = spca(&["backfill", "--input", "x.csv", "--partitions", "0"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--partitions"));

    let out = spca(&["backfill", "--workers"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing a value"));
}

#[test]
fn backfill_requires_input() {
    let out = spca(&["backfill", "--partitions", "4"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--input"));
}

#[test]
fn serve_unknown_and_duplicate_flags_rejected() {
    let out = spca(&["serve", "--adddr", "127.0.0.1:8080"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--adddr"), "got: {stderr}");
    assert!(stderr.contains("serve"), "got: {stderr}");

    let out = spca(&[
        "serve",
        "--addr",
        "127.0.0.1:8080",
        "--addr",
        "127.0.0.1:8081",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("more than once"), "got: {stderr}");
}

#[test]
fn serve_requires_addr() {
    let out = spca(&["serve", "--input", "nonexistent.csv"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--addr"));
}

#[test]
fn serve_rejects_bad_bind_address() {
    // Address validation happens before any ingest I/O, so a bad port is
    // reported even though the input does not exist either.
    for bad in ["127.0.0.1:notaport", "127.0.0.1", "localhost:8080"] {
        let out = spca(&["serve", "--addr", bad, "--input", "nonexistent.csv"]);
        assert!(!out.status.success(), "addr '{bad}' must be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--addr"), "got: {stderr}");
        assert!(stderr.contains("IP:PORT"), "got: {stderr}");
    }
}

#[test]
fn serve_rejects_bad_flag_values() {
    let out = spca(&[
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--threads",
        "0",
        "--input",
        "nonexistent.csv",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--threads"));

    let out = spca(&[
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--rate-limit",
        "-5",
        "--input",
        "nonexistent.csv",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--rate-limit"));
}

#[test]
fn serve_thread_pool_of_65_answers_healthz() {
    // Readers share the snapshot store without claiming a slot in it, so
    // the server pool has no ceiling.
    use std::io::{BufReader, Read, Write};

    let dir = std::env::temp_dir().join(format!("spca-cli-threads-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("corpus.csv");
    let gen = spca(&[
        "generate",
        "--out",
        csv.to_str().unwrap(),
        "--n",
        "400",
        "--pixels",
        "24",
        "--seed",
        "9",
    ]);
    assert!(gen.status.success());

    let mut child = Command::new(env!("CARGO_BIN_EXE_spca"))
        .args(["serve", "--addr", "127.0.0.1:0", "--threads", "65"])
        .args(["--input", csv.to_str().unwrap(), "--components", "3"])
        .args(["--serve-for", "30"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn spca");
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut line_after = |prefix: &str| line_after(&mut stdout, prefix);
    let server = line_after("serving queries on http://");
    line_after("serving the final eigensystem for ");

    let mut http = std::net::TcpStream::connect(server).expect("connect query server");
    http.write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    http.read_to_string(&mut response).unwrap();
    child.kill().unwrap();
    child.wait().unwrap();
    std::fs::remove_dir_all(&dir).ok();

    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    let body = response.split("\r\n\r\n").nth(1).unwrap();
    let epoch = body.trim_end().strip_prefix("ok ").expect(body);
    assert!(epoch.parse::<u64>().unwrap() > 0, "{body}");
}

#[test]
fn run_serve_flag_validates_address_and_dependents() {
    let out = spca(&[
        "run",
        "--input",
        "nonexistent.csv",
        "--serve",
        "1.2.3.4:bad",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--serve"), "got: {stderr}");
    assert!(stderr.contains("IP:PORT"), "got: {stderr}");

    // Serving-only flags are rejected when --serve is absent, same policy
    // as every other inapplicable-flag case.
    for flag in ["--serve-threads", "--rate-limit", "--publish-every"] {
        let out = spca(&["run", "--input", "nonexistent.csv", flag, "4"]);
        assert!(!out.status.success(), "{flag} without --serve must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("requires --serve"), "{flag}: got {stderr}");
    }
}

#[test]
fn run_elastic_flags_validate_before_any_work() {
    // A zero monitoring epoch is meaningless.
    let out = spca(&["run", "--input", "nonexistent.csv", "--elastic", "0"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--elastic"), "got: {stderr}");
    assert!(stderr.contains("at least 1 ms"), "got: {stderr}");

    // --max-engines is an elastic-only knob.
    let out = spca(&["run", "--input", "nonexistent.csv", "--max-engines", "4"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("requires --elastic"), "got: {stderr}");

    // The ceiling must cover the starting fleet.
    let out = spca(&[
        "run",
        "--input",
        "nonexistent.csv",
        "--engines",
        "4",
        "--elastic",
        "200",
        "--max-engines",
        "2",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("below the starting fleet"), "got: {stderr}");
}

#[test]
fn elastic_run_with_a_ceiling_of_one_engine_completes() {
    // Every app carries a membership handle, so the autoscaler attaches to
    // a fleet that can never grow instead of panicking on a missing one.
    let dir = std::env::temp_dir().join(format!("spca-cli-elastic1-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("tiny.csv");
    let csv = csv.to_str().unwrap();
    assert!(
        spca(&["generate", "--out", csv, "--n", "300", "--pixels", "16"])
            .status
            .success()
    );
    let out = spca(&[
        "run",
        "--input",
        csv,
        "--engines",
        "1",
        "--elastic",
        "50",
        "--max-engines",
        "1",
        "--components",
        "2",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stdout: {stdout}");
    assert!(stdout.contains("final fleet 1 engines"), "got: {stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn backfill_cold_then_warm_round_trip() {
    let dir = std::env::temp_dir().join(format!("spca-cli-backfill-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("corpus.csv");
    let gen = spca(&[
        "generate",
        "--out",
        csv.to_str().unwrap(),
        "--n",
        "400",
        "--pixels",
        "24",
        "--seed",
        "9",
    ]);
    assert!(gen.status.success());

    let store = dir.join("store");
    let run = |out_name: &str| {
        spca(&[
            "backfill",
            "--input",
            csv.to_str().unwrap(),
            "--partitions",
            "4",
            "--state-dir",
            store.to_str().unwrap(),
            "--workers",
            "2",
            "--components",
            "3",
            "--out",
            dir.join(out_name).to_str().unwrap(),
        ])
    };
    let cold = run("cold.snapshot");
    assert!(
        cold.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&cold.stderr)
    );
    let cold_out = String::from_utf8_lossy(&cold.stdout);
    assert!(
        cold_out.contains("0 cache hits, 4 computed, 0 quarantined"),
        "{cold_out}"
    );

    let warm = run("warm.snapshot");
    assert!(warm.status.success());
    let warm_out = String::from_utf8_lossy(&warm.stdout);
    assert!(
        warm_out.contains("4 cache hits, 0 computed, 0 quarantined"),
        "{warm_out}"
    );

    let a = std::fs::read(dir.join("cold.snapshot")).unwrap();
    let b = std::fs::read(dir.join("warm.snapshot")).unwrap();
    assert_eq!(a, b, "cold and warm merged snapshots must be bit-identical");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn backfill_into_a_closed_stdout_writes_its_out_file_and_exits_zero() {
    let dir = std::env::temp_dir().join(format!("spca-cli-backfill-pipe-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("corpus.csv");
    let gen = spca(&[
        "generate",
        "--out",
        csv.to_str().unwrap(),
        "--n",
        "400",
        "--pixels",
        "24",
        "--seed",
        "9",
    ]);
    assert!(gen.status.success());
    let backfill = |name: &str| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_spca"));
        cmd.args([
            "backfill",
            "--input",
            csv.to_str().unwrap(),
            "--partitions",
            "4",
            "--state-dir",
            dir.join(format!("{name}-store")).to_str().unwrap(),
            "--components",
            "3",
            "--out",
            dir.join(format!("{name}.snapshot")).to_str().unwrap(),
        ]);
        cmd
    };
    let normal = backfill("normal").output().expect("spawn spca");
    assert!(normal.status.success());

    // `spca backfill … | head -0`: the pipe's reader is gone before the
    // first line is written.
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let closed = backfill("closed")
        .stdout(writer)
        .output()
        .expect("spawn spca");
    assert!(
        closed.status.success(),
        "{:?}, stderr: {}",
        closed.status,
        String::from_utf8_lossy(&closed.stderr)
    );
    let a = std::fs::read(dir.join("normal.snapshot")).unwrap();
    let b = std::fs::read(dir.join("closed.snapshot")).unwrap();
    assert_eq!(a, b, "the --out file must not depend on stdout");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn valid_generate_round_trips() {
    let dir = std::env::temp_dir().join(format!("spca-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out_csv = dir.join("tiny.csv");
    let out = spca(&[
        "generate",
        "--out",
        out_csv.to_str().unwrap(),
        "--n",
        "5",
        "--pixels",
        "16",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(out_csv.exists());

    // The CI corpora are `generate` output for a fixed seed: the bytes are
    // pinned to what the build before the generator moved into
    // `GalaxyGenerator::survey_extract` wrote (FNV-1a 64 of the file).
    let pinned = dir.join("pinned.csv");
    let out = spca(&[
        "generate",
        "--out",
        pinned.to_str().unwrap(),
        "--n",
        "200",
        "--pixels",
        "48",
        "--seed",
        "7",
    ]);
    assert!(out.status.success());
    let bytes = std::fs::read(&pinned).unwrap();
    let fnv = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    });
    assert_eq!((bytes.len(), fnv), (164_789, 0x9954_9416_e9dd_d5a8));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn distributed_subcommands_reject_unknown_and_duplicate_flags() {
    for (cmd, bogus) in [("worker", "--cordinator"), ("coordinator", "--workerz")] {
        let out = spca(&[cmd, bogus, "x"]);
        assert!(!out.status.success());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(bogus), "{cmd}: got: {stderr}");
        assert!(stderr.contains(cmd), "{cmd}: got: {stderr}");
    }
    let out = spca(&[
        "worker",
        "--index",
        "0",
        "--index",
        "1",
        "--coordinator",
        "127.0.0.1:1",
        "--data",
        "127.0.0.1:1",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("more than once"), "got: {stderr}");

    let out = spca(&["coordinator", "--workers"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing a value"));
}

#[test]
fn worker_rejects_malformed_addresses() {
    for bad in ["localhost:99", "10.0.0.1", "1.2.3.4:notaport", "[::1]"] {
        let out = spca(&[
            "worker",
            "--coordinator",
            bad,
            "--index",
            "0",
            "--data",
            "127.0.0.1:1",
        ]);
        assert!(!out.status.success(), "addr '{bad}' must be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("as IP:PORT") && stderr.contains(bad),
            "addr '{bad}': got: {stderr}"
        );
    }
}

#[test]
fn worker_accepts_bracketed_ipv6_addresses() {
    // A well-formed [addr]:port must get past address validation; the
    // invocation then dies on the unparsable --index, proving the
    // address itself was accepted without dialing anything.
    let out = spca(&[
        "worker",
        "--coordinator",
        "[::1]:7400",
        "--index",
        "x",
        "--data",
        "[::1]:7401",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--index") && !stderr.contains("as IP:PORT"),
        "got: {stderr}"
    );
}

#[test]
fn worker_requires_its_mandatory_flags() {
    for (args, missing) in [
        (
            vec!["worker", "--index", "0", "--data", "127.0.0.1:1"],
            "--coordinator",
        ),
        (
            vec![
                "worker",
                "--coordinator",
                "127.0.0.1:1",
                "--data",
                "127.0.0.1:1",
            ],
            "--index",
        ),
        (
            vec!["worker", "--coordinator", "127.0.0.1:1", "--index", "0"],
            "--data",
        ),
    ] {
        let out = spca(&args);
        assert!(!out.status.success());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(missing),
            "expected '{missing}' in: {stderr}"
        );
    }
}

#[test]
fn coordinator_validates_listen_address_before_any_networking() {
    let dir = std::env::temp_dir().join(format!("spca-coord-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("tiny.csv");
    let gen = spca(&[
        "generate",
        "--out",
        csv.to_str().unwrap(),
        "--n",
        "8",
        "--pixels",
        "16",
    ]);
    assert!(gen.status.success());

    let out = spca(&[
        "coordinator",
        "--input",
        csv.to_str().unwrap(),
        "--snapshots",
        dir.join("snaps").to_str().unwrap(),
        "--workers",
        "2",
        "--listen",
        "not-an-address",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--listen") && stderr.contains("as IP:PORT"),
        "got: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn coordinator_rejects_whitespace_in_snapshot_paths_before_any_networking() {
    // The worker assignment line is whitespace-separated (`DistSpec::encode`):
    // such a path has to fail here, not in a worker mid-rendezvous.
    let dir = std::env::temp_dir().join(format!("spca-coord-ws-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("tiny.csv");
    let gen = spca(&[
        "generate",
        "--out",
        csv.to_str().unwrap(),
        "--n",
        "8",
        "--pixels",
        "16",
    ]);
    assert!(gen.status.success());
    let spaced = dir.join("my dir");
    let plain = dir.join("snaps");
    for (snapshots, recovery, flag) in [
        (&spaced, &plain, "--snapshots"),
        (&plain, &spaced, "--snapshot-dir"),
    ] {
        let out = spca(&[
            "coordinator",
            "--input",
            csv.to_str().unwrap(),
            "--snapshots",
            snapshots.to_str().unwrap(),
            "--snapshot-dir",
            recovery.to_str().unwrap(),
            "--workers",
            "2",
            "--listen",
            "127.0.0.1:0",
        ]);
        assert!(!out.status.success());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(flag) && stderr.contains("whitespace"),
            "{flag}: got: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Spawns `spca` with `args` plus a TCP ingest and a query server on
/// ephemeral ports, feeds it `corpus`, reads `/metrics` while the stream is
/// still open, then closes it. Returns the summary lines (everything after
/// the `running …` line, numbers blanked) and the metric names.
fn serve_over_tcp(args: &[&str], corpus: &[u8]) -> (Vec<String>, Vec<String>) {
    use std::io::{BufReader, Read, Write};
    use std::net::TcpStream;

    let mut child = Command::new(env!("CARGO_BIN_EXE_spca"))
        .args(args)
        .args(["--listen", "127.0.0.1:0", "--dim", "24"])
        .args(["--engines", "2", "--components", "3"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn spca");
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut line_after = |prefix: &str| line_after(&mut stdout, prefix);
    let ingest = line_after("listening on ");
    let server = line_after("serving queries on http://");
    line_after("running ");

    let mut feed = TcpStream::connect(ingest).expect("connect ingest");
    feed.write_all(corpus).unwrap();
    let mut http = TcpStream::connect(server).expect("connect query server");
    http.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    http.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    drop(feed); // EOF drains the run

    let mut rest = String::new();
    stdout.read_to_string(&mut rest).unwrap();
    assert!(child.wait().unwrap().success());

    let blank = |line: &str| {
        let mut out = String::new();
        for c in line.chars() {
            let c = if c.is_ascii_digit() || c == '.' {
                '#'
            } else {
                c
            };
            if c != '#' || !out.ends_with('#') {
                out.push(c);
            }
        }
        out
    };
    let body = response.split("\r\n\r\n").nth(1).unwrap();
    let mut names: Vec<String> = body
        .lines()
        .filter_map(|l| l.split([' ', '{']).next())
        .map(String::from)
        .collect();
    names.dedup();
    // A sync round skipped by the 1.5*N gate adds a `fault summary` line to
    // whichever run happened to last past a period: not part of the shape.
    let lines = rest.lines().filter(|l| !l.starts_with("fault summary: "));
    (lines.map(blank).collect(), names)
}

#[test]
fn serve_is_run_with_the_server_attached() {
    let dir = std::env::temp_dir().join(format!("spca-cli-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("corpus.csv");
    let gen = spca(&[
        "generate",
        "--out",
        csv.to_str().unwrap(),
        "--n",
        "400",
        "--pixels",
        "24",
        "--seed",
        "9",
    ]);
    assert!(gen.status.success());
    let corpus = std::fs::read(&csv).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    let (run_lines, run_metrics) = serve_over_tcp(&["run", "--serve", "127.0.0.1:0"], &corpus);
    let (mut serve_lines, serve_metrics) = serve_over_tcp(
        &["serve", "--addr", "127.0.0.1:0", "--serve-for", "1"],
        &corpus,
    );

    // `--serve-for` is the one thing only `serve` has.
    let lingering = "serving the final eigensystem for #s more";
    assert!(
        serve_lines.iter().any(|l| l == lingering),
        "{serve_lines:?}"
    );
    serve_lines.retain(|l| l != lingering);
    assert_eq!(run_lines, serve_lines);
    for expected in [
        "processed # tuples in #s (# tuples/s)",
        "query server: # epochs",
    ] {
        assert!(
            run_lines.iter().any(|l| l.starts_with(expected)),
            "no '{expected}' in {run_lines:?}"
        );
    }
    assert_eq!(run_metrics, serve_metrics);
    assert!(
        run_metrics.iter().any(|n| n == "spca_epoch"),
        "{run_metrics:?}"
    );
}
