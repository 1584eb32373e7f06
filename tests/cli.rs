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

/// Runs `spca` and returns its stdout, failing the test on a nonzero exit.
fn spca_ok(args: &[&str]) -> String {
    let out = spca(args);
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{args:?}: {stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
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
    // The transport batch is `streams::DEFAULT_BATCH_SIZE`, not a flag.
    for cmd in ["run", "coordinator"] {
        let out = spca(&[cmd, "--input", "nonexistent.csv", "--batch", "0"]);
        assert!(!out.status.success());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown flag --batch"), "{cmd}: {stderr}");
    }
}

#[test]
fn help_exits_zero() {
    let out = spca(&["help"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("unknown flags are rejected"));
    assert!(stdout.contains("--serve-for"));
}

#[test]
fn bad_fault_spec_is_rejected_and_named() {
    // Spec validation happens before any input I/O, so no file is needed.
    for bad in [
        "panic@engine1",
        "jitter@engine0:5",
        "drop@split:3",
        "drop@split>engine1:3",
        "delay@split>engine1:3:5",
        "io-corrupt@store:1",
    ] {
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
fn run_rejects_wire_faults_it_opens_no_link_for() {
    // Parsed before any input I/O, so no file is needed.
    for plan in [
        "net-drop-conn@link:1",
        "panic@engine1:5,net-partial-write@link:2",
    ] {
        let out = spca(&[
            "run",
            "--input",
            "nonexistent.csv",
            "--faults",
            plan,
            "--snapshot-dir",
            "/tmp/does-not-matter",
        ]);
        assert!(!out.status.success(), "'{plan}': expected nonzero exit");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--faults") && stderr.contains("socket link"),
            "'{plan}': stderr must name the flag and why, got: {stderr}"
        );
    }
}

#[test]
fn run_rejects_storage_faults_without_a_snapshot_dir() {
    for plan in [
        "io-enospc@pe:1",
        "io-torn@pe:2",
        "io-fsync-err",
        "io-crash@op:8",
    ] {
        let out = spca(&["run", "--input", "nonexistent.csv", "--faults", plan]);
        assert!(!out.status.success(), "'{plan}': expected nonzero exit");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--faults") && stderr.contains("--snapshot-dir"),
            "'{plan}': stderr must name both flags, got: {stderr}"
        );
    }
    // With a directory the plan is accepted: the run fails on its input.
    let out = spca(&[
        "run",
        "--input",
        "nonexistent.csv",
        "--faults",
        "io-enospc@pe:1",
        "--snapshot-dir",
        "/tmp/does-not-matter",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("does not exist"), "got: {stderr}");
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
    let out = spca(&["run", "--serve", "127.0.0.1:8080", "--serve-thread", "2"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--serve-thread"), "got: {stderr}");
    assert!(stderr.contains("run"), "got: {stderr}");

    let out = spca(&[
        "run",
        "--serve",
        "127.0.0.1:8080",
        "--serve",
        "127.0.0.1:8081",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("more than once"), "got: {stderr}");
}

/// Lingering after the stream drains serves from an address: `--serve-for`
/// without `--serve` is a flag error, not a silent no-op.
#[test]
fn serve_requires_addr() {
    let out = spca(&["run", "--input", "nonexistent.csv", "--serve-for", "5"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--serve-for requires --serve"),
        "got: {stderr}"
    );
}

#[test]
fn serve_rejects_bad_flag_values() {
    let out = spca(&[
        "run",
        "--serve",
        "127.0.0.1:0",
        "--serve-threads",
        "0",
        "--input",
        "nonexistent.csv",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--serve-threads"));

    let out = spca(&[
        "run",
        "--serve",
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
        .args(["run", "--serve", "127.0.0.1:0", "--serve-threads", "65"])
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
fn serve_rejects_bad_bind_address() {
    // Address validation happens before any ingest I/O, so a bad port is
    // reported even though the input does not exist either.
    for bad in ["127.0.0.1:notaport", "127.0.0.1", "localhost:8080"] {
        let out = spca(&["run", "--serve", bad, "--input", "nonexistent.csv"]);
        assert!(!out.status.success(), "addr '{bad}' must be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--serve"), "got: {stderr}");
        assert!(stderr.contains("IP:PORT"), "got: {stderr}");
    }
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
    for flag in ["--serve-threads", "--rate-limit"] {
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
fn serve_for_adds_only_the_lingering_line() {
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

    let serve = ["run", "--serve", "127.0.0.1:0"];
    let (run_lines, run_metrics) = serve_over_tcp(&serve, &corpus);
    let (mut lingering_lines, lingering_metrics) =
        serve_over_tcp(&[&serve[..], &["--serve-for", "1"]].concat(), &corpus);

    let lingering = "serving the final eigensystem for #s more";
    assert!(
        lingering_lines.iter().any(|l| l == lingering),
        "{lingering_lines:?}"
    );
    lingering_lines.retain(|l| l != lingering);
    assert_eq!(run_lines, lingering_lines);
    for expected in [
        "processed # tuples in #s (# tuples/s)",
        "query server: # epochs",
    ] {
        assert!(
            run_lines.iter().any(|l| l.starts_with(expected)),
            "no '{expected}' in {run_lines:?}"
        );
    }
    assert_eq!(run_metrics, lingering_metrics);
    assert!(
        run_metrics.iter().any(|n| n == "spca_epoch"),
        "{run_metrics:?}"
    );
}

/// The archive-to-stream workflow of the README, one subcommand into the
/// next: a corpus of chosen redshift range and contamination, its backfill
/// snapshot, a live run warm-started from it, and each snapshot inspected.
#[test]
fn generate_backfill_inspect_and_warm_started_run_chain() {
    let dir = std::env::temp_dir().join(format!("spca-cli-chain-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let corpus = |name: &str, extra: &[&str]| {
        let base = [
            "generate",
            "--out",
            &path(name),
            "--n",
            "600",
            "--pixels",
            "24",
            "--seed",
            "3",
        ];
        spca_ok(&[&base[..], extra].concat())
    };

    let clean = corpus("clean.csv", &["--zmax", "0.3", "--contamination", "0"]);
    assert!(clean.contains("(0 contaminants)"), "{clean}");
    let default = corpus("default.csv", &[]);
    assert!(!default.contains("(0 contaminants)"), "{default}");
    assert_ne!(
        std::fs::read(path("clean.csv")).unwrap(),
        std::fs::read(path("default.csv")).unwrap()
    );

    let backfill = spca_ok(&[
        "backfill",
        "--input",
        &path("clean.csv"),
        "--partitions",
        "3",
        "--state-dir",
        &path("store"),
        "--components",
        "3",
        "--out",
        &path("merged.snapshot"),
    ]);
    assert!(backfill.contains("n_obs = 600"), "{backfill}");
    let merged = spca_ok(&["inspect", "--snapshot", &path("merged.snapshot")]);
    assert!(merged.contains("dimension  : 24"), "{merged}");
    assert!(merged.contains("n_obs      : 600"), "{merged}");

    let run = spca_ok(&[
        "run",
        "--input",
        &path("clean.csv"),
        "--engines",
        "2",
        "--components",
        "3",
        "--warm-start",
        &path("merged.snapshot"),
        "--report",
        &path("report.csv"),
        "--snapshots",
        &path("snaps"),
    ]);
    assert!(run.contains("warm-starting every engine from"), "{run}");
    assert!(run.contains("/600 rows flagged"), "{run}");
    let report = std::fs::read_to_string(path("report.csv")).unwrap();
    assert_eq!(report.lines().count(), 600);

    // Each engine starts from the archive's 600 observations and adds its
    // share of the stream's.
    let engine0 = spca_ok(&[
        "inspect",
        "--snapshot",
        &path("snaps/engine0_latest.snapshot"),
    ]);
    assert!(engine0.contains("dimension  : 24"), "{engine0}");
    let n_obs: f64 = engine0
        .lines()
        .find_map(|l| l.trim().strip_prefix("n_obs      : "))
        .expect(&engine0)
        .parse()
        .unwrap();
    assert!(n_obs > 600.0, "{engine0}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `run --url` reads the stream from an HTTP/1.1 response body: the paper's
/// "http URLs … out of the box" source, against a one-shot responder.
#[test]
fn run_streams_an_http_url() {
    use std::io::{Read, Write};

    let dir = std::env::temp_dir().join(format!("spca-cli-url-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("corpus.csv");
    let gen = spca(&[
        "generate",
        "--out",
        csv.to_str().unwrap(),
        "--n",
        "600",
        "--pixels",
        "24",
    ]);
    assert!(gen.status.success());
    let body = std::fs::read(&csv).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let url = format!("http://{}/corpus.csv", listener.local_addr().unwrap());
    let responder = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        let mut request = Vec::new();
        let mut byte = [0u8];
        while !request.ends_with(b"\r\n\r\n") {
            conn.read_exact(&mut byte).unwrap();
            request.push(byte[0]);
        }
        let head = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: text/csv\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        conn.write_all(head.as_bytes()).unwrap();
        conn.write_all(&body).unwrap();
        String::from_utf8(request).unwrap()
    });

    let stdout = spca_ok(&[
        "run",
        "--url",
        &url,
        "--dim",
        "24",
        "--engines",
        "2",
        "--components",
        "3",
    ]);
    let request = responder.join().unwrap();
    assert!(
        request.starts_with("GET /corpus.csv HTTP/1.1\r\n"),
        "{request}"
    );
    assert!(stdout.contains("processed 600 tuples"), "{stdout}");
}

#[test]
fn simulate_places_engines_as_asked() {
    let mut network = Vec::new();
    for placement in ["rr", "single", "grouped2"] {
        let stdout = spca_ok(&[
            "simulate",
            "--engines",
            "8",
            "--dim",
            "100",
            "--nodes",
            "4",
            "--placement",
            placement,
        ]);
        assert!(
            stdout.starts_with("simulated 8 engines on 4 nodes at d = 100:\n"),
            "{placement}: {stdout}"
        );
        let mb = stdout
            .lines()
            .find_map(|l| l.trim().strip_prefix("network    : "))
            .and_then(|l| l.strip_suffix(" MB transferred"))
            .expect(&stdout);
        network.push(mb.parse::<f64>().unwrap());
    }
    // One node has no network to cross; spread engines do.
    assert!(network[0] > 0.0 && network[2] > 0.0, "{network:?}");
    assert_eq!(network[1], 0.0, "{network:?}");

    let out = spca(&["simulate", "--placement", "ring"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--placement: unknown 'ring'"));
}

/// `--sync` picks how engines share state: a strategy builds the sync
/// controller (it shows as a PE in the CPU line), `none` builds none.
#[test]
fn run_sync_strategy_decides_the_sync_controller() {
    let dir = std::env::temp_dir().join(format!("spca-cli-sync-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("corpus.csv");
    let csv = csv.to_str().unwrap();
    assert!(
        spca(&["generate", "--out", csv, "--n", "300", "--pixels", "24"])
            .status
            .success()
    );
    for (sync, controller) in [("ring", true), ("broadcast", true), ("none", false)] {
        let stdout = spca_ok(&[
            "run",
            "--input",
            csv,
            "--engines",
            "2",
            "--components",
            "3",
            "--sync",
            sync,
        ]);
        assert!(stdout.contains("processed 300 tuples"), "{sync}: {stdout}");
        let pes = stdout
            .lines()
            .find(|l| l.starts_with("PE CPU seconds: "))
            .expect(&stdout);
        assert_eq!(pes.contains("sync-controller"), controller, "{sync}: {pes}");
    }
    let out = spca(&["run", "--input", csv, "--sync", "gossip"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--sync: unknown strategy 'gossip'"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `--memory` (the estimator's N) reaches the estimator of each subcommand
/// that declares it: a different N gives a different eigensystem.
#[test]
fn memory_reaches_every_estimator() {
    let dir = std::env::temp_dir().join(format!("spca-cli-memory-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let csv = path("corpus.csv");
    assert!(
        spca(&["generate", "--out", &csv, "--n", "600", "--pixels", "24"])
            .status
            .success()
    );
    let with_memory = |memory: &str| {
        let ok =
            |args: &[&str]| spca_ok(&[args, &["--components", "3", "--memory", memory]].concat());
        let run = ok(&["run", "--input", &csv, "--engines", "2"]);
        assert!(run.contains(&format!("N = {memory})")), "{run}");
        let snaps = path(&format!("coordinator-{memory}"));
        let backfill = path(&format!("backfill-{memory}.snapshot"));
        let store = path(&format!("store-{memory}"));
        ok(&[
            "coordinator",
            "--input",
            &csv,
            "--workers",
            "0",
            "--snapshots",
            &snaps,
        ]);
        ok(&[
            "backfill",
            "--input",
            &csv,
            "--state-dir",
            &store,
            "--out",
            &backfill,
        ]);
        (
            std::fs::read(format!("{snaps}/engine0_latest.snapshot")).unwrap(),
            std::fs::read(backfill).unwrap(),
        )
    };
    let (coordinator_a, backfill_a) = with_memory("5000");
    let (coordinator_b, backfill_b) = with_memory("50");
    assert_ne!(coordinator_a, coordinator_b);
    assert_ne!(backfill_a, backfill_b);
    std::fs::remove_dir_all(&dir).ok();
}
