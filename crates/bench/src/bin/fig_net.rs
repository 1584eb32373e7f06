//! Wire-transport benchmark behind the recorded `BENCH_net.json`
//! artifact (`schema: net-v1`). Four measurements:
//!
//! 1. **Codec vs CSV.** Encode + decode round trips of d = 1000
//!    observation frames through the columnar binary codec, against
//!    formatting + parsing the same observations as CSV text — the wire
//!    representation the codec replaced. Gate: ≥ 5× tuples/s.
//! 2. **Steady-state allocations.** The codec stretch runs under a
//!    thread-filtered counting allocator (same pattern as
//!    `crates/streams/tests/codec_alloc.rs`). Gate: exactly 0.
//! 3. **Loopback distributed ratio.** The same corpus through
//!    `run_local` (one process, in-memory channels) and through a real
//!    coordinator + 2 worker *processes* on loopback TCP. Gate: ≥ 0.5×,
//!    waived below 4 cores where two processes time-slice one core. The
//!    two runs must also produce bit-identical eigensystem snapshots —
//!    the bench aborts otherwise.
//! 4. **Per-message overhead.** Half the median round trip of a
//!    64-byte message on loopback TCP with `TCP_NODELAY`: the measured
//!    calibration constant for the cluster cost model's
//!    `network_delay_us` (the paper's 2012 cluster is modeled at
//!    hundreds of µs; loopback shows today's floor).
//!
//! Re-executes itself as `fig_net worker --coordinator A --index N
//! --data D` for the worker processes — the same argument shape the
//! coordinator's respawn path uses.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spca_alloc_count::{allocations, track, CountingAlloc};
use spca_bench::json::{obj, record, Json};
use spca_bench::{cores, median, print_table};
use spca_engine::{run_coordinator, run_local, DistSpec};
use spca_spectra::PlantedSubspace;
use spca_streams::ops::CsvFileSource;
use spca_streams::{
    csv, decode_frame, encode_frame, ColumnarFrame, DataTuple, Tuple, DEFAULT_BATCH_SIZE,
};
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

// --- counting allocator (codec steady-state gate) ----------------------

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

// --- codec microbenchmark ----------------------------------------------

const DIM: usize = 1000;
const BATCH: usize = 64;
const CODEC_REPS: usize = 200;
const CSV_REPS: usize = 20;

/// A frame-sized batch with a gap mask on every 8th tuple, payloads from
/// a planted subspace so the CSV text has realistic digit counts.
fn sample_batch() -> Vec<Tuple> {
    let w = PlantedSubspace::new(DIM, 4, 0.05);
    let mut rng = StdRng::seed_from_u64(17);
    (0..BATCH)
        .map(|i| {
            let values = w.sample(&mut rng);
            let d = if i % 8 == 0 {
                let mask: Vec<bool> = (0..DIM).map(|j| (i + j) % 11 != 0).collect();
                DataTuple::masked(i as u64, values, mask)
            } else {
                DataTuple::new(i as u64, values)
            };
            Tuple::Data(d)
        })
        .collect()
}

struct CodecNumbers {
    encode_gbps: f64,
    decode_gbps: f64,
    roundtrip_tuples_per_s: f64,
    steady_allocs: u64,
    frame_bytes_per_tuple: f64,
}

fn bench_codec(tuples: &[Tuple]) -> CodecNumbers {
    let mut buf = Vec::new();
    let mut cols = ColumnarFrame::default();
    // Warm-up grows both buffers to working size.
    for _ in 0..8 {
        encode_frame(tuples, &mut buf).expect("encode");
        decode_frame(&buf, &mut cols).expect("decode");
    }
    let frame_bytes = buf.len();

    let t0 = Instant::now();
    for _ in 0..CODEC_REPS {
        encode_frame(tuples, &mut buf).expect("encode");
    }
    let t_enc = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    for _ in 0..CODEC_REPS {
        decode_frame(&buf, &mut cols).expect("decode");
    }
    let t_dec = t0.elapsed().as_secs_f64();

    // Round-trip stretch doubles as the allocation gate.
    track(true);
    let before = allocations();
    let t0 = Instant::now();
    for _ in 0..CODEC_REPS {
        encode_frame(tuples, &mut buf).expect("encode");
        decode_frame(&buf, &mut cols).expect("decode");
    }
    let t_rt = t0.elapsed().as_secs_f64();
    let steady_allocs = (allocations() - before) as u64;
    track(false);

    let total_bytes = (CODEC_REPS * frame_bytes) as f64;
    CodecNumbers {
        encode_gbps: total_bytes / t_enc / 1e9,
        decode_gbps: total_bytes / t_dec / 1e9,
        roundtrip_tuples_per_s: (CODEC_REPS * BATCH) as f64 / t_rt,
        steady_allocs,
        frame_bytes_per_tuple: frame_bytes as f64 / BATCH as f64,
    }
}

/// The wire path the codec replaced: full-precision CSV text, one
/// observation per line, `nan` marking gaps, parsed back exactly the way
/// `CsvFileSource` parses its input.
fn bench_csv(tuples: &[Tuple]) -> f64 {
    let mut text = String::new();
    let mut values: Vec<f64> = Vec::new();
    let mut mask: Vec<bool> = Vec::new();
    let mut sink = 0usize;
    // Warm-up sizes the text buffer.
    for rep in 0..CSV_REPS + 2 {
        let timed = rep == 2;
        let t0 = Instant::now();
        for _ in 0..if timed { CSV_REPS } else { 1 } {
            text.clear();
            for t in tuples {
                let Tuple::Data(d) = t else { unreachable!() };
                for (j, v) in d.values.iter().enumerate() {
                    if j > 0 {
                        text.push(',');
                    }
                    let present = d.mask.as_ref().is_none_or(|m| m[j]);
                    if present {
                        write!(text, "{v}").expect("format");
                    } else {
                        text.push_str("nan");
                    }
                }
                text.push('\n');
            }
            for line in text.lines() {
                let row = csv::parse_row(line.as_bytes(), &mut values, &mut mask);
                sink += values.len() + usize::from(row == csv::Row::Masked);
            }
        }
        if timed {
            let dt = t0.elapsed().as_secs_f64();
            assert!(sink > 0);
            return (CSV_REPS * BATCH) as f64 / dt;
        }
    }
    unreachable!()
}

// --- per-message overhead ----------------------------------------------

const PING_MSG: usize = 64;
const PINGS: usize = 2000;

/// Half the median loopback round trip of a small message: what one
/// frame send fundamentally costs before any payload bytes.
fn bench_per_message_overhead() -> f64 {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind echo");
    let addr = listener.local_addr().expect("echo addr");
    let echo = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().expect("accept");
        s.set_nodelay(true).ok();
        let mut buf = [0u8; PING_MSG];
        while s.read_exact(&mut buf).is_ok() {
            if s.write_all(&buf).is_err() {
                break;
            }
        }
    });

    let mut s = TcpStream::connect(addr).expect("connect echo");
    s.set_nodelay(true).ok();
    let msg = [0x5au8; PING_MSG];
    let mut buf = [0u8; PING_MSG];
    let mut rtts_us = Vec::with_capacity(PINGS);
    for i in 0..PINGS + 50 {
        let t0 = Instant::now();
        s.write_all(&msg).expect("ping");
        s.read_exact(&mut buf).expect("pong");
        if i >= 50 {
            rtts_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
    drop(s);
    echo.join().expect("echo thread");
    median(&mut rtts_us) / 2.0
}

// --- loopback distributed vs in-process --------------------------------

const ROWS: u64 = 30_000;
const CORPUS_DIM: usize = 48;

fn spec(snapshots: &Path) -> DistSpec {
    let nowhere: SocketAddr = "127.0.0.1:0".parse().expect("addr");
    DistSpec {
        n_engines: 2,
        n_workers: 2,
        dim: CORPUS_DIM,
        components: 4,
        memory: 5000,
        batch: DEFAULT_BATCH_SIZE,
        capacity: 1 << 20,
        snapshot_every: 0,
        snapshots: snapshots.to_path_buf(),
        recovery: None,
        coord_data: nowhere,
        worker_data: vec![nowhere; 2],
    }
}

fn write_corpus(path: &Path) {
    let w = PlantedSubspace::new(CORPUS_DIM, 4, 0.05);
    let mut rng = StdRng::seed_from_u64(7);
    let mut text = String::new();
    for _ in 0..ROWS {
        let row = w.sample(&mut rng);
        for (j, v) in row.iter().enumerate() {
            if j > 0 {
                text.push(',');
            }
            write!(text, "{v:.6}").expect("format");
        }
        text.push('\n');
    }
    std::fs::write(path, text).expect("write corpus");
}

struct DistNumbers {
    local_tuples_per_s: f64,
    dist_tuples_per_s: f64,
    restarts: u64,
}

fn bench_distributed(tmp: &Path) -> DistNumbers {
    let corpus = tmp.join("corpus.csv");
    write_corpus(&corpus);
    let snap_local = tmp.join("snap_local");
    let snap_dist = tmp.join("snap_dist");
    std::fs::create_dir_all(&snap_local).expect("mkdir");
    std::fs::create_dir_all(&snap_dist).expect("mkdir");

    let t0 = Instant::now();
    let local = run_local(&spec(&snap_local), Box::new(CsvFileSource::new(&corpus)));
    let t_local = t0.elapsed().as_secs_f64();
    assert_eq!(
        local.op("split").map(|o| o.tuples_in),
        Some(ROWS),
        "local run did not ingest the corpus"
    );

    // Reserve a control port, release it, and race to rebind: the window
    // is microseconds and the workers retry their dial for 30 s anyway.
    let ctl: SocketAddr = {
        let probe = TcpListener::bind("127.0.0.1:0").expect("probe port");
        probe.local_addr().expect("probe addr")
    };
    let exe = std::env::current_exe().expect("current_exe");
    let mut workers: Vec<_> = (0..2)
        .map(|i| {
            Command::new(&exe)
                .args([
                    "worker",
                    "--coordinator",
                    &ctl.to_string(),
                    "--index",
                    &i.to_string(),
                    "--data",
                    "127.0.0.1:0",
                ])
                .stdout(Stdio::null())
                .spawn()
                .expect("spawn worker")
        })
        .collect();

    let t0 = Instant::now();
    let coord = run_coordinator(
        ctl,
        "127.0.0.1:0".parse().expect("addr"),
        corpus,
        spec(&snap_dist),
    )
    .expect("coordinator");
    let t_dist = t0.elapsed().as_secs_f64();
    for w in &mut workers {
        w.wait().expect("worker exit");
    }
    assert_eq!(
        coord.report.op("split").map(|o| o.tuples_in),
        Some(ROWS),
        "distributed run did not ingest the corpus"
    );

    // Correctness backstop: the two runs must agree bit-for-bit.
    for k in 0..2 {
        let name = format!("engine{k}_latest.snapshot");
        let a = std::fs::read(snap_local.join(&name)).expect("local snapshot");
        let b = std::fs::read(snap_dist.join(&name)).expect("dist snapshot");
        assert_eq!(a, b, "{name}: distributed run diverged from in-process");
    }

    DistNumbers {
        local_tuples_per_s: ROWS as f64 / t_local,
        dist_tuples_per_s: ROWS as f64 / t_dist,
        restarts: local.total_restarts() + coord.report.total_restarts() + coord.respawns as u64,
    }
}

// --- worker re-exec ----------------------------------------------------

fn worker_main(args: &[String]) {
    let get = |flag: &str| -> &str {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .unwrap_or_else(|| panic!("fig_net worker: missing {flag}"))
    };
    let coordinator: SocketAddr = get("--coordinator").parse().expect("--coordinator");
    let index: usize = get("--index").parse().expect("--index");
    let data: SocketAddr = get("--data").parse().expect("--data");
    spca_engine::run_worker(coordinator, index, data).expect("worker run");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).is_some_and(|a| a == "worker") {
        worker_main(&args[2..]);
        return;
    }

    let cores = cores();
    let tuples = sample_batch();

    println!("codec microbenchmark (d = {DIM}, batch = {BATCH}, {CODEC_REPS} reps)...");
    let codec = bench_codec(&tuples);
    let csv_tuples_per_s = bench_csv(&tuples);
    let codec_vs_csv = codec.roundtrip_tuples_per_s / csv_tuples_per_s;

    println!("loopback per-message overhead ({PINGS} pings)...");
    let per_message_overhead_us = bench_per_message_overhead();

    println!("distributed loopback run ({ROWS} rows, d = {CORPUS_DIM}, 2 workers)...");
    let tmp = std::env::temp_dir().join(format!("spca_fig_net_{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("mkdir tmp");
    let dist = bench_distributed(&tmp);
    std::fs::remove_dir_all(&tmp).ok();
    let dist_ratio = dist.dist_tuples_per_s / dist.local_tuples_per_s;

    let header = [
        "codec_enc_gbps",
        "codec_dec_gbps",
        "codec_vs_csv",
        "dist_ratio",
        "msg_overhead_us",
    ];
    let rows = vec![vec![
        codec.encode_gbps,
        codec.decode_gbps,
        codec_vs_csv,
        dist_ratio,
        per_message_overhead_us,
    ]];
    print_table("wire transport", &header, &rows);

    let benchmark = format!(
        "wire transport: codec round trip vs CSV text at d = {DIM} ({CODEC_REPS} reps of \
         {BATCH}-tuple frames), 2-process loopback coordinator/worker run vs in-process \
         baseline ({ROWS} rows at d = {CORPUS_DIM}, bit-identical snapshots asserted), \
         loopback TCP_NODELAY half-round-trip as the per-message cost-model constant"
    );
    let machine_note = "container (see cores), cargo run --release, same build for every column";
    let target = format!(
        "codec >= 5x CSV at d = {DIM}, zero steady-state allocs, loopback 2-process >= \
         0.5x in-process (waived under 4 cores)"
    );
    let report = obj([
        ("schema", Json::Str("net-v1".into())),
        ("benchmark", Json::Str(benchmark)),
        ("machine_note", Json::Str(machine_note.into())),
        ("cores", Json::Num(cores as f64)),
        ("dim", Json::Num(DIM as f64)),
        ("batch", Json::Num(BATCH as f64)),
        ("tuples", Json::Num((CODEC_REPS * BATCH) as f64)),
        ("target", Json::Str(target)),
        ("restarts", Json::Num(dist.restarts as f64)),
        ("codec_encode_gbps", Json::Num(codec.encode_gbps)),
        ("codec_decode_gbps", Json::Num(codec.decode_gbps)),
        (
            "codec_roundtrip_tuples_per_s",
            Json::Num(codec.roundtrip_tuples_per_s),
        ),
        ("csv_roundtrip_tuples_per_s", Json::Num(csv_tuples_per_s)),
        ("codec_vs_csv", Json::Num(codec_vs_csv)),
        ("codec_steady_allocs", Json::Num(codec.steady_allocs as f64)),
        (
            "frame_bytes_per_tuple",
            Json::Num(codec.frame_bytes_per_tuple),
        ),
        ("local_tuples_per_s", Json::Num(dist.local_tuples_per_s)),
        ("dist_tuples_per_s", Json::Num(dist.dist_tuples_per_s)),
        ("dist_ratio", Json::Num(dist_ratio)),
        (
            "per_message_overhead_us",
            Json::Num(per_message_overhead_us),
        ),
    ]);
    let verdict = record("BENCH_net.json", &report).expect("recording fails its own gates");
    println!("wrote BENCH_net.json ({verdict})");
    println!(
        "codec {:.2}x CSV ({:.0} vs {:.0} tuples/s), {} steady-state allocs, dist ratio \
         {:.2} on {} core(s), {:.0} us/message",
        codec_vs_csv,
        codec.roundtrip_tuples_per_s,
        csv_tuples_per_s,
        codec.steady_allocs,
        dist_ratio,
        cores,
        per_message_overhead_us
    );
}
