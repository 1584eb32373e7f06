//! End-to-end tests of the partitioned backfill: parallel shard → persist
//! → tree-merge, its incrementality contract, and the splice into a live
//! streaming run.

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spca_core::metrics::subspace_distance;
use spca_core::PcaConfig;
use spca_engine::persist::{encode_snapshot, read_snapshot, write_snapshot};
use spca_engine::{
    backfill, partition_csv_files, partition_csv_rows, AppConfig, BackfillConfig, CorpusSlice,
    ParallelPcaApp, PartitionWorker, SyncStrategy,
};
use spca_spectra::{io, PlantedSubspace};
use spca_streams::ops::CsvFileSource;
use spca_streams::{content_hash, lock, Engine, StateStore};
use std::io::Read;
use std::ops::Range;
use std::path::PathBuf;

const D: usize = 12;
const P: usize = 3;

fn pca_cfg() -> PcaConfig {
    PcaConfig::new(D, P)
        .with_memory(2000)
        .with_init_size(20)
        .with_extra(2)
}

fn corpus(seed: u64, n: usize) -> Vec<Vec<f64>> {
    let planted = PlantedSubspace::new(D, P, 0.05);
    let mut rng = StdRng::seed_from_u64(seed);
    planted.sample_batch(&mut rng, n)
}

fn tmp_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("spca_backfill_it_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn write_corpus(path: &PathBuf, rows: &[Vec<f64>]) {
    io::write_csv(path, rows).unwrap();
}

/// The backfilled-then-merged eigensystem tracks a single sequential pass
/// over the same corpus. The agreement is approximate, not exact: each
/// partition re-warms its own M-scale and the merge truncates to p+q
/// components (documented merge tolerance, see DESIGN §9) — but the
/// recovered subspace must coincide and the eigenvalue mass must match.
#[test]
fn merged_backfill_matches_sequential_pass() {
    let dir = tmp_dir("seqmatch");
    let csv = dir.join("corpus.csv");
    write_corpus(&csv, &corpus(11, 1200));

    let cfg = BackfillConfig {
        pca: pca_cfg(),
        workers: 2,
        state_dir: dir.join("store"),
    };
    let partitions = partition_csv_rows(&csv, 4).unwrap();
    let outcome = backfill(&cfg, &partitions).unwrap();
    assert_eq!(outcome.stats.computed, 4);
    assert_eq!(outcome.merged.n_obs, 1200);

    let mut seq = PartitionWorker::new(pca_cfg());
    let text = std::fs::read_to_string(&csv).unwrap();
    let sequential = seq.process(&text).unwrap();

    let dist = subspace_distance(
        &outcome.merged.truncated(P).basis,
        &sequential.truncated(P).basis,
    )
    .unwrap();
    assert!(dist < 0.05, "merged vs sequential subspace distance {dist}");
    let m: f64 = outcome.merged.values.iter().sum();
    let s: f64 = sequential.values.iter().sum();
    assert!(
        (m - s).abs() < 0.25 * s.max(1e-9),
        "eigenvalue mass {m} vs {s}"
    );
    std::fs::remove_dir_all(dir).ok();
}

/// A warm re-run over an unchanged corpus is pure cache hits and produces
/// a bit-identical merged eigensystem — the determinism chain the CI gate
/// enforces (exact snapshot codec + merge from decoded store bytes +
/// fixed tree pairing).
#[test]
fn warm_rerun_is_full_cache_hit_and_bit_identical() {
    let dir = tmp_dir("warm");
    let csv = dir.join("corpus.csv");
    write_corpus(&csv, &corpus(12, 800));
    let cfg = BackfillConfig {
        pca: pca_cfg(),
        workers: 3,
        state_dir: dir.join("store"),
    };
    let partitions = partition_csv_rows(&csv, 5).unwrap();
    let cold = backfill(&cfg, &partitions).unwrap();
    assert_eq!(cold.stats.computed, 5);
    assert_eq!(cold.stats.cache_hits, 0);

    // Re-partitioning the unchanged corpus must reproduce ids and hashes.
    let again = partition_csv_rows(&csv, 5).unwrap();
    for (a, b) in partitions.iter().zip(&again) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.content_hash, b.content_hash);
    }

    let warm = backfill(&cfg, &again).unwrap();
    assert_eq!(warm.stats.cache_hits, 5);
    assert_eq!(warm.stats.computed, 0);
    assert_eq!(
        encode_snapshot(&cold.merged),
        encode_snapshot(&warm.merged),
        "warm merged eigensystem must be bit-identical to cold"
    );

    // Different worker counts must not change the result either.
    let one_worker = backfill(
        &BackfillConfig {
            workers: 1,
            ..cfg.clone()
        },
        &again,
    )
    .unwrap();
    assert_eq!(
        encode_snapshot(&cold.merged),
        encode_snapshot(&one_worker.merged)
    );
    std::fs::remove_dir_all(dir).ok();
}

/// Appending one partition to a by-file corpus recomputes exactly that
/// partition — the O(partition), never O(history), incrementality claim.
#[test]
fn adding_a_partition_recomputes_exactly_one() {
    let dir = tmp_dir("incremental");
    let data = corpus(13, 1000);
    for (i, chunk) in data.chunks(250).enumerate() {
        write_corpus(&dir.join(format!("day{i}.csv")), chunk);
    }
    let files =
        |n: usize| -> Vec<PathBuf> { (0..n).map(|i| dir.join(format!("day{i}.csv"))).collect() };
    let cfg = BackfillConfig {
        pca: pca_cfg(),
        workers: 2,
        state_dir: dir.join("store"),
    };
    let first = backfill(&cfg, &partition_csv_files(&files(3)).unwrap()).unwrap();
    assert_eq!(first.stats.computed, 3);
    assert_eq!(first.merged.n_obs, 750);

    // "Yesterday's observations arrive": one new file, three cache hits.
    let second = backfill(&cfg, &partition_csv_files(&files(4)).unwrap()).unwrap();
    assert_eq!(second.stats.cache_hits, 3);
    assert_eq!(second.stats.computed, 1);
    assert_eq!(second.merged.n_obs, 1000);
    std::fs::remove_dir_all(dir).ok();
}

/// Editing one partition's bytes invalidates exactly that store entry: the
/// content hash is the cache key, not the file name or mtime.
#[test]
fn content_change_invalidates_one_partition() {
    let dir = tmp_dir("invalidate");
    let data = corpus(14, 800);
    for (i, chunk) in data.chunks(200).enumerate() {
        write_corpus(&dir.join(format!("plate{i}.csv")), chunk);
    }
    let files: Vec<PathBuf> = (0..4).map(|i| dir.join(format!("plate{i}.csv"))).collect();
    let cfg = BackfillConfig {
        pca: pca_cfg(),
        workers: 2,
        state_dir: dir.join("store"),
    };
    backfill(&cfg, &partition_csv_files(&files).unwrap()).unwrap();

    // Recalibrate plate 2: same shape, different bytes.
    let recal: Vec<Vec<f64>> = data[400..600]
        .iter()
        .map(|r| r.iter().map(|v| v * 1.01).collect())
        .collect();
    write_corpus(&files[2], &recal);

    let rerun = backfill(&cfg, &partition_csv_files(&files).unwrap()).unwrap();
    assert_eq!(rerun.stats.cache_hits, 3);
    assert_eq!(rerun.stats.computed, 1);
    std::fs::remove_dir_all(dir).ok();
}

/// A partition whose bytes change between partitioning and parsing fails
/// with `InvalidData` and stores nothing: its worker hashes the bytes it
/// parses against the hash the partition was keyed by.
#[test]
fn bytes_changed_after_partitioning_fail_the_partition_and_store_nothing() {
    let dir = tmp_dir("midrun");
    let csv = dir.join("corpus.csv");
    write_corpus(&csv, &corpus(20, 600));
    let partitions = partition_csv_rows(&csv, 3).unwrap();

    // Same length, one digit changed inside the second partition.
    let mut bytes = std::fs::read(&csv).unwrap();
    let range = partitions[1].payload.range();
    let mid = (range.start + range.end) as usize / 2;
    let at = mid + bytes[mid..].iter().position(u8::is_ascii_digit).unwrap();
    bytes[at] = if bytes[at] == b'7' { b'3' } else { b'7' };
    std::fs::write(&csv, &bytes).unwrap();

    let cfg = BackfillConfig {
        pca: pca_cfg(),
        workers: 1,
        state_dir: dir.join("store"),
    };
    let err = backfill(&cfg, &partitions).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains(&partitions[1].id), "{err}");
    let store = StateStore::open(&cfg.state_dir).unwrap();
    assert!(!store.path_for(&partitions[1].id).exists());
    assert!(!store.path_for(&partitions[2].id).exists());

    // Partitioned again, the edited bytes key a state of their own.
    let again = partition_csv_rows(&csv, 3).unwrap();
    assert_ne!(again[1].content_hash, partitions[1].content_hash);
    let outcome = backfill(&cfg, &again).unwrap();
    assert_eq!(outcome.stats.cache_hits, 1);
    assert_eq!(outcome.stats.computed, 2);
    std::fs::remove_dir_all(dir).ok();
}

/// Splicing the merged backfill state into a live streaming run through
/// `AppConfig::warm_start` resumes bit-identically whether the state comes
/// from memory or from a persisted snapshot — the same guarantee the
/// checkpoint-rehydration path gives, because both feed the same
/// `install_eigensystem` entry point and the snapshot codec is exact.
#[test]
fn splice_resumes_bit_identically_from_memory_and_disk() {
    let dir = tmp_dir("splice");
    let csv = dir.join("history.csv");
    write_corpus(&csv, &corpus(15, 600));
    let cfg = BackfillConfig {
        pca: pca_cfg(),
        workers: 2,
        state_dir: dir.join("store"),
    };
    let outcome = backfill(&cfg, &partition_csv_rows(&csv, 3).unwrap()).unwrap();

    // Round-trip the merged state through disk.
    let snap = dir.join("merged.snapshot");
    write_snapshot(&snap, &outcome.merged).unwrap();
    let from_disk = read_snapshot(&snap).unwrap();

    let live = dir.join("live.csv");
    write_corpus(&live, &corpus(16, 400));

    let run = |warm: spca_core::EigenSystem| -> Vec<u8> {
        // One engine, no synchronization: the stream is consumed in order
        // and nothing wall-clock-driven perturbs the state trajectory.
        let mut app = AppConfig::new(1, pca_cfg());
        app.sync = SyncStrategy::None;
        app.warm_start = Some(warm);
        let (graph, handles) = ParallelPcaApp::build(&app, Box::new(CsvFileSource::new(&live)));
        Engine::run(graph);
        let mut state = lock(&handles.engine_states[0]);
        encode_snapshot(state.full_eigensystem().expect("initialized by warm start"))
    };

    let from_memory_bytes = run(outcome.merged.clone());
    let from_disk_bytes = run(from_disk);
    assert_eq!(
        from_memory_bytes, from_disk_bytes,
        "memory-spliced and disk-spliced runs must end in identical state"
    );
    std::fs::remove_dir_all(dir).ok();
}

/// A byte that is not UTF-8 used to fail the partition that held it (and
/// `partition_csv_rows` before that). It now costs the field it sits in:
/// the run completes, and the partition's state is bit-identical to the
/// one the same corpus gives with `nan` written in that field.
#[test]
fn undecodable_byte_costs_one_field_not_the_partition() {
    let dir = tmp_dir("bytes");
    let clean = dir.join("clean.csv");
    write_corpus(&clean, &corpus(17, 400));
    let text = std::fs::read_to_string(&clean).unwrap();

    // Row 250, field 3: a stray 0xFF in front of the number vs `nan`.
    let row_start = text.match_indices('\n').nth(249).unwrap().0 + 1;
    let field_start = row_start + text[row_start..].match_indices(',').nth(2).unwrap().0 + 1;
    let field_end = field_start + text[field_start..].find(',').unwrap();
    let mut broken = text.clone().into_bytes();
    broken.insert(field_start, 0xFF);
    let mut gapped = text.clone();
    gapped.replace_range(field_start..field_end, "nan");

    let mut worker = PartitionWorker::new(pca_cfg());
    let from_bytes = worker.process(&broken).unwrap();
    let from_nan = worker.process(&gapped).unwrap();
    assert_eq!(encode_snapshot(&from_bytes), encode_snapshot(&from_nan));
    let untouched = worker.process(&text).unwrap();
    assert_ne!(encode_snapshot(&from_bytes), encode_snapshot(&untouched));

    let csv = dir.join("broken.csv");
    std::fs::write(&csv, &broken).unwrap();
    let cfg = BackfillConfig {
        pca: pca_cfg(),
        workers: 2,
        state_dir: dir.join("store"),
    };
    let outcome = backfill(&cfg, &partition_csv_rows(&csv, 4).unwrap()).unwrap();
    assert_eq!(outcome.stats.computed, 4);
    assert_eq!(outcome.merged.n_obs, 400);
    std::fs::remove_dir_all(dir).ok();
}

/// The row index as the byte-predicate split built it: partition ids and
/// byte ranges, or `None` for a corpus without data rows. The reference
/// `partition_csv_rows`' newline search is checked against.
fn split_inclusive_partitions(bytes: &[u8], parts: usize) -> Option<Vec<(String, Range<usize>)>> {
    let mut row_starts = Vec::new();
    let mut offset = 0;
    for line in bytes.split_inclusive(|&b| b == b'\n') {
        if !spca_streams::csv::is_skip(line) {
            row_starts.push(offset);
        }
        offset += line.len();
    }
    let n = row_starts.len();
    let parts = parts.min(n);
    (n > 0).then(|| {
        (0..parts)
            .map(|p| {
                let (first, last) = (p * n / parts, (p + 1) * n / parts);
                let hi = if last < n {
                    row_starts[last]
                } else {
                    bytes.len()
                };
                (format!("rows-{first:06}-{last:06}"), row_starts[first]..hi)
            })
            .collect()
    })
}

/// The bytes of a slice, read back through its own reader.
fn read_back(slice: &CorpusSlice) -> Vec<u8> {
    let mut bytes = Vec::new();
    slice.open().unwrap().read_to_end(&mut bytes).unwrap();
    bytes
}

/// One corpus line: data, blank, a `#` comment (also behind Unicode
/// whitespace), or arbitrary bytes.
fn any_line() -> impl Strategy<Value = Vec<u8>> {
    (0u8..8, pvec(0usize..13, 1..16), pvec(any::<u8>(), 1..8)).prop_map(|(kind, field, raw)| {
        let fixed = match kind {
            0 => "",
            1 => " \t ",
            2 => "# header",
            3 => "\u{3000}# behind an ideographic space",
            4 => "\u{a0}\u{2003}#",
            5 => "\u{2003}1.5,2",
            6 => return raw,
            _ => return field.iter().map(|&i| b"0123456789.,n"[i]).collect(),
        };
        fixed.as_bytes().to_vec()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `partition_csv_rows` gives the ids, byte ranges and row split the
    /// byte-predicate loop gave, over blank lines, comments, CRLF endings,
    /// Unicode whitespace and a missing final newline.
    #[test]
    fn row_index_matches_the_byte_predicate_split(
        lines in pvec((any_line(), any::<bool>()), 0..40),
        final_newline in any::<bool>(),
        parts in 1usize..8,
    ) {
        let mut corpus = Vec::new();
        for (i, (line, crlf)) in lines.iter().enumerate() {
            corpus.extend_from_slice(line);
            if i + 1 < lines.len() || final_newline {
                corpus.extend_from_slice(if *crlf { b"\r\n" } else { b"\n" });
            }
        }
        let dir = tmp_dir("rowindex");
        let path = dir.join("corpus.csv");
        std::fs::write(&path, &corpus).unwrap();
        let got = partition_csv_rows(&path, parts);
        let read: Vec<Vec<u8>> = got.iter().flatten().map(|g| read_back(&g.payload)).collect();
        std::fs::remove_dir_all(&dir).ok();

        let Some(want) = split_inclusive_partitions(&corpus, parts) else {
            prop_assert_eq!(got.unwrap_err().kind(), std::io::ErrorKind::InvalidData);
            return Ok(());
        };
        let got = got.unwrap();
        prop_assert_eq!(got.len(), want.len());
        for ((g, bytes), (id, range)) in got.iter().zip(&read).zip(&want) {
            prop_assert_eq!(&g.id, id);
            prop_assert_eq!(g.payload.range(), range.start as u64..range.end as u64);
            prop_assert_eq!(bytes, &corpus[range.clone()]);
            prop_assert_eq!(g.content_hash, content_hash(&corpus[range.clone()]));
        }
    }
}

/// What a `feed_line` caller sees of the estimator's input checks. Text
/// cannot put a non-finite value under an observed bin — the row kernel
/// reads `inf` and `1e999` as missing, like `nan` — so `NotFinite` is not
/// reachable from a CSV line and such a row is an ordinary gap row; the
/// rows the estimator cannot use at all are the caller's error.
#[test]
fn non_finite_fields_feed_as_gaps_and_an_unusable_row_is_the_callers_error() {
    let rows = corpus(19, 60);
    // The corpus with field 2 of row 5 and field 7 of row 40 spelled `gaps`.
    let text = |gaps: [&str; 2]| {
        let field = |v: &f64| v.to_string();
        let mut lines: Vec<Vec<String>> =
            rows.iter().map(|r| r.iter().map(field).collect()).collect();
        lines[5][2] = gaps[0].to_string();
        lines[40][7] = gaps[1].to_string();
        let lines: Vec<String> = lines.iter().map(|l| l.join(",")).collect();
        lines.join("\n")
    };
    let mut worker = PartitionWorker::new(pca_cfg());
    let from_inf = worker.process(text(["inf", "-1e999"])).unwrap();
    let from_nan = worker.process(text(["nan", "nan"])).unwrap();
    assert_eq!(encode_snapshot(&from_inf), encode_snapshot(&from_nan));

    worker.begin();
    let all_missing = ["nan"; D].join(",");
    let err = worker.feed_line(all_missing.as_bytes()).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("no observed bins"), "{err}");
    let err = worker.feed_line(b"1.0,nan,3.0").unwrap_err();
    assert!(err.to_string().contains("dimension mismatch"), "{err}");
}
