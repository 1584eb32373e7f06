//! The text-ingest layer on its own: one call of the row kernel per
//! iteration, on the three kinds of row the pipeline meets — short values
//! (at most eight characters, what the spectrum files hold: exact path),
//! the same with a 15 % run of `nan`, and full-precision 17-digit text
//! (what `{}` writes for an arbitrary double: standard-library fallback).
//!
//! Each iteration parses the next of 256 different rows. Parsing one row
//! over and over lets the branch predictor learn its field widths and
//! signs, and reads about a third faster than a stream ever does.
//! `ns/iter` is therefore ns per row — at d = 500 with gaps, the number to
//! hold against the pipeline benchmark's `spectra.io.parse_ns_per_row` on
//! corpus G — and the MB/s column is text consumed.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spca_streams::csv::parse_row;
use std::fmt::Write;
use std::hint::black_box;

const ROWS: usize = 256;

#[derive(Clone, Copy)]
enum Kind {
    Short,
    Gaps,
    Full,
}

/// Six significant digits in at most eight characters, sign included, and
/// `.25` rather than `0.25` — the spelling of the benchmark corpora.
fn write_short(text: &mut String, v: f64) {
    let a = v.abs();
    let decimals = if a < 1.0 { 6 } else { 5 };
    let digits = format!("{a:.decimals$}");
    if v < 0.0 {
        text.push('-');
    }
    text.push_str(digits.strip_prefix('0').unwrap_or(&digits));
}

fn row(rng: &mut StdRng, d: usize, kind: Kind) -> String {
    let gap_start = rng.gen_range(0..d);
    let gap = gap_start..gap_start + d * 15 / 100;
    let mut text = String::new();
    for j in 0..d {
        if j > 0 {
            text.push(',');
        }
        let v: f64 = rng.gen_range(-1.0..1.0) * rng.gen_range(0.0..3.0);
        match kind {
            Kind::Gaps if gap.contains(&j) => text.push_str("nan"),
            Kind::Full => write!(text, "{v}").expect("format"),
            _ => write_short(&mut text, v),
        }
    }
    text.push('\n');
    text
}

fn bench_csv_parse(c: &mut Criterion) {
    let mut g = c.benchmark_group("csv_parse");
    g.sample_size(30);
    for d in [64usize, 500, 1000] {
        for (name, kind) in [
            ("short", Kind::Short),
            ("gaps15", Kind::Gaps),
            ("full", Kind::Full),
        ] {
            let mut rng = StdRng::seed_from_u64(d as u64);
            let rows: Vec<String> = (0..ROWS).map(|_| row(&mut rng, d, kind)).collect();
            let bytes: usize = rows.iter().map(String::len).sum();
            let mut values = Vec::with_capacity(d);
            let mut mask = Vec::with_capacity(d);
            let mut next = 0;
            g.throughput(Throughput::Bytes((bytes / ROWS) as u64));
            g.bench_with_input(
                BenchmarkId::from_parameter(format!("{name}_d{d}")),
                &rows,
                |b, rows| {
                    b.iter(|| {
                        let line = rows[next % ROWS].as_bytes();
                        next += 1;
                        black_box(parse_row(black_box(line), &mut values, &mut mask))
                    })
                },
            );
        }
    }
    g.finish();
}

criterion_group!(benches, bench_csv_parse);
criterion_main!(benches);
