//! Per-tuple cost of the streaming update — the number the whole system
//! design revolves around ("upon receiving a new input tuple, its internal
//! states are continuously updated by computationally inexpensive algebraic
//! operations") and the calibration input for the cluster simulator.
//!
//! Sweeps the paper's dimension range (Fig. 7's 250–2000) and the
//! eigensystem size p.

use criterion::{criterion_group, criterion_main, BenchmarkGroup, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use spca_core::{PcaConfig, RobustPca};
use spca_spectra::PlantedSubspace;

fn prepared_pca(d: usize, p: usize) -> (RobustPca, Vec<Vec<f64>>) {
    let cfg = PcaConfig::new(d, p)
        .with_memory(5000)
        .with_init_size(2 * p + 10);
    let mut pca = RobustPca::new(cfg);
    let w = PlantedSubspace::new(d, p, 0.05);
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..(2 * p + 20) {
        pca.update(&w.sample(&mut rng)).expect("finite");
    }
    let samples = w.sample_batch(&mut rng, 256);
    (pca, samples)
}

/// Times steady-state updates (masked when `mask` is given) of a prepared
/// `d`-dimensional, `p`-component estimator under `id`.
fn bench_update(g: &mut BenchmarkGroup<'_>, id: &str, d: usize, p: usize, mask: Option<&[bool]>) {
    let (mut pca, samples) = prepared_pca(d, p);
    let mut i = 0usize;
    g.bench_function(id, |b| {
        b.iter(|| {
            let s = &samples[i % samples.len()];
            i += 1;
            match mask {
                Some(m) => pca.update_masked(s, m),
                None => pca.update(s),
            }
            .expect("finite")
        })
    });
}

fn bench_dimension(c: &mut Criterion) {
    let mut g = c.benchmark_group("robust_update_vs_dim");
    g.sample_size(20);
    g.throughput(Throughput::Elements(1));
    for d in [250usize, 500, 1000, 2000] {
        bench_update(&mut g, &d.to_string(), d, 5, None);
    }
    g.finish();
}

fn bench_components(c: &mut Criterion) {
    let mut g = c.benchmark_group("robust_update_vs_p");
    g.sample_size(20);
    for p in [2usize, 5, 10, 20] {
        bench_update(&mut g, &p.to_string(), 500, p, None);
    }
    // The pipeline benchmark's wide workload (`W`: d = 1000, p = 10, two
    // spare components), so this artifact and that benchmark's
    // `core.robust.update_ns_per_row` time the same shape.
    bench_update(&mut g, "10_d1000", 1000, 10, None);
    g.finish();
}

fn bench_masked_update(c: &mut Criterion) {
    let mut g = c.benchmark_group("masked_update");
    g.sample_size(20);
    let d = 500;
    // 30% missing mask.
    let mask: Vec<bool> = (0..d).map(|i| i % 10 >= 3).collect();
    bench_update(&mut g, "gap_fill_30pct", d, 5, Some(&mask));
    g.finish();
}

criterion_group!(
    benches,
    bench_dimension,
    bench_components,
    bench_masked_update
);
criterion_main!(benches);
