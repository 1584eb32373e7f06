//! What one checkpoint capture of an engine costs the thread that owns the
//! state, at the pipeline benchmark's `G` shape (d = 500, k = 6): the
//! eigensystem clone, and the text encode `Checkpoint::snapshot` runs at
//! capture time; the decode is what a restore pays. The fsyncs are the
//! writer thread's (DESIGN §7) and are not here.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use spca_core::batch::batch_pca;
use spca_engine::persist::{decode_snapshot, encode_snapshot};
use spca_spectra::PlantedSubspace;

fn bench_snapshot_codec(c: &mut Criterion) {
    let (d, k) = (500, 6);
    let w = PlantedSubspace::new(d, k, 0.05);
    let data = w.sample_batch(&mut StdRng::seed_from_u64(1), 3 * k + 30);
    let eig = batch_pca(&data, k).expect("batch fit");
    let bytes = encode_snapshot(&eig);

    let mut g = c.benchmark_group(&format!("snapshot_d{d}_k{k}_{}B", bytes.len()));
    g.bench_function("clone", |b| b.iter(|| eig.clone()));
    g.bench_function("encode", |b| b.iter(|| encode_snapshot(&eig)));
    g.bench_function("decode", |b| {
        b.iter(|| decode_snapshot(&bytes).expect("round trip"))
    });
    g.finish();
}

criterion_group!(benches, bench_snapshot_codec);
criterion_main!(benches);
