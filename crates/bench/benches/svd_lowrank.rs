//! Cost of the SVDs behind the eigensystem algebra (paper eq. 1–3, 15–16):
//! the `(k+1) × (k+1)` core every streaming update decomposes in place of
//! the tall `d × (p+1)` factor ("the most computation-intensive operation
//! of the algorithm" per §III-B), and the tall `d × (2p+2)` merge factor.
//! Also benches the QR re-orthonormalization the merge path relies on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use spca_linalg::rng::fill_standard_normal;
use spca_linalg::{qr, svd, Mat};

fn nearly_orthogonal_factor(d: usize, p: usize, seed: u64) -> Mat {
    // The streaming factor's leading p columns come from an orthonormal
    // basis; build that shape rather than a generic random matrix.
    let mut rng = StdRng::seed_from_u64(seed);
    let mut raw = Mat::zeros(d, p);
    fill_standard_normal(&mut rng, raw.as_mut_slice());
    let q = qr::orthonormalize(&raw).expect("full rank");
    let mut a = Mat::zeros(d, p + 1);
    for j in 0..p {
        let scale = 2.0 * 0.8f64.powi(j as i32);
        for (o, &v) in a.col_mut(j).iter_mut().zip(q.col(j)) {
            *o = scale * v;
        }
    }
    let mut last = vec![0.0; d];
    fill_standard_normal(&mut rng, &mut last);
    a.col_mut(p).copy_from_slice(&last);
    a
}

fn bench_core_svd(c: &mut Criterion) {
    // The update's core: diag √(γλ) bordered by the projection of the new
    // observation, transposed as `low_rank_update` builds it.
    let mut g = c.benchmark_group("thin_svd_update_core");
    g.sample_size(30);
    for k in [4usize, 6, 12, 22] {
        let mut kt = Mat::zeros(k + 1, k + 1);
        for j in 0..k {
            kt[(j, j)] = 2.0 * 0.8f64.powi(j as i32);
            kt[(k, j)] = 0.05 * (1.3 * j as f64).sin();
        }
        kt[(k, k)] = 0.01;
        g.bench_with_input(BenchmarkId::from_parameter(k), &kt, |b, kt| {
            b.iter(|| svd::thin_svd(kt).expect("converges"))
        });
    }
    g.finish();
}

fn bench_merge_factor_svd(c: &mut Criterion) {
    // Merge factor: d × (2p + 2).
    let mut g = c.benchmark_group("thin_svd_merge_factor");
    g.sample_size(20);
    for d in [250usize, 1000] {
        let p = 5;
        let left = nearly_orthogonal_factor(d, p, 2);
        let right = nearly_orthogonal_factor(d, p, 3);
        let a = left.hcat(&right).expect("same rows");
        g.bench_with_input(BenchmarkId::from_parameter(d), &a, |b, a| {
            b.iter(|| svd::thin_svd(a).expect("converges"))
        });
    }
    g.finish();
}

fn bench_qr(c: &mut Criterion) {
    let mut g = c.benchmark_group("thin_qr");
    g.sample_size(30);
    for d in [250usize, 1000] {
        let mut rng = StdRng::seed_from_u64(4);
        let mut a = Mat::zeros(d, 8);
        fill_standard_normal(&mut rng, a.as_mut_slice());
        g.bench_with_input(BenchmarkId::from_parameter(d), &a, |b, a| {
            b.iter(|| qr::thin_qr(a).expect("full rank"))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_core_svd, bench_merge_factor_svd, bench_qr);
criterion_main!(benches);
