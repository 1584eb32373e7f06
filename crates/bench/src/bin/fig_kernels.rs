//! Kernel-dispatch microbenchmark: scalar vs. dispatched (AVX2+FMA when
//! available) timings for `dot`, `axpy` and the GEMM inner block at
//! d ∈ {256, 1000, 4000}.
//!
//! Both columns are timed inside one process using the backend override,
//! so compiler flags, allocator state and frequency scaling are held as
//! equal as a userspace benchmark can make them. The GEMM cell multiplies
//! a `d × 32` panel by a `32 × 32` block — the tall-times-small shape
//! every consumer in the engine produces (basis panels, Gram
//! accumulation), not a square BLAS-3 stress shape.
//!
//! Shape check: a SIMD backend must beat scalar by [`FLOOR`] on `dot` and
//! `gemm` at d = 1000, or the process exits non-zero. When the dispatched
//! backend is scalar (no AVX2+FMA, or `SPCA_FORCE_SCALAR`) there is
//! nothing to compare, and the check says it is skipped. The two columns
//! are only comparable on an otherwise idle host: run it alone.
//!
//! Output: `target/figures/kernels.csv`.

use spca_bench::{cores, median, write_csv};
use spca_linalg::kernels::{self, Backend};
use std::hint::black_box;
use std::time::Instant;

const DIMS: [usize; 3] = [256, 1000, 4000];
const REPS: usize = 25;
const GEMM_K: usize = 32;
const GEMM_W: usize = 32;
/// Least dispatched-over-scalar speedup of `dot` and `gemm` at d = 1000.
const FLOOR: f64 = 1.5;

/// Median ns per call of `f`, self-calibrating the inner iteration count
/// so each sample runs ≥ ~1 ms.
fn time_ns(mut f: impl FnMut()) -> f64 {
    let mut iters = 1usize;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        if t0.elapsed().as_secs_f64() >= 1e-3 || iters >= 1 << 24 {
            break;
        }
        iters *= 4;
    }
    let mut samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_secs_f64() * 1e9 / iters as f64
        })
        .collect();
    median(&mut samples)
}

fn fill(n: usize, phase: f64) -> Vec<f64> {
    (0..n).map(|i| (i as f64 * 0.37 + phase).sin()).collect()
}

fn bench_kernel(kernel: &str, d: usize, be: Backend) -> f64 {
    kernels::set_backend_override(Some(be));
    let ns = match kernel {
        "dot" => {
            let a = fill(d, 0.0);
            let b = fill(d, 1.0);
            time_ns(|| {
                black_box(kernels::dot(black_box(&a), black_box(&b)));
            })
        }
        "axpy" => {
            let x = fill(d, 0.0);
            let mut y = fill(d, 1.0);
            time_ns(|| {
                kernels::axpy(black_box(1.0000000001), black_box(&x), black_box(&mut y));
            })
        }
        "gemm" => {
            let a = fill(d * GEMM_K, 0.0);
            let b = fill(GEMM_K * GEMM_W, 1.0);
            let mut out = vec![0.0; d * GEMM_W];
            time_ns(|| {
                out.fill(0.0);
                kernels::gemm_block(d, GEMM_K, GEMM_W, black_box(&a), black_box(&b), &mut out);
                black_box(&out);
            })
        }
        other => unreachable!("unknown kernel {other}"),
    };
    kernels::set_backend_override(None);
    ns
}

fn main() {
    let dispatched = kernels::backend();
    println!(
        "kernel dispatch, median ns/call of {REPS} samples, gemm as (d x {GEMM_K}) * \
         ({GEMM_K} x {GEMM_W}); dispatched backend: {} (SPCA_FORCE_SCALAR honored), {} cores",
        dispatched.name(),
        cores()
    );

    let mut rows = Vec::new();
    let mut gated = Vec::new();
    for (k, kernel) in ["dot", "axpy", "gemm"].into_iter().enumerate() {
        for d in DIMS {
            let scalar_ns = bench_kernel(kernel, d, Backend::Scalar);
            let dispatched_ns = bench_kernel(kernel, d, dispatched);
            let speedup = scalar_ns / dispatched_ns;
            println!("{kernel:>5} d={d:<5} scalar {scalar_ns:10.1} ns  dispatched {dispatched_ns:10.1} ns  {speedup:5.2}x");
            rows.push(vec![k as f64, d as f64, scalar_ns, dispatched_ns, speedup]);
            if kernel != "axpy" && d == 1000 {
                gated.push((kernel, speedup));
            }
        }
    }
    // Column 0 is the kernel's index in dot, axpy, gemm order.
    let header = ["kernel", "d", "scalar_ns", "dispatched_ns", "speedup"];
    let path = write_csv("kernels.csv", &header, &rows);
    println!("\nwrote {}", path.display());

    if dispatched == Backend::Scalar {
        println!(
            "\nshape check SKIPPED: the dispatched backend is scalar, nothing to time against it."
        );
        return;
    }
    for (kernel, speedup) in gated {
        assert!(
            speedup >= FLOOR,
            "{kernel} at d = 1000 is {speedup:.2}x over scalar, below {FLOOR}x \
             (run alone: a busy host skews both columns)"
        );
    }
    println!("\nshape check PASSED: dot and gemm at d = 1000 beat scalar by {FLOOR}x or more.");
}
