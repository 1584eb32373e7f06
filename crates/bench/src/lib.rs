//! Shared harness for the figure-regeneration binaries.
//!
//! One binary per paper figure (see `src/bin/`): each prints the same
//! rows/series the paper reports and writes a CSV next to it under
//! `target/figures/`. `measure_update_cost` times the robust update that
//! calibrates the cluster simulator; every other kernel cost is a per-layer
//! metric of the pipeline benchmark (`BENCHMARK.json`).

use rand::rngs::StdRng;
use rand::SeedableRng;
use spca_core::{PcaConfig, RobustPca};
use spca_spectra::PlantedSubspace;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Directory where figure CSVs land: the workspace's `target/figures`,
/// wherever the binary runs from.
pub fn figures_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the workspace root")
        .join("target/figures");
    std::fs::create_dir_all(&dir).expect("create figures dir");
    dir
}

/// Writes a CSV with a header row and `rows` of equal length.
pub fn write_csv(name: &str, header: &[&str], rows: &[Vec<f64>]) -> PathBuf {
    let path = figures_dir().join(name);
    let mut f = std::fs::File::create(&path).expect("create csv");
    writeln!(f, "{}", header.join(",")).expect("write header");
    for row in rows {
        let line: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
        writeln!(f, "{}", line.join(",")).expect("write row");
    }
    path
}

/// Measures the real per-tuple cost of the robust incremental update at
/// dimension `d` with `p` components: the calibration input for the
/// cluster simulator's dimension-scaling curve.
pub fn measure_update_cost(d: usize, p: usize, n_tuples: usize) -> f64 {
    let cfg = PcaConfig::new(d, p)
        .with_memory(5000)
        .with_init_size(2 * p + 10);
    let mut pca = RobustPca::new(cfg);
    let workload = PlantedSubspace::new(d, p, 0.05);
    let mut rng = StdRng::seed_from_u64(1234);
    // Warm up past initialization.
    for _ in 0..(2 * p + 20) {
        pca.update(&workload.sample(&mut rng)).expect("finite");
    }
    // Pre-generate so the generator cost stays out of the measurement.
    let samples = workload.sample_batch(&mut rng, n_tuples);
    let t0 = Instant::now();
    for x in &samples {
        pca.update(x).expect("finite");
    }
    t0.elapsed().as_secs_f64() / n_tuples as f64
}

/// Measures the update-cost curve over the paper's dimension range
/// (Fig. 7's 250–2000) for feeding
/// [`spca_cluster::CostModel::with_measurements`].
pub fn calibrate_dimension_curve(dims: &[usize], p: usize) -> Vec<(usize, f64)> {
    dims.iter()
        .map(|&d| {
            // Fewer samples at larger d keeps calibration under a minute.
            let n = (200_000 / d).clamp(50, 2000);
            (d, measure_update_cost(d, p, n))
        })
        .collect()
}

/// The median of `samples` (upper median for an even count); sorts them.
pub fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    samples[samples.len() / 2]
}

/// Cores the host lets this process use; a figure that compares threads
/// prints it beside its numbers and scales its shape check to it.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Pretty-prints a table of `(x, series...)` rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<f64>]) {
    println!("\n=== {title} ===");
    let widths: Vec<usize> = header.iter().map(|h| h.len().max(12)).collect();
    let head: Vec<String> = header
        .iter()
        .zip(&widths)
        .map(|(h, w)| format!("{h:>w$}"))
        .collect();
    println!("{}", head.join(" "));
    for row in rows {
        let cells: Vec<String> = row
            .iter()
            .zip(&widths)
            .map(|(v, w)| {
                if v.abs() >= 1000.0 || (*v != 0.0 && v.abs() < 0.01) {
                    format!("{v:>w$.3e}")
                } else {
                    format!("{v:>w$.3}")
                }
            })
            .collect();
        println!("{}", cells.join(" "));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_cost_is_positive_and_reasonable() {
        let t = measure_update_cost(64, 3, 100);
        assert!(t > 0.0 && t < 0.1, "per-tuple cost {t}");
    }

    #[test]
    fn cost_grows_with_dimension() {
        let t_small = measure_update_cost(32, 3, 150);
        let t_big = measure_update_cost(256, 3, 150);
        assert!(t_big > t_small, "{t_big} vs {t_small}");
    }

    #[test]
    fn csv_written_under_figures() {
        let p = write_csv("selftest.csv", &["a", "b"], &[vec![1.0, 2.0]]);
        // `cargo test` runs in the package root: a path relative to the
        // working directory would land under `crates/bench`.
        let at = std::fs::canonicalize(&p).unwrap();
        assert!(
            !at.starts_with(env!("CARGO_MANIFEST_DIR")),
            "{}",
            at.display()
        );
        assert!(at.ends_with("target/figures/selftest.csv"));
        let content = std::fs::read_to_string(&p).unwrap();
        assert!(content.starts_with("a,b\n1,2"));
        std::fs::remove_file(p).ok();
    }
}
