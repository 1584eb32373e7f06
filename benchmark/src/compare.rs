//! `spca-benchmark compare A.json B.json`: per workload × end-to-end
//! metric, both values (picked from the passes as the benchmark does),
//! the ratio B ÷ A (A is the base), and a verdict against the bounds in
//! `BENCHMARK.json`.

use crate::harness::Pick;
use crate::json::Json;
use crate::stats::spread;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    WithinBound,
    /// The run-to-run spread of either side is wider than the bound, so
    /// the comparison cannot tell a change from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within-bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: every pass's value and how the benchmark
/// picks the reported one from them.
pub struct Side {
    pub pick: Pick,
    pub passes: Vec<f64>,
}

impl Side {
    fn value(&self) -> f64 {
        self.pick.of(&self.passes)
    }
}

/// `a` is the base, `b` the candidate; `bound` is the share of the base's
/// value by which the metric may worsen.
pub fn verdict(a: &Side, b: &Side, lower_is_better: bool, bound: f64) -> Verdict {
    if spread(&a.passes).max(spread(&b.passes)) > bound {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (a.value(), b.value());
    let worsening = if lower_is_better { mb - ma } else { ma - mb } / ma.abs();
    if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn side(results: &Json, workload: &str, metric: &str) -> Option<Side> {
    let entry = results
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?;
    Some(Side {
        pick: Pick::parse(entry.get("pick")?.as_str()?)?,
        passes: entry
            .get("passes")?
            .as_arr()?
            .iter()
            .filter_map(Json::as_f64)
            .collect(),
    })
}

/// Prints the table; an error if anything is `worse` or `unresolved`.
pub fn run(files: &[&str], bounds_path: &str) -> Result<(), String> {
    let [a_path, b_path] = files else {
        return Err("compare takes exactly two results files".into());
    };
    let (a, b, spec) = (load(a_path)?, load(b_path)?, load(bounds_path)?);
    let quick = |r: &Json| r.get("quick") == Some(&Json::Bool(true));
    if quick(&a) || quick(&b) {
        return Err("quick results are never comparable".into());
    }
    let metrics = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or(format!("{bounds_path}: no end_to_end list"))?;
    let workloads = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or(format!("{a_path}: no workloads"))?;

    println!("base A = {a_path}, candidate B = {b_path}; ratio = B / A");
    println!(
        "{:<18} {:<20} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "value A", "value B", "B/A", "bound"
    );
    let mut bad = 0;
    for (workload, _) in workloads {
        for m in metrics {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or_default();
            let (name, lower) = (field("name"), field("better") == "lower");
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let (Some(va), Some(vb)) = (side(&a, workload, name), side(&b, workload, name)) else {
                return Err(format!(
                    "{workload} × {name} is missing from a results file"
                ));
            };
            let v = verdict(&va, &vb, lower, bound);
            bad += usize::from(matches!(v, Verdict::Worse | Verdict::Unresolved));
            println!(
                "{workload:<18} {name:<20} {:>14.4} {:>14.4} {:>8.3} {:>6.0}%  {}",
                va.value(),
                vb.value(),
                vb.value() / va.value(),
                100.0 * bound,
                v.label()
            );
        }
    }
    if bad > 0 {
        return Err(format!("{bad} pairing(s) worse or unresolved"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let side = |pick, passes: [f64; 3]| Side {
            pick,
            passes: passes.to_vec(),
        };
        let rate = |passes| side(Pick::Highest, passes);
        let base = rate([100.0, 101.0, 99.0]);
        // Throughput (higher is better), bound 5 %.
        assert_eq!(
            verdict(&base, &rate([90.0, 91.0, 89.0]), false, 0.05),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&base, &rate([110.0, 111.0, 109.0]), false, 0.05),
            Verdict::Better
        );
        assert_eq!(
            verdict(&base, &rate([97.0, 98.0, 96.0]), false, 0.05),
            Verdict::WithinBound
        );
        // Latency (lower is better): the same numbers flip.
        assert_eq!(
            verdict(
                &side(Pick::Lowest, [100.0, 101.0, 99.0]),
                &side(Pick::Lowest, [90.0, 91.0, 89.0]),
                true,
                0.05
            ),
            Verdict::Better
        );
        // A side noisier than the bound cannot be judged.
        assert_eq!(
            verdict(&base, &rate([80.0, 100.0, 120.0]), false, 0.05),
            Verdict::Unresolved
        );
    }
}
