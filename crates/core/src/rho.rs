//! Bounded ρ-functions for the M-scale estimate.
//!
//! The paper (§II-A) requires a bounded ρ scaled so that `ρ(0) = 0` and
//! `ρ(∞) = 1`, with weights `W(t) = ρ'(t)` and `W*(t) = ρ(t)/t`, where the
//! argument is the *squared, scale-normalized* residual `t = r²/σ²`.
//!
//! The default is the Tukey bisquare, the choice of Maronna (2005) whose
//! M-scale procedure the paper adopts. Also provided: the smoothly
//! redescending Welsch exponential, and the unbounded classical
//! `ρ(t) = t` (which reduces every robust recursion to its classical
//! counterpart — Fig. 1's non-robust baseline, and a consistency oracle
//! in tests).

/// A bounded robust ρ-function on the squared normalized residual.
pub trait Rho: Send + Sync {
    /// ρ(t), non-decreasing, ρ(0)=0, bounded by 1 (except [`Classical`]).
    fn rho(&self, t: f64) -> f64;

    /// Hard-rejection weight `W(t) = ρ'(t)` (eq. 7).
    fn weight(&self, t: f64) -> f64;

    /// Scale weight `W*(t) = ρ(t)/t`, continuously extended at `t = 0`
    /// (eq. 8).
    fn scale_weight(&self, t: f64) -> f64 {
        if t <= 0.0 {
            // lim_{t→0} ρ(t)/t = ρ'(0)
            self.weight(0.0)
        } else {
            self.rho(t) / t
        }
    }

    /// The value of `t` above which an observation receives zero weight
    /// (i.e. is treated as a pure outlier), or `f64::INFINITY` if weights
    /// never vanish.
    fn rejection_point(&self) -> f64;
}

/// Tukey bisquare on the squared residual: for `t ≤ c²`,
/// `ρ(t) = 1 − (1 − t/c²)³`; for `t > c²`, `ρ(t) = 1`.
///
/// `W(t) = (3/c²)(1 − t/c²)²` inside the acceptance region, `0` outside —
/// so gross outliers are *completely* rejected, which is what lets the
/// streaming eigensystem ignore the "rainbow effect" of Fig. 1.
#[derive(Debug, Clone, Copy)]
pub struct Bisquare {
    c2: f64,
}

impl Bisquare {
    /// Creates a bisquare with rejection point `c²` (in units of `r²/σ²`).
    ///
    /// The conventional default [`Bisquare::default`] rejects at `t = 9`,
    /// i.e. residuals beyond 3σ.
    pub fn new(c2: f64) -> Self {
        assert!(c2 > 0.0, "rejection point must be positive");
        Bisquare { c2 }
    }
}

impl Default for Bisquare {
    fn default() -> Self {
        Bisquare::new(9.0)
    }
}

impl Rho for Bisquare {
    fn rho(&self, t: f64) -> f64 {
        if t >= self.c2 {
            1.0
        } else if t <= 0.0 {
            0.0
        } else {
            // Factored form 1 − u³ = (1 − u)(1 + u + u²) with 1 − u = t/c²:
            // avoids catastrophic cancellation for t ≪ c².
            let u = 1.0 - t / self.c2;
            (t / self.c2) * (1.0 + u + u * u)
        }
    }

    fn scale_weight(&self, t: f64) -> f64 {
        // ρ(t)/t = (1 + u + u²)/c² inside the acceptance region — exact and
        // stable down to t = 0 where it equals ρ'(0) = 3/c².
        if t >= self.c2 {
            1.0 / t
        } else if t < 0.0 {
            0.0
        } else {
            let u = 1.0 - t / self.c2;
            (1.0 + u + u * u) / self.c2
        }
    }

    fn weight(&self, t: f64) -> f64 {
        if t >= self.c2 || t < 0.0 {
            0.0
        } else {
            let u = 1.0 - t / self.c2;
            3.0 / self.c2 * u * u
        }
    }

    fn rejection_point(&self) -> f64 {
        self.c2
    }
}

/// Welsch (exponential) ρ: `ρ(t) = 1 − exp(−t/c²)`.
///
/// Smoothly redescending — weights decay exponentially but never hit an
/// exact zero, so extreme observations keep an (exponentially tiny) say.
/// Included for the ρ-ablation: it trades the bisquare's hard rejection
/// point for infinite support.
#[derive(Debug, Clone, Copy)]
pub struct Welsch {
    c2: f64,
}

impl Welsch {
    /// Creates a Welsch ρ with scale `c²`.
    pub fn new(c2: f64) -> Self {
        assert!(c2 > 0.0, "scale must be positive");
        Welsch { c2 }
    }
}

impl Default for Welsch {
    fn default() -> Self {
        Welsch::new(9.0)
    }
}

impl Rho for Welsch {
    fn rho(&self, t: f64) -> f64 {
        if t <= 0.0 {
            0.0
        } else {
            -(-t / self.c2).exp_m1()
        }
    }

    fn weight(&self, t: f64) -> f64 {
        if t < 0.0 {
            0.0
        } else {
            (-t / self.c2).exp() / self.c2
        }
    }

    fn scale_weight(&self, t: f64) -> f64 {
        if t <= 0.0 {
            1.0 / self.c2 // lim ρ(t)/t = ρ'(0)
        } else {
            self.rho(t) / t
        }
    }

    fn rejection_point(&self) -> f64 {
        // Weights never vanish exactly; report where they fall below a
        // float-meaningful floor (w < 1e-12 · w(0) at t ≈ 27.6·c²).
        27.7 * self.c2
    }
}

/// The classical, unbounded `ρ(t) = t`: every observation gets weight 1 and
/// the M-scale degenerates to the mean squared residual. With this choice
/// the robust recursions reproduce classical streaming PCA exactly, which
/// the test-suite exploits as a consistency oracle.
#[derive(Debug, Clone, Copy, Default)]
pub struct Classical;

impl Rho for Classical {
    fn rho(&self, t: f64) -> f64 {
        t
    }

    fn weight(&self, _t: f64) -> f64 {
        1.0
    }

    fn rejection_point(&self) -> f64 {
        f64::INFINITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_bounds<R: Rho>(r: &R) {
        assert_eq!(r.rho(0.0), 0.0);
        for &t in &[0.01, 0.5, 1.0, 3.0, 8.9, 9.0, 100.0] {
            let v = r.rho(t);
            assert!((0.0..=1.0).contains(&v), "rho({t}) = {v}");
            assert!(r.weight(t) >= 0.0);
        }
        // Monotone non-decreasing.
        let mut prev = 0.0;
        for i in 0..100 {
            let v = r.rho(i as f64 * 0.2);
            assert!(v >= prev - 1e-15);
            prev = v;
        }
    }

    #[test]
    fn bisquare_bounds_and_monotonicity() {
        check_bounds(&Bisquare::default());
    }

    #[test]
    fn welsch_bounds_and_monotonicity() {
        check_bounds(&Welsch::default());
    }

    #[test]
    fn welsch_weight_is_derivative() {
        let wl = Welsch::default();
        let h = 1e-6;
        for &t in &[0.1, 1.0, 4.0, 8.0, 20.0] {
            let num = (wl.rho(t + h) - wl.rho(t - h)) / (2.0 * h);
            assert!((num - wl.weight(t)).abs() < 1e-6, "t={t}");
        }
    }

    #[test]
    fn welsch_never_fully_rejects() {
        let wl = Welsch::default();
        assert!(wl.weight(100.0) > 0.0);
        assert!(wl.weight(100.0) < 1e-4);
        assert!((wl.scale_weight(0.0) - wl.weight(0.0)).abs() < 1e-12);
    }

    #[test]
    fn bisquare_weight_is_derivative() {
        let b = Bisquare::default();
        let h = 1e-6;
        for &t in &[0.1, 1.0, 4.0, 8.0] {
            let num = (b.rho(t + h) - b.rho(t - h)) / (2.0 * h);
            assert!((num - b.weight(t)).abs() < 1e-6, "t={t}");
        }
    }

    #[test]
    fn scale_weight_continuous_at_zero() {
        let b = Bisquare::default();
        assert!((b.scale_weight(0.0) - b.scale_weight(1e-12)).abs() < 1e-9);
        assert!((b.scale_weight(0.0) - b.weight(0.0)).abs() < 1e-15);
    }

    #[test]
    fn rejection_beyond_c2() {
        let b = Bisquare::new(9.0);
        assert_eq!(b.weight(9.0), 0.0);
        assert_eq!(b.weight(100.0), 0.0);
        assert_eq!(b.rho(9.0), 1.0);
        assert!(b.weight(8.999) > 0.0);
    }

    #[test]
    fn classical_is_identity() {
        let c = Classical;
        assert_eq!(c.rho(5.0), 5.0);
        assert_eq!(c.weight(123.0), 1.0);
        assert_eq!(c.scale_weight(7.0), 1.0);
        assert_eq!(c.rejection_point(), f64::INFINITY);
    }

    #[test]
    fn bisquare_scale_weight_monotone_decreasing() {
        let b = Bisquare::default();
        let mut prev = b.scale_weight(0.0);
        for i in 1..200 {
            let t = i as f64 * 0.1;
            let w = b.scale_weight(t);
            assert!(w <= prev + 1e-12, "t={t}");
            prev = w;
        }
    }
}
