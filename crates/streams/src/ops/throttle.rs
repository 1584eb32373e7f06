//! The `Throttle` operator (§III-B).
//!
//! "Another important synchronization component is standard SPL 'Throttle'
//! operator. One controls the rate of synchronization tuples from the
//! control component to the listening PCA engines." Forwards data *and*
//! control tuples, pacing them to a maximum rate; like its SPL namesake it
//! blocks its PE while waiting, so it should live in its own PE (the
//! builder does this by default).

use crate::operator::{OpContext, Operator};
use crate::tuple::{ControlTuple, Rows};
use std::time::{Duration, Instant};

/// Rate-limiting pass-through.
pub struct Throttle {
    period: Duration,
    last: Option<Instant>,
}

impl Throttle {
    /// A throttle with an explicit inter-tuple period — the paper
    /// configures 0.5 s between synchronization signals.
    pub fn with_period(period: Duration) -> Self {
        Throttle { period, last: None }
    }

    fn pace(&mut self) {
        if let Some(last) = self.last {
            let elapsed = last.elapsed();
            if elapsed < self.period {
                std::thread::sleep(self.period - elapsed);
            }
        }
        self.last = Some(Instant::now());
    }
}

impl Operator for Throttle {
    fn process_rows(&mut self, rows: Rows<'_>, ctx: &mut OpContext<'_>) {
        for row in rows {
            self.pace();
            ctx.emit_row(0, row);
        }
    }

    fn on_control(&mut self, tuple: ControlTuple, ctx: &mut OpContext<'_>) {
        self.pace();
        ctx.emit_control(0, tuple);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::testing::{feed_tuple, with_ctx};
    use crate::tuple::DataTuple;

    #[test]
    fn paces_to_configured_rate() {
        let mut th = Throttle::with_period(Duration::from_millis(5));
        let t0 = Instant::now();
        let sink = with_ctx(1, |ctx| {
            for seq in 0..5 {
                feed_tuple(&mut th, DataTuple::new(seq, vec![]), ctx);
            }
        });
        let elapsed = t0.elapsed();
        assert_eq!(sink.data_at(0).len(), 5);
        // 4 inter-tuple gaps of ≥5 ms (first passes immediately).
        assert!(
            elapsed >= Duration::from_millis(18),
            "too fast: {elapsed:?}"
        );
    }

    #[test]
    fn first_tuple_is_immediate() {
        let mut th = Throttle::with_period(Duration::from_secs(1));
        let t0 = Instant::now();
        with_ctx(1, |ctx| feed_tuple(&mut th, DataTuple::new(0, vec![]), ctx));
        assert!(t0.elapsed() < Duration::from_millis(100));
    }

    #[test]
    fn control_tuples_also_paced() {
        let mut th = Throttle::with_period(Duration::from_millis(5));
        let t0 = Instant::now();
        with_ctx(1, |ctx| {
            for i in 0..3 {
                th.on_control(ControlTuple::signal(0, i), ctx);
            }
        });
        assert!(t0.elapsed() >= Duration::from_millis(9));
    }
}
