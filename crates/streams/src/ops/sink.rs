//! Terminal operators: collectors and callbacks.

use crate::operator::{OpContext, Operator};
use crate::tuple::{ControlTuple, DataTuple, Rows};
use crate::watched::lock;
use std::sync::{Arc, Mutex};

/// Collects data tuples into a shared vector for post-run inspection.
pub struct CollectSink {
    store: Arc<Mutex<Vec<DataTuple>>>,
}

impl CollectSink {
    /// An unbounded collector; keep a clone of the handle to read results.
    pub fn new() -> (Self, Arc<Mutex<Vec<DataTuple>>>) {
        let store = Arc::new(Mutex::new(Vec::new()));
        (
            CollectSink {
                store: Arc::clone(&store),
            },
            store,
        )
    }
}

impl Operator for CollectSink {
    fn process_rows(&mut self, rows: Rows<'_>, _ctx: &mut OpContext<'_>) {
        lock(&self.store).extend(rows.map(|row| row.to_tuple()));
    }
}

/// Invokes closures on data / control tuples (application glue).
pub struct CallbackSink<F, G = fn(ControlTuple)> {
    on_data: F,
    on_control: Option<G>,
}

impl<F: FnMut(DataTuple) + Send> CallbackSink<F> {
    /// A sink calling `on_data` for every data tuple.
    pub fn new(on_data: F) -> Self {
        CallbackSink {
            on_data,
            on_control: None,
        }
    }
}

impl<F: FnMut(DataTuple) + Send, G: FnMut(ControlTuple) + Send> CallbackSink<F, G> {
    /// A sink with both data and control handlers.
    pub fn with_control(on_data: F, on_control: G) -> Self {
        CallbackSink {
            on_data,
            on_control: Some(on_control),
        }
    }
}

impl<F: FnMut(DataTuple) + Send, G: FnMut(ControlTuple) + Send> Operator for CallbackSink<F, G> {
    fn process_rows(&mut self, rows: Rows<'_>, _ctx: &mut OpContext<'_>) {
        for row in rows {
            (self.on_data)(row.to_tuple());
        }
    }

    fn on_control(&mut self, t: ControlTuple, _ctx: &mut OpContext<'_>) {
        if let Some(g) = &mut self.on_control {
            g(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::testing::{feed_tuple, with_ctx};

    #[test]
    fn collect_sink_stores_in_order() {
        let (mut sink, store) = CollectSink::new();
        with_ctx(0, |ctx| {
            for seq in 0..5 {
                feed_tuple(&mut sink, DataTuple::new(seq, vec![seq as f64]), ctx);
            }
        });
        let got = lock(&store);
        assert_eq!(got.len(), 5);
        assert_eq!(got[3].seq, 3);
    }

    #[test]
    fn callback_sink_sees_everything() {
        let count = Arc::new(Mutex::new(0u64));
        let c2 = Arc::clone(&count);
        let mut sink = CallbackSink::new(move |_t| *lock(&c2) += 1);
        with_ctx(0, |ctx| {
            for seq in 0..7 {
                feed_tuple(&mut sink, DataTuple::new(seq, vec![]), ctx);
            }
        });
        assert_eq!(*lock(&count), 7);
    }
}
