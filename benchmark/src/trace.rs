//! The harness's span recorder. Spans are taken from outside the program,
//! around calls into each layer; they are held in memory and written to
//! `benchmark/out/trace-<workload>.jsonl` when a traced run ends (the last
//! traced pass, then the stage replay).

use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub type SpanId = u32;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
}

/// Spans of one run (one `run` id), on one clock.
#[derive(Debug)]
pub struct Recorder {
    run: String,
    t0: Instant,
    spans: Vec<Span>,
}

/// A recorder shared with the threads of a traced run (the wrapped source
/// operator on its PE thread, the load generator on its own).
pub type SharedRecorder = Arc<Mutex<Recorder>>;

impl Recorder {
    pub fn new(run: impl Into<String>) -> Self {
        Recorder {
            run: run.into(),
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn shared(run: impl Into<String>) -> SharedRecorder {
        Arc::new(Mutex::new(Recorder::new(run)))
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    pub fn duration_ns(&self, id: SpanId) -> u64 {
        let s = &self.spans[id as usize];
        s.end_ns - s.start_ns
    }

    /// A span's duration minus the part of it its child spans cover
    /// (children on different threads may overlap, so the cover is the
    /// union of their intervals).
    pub fn self_ns(&self, id: SpanId) -> u64 {
        let me = &self.spans[id as usize];
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
            .filter(|(a, b)| b > a)
            .collect();
        kids.sort_unstable();
        let (mut covered, mut edge) = (0u64, me.start_ns);
        for (a, b) in kids {
            if b > edge {
                covered += b - a.max(edge);
                edge = b;
            }
        }
        (me.end_ns - me.start_ns) - covered
    }

    /// Count and summed duration of every span with this name.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(n, ns), s| (n + 1, ns + (s.end_ns - s.start_ns)))
    }

    /// Mean duration in ns of the spans with this name (0 if none).
    pub fn mean_ns(&self, name: &str) -> f64 {
        let (n, ns) = self.total(name);
        if n == 0 {
            0.0
        } else {
            ns as f64 / n as f64
        }
    }

    /// Writes one JSON object per span: run id, span id, parent, name,
    /// start and end in ns on the run's clock. `append` adds to a file a
    /// previous run of the same trace started.
    pub fn write_jsonl(&self, path: &Path, append: bool) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .write(true)
            .append(append)
            .truncate(!append)
            .open(path)?;
        let mut w = std::io::BufWriter::new(file);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"run\": \"{}\", \"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                self.run, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut r = Recorder::new("t");
        let root = r.open("root", None);
        let a = r.open("kid", Some(root));
        let b = r.open("kid", Some(root));
        r.close(a);
        r.close(b);
        r.close(root);
        // Fix the clock so the arithmetic is exact.
        r.spans[root as usize] = Span {
            name: "root",
            parent: None,
            start_ns: 0,
            end_ns: 100,
        };
        r.spans[a as usize].start_ns = 10;
        r.spans[a as usize].end_ns = 50;
        r.spans[b as usize].start_ns = 40; // overlaps `a` by 10
        r.spans[b as usize].end_ns = 70;
        assert_eq!(r.self_ns(root), 100 - 60);
        assert_eq!(r.total("kid"), (2, 70));
        assert_eq!(r.mean_ns("kid"), 35.0);
        assert_eq!(r.mean_ns("absent"), 0.0);
    }
}
