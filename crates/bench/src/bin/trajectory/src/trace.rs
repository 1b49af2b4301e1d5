//! Spans around the benchmark's calls into each layer's public functions.
//!
//! A span is `{req, name, parent, start_ns, end_ns}`; the spans of one
//! request share `req`. They are kept in memory and written to
//! `trace_<workload>.jsonl` when the run ends. A layer's self time is its
//! span minus the part its children cover. Spans inside the program are a
//! later change; until then the traced run replaces `Engine::query_doc` by
//! the same public calls `query_doc` makes, one span each.

use crate::measure::median;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Spans kept per client; later requests still run, unrecorded.
const MAX_SPANS: usize = 200_000;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Request the span belongs to.
    pub req: u32,
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Index of the enclosing span in the same recorder, `-1` for a root.
    pub parent: i32,
    /// Start, nanoseconds after the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds after the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The spans of one client thread.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    next_req: u32,
}

impl Recorder {
    /// A recorder whose timestamps count from `epoch` (share one epoch
    /// between the clients of a run).
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
            next_req: 0,
        }
    }

    /// Opens the root span of a new request; `-1` once the recorder is full
    /// (the children of an unrecorded root are not recorded either).
    pub fn begin(&mut self, name: &'static str) -> i32 {
        self.next_req += 1;
        if self.spans.len() >= MAX_SPANS {
            return -1;
        }
        self.push(name, -1)
    }

    fn push(&mut self, name: &'static str, parent: i32) -> i32 {
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            req: self.next_req,
            name,
            parent,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() as i32 - 1
    }

    /// Closes a span opened by [`Recorder::begin`].
    pub fn end(&mut self, span: i32) {
        if span >= 0 {
            self.spans[span as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Times `f` as a child span of `parent` and returns its result with
    /// the elapsed nanoseconds.
    pub fn child<T>(&mut self, parent: i32, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let span = if parent >= 0 {
            self.push(name, parent)
        } else {
            -1
        };
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        self.end(span);
        (out, ns)
    }

    /// Self time per span: its length minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::ns).collect();
        for span in &self.spans {
            if span.parent >= 0 {
                let p = span.parent as usize;
                own[p] = own[p].saturating_sub(span.ns());
            }
        }
        own
    }
}

/// The recorders of a run's clients, after it ended.
pub struct Trace {
    /// One per client.
    pub clients: Vec<Recorder>,
}

impl Trace {
    /// Median length of the spans called `name`, µs (0 when there are none).
    pub fn median_us(&self, name: &str) -> f64 {
        median(
            self.clients
                .iter()
                .flat_map(|r| r.spans.iter())
                .filter(|s| s.name == name)
                .map(|s| s.ns() as f64 / 1e3)
                .collect(),
        )
    }

    /// Median over the root spans called `root` of the share of the root
    /// its children named in `names` take.
    pub fn median_share(&self, root: &str, names: &[&str]) -> f64 {
        let mut shares = Vec::new();
        for rec in &self.clients {
            let mut inside = vec![0u64; rec.spans.len()];
            for span in &rec.spans {
                if span.parent >= 0 && names.contains(&span.name) {
                    inside[span.parent as usize] += span.ns();
                }
            }
            for (span, inside) in rec.spans.iter().zip(inside) {
                if span.parent < 0 && span.name == root && span.ns() > 0 {
                    shares.push(inside as f64 / span.ns() as f64);
                }
            }
        }
        median(shares)
    }

    /// Writes every span as one JSON object per line, self time included.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<usize> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut written = 0;
        for (client, rec) in self.clients.iter().enumerate() {
            for (span, own) in rec.spans.iter().zip(rec.self_ns()) {
                writeln!(
                    out,
                    "{{\"client\":{client},\"req\":{},\"name\":\"{}\",\"parent\":{},\
                     \"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
                    span.req, span.name, span.parent, span.start_ns, span.end_ns
                )?;
                written += 1;
            }
        }
        out.flush()?;
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_shares_are_per_request() {
        let mut rec = Recorder::new(Instant::now());
        let root = rec.begin("request");
        let (_, ns) = rec.child(root, "xpath.parse", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        rec.child(root, "core.execute", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        rec.end(root);
        assert!(ns >= 2_000_000);
        let own = rec.self_ns();
        assert!(
            own[0] < rec.spans[0].ns() / 2,
            "root self time excludes children"
        );
        let trace = Trace { clients: vec![rec] };
        let share = trace.median_share("request", &["xpath.parse"]);
        assert!((0.2..0.8).contains(&share), "{share}");
        assert!(trace.median_us("core.execute") >= 2000.0);
        assert_eq!(trace.median_us("absent"), 0.0);
    }
}
