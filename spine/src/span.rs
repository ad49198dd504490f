//! Spans recorded from the benchmark's own files around each call into
//! a layer's public functions. They stay in memory and are written out
//! once, when the traced run ends. Spans inside the program are a later
//! change (ROADMAP item 4); until then this is the only span layer.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval on the client thread.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.what`, e.g. `spmd.plan`; the layer is a crate or module.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to; spans of one op share it.
    pub op: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span; closing takes it back so a span cannot be
/// closed twice.
pub struct Open(usize);

/// The in-memory span log of one traced run. Single-threaded by design:
/// every workload is a closed loop driven by one client thread.
pub struct Spans {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Spans {
    /// The recorder of a traced run.
    pub fn on() -> Spans {
        Spans {
            enabled: true,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// The recorder of an untraced run: records nothing, reads no
    /// clock, so end-to-end numbers carry no tracing cost.
    pub fn off() -> Spans {
        Spans {
            enabled: false,
            ..Spans::on()
        }
    }

    /// Whether this run is traced. Workloads also use it to decide on
    /// the extra direct calls that time one layer alone.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Start the next op: spans opened from here on carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Open a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(usize::MAX);
        }
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        let id = self.spans.len() - 1;
        self.stack.push(id);
        Open(id)
    }

    /// Close `open`, which must be the innermost open span, and return
    /// its duration in seconds.
    pub fn close(&mut self, open: Open) -> f64 {
        if !self.enabled {
            return 0.0;
        }
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans close innermost first");
        self.spans[open.0].end_ns = self.now();
        self.spans[open.0].nanos() as f64 * 1e-9
    }

    /// Time one call as a span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let s = self.open(name);
        let r = f();
        self.close(s);
        r
    }

    /// Durations in seconds of every closed span called `name`.
    pub fn seconds(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.nanos() as f64 * 1e-9)
            .collect()
    }

    /// Self time of every span in nanoseconds: its duration minus the
    /// part of its interval that its direct children cover (children
    /// that overlap each other are counted once). One pass: the client
    /// thread records a span's children in start order.
    pub fn self_nanos(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::nanos).collect();
        let mut edge: Vec<u64> = self.spans.iter().map(|s| s.start_ns).collect();
        for s in &self.spans {
            let Some(p) = s.parent else { continue };
            let a = s.start_ns.max(edge[p]);
            let b = s.end_ns.min(self.spans[p].end_ns);
            if b > a {
                own[p] -= b - a;
                edge[p] = b;
            }
        }
        own
    }

    /// Over all spans called `name`: the share of their total duration
    /// that direct children cover.
    pub fn child_coverage(&self, name: &str) -> f64 {
        let own = self.self_nanos();
        let (mut total, mut uncovered) = (0u64, 0u64);
        for (s, own) in self.spans.iter().zip(own) {
            if s.name == name {
                total += s.nanos();
                uncovered += own;
            }
        }
        if total == 0 {
            0.0
        } else {
            1.0 - uncovered as f64 / total as f64
        }
    }

    /// One JSON object per span, one per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let own = self.self_nanos();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns, own[id]
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(spans: &[(&'static str, u64, u64, Option<usize>)]) -> Spans {
        Spans {
            spans: spans
                .iter()
                .map(|&(name, start_ns, end_ns, parent)| Span {
                    name,
                    start_ns,
                    end_ns,
                    parent,
                    op: 1,
                })
                .collect(),
            ..Spans::on()
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let s = fixed(&[
            ("op", 0, 100, None),
            ("a", 10, 30, Some(0)),
            ("b", 25, 50, Some(0)),    // overlaps a by 5
            ("c", 90, 120, Some(0)),   // sticks out: clipped to the parent
            ("deep", 12, 20, Some(1)), // grandchild: not the parent's child
        ]);
        // covered: [10,50) = 40 and [90,100) = 10
        assert_eq!(s.self_nanos(), [50, 12, 25, 30, 8]);
        assert!((s.child_coverage("op") - 0.5).abs() < 1e-12);
        assert_eq!(s.child_coverage("missing"), 0.0);
    }

    #[test]
    fn open_close_nest_and_share_the_op_id() {
        let mut s = Spans::on();
        s.next_op();
        let outer = s.open("op");
        let got = s.time("lang.parse", || 7);
        assert_eq!(got, 7);
        s.close(outer);
        s.next_op();
        s.time("op", || ());
        assert_eq!(s.spans[1].parent, Some(0));
        assert_eq!((s.spans[0].op, s.spans[1].op, s.spans[2].op), (1, 1, 2));
        assert_eq!(s.spans[2].parent, None);
        assert_eq!(s.seconds("op").len(), 2);
        assert!(s.spans[0].end_ns >= s.spans[1].end_ns);
        let jsonl = s.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with("{\"id\":1,\"name\":\"lang.parse\",\"op\":1,\"parent\":0,"));
    }

    #[test]
    fn a_recorder_that_is_off_records_nothing() {
        let mut s = Spans::off();
        let o = s.open("op");
        assert_eq!(s.time("x", || 3), 3);
        assert_eq!(s.close(o), 0.0);
        assert!(s.to_jsonl().is_empty() && !s.enabled());
    }
}
