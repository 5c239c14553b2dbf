//! In-memory spans recorded by the benchmark's own code around its calls
//! into each layer. Each thread that records (a rank, a client) owns one
//! [`Recorder`]; they are merged when the run ends and written out once.
//! A recorder that is off costs one branch per span.

use std::time::Instant;

use crate::json::Json;

/// One closed span. `parent` indexes into the same recorder's span list;
/// `op` is the selection / request / cycle the span belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Span recorder for one thread.
pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder whose clock starts at `origin`, so recorders of different
    /// threads share one time axis.
    pub fn new(on: bool, origin: Instant) -> Self {
        Self {
            on,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Run `f` under a span named `name`, a child of whichever span is open
    /// on this recorder. When the recorder is off this is just `f()`.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            op,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    /// Record a span whose duration was reported by the program rather than
    /// timed here (the server's own seconds for a request), as a child of
    /// the currently open span, ending where that span has got to.
    pub fn reported(&mut self, name: &'static str, op: u64, seconds: f64) {
        if !self.on {
            return;
        }
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            op,
            start_ns: end_ns.saturating_sub((seconds * 1e9) as u64),
            end_ns,
        });
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }
}

/// A span's self time: its duration minus the part of its interval that its
/// direct children cover (overlapping children are counted once).
pub fn self_seconds(spans: &[Span], id: usize) -> f64 {
    let me = &spans[id];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut reach = me.start_ns;
    for (a, b) in kids {
        let from = a.max(reach);
        if b > from {
            covered += b - from;
            reach = b;
        }
    }
    (me.end_ns - me.start_ns - covered) as f64 * 1e-9
}

/// The trace file: one list of spans per recording thread.
pub fn to_json(threads: &[(&str, &Recorder)]) -> Json {
    Json::Arr(
        threads
            .iter()
            .map(|(who, rec)| {
                let spans = rec
                    .spans
                    .iter()
                    .enumerate()
                    .map(|(id, s)| {
                        Json::obj([
                            ("id", Json::Num(id as f64)),
                            ("name", Json::str(s.name)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                            ("op", Json::Num(s.op as f64)),
                            ("start_ns", Json::Num(s.start_ns as f64)),
                            ("end_ns", Json::Num(s.end_ns as f64)),
                            ("self_s", Json::Num(self_seconds(&rec.spans, id))),
                        ])
                    })
                    .collect();
                Json::obj([("thread", Json::str(*who)), ("spans", Json::Arr(spans))])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            parent,
            op: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_intervals() {
        let spans = vec![
            span(None, 0, 1000),
            span(Some(0), 100, 300),
            // Overlaps the previous child: 250..300 must count once.
            span(Some(0), 250, 500),
            // A grandchild never reduces the grandparent directly.
            span(Some(1), 120, 180),
            // Clipped to the parent's interval.
            span(Some(0), 900, 1200),
        ];
        assert!((self_seconds(&spans, 0) - 500e-9).abs() < 1e-15);
        assert!((self_seconds(&spans, 1) - 140e-9).abs() < 1e-15);
        assert!((self_seconds(&spans, 3) - 60e-9).abs() < 1e-15);
    }

    #[test]
    fn nesting_follows_the_call_structure() {
        let mut rec = Recorder::new(true, Instant::now());
        rec.span("select", 7, |rec| {
            rec.span("relax", 7, |_| ());
            rec.span("eta_sweep", 7, |rec| rec.reported("server", 7, 0.0));
        });
        let names: Vec<_> = rec.spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("select", None),
                ("relax", Some(0)),
                ("eta_sweep", Some(0)),
                ("server", Some(2))
            ]
        );
        assert!(rec
            .spans
            .iter()
            .all(|s| s.end_ns >= s.start_ns && s.op == 7));
        assert_eq!(rec.durations("relax").len(), 1);
    }

    #[test]
    fn a_recorder_that_is_off_records_nothing() {
        let mut rec = Recorder::new(false, Instant::now());
        assert_eq!(rec.span("select", 0, |_| 5), 5);
        rec.reported("server", 0, 1.0);
        assert!(rec.spans.is_empty());
    }
}
