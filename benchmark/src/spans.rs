//! The benchmark's own spans: recorded from outside the crates, around
//! the calls into each layer, kept in memory and written when the child
//! ends.

use crate::json::{obj, text, Json};
use std::time::Instant;

/// One closed (or still open) interval of host time.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name (`workload`, `leg:pc`, `run_workload`, `probe.simfs.read_at`, …).
    pub name: String,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Leg the span belongs to, when it belongs to one.
    pub leg: Option<&'static str>,
    /// Start, host µs since the recorder was created.
    pub start_us: f64,
    /// End, host µs since the recorder was created.
    pub end_us: f64,
}

/// Span recorder for one workload: all spans share the workload id.
#[derive(Debug)]
pub struct Spans {
    workload: &'static str,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// An empty recorder; host time zero is now.
    pub fn new(workload: &'static str) -> Self {
        Spans {
            workload,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span; returns `f`'s value and the span's duration in seconds.
    pub fn within<T>(
        &mut self,
        name: &str,
        leg: Option<&'static str>,
        f: impl FnOnce(&mut Spans) -> T,
    ) -> (T, f64) {
        let id = self.spans.len();
        let start_us = self.now_us();
        let leg = leg.or_else(|| self.open.last().and_then(|&p| self.spans[p].leg));
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            leg,
            start_us,
            end_us: start_us,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_us = self.now_us();
        self.spans[id].end_us = end_us;
        (out, (end_us - start_us) / 1e6)
    }

    /// All spans recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `id`: its duration minus its children's.
    pub fn self_us(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end_us - s.start_us)
            .sum();
        self.spans[id].end_us - self.spans[id].start_us - children
    }

    /// The spans as a JSON document (`<workload>.spans.json`); `legs` is
    /// the caller's per-leg summary, stored beside them.
    pub fn to_json(&self, legs: Json) -> Json {
        let spans = self.spans.iter().enumerate().map(|(id, s)| {
            obj([
                ("id", Json::U64(id as u64)),
                ("name", text(&*s.name)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                ),
                ("workload", text(self.workload)),
                ("leg", s.leg.map_or(Json::Null, text)),
                ("start_us", Json::Num(s.start_us)),
                ("end_us", Json::Num(s.end_us)),
                ("self_us", Json::Num(self.self_us(id))),
            ])
        });
        obj([
            ("workload", text(self.workload)),
            (
                "clock",
                text("host microseconds since the child's span recorder started"),
            ),
            ("spans", Json::Arr(spans.collect())),
            ("legs", legs),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut s = Spans::new("w");
        s.within("workload", None, |s| {
            s.within("leg:pc", Some("pc"), |s| {
                s.within("run_workload", None, |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            });
        });
        let spans = s.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].leg, Some("pc"), "children inherit the leg id");
        assert!(s.self_us(1) < spans[1].end_us - spans[1].start_us);
        assert!(s.self_us(2) >= 2000.0);
        let doc =
            Json::parse(&s.to_json(Json::Arr(Vec::new())).pretty()).expect("spans.json parses");
        assert_eq!(
            doc.get("spans").and_then(Json::as_array).map(<[Json]>::len),
            Some(3)
        );
    }
}
