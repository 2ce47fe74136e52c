//! In-memory spans recorded around public calls, written out as jsonl when
//! the run ends, and the per-layer self-time table built from them.
//!
//! A span's layer is its name up to the first `.`. Self time is assigned
//! exclusively: at every instant the time goes to the deepest active span
//! (ties to the earliest started, then the lowest id), so the per-layer
//! rows add up exactly to the root span's wall even when spans of
//! concurrent requests overlap.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded span; times are offsets from the trace origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id (ids start at 1).
    pub id: u64,
    /// Id of the span that caused this one.
    pub parent: Option<u64>,
    /// `layer.what`, e.g. `service.freeze`.
    pub name: String,
    /// Start offset.
    pub start: Duration,
    /// End offset.
    pub end: Duration,
    /// Request id shared by the spans of one wire read.
    pub request: Option<u64>,
}

impl Span {
    /// The layer: the name up to the first `.`.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// A span that has started and not yet ended.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    /// The id the span will carry.
    pub id: u64,
    /// When it started.
    pub start: Instant,
}

/// The recorder. When disabled every call is a no-op returning id 0.
#[derive(Debug)]
pub struct Trace {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    overhead_ns: AtomicU64,
}

impl Trace {
    /// A recorder whose offsets count from now.
    pub fn new(enabled: bool) -> Trace {
        Trace {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            overhead_ns: AtomicU64::new(0),
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a span now.
    pub fn open(&self) -> Open {
        let id = if self.enabled {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        Open {
            id,
            start: Instant::now(),
        }
    }

    /// Ends `open` now under `name` and returns its id.
    pub fn close(&self, open: Open, name: &str, parent: Option<u64>) -> u64 {
        self.record(open.id, name, parent, open.start, Instant::now(), None);
        open.id
    }

    /// Records a finished span with explicit times; `id` 0 allocates one.
    pub fn record(
        &self,
        id: u64,
        name: &str,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
        request: Option<u64>,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let t0 = Instant::now();
        let id = if id == 0 {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            id
        };
        let span = Span {
            id,
            parent: parent.filter(|&p| p != 0),
            name: name.to_string(),
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
            request,
        };
        self.spans.lock().expect("span list poisoned").push(span);
        self.overhead_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        id
    }

    /// Lays `parts` out back to back from `start`, as children of
    /// `parent`, scaled down when together they exceed `within` (used for
    /// walls a report carries, which have no start times of their own).
    pub fn record_parts(
        &self,
        parent: u64,
        start: Instant,
        within: Duration,
        parts: &[(&str, Duration)],
    ) -> Vec<(u64, Instant, Duration)> {
        let total: Duration = parts.iter().map(|p| p.1).sum();
        let scale = if total > within && !total.is_zero() {
            within.as_secs_f64() / total.as_secs_f64()
        } else {
            1.0
        };
        let mut at = start;
        parts
            .iter()
            .map(|&(name, wall)| {
                let begin = at;
                at += wall.mul_f64(scale);
                (
                    self.record(0, name, Some(parent), begin, at, None),
                    begin,
                    at - begin,
                )
            })
            .collect()
    }

    /// Time spent inside the recorder itself.
    pub fn overhead(&self) -> Duration {
        Duration::from_nanos(self.overhead_ns.load(Ordering::Relaxed))
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"request\": {}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.request.map_or("null".to_string(), |r| r.to_string()),
            )?;
        }
        out.flush()
    }
}

/// Exclusive self time per span id (see the module docs).
pub fn self_times(spans: &[Span]) -> HashMap<u64, Duration> {
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let depth = |s: &Span| {
        let mut d = 0usize;
        let mut at = s.parent;
        while let Some(p) = at.and_then(|p| by_id.get(&p)) {
            d += 1;
            at = p.parent;
            if d > spans.len() {
                break;
            }
        }
        d
    };
    // Events sorted by time; ends before starts at the same instant.
    let mut events: Vec<(Duration, bool, usize)> = Vec::with_capacity(spans.len() * 2);
    for (i, s) in spans.iter().enumerate() {
        if s.end > s.start {
            events.push((s.start, true, i));
            events.push((s.end, false, i));
        }
    }
    events.sort_by_key(|&(t, is_start, i)| (t, is_start, i));
    let depths: Vec<usize> = spans.iter().map(depth).collect();
    let mut active: BTreeSet<(Reverse<usize>, Duration, u64, usize)> = BTreeSet::new();
    let mut out: HashMap<u64, Duration> = spans.iter().map(|s| (s.id, Duration::ZERO)).collect();
    let mut prev: Option<Duration> = None;
    for (t, is_start, i) in events {
        if let (Some(p), Some(&(_, _, id, _))) = (prev, active.iter().next()) {
            *out.get_mut(&id).expect("active span is known") += t - p;
        }
        let key = (Reverse(depths[i]), spans[i].start, spans[i].id, i);
        if is_start {
            active.insert(key);
        } else {
            active.remove(&key);
        }
        prev = Some(t);
    }
    out
}

/// Self time summed per layer, in layer-name order.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<String, Duration> {
    let own = self_times(spans);
    let mut layers: BTreeMap<String, Duration> = BTreeMap::new();
    for s in spans {
        *layers.entry(s.layer().to_string()).or_default() += own[&s.id];
    }
    layers
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> Duration {
        Duration::from_millis(x)
    }

    fn span(id: u64, parent: Option<u64>, name: &str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: name.to_string(),
            start: ms(start),
            end: ms(end),
            request: None,
        }
    }

    #[test]
    fn nested_children_are_subtracted_from_the_parent() {
        let spans = vec![
            span(1, None, "bench.run", 0, 100),
            span(2, Some(1), "service.build", 10, 60),
            span(3, Some(2), "expander.decompose", 10, 50),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], ms(50));
        assert_eq!(own[&2], ms(10));
        assert_eq!(own[&3], ms(40));
    }

    #[test]
    fn overlapping_children_are_counted_once_and_rows_add_up() {
        // Two concurrent requests under one phase: 10..40 and 30..70.
        let spans = vec![
            span(1, None, "bench.run", 0, 100),
            span(2, Some(1), "load.reads", 0, 80),
            span(3, Some(2), "server.read", 10, 40),
            span(4, Some(2), "server.read", 30, 70),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&3], ms(30), "earliest request owns the overlap");
        assert_eq!(own[&4], ms(30));
        assert_eq!(own[&2], ms(20), "the phase keeps only uncovered time");
        assert_eq!(own[&1], ms(20));
        let layers = self_time_by_layer(&spans);
        let total: Duration = layers.values().sum();
        assert_eq!(total, ms(100), "rows add up to the root wall");
        assert_eq!(layers["server"], ms(60));
    }

    #[test]
    fn children_poking_outside_the_parent_still_add_up() {
        // A background span that outlives the phase that started it.
        let spans = vec![
            span(1, None, "bench.run", 0, 100),
            span(2, Some(1), "load.reads", 0, 50),
            span(3, Some(2), "churn.rebuild", 40, 90),
        ];
        let layers = self_time_by_layer(&spans);
        assert_eq!(layers.values().sum::<Duration>(), ms(100));
        assert_eq!(layers["churn"], ms(50));
        assert_eq!(layers["load"], ms(40));
    }

    #[test]
    fn report_parts_are_laid_out_and_scaled_into_the_parent() {
        let trace = Trace::new(true);
        let t0 = Instant::now();
        let root = trace.record(0, "bench.run", None, t0, t0 + ms(100), None);
        trace.record_parts(root, t0, ms(100), &[("a.x", ms(120)), ("b.y", ms(80))]);
        let spans = trace.spans();
        let layers = self_time_by_layer(&spans);
        assert_eq!(layers["a"] + layers["b"], ms(100));
        assert!(layers["a"] > layers["b"]);
        assert_eq!(layers["bench"], Duration::ZERO);
    }

    #[test]
    fn a_disabled_trace_records_nothing() {
        let trace = Trace::new(false);
        let open = trace.open();
        assert_eq!(trace.close(open, "x.y", None), 0);
        assert!(trace.spans().is_empty());
    }
}
