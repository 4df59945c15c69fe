//! In-memory span recorder and exclusive self-time attribution.
//!
//! Every simulated device records its own spans (no locks: each device
//! thread owns a [`Recorder`]); the benchmark merges them after the run.
//! A span carries its name, start, end, parent span id and run id, plus the
//! rank that recorded it and a [`Kind`] that says whether the recording
//! thread was running or blocked inside it.
//!
//! Self time is exclusive wall-clock: [`attribute`] sweeps the merged spans
//! of all ranks and gives each instant to exactly one span, or to nobody.
//! For a single thread this is span duration minus the coverage of its
//! children; across ranks, the time a device spends blocked in a
//! collective goes to whatever other device runs meanwhile. The event core
//! runs one device at a time, so per-rank work adds up, and instants where
//! every device is blocked are orchestration that no span explains.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::time::Instant;

/// What the recording thread does inside a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Runs without blocking (kernels, codec, trainer glue).
    Work,
    /// Blocks in the comm core (a collective); its time belongs to others.
    Wait,
    /// A public call that runs and blocks internally (the assigner round);
    /// it owns an instant only when no device is in [`Kind::Work`].
    Mixed,
}

impl Kind {
    fn priority(self) -> u8 {
        match self {
            Kind::Work => 2,
            Kind::Mixed => 1,
            Kind::Wait => 0,
        }
    }
}

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within a run: the rank in the high 32 bits, a per-rank counter
    /// in the low ones.
    pub id: u64,
    /// Enclosing span on the same rank, if any.
    pub parent: Option<u64>,
    /// Which cluster run (or setup phase) recorded the span.
    pub run: u32,
    /// Recording device (0 for host-side phases).
    pub rank: u32,
    /// Layer-qualified name, e.g. `gnn.agg.aggregate`.
    pub name: &'static str,
    /// Running, blocked, or both.
    pub kind: Kind,
    /// Nanoseconds since the recorder base.
    pub start: u64,
    /// Nanoseconds since the recorder base (`>= start`).
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// A per-thread span recorder with an explicit nesting stack.
#[derive(Debug)]
pub struct Recorder {
    base: Instant,
    run: u32,
    rank: u32,
    next: u64,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

/// Handle returned by [`Recorder::enter`]; pass it back to
/// [`Recorder::exit`].
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct Open(usize);

impl Recorder {
    /// A recorder whose timestamps count from `base`.
    pub fn new(base: Instant, run: u32, rank: u32) -> Self {
        Self {
            base,
            run,
            rank,
            next: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.base.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, kind: Kind) -> Open {
        let parent = self.stack.last().map(|&i| self.spans[i].id);
        let id = (u64::from(self.rank) << 32) | self.next;
        self.next += 1;
        let start = self.now();
        self.spans.push(Span {
            id,
            parent,
            run: self.run,
            rank: self.rank,
            name,
            kind,
            start,
            end: start,
        });
        self.stack.push(self.spans.len() - 1);
        Open(self.spans.len() - 1)
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn exit(&mut self, open: Open) {
        let end = self.now();
        debug_assert_eq!(
            self.stack.last(),
            Some(&open.0),
            "spans close in LIFO order"
        );
        self.stack.pop();
        self.spans[open.0].end = end;
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, kind: Kind, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name, kind);
        let out = f();
        self.exit(open);
        out
    }

    /// The recorded spans, in creation order.
    pub fn finish(self) -> Vec<Span> {
        self.spans
    }
}

/// Exclusive self time of every span inside `window`, plus the time no span
/// owns.
///
/// Spans are clipped to `window = (start, end)`. At each instant the owner
/// is chosen among the innermost open spans of every rank (open spans with
/// no open child): [`Kind::Wait`] spans never own time, [`Kind::Work`]
/// beats [`Kind::Mixed`], and among equals the latest-started span wins
/// (so overlapping children split their overlap instead of counting it
/// twice). Self times plus the returned unattributed time sum to the window
/// length exactly.
///
/// Returns `(self_ns per span index, unattributed_ns)`.
pub fn attribute(spans: &[Span], window: (u64, u64)) -> (Vec<u64>, u64) {
    let (w0, w1) = window;
    let mut self_ns = vec![0u64; spans.len()];
    if w1 <= w0 {
        return (self_ns, 0);
    }
    let index: std::collections::HashMap<(u32, u64), usize> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| ((s.run, s.id), i))
        .collect();
    let parent: Vec<Option<usize>> = spans
        .iter()
        .map(|s| s.parent.and_then(|p| index.get(&(s.run, p)).copied()))
        .collect();
    // Boundary events: (time, is_start, order key, span). Ends sort before
    // starts at the same instant; among starts parents (lower index) open
    // first, among ends children (higher index) close first.
    let mut events: Vec<(u64, bool, usize, usize)> = Vec::with_capacity(2 * spans.len());
    for (i, s) in spans.iter().enumerate() {
        let (a, b) = (s.start.max(w0), s.end.min(w1));
        if a < b {
            events.push((a, true, i, i));
            events.push((b, false, usize::MAX - i, i));
        }
    }
    events.sort_unstable();
    let mut open_children = vec![0u32; spans.len()];
    let mut is_open = vec![false; spans.len()];
    // Innermost open non-wait spans, ordered so the owner is the maximum.
    let mut owners: BTreeSet<(u8, u64, usize)> = BTreeSet::new();
    let key = |i: usize| (spans[i].kind.priority(), spans[i].start, i);
    let mut covered = 0u64;
    let mut t = w0;
    for (time, is_start, _, i) in events {
        if time > t {
            if let Some(&(_, _, owner)) = owners.last() {
                self_ns[owner] += time - t;
                covered += time - t;
            }
            t = time;
        }
        let p = parent[i].filter(|&p| is_open[p]);
        if is_start {
            is_open[i] = true;
            if let Some(p) = p {
                open_children[p] += 1;
                owners.remove(&key(p));
            }
            if open_children[i] == 0 && spans[i].kind != Kind::Wait {
                owners.insert(key(i));
            }
        } else {
            is_open[i] = false;
            owners.remove(&key(i));
            if let Some(p) = p {
                open_children[p] -= 1;
                if open_children[p] == 0 && spans[p].kind != Kind::Wait {
                    owners.insert(key(p));
                }
            }
        }
    }
    (self_ns, (w1 - w0) - covered)
}

/// Chrome `trace_event` JSON (complete `X` events, microseconds) of `spans`:
/// one process per run, one thread per rank.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{},\"dur\":{},\
             \"args\":{{\"id\":{},\"parent\":{},\"kind\":\"{:?}\"}}}}",
            s.name,
            s.run,
            s.rank,
            s.start as f64 / 1e3,
            s.dur() as f64 / 1e3,
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.kind,
        );
    }
    out.push_str("]}");
    out
}

/// Flat JSON array of `spans` (id, parent, run, rank, name, kind, start and
/// end in nanoseconds).
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::from("[");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}{{\"id\":{},\"parent\":{},\"run\":{},\"rank\":{},\"name\":\"{}\",\
             \"kind\":\"{:?}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.run,
            s.rank,
            s.name,
            s.kind,
            s.start,
            s.end,
        );
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, rank: u32, kind: Kind, start: u64, end: u64) -> Span {
        Span {
            id: (u64::from(rank) << 32) | id,
            parent: parent.map(|p| (u64::from(rank) << 32) | p),
            run: 0,
            rank,
            name: "s",
            kind,
            start,
            end,
        }
    }

    fn total(self_ns: &[u64], unattributed: u64) -> u64 {
        self_ns.iter().sum::<u64>() + unattributed
    }

    #[test]
    fn nested_children_subtract_their_coverage() {
        let spans = [
            span(0, None, 0, Kind::Work, 0, 100),
            span(1, Some(0), 0, Kind::Work, 10, 30),
            span(2, Some(1), 0, Kind::Work, 15, 20),
            span(3, Some(0), 0, Kind::Work, 50, 60),
        ];
        let (s, u) = attribute(&spans, (0, 100));
        assert_eq!(s, vec![70, 15, 5, 10]);
        assert_eq!(u, 0);
    }

    #[test]
    fn overlapping_children_count_their_union_once() {
        // Two children overlap on [40, 50): the parent loses the union
        // [10, 70), and the overlap goes to the later-started child.
        let spans = [
            span(0, None, 0, Kind::Work, 0, 100),
            span(1, Some(0), 0, Kind::Work, 10, 50),
            span(2, Some(0), 0, Kind::Work, 40, 70),
        ];
        let (s, u) = attribute(&spans, (0, 100));
        assert_eq!(s[0], 100 - 60);
        assert_eq!(s[1] + s[2], 60);
        assert_eq!(s, vec![40, 30, 30]);
        assert_eq!(total(&s, u), 100);
    }

    #[test]
    fn identical_children_are_not_double_counted() {
        let spans = [
            span(0, None, 0, Kind::Work, 0, 10),
            span(1, Some(0), 0, Kind::Work, 2, 8),
            span(2, Some(0), 0, Kind::Work, 2, 8),
        ];
        let (s, u) = attribute(&spans, (0, 10));
        assert_eq!(s[0], 4);
        assert_eq!(s[1] + s[2], 6);
        assert_eq!(total(&s, u), 10);
    }

    #[test]
    fn blocked_time_goes_to_the_device_that_runs() {
        // Rank 0 waits in a collective on [20, 80) while rank 1 runs.
        let spans = [
            span(0, None, 0, Kind::Work, 0, 100),
            span(1, Some(0), 0, Kind::Wait, 20, 80),
            span(0, None, 1, Kind::Work, 20, 80),
            span(1, Some(0), 1, Kind::Work, 30, 50),
        ];
        let (s, u) = attribute(&spans, (0, 100));
        assert_eq!(s, vec![40, 0, 40, 20]);
        assert_eq!(u, 0);
    }

    #[test]
    fn everyone_blocked_is_unattributed() {
        let spans = [
            span(0, None, 0, Kind::Work, 0, 100),
            span(1, Some(0), 0, Kind::Wait, 10, 90),
            span(0, None, 1, Kind::Work, 10, 40),
            span(1, Some(0), 1, Kind::Wait, 20, 40),
        ];
        let (s, u) = attribute(&spans, (0, 100));
        // [20, 90) has no running device.
        assert_eq!(s, vec![20, 0, 10, 0]);
        assert_eq!(u, 70);
        assert_eq!(total(&s, u), 100);
    }

    #[test]
    fn mixed_spans_yield_to_running_work() {
        // Rank 0 sits in a Mixed call on [10, 90); rank 1 runs on [30, 60).
        let spans = [
            span(0, None, 0, Kind::Work, 0, 100),
            span(1, Some(0), 0, Kind::Mixed, 10, 90),
            span(0, None, 1, Kind::Work, 30, 60),
        ];
        let (s, u) = attribute(&spans, (0, 100));
        assert_eq!(s, vec![20, 50, 30]);
        assert_eq!(u, 0);
    }

    #[test]
    fn window_clips_spans() {
        let spans = [
            span(0, None, 0, Kind::Work, 0, 100),
            span(1, Some(0), 0, Kind::Work, 40, 200),
        ];
        let (s, u) = attribute(&spans, (50, 150));
        assert_eq!(s, vec![0, 100]);
        assert_eq!(u, 0);
        let (s, u) = attribute(&spans, (0, 0));
        assert_eq!((s, u), (vec![0, 0], 0));
    }

    #[test]
    fn dumps_parse_back() {
        let spans = [
            span(0, None, 0, Kind::Work, 1000, 5000),
            span(1, Some(0), 0, Kind::Wait, 2000, 3000),
        ];
        let flat: serde_json::Value = serde_json::from_str(&spans_json(&spans)).unwrap();
        assert_eq!(flat[1]["parent"].as_u64(), Some(0));
        assert_eq!(flat[1]["kind"].as_str(), Some("Wait"));
        assert_eq!(flat[0]["end_ns"].as_u64(), Some(5000));
        let chrome: serde_json::Value = serde_json::from_str(&chrome_trace(&spans)).unwrap();
        let events = chrome["traceEvents"].as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0]["dur"].as_f64(), Some(4.0));
        assert!(events[0]["args"]["parent"].is_null());
    }

    #[test]
    fn recorder_nests_and_times() {
        let mut rec = Recorder::new(Instant::now(), 3, 2);
        let outer = rec.enter("outer", Kind::Work);
        let v = rec.time("inner", Kind::Wait, || 7);
        rec.exit(outer);
        let spans = rec.finish();
        assert_eq!(v, 7);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert_eq!(spans[0].id >> 32, 2);
        assert!(spans.iter().all(|s| s.run == 3 && s.end >= s.start));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        let window = (spans[0].start, spans[0].end);
        let (s, u) = attribute(&spans, window);
        assert_eq!(s[1], 0, "wait spans own no time");
        assert_eq!(total(&s, u), spans[0].dur());
    }
}
