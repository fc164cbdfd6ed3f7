//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded only from the benchmark's own code, around its
//! calls into each layer of the program. Each span names its layer, its
//! parent and the simulated point it belongs to (all spans of one
//! simulated point share that id). Nothing is written until the pass
//! ends; when tracing is off every call here is a no-op.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span; times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub id: u64,
    pub parent: u64,
    pub layer: &'static str,
    pub name: String,
    pub point: u64,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRecord {
    pub fn duration_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<SpanRecord>>,
    next_id: AtomicU64,
    next_point: AtomicU64,
    next_thread: AtomicU64,
    /// Parent for spans opened on threads with no open span of their own:
    /// the sweep worker threads the library spawns.
    fanout_parent: AtomicU64,
}

static ON: AtomicBool = AtomicBool::new(false);
static RECORDER: OnceLock<Recorder> = OnceLock::new();

thread_local! {
    /// Open spans on this thread: `(id, point)`.
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = recorder().next_thread.fetch_add(1, Ordering::Relaxed);
}

fn recorder() -> &'static Recorder {
    RECORDER.get_or_init(|| Recorder {
        epoch: Instant::now(),
        spans: Mutex::new(Vec::new()),
        next_id: AtomicU64::new(1),
        next_point: AtomicU64::new(1),
        next_thread: AtomicU64::new(0),
        fanout_parent: AtomicU64::new(0),
    })
}

/// Turns recording on for the rest of the process.
pub fn enable() {
    recorder();
    ON.store(true, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// An open span; it is recorded when dropped or ended.
pub struct Span {
    open: Option<Open>,
}

struct Open {
    id: u64,
    parent: u64,
    layer: &'static str,
    name: String,
    point: u64,
    start: Instant,
    fanout: bool,
}

/// Opens a span in `layer`, inheriting the enclosing span's point.
pub fn span(layer: &'static str, name: impl FnOnce() -> String) -> Span {
    open(layer, name, false, false)
}

/// Opens a span that starts a new simulated point.
pub fn point_span(layer: &'static str, name: impl FnOnce() -> String) -> Span {
    open(layer, name, true, false)
}

/// Opens a span whose children may run on library-spawned worker
/// threads (a sweep): spans opened on threads with nothing open attach
/// to it while it is open.
pub fn fanout_span(layer: &'static str, name: impl FnOnce() -> String) -> Span {
    open(layer, name, false, true)
}

fn open(layer: &'static str, name: impl FnOnce() -> String, new_point: bool, fanout: bool) -> Span {
    if !enabled() {
        return Span { open: None };
    }
    let rec = recorder();
    let id = rec.next_id.fetch_add(1, Ordering::Relaxed);
    let (parent, inherited) = STACK.with(|s| {
        s.borrow()
            .last()
            .copied()
            .unwrap_or((rec.fanout_parent.load(Ordering::Relaxed), 0))
    });
    let point = if new_point {
        rec.next_point.fetch_add(1, Ordering::Relaxed)
    } else {
        inherited
    };
    STACK.with(|s| s.borrow_mut().push((id, point)));
    if fanout {
        rec.fanout_parent.store(id, Ordering::Relaxed);
    }
    Span {
        open: Some(Open {
            id,
            parent,
            layer,
            name: name(),
            point,
            start: Instant::now(),
            fanout,
        }),
    }
}

impl Span {
    /// Closes the span and returns its duration in seconds (0 when
    /// tracing is off).
    pub fn end(mut self) -> f64 {
        self.close()
    }

    fn close(&mut self) -> f64 {
        let Some(open) = self.open.take() else {
            return 0.0;
        };
        let end = Instant::now();
        let rec = recorder();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            debug_assert_eq!(s.last().map(|e| e.0), Some(open.id), "spans close in order");
            s.pop();
        });
        if open.fanout {
            rec.fanout_parent.store(0, Ordering::Relaxed);
        }
        let ns = |t: Instant| t.duration_since(rec.epoch).as_nanos() as u64;
        let record = SpanRecord {
            id: open.id,
            parent: open.parent,
            layer: open.layer,
            name: open.name,
            point: open.point,
            thread: THREAD.with(|t| *t),
            start_ns: ns(open.start),
            end_ns: ns(end),
        };
        let seconds = record.duration_s();
        rec.spans.lock().expect("span store poisoned").push(record);
        seconds
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.close();
    }
}

/// Every span recorded so far, in closing order.
pub fn spans() -> Vec<SpanRecord> {
    if RECORDER.get().is_none() {
        return Vec::new();
    }
    recorder()
        .spans
        .lock()
        .expect("span store poisoned")
        .clone()
}

/// Self time per layer: each span's duration minus the part of its
/// interval covered by its children (children may overlap when they run
/// on sweep worker threads, so the covered part is their union).
pub fn self_time_by_layer(spans: &[SpanRecord]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut by_layer = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |kids| union_within(kids, s.start_ns, s.end_ns));
        *by_layer.entry(s.layer).or_insert(0.0) +=
            (s.end_ns - s.start_ns).saturating_sub(covered) as f64 * 1e-9;
    }
    by_layer
}

/// Total length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Chrome `trace_event` JSON of `spans` (load in Perfetto).
pub fn chrome_trace(spans: &[SpanRecord]) -> String {
    let events: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"name\":{},\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"point\":{}}}}}",
                json_string(&s.name),
                s.layer,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.thread,
                s.id,
                s.parent,
                s.point,
            )
        })
        .collect();
    format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, layer: &'static str, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            layer,
            name: String::new(),
            point: 0,
            thread: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn overlapping_children_count_once() {
        // A sweep [0, 100) whose two workers measure [10, 60) and [20, 90).
        let spans = [
            rec(1, 0, "sweep", 0, 100),
            rec(2, 1, "measure", 10, 60),
            rec(3, 1, "measure", 20, 90),
        ];
        let by_layer = self_time_by_layer(&spans);
        assert!((by_layer["sweep"] - 20e-9).abs() < 1e-15);
        assert!((by_layer["measure"] - 120e-9).abs() < 1e-15);
    }
}
