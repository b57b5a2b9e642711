//! In-memory span recorder and the counting allocator of the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each layer
//! (the program itself carries no instrumentation). A disabled [`Tracer`]
//! only forwards to the wrapped closure, so the untraced passes share the
//! traced code path without recording anything.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use mcnet_sim::json::Json;

/// One recorded span: a named interval and the span that opened it.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Seconds since the tracer was created.
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Total time, self time (time minus the time of child spans) and count per
/// span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    pub total_s: f64,
    pub self_s: f64,
    pub count: usize,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span named `name` (a plain call when disabled).
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let start = self.now();
        self.spans.push(Span { name, start, end: start, parent });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.now();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Mean duration of the spans called `name` (0 when there are none).
    pub fn mean(&self, name: &str) -> f64 {
        let d: Vec<f64> =
            self.spans.iter().filter(|s| s.name == name).map(Span::duration).collect();
        d.iter().sum::<f64>() / d.len().max(1) as f64
    }

    /// Reduces the spans to per-name total and self time.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_time = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_time[p] += span.duration();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_time) {
            let entry = out.entry(span.name).or_default();
            entry.total_s += span.duration();
            entry.self_s += span.duration() - children;
            entry.count += 1;
        }
        out
    }

    /// The spans as JSON lines: name, start, end, parent, workload and seed.
    pub fn to_jsonl(&self, workload: &str, seed: u64) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let line = Json::Object(BTreeMap::from([
                ("id".to_string(), Json::from_u64(i as u64)),
                ("name".to_string(), Json::String(s.name.to_string())),
                ("start_s".to_string(), Json::Number(s.start)),
                ("end_s".to_string(), Json::Number(s.end)),
                ("parent".to_string(), s.parent.map_or(Json::Null, |p| Json::from_u64(p as u64))),
                ("workload".to_string(), Json::String(workload.to_string())),
                ("seed".to_string(), Json::String(seed.to_string())),
            ]));
            out.push_str(&line.to_compact());
            out.push('\n');
        }
        out
    }
}

/// The system allocator plus a heap-allocation counter that only counts
/// while switched on (the traced run switches it on around warm runs).
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are plain
// statistics and publish no other data, hence `Relaxed`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Counts the heap allocations (including reallocations) `f` makes. Only
/// meaningful on a single thread: allocations of other threads count too.
pub fn count_allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}
