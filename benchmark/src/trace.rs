//! Spans recorded from the benchmark's own files, around the calls into
//! each layer, plus the allocation counter the traced run switches on.
//!
//! A span has a name (`<layer>.<operation>`), start, end, the span that
//! caused it and the iteration (or dispatch) it belongs to. Spans stay in
//! memory and are written when the workload ends. A layer's *self* time is
//! its span's duration minus its direct children's.

use crate::json::Json;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// The system allocator plus two counters. Counting is off unless a traced
/// run turns it on, and then costs two relaxed atomic adds per allocation;
/// off, it costs one relaxed load.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    // Relaxed: the counters publish no other data; they are statistics
    // read after the threads that bumped them have been joined.
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator
// state and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this `layout` — the caller's obligation, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's obligation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

fn alloc_counters() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub iter: u64,
    /// Allocations (and bytes) made between start and end, all threads.
    pub allocs: u64,
    pub alloc_bytes: u64,
}

/// Per-name sums over every span of that name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub count: u64,
    pub self_s: f64,
    pub self_allocs: f64,
    pub self_alloc_bytes: f64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    iter: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            iter: 0,
        }
    }

    /// Iteration (or dispatch) id stamped on spans begun from now on.
    pub fn set_iter(&mut self, iter: u64) {
        self.iter = iter;
    }

    pub fn begin(&mut self, name: &'static str) -> usize {
        let (allocs, alloc_bytes) = alloc_counters();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            iter: self.iter,
            allocs,
            alloc_bytes,
        });
        self.open.push(id);
        // Read the clock last so the bookkeeping above is outside the span.
        self.spans[id].start_ns = self.origin.elapsed().as_nanos() as u64;
        id
    }

    pub fn end(&mut self, id: usize) {
        let now = self.origin.elapsed().as_nanos() as u64;
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let (allocs, alloc_bytes) = alloc_counters();
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.allocs = allocs - span.allocs;
        span.alloc_bytes = alloc_bytes - span.alloc_bytes;
    }

    /// Runs `f` inside a span with no children.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time and self allocations summed per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut own: Vec<(f64, f64, f64)> = self
            .spans
            .iter()
            .map(|s| {
                (
                    (s.end_ns - s.start_ns) as f64 / 1e9,
                    s.allocs as f64,
                    s.alloc_bytes as f64,
                )
            })
            .collect();
        let full = own.clone();
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                own[p].0 -= full[i].0;
                own[p].1 -= full[i].1;
                own[p].2 -= full[i].2;
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, (self_s, allocs, bytes)) in self.spans.iter().zip(own) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.self_s += self_s;
            t.self_allocs += allocs;
            t.self_alloc_bytes += bytes;
        }
        out
    }

    /// One JSON object per span, in start order.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let mut fields = vec![
                ("id", Json::Num(id as f64)),
                ("name", Json::str(s.name)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                ("iter", Json::Num(s.iter as f64)),
                ("allocs", Json::Num(s.allocs as f64)),
                ("alloc_bytes", Json::Num(s.alloc_bytes as f64)),
            ];
            if let Some(p) = s.parent {
                fields.insert(2, ("parent", Json::Num(p as f64)));
            }
            writeln!(w, "{}", Json::obj(fields).compact())?;
        }
        w.flush()
    }
}
