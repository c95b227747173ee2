//! Tracing at the library's public seams, installed only in traced runs.
//!
//! * [`Spans`] — an in-memory span log (name, start, end, parent, thread)
//!   around calls into each crate's public functions, with per-name self
//!   time (a span's duration minus the union of its children's intervals).
//! * [`TimedScheduler`] — a `SegmentScheduler` decorator.  It is called once
//!   per peer per period, so it aggregates into counters and a latency
//!   histogram ([`CoreStats`]) instead of logging spans: its memory stays
//!   fixed at 100k peers × any number of periods.
//! * [`TimedExecutor`] — a `JobExecutor` decorator around the worker pool
//!   that times each dispatch and each chunk ([`RuntimeStats`]).

use fss_gossip::{SchedulerScratch, SchedulingContext, SegmentRequest, SegmentScheduler};
use fss_runtime::WorkerPool;
use fss_sim::exec::{JobExecutor, ScopedJob};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

// ---------------------------------------------------------------------------
// spans
// ---------------------------------------------------------------------------

/// One recorded span: the call it covers (e.g. `overlay.build`), its start
/// and end in ns since the log was created, and the enclosing span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    thread: ThreadId,
}

/// Per-name totals of a span log.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanTotal {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed duration, in ms.
    pub total_ms: f64,
    /// Summed self time (duration minus time covered by children), in ms.
    pub self_ms: f64,
}

struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans per thread, innermost last.
    open: Vec<(ThreadId, Vec<usize>)>,
}

impl SpanLog {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn stack(&mut self, thread: ThreadId) -> &mut Vec<usize> {
        let at = match self.open.iter().position(|(t, _)| *t == thread) {
            Some(at) => at,
            None => {
                self.open.push((thread, Vec::new()));
                self.open.len() - 1
            }
        };
        &mut self.open[at].1
    }
}

/// A shared span log.  Cloning shares the log.
#[derive(Clone)]
pub struct Spans(Arc<Mutex<SpanLog>>);

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

/// An open span; it ends when dropped.
pub struct SpanGuard {
    log: Spans,
    id: usize,
}

impl SpanGuard {
    /// The span's index, usable as an explicit parent on another thread.
    pub fn id(&self) -> usize {
        self.id
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Ok(mut log) = self.log.0.lock() {
            let end = log.now_ns();
            let thread = log.spans[self.id].thread;
            log.spans[self.id].end_ns = end;
            let stack = log.stack(thread);
            if let Some(at) = stack.iter().rposition(|&open| open == self.id) {
                stack.remove(at);
            }
        }
    }
}

impl Spans {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        Spans(Arc::new(Mutex::new(SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        })))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SpanLog> {
        self.0
            .lock()
            .expect("span log poisoned by a panicking span")
    }

    /// Opens a span under the calling thread's innermost open span.
    pub fn enter(&self, name: &'static str) -> SpanGuard {
        self.open(name, None)
    }

    /// Opens a span under `parent` (a span opened on another thread), or
    /// under the calling thread's innermost open span when `None`.
    pub fn enter_under(&self, name: &'static str, parent: Option<usize>) -> SpanGuard {
        self.open(name, parent)
    }

    fn open(&self, name: &'static str, parent: Option<usize>) -> SpanGuard {
        let thread = std::thread::current().id();
        let mut log = self.lock();
        let start = log.now_ns();
        let id = log.spans.len();
        let parent = parent.or_else(|| log.stack(thread).last().copied());
        log.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start,
            parent,
            thread,
        });
        log.stack(thread).push(id);
        SpanGuard {
            log: self.clone(),
            id,
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _span = self.enter(name);
        f()
    }

    /// Durations (ms) of every span named `name`, in start order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.lock()
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Summed duration (ms) of every span named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum()
    }

    /// Per-name count, total and self time.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotal> {
        let log = self.lock();
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); log.spans.len()];
        for span in &log.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_ns, span.end_ns));
            }
        }
        let mut totals: BTreeMap<&'static str, SpanTotal> = BTreeMap::new();
        for (span, kids) in log.spans.iter().zip(&mut children) {
            let duration = span.end_ns - span.start_ns;
            // Union of the children's intervals, clipped to the span.
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            let total = totals.entry(span.name).or_default();
            total.count += 1;
            total.total_ms += duration as f64 / 1e6;
            total.self_ms += duration.saturating_sub(covered) as f64 / 1e6;
        }
        totals
    }

    /// One note line per span name: count, total and self time.
    pub fn summary_lines(&self) -> Vec<String> {
        self.totals()
            .into_iter()
            .map(|(name, t)| {
                format!(
                    "span {name} count={} total_ms={:.3} self_ms={:.3}",
                    t.count, t.total_ms, t.self_ms
                )
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// scheduler decorator
// ---------------------------------------------------------------------------

/// Width of one `ns_per_call` histogram bucket.
const HIST_BUCKET_NS: u64 = 25;
/// Buckets; the last one also takes every slower call.
const HIST_BUCKETS: usize = 8_192;

/// Counters shared by every [`TimedScheduler`] of a run.
pub struct CoreStats {
    enabled: AtomicBool,
    calls: AtomicU64,
    ns: AtomicU64,
    candidates: AtomicU64,
    suppliers: AtomicU64,
    requests: AtomicU64,
    switch_calls: AtomicU64,
    hist: Box<[AtomicU64]>,
}

/// A point-in-time copy of [`CoreStats`]; subtract two to get an interval.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CoreSnapshot {
    /// `schedule_into` calls.
    pub calls: u64,
    /// Summed call time over all threads, in ns.
    pub ns: u64,
    /// Candidate segments offered to the scheduler.
    pub candidates: u64,
    /// Supplier entries over all candidates.
    pub suppliers: u64,
    /// Requests the scheduler returned.
    pub requests: u64,
    /// Calls made with both the old and the new session known.
    pub switch_calls: u64,
    hist: Vec<u64>,
}

impl CoreSnapshot {
    /// `self − earlier`, counter by counter.
    pub fn since(&self, earlier: &CoreSnapshot) -> CoreSnapshot {
        CoreSnapshot {
            calls: self.calls - earlier.calls,
            ns: self.ns - earlier.ns,
            candidates: self.candidates - earlier.candidates,
            suppliers: self.suppliers - earlier.suppliers,
            requests: self.requests - earlier.requests,
            switch_calls: self.switch_calls - earlier.switch_calls,
            hist: self
                .hist
                .iter()
                .zip(&earlier.hist)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }

    /// Median call time in ns, to the histogram's bucket width (the bucket
    /// midpoint).
    pub fn ns_per_call_p50(&self) -> f64 {
        let total: u64 = self.hist.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let mut seen = 0;
        for (bucket, &count) in self.hist.iter().enumerate() {
            seen += count;
            if 2 * seen >= total {
                return (bucket as u64 * HIST_BUCKET_NS) as f64 + HIST_BUCKET_NS as f64 / 2.0;
            }
        }
        unreachable!("the running count reaches the total")
    }
}

impl Default for CoreStats {
    fn default() -> Self {
        CoreStats {
            enabled: AtomicBool::new(true),
            calls: AtomicU64::new(0),
            ns: AtomicU64::new(0),
            candidates: AtomicU64::new(0),
            suppliers: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            switch_calls: AtomicU64::new(0),
            hist: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

impl CoreStats {
    /// Fresh, enabled counters.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Turns recording on or off; off, the decorator forwards untimed.
    /// Callers toggle it between periods, never during one, so the flag
    /// publishes nothing else and `Relaxed` suffices.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Copies the counters.  Call between periods: the pool's dispatch
    /// join orders every worker's updates before the read.
    pub fn snapshot(&self) -> CoreSnapshot {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        CoreSnapshot {
            calls: load(&self.calls),
            ns: load(&self.ns),
            candidates: load(&self.candidates),
            suppliers: load(&self.suppliers),
            requests: load(&self.requests),
            switch_calls: load(&self.switch_calls),
            hist: self.hist.iter().map(load).collect(),
        }
    }

    fn record(&self, ctx: &SchedulingContext, requests: usize, ns: u64) {
        let suppliers: usize = ctx.candidates.iter().map(|c| c.suppliers.len()).sum();
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.ns.fetch_add(ns, Ordering::Relaxed);
        self.candidates
            .fetch_add(ctx.candidates.len() as u64, Ordering::Relaxed);
        self.suppliers
            .fetch_add(suppliers as u64, Ordering::Relaxed);
        self.requests.fetch_add(requests as u64, Ordering::Relaxed);
        if ctx.switch_in_progress() {
            self.switch_calls.fetch_add(1, Ordering::Relaxed);
        }
        let bucket = ((ns / HIST_BUCKET_NS) as usize).min(HIST_BUCKETS - 1);
        self.hist[bucket].fetch_add(1, Ordering::Relaxed);
    }
}

/// Times every call into the wrapped scheduling policy.
pub struct TimedScheduler {
    inner: Box<dyn SegmentScheduler>,
    stats: Arc<CoreStats>,
}

impl TimedScheduler {
    /// Wraps `inner`, recording into `stats`.
    pub fn new(inner: Box<dyn SegmentScheduler>, stats: Arc<CoreStats>) -> Self {
        TimedScheduler { inner, stats }
    }
}

impl SegmentScheduler for TimedScheduler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn schedule(&self, ctx: &SchedulingContext) -> Vec<SegmentRequest> {
        if !self.stats.enabled.load(Ordering::Relaxed) {
            return self.inner.schedule(ctx);
        }
        let start = Instant::now();
        let out = self.inner.schedule(ctx);
        self.stats
            .record(ctx, out.len(), start.elapsed().as_nanos() as u64);
        out
    }

    fn schedule_into(
        &self,
        ctx: &SchedulingContext,
        scratch: &mut SchedulerScratch,
        out: &mut Vec<SegmentRequest>,
    ) {
        if !self.stats.enabled.load(Ordering::Relaxed) {
            return self.inner.schedule_into(ctx, scratch, out);
        }
        let start = Instant::now();
        self.inner.schedule_into(ctx, scratch, out);
        self.stats
            .record(ctx, out.len(), start.elapsed().as_nanos() as u64);
    }
}

// ---------------------------------------------------------------------------
// executor decorator
// ---------------------------------------------------------------------------

/// Dispatch and chunk timings of a [`TimedExecutor`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuntimeStats {
    /// Non-empty jobs dispatched.
    pub dispatches: u64,
    /// Chunks over all dispatches.
    pub chunks: u64,
    /// Summed dispatch wall time, in ns.
    pub wall_ns: u64,
    /// Summed chunk busy time, in ns.
    pub busy_ns: u64,
    /// Sum over dispatches of (largest chunk / mean chunk).
    pub imbalance_sum: f64,
}

impl RuntimeStats {
    /// `self − earlier`.
    pub fn since(&self, earlier: &RuntimeStats) -> RuntimeStats {
        RuntimeStats {
            dispatches: self.dispatches - earlier.dispatches,
            chunks: self.chunks - earlier.chunks,
            wall_ns: self.wall_ns - earlier.wall_ns,
            busy_ns: self.busy_ns - earlier.busy_ns,
            imbalance_sum: self.imbalance_sum - earlier.imbalance_sum,
        }
    }
}

/// Times every dispatch through the wrapped pool, and every chunk of it.
pub struct TimedExecutor {
    pool: Arc<WorkerPool>,
    spans: Option<Spans>,
    stats: Mutex<RuntimeStats>,
    /// Per-chunk busy time of the dispatch in flight.
    chunk_ns: Box<[AtomicU64]>,
}

/// Chunks one dispatch can time; larger jobs are timed as a whole.
const MAX_TIMED_CHUNKS: usize = 4_096;

impl TimedExecutor {
    /// Wraps `pool`; dispatches also log a `runtime.dispatch` span when
    /// `spans` is given.
    pub fn new(pool: Arc<WorkerPool>, spans: Option<Spans>) -> Arc<Self> {
        Arc::new(TimedExecutor {
            pool,
            spans,
            stats: Mutex::new(RuntimeStats::default()),
            chunk_ns: (0..MAX_TIMED_CHUNKS).map(|_| AtomicU64::new(0)).collect(),
        })
    }

    /// Worker count of the wrapped pool.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// The timings so far.
    pub fn stats(&self) -> RuntimeStats {
        self.stats.lock().expect("executor stats poisoned").clone()
    }
}

impl JobExecutor for TimedExecutor {
    fn execute(&self, chunks: usize, job: &dyn ScopedJob) {
        if chunks == 0 {
            return;
        }
        let _span = self.spans.as_ref().map(|s| s.enter("runtime.dispatch"));
        let timed = chunks <= MAX_TIMED_CHUNKS;
        let start = Instant::now();
        if timed {
            let slots = &self.chunk_ns;
            self.pool.execute(chunks, &|chunk: usize| {
                let begin = Instant::now();
                job.run_chunk(chunk);
                slots[chunk].store(begin.elapsed().as_nanos() as u64, Ordering::Relaxed);
            });
        } else {
            self.pool.execute(chunks, job);
        }
        let wall = start.elapsed().as_nanos() as u64;
        // `execute` returns only after every chunk finished, which orders
        // the chunk stores before these loads.
        let (busy, largest) = if timed {
            self.chunk_ns[..chunks]
                .iter()
                .map(|a| a.load(Ordering::Relaxed))
                .fold((0u64, 0u64), |(sum, max), ns| (sum + ns, max.max(ns)))
        } else {
            (wall, wall)
        };
        let mut stats = self.stats.lock().expect("executor stats poisoned");
        stats.dispatches += 1;
        stats.chunks += chunks as u64;
        stats.wall_ns += wall;
        stats.busy_ns += busy;
        let mean = busy as f64 / chunks as f64;
        stats.imbalance_sum += if mean > 0.0 {
            largest as f64 / mean
        } else {
            1.0
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_once() {
        let spans = Spans::new();
        {
            let _outer = spans.enter("outer");
            spans.time("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            spans.time("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        }
        let totals = spans.totals();
        let outer = &totals["outer"];
        let inner = &totals["inner"];
        assert_eq!(inner.count, 2);
        assert!(inner.total_ms >= 10.0);
        assert!(outer.total_ms >= inner.total_ms);
        assert!((outer.self_ms - (outer.total_ms - inner.total_ms)).abs() < 0.5);
        assert_eq!(spans.durations_ms("inner").len(), 2);
    }

    #[test]
    fn executor_times_every_chunk() {
        let pool = Arc::new(WorkerPool::new(2));
        let timed = TimedExecutor::new(pool, None);
        let hits: Vec<AtomicU64> = (0..8).map(|_| AtomicU64::new(0)).collect();
        timed.execute(8, &|chunk: usize| {
            hits[chunk].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        let stats = timed.stats();
        assert_eq!((stats.dispatches, stats.chunks), (1, 8));
        assert!(stats.imbalance_sum >= 1.0);
    }
}
