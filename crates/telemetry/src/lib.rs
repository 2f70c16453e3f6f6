//! Metrics and span tracing for the uindex workspace.
//!
//! Metrics live in a [`Registry`]: a named set of counters, gauges and
//! histograms whose cells are atomics, so any thread may record into any
//! registry and a reader sees live values without a hand-off. Every thread
//! has a *current* registry, which the free functions ([`counter`],
//! [`snapshot`], [`reset`], ...) resolve against:
//!
//! - By default a thread gets its own fresh registry on first use, so each
//!   `cargo test` thread (and each bench) is isolated automatically.
//! - A thread can instead [`Registry::enter`] a shared registry before it
//!   records anything. A server starts all of its threads inside one
//!   registry; `uindex::parallel_query` starts its workers inside the
//!   caller's. Aggregate numbers are then a plain [`Registry::snapshot`].
//!
//! Entering a registry after the thread has already used its current one
//! panics: handles cached per thread (the buffer pool's and the B-tree's)
//! would otherwise keep pointing at the old registry.
//!
//! Three metric kinds:
//!
//! - [`Counter`] — monotonic `u64`. Resolve the handle once and keep it;
//!   `inc()` on the hot path is one relaxed `fetch_add`.
//! - [`Gauge`] — signed instantaneous value.
//! - [`Histogram`] — 65 log₂ buckets: bucket 0 holds the value 0, bucket *b*
//!   (*b ≥ 1*) covers `[2^(b-1), 2^b - 1]`, bucket 64 tops out at `u64::MAX`.
//!
//! Each cell sits on its own cache line, so cells bumped by different
//! threads never share one. [`reset()`] zeroes every metric *through the
//! shared handles*, so cached handles stay valid across queries.
//!
//! Span tracing is a thread-local stack of RAII guards: `Span::enter("scan")`
//! starts a timed frame, dropping the guard closes it and attaches it to its
//! parent (or to the finished-roots list when it is outermost). Finished roots
//! are capped so an uninstrumented drain (e.g. a long bench loop) cannot leak.

pub mod json;
pub mod window;

pub use window::RollingWindow;

use std::cell::{OnceCell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Metric handles
// ---------------------------------------------------------------------------

/// A value alone on its cache line (no false sharing between cells).
#[derive(Default)]
#[repr(align(64))]
struct Padded<T>(T);

/// Monotonic counter. Clone is cheap and shares the underlying cell.
#[derive(Clone, Default)]
pub struct Counter(Arc<Padded<AtomicU64>>);

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.0 .0.fetch_add(n, Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0 .0.load(Relaxed)
    }

    fn zero(&self) {
        self.0 .0.store(0, Relaxed);
    }
}

/// Signed instantaneous value.
#[derive(Clone, Default)]
pub struct Gauge(Arc<Padded<AtomicI64>>);

impl Gauge {
    pub fn set(&self, v: i64) {
        self.0 .0.store(v, Relaxed);
    }

    pub fn add(&self, d: i64) {
        self.0 .0.fetch_add(d, Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0 .0.load(Relaxed)
    }

    fn zero(&self) {
        self.0 .0.store(0, Relaxed);
    }
}

/// Number of log₂ buckets: one for zero plus one per bit position.
pub const HIST_BUCKETS: usize = 65;

/// Histogram cells. The sample count is the bucket total rather than a
/// cell of its own, so a concurrent snapshot can never see a count that
/// disagrees with its buckets.
#[repr(align(64))]
struct HistCells {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
}

/// Log₂-bucket histogram of `u64` samples.
#[derive(Clone)]
pub struct Histogram(Arc<HistCells>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistCells {
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
            sum: AtomicU64::new(0),
        }))
    }
}

/// Bucket index for a value: 0 for 0, else `64 - leading_zeros(v)`.
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive `[lo, hi]` range covered by bucket `i`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    assert!(i < HIST_BUCKETS, "bucket index {i} out of range");
    if i == 0 {
        (0, 0)
    } else {
        let lo = 1u64 << (i - 1);
        let hi = if i == 64 { u64::MAX } else { (1u64 << i) - 1 };
        (lo, hi)
    }
}

impl Histogram {
    pub fn record(&self, v: u64) {
        self.0.sum.fetch_add(v, Relaxed);
        self.0.buckets[bucket_index(v)].fetch_add(1, Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.bucket_counts().iter().sum()
    }

    pub fn sum(&self) -> u64 {
        self.0.sum.load(Relaxed)
    }

    pub fn bucket_counts(&self) -> [u64; HIST_BUCKETS] {
        std::array::from_fn(|i| self.0.buckets[i].load(Relaxed))
    }

    fn zero(&self) {
        for b in &self.0.buckets {
            b.store(0, Relaxed);
        }
        self.0.sum.store(0, Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let counts = self.bucket_counts();
        let buckets = counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo, hi) = bucket_bounds(i);
                (lo, hi, c)
            })
            .collect();
        HistogramSnapshot {
            count: counts.iter().sum(),
            sum: self.sum(),
            buckets,
        }
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Metrics {
    counters: BTreeMap<&'static str, Counter>,
    gauges: BTreeMap<&'static str, Gauge>,
    histograms: BTreeMap<&'static str, Histogram>,
}

/// A named set of metrics. Cheap to clone: clones share every metric.
#[derive(Clone, Default)]
pub struct Registry(Arc<Mutex<Metrics>>);

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn metrics(&self) -> MutexGuard<'_, Metrics> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Intern (or fetch) the counter with this name.
    pub fn counter(&self, name: &'static str) -> Counter {
        self.metrics().counters.entry(name).or_default().clone()
    }

    /// Intern (or fetch) the gauge with this name.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        self.metrics().gauges.entry(name).or_default().clone()
    }

    /// Intern (or fetch) the histogram with this name.
    pub fn histogram(&self, name: &'static str) -> Histogram {
        self.metrics().histograms.entry(name).or_default().clone()
    }

    /// Zero every metric, preserving all handed-out handles.
    pub fn reset(&self) {
        let m = self.metrics();
        m.counters.values().for_each(Counter::zero);
        m.gauges.values().for_each(Gauge::zero);
        m.histograms.values().for_each(Histogram::zero);
    }

    /// Read every metric's live value.
    pub fn snapshot(&self) -> Snapshot {
        let m = self.metrics();
        Snapshot {
            counters: m
                .counters
                .iter()
                .map(|(k, v)| (k.to_string(), v.get()))
                .collect(),
            gauges: m
                .gauges
                .iter()
                .map(|(k, v)| (k.to_string(), v.get()))
                .collect(),
            histograms: m
                .histograms
                .iter()
                .map(|(k, v)| (k.to_string(), v.snapshot()))
                .collect(),
        }
    }

    /// Make this the calling thread's current registry. Call it first
    /// thing on a new thread.
    ///
    /// # Panics
    ///
    /// If the thread has already used a different registry: metric handles
    /// it resolved (and cached) would keep recording into that one.
    pub fn enter(&self) {
        CURRENT.with(|cur| {
            if let Err(me) = cur.set(self.clone()) {
                let prior = cur.get().expect("set failed, so the cell is full");
                assert!(
                    Arc::ptr_eq(&prior.0, &me.0),
                    "telemetry: this thread already records into another registry; \
                     enter a registry before the thread's first metric"
                );
            }
        });
    }
}

thread_local! {
    static CURRENT: OnceCell<Registry> = const { OnceCell::new() };
    static SPANS: RefCell<SpanCollector> = RefCell::new(SpanCollector::default());
}

fn with_current<R>(f: impl FnOnce(&Registry) -> R) -> R {
    CURRENT.with(|cur| f(cur.get_or_init(Registry::new)))
}

/// The calling thread's current registry (a fresh one on first use).
pub fn current() -> Registry {
    with_current(Registry::clone)
}

/// Intern (or fetch) the counter with this name in the current registry.
pub fn counter(name: &'static str) -> Counter {
    with_current(|r| r.counter(name))
}

/// Intern (or fetch) the gauge with this name.
pub fn gauge(name: &'static str) -> Gauge {
    with_current(|r| r.gauge(name))
}

/// Intern (or fetch) the histogram with this name.
pub fn histogram(name: &'static str) -> Histogram {
    with_current(|r| r.histogram(name))
}

/// Current value of a counter (interning it if absent, value 0).
pub fn counter_value(name: &'static str) -> u64 {
    counter(name).get()
}

/// Zero every metric in the current registry, preserving all handed-out
/// handles (they share the underlying cells).
pub fn reset() {
    with_current(Registry::reset)
}

// ---------------------------------------------------------------------------
// Snapshots + JSON export
// ---------------------------------------------------------------------------

/// Point-in-time copy of one histogram: only non-empty buckets are retained,
/// each as `(lo, hi, count)` with inclusive bounds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub buckets: Vec<(u64, u64, u64)>,
}

/// Point-in-time copy of the whole registry, ordered by metric name.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, i64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// Take a snapshot of the current registry.
pub fn snapshot() -> Snapshot {
    with_current(Registry::snapshot)
}

impl HistogramSnapshot {
    /// Combine another histogram snapshot into this one: bucket counts are
    /// added by bucket (keyed on bounds), counts and sums accumulate.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        let mut by_lo: BTreeMap<u64, (u64, u64)> = self
            .buckets
            .iter()
            .map(|&(lo, hi, c)| (lo, (hi, c)))
            .collect();
        for &(lo, hi, c) in &other.buckets {
            by_lo.entry(lo).or_insert((hi, 0)).1 += c;
        }
        self.buckets = by_lo.into_iter().map(|(lo, (hi, c))| (lo, hi, c)).collect();
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// The samples recorded here but not in `base`, where `base` is an
    /// earlier snapshot of the *same* histogram (bucket counts subtract;
    /// the result of subtracting an unrelated snapshot is meaningless).
    /// Saturating, so a torn base never underflows.
    pub fn delta(&self, base: &HistogramSnapshot) -> HistogramSnapshot {
        let base_by_lo: BTreeMap<u64, u64> =
            base.buckets.iter().map(|&(lo, _, c)| (lo, c)).collect();
        let buckets = self
            .buckets
            .iter()
            .filter_map(|&(lo, hi, c)| {
                let rem = c.saturating_sub(base_by_lo.get(&lo).copied().unwrap_or(0));
                (rem > 0).then_some((lo, hi, rem))
            })
            .collect();
        HistogramSnapshot {
            count: self.count.saturating_sub(base.count),
            sum: self.sum.wrapping_sub(base.sum),
            buckets,
        }
    }

    /// Quantile `q` in `[0, 1]` as the upper bound of the bucket where the
    /// cumulative count crosses `ceil(q * count)` — a ≤2× overestimate by
    /// log₂ construction (documented in `docs/bench-format.md`). 0 when
    /// the histogram is empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for &(_, hi, count) in &self.buckets {
            cum += count;
            if cum >= target {
                return hi;
            }
        }
        self.buckets.last().map(|&(_, hi, _)| hi).unwrap_or(0)
    }
}

impl Snapshot {
    /// Combine another snapshot into this one (e.g. the intervals of a
    /// [`RollingWindow`], or the registries of separate runs). Counters and
    /// histogram samples accumulate; gauges add. Merging is associative and
    /// commutative, and the result serializes bit-identically to the same
    /// events recorded into one registry.
    pub fn merge(&mut self, other: &Snapshot) {
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, v) in &other.gauges {
            *self.gauges.entry(name.clone()).or_insert(0) += v;
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(h);
        }
    }

    /// The events recorded here but not in `base`, where `base` is an
    /// earlier snapshot of the same registry — the
    /// sampler's per-interval delta. Counters and histogram samples
    /// subtract (saturating); gauges subtract signed, treating the delta
    /// as the gauge's movement over the interval. Metrics absent from
    /// `base` pass through whole; zero-valued deltas are dropped so an
    /// idle interval stays an empty snapshot.
    pub fn delta(&self, base: &Snapshot) -> Snapshot {
        let mut out = Snapshot::default();
        for (name, &v) in &self.counters {
            let d = v.saturating_sub(base.counters.get(name).copied().unwrap_or(0));
            if d > 0 {
                out.counters.insert(name.clone(), d);
            }
        }
        for (name, &v) in &self.gauges {
            let d = v.wrapping_sub(base.gauges.get(name).copied().unwrap_or(0));
            if d != 0 {
                out.gauges.insert(name.clone(), d);
            }
        }
        for (name, h) in &self.histograms {
            let d = match base.histograms.get(name) {
                Some(b) => h.delta(b),
                None => h.clone(),
            };
            if d.count > 0 {
                out.histograms.insert(name.clone(), d);
            }
        }
        out
    }

    pub fn to_json(&self) -> String {
        self.to_json_with(None)
    }

    /// JSON export; with `Some(provenance)` a `"provenance"` header object is
    /// emitted first (schema documented in `docs/bench-format.md`).
    pub fn to_json_with(&self, provenance: Option<&Provenance>) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        if let Some(p) = provenance {
            let _ = writeln!(s, "  \"provenance\": {},", p.to_json());
        }
        s.push_str("  \"counters\": {");
        let mut first = true;
        for (k, v) in &self.counters {
            if !first {
                s.push(',');
            }
            first = false;
            let _ = write!(s, "\n    \"{}\": {}", json::escape(k), v);
        }
        s.push_str(if first { "},\n" } else { "\n  },\n" });
        s.push_str("  \"gauges\": {");
        first = true;
        for (k, v) in &self.gauges {
            if !first {
                s.push(',');
            }
            first = false;
            let _ = write!(s, "\n    \"{}\": {}", json::escape(k), v);
        }
        s.push_str(if first { "},\n" } else { "\n  },\n" });
        s.push_str("  \"histograms\": {");
        first = true;
        for (k, h) in &self.histograms {
            if !first {
                s.push(',');
            }
            first = false;
            let _ = write!(
                s,
                "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"buckets\": [",
                json::escape(k),
                h.count,
                h.sum
            );
            for (i, (lo, hi, c)) in h.buckets.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                let _ = write!(s, "{{\"lo\": {lo}, \"hi\": {hi}, \"count\": {c}}}");
            }
            s.push_str("]}");
        }
        s.push_str(if first { "}\n" } else { "\n  }\n" });
        s.push('}');
        s
    }
}

// ---------------------------------------------------------------------------
// Provenance
// ---------------------------------------------------------------------------

/// Reproducibility header attached to exported measurement JSON: which
/// workload produced the numbers, under which seed and scale, by which build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    pub seed: u64,
    pub workload: String,
    pub objects: u64,
    pub version: String,
}

impl Provenance {
    pub fn to_json(&self) -> String {
        format!(
            "{{\"seed\": {}, \"workload\": \"{}\", \"objects\": {}, \"version\": \"{}\"}}",
            self.seed,
            json::escape(&self.workload),
            self.objects,
            json::escape(&self.version)
        )
    }
}

/// Build a git-describe-able tool version string. Tries `git describe
/// --always --dirty` (cheap, local-only); falls back to the bare package
/// version when git or the repository is unavailable (e.g. from a source
/// tarball).
pub fn tool_version(pkg_version: &str) -> String {
    let described = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty());
    match described {
        Some(d) => format!("{pkg_version}+g{d}"),
        None => pkg_version.to_string(),
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// A finished, timed span with its nested children.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    pub name: &'static str,
    pub nanos: u64,
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"name\": \"{}\", \"nanos\": {}, \"children\": [",
            json::escape(self.name),
            self.nanos
        );
        for (i, c) in self.children.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&c.to_json());
        }
        s.push_str("]}");
        s
    }

    /// Depth-first lookup of the first descendant (or self) with this name.
    pub fn find(&self, name: &str) -> Option<&SpanNode> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }
}

struct OpenSpan {
    name: &'static str,
    started: Instant,
    children: Vec<SpanNode>,
}

/// Finished root spans are capped so an undrained collector (e.g. inside a
/// bench loop) stays bounded; the oldest roots are shed first.
const FINISHED_ROOTS_CAP: usize = 64;

#[derive(Default)]
struct SpanCollector {
    stack: Vec<OpenSpan>,
    finished: Vec<SpanNode>,
}

/// RAII guard for a timed span. Create with [`Span::enter`]; the span closes
/// when the guard drops. Guards must drop in LIFO order (the natural scoping
/// order) — interleaved drops mis-attribute children to the wrong parent.
pub struct Span {
    // !Send: spans belong to the thread-local collector they were opened on.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Span {
    pub fn enter(name: &'static str) -> Span {
        SPANS.with(|s| {
            s.borrow_mut().stack.push(OpenSpan {
                name,
                started: Instant::now(),
                children: Vec::new(),
            });
        });
        Span {
            _not_send: std::marker::PhantomData,
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        SPANS.with(|s| {
            let mut s = s.borrow_mut();
            let Some(open) = s.stack.pop() else {
                return; // take_spans() or unbalanced drop already cleared it
            };
            let node = SpanNode {
                name: open.name,
                nanos: open.started.elapsed().as_nanos() as u64,
                children: open.children,
            };
            if let Some(parent) = s.stack.last_mut() {
                parent.children.push(node);
            } else {
                s.finished.push(node);
                if s.finished.len() > FINISHED_ROOTS_CAP {
                    let excess = s.finished.len() - FINISHED_ROOTS_CAP;
                    s.finished.drain(..excess);
                }
            }
        });
    }
}

/// Drain all finished root spans collected on this thread, oldest first.
pub fn take_spans() -> Vec<SpanNode> {
    SPANS.with(|s| std::mem::take(&mut s.borrow_mut().finished))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handle_survives_reset() {
        let c = counter("test.counter.survives");
        c.add(5);
        assert_eq!(c.get(), 5);
        reset();
        assert_eq!(c.get(), 0);
        c.inc();
        assert_eq!(counter_value("test.counter.survives"), 1);
    }

    #[test]
    fn gauge_set_and_add() {
        let g = gauge("test.gauge");
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
        reset();
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn histogram_bucket_edges() {
        // Spot-check the documented bucket layout.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_bounds(0), (0, 0));
        assert_eq!(bucket_bounds(1), (1, 1));
        assert_eq!(bucket_bounds(2), (2, 3));
        assert_eq!(bucket_bounds(64), (1u64 << 63, u64::MAX));
    }

    #[test]
    fn histogram_records() {
        let h = histogram("test.hist");
        for v in [0u64, 1, 2, 3, 100, 1_000_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1_000_106);
        let buckets = h.bucket_counts();
        assert_eq!(buckets[0], 1); // 0
        assert_eq!(buckets[1], 1); // 1
        assert_eq!(buckets[2], 2); // 2, 3
        assert_eq!(buckets.iter().sum::<u64>(), h.count());
    }

    #[test]
    fn spans_nest_and_drain() {
        {
            let _root = Span::enter("root");
            {
                let _a = Span::enter("a");
                let _b = Span::enter("b");
            }
            let _c = Span::enter("c");
        }
        let roots = take_spans();
        let root = roots.last().expect("root span retained");
        assert_eq!(root.name, "root");
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.children[0].name, "a");
        assert_eq!(root.children[0].children[0].name, "b");
        assert_eq!(root.children[1].name, "c");
        assert!(root.find("b").is_some());
        assert!(take_spans().is_empty(), "drain empties the collector");
    }

    #[test]
    fn finished_roots_are_capped() {
        take_spans();
        for _ in 0..(FINISHED_ROOTS_CAP + 10) {
            let _s = Span::enter("loop");
        }
        assert_eq!(take_spans().len(), FINISHED_ROOTS_CAP);
    }

    #[test]
    fn snapshot_orders_by_name() {
        reset();
        counter("test.z").inc();
        counter("test.a").add(2);
        let snap = snapshot();
        let keys: Vec<_> = snap.counters.keys().cloned().collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert_eq!(snap.counters["test.a"], 2);
    }

    #[test]
    fn json_round_trip() {
        reset();
        counter("rt.pages").add(123);
        counter("rt.seeks").add(7);
        gauge("rt.depth").set(-4);
        let h = histogram("rt.hist");
        for v in [0u64, 1, 5, 5, 900] {
            h.record(v);
        }
        let prov = Provenance {
            seed: 42,
            workload: "uniform-scan".to_string(),
            objects: 5000,
            version: tool_version("0.1.0"),
        };
        let text = snapshot().to_json_with(Some(&prov));
        let parsed = json::parse(&text).expect("export must parse");

        let p = parsed.get("provenance").expect("provenance header");
        assert_eq!(p.get("seed").and_then(|v| v.as_u64()), Some(42));
        assert_eq!(
            p.get("workload").and_then(|v| v.as_str()),
            Some("uniform-scan")
        );
        assert_eq!(p.get("objects").and_then(|v| v.as_u64()), Some(5000));
        assert!(p.get("version").and_then(|v| v.as_str()).is_some());

        let counters = parsed.get("counters").expect("counters object");
        assert_eq!(counters.get("rt.pages").and_then(|v| v.as_u64()), Some(123));
        assert_eq!(counters.get("rt.seeks").and_then(|v| v.as_u64()), Some(7));
        assert_eq!(
            parsed
                .get("gauges")
                .and_then(|g| g.get("rt.depth"))
                .and_then(|v| v.as_f64()),
            Some(-4.0)
        );

        let hist = parsed
            .get("histograms")
            .and_then(|h| h.get("rt.hist"))
            .expect("histogram entry");
        assert_eq!(hist.get("count").and_then(|v| v.as_u64()), Some(5));
        assert_eq!(hist.get("sum").and_then(|v| v.as_u64()), Some(911));
        let buckets = hist
            .get("buckets")
            .and_then(|b| b.as_arr())
            .expect("buckets array");
        let total: u64 = buckets
            .iter()
            .map(|b| b.get("count").and_then(|v| v.as_u64()).unwrap())
            .sum();
        assert_eq!(total, 5, "bucket counts must add up to the sample count");
    }

    /// Events split across snapshots and merged serialize bit-identically
    /// to the same events recorded into one registry, whichever thread
    /// recorded them.
    #[test]
    fn merge_round_trip_matches_single_threaded() {
        fn record_part_a() {
            counter("mrt.pages").add(100);
            counter("mrt.seeks").add(3);
            gauge("mrt.depth").add(2);
            let h = histogram("mrt.lat");
            for v in [0u64, 4, 17] {
                h.record(v);
            }
        }
        fn record_part_b() {
            counter("mrt.pages").add(55);
            counter("mrt.only_b").inc();
            gauge("mrt.depth").add(5);
            let h = histogram("mrt.lat");
            for v in [17u64, 900, 1] {
                h.record(v);
            }
        }

        // Ground truth: both parts on one registry.
        reset();
        record_part_a();
        record_part_b();
        let want = snapshot().to_json();

        // Split: part B on another thread with its own registry.
        reset();
        record_part_a();
        let mut mine = snapshot();
        let theirs = std::thread::spawn(|| {
            record_part_b();
            snapshot()
        })
        .join()
        .unwrap();

        let mut merged = mine.clone();
        merged.merge(&theirs);
        assert_eq!(merged.to_json(), want, "merge must be exact");

        // Commuted order merges identically.
        let mut commuted = theirs.clone();
        commuted.merge(&mine);
        assert_eq!(commuted.to_json(), want, "merge must commute");

        // Part B on a thread inside this thread's registry needs no merge.
        reset();
        record_part_a();
        let reg = current();
        std::thread::spawn(move || {
            reg.enter();
            record_part_b();
        })
        .join()
        .unwrap();
        assert_eq!(
            snapshot().to_json(),
            want,
            "shared registry must match merge"
        );

        // Merging the empty snapshot is the identity.
        let before = mine.to_json();
        mine.merge(&Snapshot::default());
        assert_eq!(mine.to_json(), before);
    }

    #[test]
    fn threads_entering_one_registry_sum_exactly() {
        const THREADS: u64 = 4;
        const EVENTS: u64 = 10_000;
        let reg = Registry::new();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let reg = &reg;
                scope.spawn(move || {
                    reg.enter();
                    let c = counter("sum.events");
                    let h = histogram("sum.values");
                    for i in 0..EVENTS {
                        c.inc();
                        h.record(t * EVENTS + i);
                    }
                    gauge("sum.threads").add(1);
                });
            }
        });
        let snap = reg.snapshot();
        let n = THREADS * EVENTS;
        assert_eq!(snap.counters["sum.events"], n);
        assert_eq!(snap.gauges["sum.threads"], THREADS as i64);
        let h = &snap.histograms["sum.values"];
        assert_eq!(h.count, n);
        assert_eq!(h.sum, n * (n - 1) / 2);
        assert_eq!(h.buckets.iter().map(|b| b.2).sum::<u64>(), n);
        // The spawning thread never entered: its own registry saw nothing.
        assert!(!snapshot().counters.contains_key("sum.events"));
    }

    #[test]
    fn entering_after_recording_fails() {
        let reg = Registry::new();
        let late = std::thread::spawn({
            let reg = reg.clone();
            move || {
                counter("late.first").inc();
                reg.enter();
            }
        })
        .join();
        assert!(late.is_err(), "entering after the first metric must panic");
        assert!(reg.snapshot().counters.is_empty());

        // Entering the same registry twice is harmless.
        std::thread::spawn(move || {
            reg.enter();
            counter("twice").inc();
            reg.enter();
            assert_eq!(reg.snapshot().counters["twice"], 1);
        })
        .join()
        .unwrap();
    }

    /// Compile-time check: metric handles and registries cross threads.
    const _: () = {
        const fn send_sync<T: Send + Sync>() {}
        send_sync::<Counter>();
        send_sync::<Gauge>();
        send_sync::<Histogram>();
        send_sync::<Registry>();
    };

    /// delta is the inverse of merge: for cumulative snapshots a ⊆ b,
    /// a.merge(b.delta(a)) reproduces b exactly.
    #[test]
    fn delta_inverts_merge() {
        reset();
        counter("dl.pages").add(10);
        gauge("dl.depth").set(3);
        let h = histogram("dl.lat");
        for v in [1u64, 5, 5] {
            h.record(v);
        }
        let a = snapshot();
        counter("dl.pages").add(7);
        counter("dl.new").add(2);
        gauge("dl.depth").set(1);
        for v in [5u64, 900] {
            h.record(v);
        }
        let b = snapshot();

        let d = b.delta(&a);
        assert_eq!(d.counters.get("dl.pages"), Some(&7));
        assert_eq!(d.counters.get("dl.new"), Some(&2));
        assert_eq!(d.gauges.get("dl.depth"), Some(&-2));
        let dh = &d.histograms["dl.lat"];
        assert_eq!(dh.count, 2);
        assert_eq!(dh.sum, 905);

        let mut rebuilt = a.clone();
        rebuilt.merge(&d);
        assert_eq!(rebuilt.to_json(), b.to_json(), "a + (b - a) == b");

        // Self-delta is empty.
        let zero = b.delta(&b);
        assert!(zero.counters.is_empty());
        assert!(zero.gauges.is_empty());
        assert!(zero.histograms.is_empty());
    }

    #[test]
    fn percentile_on_snapshots() {
        let h = Histogram::default();
        assert_eq!(h.snapshot().percentile(0.99), 0, "empty histogram");
        // 99 fast samples and one slow one: p50 stays in the fast bucket,
        // p999 reaches the slow bucket's upper bound.
        for _ in 0..99 {
            h.record(10);
        }
        h.record(5000);
        let s = h.snapshot();
        assert_eq!(s.percentile(0.50), bucket_bounds(bucket_index(10)).1);
        assert_eq!(s.percentile(0.999), bucket_bounds(bucket_index(5000)).1);
        // q=0 clamps to the first sample, q=1 to the last.
        assert_eq!(s.percentile(0.0), bucket_bounds(bucket_index(10)).1);
        assert_eq!(s.percentile(1.0), bucket_bounds(bucket_index(5000)).1);
    }

    mod props {
        use super::super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            // Satellite: every recorded value lands in exactly one bucket and
            // that bucket's bounds contain it.
            #[test]
            fn value_lands_in_exactly_one_bucket(v in any::<u64>()) {
                let mut containing = 0usize;
                for i in 0..HIST_BUCKETS {
                    let (lo, hi) = bucket_bounds(i);
                    if v >= lo && v <= hi {
                        containing += 1;
                        prop_assert_eq!(bucket_index(v), i);
                    }
                }
                prop_assert_eq!(containing, 1);
            }

            // Bucket totals always match the sample count, sum matches input.
            #[test]
            fn totals_match_count(values in proptest::collection::vec(any::<u64>(), 0..64)) {
                let h = Histogram::default();
                let mut expect_sum = 0u64;
                for &v in &values {
                    h.record(v);
                    expect_sum = expect_sum.wrapping_add(v);
                }
                prop_assert_eq!(h.count(), values.len() as u64);
                prop_assert_eq!(h.sum(), expect_sum);
                prop_assert_eq!(h.bucket_counts().iter().sum::<u64>(), values.len() as u64);
            }
        }
    }
}
