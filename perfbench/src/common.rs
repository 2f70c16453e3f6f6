//! Shared measurement plumbing: exact-sample percentiles, process counters
//! from `/proc`, answer digests, the in-memory span tracer, and the report
//! every workload fills.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use pagestore::{BufferPool, PageId, PageStore};
use serve::WireRow;
use uindex::{QueryHit, ScanStats};

/// Command-line arguments (see `run.py`).
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Directory for scratch databases, traces and result files.
    pub out: PathBuf,
}

impl Args {
    /// A scratch path unique to this process.
    pub fn scratch(&self, what: &str) -> PathBuf {
        self.out
            .join(format!("{what}-{}-{}", self.workload, std::process::id()))
    }

    /// Half of the run, for workloads that split it into two phases.
    pub fn half(&self) -> Duration {
        Duration::from_millis(self.seconds * 500)
    }
}

/// Seed of the vehicle database under `serve_mixed` and `ingest_mixed`,
/// the one `loadgen` serves. `workload::serve` draws only 20 companies and
/// 50 presidents, so the result sizes of the age families swing between
/// seeds (324 to 419 rows per query over four seeds); one database keeps
/// every run on the same data, and `--seed` drives the request streams and
/// the written batches.
pub const VEHICLE_DB_SEED: u64 = 42;

/// SplitMix64: the seeded generator behind every workload's input stream.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Exact per-operation durations, in nanoseconds.
#[derive(Default, Clone)]
pub struct Samples(Vec<u64>);

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_nanos() as u64);
    }

    pub fn extend(&mut self, other: Samples) {
        self.0.extend(other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn total_s(&self) -> f64 {
        self.0.iter().sum::<u64>() as f64 / 1e9
    }

    pub fn mean_ns(&self) -> f64 {
        self.0.iter().sum::<u64>() as f64 / self.0.len().max(1) as f64
    }

    /// Nearest-rank percentile in milliseconds (`q` in 0..=1).
    pub fn pct_ms(&self, q: f64) -> f64 {
        pct_ms(&self.0, q)
    }

    /// Merge per-thread samples by taking one from each in turn, so that
    /// threads that took turns in one sequence give it back in order.
    pub fn interleave(parts: Vec<Samples>) -> Samples {
        let longest = parts.iter().map(|p| p.0.len()).max().unwrap_or(0);
        let mut all = Vec::with_capacity(parts.iter().map(|p| p.0.len()).sum());
        for i in 0..longest {
            all.extend(parts.iter().filter_map(|p| p.0.get(i)));
        }
        Samples(all)
    }

    /// Consecutive windows of `size` samples; a short tail is dropped
    /// unless it is the only window.
    fn windows(&self, size: usize) -> impl Iterator<Item = &[u64]> {
        self.0.chunks(size).take((self.0.len() / size).max(1))
    }

    /// Percentile `q` in milliseconds, as `est` takes it.
    pub fn pct_ms_by(&self, q: f64, est: Estimate) -> f64 {
        let pct = |w: &[u64]| pct_ms(w, q);
        match est {
            Estimate::Whole => pct(&self.0),
            Estimate::Quiet => quiet(self.windows(WINDOW).map(pct).collect(), false),
            Estimate::Median(size) => median(self.windows(size).map(pct).collect()),
        }
    }

    /// Operations per second of operation time, as `est` takes it.
    pub fn rate_by(&self, est: Estimate) -> f64 {
        let rate = |w: &[u64]| w.len() as f64 * 1e9 / w.iter().sum::<u64>().max(1) as f64;
        match est {
            Estimate::Whole => rate(&self.0),
            Estimate::Quiet => quiet(self.windows(WINDOW).map(rate).collect(), true),
            Estimate::Median(size) => median(self.windows(size).map(rate).collect()),
        }
    }
}

/// How a run's samples become one figure.
#[derive(Clone, Copy, PartialEq)]
pub enum Estimate {
    /// Over all the run's samples.
    Whole,
    /// The quiet-window estimate ([`quiet`]) over windows of [`WINDOW`]
    /// samples.
    Quiet,
    /// The median of the figures of consecutive windows of this many
    /// samples. A burst of host load that covers fewer than half the
    /// windows of a run leaves it unmoved, while a change to the program
    /// moves every window.
    Median(usize),
}

/// Samples per window of the quiet-window estimate.
pub const WINDOW: usize = 100;
/// A p99 from fewer samples is flagged as undersampled.
pub const P99_MIN_SAMPLES: usize = 1000;

/// The quiet-window estimate of a figure measured once per window: the
/// tenth percentile (nearest rank) of the windows' values, taken from the
/// better end. The host's other tenants slow this machine by up to 1.8×
/// in bursts of one to a few seconds that cover anywhere from none to
/// most of a run. For single-threaded CPU work in a closed loop a burst
/// scales every operation of a window alike, and a change to the program
/// moves every window alike, so the quietest windows show the program's
/// speed while a median jumps between the quiet and the loaded state.
fn quiet(mut per_window: Vec<f64>, higher_is_better: bool) -> f64 {
    per_window.sort_by(|a, b| a.total_cmp(b));
    if higher_is_better {
        per_window.reverse();
    }
    let rank = (per_window.len() as f64 * 0.1).ceil().max(1.0) as usize;
    per_window.get(rank - 1).copied().unwrap_or(0.0)
}

fn pct_ms(samples: &[u64], q: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_unstable();
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64 / 1e6
}

/// Run `setup` `reps` times (once in a traced run), dropping each result
/// before the next, and report the median wall time as `setup_s`.
pub fn timed_setups<T>(
    r: &mut Report,
    args: &Args,
    reps: usize,
    mut setup: impl FnMut() -> T,
) -> T {
    let reps = if args.trace { 1 } else { reps };
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    r.e2e("setup_s", median(times), "s");
    last.expect("at least one setup")
}

/// Median of a small set of measurements (0 for none).
pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Bytes this process has passed to `write`-family calls (`wchar`).
pub fn wchar() -> u64 {
    let io = std::fs::read_to_string("/proc/self/io").unwrap_or_default();
    io.lines()
        .find_map(|l| l.strip_prefix("wchar:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// FNV-1a over the wire encoding of every row, so answers from the
/// server, the engine and the oracle compare through one function.
pub fn digest_rows(rows: &[WireRow]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for r in rows {
        eat(&(r.key.len() as u32).to_le_bytes());
        eat(&r.key);
        for a in &r.assignment {
            eat(&a.unwrap_or(u32::MAX).to_le_bytes());
        }
    }
    h
}

pub fn wire_rows(hits: &[QueryHit]) -> Vec<WireRow> {
    hits.iter()
        .map(|h| WireRow::from_hit(h).expect("indexable hit"))
        .collect()
}

pub fn digest_hits(hits: &[QueryHit]) -> u64 {
    digest_rows(&wire_rows(hits))
}

/// One recorded span: a benchmark call into a layer.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
    thread: u32,
}

/// In-memory span recorder. Disabled tracers record nothing, so untraced
/// runs pay one branch per call site.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    thread: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
    pub request: u64,
}

impl Default for Tracer {
    /// A disabled tracer.
    fn default() -> Tracer {
        Tracer::new(false, Instant::now(), 0)
    }
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant, thread: u32) -> Tracer {
        Tracer {
            enabled,
            origin,
            thread,
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    /// Open a span named `layer.call`; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            request: self.request,
            thread: self.thread,
        });
        self.stack.push(idx);
    }

    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let idx = self.stack.pop().expect("exit matches an enter");
        self.spans[idx].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// Append another thread's spans (parent indices are rebased).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Per span name: (calls, total ns, self ns). Self time is a span's
    /// duration minus the time its child spans cover.
    pub fn by_name(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += dur.saturating_sub(child_ns[i]);
        }
        out
    }

    /// Mean duration of the spans named `name`, in nanoseconds.
    pub fn mean_ns(&self, name: &str) -> f64 {
        let (n, total, _) = self.by_name().get(name).copied().unwrap_or_default();
        total as f64 / n.max(1) as f64
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"request\": {}, \"thread\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request, s.thread
            );
        }
        std::fs::write(path, out)
    }
}

/// Time `iters` calls of `f`, returning nanoseconds per call.
pub fn ns_per_call(iters: u64, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

/// The telemetry layer's own cost: one counter increment and one
/// histogram record, timed in tight loops.
pub fn telemetry_probes(r: &mut Report) {
    const ITERS: u64 = 2_000_000;
    let c = telemetry::counter("perfbench.probe.counter");
    let h = telemetry::histogram("perfbench.probe.histogram");
    r.layer(
        "telemetry.counter_inc_ns",
        ns_per_call(ITERS, || std::hint::black_box(&c).inc()),
        "ns",
    );
    let mut v = 1u64;
    r.layer(
        "telemetry.histogram_record_ns",
        ns_per_call(ITERS, || {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1) >> 40;
            std::hint::black_box(&h).record(v);
        }),
        "ns",
    );
}

/// A measured value with its unit and, for timings, its sample count.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: Option<usize>,
}

/// Everything one run reports. `e2e` and `layer` hold every metric the
/// workload measures; `main` selects the gated ones for the result line.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub e2e: Vec<Metric>,
    pub layer: Vec<Metric>,
    /// Free-form facts (geometry, policies, deterministic counts) as
    /// pre-rendered JSON values.
    pub info: Vec<(String, String)>,
    /// Counts that must repeat exactly for the same seed and source.
    pub det: Vec<(String, u64)>,
    /// Correctness failures, described.
    pub errors: Vec<String>,
}

impl Report {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.e2e.push(Metric {
            name: name.into(),
            value,
            unit,
            samples: None,
        });
    }

    /// Latency percentiles from exact samples, with the count: the p50
    /// and p90 by `est`, the p99 over all samples.
    pub fn latency(&mut self, prefix: &str, s: &Samples, est: Estimate) {
        for (q, tag) in [(0.5, "p50"), (0.9, "p90"), (0.99, "p99")] {
            self.e2e.push(Metric {
                name: format!("{prefix}_{tag}_ms"),
                value: s.pct_ms_by(q, if q < 0.99 { est } else { Estimate::Whole }),
                unit: "ms",
                samples: Some(s.len()),
            });
        }
        if s.len() < P99_MIN_SAMPLES {
            self.info(
                &format!("{prefix}_p99_undersampled"),
                format!("{{\"samples\": {}}}", s.len()),
            );
        }
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layer.push(Metric {
            name: name.into(),
            value,
            unit,
            samples: None,
        });
    }

    pub fn info(&mut self, key: &str, json: String) {
        self.info.push((key.into(), json));
    }

    pub fn det(&mut self, key: &str, v: u64) {
        self.det.push((key.into(), v));
    }

    /// Take over another report's operation counts and failures.
    pub fn merge_counts(&mut self, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
    }

    /// Record a correctness failure; the run will report `correct: false`.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(what);
        }
    }

    /// Per-layer self time from a traced run's spans: for each layer (the
    /// span-name prefix), self time per operation in microseconds.
    pub fn self_times(&mut self, tracer: &Tracer, ops: u64) {
        let mut by_layer: BTreeMap<&str, u64> = BTreeMap::new();
        let mut calls = String::new();
        for (name, (n, total, own)) in tracer.by_name() {
            let layer = name.split('.').next().unwrap_or(name);
            *by_layer.entry(layer).or_default() += own;
            let _ = write!(
                calls,
                "{}\"{name}\": {{\"calls\": {n}, \"total_ms\": {}, \"self_ms\": {}}}",
                if calls.is_empty() { "" } else { ", " },
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        self.info("spans", format!("{{{calls}}}"));
        for (layer, own) in by_layer {
            let name = format!("{layer}.self_us_per_op");
            self.layer.push(Metric {
                name,
                value: own as f64 / 1e3 / ops.max(1) as f64,
                unit: "us",
                samples: None,
            });
        }
    }
}

/// Render metrics as a JSON object body: `"name": {"value": .., "unit": ..}`.
pub fn metrics_json(ms: &[Metric]) -> String {
    let mut out = String::new();
    for m in ms {
        if !out.is_empty() {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"",
            m.name,
            json_num(m.value),
            m.unit
        );
        if let Some(n) = m.samples {
            let _ = write!(out, ", \"samples\": {n}");
        }
        out.push('}');
    }
    out
}

/// A JSON number; non-finite values (never expected) render as 0.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

pub fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

pub fn add_stats(acc: &mut ScanStats, s: &ScanStats) {
    acc.pages_read += s.pages_read;
    acc.node_visits += s.node_visits;
    acc.entries_examined += s.entries_examined;
    acc.matches += s.matches;
    acc.seeks += s.seeks;
    acc.descents += s.descents;
    acc.reseek_depth_total += s.reseek_depth_total;
}

/// The matcher's and the B-tree's per-query numbers from summed scan
/// counts and the time spent in the query calls.
pub fn query_layers(r: &mut Report, acc: &ScanStats, query_ns: u64, queries: usize) {
    let per_q = |v: u64| v as f64 / queries.max(1) as f64;
    r.layer("uindex.query_us", per_q(query_ns) / 1e3, "us");
    r.layer(
        "uindex.entries_per_query",
        per_q(acc.entries_examined),
        "count",
    );
    r.layer(
        "uindex.ns_per_entry",
        query_ns as f64 / acc.entries_examined.max(1) as f64,
        "ns",
    );
    r.layer(
        "uindex.match_ratio",
        acc.matches as f64 / acc.entries_examined.max(1) as f64,
        "ratio",
    );
    r.layer("uindex.seeks_per_query", per_q(acc.seeks), "count");
    r.layer(
        "btree.node_visits_per_query",
        per_q(acc.node_visits),
        "count",
    );
    r.layer("btree.descents_per_query", per_q(acc.descents), "count");
    r.layer(
        "btree.reseek_depth_per_query",
        per_q(acc.reseek_depth_total),
        "count",
    );
}

/// Buffer-pool numbers per query: fetches and misses (from
/// `BufferPool::stats()` deltas) and evictions over a pass of `queries`.
pub fn pool_layers(r: &mut Report, fetches: u64, misses: u64, evictions: u64, queries: usize) {
    let per_q = |v: u64| v as f64 / queries.max(1) as f64;
    r.layer("pagestore.fetches_per_query", per_q(fetches), "count");
    r.layer(
        "pagestore.miss_ratio",
        misses as f64 / fetches.max(1) as f64,
        "ratio",
    );
    r.layer("pagestore.evictions_per_query", per_q(evictions), "count");
}

/// Time `BufferPool::fetch` on resident pages and on non-resident ones.
pub fn fetch_probes<P: PageStore>(
    r: &mut Report,
    pool: &BufferPool<P>,
    ids: &[PageId],
    tracer: &mut Tracer,
    seed: u64,
) {
    const PROBES: usize = 4096;
    let mut rng = Rng::new(seed ^ 0xFE7C4);
    let (mut hit, mut hit_ns, mut miss, mut miss_ns) = (0u64, 0u64, 0u64, 0u64);
    for _ in 0..PROBES {
        let id = ids[rng.below(ids.len() as u64) as usize];
        let resident = pool.peek(id).is_some();
        let t = Instant::now();
        let page = tracer.span("pagestore.fetch", || pool.fetch(id));
        let ns = t.elapsed().as_nanos() as u64;
        if page.is_err() {
            r.fail(format!("fetch of page {id:?} failed"));
        } else if resident {
            hit += 1;
            hit_ns += ns;
        } else {
            miss += 1;
            miss_ns += ns;
        }
    }
    r.layer(
        "pagestore.fetch_hit_ns",
        hit_ns as f64 / hit.max(1) as f64,
        "ns",
    );
    if miss > 0 {
        r.layer(
            "pagestore.fetch_miss_us",
            miss_ns as f64 / 1e3 / miss as f64,
            "us",
        );
    }
    r.info(
        "fetch_probes",
        format!(
            "{{\"hits\": {hit}, \"misses\": {miss}, \"pool_pages\": {}}}",
            ids.len()
        ),
    );
}

/// The commit-path counters on a workload that commits nothing: zero by
/// construction, reported so every traced run carries the same metrics.
pub fn no_commits(r: &mut Report) {
    r.layer("pagestore.wal.fsyncs_per_commit", 0.0, "count");
    r.layer("pagestore.wal.appends_per_commit", 0.0, "count");
    r.layer("pagestore.write_bytes_per_commit", 0.0, "B");
    r.layer("btree.splits_per_commit", 0.0, "count");
}

/// Keeps every CPU busy at the lowest scheduling priority while alive.
///
/// On a virtual machine an idle vCPU halts, and waking it again waits for
/// the hypervisor to schedule it, a delay that follows other tenants'
/// load rather than the program. One spinner per CPU under `SCHED_IDLE`
/// runs only when no other thread wants that CPU, so the program's threads
/// still get every cycle they ask for, but a thread woken by a request
/// preempts a spinner instead of waiting for a halted vCPU.
pub struct KeepAwake {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl KeepAwake {
    /// One spinner on each of `cpus`.
    pub fn start(cpus: &[usize]) -> KeepAwake {
        use std::sync::atomic::{AtomicBool, Ordering};
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let threads = cpus
            .iter()
            .map(|&cpu| {
                let stop = stop.clone();
                std::thread::spawn(move || {
                    if pin_thread(cpu) && set_idle_priority() {
                        while !stop.load(Ordering::Relaxed) {
                            std::hint::spin_loop();
                        }
                    }
                })
            })
            .collect();
        KeepAwake { stop, threads }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Move the calling thread to `SCHED_IDLE`; false if the kernel refused.
fn set_idle_priority() -> bool {
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `param` is a valid `struct sched_param` that outlives the
    // call, and pid 0 names the calling thread.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Words in a CPU mask: room for 1,024 CPUs, as glibc's `cpu_set_t`.
const MASK_WORDS: usize = 16;

/// The CPUs the calling thread may run on, lowest first (none if the
/// kernel does not say).
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of the size passed, and pid 0
    // names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Restrict the calling thread, and the threads it starts from then on,
/// to `cpu` (one of [`allowed_cpus`]); false if the kernel refused.
pub fn pin_thread(cpu: usize) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of the size passed, and pid 0
    // names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}
