//! `scan_warm` and `scan_cold`: the experiment-2 tree (1M postings, 8 sets,
//! 1,000 distinct keys, 1 KiB pages) under one seeded query stream, once in
//! a pool that holds the whole tree and once on the disk stack with a pool
//! a twentieth of its size.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use baselines::SetId;
use btree::BTreeConfig;
use objstore::{Oid, Value};
use pagestore::{disk as pdisk, BufferPool, PageId, PageStore};
use schema::ClassId;
use uindex::{ClassSel, EntryKey, IndexId, Query, ScanAlgorithm, ScanStats, UIndex, ValuePred};
use workload::uniform::{generate_postings, key_bytes, KeyCount, UIndexSet, UniformConfig};

use crate::common::*;

const POSTINGS: u32 = 1_000_000;
const SETS: u16 = 8;
const KEYS: u32 = 1000;
const PAGE_SIZE: usize = 1024;
/// The warm pool: far larger than the ~5,240-page tree.
const WARM_POOL: usize = 1 << 17;
/// The cold pool: a twentieth of the tree, which keeps the miss ratio
/// above one half under this query mix.
const COLD_POOL: usize = 256;
const STREAM_LEN: usize = 2000;
/// Shape rotation: 0 = `exact_k4`, 1 = `range1_k2`, 2 = `range10_k1`.
const MIX: [u8; 10] = [0, 1, 1, 2, 1, 0, 1, 1, 2, 1];
const SETUP_REPS: usize = 3;
/// Queries run before timing; their summed scan counts are the run's
/// deterministic counts.
const WARMUP: usize = 150;
/// Stream positions checked against a brute-force sweep of the postings.
const BRUTE_SAMPLE: usize = 16;

type Posting = (Vec<u8>, SetId, Oid);

/// One query of the stream: its shape and the bounds a brute-force sweep
/// checks (`lo <= key < hi`; an exact probe is `[k, k + "\0")`).
struct ScanQuery {
    shape: &'static str,
    lo: Vec<u8>,
    hi: Vec<u8>,
    sets: Vec<SetId>,
    query: Query,
}

struct Fixture<P: PageStore> {
    index: UIndex<P>,
    id: IndexId,
    classes: Vec<ClassId>,
    postings: Vec<Posting>,
    stream: Vec<ScanQuery>,
}

fn config(seed: u64) -> UniformConfig {
    UniformConfig {
        num_objects: POSTINGS,
        num_sets: SETS,
        keys: KeyCount::Distinct(KEYS),
        seed,
    }
}

/// Reattach to a persisted index through its catalog, so both tiers run
/// queries through the same `UIndex` (and expose its tree and pool).
fn attach<P: PageStore>(
    pool: BufferPool<P>,
    root: PageId,
    len: u64,
    postings: Vec<Posting>,
    seed: u64,
) -> Fixture<P> {
    let (index, schema) =
        UIndex::open_with_catalog(pool, BTreeConfig::default(), root, len).expect("catalog");
    let id = index.index_by_name("key").expect("key index");
    let classes: Vec<ClassId> = (0..SETS)
        .map(|i| schema.class_by_name(&format!("S{i}")).expect("set class"))
        .collect();
    let stream = query_stream(id, &classes, seed);
    Fixture {
        index,
        id,
        classes,
        postings,
        stream,
    }
}

/// The `scanperf` shapes in a fixed rotation, so every seed runs the same
/// mix: two `exact_k4` (descents), six `range1_k2` and two `range10_k1`
/// (skip/reseek heavy) in ten. The seed picks keys and sets. The shares
/// put each reported percentile inside one shape's ordinary cost rather
/// than on a boundary between shapes: the p50 among `range1_k2` queries,
/// the p90 and p99 among `range10_k1` ones.
fn query_stream(id: IndexId, classes: &[ClassId], seed: u64) -> Vec<ScanQuery> {
    let mut rng = Rng::new(seed ^ 0x5CA9_F0CE_5EED_0001);
    let str_of = |k: &[u8]| Value::Str(String::from_utf8(k.to_vec()).expect("ascii key"));
    (0..STREAM_LEN)
        .map(|i| {
            let (shape, k, permille) = match MIX[i % MIX.len()] {
                0 => ("exact_k4", 4u16, 0u32),
                1 => ("range1_k2", 2, 10),
                _ => ("range10_k1", 1, 100),
            };
            let start = rng.below(KEYS as u64) as u32;
            let first = rng.below(SETS as u64) as u16;
            let mut sets: Vec<SetId> = (0..k).map(|i| SetId((first + i) % SETS)).collect();
            sets.sort();
            let (lo, hi, pred) = if permille == 0 {
                let lo = key_bytes(start);
                let mut hi = lo.clone();
                hi.push(0);
                let pred = ValuePred::eq(str_of(&lo));
                (lo, hi, pred)
            } else {
                let span = (KEYS * permille / 1000).max(1);
                let start = start.min(KEYS - span);
                let (lo, hi) = (key_bytes(start), key_bytes(start + span));
                let pred = ValuePred::Range {
                    lo: Some(str_of(&lo)),
                    hi: Some(str_of(&hi)),
                    hi_inclusive: false,
                };
                (lo, hi, pred)
            };
            let sel = ClassSel::AnyOf(
                sets.iter()
                    .map(|s| ClassSel::Exact(classes[s.0 as usize]))
                    .collect(),
            );
            let mut query = Query::on(id).value(pred).class_at(0, sel);
            query.algorithm = ScanAlgorithm::Parallel;
            ScanQuery {
                shape,
                lo,
                hi,
                sets,
                query,
            }
        })
        .collect()
}

fn setup_warm(seed: u64) -> Fixture<pagestore::MemStore> {
    let postings = generate_postings(&config(seed));
    let mut set = UIndexSet::build(SETS, &postings).expect("build");
    let (root, len) = set.persist().expect("persist");
    attach(set.into_pool(), root, len, postings, seed)
}

fn setup_cold(seed: u64, dir: &std::path::Path) -> Fixture<pdisk::DiskStack> {
    let postings = generate_postings(&config(seed));
    std::fs::remove_dir_all(dir).ok();
    let mut stack = pdisk::create(dir, PAGE_SIZE).expect("create disk stack");
    stack.set_group_commit(8);
    let mut set = UIndexSet::build_with_pool(BufferPool::new(stack, WARM_POOL), SETS, &postings)
        .expect("build");
    let (root, len) = set.persist().expect("persist");
    let mut stack = set.into_pool().into_store();
    stack.checkpoint().expect("checkpoint");
    drop(stack);
    let stack = pdisk::open(dir).expect("reopen disk stack");
    attach(BufferPool::new(stack, COLD_POOL), root, len, postings, seed)
}

/// Tree key bounds of a stream query, for the B-tree probes.
fn key_bounds(id: IndexId, q: &ScanQuery) -> (Vec<u8>, Vec<u8>) {
    let enc = |k: &[u8]| {
        let v = Value::Str(String::from_utf8(k.to_vec()).expect("ascii key"));
        EntryKey::value_prefix(id, &v).expect("indexable")
    };
    if q.shape == "exact_k4" {
        // Every entry of the key starts with its value prefix; the next
        // byte string past that prefix bounds them.
        let lo = enc(&q.lo);
        let mut hi = lo.clone();
        *hi.last_mut().expect("non-empty prefix") += 1;
        (lo, hi)
    } else {
        (enc(&q.lo), enc(&q.hi))
    }
}

/// The `(set, oid)` answer of a query, sorted, as the brute force gives it.
fn set_hits<P: PageStore>(fx: &Fixture<P>, hits: &[uindex::QueryHit]) -> Vec<(SetId, Oid)> {
    let enc = fx.index.encoding();
    let mut out: Vec<(SetId, Oid)> = hits
        .iter()
        .map(|h| {
            let class = enc.class_by_code(&h.key.path[0].code).expect("known code");
            let set = fx.classes.iter().position(|&c| c == class).expect("set");
            (SetId(set as u16), h.key.path[0].oid)
        })
        .collect();
    out.sort();
    out
}

fn brute(postings: &[Posting], q: &ScanQuery) -> Vec<(SetId, Oid)> {
    let mut out: Vec<(SetId, Oid)> = postings
        .iter()
        .filter(|(k, s, _)| {
            k.as_slice() >= q.lo.as_slice() && k.as_slice() < q.hi.as_slice() && q.sets.contains(s)
        })
        .map(|(_, s, o)| (*s, *o))
        .collect();
    out.sort();
    out
}

/// What the timed loop learned about each stream position: the answer's
/// digest and scan counts, which must repeat on every revisit.
#[derive(Default)]
struct Seen {
    first: HashMap<usize, (u64, ScanStats)>,
}

impl Seen {
    fn check(&mut self, r: &mut Report, pos: usize, digest: u64, stats: ScanStats) {
        match self.first.get(&pos) {
            None => {
                self.first.insert(pos, (digest, stats));
            }
            Some(&(d, s)) if d == digest && s == stats => {}
            Some(_) => r.fail(format!("stream query {pos}: answer or scan counts changed")),
        }
    }
}

/// Warm-up: for the warm tier a full leaf walk decodes every page; then
/// the first `WARMUP` queries run on either tier. Returns their summed
/// scan counts (the deterministic counts).
fn warm<P: PageStore>(fx: &Fixture<P>, full_walk: bool) -> ScanStats {
    if full_walk {
        let view = fx.index.tree().view();
        let mut cur = view.seek_first().expect("seek");
        while view.cursor_entry_ref(&mut cur).expect("walk").is_some() {
            cur.advance();
        }
    }
    let mut acc = ScanStats::default();
    for q in &fx.stream[..WARMUP] {
        let (_, s) = fx.index.query(&q.query).expect("warm-up query");
        add_stats(&mut acc, &s);
    }
    acc
}

fn geometry<P: PageStore>(r: &mut Report, fx: &Fixture<P>, pool_pages: usize) {
    let tree_pages = fx.index.tree().pool().live_pages();
    let mut shapes: HashMap<&str, usize> = HashMap::new();
    for q in &fx.stream {
        *shapes.entry(q.shape).or_default() += 1;
    }
    r.info(
        "geometry",
        format!(
            "{{\"postings\": {POSTINGS}, \"sets\": {SETS}, \"distinct_keys\": {KEYS}, \
             \"page_size\": {PAGE_SIZE}, \"tree_pages\": {tree_pages}, \"pool_pages\": {pool_pages}, \
             \"entries\": {}, \"stream_len\": {STREAM_LEN}, \"exact_k4\": {}, \"range1_k2\": {}, \
             \"range10_k1\": {}, \"algorithm\": \"parallel\", \"threads\": 1, \"loop\": \"closed\"}}",
            fx.index.tree().len(),
            shapes.get("exact_k4").copied().unwrap_or(0),
            shapes.get("range1_k2").copied().unwrap_or(0),
            shapes.get("range10_k1").copied().unwrap_or(0),
        ),
    );
}

pub fn run(args: &Args, cold: bool) -> Report {
    let mut r = Report::default();
    let dir = args.scratch("db");
    if cold {
        let (fx, det) = timed_setups(&mut r, args, SETUP_REPS, || {
            let fx = setup_cold(args.seed, &dir);
            let det = warm(&fx, false);
            (fx, det)
        });
        measure(args, &mut r, fx, det, COLD_POOL);
    } else {
        let (fx, det) = timed_setups(&mut r, args, SETUP_REPS, || {
            let fx = setup_warm(args.seed);
            let det = warm(&fx, true);
            (fx, det)
        });
        measure(args, &mut r, fx, det, WARM_POOL);
    }
    std::fs::remove_dir_all(&dir).ok();
    r
}

fn measure<P: PageStore>(
    args: &Args,
    r: &mut Report,
    fx: Fixture<P>,
    det: ScanStats,
    pool_pages: usize,
) {
    geometry(r, &fx, pool_pages);
    r.det("pages_read", det.pages_read);
    r.det("node_visits", det.node_visits);
    r.det("entries_examined", det.entries_examined);
    r.det("seeks", det.seeks);
    r.det("descents", det.descents);
    let fsyncs0 = telemetry::counter_value("pagestore.wal.fsyncs");

    let mut seen = Seen::default();
    if args.trace {
        traced(args, r, &fx, &mut seen);
    } else {
        let budget = Duration::from_secs(args.seconds);
        let mut off = Tracer::new(false, Instant::now(), 0);
        let mut pass = Pass::default();
        let t0 = Instant::now();
        while t0.elapsed() < budget {
            let pos = pass.lat.len() % STREAM_LEN;
            pass.query(r, &fx, &mut seen, pos, &mut off);
        }
        r.e2e("ops_per_s", pass.lat.rate_by(Estimate::Quiet), "1/s");
        r.latency("latency", &pass.lat, Estimate::Quiet);
        r.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
    }

    // Correctness gate (untimed): a seeded sample of the positions the run
    // executed against a brute-force sweep of the postings, plus one digest
    // over the answers of every executed position.
    let mut rng = Rng::new(args.seed ^ 0xB2_07E);
    let ran: Vec<usize> = {
        let mut v: Vec<usize> = seen.first.keys().copied().collect();
        v.sort_unstable();
        v
    };
    for _ in 0..BRUTE_SAMPLE.min(ran.len()) {
        let pos = ran[rng.below(ran.len() as u64) as usize];
        let q = &fx.stream[pos];
        let (hits, _) = fx.index.query(&q.query).expect("gate query");
        if set_hits(&fx, &hits) != brute(&fx.postings, q) {
            r.fail(format!(
                "stream query {pos} ({}) differs from brute force",
                q.shape
            ));
        }
    }
    let mut stream_digest = 0u64;
    for (pos, (d, _)) in seen.first.iter() {
        stream_digest ^= d.rotate_left((*pos % 64) as u32);
    }
    r.info(
        "answers",
        format!(
            "{{\"positions_digested\": {}, \"digest\": \"{stream_digest:016x}\", \"brute_checked\": {}}}",
            seen.first.len(),
            BRUTE_SAMPLE.min(ran.len())
        ),
    );
    let fsyncs = telemetry::counter_value("pagestore.wal.fsyncs") - fsyncs0;
    if fsyncs != 0 {
        r.fail(format!("read-only query passes issued {fsyncs} WAL fsyncs"));
    }
}

/// What a run of stream queries measured: service times, summed scan
/// counts, and buffer-pool activity around the query calls.
#[derive(Default)]
struct Pass {
    lat: Samples,
    acc: ScanStats,
    fetches: u64,
    misses: u64,
    evictions: u64,
}

impl Pass {
    /// Run stream position `pos` once (timed), then check its answer.
    fn query<P: PageStore>(
        &mut self,
        r: &mut Report,
        fx: &Fixture<P>,
        seen: &mut Seen,
        pos: usize,
        tracer: &mut Tracer,
    ) {
        let q = &fx.stream[pos];
        let pool = fx.index.tree().pool();
        let (p0, ev0) = (
            pool.stats(),
            telemetry::counter_value("pagestore.pool.evictions"),
        );
        let t = Instant::now();
        let res = tracer.span("uindex.query", || fx.index.query(&q.query));
        self.lat.push(t.elapsed());
        let p1 = pool.stats();
        self.fetches += p1.logical_fetches - p0.logical_fetches;
        self.misses += p1.physical_reads - p0.physical_reads;
        self.evictions += telemetry::counter_value("pagestore.pool.evictions") - ev0;
        r.attempted += 1;
        match res {
            Ok((hits, stats)) => {
                add_stats(&mut self.acc, &stats);
                seen.check(r, pos, digest_hits(&hits), stats);
            }
            Err(e) => r.fail(format!("stream query {pos}: {e}")),
        }
    }
}

/// The traced run: each stream query runs twice back to back, once inside
/// a span and once not, alternating which goes first; the difference is
/// the tracing overhead. Then the layer probes.
fn traced<P: PageStore>(args: &Args, r: &mut Report, fx: &Fixture<P>, seen: &mut Seen) {
    let origin = Instant::now();
    let mut off = Tracer::new(false, origin, 0);
    let mut tracer = Tracer::new(true, origin, 0);
    let (mut plain, mut spanned) = (Pass::default(), Pass::default());
    let t0 = Instant::now();
    let mut n = 0usize;
    while t0.elapsed() < args.half() {
        let pos = n % STREAM_LEN;
        tracer.request = n as u64;
        if n.is_multiple_of(2) {
            plain.query(r, fx, seen, pos, &mut off);
            spanned.query(r, fx, seen, pos, &mut tracer);
        } else {
            spanned.query(r, fx, seen, pos, &mut tracer);
            plain.query(r, fx, seen, pos, &mut off);
        }
        n += 1;
    }
    r.self_times(&tracer, n as u64);
    let overhead = 100.0 * (spanned.lat.total_s() - plain.lat.total_s()) / plain.lat.total_s();
    r.layer("bench.trace_overhead_pct", overhead, "%");
    query_layers(r, &spanned.acc, (spanned.lat.total_s() * 1e9) as u64, n);
    pool_layers(r, spanned.fetches, spanned.misses, spanned.evictions, n);
    no_commits(r);

    // B-tree probes on the same tree: a seek to each query's lower bound,
    // and seek + advance over its key range with no matcher.
    let view = fx.index.tree().view();
    let (mut seek_ns, mut walk_ns, mut walked) = (0u64, 0u64, 0u64);
    let probes = n.min(STREAM_LEN);
    for (i, q) in fx.stream.iter().take(probes).enumerate() {
        tracer.request = i as u64;
        let (lo, hi) = key_bounds(fx.id, q);
        let t = Instant::now();
        tracer.span("btree.seek", || view.seek(&lo).expect("seek"));
        seek_ns += t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        tracer.enter("btree.walk");
        let mut cur = view.seek(&lo).expect("seek");
        while let Some(e) = view.cursor_entry_ref(&mut cur).expect("walk") {
            if e.key() >= hi.as_slice() {
                break;
            }
            walked += 1;
            cur.advance();
        }
        tracer.exit();
        walk_ns += t.elapsed().as_nanos() as u64;
    }
    r.layer(
        "btree.seek_us",
        seek_ns as f64 / 1e3 / probes.max(1) as f64,
        "us",
    );
    r.layer(
        "btree.walk_ns_per_entry",
        walk_ns as f64 / walked.max(1) as f64,
        "ns",
    );

    // Pool probes: fetch leaves that are resident (hits) and, with the
    // pool full, leaves that are not (misses).
    let mut leaves = Vec::new();
    let mut cur = view.seek_first().expect("seek");
    while view.cursor_entry_ref(&mut cur).expect("walk").is_some() {
        if leaves.last() != Some(&cur.leaf_page()) {
            leaves.push(cur.leaf_page());
        }
        cur.advance();
    }
    fetch_probes(r, fx.index.tree().pool(), &leaves, &mut tracer, args.seed);

    telemetry_probes(r);
    tracer
        .write(
            &args
                .out
                .join(format!("trace-{}-{}.jsonl", args.workload, args.seed)),
        )
        .ok();
}
