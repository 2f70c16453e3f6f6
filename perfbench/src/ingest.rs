//! `ingest_mixed`: a `DiskDatabase` with `DiskOptions::default()` holding a
//! base vehicle population. One writer adds vehicles in fixed-size batches,
//! one `commit` per batch; one reader runs the UQL mix against snapshots
//! at the same time.
//!
//! The work is fixed: the run is a series of rounds, each starting from a
//! copy of the same base database and committing the same `ROUND_COMMITS`
//! batches. Every commit thus sees the same database size whatever the
//! speed of the program, and rounds repeat until the time is up.
//!
//! Correctness follows the concurrent-torture protocol, moved out of the
//! timed region: the writer logs the tree epoch after every call, the
//! reader logs `(epoch, statement, answer digest)`, and afterwards a
//! replay of the same mutations on an in-memory database answers every
//! logged read at its epoch (a seeded sample also by brute force). After
//! each round the database is closed and reopened, and every acknowledged
//! commit must be readable.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use objstore::{Oid, Value};
use pagestore::PageStore;
use schema::ClassId;
use uindex::{Database, DatabaseReader, DiskDatabase, DiskOptions, DiskStore, Query, ScanStats};
use workload::vehicle::{VehicleClasses, COLORS};

use crate::common::*;

const BASE_VEHICLES: usize = 2000;
/// Vehicles per commit.
const BATCH: usize = 10;
/// Commits made while building the base database, with no reader
/// running; their WAL and write counts are the run's deterministic counts.
const WARM_COMMITS: usize = 16;
/// Commits per round: one inline-checkpoint cycle of the default options.
const ROUND_COMMITS: usize = 64;
/// Reads also checked against the brute-force oracle.
const BRUTE_SAMPLE: usize = 24;
/// Set-ups per untraced run: each is cheap, and the median of many is
/// steady.
const SETUP_REPS: usize = 9;
const ATTRS: [&str; 2] = ["Color", "ManufacturedBy"];

/// One mutation call; `Color` and `Maker` apply to the vehicle created last.
#[derive(Clone, Copy, PartialEq)]
enum Op {
    Create(ClassId),
    Color(&'static str),
    Maker(Oid),
}

/// The seeded batch generator.
#[derive(Clone)]
struct Batches {
    rng: Rng,
    classes: [ClassId; 12],
    companies: Vec<Oid>,
}

impl Batches {
    fn new<P: PageStore>(db: &Database<P>, classes: &VehicleClasses, seed: u64) -> Batches {
        let mut companies = db.store().extent_deep(classes.company);
        companies.sort();
        Batches {
            rng: Rng::new(seed ^ 0x1A6E57),
            classes: classes.vehicle_classes(),
            companies,
        }
    }

    fn next(&mut self) -> Vec<Op> {
        let mut ops = Vec::with_capacity(BATCH * 3);
        for _ in 0..BATCH {
            let r = &mut self.rng;
            ops.push(Op::Create(self.classes[r.below(12) as usize]));
            ops.push(Op::Color(COLORS[r.below(COLORS.len() as u64) as usize]));
            let c = r.below(self.companies.len() as u64) as usize;
            ops.push(Op::Maker(self.companies[c]));
        }
        ops
    }
}

fn apply<P: PageStore>(db: &mut Database<P>, op: Op, last: &mut Oid) -> uindex::Result<()> {
    match op {
        Op::Create(class) => *last = db.create_object(class)?,
        Op::Color(c) => {
            db.set_attr(*last, "Color", Value::Str(c.into()))?;
        }
        Op::Maker(m) => {
            db.set_attr(*last, "ManufacturedBy", Value::Ref(m))?;
        }
    }
    Ok(())
}

/// Everything the writer did, for the replay.
#[derive(Default, Clone)]
struct WriteLog {
    ops: Vec<Op>,
    /// `(tree epoch, ops applied)` after every call.
    epochs: Vec<(u64, usize)>,
    created: Vec<Oid>,
}

/// The writer's database, its batch generator and its log.
struct Writer {
    db: DiskDatabase,
    batches: Batches,
    log: WriteLog,
}

impl Writer {
    fn epoch(&self) -> u64 {
        self.db.index().tree().epoch()
    }

    /// Apply and commit one batch, logging every call.
    fn commit_batch(&mut self, tracer: &mut Tracer) -> uindex::Result<()> {
        let mut last = Oid(0);
        for (i, op) in self.batches.next().into_iter().enumerate() {
            if i % 3 == 0 {
                tracer.enter("uindex.mutate");
            }
            apply(&mut self.db, op, &mut last)?;
            if i % 3 == 2 {
                tracer.exit();
            }
            if let Op::Create(_) = op {
                self.log.created.push(last);
            }
            self.log.ops.push(op);
            let e = self.epoch();
            self.log.epochs.push((e, self.log.ops.len()));
        }
        tracer.span("uindex.commit", || self.db.commit())?;
        let e = self.epoch();
        self.log.epochs.push((e, self.log.ops.len()));
        Ok(())
    }
}

/// The closed base database every round starts from.
struct Base {
    /// Counts from the warm-up commits.
    det: Vec<(String, u64)>,
    /// The warm-up writes, already in the base database.
    warm: WriteLog,
    /// The batch generator as the warm-up left it.
    batches: Batches,
    statements: Vec<&'static str>,
    tree_pages: usize,
    options: DiskOptions,
}

fn setup(seed: u64, dir: &Path) -> Base {
    std::fs::remove_dir_all(dir).ok();
    let (schema, classes) = workload::serve::schema();
    let mut db = DiskDatabase::create(schema, dir, DiskOptions::default()).expect("create");
    workload::serve::populate(&mut db, &classes, VEHICLE_DB_SEED, BASE_VEHICLES).expect("populate");
    db.commit().expect("commit");
    let batches = Batches::new(&db, &classes, seed);
    let mut w = Writer {
        db,
        batches,
        log: WriteLog::default(),
    };
    let appends0 = telemetry::counter_value("pagestore.wal.appends");
    let fsyncs0 = telemetry::counter_value("pagestore.wal.fsyncs");
    let splits0 = telemetry::counter_value("btree.splits");
    let wchar0 = wchar();
    let mut off = Tracer::new(false, Instant::now(), 0);
    for _ in 0..WARM_COMMITS {
        w.commit_batch(&mut off).expect("warm-up commit");
    }
    let wrote = wchar() - wchar0;
    let det = vec![
        (
            "wal_appends".into(),
            telemetry::counter_value("pagestore.wal.appends") - appends0,
        ),
        (
            "wal_fsyncs".into(),
            telemetry::counter_value("pagestore.wal.fsyncs") - fsyncs0,
        ),
        (
            "btree_splits".into(),
            telemetry::counter_value("btree.splits") - splits0,
        ),
        ("wchar_bytes".into(), wrote),
    ];
    let tree_pages = w.db.index().tree().pool().live_pages();
    let options = *w.db.options();
    w.db.close().expect("close base");
    w.log.epochs.clear();
    Base {
        det,
        warm: w.log,
        batches: w.batches,
        statements: workload::serve::uql_families(),
        tree_pages,
        options,
    }
}

/// Copy the closed base database into a fresh `work` directory, open it,
/// and warm its pool with one pass of the statements.
fn open_round(
    base: &Base,
    base_dir: &Path,
    work: &Path,
) -> (Writer, DatabaseReader<DiskStore>, Vec<Query>) {
    std::fs::remove_dir_all(work).ok();
    std::fs::create_dir_all(work).expect("round directory");
    for entry in std::fs::read_dir(base_dir)
        .expect("base directory")
        .flatten()
    {
        if entry.metadata().is_ok_and(|m| m.is_file()) {
            std::fs::copy(entry.path(), work.join(entry.file_name())).expect("copy base");
        }
    }
    let (mut db, report) = DiskDatabase::open(work).expect("open round");
    assert!(report.clean(), "base reopen was not clean: {report:?}");
    let reader = db.reader();
    let queries: Vec<Query> = base
        .statements
        .iter()
        .map(|s| reader.parse_uql(s).expect("parse"))
        .collect();
    for q in &queries {
        reader.query(q).expect("warm-up read");
    }
    let mut w = Writer {
        db,
        batches: base.batches.clone(),
        log: base.warm.clone(),
    };
    let e = w.epoch();
    w.log.epochs.push((e, w.log.ops.len()));
    (w, reader, queries)
}

/// One reader's log entry: the snapshot epoch, the statement, the answer.
struct Read {
    epoch: u64,
    stmt: usize,
    digest: u64,
}

#[derive(Default)]
struct ReaderOut {
    lat: Samples,
    reads: Vec<Read>,
    acc: ScanStats,
    query_ns: u64,
    errors: Vec<String>,
}

fn reader_loop(
    reader: &DatabaseReader<DiskStore>,
    queries: &[Query],
    seed: u64,
    stop: &AtomicBool,
    mut tracer: Tracer,
) -> (ReaderOut, Tracer) {
    let mut rng = Rng::new(seed);
    let mut out = ReaderOut::default();
    while !stop.load(Ordering::Acquire) {
        let stmt = rng.below(queries.len() as u64) as usize;
        tracer.request = out.reads.len() as u64;
        let t = Instant::now();
        let snap = reader.snapshot();
        let res = tracer.span("uindex.query", || reader.query_at(&snap, &queries[stmt]));
        let d = t.elapsed();
        out.lat.push(d);
        match res {
            Ok((hits, stats)) => {
                out.query_ns += d.as_nanos() as u64;
                add_stats(&mut out.acc, &stats);
                out.reads.push(Read {
                    epoch: snap.epoch(),
                    stmt,
                    digest: digest_hits(&hits),
                });
            }
            Err(e) => out.errors.push(format!("read: {e}")),
        }
    }
    (out, tracer)
}

/// What the rounds measured, summed over all of them.
#[derive(Default)]
struct Phase {
    rounds: usize,
    commit_lat: Samples,
    read_lat: Samples,
    /// Every read, with the writer calls applied at its snapshot epoch.
    /// Reads attempted.
    read_count: usize,
    /// Every distinct `(writer calls applied, statement)` a read saw, with
    /// its answer digest and snapshot epoch. Repeats fold into one entry,
    /// so memory stays bounded however many reads a run makes.
    reads: HashMap<(usize, usize), (u64, u64)>,
    read_errors: Vec<String>,
    acc: ScanStats,
    query_ns: u64,
    /// Writer and reader spans (traced runs only).
    tracer: Tracer,
    /// In a traced run, the latencies of the commits made inside spans
    /// and of those made without, interleaved one for one.
    spanned: Samples,
    plain: Samples,
    wrote: u64,
    encode: Samples,
    snapshot_bytes: u64,
    counters: [u64; 3],
}

/// One round's timed part: `ROUND_COMMITS` commits by the writer in this
/// thread, the reader beside it. In a traced run every other commit runs
/// inside spans, so the tracing overhead compares interleaved commits.
fn timed_round(
    w: &mut Writer,
    reader: &DatabaseReader<DiskStore>,
    queries: &[Query],
    seed: u64,
    traced: bool,
    origin: Instant,
    p: &mut Phase,
) {
    let stop = AtomicBool::new(false);
    let counters = || {
        [
            telemetry::counter_value("pagestore.wal.fsyncs"),
            telemetry::counter_value("pagestore.wal.appends"),
            telemetry::counter_value("btree.splits"),
        ]
    };
    let (out, reader_spans) = std::thread::scope(|s| {
        let rt = Tracer::new(traced, origin, 1);
        let reader_seed = seed ^ 0x4EAD ^ ((p.rounds as u64) << 32);
        let stop = &stop;
        let handle = s.spawn(move || reader_loop(reader, queries, reader_seed, stop, rt));
        let mut off = Tracer::new(false, origin, 0);
        let c0 = counters();
        let wchar0 = wchar();
        for _ in 0..ROUND_COMMITS {
            let commits = p.commit_lat.len() as u64;
            let in_span = traced && !commits.is_multiple_of(2);
            p.tracer.request = commits;
            let t = Instant::now();
            w.commit_batch(if in_span { &mut p.tracer } else { &mut off })
                .expect("commit");
            let d = t.elapsed();
            p.commit_lat.push(d);
            if !in_span {
                p.plain.push(d);
                continue;
            }
            p.spanned.push(d);
            // The object snapshot a commit writes, encoded again: untimed.
            let t = Instant::now();
            let bytes = p.tracer.span("objstore.encode", || w.db.store().to_bytes());
            p.encode.push(t.elapsed());
            p.snapshot_bytes += bytes.len() as u64;
        }
        p.wrote += wchar() - wchar0;
        let c1 = counters();
        for (total, (a, b)) in p.counters.iter_mut().zip(c0.iter().zip(c1)) {
            *total += b - a;
        }
        stop.store(true, Ordering::Release);
        handle.join().expect("reader thread")
    });
    p.tracer.absorb(reader_spans);
    p.rounds += 1;
    p.read_lat.extend(out.lat);
    add_stats(&mut p.acc, &out.acc);
    p.query_ns += out.query_ns;
    p.read_count += out.reads.len() + out.errors.len();
    p.read_errors.extend(out.errors);
    // Each read's snapshot epoch names the writer calls it must see.
    let ops_at: BTreeMap<u64, usize> = w.log.epochs.iter().copied().collect();
    for read in out.reads {
        let Some(&n) = ops_at.get(&read.epoch) else {
            p.read_errors.push(format!(
                "read at epoch {} matches no writer call",
                read.epoch
            ));
            continue;
        };
        let (digest, _) = *p
            .reads
            .entry((n, read.stmt))
            .or_insert((read.digest, read.epoch));
        if digest != read.digest {
            p.read_errors.push(format!(
                "two reads of statement {} after {n} writer calls differ",
                read.stmt
            ));
        }
    }
}

/// What a round's database held after it was closed and reopened.
#[derive(PartialEq)]
struct Durable {
    attrs: Vec<Option<Value>>,
    answers: Vec<u64>,
}

fn durable<P: PageStore>(db: &Database<P>, created: &[Oid], statements: &[&str]) -> Durable {
    Durable {
        attrs: created
            .iter()
            .flat_map(|oid| ATTRS.map(|a| db.store().attr(*oid, a).ok().flatten().cloned()))
            .collect(),
        answers: statements
            .iter()
            .map(|s| digest_hits(&db.query_uql(s).expect("query").0))
            .collect(),
    }
}

pub fn run(args: &Args) -> Report {
    let mut r = Report::default();
    let base_dir = args.scratch("base");
    let work = args.scratch("db");
    let mut base = timed_setups(&mut r, args, SETUP_REPS, || setup(args.seed, &base_dir));
    r.det = std::mem::take(&mut base.det);
    let vehicles0 = BASE_VEHICLES + WARM_COMMITS * BATCH;
    r.info(
        "geometry",
        format!(
            "{{\"base_vehicles\": {BASE_VEHICLES}, \"batch_objects\": {BATCH}, \
             \"round_commits\": {ROUND_COMMITS}, \"vehicles_per_round\": [{vehicles0}, {}], \
             \"tree_pages\": {}, \"pool_pages\": {}, \"writers\": 1, \"readers\": 1, \
             \"flush_policy\": \"WAL fsync every {} commits; objects.udb rewritten and fsynced \
             on every commit; inline checkpoint every {} commits\"}}",
            vehicles0 + ROUND_COMMITS * BATCH,
            base.tree_pages,
            base.options.pool_pages,
            base.options.group_commit,
            base.options.checkpoint_every,
        ),
    );

    let origin = Instant::now();
    let mut p = Phase {
        tracer: Tracer::new(args.trace, origin, 0),
        ..Phase::default()
    };
    let mut first: Option<(WriteLog, Durable)> = None;
    let mut disk_bytes_per_object = 0.0;
    while p.rounds == 0 || origin.elapsed() < Duration::from_secs(args.seconds) {
        let (mut w, reader, queries) = open_round(&base, &base_dir, &work);
        timed_round(
            &mut w, &reader, &queries, args.seed, args.trace, origin, &mut p,
        );
        if args.trace && origin.elapsed() >= Duration::from_secs(args.seconds) {
            traced_layers(args, &mut r, &w.db, &reader, &queries, &p);
        }
        drop(reader);
        // Durability: close, reopen, read every acknowledged commit back.
        let Writer { db, log, .. } = w;
        db.close().expect("close");
        let (db, report) = DiskDatabase::open(&work).expect("reopen");
        if report.rebuilt {
            r.fail("reopen had to rebuild the index".into());
        }
        let found = durable(&db, &log.created, &base.statements);
        disk_bytes_per_object = dir_bytes(&work) as f64 / db.store().len().max(1) as f64;
        drop(db);
        match &first {
            None => first = Some((log, found)),
            Some((log0, found0)) => {
                if log.ops != log0.ops || log.created != log0.created {
                    r.fail("a round's writes differ from the first round's".into());
                }
                if found != *found0 {
                    r.fail("a round's database differs from the first round's after reopen".into());
                }
            }
        }
    }
    let (log, found) = first.expect("at least one round");

    if args.trace {
        let (on, off) = (p.spanned.mean_ns(), p.plain.mean_ns());
        r.layer("bench.trace_overhead_pct", 100.0 * (on - off) / off, "%");
    }
    // Each round's commits are one window: a burst of host load then moves
    // only the rounds it covers.
    let per_round = Estimate::Median(ROUND_COMMITS);
    r.e2e(
        "ops_per_s",
        p.commit_lat.rate_by(per_round) * BATCH as f64,
        "1/s",
    );
    r.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
    r.latency("latency", &p.commit_lat, per_round);
    r.latency("read", &p.read_lat, Estimate::Whole);
    r.e2e(
        "write_bytes_per_object",
        p.wrote as f64 / (p.commit_lat.len() * BATCH).max(1) as f64,
        "B",
    );
    r.e2e("disk_bytes_per_object", disk_bytes_per_object, "B");
    check(&mut r, &base, &log, &found, p, args.seed);
    std::fs::remove_dir_all(&work).ok();
    std::fs::remove_dir_all(&base_dir).ok();
    r
}

fn traced_layers(
    args: &Args,
    r: &mut Report,
    db: &DiskDatabase,
    reader: &DatabaseReader<DiskStore>,
    queries: &[Query],
    p: &Phase,
) {
    let commits = p.commit_lat.len().max(1) as f64;
    let tracer = &p.tracer;
    r.self_times(tracer, p.spanned.len() as u64);
    let [fsyncs, appends, splits] = p.counters;
    r.layer(
        "pagestore.wal.fsyncs_per_commit",
        fsyncs as f64 / commits,
        "count",
    );
    r.layer(
        "pagestore.wal.appends_per_commit",
        appends as f64 / commits,
        "count",
    );
    r.layer(
        "pagestore.write_bytes_per_commit",
        p.wrote as f64 / commits,
        "B",
    );
    r.layer("btree.splits_per_commit", splits as f64 / commits, "count");
    let (n, total, _) = tracer
        .by_name()
        .get("uindex.mutate")
        .copied()
        .unwrap_or_default();
    r.layer(
        "uindex.mutate_us_per_object",
        total as f64 / 1e3 / n.max(1) as f64,
        "us",
    );
    r.layer(
        "uindex.commit_ms",
        tracer.mean_ns("uindex.commit") / 1e6,
        "ms",
    );
    r.layer("objstore.encode_ms", p.encode.mean_ns() / 1e6, "ms");
    r.layer(
        "objstore.snapshot_bytes",
        p.snapshot_bytes as f64 / p.encode.len().max(1) as f64,
        "B",
    );
    query_layers(r, &p.acc, p.query_ns, p.read_count);

    // Pool numbers from a query-only pass over the last round's final state.
    let pool = db.index().tree().pool();
    let p0 = pool.stats();
    let ev0 = telemetry::counter_value("pagestore.pool.evictions");
    let rounds = 10;
    for _ in 0..rounds {
        for q in queries {
            reader.query(q).expect("probe query");
        }
    }
    let ev = telemetry::counter_value("pagestore.pool.evictions") - ev0;
    let p1 = pool.stats();
    pool_layers(
        r,
        p1.logical_fetches - p0.logical_fetches,
        p1.physical_reads - p0.physical_reads,
        ev,
        rounds * queries.len(),
    );
    let mut tracer = Tracer::new(true, Instant::now(), 0);
    let resident: Vec<pagestore::PageId> = (1..=pool.live_pages() as u32)
        .map(pagestore::PageId)
        .filter(|id| pool.peek(*id).is_some())
        .collect();
    fetch_probes(r, pool, &resident, &mut tracer, args.seed);
    telemetry_probes(r);
    p.tracer
        .write(
            &args
                .out
                .join(format!("trace-{}-{}.jsonl", args.workload, args.seed)),
        )
        .ok();
}

/// The correctness gate, after the timed rounds: every logged read of
/// every round against one replay of the writer's calls at its epoch (all
/// rounds make the same calls), then the reopened state of the rounds
/// against the replay's final state.
fn check(r: &mut Report, base: &Base, log: &WriteLog, found: &Durable, p: Phase, seed: u64) {
    for e in &p.read_errors {
        r.fail(e.clone());
    }
    r.attempted += (p.read_count + p.commit_lat.len()) as u64;
    let mut reads: Vec<_> = p.reads.into_iter().collect();
    reads.sort_unstable();

    let mut replay = Replay::new();
    let mut rng = Rng::new(seed ^ 0xB2_07E);
    let brute: std::collections::HashSet<usize> = (0..BRUTE_SAMPLE.min(reads.len()))
        .map(|_| rng.below(reads.len() as u64) as usize)
        .collect();
    for (i, &((n, stmt), (digest, epoch))) in reads.iter().enumerate() {
        replay.advance(&log.ops[..n]);
        let text = base.statements[stmt];
        let want = digest_hits(&replay.db.query_uql(text).expect("replay query").0);
        if digest != want {
            r.fail(format!(
                "read of `{text}` at epoch {epoch} differs from the replay"
            ));
        }
        if brute.contains(&i) && oracle_digest(&replay.db, text) != want {
            r.fail(format!(
                "replay of `{text}` differs from the brute-force oracle"
            ));
        }
    }
    replay.advance(&log.ops);
    if replay.created != log.created {
        r.fail("the replay created different objects than the writer".into());
    }
    let want = durable(&replay.db, &log.created, &base.statements);
    if want.attrs != found.attrs {
        r.fail("committed objects differ from the replay after reopen".into());
    }
    if want.answers != found.answers {
        r.fail("answers differ from the replay after reopen".into());
    }
    r.info(
        "gate",
        format!(
            "{{\"rounds\": {}, \"reads_checked\": {}, \"distinct_reads\": {}, \
             \"brute_checked\": {}, \"commits\": {}, \"objects_reread_per_round\": {}}}",
            p.rounds,
            p.read_count,
            reads.len(),
            brute.len(),
            p.commit_lat.len(),
            log.created.len()
        ),
    );
}

/// The writer's calls applied again to an in-memory copy of the base
/// population.
struct Replay {
    db: Database,
    applied: usize,
    last: Oid,
    created: Vec<Oid>,
}

impl Replay {
    fn new() -> Replay {
        let (schema, classes) = workload::serve::schema();
        let mut db = Database::with_page_size(schema, 1024, 1 << 14).expect("replay database");
        workload::serve::populate(&mut db, &classes, VEHICLE_DB_SEED, BASE_VEHICLES)
            .expect("populate");
        Replay {
            db,
            applied: 0,
            last: Oid(0),
            created: Vec::new(),
        }
    }

    /// Apply the calls of `ops` not applied yet.
    fn advance(&mut self, ops: &[Op]) {
        for &op in ops.iter().skip(self.applied) {
            apply(&mut self.db, op, &mut self.last).expect("replay");
            if let Op::Create(_) = op {
                self.created.push(self.last);
            }
        }
        self.applied = self.applied.max(ops.len());
    }
}

/// Digest of the brute-force answer: every entry derived from the object
/// store, filtered by the query.
fn oracle_digest<P: PageStore>(db: &Database<P>, text: &str) -> u64 {
    let q = uindex::uql::parse(db.index(), db.store().schema(), text).expect("parse");
    let mut hits = uindex::oracle::eval(db.index(), db.store(), &q).expect("oracle");
    if let Some(pos) = q.distinct_upto {
        hits = uindex::oracle::distinct_filter(&hits, pos);
    }
    digest_hits(&hits)
}
