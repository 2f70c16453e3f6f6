//! `serve_mixed`: the vehicle serve database on the reopened disk tier,
//! behind an in-process `serve::Server` over real TCP, driven by two
//! connections with the twelve UQL families, half prepared and half
//! direct. Phase 1 is an open loop at a fixed offered rate; phase 2 is a
//! closed loop that measures capacity. The two take turns in slices of
//! `SLICE_S` seconds.

use std::path::Path;
use std::time::{Duration, Instant};

use serve::{Client, ServeOptions, Server, WireRow};
use uindex::{DatabaseReader, DiskDatabase, DiskOptions, DiskStore, ScanStats};

use crate::common::*;

const VEHICLES: usize = 2000;
const WORKERS: usize = 2;
const CONNS: usize = 2;
/// Phase-1 offered load in requests per second: about a third of the
/// phase-2 capacity (median 2,150 replies/s over ten runs on a 2-CPU
/// host). Half of it left no headroom: in the host's slow states the
/// capacity fell to 1,500/s, and at 1,100/s the phase-1 p90 rose to 54 ms
/// as the queue built, so the latency measured the host, not the server.
const OPEN_RATE: f64 = 700.0;
/// Which CPU the server's threads and the client's threads run on, when
/// the process may use two or more: each side on a CPU of its own, as if
/// on two machines. Left to the scheduler, the two load threads and the
/// two workers were placed anew in every run, and a reply that wakes a
/// thread on the same CPU costs less than one that crosses to the other,
/// so the placement moved the figures from run to run.
#[derive(Clone, Copy)]
struct Placement {
    server: usize,
    client: usize,
}

impl Placement {
    fn new(cpus: &[usize]) -> Option<Placement> {
        match cpus {
            [server, client, ..] => Some(Placement {
                server: *server,
                client: *client,
            }),
            _ => None,
        }
    }
}

/// Pin the calling thread to `cpu` of `placement`, if there is one.
fn pin(placement: Option<Placement>, cpu: fn(Placement) -> usize) {
    if let Some(p) = placement {
        pin_thread(cpu(p));
    }
}

/// Length of one slice of either phase, in seconds; a run alternates
/// them, phase 1 first.
const SLICE_S: u64 = 2;
/// Requests replayed in process, one at a time, in the traced run.
const PROBES: usize = 300;
/// Set-ups per untraced run: each is cheap, and the median of many is
/// steady.
const SETUP_REPS: usize = 9;

/// The statement mix and the in-process oracle: each family's rows, as
/// the wire carries them.
struct Oracle {
    statements: Vec<&'static str>,
    expected: Vec<Vec<WireRow>>,
}

/// One connection and its prepared-statement ids, one per family.
struct Conn {
    client: Client,
    prepared: Vec<u64>,
}

impl Conn {
    /// Send one request and check the reply against the oracle.
    fn request(
        &mut self,
        r: &mut Report,
        oracle: &Oracle,
        (stmt, prepared): (usize, bool),
    ) -> bool {
        let reply = if prepared {
            self.client.execute(self.prepared[stmt])
        } else {
            self.client.query(oracle.statements[stmt])
        };
        r.attempted += 1;
        match reply {
            Ok(reply) if reply.rows == oracle.expected[stmt] => true,
            Ok(_) => {
                r.fail(format!(
                    "reply to `{}` differs from the oracle",
                    oracle.statements[stmt]
                ));
                false
            }
            Err(e) => {
                r.fail(format!("`{}`: {e}", oracle.statements[stmt]));
                false
            }
        }
    }
}

struct Fixture {
    conns: Vec<Conn>,
    server: Option<Server>,
    reader: DatabaseReader<DiskStore>,
    db: DiskDatabase,
    oracle: Oracle,
}

/// A dropped server leaks its threads, and through its readers the
/// database's pool; each set-up's server stops before the next starts.
impl Drop for Fixture {
    fn drop(&mut self) {
        self.conns.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

fn setup(dir: &Path, placement: Option<Placement>) -> Fixture {
    std::fs::remove_dir_all(dir).ok();
    let (schema, classes) = workload::serve::schema();
    let options = DiskOptions {
        pool_pages: 1 << 14,
        ..DiskOptions::default()
    };
    let mut db = DiskDatabase::create(schema, dir, options).expect("create database");
    workload::serve::populate(&mut db, &classes, VEHICLE_DB_SEED, VEHICLES).expect("populate");
    db.commit().expect("commit");
    db.close().expect("close");
    let (mut db, report) = DiskDatabase::open(dir).expect("reopen database");
    assert!(report.clean(), "reopen was not clean: {report:?}");
    let reader = db.reader();
    let statements = workload::serve::uql_families();
    let expected = statements
        .iter()
        .map(|s| {
            let q = reader.parse_uql(s).expect("oracle parse");
            wire_rows(&reader.query(&q).expect("oracle query").0)
        })
        .collect();
    let oracle = Oracle {
        statements,
        expected,
    };
    // The server's threads start from this thread and keep its CPU.
    pin(placement, |p| p.server);
    let server = Server::start(
        reader.clone(),
        ServeOptions {
            workers: WORKERS,
            ..ServeOptions::default()
        },
    )
    .expect("start server");
    pin(placement, |p| p.client);
    let mut conns = Vec::new();
    for _ in 0..CONNS {
        let mut client = Client::connect(server.local_addr()).expect("connect");
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let prepared = oracle
            .statements
            .iter()
            .map(|s| client.prepare(s).expect("prepare"))
            .collect();
        conns.push(Conn { client, prepared });
    }
    // Warm-up: every family once prepared and once direct per connection.
    let mut warm = Report::default();
    for conn in &mut conns {
        for stmt in 0..oracle.statements.len() {
            for prepared in [true, false] {
                conn.request(&mut warm, &oracle, (stmt, prepared));
            }
        }
    }
    assert_eq!(warm.failed, 0, "warm-up failed: {:?}", warm.errors);
    Fixture {
        conns,
        server: Some(server),
        reader,
        db,
        oracle,
    }
}

/// The seeded request mix of one connection: a family, and whether to
/// send it prepared.
fn next_request(rng: &mut Rng, families: usize) -> (usize, bool) {
    (rng.below(families as u64) as usize, rng.below(2) == 0)
}

#[derive(Default)]
struct ConnOut {
    report: Report,
    /// Latency of each answered request.
    lat: Samples,
    late: Samples,
}

/// One slice of phase 1: request `k` is due at `t0 + k / OPEN_RATE` and
/// goes out on connection `k % CONNS`; latency runs from the due time, so
/// a stall delays every request queued behind it.
fn open_loop(fx: &mut Fixture, seed: u64, slice: u64) -> Vec<ConnOut> {
    let total = (OPEN_RATE * SLICE_S as f64) as usize;
    let t0 = Instant::now() + Duration::from_millis(20);
    let oracle = &fx.oracle;
    std::thread::scope(|s| {
        let handles: Vec<_> = fx
            .conns
            .iter_mut()
            .enumerate()
            .map(|(j, conn)| {
                s.spawn(move || {
                    let mut rng = Rng::new(seed ^ (0x0BE7 + j as u64) ^ (slice << 32));
                    let mut out = ConnOut::default();
                    for k in (j..total).step_by(CONNS) {
                        let due = t0 + Duration::from_secs_f64(k as f64 / OPEN_RATE);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        out.late.push(Instant::now().saturating_duration_since(due));
                        let req = next_request(&mut rng, oracle.statements.len());
                        if conn.request(&mut out.report, oracle, req) {
                            out.lat.push(due.elapsed());
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect()
    })
}

/// One slice of phase 2: every connection sends its next request as soon
/// as the last reply arrives, for `SLICE_S` seconds.
fn closed_loop(fx: &mut Fixture, seed: u64, slice: u64) -> Vec<ConnOut> {
    let span = Duration::from_secs(SLICE_S);
    let oracle = &fx.oracle;
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = fx
            .conns
            .iter_mut()
            .enumerate()
            .map(|(j, conn)| {
                s.spawn(move || {
                    let mut rng = Rng::new(seed ^ (0xC105 + j as u64) ^ (slice << 32));
                    let mut out = ConnOut::default();
                    while t0.elapsed() < span {
                        let req = next_request(&mut rng, oracle.statements.len());
                        let t = Instant::now();
                        if conn.request(&mut out.report, oracle, req) {
                            out.lat.push(t.elapsed());
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect()
    })
}

/// Fold per-connection results into `r`. Returns the latencies, in the
/// order the requests were due (connection `j` sent requests `j`,
/// `j + CONNS`, ...), and the lateness samples.
fn merge(r: &mut Report, outs: Vec<ConnOut>) -> (Samples, Samples) {
    let (mut lat, mut late) = (Vec::new(), Samples::default());
    for o in outs {
        r.merge_counts(o.report);
        lat.push(o.lat);
        late.extend(o.late);
    }
    (Samples::interleave(lat), late)
}

pub fn run(args: &Args) -> Report {
    let mut r = Report::default();
    let dir = args.scratch("db");
    let cpus = allowed_cpus();
    let placement = Placement::new(&cpus);
    // This thread drives the traced run's requests, and the load threads
    // start from it.
    pin(placement, |p| p.client);
    let mut fx = timed_setups(&mut r, args, SETUP_REPS, || setup(&dir, placement));
    r.info(
        "geometry",
        format!(
            "{{\"vehicles\": {VEHICLES}, \"objects\": {}, \"tree_pages\": {}, \"pool_pages\": {}, \
             \"families\": {}, \"connections\": {CONNS}, \"server_workers\": {WORKERS}, \
             \"open_rate_per_s\": {OPEN_RATE}, \"mix\": \"half prepared, half direct\", \
             \"server_cpu\": {}, \"client_cpu\": {}}}",
            fx.db.store().len(),
            fx.db.index().tree().pool().live_pages(),
            fx.db.options().pool_pages,
            fx.oracle.statements.len(),
            placement.map_or("null".into(), |p| p.server.to_string()),
            placement.map_or("null".into(), |p| p.client.to_string()),
        ),
    );
    let awake = KeepAwake::start(&cpus);
    if args.trace {
        traced(args, &mut r, &mut fx);
    } else {
        // The phases take turns in slices, so each is spread over the
        // whole run: the host's speed drifts over seconds (README, Host
        // noise), and a phase held in one half of the run would meet
        // fewer of its states. Capacity is the median over the slices.
        let (mut lat, mut late, mut closed_lat) =
            (Samples::default(), Samples::default(), Samples::default());
        let mut rates = Vec::new();
        for slice in 0..(args.seconds / (2 * SLICE_S)).max(1) {
            let (l, lt) = merge(&mut r, open_loop(&mut fx, args.seed, slice));
            lat.extend(l);
            late.extend(lt);
            let t = Instant::now();
            let (l, _) = merge(&mut r, closed_loop(&mut fx, args.seed, slice));
            rates.push(l.len() as f64 / t.elapsed().as_secs_f64());
            closed_lat.extend(l);
        }
        let ok = closed_lat.len();
        r.e2e("ops_per_s", median(rates), "1/s");
        r.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
        // One window per second of due time: a burst of host load moves
        // only the seconds it covers.
        r.latency("latency", &lat, Estimate::Median(OPEN_RATE as usize));
        r.layer("bench.late_p99_ms", late.pct_ms(0.99), "ms");
        r.info(
            "closed_loop",
            format!(
                "{{\"replies\": {ok}, \"p50_ms\": {}, \"p99_ms\": {}}}",
                closed_lat.pct_ms(0.5),
                closed_lat.pct_ms(0.99)
            ),
        );
    }
    drop(awake);
    finish(&mut r, fx);
    std::fs::remove_dir_all(&dir).ok();
    r
}

/// Stop the server and check its lifetime counters: nothing shed, and a
/// read-only workload never fsyncs the WAL.
fn finish(r: &mut Report, mut fx: Fixture) {
    fx.conns.clear();
    let report = fx.server.take().expect("server running").shutdown();
    let s = &report.stats;
    if s.shed > 0 {
        r.fail(format!("{} requests shed", s.shed));
    }
    let fsyncs = report
        .metrics
        .counters
        .get("pagestore.wal.fsyncs")
        .copied()
        .unwrap_or(0);
    if fsyncs > 0 {
        r.fail(format!("serving issued {fsyncs} WAL fsyncs"));
    }
    r.info(
        "server",
        format!(
            "{{\"requests\": {}, \"queries\": {}, \"shed\": {}, \"rows_sent\": {}, \
             \"plan_cache_hits\": {}, \"plan_cache_misses\": {}}}",
            s.requests, s.queries, s.shed, s.rows_sent, s.plan_cache_hits, s.plan_cache_misses
        ),
    );
}

/// The traced run: one connection, one request at a time (unloaded), first
/// untraced and then traced over the same requests; then each of a sample
/// of requests is replayed in process to split the round trip into engine
/// work and residue.
fn traced(args: &Args, r: &mut Report, fx: &mut Fixture) {
    let origin = Instant::now();
    let mut tracer = Tracer::new(true, origin, 0);
    let families = fx.oracle.statements.len();
    let stats0 = fx.server.as_ref().expect("server").stats();
    // Each request is sent twice back to back, once inside a span and once
    // not, alternating which goes first; the difference is the overhead.
    let mut rng = Rng::new(args.seed ^ 0x5E9);
    let (mut plain, mut spanned) = (Samples::default(), Samples::default());
    let t0 = Instant::now();
    let mut n = 0usize;
    while t0.elapsed() < args.half() {
        let req = next_request(&mut rng, families);
        tracer.request = n as u64;
        for traced in [!n.is_multiple_of(2), n.is_multiple_of(2)] {
            let t = Instant::now();
            if traced {
                tracer.enter("serve.request");
            }
            fx.conns[0].request(r, &fx.oracle, req);
            if traced {
                tracer.exit();
                spanned.push(t.elapsed());
            } else {
                plain.push(t.elapsed());
            }
        }
        n += 1;
    }
    r.layer(
        "bench.trace_overhead_pct",
        100.0 * (spanned.total_s() - plain.total_s()) / plain.total_s(),
        "%",
    );
    r.self_times(&tracer, n as u64);
    let stats1 = fx.server.as_ref().expect("server").stats();

    // Probe pass: ping, the request over the wire, and the engine's share
    // of it replayed in process (parse for direct requests, query, row
    // encoding), all on an otherwise idle server.
    let pool = fx.db.index().tree().pool();
    let pool0 = pool.stats();
    let ev0 = telemetry::counter_value("pagestore.pool.evictions");
    let mut rng = Rng::new(args.seed ^ 0x9B0BE);
    let mut acc = ScanStats::default();
    let (mut query_ns, mut parse_ns) = (0u64, 0u64);
    let mut engine = Samples::default();
    let mut wire = Samples::default();
    for i in 0..PROBES {
        tracer.request = (n + i) as u64;
        let (stmt, prepared) = next_request(&mut rng, families);
        tracer
            .span("serve.ping", || fx.conns[0].client.ping())
            .unwrap_or_else(|e| r.fail(format!("ping: {e}")));
        let t = Instant::now();
        tracer.enter("serve.request");
        fx.conns[0].request(r, &fx.oracle, (stmt, prepared));
        tracer.exit();
        wire.push(t.elapsed());

        let text = fx.oracle.statements[stmt];
        let t = Instant::now();
        tracer.enter("serve.engine");
        let tp = Instant::now();
        let q = tracer
            .span("uindex.parse", || fx.reader.parse_uql(text))
            .expect("parse");
        let p_ns = tp.elapsed().as_nanos() as u64;
        let tq = Instant::now();
        let (hits, stats) = tracer
            .span("uindex.query", || fx.reader.query(&q))
            .expect("query");
        query_ns += tq.elapsed().as_nanos() as u64;
        let rows = tracer.span("serve.encode", || wire_rows(&hits));
        tracer.exit();
        // A prepared request skips the parse on the server; so does the
        // engine share attributed to it.
        let mut e = t.elapsed();
        if prepared {
            e -= Duration::from_nanos(p_ns);
        }
        parse_ns += p_ns;
        engine.push(e);
        add_stats(&mut acc, &stats);
        if rows != fx.oracle.expected[stmt] {
            r.fail(format!(
                "in-process replay of `{text}` differs from the oracle"
            ));
        }
    }
    let pool1 = pool.stats();
    let evictions = telemetry::counter_value("pagestore.pool.evictions") - ev0;
    let ping_us = tracer.mean_ns("serve.ping") / 1e3;
    r.layer("serve.ping_us", ping_us, "us");
    r.layer("serve.engine_us", engine.mean_ns() / 1e3, "us");
    r.layer(
        "serve.residue_us",
        (wire.mean_ns() - engine.mean_ns()) / 1e3,
        "us",
    );
    r.layer(
        "uindex.parse_us",
        parse_ns as f64 / 1e3 / PROBES as f64,
        "us",
    );
    query_layers(r, &acc, query_ns, PROBES);
    pool_layers(
        r,
        pool1.logical_fetches - pool0.logical_fetches,
        pool1.physical_reads - pool0.physical_reads,
        evictions,
        PROBES,
    );
    no_commits(r);

    let queries = stats1.queries - stats0.queries;
    let cache = (stats1.plan_cache_hits - stats0.plan_cache_hits) as f64;
    let lookups = cache + (stats1.plan_cache_misses - stats0.plan_cache_misses) as f64;
    r.layer(
        "serve.plan_cache_hit_ratio",
        cache / lookups.max(1.0),
        "ratio",
    );
    r.layer(
        "serve.rows_per_query",
        (stats1.rows_sent - stats0.rows_sent) as f64 / queries.max(1) as f64,
        "count",
    );
    r.layer(
        "serve.shed_frac",
        (stats1.shed - stats0.shed) as f64 / (stats1.requests - stats0.requests).max(1) as f64,
        "ratio",
    );

    let leaves: Vec<pagestore::PageId> = (1..=pool.live_pages() as u32)
        .map(pagestore::PageId)
        .filter(|id| pool.peek(*id).is_some())
        .collect();
    fetch_probes(r, pool, &leaves, &mut tracer, args.seed);
    telemetry_probes(r);
    tracer
        .write(
            &args
                .out
                .join(format!("trace-{}-{}.jsonl", args.workload, args.seed)),
        )
        .ok();
}
