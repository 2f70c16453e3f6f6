//! Server lifecycle and lifetime counters:
//!
//! - `queries` counts executions: shed requests and parse errors never
//!   reach a worker and are not counted; a query whose execution panics
//!   still executed and is counted.
//! - Dropping a serving [`Server`] without `shutdown` stops it the same
//!   way: the listener closes and every server thread exits.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use btree::BTreeConfig;
use pagestore::{BufferPool, MemStore, PageId, PageStore};
use serve::{Client, ErrorCode, ServeError, ServeOptions, Server};
use uindex::{DatabaseReader, IndexSpec, UIndex};

const UQL: &str = "color: Color = 'Red'";

/// A memory store whose reads panic once `armed` is set: a query that
/// misses the buffer pool then panics inside the worker.
struct PanicStore {
    inner: MemStore,
    armed: Arc<AtomicBool>,
}

impl PageStore for PanicStore {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }
    fn allocate(&mut self) -> pagestore::Result<PageId> {
        self.inner.allocate()
    }
    fn free(&mut self, id: PageId) -> pagestore::Result<()> {
        self.inner.free(id)
    }
    fn read(&mut self, id: PageId, buf: &mut [u8]) -> pagestore::Result<()> {
        assert!(!self.armed.load(Ordering::Acquire), "injected read panic");
        self.inner.read(id, buf)
    }
    fn write(&mut self, id: PageId, buf: &[u8]) -> pagestore::Result<()> {
        self.inner.write(id, buf)
    }
    fn live_pages(&self) -> usize {
        self.inner.live_pages()
    }
    fn live_page_ids(&self) -> Vec<PageId> {
        self.inner.live_page_ids()
    }
}

fn expect_error(reply: Result<serve::QueryReply, ServeError>, want: ErrorCode) -> String {
    match reply {
        Err(ServeError::Server { code, message }) if code == want => message,
        other => panic!("wanted a {want:?} error, got {other:?}"),
    }
}

#[test]
fn queries_counts_executions_not_admissions() {
    let (schema, classes) = workload::serve::schema();
    let armed = Arc::new(AtomicBool::new(false));
    let store = PanicStore {
        inner: MemStore::new(1024),
        armed: Arc::clone(&armed),
    };
    let encoding = schema::Encoding::generate(&schema).unwrap();
    let mut index =
        UIndex::new(BufferPool::new(store, 64), BTreeConfig::default(), encoding).unwrap();
    let spec = IndexSpec::class_hierarchy("color", classes.vehicle, "Color")
        .build(&schema)
        .unwrap();
    index.define(&schema, spec).unwrap();
    let reader = DatabaseReader::for_index(&mut index, &schema);
    let server = Server::start(
        reader,
        ServeOptions {
            workers: 1,
            max_inflight: 1,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();

    // One query executes (the index is empty, so no rows).
    assert_eq!(c.query(UQL).unwrap().done.rows, 0);
    // Two parse errors and three sheds: none reaches a worker.
    for _ in 0..2 {
        expect_error(c.query("no such index: X = 1"), ErrorCode::Parse);
    }
    let held = server.gate().try_admit().unwrap();
    for _ in 0..3 {
        expect_error(c.query(UQL), ErrorCode::Overloaded);
    }
    drop(held);
    let stats = server.stats();
    assert_eq!((stats.queries, stats.shed), (1, 3));

    // A query that panics mid-execution still executed.
    armed.store(true, Ordering::Release);
    index.tree().pool().invalidate_cache().unwrap();
    let message = expect_error(c.query(UQL), ErrorCode::Exec);
    assert!(message.contains("panicked"), "got {message:?}");
    assert_eq!(server.stats().queries, 2);
    drop(c);

    let report = server.shutdown();
    assert_eq!(report.stats.queries, 2);
    assert_eq!(report.metrics.counters.get("serve.queries"), Some(&2));
    assert_eq!(report.stats.requests, 7);
    assert_eq!(report.metrics.counters.get("serve.worker.panics"), Some(&1));
    assert_eq!(report.metrics.histograms["serve.query_us"].count, 2);
}

#[test]
fn dropping_a_serving_server_stops_it() {
    let (schema, classes) = workload::serve::schema();
    let mut db = uindex::Database::with_page_size(schema, 1024, 4096).unwrap();
    workload::serve::populate(&mut db, &classes, 7, 50).unwrap();
    let server = Server::start(
        db.reader(),
        ServeOptions {
            workers: 2,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    // Every server thread holds the state the gate lives in, so the gate's
    // reference count shows when all of them have exited.
    let gate = server.gate();
    assert!(Arc::strong_count(&gate) > 1);

    // A live connection, mid-conversation, when the server is dropped.
    let mut c = Client::connect(addr).unwrap();
    assert!(c.query(UQL).unwrap().done.rows > 0);
    drop(server);

    assert_eq!(
        Arc::strong_count(&gate),
        1,
        "server threads still hold the server state after drop"
    );
    assert!(
        std::net::TcpStream::connect(addr).is_err(),
        "the listener must be closed"
    );
    assert!(c.ping().is_err(), "the open connection must be closed");
}
