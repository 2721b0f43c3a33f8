//! The write path's allocation gate: a batched 64 KiB commit over
//! `TcpRemote` allocates next to nothing per byte it commits. The engine
//! names its undo log and regions instead of copying them into per-mirror
//! batches, and the client sends each long range straight from the
//! engine's buffer, so what the client thread allocates per commit does
//! not grow with the transaction.
//!
//! A thread-local counting allocator sees only the client thread: the
//! server runs on its own thread, and with one mirror the engine writes
//! from the calling thread. Run it in release to see the figures:
//! `cargo test --release -p perseas-integration --test write_path_allocs -- --nocapture`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use perseas_core::{Perseas, PerseasConfig};
use perseas_rnram::server::Server;
use perseas_rnram::TcpRemote;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
}

/// `(allocations, bytes)` made on this thread so far.
fn counted() -> (u64, u64) {
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

// SAFETY: every call forwards to `System` unchanged; the counters are
// const-initialised thread-locals of `Copy` data, which neither allocate
// nor register destructors.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const TXN: usize = 64 << 10;
const REGION: usize = 16 * TXN;
const WARM_UP: usize = 200;
const COUNTED: usize = 1_000;

#[test]
fn a_batched_commit_allocates_next_to_nothing_per_byte() {
    let server = Server::bind("allocs", "127.0.0.1:0").unwrap().start();
    let mirror = TcpRemote::connect(server.addr()).unwrap();
    let cfg = PerseasConfig::new().with_batched_commit(true);
    let mut db = Perseas::init(vec![mirror], cfg).unwrap();
    let r = db.malloc(REGION).unwrap();
    db.init_remote_db().unwrap();
    let data: Vec<u8> = (0..TXN).map(|i| (i * 31 + 7) as u8).collect();

    let mut commit = |k: usize| {
        let off = (k % (REGION / TXN)) * TXN;
        db.begin_transaction().unwrap();
        db.set_range(r, off, TXN).unwrap();
        db.write(r, off, &data).unwrap();
        db.commit_transaction().unwrap();
    };
    for k in 0..WARM_UP {
        commit(k);
    }
    let (allocs0, bytes0) = counted();
    for k in 0..COUNTED {
        commit(WARM_UP + k);
    }
    let (allocs1, bytes1) = counted();

    let per_user_byte = (bytes1 - bytes0) as f64 / (COUNTED * TXN) as f64;
    println!(
        "client thread, {COUNTED} batched {TXN}-byte commits: {:.2} allocations and \
         {:.0} bytes allocated per transaction, {per_user_byte:.4} bytes per user byte",
        (allocs1 - allocs0) as f64 / COUNTED as f64,
        (bytes1 - bytes0) as f64 / COUNTED as f64,
    );
    assert!(
        per_user_byte <= 0.1,
        "{per_user_byte:.3} bytes allocated per committed byte"
    );
    let mut back = vec![0u8; TXN];
    db.read(r, 0, &mut back).unwrap();
    assert!(back == data);
    drop(db);
    server.shutdown();
}
