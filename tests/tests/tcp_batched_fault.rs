//! TCP robustness of the batched commit pipeline: the only mirror dying
//! mid-commit must surface `TxnError::Unavailable` promptly (bounded by
//! the reconnecting client's attempt budget, never hanging), one of two
//! mirrors dying must be fenced while the commit proceeds degraded on
//! the survivor, and the database must recover against a restarted
//! server.

use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use perseas_core::{MetaHeader, Perseas, PerseasConfig, RegionId, TxnError, META_TAG};
use perseas_rnram::protocol::{read_frame, write_frame};
use perseas_rnram::server::Server;
use perseas_rnram::{PipelineConfig, ReconnectingRemote, TcpRemote};

fn batched() -> PerseasConfig {
    PerseasConfig::default().with_batched_commit(true)
}

#[test]
fn dead_server_fails_batched_commit_without_hanging_then_recovers() {
    let server = Server::bind("kill-me", "127.0.0.1:0").unwrap().start();
    let node = server.node().clone();
    let addr = server.addr();

    let mirror = ReconnectingRemote::connect_auto(addr, 2).unwrap();
    let mut db = Perseas::init(vec![mirror], batched()).unwrap();
    let r = db.malloc(256).unwrap();
    db.init_remote_db().unwrap();

    db.begin_transaction().unwrap();
    db.set_range(r, 0, 64).unwrap();
    db.write(r, 0, &[1; 64]).unwrap();
    db.commit_transaction().unwrap();

    // The server dies. In batched mode set_range is local, so the open
    // transaction only notices at commit — which must fail with
    // Unavailable after the client's bounded reconnect attempts.
    server.shutdown();
    db.begin_transaction().unwrap();
    db.set_range(r, 64, 64).unwrap();
    db.write(r, 64, &[2; 64]).unwrap();
    let started = Instant::now();
    let err = db.commit_transaction().unwrap_err();
    assert!(matches!(err, TxnError::Unavailable(_)), "{err}");
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "commit failure took {:?} — retry bound not honoured",
        started.elapsed()
    );

    // Same memory comes back on the same port (a UPS-backed restart);
    // only the committed transaction survives.
    let server2 = Server::with_node(node, addr).unwrap().start();
    let (mut db2, report) =
        Perseas::recover(TcpRemote::connect_auto(addr).unwrap(), batched()).unwrap();
    assert_eq!(report.last_committed, 1);
    let snap = db2.region_snapshot(r).unwrap();
    assert_eq!(&snap[..64], &[1; 64][..]);
    assert_eq!(
        &snap[64..128],
        &[0; 64][..],
        "failed txn must not be durable"
    );

    // The recovered database commits batched transactions normally.
    db2.begin_transaction().unwrap();
    db2.set_range(r, 128, 32).unwrap();
    db2.write(r, 128, &[3; 32]).unwrap();
    db2.commit_transaction().unwrap();
    assert_eq!(&db2.region_snapshot(r).unwrap()[128..160], &[3; 32][..]);
    server2.shutdown();
}

#[test]
fn two_tcp_mirrors_commit_batched_in_parallel_and_survive_one_loss() {
    let sa = Server::bind("ma", "127.0.0.1:0").unwrap().start();
    let sb = Server::bind("mb", "127.0.0.1:0").unwrap().start();
    let addr_a = sa.addr();

    let mut db = Perseas::init(
        vec![
            TcpRemote::connect_auto(addr_a).unwrap(),
            TcpRemote::connect_auto(sb.addr()).unwrap(),
        ],
        batched(),
    )
    .unwrap();
    let r = db.malloc(512).unwrap();
    db.init_remote_db().unwrap();

    // No fault plan armed and no sim clocks: these commits take the
    // scoped-thread fan-out path, one writer thread per mirror.
    for i in 0..20u64 {
        db.begin_transaction().unwrap();
        let slot = (i as usize % 16) * 16;
        db.set_range(r, slot, 16).unwrap();
        db.write(r, slot, &[i as u8; 16]).unwrap();
        db.set_range(r, 256 + slot, 8).unwrap();
        db.write(r, 256 + slot, &[!(i as u8); 8]).unwrap();
        db.commit_transaction().unwrap();
    }
    assert_eq!(db.last_committed(), 20);

    // Mirror b dies mid-life: the parallel fan-out must fence the dead
    // mirror and commit degraded on the survivor instead of panicking
    // or hanging (the default quorum is 1).
    sb.shutdown();
    db.begin_transaction().unwrap();
    db.set_range(r, 0, 16).unwrap();
    db.write(r, 0, &[0xFF; 16]).unwrap();
    db.commit_transaction().unwrap();
    assert_eq!(
        db.mirror_status()[1].health,
        perseas_core::MirrorHealth::Down
    );

    // Mirror a recovers the full history including the degraded commit.
    let (db2, report) =
        Perseas::recover(TcpRemote::connect_auto(addr_a).unwrap(), batched()).unwrap();
    assert_eq!(report.last_committed, 21);
    let snap = db2.region_snapshot(r).unwrap();
    assert_eq!(&snap[..16], &[0xFF; 16][..]);
    sa.shutdown();
}

// ---------------------------------------------------------------------
// Pipelined crash sweep (ISSUE 4): the connection to the mirror dies at
// *every* request-frame boundary of a transaction driven over the
// pipelined transport — i.e. at every in-flight window position, barrier
// not yet acked. A frame-counting proxy sits between the client and the
// server and stops forwarding after exactly `k` frames, which is the
// only way to make "the server died after the k-th posted write" exact
// over real sockets. The client must surface a bounded `Unavailable`
// (never hang, never silently retry the lost window), and recovery
// against the restarted server must reproduce the durability oracle
// read from the mirror's own metadata bytes, as in
// `group_commit_sweep.rs`.
// ---------------------------------------------------------------------

/// A single-connection TCP proxy that forwards request frames to the
/// server until its budget runs out, then severs both directions.
/// Responses are pumped back verbatim. `remaining` starts unlimited;
/// arm it with `store(k)` while the client is idle.
struct CutProxy {
    addr: SocketAddr,
    remaining: Arc<AtomicU64>,
    forwarded: Arc<AtomicU64>,
}

fn spawn_cut_proxy(server_addr: SocketAddr) -> CutProxy {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let remaining = Arc::new(AtomicU64::new(u64::MAX));
    let forwarded = Arc::new(AtomicU64::new(0));
    let (rem, fwd) = (Arc::clone(&remaining), Arc::clone(&forwarded));
    std::thread::spawn(move || {
        let (client, _) = match listener.accept() {
            Ok(c) => c,
            Err(_) => return,
        };
        let upstream = match TcpStream::connect(server_addr) {
            Ok(u) => u,
            Err(_) => return,
        };
        let mut up_read = upstream.try_clone().unwrap();
        let mut client_write = client.try_clone().unwrap();
        let pump = std::thread::spawn(move || {
            let _ = std::io::copy(&mut up_read, &mut client_write);
        });
        let mut client_read = client;
        let mut up_write = upstream;
        while let Ok(body) = read_frame(&mut client_read) {
            if rem.load(Ordering::SeqCst) == 0 {
                break; // budget exhausted: this frame is never delivered
            }
            rem.fetch_sub(1, Ordering::SeqCst);
            // Counted before it is forwarded: the client can see the
            // server's answer to this frame before this thread runs
            // again, and must not read a count that lacks it.
            fwd.fetch_add(1, Ordering::SeqCst);
            if write_frame(&mut up_write, &body).is_err() {
                break;
            }
        }
        let _ = client_read.shutdown(Shutdown::Both);
        let _ = up_write.shutdown(Shutdown::Both);
        let _ = pump.join();
        // The listener dies with this thread: a re-dial after the cut is
        // refused, so the attempt budget is what bounds the failure.
    });
    CutProxy {
        addr,
        remaining,
        forwarded,
    }
}

const SWEEP_REGION: usize = 256;
const SWEEP_OPS: usize = 8;

/// Builds a pipelined database through the proxy and commits the
/// baseline transaction (id 1: `[1; 32]` at offset 0).
fn sweep_setup(proxy: &CutProxy, cfg: PerseasConfig) -> (Perseas<ReconnectingRemote>, RegionId) {
    let mirror = ReconnectingRemote::connect(proxy.addr, 2)
        .unwrap()
        .with_pipeline(PipelineConfig::default());
    let mut db = Perseas::init(vec![mirror], cfg).unwrap();
    let r = db.malloc(SWEEP_REGION).unwrap();
    db.init_remote_db().unwrap();
    db.begin_transaction().unwrap();
    db.set_range(r, 0, 32).unwrap();
    db.write(r, 0, &[1; 32]).unwrap();
    db.commit_transaction().unwrap();
    (db, r)
}

/// The swept transaction (id 2): SWEEP_OPS disjoint 8-byte ranges — a
/// full in-flight window of posted writes before the commit barrier.
fn sweep_txn(db: &mut Perseas<ReconnectingRemote>, r: RegionId) -> Result<(), TxnError> {
    db.begin_transaction()?;
    for i in 0..SWEEP_OPS {
        let off = 64 + i * 16;
        db.set_range(r, off, 8)?;
        db.write(r, off, &[0xB0 + i as u8; 8])?;
    }
    db.commit_transaction()
}

/// The serial oracle: baseline plus the swept transaction iff durable.
fn sweep_oracle(txn2_durable: bool) -> Vec<u8> {
    let mut img = vec![0u8; SWEEP_REGION];
    img[..32].fill(1);
    if txn2_durable {
        for i in 0..SWEEP_OPS {
            let off = 64 + i * 16;
            img[off..off + 8].fill(0xB0 + i as u8);
        }
    }
    img
}

/// The durable watermark read straight from the mirror's metadata bytes.
fn durable_watermark(server: &perseas_rnram::server::ServerHandle) -> u64 {
    let seg = server.node().find_by_tag(META_TAG).expect("meta segment");
    let mut image = vec![0u8; seg.len];
    server.node().read(seg.id, 0, &mut image).unwrap();
    MetaHeader::decode(&image).unwrap().last_committed
}

fn pipelined_window_sweep(cfg: PerseasConfig, min_positions: u64) {
    // Shape first: a clean run through the proxy counts the frames the
    // swept transaction sends. The budget is armed only between
    // transactions (the window is drained, so the count is exact).
    let total = {
        let server = Server::bind("shape", "127.0.0.1:0").unwrap().start();
        let proxy = spawn_cut_proxy(server.addr());
        let (mut db, r) = sweep_setup(&proxy, cfg);
        let before = proxy.forwarded.load(Ordering::SeqCst);
        sweep_txn(&mut db, r).unwrap();
        let total = proxy.forwarded.load(Ordering::SeqCst) - before;
        assert_eq!(db.last_committed(), 2);
        server.shutdown();
        total
    };
    assert!(
        total >= min_positions,
        "swept txn sent {total} frames — window sweep has lost its breadth"
    );

    for cut_at in 0..total {
        let server = Server::bind("sweep", "127.0.0.1:0").unwrap().start();
        let node = server.node().clone();
        let addr = server.addr();
        let proxy = spawn_cut_proxy(addr);
        let (mut db, r) = sweep_setup(&proxy, cfg);

        proxy.remaining.store(cut_at, Ordering::SeqCst);
        let started = Instant::now();
        let err = sweep_txn(&mut db, r).unwrap_err();
        assert!(
            matches!(err, TxnError::Unavailable(_)),
            "cut_at={cut_at}: {err}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "cut_at={cut_at}: failure took {:?} — not bounded",
            started.elapsed()
        );
        drop(db);

        // The commit record is the transaction's last frame, and the
        // replacement listener refuses re-dials: with any earlier frame
        // undelivered the transaction must not be durable. Check the
        // oracle against the mirror's own bytes, then against recovery
        // over a restarted server.
        server.shutdown();
        let server2 = Server::with_node(node, addr).unwrap().start();
        let watermark = durable_watermark(&server2);
        assert_eq!(
            watermark, 1,
            "cut_at={cut_at}: txn 2 became durable with its record frame cut"
        );

        let (db2, report) = Perseas::recover(TcpRemote::connect(addr).unwrap(), cfg)
            .unwrap_or_else(|e| panic!("cut_at={cut_at}: recovery failed: {e}"));
        assert_eq!(report.last_committed, 1, "cut_at={cut_at}");
        assert_eq!(
            db2.region_snapshot(r).unwrap(),
            sweep_oracle(false),
            "cut_at={cut_at}: recovered image diverges from the durability oracle"
        );
        server2.shutdown();
    }
}

#[test]
fn pipelined_window_sweep_legacy_commit() {
    // The legacy path posts one frame per undo record and per data range:
    // the sweep spans every position of a full 8-write window plus the
    // commit record.
    pipelined_window_sweep(PerseasConfig::default(), SWEEP_OPS as u64 + 1);
}

#[test]
fn pipelined_window_sweep_batched_commit() {
    // The batched path coalesces into vectored frames; the sweep still
    // cuts at every one of its (fewer) boundaries.
    pipelined_window_sweep(batched(), 3);
}
