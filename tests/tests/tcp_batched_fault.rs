//! TCP robustness of the batched commit pipeline: the only mirror dying
//! mid-commit must surface `TxnError::Unavailable` promptly (bounded by
//! the reconnecting client's attempt budget, never hanging), one of two
//! mirrors dying must be fenced while the commit proceeds degraded on
//! the survivor, and the database must recover against a restarted
//! server.

use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use perseas_core::{MetaHeader, Perseas, PerseasConfig, RegionId, TxnError, META_TAG, OFF_COMMIT};
use perseas_integration::TcpMode;
use perseas_rnram::protocol::{frame_bytes, read_frame, write_frame, Request};
use perseas_rnram::server::{Server, ServerHandle};
use perseas_rnram::{ReconnectingRemote, TcpRemote};

fn batched() -> PerseasConfig {
    PerseasConfig::default().with_batched_commit(true)
}

#[test]
fn dead_server_fails_batched_commit_without_hanging_then_recovers() {
    for mode in TcpMode::ALL {
        let server = Server::bind("kill-me", "127.0.0.1:0").unwrap().start();
        let node = server.node().clone();
        let addr = server.addr();

        let mirror = mode.reconnecting(addr, 2);
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
        assert!(matches!(err, TxnError::Unavailable(_)), "{mode:?}: {err}");
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "{mode:?}: commit failure took {:?} — retry bound not honoured",
            started.elapsed()
        );

        // Same memory comes back on the same port (a UPS-backed restart);
        // only the committed transaction survives.
        let server2 = Server::with_node(node, addr).unwrap().start();
        let (mut db2, report) = Perseas::recover(mode.connect(addr), batched()).unwrap();
        assert_eq!(report.last_committed, 1, "{mode:?}");
        let snap = db2.region_snapshot(r).unwrap();
        assert_eq!(&snap[..64], &[1; 64][..]);
        assert_eq!(
            &snap[64..128],
            &[0; 64][..],
            "{mode:?}: failed txn must not be durable"
        );

        // The recovered database commits batched transactions normally.
        db2.begin_transaction().unwrap();
        db2.set_range(r, 128, 32).unwrap();
        db2.write(r, 128, &[3; 32]).unwrap();
        db2.commit_transaction().unwrap();
        assert_eq!(&db2.region_snapshot(r).unwrap()[128..160], &[3; 32][..]);
        server2.shutdown();
    }
}

#[test]
fn two_tcp_mirrors_commit_batched_in_parallel_and_survive_one_loss() {
    for mode in TcpMode::ALL {
        let sa = Server::bind("ma", "127.0.0.1:0").unwrap().start();
        let sb = Server::bind("mb", "127.0.0.1:0").unwrap().start();
        let addr_a = sa.addr();

        let mut db = Perseas::init(
            vec![mode.connect(addr_a), mode.connect(sb.addr())],
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
        assert_eq!(db.last_committed(), 20, "{mode:?}");

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
            perseas_core::MirrorHealth::Down,
            "{mode:?}"
        );

        // Mirror a recovers the full history including the degraded commit.
        let (db2, report) = Perseas::recover(mode.connect(addr_a), batched()).unwrap();
        assert_eq!(report.last_committed, 21, "{mode:?}");
        let snap = db2.region_snapshot(r).unwrap();
        assert_eq!(&snap[..16], &[0xFF; 16][..]);
        sa.shutdown();
    }
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
/// server until its budget runs out, then severs both directions; the
/// frame that finds the budget spent reaches the server only as its first
/// `tail_bytes` bytes. Responses are pumped back verbatim. `remaining`
/// starts unlimited; arm it with `store(k)` while the client is idle.
/// `frames` keeps every forwarded request body.
struct CutProxy {
    addr: SocketAddr,
    remaining: Arc<AtomicU64>,
    tail_bytes: Arc<AtomicU64>,
    frames: Arc<Mutex<Vec<Vec<u8>>>>,
}

fn spawn_cut_proxy(server_addr: SocketAddr) -> CutProxy {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let remaining = Arc::new(AtomicU64::new(u64::MAX));
    let tail_bytes = Arc::new(AtomicU64::new(0));
    let frames = Arc::new(Mutex::new(Vec::new()));
    let (rem, tail, kept) = (
        Arc::clone(&remaining),
        Arc::clone(&tail_bytes),
        Arc::clone(&frames),
    );
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
                // Budget exhausted: this frame is never delivered whole.
                let wire = frame_bytes(&body);
                let prefix = (tail.load(Ordering::SeqCst) as usize).min(wire.len());
                let _ = up_write.write_all(&wire[..prefix]);
                break;
            }
            rem.fetch_sub(1, Ordering::SeqCst);
            // Kept before it is forwarded: the client can see the
            // server's answer to this frame before this thread runs
            // again, and must not read a list that lacks it.
            kept.lock().unwrap().push(body.clone());
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
        tail_bytes,
        frames,
    }
}

const SWEEP_REGION: usize = 256;
const SWEEP_OPS: usize = 8;

/// Builds a pipelined database through the proxy and commits the
/// baseline transaction (id 1: `[1; 32]` at offset 0). Under a commit
/// quorum above 1, a second mirror at `direct` is dialled without a
/// proxy.
fn sweep_setup(
    proxy: &CutProxy,
    direct: Option<SocketAddr>,
    cfg: PerseasConfig,
) -> (Perseas<ReconnectingRemote>, RegionId) {
    let mut mirrors = vec![ReconnectingRemote::connect_pipelined(proxy.addr, 2).unwrap()];
    mirrors.extend(direct.map(|a| ReconnectingRemote::connect_pipelined(a, 2).unwrap()));
    let mut db = Perseas::init(mirrors, cfg).unwrap();
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

/// A quorum above 1 needs a second mirror; the sweep cuts the first.
fn second_mirror(cfg: PerseasConfig) -> Option<ServerHandle> {
    (cfg.commit_quorum > 1).then(|| Server::bind("direct", "127.0.0.1:0").unwrap().start())
}

/// A clean run through the proxy: the request frames the swept
/// transaction sends, in order. The budget is armed only between
/// transactions (the window is drained, so the count is exact).
fn sweep_shape(cfg: PerseasConfig) -> Vec<Vec<u8>> {
    let server = Server::bind("shape", "127.0.0.1:0").unwrap().start();
    let direct = second_mirror(cfg);
    let proxy = spawn_cut_proxy(server.addr());
    let (mut db, r) = sweep_setup(&proxy, direct.as_ref().map(ServerHandle::addr), cfg);
    let before = proxy.frames.lock().unwrap().len();
    sweep_txn(&mut db, r).unwrap();
    assert_eq!(db.last_committed(), 2);
    let frames = proxy.frames.lock().unwrap().split_off(before);
    server.shutdown();
    if let Some(direct) = direct {
        direct.shutdown();
    }
    frames
}

/// Runs the swept transaction with the proxy delivering `frames` whole
/// request frames and then `tail_bytes` bytes of the next one, and checks
/// the outcome against the durability oracle: read from the cut mirror's
/// own bytes, then through recovery over a restarted server. Under a
/// commit quorum above 1 the other mirror keeps the transaction only if
/// the cut spared everything but the commit record's frame, and then the
/// commit is in doubt.
fn cut_and_check(cfg: PerseasConfig, frames: u64, tail_bytes: u64, at: &str) {
    let server = Server::bind("sweep", "127.0.0.1:0").unwrap().start();
    let direct = second_mirror(cfg);
    let node = server.node().clone();
    let addr = server.addr();
    let proxy = spawn_cut_proxy(addr);
    let (mut db, r) = sweep_setup(&proxy, direct.as_ref().map(ServerHandle::addr), cfg);

    proxy.tail_bytes.store(tail_bytes, Ordering::SeqCst);
    proxy.remaining.store(frames, Ordering::SeqCst);
    let started = Instant::now();
    let err = sweep_txn(&mut db, r).unwrap_err();
    let in_doubt = matches!(err, TxnError::CommitInDoubt { .. });
    assert!(
        matches!(err, TxnError::Unavailable(_)) || (in_doubt && direct.is_some()),
        "{at}: {err}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "{at}: failure took {:?} — not bounded",
        started.elapsed()
    );
    drop(db);

    // The commit record is the transaction's last frame, and the
    // replacement listener refuses re-dials: with any earlier frame
    // undelivered the transaction must not be durable here.
    server.shutdown();
    let server2 = Server::with_node(node, addr).unwrap().start();
    let watermark = durable_watermark(&server2);
    assert_eq!(
        watermark, 1,
        "{at}: txn 2 became durable with its record frame cut"
    );

    let (db2, report) = Perseas::recover(TcpRemote::connect(addr).unwrap(), cfg)
        .unwrap_or_else(|e| panic!("{at}: recovery failed: {e}"));
    assert_eq!(report.last_committed, 1, "{at}");
    assert_eq!(
        db2.region_snapshot(r).unwrap(),
        sweep_oracle(false),
        "{at}: recovered image diverges from the durability oracle"
    );
    server2.shutdown();

    if let Some(direct) = direct {
        assert_eq!(durable_watermark(&direct), 1 + in_doubt as u64, "{at}");
        let (db3, _) = Perseas::recover(TcpRemote::connect(direct.addr()).unwrap(), cfg)
            .unwrap_or_else(|e| panic!("{at}: recovery of the direct mirror failed: {e}"));
        assert_eq!(
            db3.region_snapshot(r).unwrap(),
            sweep_oracle(in_doubt),
            "{at}"
        );
        direct.shutdown();
    }
}

fn pipelined_window_sweep(cfg: PerseasConfig, min_positions: u64) {
    let total = sweep_shape(cfg).len() as u64;
    assert!(
        total >= min_positions,
        "swept txn sent {total} frames — window sweep has lost its breadth"
    );
    for cut_at in 0..total {
        cut_and_check(cfg, cut_at, 0, &format!("cut_at={cut_at}"));
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
    // The batched path ships undo, data and record as one vectored frame.
    pipelined_window_sweep(batched(), 1);
}

#[test]
fn pipelined_window_sweep_two_barrier_batched_commit() {
    // Under a commit quorum of 2 the record ships only after a barrier on
    // the undo and data frames: three frames, cut at each one on one of
    // two mirrors.
    pipelined_window_sweep(batched().with_commit_quorum(2), 3);
}

/// The batched commit's one frame, cut short at byte positions inside
/// it: the server applies whole CRC-checked frames only, so no prefix of
/// the frame — not even everything but the record — reaches the mirror.
#[test]
fn batched_commit_frame_cut_inside() {
    let frames = sweep_shape(batched());
    let [body] = &frames[..] else {
        panic!("the batched commit sent {} frames, not one", frames.len());
    };
    let Request::Mux { inner, .. } = Request::decode(body).unwrap() else {
        panic!("not a session frame");
    };
    let Request::WriteV { ranges } = *inner else {
        panic!("not a vectored write");
    };
    assert!(ranges.len() >= 3, "undo, data and record: {}", ranges.len());
    assert_eq!(
        ranges[1].2, [0xB0; 8],
        "the first data range follows the undo log"
    );
    let (_, offset, record) = ranges.last().unwrap();
    assert_eq!(
        (*offset, &record[..]),
        (OFF_COMMIT as u64, &2u64.to_le_bytes()[..])
    );
    // Wire offsets: a 4-byte length, the body's headers, then per range a
    // 24-byte header and the bytes; the CRC trails.
    let headers = body.len() - ranges.iter().map(|(_, _, d)| 24 + d.len()).sum::<usize>();
    let mut starts = Vec::with_capacity(ranges.len());
    let mut at = 4 + headers;
    for (_, _, data) in &ranges {
        starts.push(at);
        at += 24 + data.len();
    }
    let middle = |k: usize| (starts[k] + 24 + ranges[k].2.len() / 2) as u64;
    let cuts = [
        ("in the undo part", middle(0)),
        ("in the data part", middle(1)),
        ("just before the record", starts[ranges.len() - 1] as u64),
        ("one byte short", (body.len() + 8 - 1) as u64),
    ];
    for (part, bytes) in cuts {
        cut_and_check(batched(), 0, bytes, part);
    }
}
