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
use perseas_integration::{redialing, TcpMode};
use perseas_rnram::protocol::{frame_bytes, read_frame, write_frame, Request, Response, MAX_PIECE};
use perseas_rnram::server::{Server, ServerHandle};
use perseas_rnram::{BackoffPolicy, RemoteMemory, RnError, TcpRemote};

fn batched() -> PerseasConfig {
    PerseasConfig::default().with_batched_commit(true)
}

#[test]
fn dead_server_fails_batched_commit_without_hanging_then_recovers() {
    let server = Server::bind("kill-me", "127.0.0.1:0").unwrap().start();
    let node = server.node().clone();
    let addr = server.addr();

    let mirror = redialing(addr, 2);
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
    let (mut db2, report) = Perseas::recover(TcpRemote::connect(addr).unwrap(), batched()).unwrap();
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

        // Each commit posts its writes to a, then to b, and one barrier
        // per mirror confirms them (the one fan-out the crash sweeps
        // drive too).
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

        // Mirror b dies mid-life: the fan-out must fence the dead
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

/// Two mirrors' writes overlap on the wire without a thread per mirror:
/// the engine posts each mirror's list in order and the barriers that
/// follow wait for the acks together. With every response held back
/// 25 ms, batched commits over two mirrors take less than 1.5x the same
/// commits over one; a fan-out that waited for each mirror's ack before
/// writing to the next would take twice as long.
#[test]
fn two_mirrors_overlap_without_threads() {
    const COMMITS: u32 = 8;
    let latency = Duration::from_millis(25);
    for mode in TcpMode::ALL {
        let servers: Vec<ServerHandle> = ["slow-a", "slow-b"]
            .into_iter()
            .map(|name| {
                Server::bind(name, "127.0.0.1:0")
                    .unwrap()
                    .with_request_latency(latency)
                    .start()
            })
            .collect();
        let commits_over = |n: usize| {
            let mirrors = servers[..n].iter().map(|s| mode.connect(s.addr()));
            let mut db = Perseas::init(mirrors.collect(), batched()).unwrap();
            let r = db.malloc(256).unwrap();
            db.init_remote_db().unwrap();
            let started = Instant::now();
            for i in 0..COMMITS {
                fill_region(&mut db, r, 256, i as u8).unwrap();
            }
            started.elapsed()
        };
        let one = commits_over(1);
        let two = commits_over(2);
        assert!(
            two < one * 3 / 2,
            "{mode:?}: {COMMITS} commits took {two:?} over two mirrors, {one:?} over one"
        );
        for server in servers {
            server.shutdown();
        }
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
) -> (Perseas<TcpRemote>, RegionId) {
    let mut mirrors =
        vec![TcpRemote::connect_redialing(proxy.addr, 2, BackoffPolicy::default()).unwrap()];
    mirrors.extend(
        direct.map(|a| TcpRemote::connect_redialing(a, 2, BackoffPolicy::default()).unwrap()),
    );
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
fn sweep_txn(db: &mut Perseas<TcpRemote>, r: RegionId) -> Result<(), TxnError> {
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

// ---------------------------------------------------------------------
// Writes longer than one frame. `TcpRemote` cuts a write whose frame body
// would pass `MAX_PIECE` into pieces and confirms each piece but the last
// before it sends the next, so a refused or cut piece ends the write:
// nothing after it, the commit record included, reaches the mirror.
// ---------------------------------------------------------------------

/// Whether a request body is a session's `Write` or `WriteV`.
fn is_write(body: &[u8]) -> bool {
    matches!(
        Request::decode(body),
        Ok(Request::Mux { inner, .. }) if matches!(*inner, Request::Write { .. } | Request::WriteV { .. })
    )
}

/// A TCP proxy that forwards frames both ways on every connection it
/// accepts, except one write frame: armed with `refuse.store(k)`, it lets
/// `k` more write frames through and answers the next itself with
/// `Overloaded`, as the server's admission answers a request it refuses,
/// without forwarding it. `writes` counts the write frames forwarded.
struct RefusingProxy {
    addr: SocketAddr,
    refuse: Arc<AtomicU64>,
    writes: Arc<AtomicU64>,
    /// The client side of every connection accepted so far.
    clients: Arc<Mutex<Vec<TcpStream>>>,
}

impl RefusingProxy {
    /// Closes every connection accepted so far, as a restarting server
    /// would; the proxy goes on accepting re-dials.
    fn hang_up(&self) {
        for client in self.clients.lock().unwrap().drain(..) {
            let _ = client.shutdown(Shutdown::Both);
        }
    }
}

fn spawn_refusing_proxy(server_addr: SocketAddr) -> RefusingProxy {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let proxy = RefusingProxy {
        addr: listener.local_addr().unwrap(),
        refuse: Arc::new(AtomicU64::new(u64::MAX)),
        writes: Arc::new(AtomicU64::new(0)),
        clients: Arc::new(Mutex::new(Vec::new())),
    };
    let (armed, forwarded) = (Arc::clone(&proxy.refuse), Arc::clone(&proxy.writes));
    let clients = Arc::clone(&proxy.clients);
    std::thread::spawn(move || {
        for client in listener.incoming() {
            let Ok(client) = client else {
                return;
            };
            clients.lock().unwrap().push(client.try_clone().unwrap());
            let (armed, forwarded) = (Arc::clone(&armed), Arc::clone(&forwarded));
            std::thread::spawn(move || refusing_relay(client, server_addr, &armed, &forwarded));
        }
    });
    proxy
}

/// One connection of a [`RefusingProxy`].
fn refusing_relay(
    client: TcpStream,
    server_addr: SocketAddr,
    armed: &AtomicU64,
    forwarded: &AtomicU64,
) {
    let upstream = TcpStream::connect(server_addr).unwrap();
    // Answers and refusals reach the client as whole frames.
    let back = Arc::new(Mutex::new(client.try_clone().unwrap()));
    let (mut up_read, answers) = (upstream.try_clone().unwrap(), Arc::clone(&back));
    let pump = std::thread::spawn(move || {
        while let Ok(body) = read_frame(&mut up_read) {
            if write_frame(&mut *answers.lock().unwrap(), &body).is_err() {
                break;
            }
        }
    });
    let (mut client_read, mut up_write) = (client, upstream);
    while let Ok(body) = read_frame(&mut client_read) {
        if is_write(&body) {
            match armed.load(Ordering::SeqCst) {
                0 => {
                    armed.store(u64::MAX, Ordering::SeqCst);
                    let Ok(Request::Mux { session, seq, .. }) = Request::decode(&body) else {
                        unreachable!("a session's write");
                    };
                    let refusal = Response::Mux {
                        session,
                        seq,
                        inner: Box::new(Response::Overloaded),
                    };
                    if write_frame(&mut *back.lock().unwrap(), &refusal.encode()).is_err() {
                        break;
                    }
                    continue;
                }
                u64::MAX => {}
                k => armed.store(k - 1, Ordering::SeqCst),
            }
            forwarded.fetch_add(1, Ordering::SeqCst);
        }
        if write_frame(&mut up_write, &body).is_err() {
            break;
        }
    }
    let _ = client_read.shutdown(Shutdown::Both);
    let _ = up_write.shutdown(Shutdown::Both);
    let _ = pump.join();
}

/// A write three frames long whose second frame admission refuses ends
/// there: the first frame is applied, and neither the refused frame nor
/// the third is. The refusal is queued for the barrier.
#[test]
fn a_refused_piece_ends_the_write() {
    let len = 2 * MAX_PIECE + MAX_PIECE / 2;
    let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8 + 1).collect();
    for mode in TcpMode::ALL {
        let server = Server::bind("refuser", "127.0.0.1:0").unwrap().start();
        let proxy = spawn_refusing_proxy(server.addr());
        let mut c = mode.connect(proxy.addr);
        let clean = c.remote_malloc(len, 0).unwrap();
        let seg = c.remote_malloc(len, 1).unwrap();
        c.remote_write(clean.id, 0, &data).unwrap();
        c.flush().unwrap();
        let frames = proxy.writes.load(Ordering::SeqCst);
        assert_eq!(frames, 3, "{mode:?}: the write takes three frames");

        proxy.refuse.store(1, Ordering::SeqCst);
        c.remote_write(seg.id, 0, &data).unwrap();
        let err = c.flush().unwrap_err();
        assert!(matches!(err, RnError::Overloaded), "{mode:?}: {err}");
        assert_eq!(
            proxy.writes.load(Ordering::SeqCst),
            frames + 1,
            "{mode:?}: the first frame went through, the third was never sent"
        );
        let mut image = vec![0u8; len];
        server.node().read(seg.id, 0, &mut image).unwrap();
        let applied = image.iter().position(|&b| b == 0).unwrap_or(len);
        assert!(
            applied > 0 && applied < MAX_PIECE,
            "{mode:?}: {applied} bytes applied"
        );
        assert!(image[..applied] == data[..applied], "{mode:?}");
        assert!(
            image[applied..].iter().all(|&b| b == 0),
            "{mode:?}: bytes past the first frame were applied"
        );
        c.flush().unwrap();
        drop(c);
        server.shutdown();
    }
}

/// A posted write's refusal that the client has read but no barrier has
/// reported survives the death of its connection: a reconnecting client
/// reports an error at the next operation or barrier before it re-dials,
/// and never confirms the refused write as applied. The refusal reaches
/// the client as an ack routed during an RPC or as a long write's piece
/// confirmation; the dead connection is found by the idle check before a
/// posted write or by a failed RPC.
#[test]
fn a_queued_refusal_is_reported_before_a_redial() {
    let len = 2 * MAX_PIECE + MAX_PIECE / 2;
    for by_piece in [false, true] {
        for then_read in [false, true] {
            let at = format!("refused by piece: {by_piece}, then read: {then_read}");
            let server = Server::bind("redial", "127.0.0.1:0").unwrap().start();
            let proxy = spawn_refusing_proxy(server.addr());
            let mut r = redialing(proxy.addr, 3);
            let seg = r.remote_malloc(len, 0).unwrap();
            let mut back = vec![0u8; 64];
            proxy.refuse.store(u64::from(by_piece), Ordering::SeqCst);
            if by_piece {
                r.remote_write(seg.id, 0, &vec![2; len]).unwrap();
            } else {
                r.remote_write(seg.id, 0, &[2; 64]).unwrap();
                r.remote_read(seg.id, 0, &mut back).unwrap();
            }
            assert_eq!(r.in_flight(), 0, "{at}: the refusal was read");

            proxy.hang_up();
            // Time for the FIN to reach the client, so that the check
            // before a posted write finds the hang-up. The outcome
            // asserted below holds whether or not it does.
            std::thread::sleep(Duration::from_millis(50));
            let next = if then_read {
                r.remote_read(seg.id, 0, &mut back)
            } else {
                r.remote_write(seg.id, len - 64, &[3; 64])
            };
            let reported = next.and_then(|()| r.flush().map(drop));
            assert!(reported.is_err(), "{at}: the refused write was confirmed");

            // Once reported, the loss is behind the client: it re-dials.
            r.remote_write(seg.id, 0, &[4; 64]).unwrap();
            r.flush().unwrap();
            r.remote_read(seg.id, 0, &mut back).unwrap();
            assert_eq!(back, [4; 64], "{at}");
            drop(r);
            server.shutdown();
        }
    }
}

/// A batched database over `mode` through a refusing proxy, whose first
/// transaction filled the whole `len`-byte region with 1s.
fn refusing_db(
    mode: TcpMode,
    len: usize,
) -> (ServerHandle, RefusingProxy, Perseas<TcpRemote>, RegionId) {
    let server = Server::bind("refused-commit", "127.0.0.1:0")
        .unwrap()
        .start();
    let proxy = spawn_refusing_proxy(server.addr());
    let mut db = Perseas::init(vec![mode.connect(proxy.addr)], batched()).unwrap();
    let r = db.malloc(len).unwrap();
    db.init_remote_db().unwrap();
    fill_region(&mut db, r, len, 1).unwrap();
    (server, proxy, db, r)
}

/// One transaction writing `byte` over the whole `len`-byte region.
fn fill_region<M: perseas_rnram::RemoteMemory>(
    db: &mut Perseas<M>,
    r: RegionId,
    len: usize,
    byte: u8,
) -> Result<(), TxnError> {
    db.begin_transaction()?;
    db.set_range(r, 0, len)?;
    db.write(r, 0, &vec![byte; len])?;
    db.commit_transaction()
}

/// The multi-frame case of `failover.rs`'s
/// `a_refused_commit_is_never_in_doubt`: a batched commit longer than one
/// frame, each of whose frames admission refuses in turn. The mirror is
/// alive and holds no commit record, so the commit fails with a plain
/// `Unavailable`, the transaction stays open, and the mirror recovers to
/// the image before it.
#[test]
fn a_refused_multi_frame_commit_is_never_in_doubt() {
    let len = MAX_PIECE + MAX_PIECE / 2;
    for mode in TcpMode::ALL {
        let frames = {
            let (server, proxy, mut db, r) = refusing_db(mode, len);
            let before = proxy.writes.load(Ordering::SeqCst);
            fill_region(&mut db, r, len, 2).unwrap();
            drop(db);
            server.shutdown();
            proxy.writes.load(Ordering::SeqCst) - before
        };
        assert!(frames >= 3, "{mode:?}: the commit took {frames} frames");
        for k in 0..frames {
            let at = format!("{mode:?}: refused frame {k} of {frames}");
            let (server, proxy, mut db, r) = refusing_db(mode, len);
            proxy.refuse.store(k, Ordering::SeqCst);
            let err = fill_region(&mut db, r, len, 2).unwrap_err();
            assert!(matches!(err, TxnError::Unavailable(_)), "{at}: {err:?}");
            assert!(db.in_transaction(), "{at}: the transaction must stay open");
            assert_eq!(
                db.mirror_status()[0].health,
                perseas_core::MirrorHealth::Healthy,
                "{at}"
            );
            assert_eq!(
                durable_watermark(&server),
                1,
                "{at}: the mirror holds the record"
            );

            db.abort_transaction().unwrap();
            assert_eq!(db.region_snapshot(r).unwrap(), vec![1; len], "{at}");
            db.crash();
            let (db2, report) =
                Perseas::recover(TcpRemote::connect(server.addr()).unwrap(), batched()).unwrap();
            assert_eq!(report.last_committed, 1, "{at}");
            assert_eq!(db2.region_snapshot(r).unwrap(), vec![1; len], "{at}");
            server.shutdown();
        }
    }
}

/// The region of the multi-frame sweep: its batched commit (undo, data
/// and record) takes several frames.
const BIG_REGION: usize = MAX_PIECE + MAX_PIECE / 2;

/// A pipelined database through the proxy whose first transaction filled
/// the whole big region with 1s.
fn big_setup(proxy: &CutProxy) -> (Perseas<TcpRemote>, RegionId) {
    let mirror = TcpRemote::connect_redialing(proxy.addr, 2, BackoffPolicy::default()).unwrap();
    let mut db = Perseas::init(vec![mirror], batched()).unwrap();
    let r = db.malloc(BIG_REGION).unwrap();
    db.init_remote_db().unwrap();
    fill_region(&mut db, r, BIG_REGION, 1).unwrap();
    (db, r)
}

/// Runs the big transaction (2s over the whole region) with the proxy
/// delivering `frames` whole request frames of its `total` and then
/// `tail_bytes` bytes of the next, and checks the outcome: after recovery
/// over a restarted server the image is the one before the transaction
/// or the one after it, and the one after it exactly when the commit's
/// last frame was delivered.
fn big_cut_and_check(frames: u64, tail_bytes: u64, total: u64, at: &str) {
    let server = Server::bind("big-sweep", "127.0.0.1:0").unwrap().start();
    let node = server.node().clone();
    let addr = server.addr();
    let proxy = spawn_cut_proxy(addr);
    let (mut db, r) = big_setup(&proxy);

    proxy.tail_bytes.store(tail_bytes, Ordering::SeqCst);
    proxy.remaining.store(frames, Ordering::SeqCst);
    let outcome = fill_region(&mut db, r, BIG_REGION, 2);
    let delivered = frames >= total;
    match &outcome {
        Ok(()) => assert!(delivered, "{at}: committed with a frame cut"),
        Err(err) => {
            assert!(!delivered, "{at}: {err}");
            assert!(matches!(err, TxnError::Unavailable(_)), "{at}: {err}");
        }
    }
    drop(db);

    server.shutdown();
    let server2 = Server::with_node(node, addr).unwrap().start();
    let last = 1 + u64::from(delivered);
    assert_eq!(durable_watermark(&server2), last, "{at}");
    let (db2, report) = Perseas::recover(TcpRemote::connect(addr).unwrap(), batched())
        .unwrap_or_else(|e| panic!("{at}: recovery failed: {e}"));
    assert_eq!(report.last_committed, last, "{at}");
    assert!(
        db2.region_snapshot(r).unwrap() == vec![last as u8; BIG_REGION],
        "{at}: the recovered image is not the one before or after the commit"
    );
    server2.shutdown();
}

/// A batched commit longer than one frame, cut before each of its frames
/// and in the middle of each: each frame but the last is confirmed before
/// the next is sent, so a cut leaves the mirror a prefix of the frames,
/// which recovery rolls back, and only a delivered last frame, which holds
/// the record, makes the commit durable.
#[test]
fn multi_frame_commit_cut_at_every_frame() {
    let frames = {
        let server = Server::bind("big-shape", "127.0.0.1:0").unwrap().start();
        let proxy = spawn_cut_proxy(server.addr());
        let (mut db, r) = big_setup(&proxy);
        let before = proxy.frames.lock().unwrap().len();
        fill_region(&mut db, r, BIG_REGION, 2).unwrap();
        let frames = proxy.frames.lock().unwrap().split_off(before);
        server.shutdown();
        frames
    };
    let total = frames.len() as u64;
    assert!(total >= 3, "the commit took {total} frames");
    assert!(frames.iter().all(|body| body.len() <= MAX_PIECE));
    for k in 0..=total {
        big_cut_and_check(k, 0, total, &format!("cut before frame {k} of {total}"));
    }
    for (k, body) in frames.iter().enumerate() {
        let middle = (body.len() as u64 + 8) / 2;
        big_cut_and_check(
            k as u64,
            middle,
            total,
            &format!("cut inside frame {k} of {total}"),
        );
    }
}
