//! Backpressure and admission-control fault injection: a slow server with
//! a deliberately tiny shared window pool must queue to its bound, refuse
//! the overflow with typed `Overloaded` errors (never applying the refused
//! ops) through a private or a shared socket alike, drain cleanly once the
//! pressure lifts, and account for all of it in the `perseas-obs`
//! registry. Plus the
//! lost-window rule: a shared socket that dies with sessions in flight
//! surfaces `Unavailable` at the barrier, even with a working server back
//! on the address, and `Server::shutdown` stays prompt with a thousand
//! live sessions.

use std::time::{Duration, Instant};

use perseas_rnram::server::Server;
use perseas_rnram::{
    AdmissionConfig, PipelineConfig, RemoteMemory, RnError, SessionMux, TcpRemote,
};

/// Extracts the value of an unlabelled metric from a Prometheus
/// exposition.
fn metric_value(text: &str, name: &str) -> i64 {
    text.lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .unwrap_or_else(|| panic!("{name} missing from exposition"))
        .trim()
        .parse()
        .unwrap()
}

/// The burst-and-refuse scenario through one client: `open` yields the
/// client under test for the server's address.
fn overflow_case(open: impl FnOnce(std::net::SocketAddr) -> TcpRemote) {
    let registry = perseas_obs::Registry::new();
    let server = Server::bind("tiny-pool", "127.0.0.1:0")
        .unwrap()
        .with_metrics(&registry)
        .with_admission(AdmissionConfig {
            max_inflight: 2,
            max_queue: 3,
        })
        .with_request_latency(Duration::from_millis(120))
        .start();
    let mut s = open(server.addr());

    let seg = s.remote_malloc(64, 0).unwrap();
    // Burst 12 one-byte writes, each marking its own offset, into a pool
    // that holds at most 2 in flight + 3 queued. The overflow must be
    // refused without being applied.
    const BURST: usize = 12;
    for i in 0..BURST {
        s.remote_write(seg.id, i, &[0xEE]).unwrap();
    }
    let mut refused = 0;
    loop {
        match s.flush() {
            Ok(_) => break,
            Err(RnError::Overloaded) => refused += 1,
            Err(e) => panic!("expected typed Overloaded, got {e}"),
        }
    }
    assert!(refused > 0, "burst of {BURST} should overflow 2+3 slots");
    assert!(
        refused <= BURST - 2,
        "at least the admitted head must have been applied"
    );

    // Refused ops were never applied; admitted ops all were. The image
    // must account for exactly BURST - refused markers.
    let mut image = [0u8; BURST];
    s.remote_read(seg.id, 0, &mut image).unwrap();
    let applied = image.iter().filter(|&&b| b == 0xEE).count();
    assert_eq!(
        applied,
        BURST - refused,
        "applied + refused must cover the burst exactly: {image:?}"
    );

    // Drain-after-relief: with the queue empty again the same session
    // posts and flushes cleanly.
    s.remote_write(seg.id, 0, &[0x11]).unwrap();
    s.flush().unwrap();
    let mut one = [0u8; 1];
    s.remote_read(seg.id, 0, &mut one).unwrap();
    assert_eq!(one, [0x11]);

    // The registry accounted for the episode, and the transient gauges
    // return to zero once the pool goes idle. The server decrements them
    // just *after* the response bytes reach the socket, so give its
    // thread a moment to win that race.
    let deadline = Instant::now() + Duration::from_secs(2);
    let text = loop {
        let text = registry.render();
        let idle = metric_value(&text, "perseas_server_mux_queue_depth") == 0
            && metric_value(&text, "perseas_server_mux_inflight") == 0;
        if idle || Instant::now() > deadline {
            break text;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(
        metric_value(&text, "perseas_server_admission_refusals_total"),
        refused as i64
    );
    assert_eq!(metric_value(&text, "perseas_server_mux_queue_depth"), 0);
    assert_eq!(metric_value(&text, "perseas_server_mux_inflight"), 0);
    assert_eq!(metric_value(&text, "perseas_server_sessions"), 1);

    drop(s);
    server.shutdown();
}

#[test]
fn overflow_is_refused_typed_and_never_applied() {
    let window = PipelineConfig {
        max_ops: 64,
        max_bytes: 1 << 20,
    };
    // A private socket: the refusal is typed here too, not a protocol
    // error.
    overflow_case(|addr| TcpRemote::connect_with(addr, window).unwrap());
    // A session on a shared socket.
    overflow_case(|addr| SessionMux::connect(addr).unwrap().session_with(window));
}

#[test]
fn a_starved_session_does_not_block_its_neighbours_for_good() {
    // Two sessions share one refused-heavy socket: refusals land only in
    // the lane that earned them.
    let server = Server::bind("fair", "127.0.0.1:0")
        .unwrap()
        .with_admission(AdmissionConfig {
            max_inflight: 1,
            max_queue: 2,
        })
        .with_request_latency(Duration::from_millis(100))
        .start();
    let mux = SessionMux::connect(server.addr()).unwrap();
    let mut greedy = mux.session();
    let mut modest = mux.session();
    let seg = greedy.remote_malloc(64, 0).unwrap();

    for i in 0..8usize {
        greedy.remote_write(seg.id, i, &[1]).unwrap();
    }
    // One modest write rides the same saturated pool; it may be refused
    // or admitted, but always with a typed outcome, and the session
    // stays usable either way.
    modest.remote_write(seg.id, 32, &[2]).unwrap();
    let mut modest_refusals = 0;
    loop {
        match modest.flush() {
            Ok(_) => break,
            Err(RnError::Overloaded) => modest_refusals += 1,
            Err(e) => panic!("modest lane saw {e}"),
        }
    }
    assert!(modest_refusals <= 1, "one post risks at most one refusal");
    let mut greedy_refusals = 0;
    loop {
        match greedy.flush() {
            Ok(_) => break,
            Err(RnError::Overloaded) => greedy_refusals += 1,
            Err(e) => panic!("greedy lane saw {e}"),
        }
    }
    assert!(greedy_refusals > 0, "the 8-deep burst must overflow 1+2");

    // Both lanes work after relief.
    modest.remote_write(seg.id, 33, &[3]).unwrap();
    modest.flush().unwrap();
    greedy.remote_write(seg.id, 34, &[4]).unwrap();
    greedy.flush().unwrap();
    server.shutdown();
}

#[test]
fn lost_mux_window_surfaces_unavailable_not_a_silent_retry() {
    // A slow, tight server guarantees the shutdown drops queued writes:
    // the client's posted window dies with the socket.
    let server = Server::bind("doomed", "127.0.0.1:0")
        .unwrap()
        .with_admission(AdmissionConfig {
            max_inflight: 1,
            max_queue: 8,
        })
        .with_request_latency(Duration::from_millis(200))
        .start();
    let node = server.node().clone();
    let addr = server.addr();

    let mux = SessionMux::connect(addr).unwrap();
    let (mut r, mut sibling) = (mux.session(), mux.session());
    let seg = r.remote_malloc(64, 1).unwrap();
    for i in 0..4usize {
        r.remote_write(seg.id, i, &[9]).unwrap();
    }
    assert!(r.in_flight() > 0);

    // Shutdown drops the queued writes (only already-applied responses
    // are drained), then a fully working replacement accepts on the same
    // address — so a barrier on a fresh socket would *succeed*.
    // Unavailable is proof the lost window surfaced instead.
    server.shutdown();
    let server2 = Server::with_node(node, addr).unwrap().start();

    let err = r.flush().unwrap_err();
    assert!(err.is_unavailable(), "lost window surfaces: {err}");
    assert!(r.in_flight() > 0, "the lost window stays visible");
    // The socket is dead for every session on it.
    let err = sibling.segment_info(seg.id).unwrap_err();
    assert!(err.is_unavailable(), "{err}");
    assert!(mux.is_dead());

    // New work takes a new socket.
    let mut fresh = SessionMux::connect(addr).unwrap().session();
    assert_eq!(fresh.segment_info(seg.id).unwrap().id, seg.id);
    server2.shutdown();
}

#[test]
fn shutdown_with_a_thousand_live_sessions_is_prompt() {
    let registry = perseas_obs::Registry::new();
    let server = Server::bind("crowded", "127.0.0.1:0")
        .unwrap()
        .with_metrics(&registry)
        .start();

    // 1000 live sessions over 4 shared sockets, each touched once so the
    // server has really opened it.
    let muxes: Vec<SessionMux> = (0..4)
        .map(|_| SessionMux::connect(server.addr()).unwrap())
        .collect();
    let mut scratch = muxes[0].session();
    let seg = scratch.remote_malloc(8, 99).unwrap();
    drop(scratch);
    let mut sessions = Vec::with_capacity(1000);
    for mux in &muxes {
        for _ in 0..250 {
            let mut s = mux.session();
            // Posted, so opening 1000 sessions doesn't serialize on
            // round trips; the flush below confirms the whole batch.
            s.remote_write(seg.id, 0, &[1]).unwrap();
            sessions.push(s);
        }
    }
    for s in &mut sessions {
        s.flush().unwrap();
    }
    assert_eq!(
        metric_value(&registry.render(), "perseas_server_sessions"),
        1000
    );

    // The old implementation needed a dummy connection to unblock its
    // accept loop and could serve one request after the stop flag; the
    // event loop must go down promptly with every session still open.
    let t0 = Instant::now();
    server.shutdown();
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "shutdown with 1000 live sessions took {elapsed:?}"
    );
    drop(sessions); // best-effort SessClose against the dead socket: no panic
}

/// A request the admission queue parks keeps its own copy of its frame:
/// the server reads the socket straight into the connection's buffer and
/// applies a request where it lies, so by the time a parked `WriteV` is
/// admitted later frames have refilled that buffer over the bytes it
/// arrived in. It must still apply its own bytes.
#[test]
fn a_parked_write_v_applies_its_own_bytes() {
    let server = Server::bind("parked", "127.0.0.1:0")
        .unwrap()
        .with_admission(AdmissionConfig {
            max_inflight: 1,
            max_queue: 64,
        })
        .with_request_latency(Duration::from_millis(100))
        .start();
    let mux = SessionMux::connect(server.addr()).unwrap();
    let mut first = mux.session();
    let mut parked = mux.session();
    let seg = first.remote_malloc(1 << 20, 0).unwrap();

    // `first` takes the one slot until its acknowledgement is due.
    first.remote_write(seg.id, 0, &[1; 8]).unwrap();
    // Parked behind it: a short range, copied into the frame's head, and
    // a long one, sent from this buffer.
    let long: Vec<u8> = (0..4096u32).map(|i| (i * 13 + 5) as u8).collect();
    parked
        .remote_write_v(&[(seg.id, 100, &[0x5A; 16]), (seg.id, 8192, &long)])
        .unwrap();
    // Later frames, in later reads, larger than the buffer holds.
    std::thread::sleep(Duration::from_millis(20));
    let filler = vec![0xC3; 256 << 10];
    for k in 0..3 {
        first
            .remote_write(seg.id, (64 << 10) + k * filler.len(), &filler)
            .unwrap();
    }
    first.flush().unwrap();
    parked.flush().unwrap();

    let mut short = [0u8; 16];
    parked.remote_read(seg.id, 100, &mut short).unwrap();
    assert_eq!(short, [0x5A; 16]);
    let mut back = vec![0u8; long.len()];
    parked.remote_read(seg.id, 8192, &mut back).unwrap();
    assert!(back == long, "the parked write applied other bytes");
    let mut tail = vec![0u8; filler.len()];
    first
        .remote_read(seg.id, (64 << 10) + 2 * filler.len(), &mut tail)
        .unwrap();
    assert!(tail == filler);
    server.shutdown();
}
