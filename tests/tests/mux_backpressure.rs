//! Backpressure and admission-control fault injection: a slow server with
//! a deliberately tiny shared window pool must queue to its bound, refuse
//! the overflow with typed `Overloaded` errors (never applying the refused
//! ops) through a private or a shared socket alike, drain cleanly once the
//! pressure lifts, and account for all of it in the `perseas-obs`
//! registry. Plus the
//! retry-layer rule: a mux socket that dies with sessions in flight
//! surfaces `Unavailable` through [`ReconnectingRemote`] instead of
//! silently re-dialing, and `Server::shutdown` stays prompt with a
//! thousand live sessions.

use std::time::{Duration, Instant};

use perseas_rnram::server::Server;
use perseas_rnram::{
    AdmissionConfig, PipelineConfig, ReconnectingRemote, RemoteMemory, RnError, SessionMux,
    TcpRemote,
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

    let mut r = ReconnectingRemote::connect_mux(addr, 5).unwrap();
    let seg = r.remote_malloc(64, 1).unwrap();
    for i in 0..4usize {
        r.remote_write(seg.id, i, &[9]).unwrap();
    }
    assert!(r.in_flight() > 0);

    // Shutdown drops the queued writes (only already-applied responses
    // are drained), then a fully working replacement accepts on the same
    // address — so a silent retry would *succeed*. Unavailable is proof
    // the lost window surfaced instead.
    server.shutdown();
    let server2 = Server::with_node(node, addr).unwrap().start();

    let err = r.segment_info(seg.id).unwrap_err();
    assert!(err.is_unavailable(), "lost window surfaces: {err}");
    assert_eq!(r.in_flight(), 0, "the loss was reported and cleared");

    // With the loss on record, the wrapper re-dials the shared mux for
    // new work.
    assert_eq!(r.segment_info(seg.id).unwrap().id, seg.id);
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
