//! Threaded soak of the session multiplexer: real OS threads drive many
//! [`SessionMux`] sessions over a handful of shared sockets at once — a
//! ThreadSanitizer target in CI. Every thread's writes
//! must land intact in its own lane, session churn (create/drop with
//! windows in flight) must never corrupt a neighbour, and the server's
//! session gauge must return to zero.

use std::sync::{Arc, Barrier};
use std::thread;

use perseas_rnram::server::Server;
use perseas_rnram::{RemoteMemory, SessionMux};

const THREADS: usize = 8;
const ROUNDS: usize = 25;
const LANE: usize = 32;

#[test]
fn threaded_sessions_soak_their_own_lanes() {
    let registry = perseas_obs::Registry::new();
    let server = Server::bind("soak", "127.0.0.1:0")
        .unwrap()
        .with_metrics(&registry)
        .start();

    // Two shared sockets; threads alternate between them.
    let muxes = [
        SessionMux::connect(server.addr()).unwrap(),
        SessionMux::connect(server.addr()).unwrap(),
    ];

    // One shared segment, one disjoint lane per thread; plus a scratch
    // segment the churn sessions scribble on (its content is not
    // asserted — their writes race by design).
    let mut setup = muxes[0].session();
    let seg = setup.remote_malloc(THREADS * LANE, 7).unwrap();
    let scratch = setup.remote_malloc(THREADS * 8, 8).unwrap();
    drop(setup);

    let gate = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let mut s = muxes[t % muxes.len()].session();
            let churn_mux = muxes[(t + 1) % muxes.len()].clone();
            let gate = Arc::clone(&gate);
            thread::spawn(move || {
                gate.wait();
                for round in 0..ROUNDS {
                    let fill = (t * ROUNDS + round) as u8;
                    // Posted writes across the lane, confirmed at a
                    // barrier, then read back through the same session.
                    for chunk in 0..LANE / 8 {
                        s.remote_write(seg.id, t * LANE + chunk * 8, &[fill; 8])
                            .unwrap();
                    }
                    s.flush().unwrap();
                    let mut got = vec![0u8; LANE];
                    s.remote_read(seg.id, t * LANE, &mut got).unwrap();
                    assert_eq!(got, vec![fill; LANE], "thread {t} lane torn");

                    // Churn: a short-lived session on the *other* socket
                    // dies with a write still in flight.
                    if round % 5 == 0 {
                        let mut ephemeral = churn_mux.session();
                        ephemeral
                            .remote_write(scratch.id, t * 8, &[fill; 8])
                            .unwrap();
                        drop(ephemeral);
                    }
                }
                s
            })
        })
        .collect();

    let sessions: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // Final sweep: every lane holds its thread's last fill.
    let mut check = muxes[1].session();
    for t in 0..THREADS {
        let mut got = vec![0u8; LANE];
        check.remote_read(seg.id, t * LANE, &mut got).unwrap();
        assert_eq!(
            got,
            vec![(t * ROUNDS + ROUNDS - 1) as u8; LANE],
            "thread {t} final lane wrong"
        );
    }

    // Closing every session drains the server's gauge to the one
    // checker session still open.
    drop(sessions);
    check.ping().unwrap(); // forces the SessClose frames to be consumed
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
    loop {
        let text = registry.render();
        let line = text
            .lines()
            .find(|l| l.starts_with("perseas_server_sessions "))
            .unwrap()
            .to_string();
        if line == "perseas_server_sessions 1" {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "session gauge stuck: {line}"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    drop(check);
    server.shutdown();
}
