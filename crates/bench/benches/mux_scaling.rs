//! Session-multiplexing soak and scaling bench (ISSUE 8): simulated
//! clients as logical sessions over a fixed pool of shared sockets
//! against the event-driven server, at 100 / 1 000 / 10 000 sessions.
//!
//! Every session posts one write and confirms it at a flush barrier; the
//! per-session wall latencies yield p50/p95/p99. Ack accounting is exact:
//! the number of confirmed posts must equal the number issued (a lost or
//! duplicated ack would either leave a window dirty or trip the client's
//! FIFO routing as a protocol error), and the server's session gauge must
//! account for every open session. With default admission limits this
//! well-behaved load must never be refused, so the refusal counters are
//! asserted zero and reported.
//!
//! The scaling claim is the fan-in: at 2 000 sessions the multiplexed
//! server carries `sessions / sockets` logical clients per connection —
//! each connection costing it one queue, not one thread — while a
//! thread-per-connection server carries exactly one. That server is gone;
//! its one-write p50 over the same socket count is kept as the recorded
//! [`THREADED_P50_US`]. Writes `results/mux_scaling.csv`; with `--json`
//! also emits `results/BENCH_mux_scaling.json` for the CI bench gate,
//! which gates the deterministic fan-in ratio.

use std::sync::Arc;
use std::time::{Duration, Instant};

use perseas_bench::BenchReport;
use perseas_obs::Registry;
use perseas_rnram::server::Server;
use perseas_rnram::{RemoteMemory, SessionMux};

const SCALES: [usize; 3] = [100, 1_000, 10_000];
const FANIN_SESSIONS: usize = 2_000;
const SOCKETS: usize = 16;
const WORKERS: usize = 8;
/// One confirmed write's p50 on the retired thread-per-connection server,
/// 16 sockets, as recorded in `results/baselines/BENCH_mux_scaling.json`.
const THREADED_P50_US: f64 = 17.3;

/// The value of an unlabelled counter/gauge in `registry`.
fn metric(registry: &Registry, name: &str) -> f64 {
    perseas_obs::parse_exposition(&registry.render())
        .expect("own exposition parses")
        .into_iter()
        .find(|s| s.name == name)
        .map_or(0.0, |s| s.value)
}

fn percentile(sorted_us: &[f64], q: f64) -> f64 {
    let idx = ((sorted_us.len() - 1) as f64 * q).round() as usize;
    sorted_us[idx]
}

struct ScaleRun {
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    refusals: f64,
}

/// Soaks `sessions` logical clients over `SOCKETS` shared sockets: every
/// session stays open for the whole run (the server's gauge must read
/// `sessions` at the end), posts one marked write, and confirms it.
fn run_scale(sessions: usize) -> ScaleRun {
    let registry = Registry::new();
    let server = Server::bind("mux-scale", "127.0.0.1:0")
        .expect("bind")
        .with_metrics(&registry)
        .start();
    let muxes: Arc<Vec<SessionMux>> = Arc::new(
        (0..SOCKETS)
            .map(|_| SessionMux::connect(server.addr()).expect("connect"))
            .collect(),
    );
    let mut scratch = muxes[0].session();
    let seg = scratch.remote_malloc(WORKERS * 8, 7).expect("malloc");
    drop(scratch);

    let handles: Vec<_> = (0..WORKERS)
        .map(|w| {
            let muxes = Arc::clone(&muxes);
            let quota = sessions / WORKERS + usize::from(w < sessions % WORKERS);
            std::thread::spawn(move || {
                let mut open = Vec::with_capacity(quota);
                let mut lat_us = Vec::with_capacity(quota);
                let mut confirmed = 0usize;
                for i in 0..quota {
                    let mut s = muxes[(w + i * WORKERS) % SOCKETS].session();
                    let t0 = Instant::now();
                    s.remote_write(seg.id, w * 8, &[i as u8; 8]).expect("post");
                    let stats = s.flush().expect("barrier");
                    lat_us.push(t0.elapsed().as_secs_f64() * 1e6);
                    confirmed += stats.posted;
                    assert_eq!(s.in_flight(), 0, "ack lost: window still dirty");
                    open.push(s); // stays open for the whole soak
                }
                (open, lat_us, confirmed)
            })
        })
        .collect();

    let mut all_open = Vec::with_capacity(sessions);
    let mut lat_us = Vec::with_capacity(sessions);
    let mut confirmed = 0usize;
    for h in handles {
        let (open, lats, conf) = h.join().expect("worker");
        all_open.extend(open);
        lat_us.extend(lats);
        confirmed += conf;
    }
    // Zero lost or duplicated acks: one barrier-confirmed post per
    // session, exactly.
    assert_eq!(confirmed, sessions, "confirmed acks != posted writes");

    // The server accounts for every open session (scratch already
    // closed). Its gauge moves just after the responses, so poll briefly.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let live = metric(&registry, "perseas_server_sessions");
        if live == sessions as f64 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "server tracks {live} of {sessions} sessions"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let refusals = metric(&registry, "perseas_server_admission_refusals_total");
    assert_eq!(refusals, 0.0, "well-behaved soak must never be refused");

    drop(all_open);
    server.shutdown();

    lat_us.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    ScaleRun {
        p50_us: percentile(&lat_us, 0.50),
        p95_us: percentile(&lat_us, 0.95),
        p99_us: percentile(&lat_us, 0.99),
        refusals,
    }
}

fn main() {
    let runs: Vec<(usize, ScaleRun)> = SCALES.iter().map(|&n| (n, run_scale(n))).collect();

    // Deterministic fan-in at the 2 000-session point: sessions per
    // socket on the mux server vs. the 1 session/socket the
    // thread-per-connection server supports by construction.
    let fanin_mux = FANIN_SESSIONS as f64 / SOCKETS as f64;
    let fanin_ratio = fanin_mux / 1.0;
    assert!(
        fanin_ratio >= 3.0,
        "mux must sustain at least 3x the sessions of thread-per-connection \
         at equal socket count (got {fanin_ratio:.1}x)"
    );

    let mut csv = String::from("sessions,sockets,p50_us,p95_us,p99_us,admission_refusals\n");
    for (n, r) in &runs {
        csv.push_str(&format!(
            "{n},{SOCKETS},{:.1},{:.1},{:.1},{}\n",
            r.p50_us, r.p95_us, r.p99_us, r.refusals
        ));
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/mux_scaling.csv");
    std::fs::write(path, &csv).expect("write csv");

    for (n, r) in &runs {
        println!(
            "mux_scaling: {n:>6} sessions over {SOCKETS} sockets — \
             p50 {:.0} us, p95 {:.0} us, p99 {:.0} us, {} refusals",
            r.p50_us, r.p95_us, r.p99_us, r.refusals
        );
    }
    println!(
        "mux_scaling: fan-in {fanin_mux:.0} sessions/socket vs 1 for \
         thread-per-connection ({fanin_ratio:.0}x, recorded threaded p50 \
         {THREADED_P50_US} us) -> {path}"
    );

    let mut report = BenchReport::new("mux_scaling");
    for (n, r) in &runs {
        report = report
            .metric(&format!("p50_us_{n}"), r.p50_us)
            .metric(&format!("p95_us_{n}"), r.p95_us)
            .metric(&format!("p99_us_{n}"), r.p99_us)
            .metric(&format!("admission_refusals_{n}"), r.refusals);
    }
    if let Some(json) = report
        .metric("fanin_sessions", FANIN_SESSIONS as f64)
        .metric("fanin_per_socket", fanin_mux)
        .metric("fanin_ratio_vs_threaded", fanin_ratio)
        .metric("threaded_p50_us", THREADED_P50_US)
        .gate_higher("fanin_ratio_vs_threaded", 20.0)
        .write_if_json_mode()
    {
        println!("mux_scaling: wrote {json}");
    }
}
