//! Wall-clock benefit of the pipelined TCP transport: 8 transactions of
//! 8 small ranges committed over a server that delays every response by
//! 1 ms (the latency-injection knob, standing in for network RTT).
//!
//! The synchronous row dials a window of one write, so every remote write
//! waits out the previous one's round trip — `ops x latency` per commit.
//! The pipelined row dials the default window and posts the same
//! writes back-to-back and pays the latency only at the ack barriers
//! before and after the commit record, so the same workload collapses to
//! a few round trips per transaction. Writes `results/pipeline.csv` and
//! fails if pipelining is not at least 3x faster. With `--json` it also
//! emits `results/BENCH_pipeline.json` for the CI bench-regression gate;
//! the per-mode request counts come from the transport's own client
//! metrics and are protocol-determined, so the gate on them is exact.

use std::time::{Duration, Instant};

use perseas_bench::BenchReport;
use perseas_core::{Perseas, PerseasConfig, RegionId};
use perseas_obs::Registry;
use perseas_rnram::server::Server;
use perseas_rnram::{PipelineConfig, TcpRemote};

const TXNS: usize = 8;
const RANGES: usize = 8;
const RANGE_BYTES: usize = 16;
const LATENCY: Duration = Duration::from_millis(1);

fn build(
    pipelined: bool,
) -> (
    Perseas<TcpRemote>,
    RegionId,
    perseas_rnram::server::ServerHandle,
    Registry,
) {
    let server = Server::bind("pipeline-bench", "127.0.0.1:0")
        .expect("bind")
        .with_request_latency(LATENCY)
        .start();
    let cfg = if pipelined {
        PipelineConfig::default()
    } else {
        PipelineConfig {
            max_ops: 1,
            ..PipelineConfig::default()
        }
    };
    let mut conn = TcpRemote::connect_with(server.addr(), cfg).expect("connect");
    let registry = Registry::new();
    conn.set_metrics(&registry);
    let mut db = Perseas::init(vec![conn], PerseasConfig::default()).expect("init");
    let r = db.malloc(TXNS * RANGES * RANGE_BYTES).expect("malloc");
    db.init_remote_db().expect("publish");
    (db, r, server, registry)
}

/// A counter's current value in `registry` (0 if never incremented).
fn counter(registry: &Registry, name: &str) -> f64 {
    perseas_obs::parse_exposition(&registry.render())
        .expect("own exposition parses")
        .into_iter()
        .find(|s| s.name == name)
        .map_or(0.0, |s| s.value)
}

/// Requests put on the wire so far (awaited round trips + posted writes).
fn requests(registry: &Registry) -> f64 {
    counter(registry, "perseas_client_ops_total") + counter(registry, "perseas_client_posted_total")
}

/// Commits the workload and returns the measured wall time in
/// milliseconds plus the requests/bytes the commits put on the wire.
/// Setup (allocation, publish) stays outside both windows.
fn run(pipelined: bool) -> (f64, f64, f64) {
    let (mut db, r, server, registry) = build(pipelined);
    let before_requests = requests(&registry);
    let before_bytes = counter(&registry, "perseas_client_bytes_total");
    let started = Instant::now();
    for t in 0..TXNS {
        db.begin_transaction().expect("begin");
        for i in 0..RANGES {
            let off = (t * RANGES + i) * RANGE_BYTES;
            db.set_range(r, off, RANGE_BYTES).expect("set_range");
            db.write(r, off, &[t as u8 + 1; RANGE_BYTES])
                .expect("write");
        }
        db.commit_transaction().expect("commit");
    }
    let elapsed = started.elapsed().as_secs_f64() * 1e3;
    assert_eq!(db.last_committed(), TXNS as u64, "all txns durable");
    let wire_requests = requests(&registry) - before_requests;
    let wire_bytes = counter(&registry, "perseas_client_bytes_total") - before_bytes;
    server.shutdown();
    (elapsed, wire_requests, wire_bytes)
}

fn main() {
    let (sync_ms, sync_requests, sync_bytes) = run(false);
    let (pipe_ms, pipe_requests, pipe_bytes) = run(true);
    let ratio = sync_ms / pipe_ms;

    let row = |mode: &str, ms: f64| {
        format!(
            "{mode},{TXNS},{RANGES},{RANGE_BYTES},{},{ms:.3},{:.1}",
            LATENCY.as_millis(),
            TXNS as f64 / (ms / 1e3)
        )
    };
    let csv = format!(
        "mode,txns,ranges_per_txn,bytes_per_range,latency_ms,total_ms,txns_per_sec\n{}\n{}\n",
        row("sync", sync_ms),
        row("pipelined", pipe_ms)
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/pipeline.csv");
    std::fs::write(path, &csv).expect("write csv");

    println!(
        "pipeline: {TXNS} txns x {RANGES} ranges at {:?}/request — \
         sync {sync_ms:.1} ms vs pipelined {pipe_ms:.1} ms ({ratio:.2}x), \
         {sync_requests:.0}/{pipe_requests:.0} requests -> {path}",
        LATENCY
    );
    if let Some(json) = BenchReport::new("pipeline")
        .metric("sync_ms", sync_ms)
        .metric("pipelined_ms", pipe_ms)
        .metric("speedup", ratio)
        .metric("sync_requests", sync_requests)
        .metric("pipelined_requests", pipe_requests)
        .metric("sync_bytes", sync_bytes)
        .metric("pipelined_bytes", pipe_bytes)
        .gate_lower("sync_requests", 15.0)
        .gate_lower("pipelined_requests", 15.0)
        .gate_lower("pipelined_bytes", 15.0)
        .gate_higher("speedup", 40.0)
        .write_if_json_mode()
    {
        println!("pipeline: wrote {json}");
    }
    assert!(
        ratio >= 3.0,
        "pipelining must be at least 3x faster at {:?} request latency \
         (got {ratio:.2}x: sync {sync_ms:.1} ms, pipelined {pipe_ms:.1} ms)",
        LATENCY
    );
}
