//! End-to-end observability: one metrics registry shared by the TCP
//! mirror server, the pipelined transport, and the transaction engine,
//! exported over a real `/metrics` HTTP endpoint, with the transaction
//! lifecycle mirrored into a JSONL trace.
//!
//! ```text
//! cargo run -p perseas-examples --bin observability
//! ```
//!
//! The same wiring in production is two flags away:
//! `perseas serve --metrics-addr 127.0.0.1:9185` on the mirror, and
//! `perseas stats --addr 127.0.0.1:9185` to read it back.

use std::process::ExitCode;

use perseas_core::{JsonlTracer, Perseas, PerseasConfig};
use perseas_obs::{JsonlSink, MetricsServer, Registry};
use perseas_rnram::server::Server;
use perseas_rnram::TcpRemote;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("observability demo failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    // One registry for every layer; one scrape shows the whole stack.
    let registry = Registry::new();

    let server = Server::bind("obs-mirror", "127.0.0.1:0")?
        .with_metrics(&registry)
        .start();
    let metrics = MetricsServer::serve("127.0.0.1:0", registry.clone())?;
    println!(
        "mirror on {}, metrics on http://{}/metrics",
        server.addr(),
        metrics.addr()
    );

    let mut conn = TcpRemote::connect(server.addr())?;
    conn.set_metrics(&registry);

    let mut db = Perseas::init(vec![conn], PerseasConfig::default())?;
    db.set_metrics(&registry);
    let sink = JsonlSink::in_memory();
    db.set_tracer(Box::new(JsonlTracer::new(sink.clone())));

    let ledger = db.malloc(4096)?;
    db.init_remote_db()?;
    for i in 0..100u64 {
        db.begin_transaction()?;
        let slot = ((i as usize) % 512) * 8;
        db.set_range(ledger, slot, 8)?;
        db.write(ledger, slot, &i.to_le_bytes())?;
        db.commit_transaction()?;
    }

    // Scrape over HTTP, exactly as Prometheus would.
    let exposition = perseas_obs::scrape(metrics.addr())?;
    let samples = perseas_obs::parse_exposition(&exposition)?;
    println!("scraped {} samples; highlights:", samples.len());
    for name in [
        "perseas_txn_committed_total",
        "perseas_txn_committed_bytes_total",
        "perseas_client_posted_total",
        "perseas_client_window_stalls_total",
        "perseas_server_bytes_in_total",
        "perseas_server_connections",
    ] {
        let value = samples
            .iter()
            .find(|s| s.name == name)
            .map_or(0.0, |s| s.value);
        println!("  {name:<42} {value:.0}");
    }
    let committed = samples
        .iter()
        .find(|s| s.name == "perseas_txn_committed_total")
        .map_or(0.0, |s| s.value);
    assert_eq!(committed, 100.0, "every commit is visible in the scrape");

    // The same milestones, as an ordered JSONL trace.
    let lines = sink.lines();
    println!("trace captured {} events; last commit:", lines.len());
    if let Some(line) = lines
        .iter()
        .rev()
        .find(|l| l.contains("\"kind\":\"txn_committed\""))
    {
        println!("  {line}");
    }

    server.shutdown();
    Ok(())
}
