//! The batched, vectored commit pipeline over real TCP mirrors.
//!
//! Connects to one or two running mirror servers (for instance
//! `perseas serve`), commits multi-range transactions with
//! `batched_commit` enabled — each commit is one `WriteV` frame per
//! mirror (undo, data, then the commit record), posted into a pipelined
//! connection's window and confirmed at the commit's barrier, instead of
//! one round-trip per range — and
//! prints the `CommitBatch` trace for the first transaction so the batch
//! shape is visible.
//!
//! ```text
//! cargo run -p perseas-cli -- serve --addr 127.0.0.1:7071
//! cargo run -p perseas-examples --bin batched_tcp -- 127.0.0.1:7071
//! ```

use std::env;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use perseas_core::{Perseas, PerseasConfig, TraceEvent, Tracer};
use perseas_rnram::TcpRemote;

/// Prints every event while enabled; the demo turns it off after the
/// first transaction so the timing loop is not dominated by stdout.
struct StdoutTracer(Arc<AtomicBool>);

impl Tracer for StdoutTracer {
    fn event(&mut self, event: &TraceEvent) {
        if self.0.load(Ordering::Relaxed) {
            println!("  trace: {event:?}");
        }
    }
}

fn main() -> ExitCode {
    let addrs: Vec<String> = env::args().skip(1).collect();
    if addrs.is_empty() {
        eprintln!("usage: batched_tcp <mirror-addr> [mirror-addr...]");
        return ExitCode::FAILURE;
    }
    match run(&addrs) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("batched_tcp failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(addrs: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let mut mirrors = Vec::new();
    for addr in addrs {
        let mut m = TcpRemote::connect(addr)?;
        println!("connected to mirror {} at {addr}", m.fetch_name()?);
        mirrors.push(m);
    }

    let cfg = PerseasConfig::default().with_batched_commit(true);
    let mut db = Perseas::init(mirrors, cfg)?;
    let ledger = db.malloc(4096)?;
    db.init_remote_db()?;

    let tracing = Arc::new(AtomicBool::new(true));
    db.set_tracer(Box::new(StdoutTracer(tracing.clone())));

    println!("first transaction (8 ranges, traced):");
    let n = 1_000u64;
    let started = std::time::Instant::now();
    for i in 0..n {
        db.begin_transaction()?;
        for r in 0..8usize {
            let slot = r * 512 + ((i as usize) % 56) * 8;
            db.set_range(ledger, slot, 8)?;
            db.write(ledger, slot, &i.to_le_bytes())?;
        }
        db.commit_transaction()?;
        tracing.store(false, Ordering::Relaxed);
    }
    let elapsed = started.elapsed();
    println!(
        "{n} batched 8-range transactions to {} mirror(s) in {elapsed:?} \
         ({:.0} txns/sec wall clock)",
        addrs.len(),
        n as f64 / elapsed.as_secs_f64()
    );

    // The availability story: lose the primary, recover from mirror 0.
    db.crash();
    let (db2, report) = Perseas::recover(
        TcpRemote::connect(&addrs[0])?,
        PerseasConfig::default().with_batched_commit(true),
    )?;
    println!(
        "recovered over TCP: last committed txn {} ({} bytes pulled back)",
        report.last_committed, report.bytes_recovered
    );
    let mut buf = [0u8; 8];
    db2.read(ledger, (n as usize - 1) % 56 * 8, &mut buf)?;
    assert_eq!(u64::from_le_bytes(buf), n - 1);
    println!("last committed value verified after recovery");
    Ok(())
}
