//! REDO-only commit path: log-structured commits, a snapshot, a crash,
//! and an instant restart — with the whole run captured as a JSONL
//! trace.
//!
//! ```text
//! cargo run -p perseas-examples --bin redo_restart [trace.jsonl]
//! ```
//!
//! With `PerseasConfig::with_redo(true)` commits append after-images to
//! a segmented remote log instead of shipping undo copies, so every
//! payload byte crosses the wire once. A snapshot stamps a consistent
//! region image plus the covered log position; recovery replays only
//! the live tail after it, so restart time is flat in history length.
//!
//! The optional argument names the JSONL trace file (CI uploads it as a
//! failure artifact); by default the trace lands in a temp directory.

use std::process::ExitCode;

use perseas_core::{JsonlTracer, Perseas, PerseasConfig};
use perseas_obs::JsonlSink;
use perseas_rnram::SimRemote;
use perseas_sci::SciParams;
use perseas_simtime::SimClock;

const SLOTS: usize = 64;
const WRITE: usize = 1 << 10;
const TXNS: u64 = 48;
const TAIL: u64 = 16;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("redo_restart demo failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let trace_path = std::env::args().nth(1).map_or_else(
        || std::env::temp_dir().join(format!("perseas-redo-restart-{}.jsonl", std::process::id())),
        std::path::PathBuf::from,
    );
    let sink = JsonlSink::to_file(&trace_path)?;

    // 8 KB segments: the 48 KB history rolls through several segments,
    // and the snapshot visibly retires the covered ones.
    let cfg = PerseasConfig::default()
        .with_redo(true)
        .with_redo_log(8 << 10, 16);
    let mirror = SimRemote::new("redo-mirror");
    let mirror_memory = mirror.node().clone(); // survives the crash below

    let mut db = Perseas::init(vec![mirror], cfg)?;
    db.set_tracer(Box::new(JsonlTracer::new(sink.clone())));
    let ledger = db.malloc(SLOTS * WRITE)?;
    db.init_remote_db()?;

    // A long committed history; each commit appends one after-image
    // record to the segmented log.
    let payload = vec![0xC4u8; WRITE];
    for i in 0..TXNS {
        db.begin_transaction()?;
        let off = (i as usize % SLOTS) * WRITE;
        db.set_range(ledger, off, WRITE)?;
        db.write(ledger, off, &payload)?;
        db.commit_transaction()?;
        // A snapshot 16 transactions before the crash: everything the
        // log holds up to here is retired, so only the tail replays.
        if i == TXNS - TAIL - 1 {
            db.redo_snapshot()?;
            println!("snapshot at txn {} — covered segments compacted", i + 1);
        }
    }
    println!("committed {TXNS} transactions on the redo log");
    db.crash();
    println!("crash!");

    // Restart: the recovering workstation loads the snapshot image and
    // replays only the live log tail.
    let backend = SimRemote::with_parts(SimClock::new(), mirror_memory, SciParams::dolphin_1998());
    let (db2, report) = Perseas::recover(backend, PerseasConfig::default().with_redo(true))?;
    println!(
        "recovered: last committed txn {}, replayed {} record(s) ({} bytes) in {:.1} us",
        report.last_committed,
        report.replayed_records,
        report.replayed_bytes,
        report.replay_virtual_nanos as f64 / 1e3,
    );
    if report.replayed_records != TAIL as usize {
        return Err(format!(
            "expected a {TAIL}-record tail replay, got {}",
            report.replayed_records
        )
        .into());
    }
    let mut buf = vec![0u8; WRITE];
    db2.read(ledger, 0, &mut buf)?;
    assert!(buf.iter().all(|&b| b == 0xC4), "recovered image intact");

    sink.flush();
    println!("trace: {}", trace_path.display());
    Ok(())
}
