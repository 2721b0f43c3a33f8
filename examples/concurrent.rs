//! The concurrent transaction engine: OS threads share one PERSEAS
//! instance through the `Send + Sync` handle layer.
//!
//! Four worker threads each run transfer transactions against their own
//! account slice (no conflicts, every commit lands), then all workers
//! fight over one hot account to show first-claimer-wins conflicts and
//! retries; every read claims its account, so no increment is lost.
//! Finishes with a crash and recovery to prove the committed
//! balances are durable on the simulated mirror.
//!
//! ```text
//! cargo run -p perseas-examples --bin concurrent
//! ```

use std::process::ExitCode;
use std::thread;

use perseas_core::{ConcurrentPerseas, Perseas, PerseasConfig, TxnError};
use perseas_rnram::SimRemote;
use perseas_sci::SciParams;
use perseas_simtime::SimClock;

const WORKERS: usize = 4;
const TRANSFERS: usize = 50;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("concurrent failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let backend = SimRemote::new("mirror");
    let node = backend.node().clone();
    let cfg = PerseasConfig::default().with_concurrent(true);
    let mut db = Perseas::init(vec![backend], cfg)?;
    // One 8-byte balance per worker, plus a shared hot account at the end.
    let accounts = db.malloc((WORKERS + 1) * 8)?;
    db.init_remote_db()?;
    let shared = ConcurrentPerseas::new(db)?;

    println!("{WORKERS} threads, disjoint accounts:");
    let workers: Vec<_> = (0..WORKERS)
        .map(|w| {
            let db = shared.clone();
            thread::spawn(move || {
                for _ in 0..TRANSFERS {
                    db.transaction(|tx| {
                        let mut buf = [0u8; 8];
                        tx.read(accounts, w * 8, &mut buf)?;
                        let next = u64::from_le_bytes(buf) + 1;
                        tx.update(accounts, w * 8, &next.to_le_bytes())
                    })
                    .expect("disjoint transfers cannot conflict");
                }
            })
        })
        .collect();
    for h in workers {
        h.join().expect("worker panicked");
    }
    for w in 0..WORKERS {
        let mut buf = [0u8; 8];
        shared.read(accounts, w * 8, &mut buf)?;
        println!("  account {w}: balance {}", u64::from_le_bytes(buf));
        assert_eq!(u64::from_le_bytes(buf), TRANSFERS as u64);
    }

    println!("{WORKERS} threads, one hot account (conflicts + retry):");
    let hot = WORKERS * 8;
    let fighters: Vec<_> = (0..WORKERS)
        .map(|_| {
            let db = shared.clone();
            thread::spawn(move || {
                let mut retries = 0usize;
                let mut done = 0usize;
                while done < TRANSFERS {
                    match db.transaction(|tx| {
                        let mut buf = [0u8; 8];
                        tx.read(accounts, hot, &mut buf)?;
                        let next = u64::from_le_bytes(buf) + 1;
                        tx.update(accounts, hot, &next.to_le_bytes())
                    }) {
                        Ok(()) => done += 1,
                        Err(TxnError::Conflict { .. }) => {
                            retries += 1;
                            thread::yield_now();
                        }
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
                retries
            })
        })
        .collect();
    let retries: usize = fighters
        .into_iter()
        .map(|h| h.join().expect("fighter panicked"))
        .sum();
    let mut buf = [0u8; 8];
    shared.read(accounts, hot, &mut buf)?;
    println!(
        "  hot account: balance {} after {} conflicts retried",
        u64::from_le_bytes(buf),
        retries
    );
    // Each read claims the hot account, so no increment is lost.
    assert_eq!(u64::from_le_bytes(buf), (WORKERS * TRANSFERS) as u64);

    let stats = shared.stats();
    println!(
        "engine: {} commits, {} group commits, {} conflicts",
        stats.commits, stats.group_commits, stats.conflicts
    );

    // The availability story survives concurrency: crash the primary and
    // recover every committed balance from the mirror.
    let db = shared
        .try_unwrap()
        .unwrap_or_else(|_| panic!("all handles returned"));
    drop(db);
    let fresh = SimRemote::with_parts(SimClock::new(), node, SciParams::dolphin_1998());
    let (db2, report) = Perseas::recover(fresh, cfg)?;
    let mut buf = [0u8; 8];
    db2.read(accounts, hot, &mut buf)?;
    println!(
        "recovered: last committed txn {}, hot balance {}",
        report.last_committed,
        u64::from_le_bytes(buf)
    );
    assert_eq!(u64::from_le_bytes(buf), (WORKERS * TRANSFERS) as u64);
    Ok(())
}
