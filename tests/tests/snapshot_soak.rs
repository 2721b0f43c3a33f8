//! Threaded soak of the snapshot-read API on the `Send + Sync` handle
//! layer ([`ConcurrentPerseas`]): OS-thread writers transfer balances
//! between accounts while reader threads open snapshots and scan the
//! table. Every snapshot scan must be a consistent cut (balances
//! conserved, repeated reads byte-identical) and must never abort —
//! this is the ThreadSanitizer target of the CI `snapshot` job.

use std::thread;

use perseas_core::{ConcurrentPerseas, Perseas, PerseasConfig, RegionId, TxnError};
use perseas_rnram::server::Server;
use perseas_rnram::{RemoteMemory, SimRemote, TcpRemote};
use perseas_simtime::det_rng;

const ACCOUNTS: usize = 16;
const CELL: usize = 8;
const OPENING_BALANCE: i64 = 100;
const WRITER_THREADS: usize = 4;
const READER_THREADS: usize = 4;
const TRANSFERS_PER_WRITER: usize = 20;
const SNAPSHOTS_PER_READER: usize = 40;

fn cfg() -> PerseasConfig {
    PerseasConfig::default().with_concurrent(true)
}

fn publish<M: RemoteMemory>(mirrors: Vec<M>) -> (ConcurrentPerseas<M>, RegionId) {
    let mut db = Perseas::init(mirrors, cfg()).unwrap();
    let r = db.malloc(ACCOUNTS * CELL).unwrap();
    db.init_remote_db().unwrap();
    let shared = ConcurrentPerseas::new(db).unwrap();
    shared
        .transaction(|tx| {
            for i in 0..ACCOUNTS {
                tx.update(r, i * CELL, &OPENING_BALANCE.to_le_bytes())?;
            }
            Ok(())
        })
        .unwrap();
    (shared, r)
}

fn total(table: &[u8]) -> i64 {
    (0..ACCOUNTS)
        .map(|i| i64::from_le_bytes(table[i * CELL..(i + 1) * CELL].try_into().unwrap()))
        .sum()
}

/// Writers move money between random accounts (retrying claim
/// conflicts); readers concurrently scan snapshots that must always be
/// consistent cuts and must never see a reader abort.
fn soak<M: RemoteMemory + 'static>(shared: &ConcurrentPerseas<M>, r: RegionId) {
    let writers: Vec<_> = (0..WRITER_THREADS)
        .map(|w| {
            let db = shared.clone();
            thread::spawn(move || {
                let mut rng = det_rng(0x50AC + w as u64);
                for _ in 0..TRANSFERS_PER_WRITER {
                    let from = rng.gen_index(ACCOUNTS);
                    let to = rng.gen_index(ACCOUNTS);
                    loop {
                        // Undo-based writes land in place, so the second
                        // read sees the debit even when `to == from`.
                        match db.transaction(|tx| {
                            let mut buf = [0u8; CELL];
                            tx.read(r, from * CELL, &mut buf)?;
                            let f = i64::from_le_bytes(buf) - 1;
                            tx.update(r, from * CELL, &f.to_le_bytes())?;
                            tx.read(r, to * CELL, &mut buf)?;
                            let g = i64::from_le_bytes(buf) + 1;
                            tx.update(r, to * CELL, &g.to_le_bytes())
                        }) {
                            Ok(()) => break,
                            Err(TxnError::Conflict { .. }) => thread::yield_now(),
                            Err(e) => panic!("unexpected writer error: {e}"),
                        }
                    }
                }
            })
        })
        .collect();

    let readers: Vec<_> = (0..READER_THREADS)
        .map(|_| {
            let db = shared.clone();
            thread::spawn(move || {
                for _ in 0..SNAPSHOTS_PER_READER {
                    let snap = db.begin_snapshot().expect("begin snapshot");
                    let mut table = [0u8; ACCOUNTS * CELL];
                    db.read_snapshot(snap, r, 0, &mut table)
                        .expect("snapshot reads never conflict");
                    assert_eq!(
                        total(&table),
                        ACCOUNTS as i64 * OPENING_BALANCE,
                        "a snapshot scan is a consistent cut"
                    );
                    let mut again = [0u8; ACCOUNTS * CELL];
                    db.read_snapshot(snap, r, 0, &mut again).unwrap();
                    assert_eq!(table, again, "repeated snapshot reads are identical");
                    db.end_snapshot(snap);
                    thread::yield_now();
                }
            })
        })
        .collect();

    for h in writers.into_iter().chain(readers) {
        h.join().unwrap();
    }

    // Quiesced: balances conserved and the version store drained.
    let mut table = [0u8; ACCOUNTS * CELL];
    shared.read(r, 0, &mut table).unwrap();
    assert_eq!(total(&table), ACCOUNTS as i64 * OPENING_BALANCE);
    assert_eq!(shared.open_txn_count(), 0);
}

#[test]
fn sim_mode_snapshot_soak() {
    let (shared, r) = publish(vec![
        SimRemote::new("snap-soak-1"),
        SimRemote::new("snap-soak-2"),
    ]);
    soak(&shared, r);
}

#[test]
fn tcp_mode_snapshot_soak() {
    let server = Server::bind("snap-soak-tcp", "127.0.0.1:0")
        .unwrap()
        .start();
    let remote = TcpRemote::connect(server.addr()).unwrap();
    let (shared, r) = publish(vec![remote]);
    soak(&shared, r);
    drop(shared);
    server.shutdown();
}
