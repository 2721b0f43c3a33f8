//! Snapshot-consistency property: 256 random interleavings of writers
//! and snapshot readers, every snapshot read checked against a serial
//! reference image.
//!
//! Each case replays a seeded schedule of writer steps (claim + write,
//! commit, abort — with claim conflicts predicted by a model claim
//! table) interleaved with snapshot activity (open, read, re-read,
//! close). The model records the committed image at the instant each
//! snapshot is opened; since a snapshot pins the commit watermark,
//! every later `read_s` on it must return exactly those bytes — i.e. the
//! serial-reference image at a watermark no newer than the snapshot's —
//! and repeated reads must be byte-identical. After every step at which
//! no snapshot is open, the version store must hold nothing: commits
//! keep their before-images only while some snapshot can read them.
//!
//! The concurrent engine runs the schedule with many open writers; the
//! unbatched, batched and redo paths run it with one writer at a time,
//! through `begin_transaction`. A subset of seeds twin-runs the
//! concurrent schedule over a real TCP server, once per client mode, and
//! must produce the same read digest and final image as the sim run.

use perseas_core::{Perseas, PerseasConfig, RegionId, SnapshotToken, TxnError, TxnToken};
use perseas_integration::TcpMode;
use perseas_rnram::server::Server;
use perseas_rnram::{RemoteMemory, SimRemote};
use perseas_simtime::{det_rng, DetRng};

const LEN: usize = 128;
const STEPS: usize = 60;
const MAX_TXNS: usize = 3;
const MAX_SNAPS: usize = 3;

fn cfg() -> PerseasConfig {
    PerseasConfig::default().with_concurrent(true)
}

/// The single-transaction commit paths.
fn single_cfgs() -> [(&'static str, PerseasConfig); 3] {
    let base = PerseasConfig::default();
    [
        ("unbatched", base),
        ("batched", base.with_batched_commit(true)),
        ("redo", base.with_redo(true)),
    ]
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Every open snapshot serves a random read, twice: it must equal the
/// reference image pinned at open, both times, despite any open
/// writers' dirty bytes and any commits since. The bytes read are
/// folded into `digest` (FNV-1a).
fn read_snapshots<M: RemoteMemory>(
    db: &Perseas<M>,
    r: RegionId,
    snaps: &[(SnapshotToken, Vec<u8>)],
    rng: &mut DetRng,
    digest: &mut u64,
    seed: u64,
) {
    for (snap, pinned) in snaps {
        let off = rng.gen_index(LEN - 1);
        let len = 1 + rng.gen_index(LEN - off);
        let a = db
            .read_range_s(*snap, r, off, len)
            .unwrap_or_else(|e| panic!("seed {seed}: snapshot read aborted: {e}"));
        assert_eq!(
            a,
            &pinned[off..off + len],
            "seed {seed}: snapshot diverged from the serial reference at [{off}, {})",
            off + len
        );
        let b = db.read_range_s(*snap, r, off, len).unwrap();
        assert_eq!(a, b, "seed {seed}: repeated snapshot read differed");
        for byte in a {
            *digest = (*digest ^ byte as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// With no snapshot open, no commit may have kept a version.
fn check_store_empty<M: RemoteMemory>(db: &Perseas<M>, open: usize, seed: u64) {
    assert_eq!(db.open_snapshot_count(), open);
    if open == 0 {
        assert_eq!(
            db.version_store_bytes(),
            0,
            "seed {seed}: the version store holds bytes while no snapshot is open"
        );
    }
}

/// Closes every snapshot in `snaps`, each still exact, then checks the
/// store drained.
fn close_snapshots<M: RemoteMemory>(
    db: &mut Perseas<M>,
    r: RegionId,
    snaps: &mut Vec<(SnapshotToken, Vec<u8>)>,
    seed: u64,
) {
    for (snap, pinned) in snaps.drain(..) {
        assert_eq!(
            db.read_range_s(snap, r, 0, LEN).unwrap(),
            pinned,
            "seed {seed}: snapshot diverged after teardown"
        );
        db.end_snapshot(snap);
    }
    check_store_empty(db, 0, seed);
}

struct OpenTxn {
    token: TxnToken,
    claims: Vec<(usize, usize)>,
    writes: Vec<(usize, usize, u8)>,
}

/// Runs one seeded schedule against `db`, panicking (with the seed) on
/// any snapshot read that diverges from the serial reference. Returns
/// `(final committed image, digest of every snapshot read)`.
fn run_case<M: RemoteMemory>(mut db: Perseas<M>, seed: u64) -> (Vec<u8>, u64) {
    let mut rng = det_rng(seed);
    let r = db.malloc(LEN).unwrap();
    db.init_remote_db().unwrap();

    // The serial reference: the committed image right now.
    let mut model = vec![0u8; LEN];
    let mut txns: Vec<OpenTxn> = Vec::new();
    let mut snaps: Vec<(SnapshotToken, Vec<u8>)> = Vec::new();
    let mut digest = FNV_OFFSET;
    let mut fill = 0u8;

    for _ in 0..STEPS {
        match rng.gen_index(10) {
            // Open a writer.
            0 | 1 if txns.len() < MAX_TXNS => {
                let token = db.begin_concurrent().unwrap();
                txns.push(OpenTxn {
                    token,
                    claims: Vec::new(),
                    writes: Vec::new(),
                });
            }
            // Claim + write a random range on a random open writer.
            2..=4 if !txns.is_empty() => {
                let i = rng.gen_index(txns.len());
                let off = rng.gen_index(LEN - 1);
                let len = 1 + rng.gen_index((LEN - off).min(24));
                let conflict = txns.iter().enumerate().any(|(j, t)| {
                    j != i && t.claims.iter().any(|&(s, e)| s < off + len && off < e)
                });
                match db.set_range_t(txns[i].token, r, off, len) {
                    Ok(()) => {
                        assert!(!conflict, "seed {seed}: engine missed a model conflict");
                        fill = fill.wrapping_add(1).max(1);
                        db.write_t(txns[i].token, r, off, &vec![fill; len]).unwrap();
                        txns[i].claims.push((off, off + len));
                        txns[i].writes.push((off, len, fill));
                    }
                    Err(TxnError::Conflict { .. }) => {
                        assert!(conflict, "seed {seed}: engine invented a conflict");
                        let t = txns.remove(i);
                        db.abort_t(t.token).unwrap();
                    }
                    Err(e) => panic!("seed {seed}: unexpected claim error: {e}"),
                }
            }
            // Commit a random open writer: its writes join the reference.
            5 | 6 if !txns.is_empty() => {
                let t = txns.remove(rng.gen_index(txns.len()));
                db.commit_group(&[t.token]).unwrap();
                for (off, len, b) in t.writes {
                    model[off..off + len].fill(b);
                }
            }
            // Abort a random open writer: it contributes nothing.
            7 if !txns.is_empty() => {
                let t = txns.remove(rng.gen_index(txns.len()));
                db.abort_t(t.token).unwrap();
            }
            // Open a snapshot, remembering the reference image it pins.
            8 if snaps.len() < MAX_SNAPS => {
                let snap = db.begin_snapshot().unwrap();
                snaps.push((snap, model.clone()));
            }
            // Close a random snapshot.
            9 if !snaps.is_empty() => {
                let (snap, _) = snaps.remove(rng.gen_index(snaps.len()));
                db.end_snapshot(snap);
            }
            _ => {}
        }

        read_snapshots(&db, r, &snaps, &mut rng, &mut digest, seed);
        check_store_empty(&db, snaps.len(), seed);
    }

    for t in txns.drain(..) {
        db.abort_t(t.token).unwrap();
    }
    close_snapshots(&mut db, r, &mut snaps, seed);
    let image = db.region_snapshot(r).unwrap();
    assert_eq!(image, model, "seed {seed}: committed image diverged");
    (image, digest)
}

/// The same schedule with one writer at a time, through
/// `begin_transaction`: no claim conflicts, and a transaction may
/// declare overlapping ranges.
fn run_single_case(mut db: Perseas<SimRemote>, seed: u64) {
    let mut rng = det_rng(seed);
    let r = db.malloc(LEN).unwrap();
    db.init_remote_db().unwrap();

    let mut model = vec![0u8; LEN];
    let mut txn: Option<Vec<(usize, usize, u8)>> = None;
    let mut snaps: Vec<(SnapshotToken, Vec<u8>)> = Vec::new();
    let mut digest = FNV_OFFSET;
    let mut fill = 0u8;

    for _ in 0..STEPS {
        match (rng.gen_index(10), txn.as_mut()) {
            (0 | 1, None) => {
                db.begin_transaction().unwrap();
                txn = Some(Vec::new());
            }
            (2..=4, Some(writes)) => {
                let off = rng.gen_index(LEN - 1);
                let len = 1 + rng.gen_index((LEN - off).min(24));
                db.set_range(r, off, len).unwrap();
                fill = fill.wrapping_add(1).max(1);
                db.write(r, off, &vec![fill; len]).unwrap();
                writes.push((off, len, fill));
            }
            (5 | 6, Some(writes)) => {
                db.commit_transaction().unwrap();
                for &(off, len, b) in writes.iter() {
                    model[off..off + len].fill(b);
                }
                txn = None;
            }
            (7, Some(_)) => {
                db.abort_transaction().unwrap();
                txn = None;
            }
            (8, _) if snaps.len() < MAX_SNAPS => {
                let snap = db.begin_snapshot().unwrap();
                snaps.push((snap, model.clone()));
            }
            (9, _) if !snaps.is_empty() => {
                let (snap, _) = snaps.remove(rng.gen_index(snaps.len()));
                db.end_snapshot(snap);
            }
            _ => {}
        }
        read_snapshots(&db, r, &snaps, &mut rng, &mut digest, seed);
        check_store_empty(&db, snaps.len(), seed);
    }

    if txn.is_some() {
        db.abort_transaction().unwrap();
    }
    close_snapshots(&mut db, r, &mut snaps, seed);
    let image = db.region_snapshot(r).unwrap();
    assert_eq!(image, model, "seed {seed}: committed image diverged");
}

fn sim_db(name: &str) -> Perseas<SimRemote> {
    Perseas::init(vec![SimRemote::new(name)], cfg()).unwrap()
}

#[test]
fn snapshot_reads_match_the_serial_reference_across_256_interleavings() {
    for seed in 0..256u64 {
        run_case(sim_db(&format!("prop-{seed}")), seed);
    }
}

#[test]
fn snapshot_reads_match_the_serial_reference_on_every_single_transaction_path() {
    for (name, cfg) in single_cfgs() {
        for seed in 0..256u64 {
            let mirror = SimRemote::new(format!("prop-{name}-{seed}"));
            let db = Perseas::init(vec![mirror], cfg).unwrap();
            run_single_case(db, seed);
        }
    }
}

#[test]
fn tcp_twin_runs_produce_identical_snapshot_reads() {
    for seed in 0..8u64 {
        let sim = run_case(sim_db(&format!("twin-{seed}")), seed);
        for mode in TcpMode::ALL {
            let server = Server::bind(format!("twin-tcp-{seed}"), "127.0.0.1:0")
                .unwrap()
                .start();
            let mirror = mode.connect(server.addr());
            let tcp = run_case(Perseas::init(vec![mirror], cfg()).unwrap(), seed);
            server.shutdown();
            assert_eq!(sim, tcp, "seed {seed}: sim and {mode:?} TCP runs diverged");
        }
    }
}
