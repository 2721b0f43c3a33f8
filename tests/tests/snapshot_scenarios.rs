//! Skewed-workload scenario suite for MVCC snapshot reads.
//!
//! The claim-table engine makes *readers* abort exactly when key choice
//! is skewed: a zipfian debit-credit mix hammers a few hot accounts, so a
//! reader that must claim its ranges keeps losing first-claimer-wins
//! races. Snapshot reads take no claims at all. Each scenario here runs a
//! skewed writer mix and proves the dichotomy: snapshot readers never
//! see `Conflict` or `SnapshotContention` (their reads are consistent
//! cuts — balance conservation holds inside every snapshot), while the
//! legacy claimed-read path aborts under the same interleavings.

use perseas_core::{Perseas, PerseasConfig, ReadReplica, RegionId, SnapshotToken, TxnError};
use perseas_integration::reopen;
use perseas_rnram::SimRemote;
use perseas_sci::NodeMemory;
use perseas_simtime::det_rng;
use perseas_workloads::{Hotspot, ReadMix, Zipfian};

const ACCOUNTS: usize = 64;
const CELL: usize = 8;
const OPENING_BALANCE: i64 = 1_000;

/// Builds a concurrent-engine instance holding `ACCOUNTS` i64 balances,
/// each opened at `OPENING_BALANCE`.
fn build_bank() -> (Perseas<SimRemote>, RegionId, NodeMemory) {
    let backend = SimRemote::new("bank-mirror");
    let node = backend.node().clone();
    let cfg = PerseasConfig::default().with_concurrent(true);
    let mut db = Perseas::init(vec![backend], cfg).unwrap();
    let r = db.malloc(ACCOUNTS * CELL).unwrap();
    db.init_remote_db().unwrap();
    let t = db.begin_concurrent().unwrap();
    db.set_range_t(t, r, 0, ACCOUNTS * CELL).unwrap();
    for i in 0..ACCOUNTS {
        db.write_t(t, r, i * CELL, &OPENING_BALANCE.to_le_bytes())
            .unwrap();
    }
    db.commit_group(&[t]).unwrap();
    (db, r, node)
}

fn balance_at(bytes: &[u8], account: usize) -> i64 {
    i64::from_le_bytes(
        bytes[account * CELL..(account + 1) * CELL]
            .try_into()
            .expect("8-byte cell"),
    )
}

fn total(bytes: &[u8]) -> i64 {
    (0..ACCOUNTS).map(|i| balance_at(bytes, i)).sum()
}

/// Commits one zipfian transfer: moves `amount` between two (possibly
/// hot) accounts. Returns the two accounts touched.
fn transfer(
    db: &mut Perseas<SimRemote>,
    r: RegionId,
    from: usize,
    to: usize,
    amount: i64,
) -> (usize, usize) {
    let t = db.begin_concurrent().unwrap();
    db.set_range_t(t, r, from * CELL, CELL).unwrap();
    let mut buf = [0u8; CELL];
    db.read_t(t, r, from * CELL, &mut buf).unwrap();
    let f = i64::from_le_bytes(buf) - amount;
    db.write_t(t, r, from * CELL, &f.to_le_bytes()).unwrap();
    if to != from {
        db.set_range_t(t, r, to * CELL, CELL).unwrap();
    }
    db.read_t(t, r, to * CELL, &mut buf).unwrap();
    let g = i64::from_le_bytes(buf) + amount;
    db.write_t(t, r, to * CELL, &g.to_le_bytes()).unwrap();
    db.commit_group(&[t]).unwrap();
    (from, to)
}

/// Reads the whole table at `snap`, asserting the read itself can never
/// abort: any error other than a bounds bug fails the scenario.
fn snapshot_table(db: &Perseas<SimRemote>, snap: SnapshotToken, r: RegionId) -> Vec<u8> {
    db.read_range_s(snap, r, 0, ACCOUNTS * CELL)
        .expect("snapshot reads never conflict")
}

#[test]
fn zipfian_transfers_conserve_balances_inside_every_snapshot() {
    let (mut db, r, _node) = build_bank();
    let zipf = Zipfian::new(ACCOUNTS);
    let mut rng = det_rng(0x5EED);

    // Snapshots opened at different watermarks stay open across many
    // commits; each remembers its first full-table image.
    let mut open: Vec<(SnapshotToken, Vec<u8>)> = Vec::new();
    for round in 0..150 {
        let from = zipf.sample(&mut rng);
        let to = zipf.sample(&mut rng);
        let amount = rng.gen_range(500) as i64;
        transfer(&mut db, r, from, to, amount);

        if round % 7 == 0 {
            let snap = db.begin_snapshot().unwrap();
            let image = snapshot_table(&db, snap, r);
            assert_eq!(
                total(&image),
                ACCOUNTS as i64 * OPENING_BALANCE,
                "a snapshot is a consistent cut: transfers conserve the total"
            );
            open.push((snap, image));
        }
        // Every open snapshot re-reads byte-identically, no matter how
        // many commits have landed since it was pinned.
        for (snap, image) in &open {
            assert_eq!(
                &snapshot_table(&db, *snap, r),
                image,
                "repeated reads within one snapshot are byte-identical"
            );
        }
        if open.len() > 4 {
            let (snap, _) = open.remove(0);
            db.end_snapshot(snap);
        }
    }
    for (snap, _) in open {
        db.end_snapshot(snap);
    }
    assert_eq!(db.open_snapshot_count(), 0);
    assert_eq!(
        db.version_store_bytes(),
        0,
        "closing the last snapshot drains the version store"
    );
}

#[test]
fn legacy_claimed_readers_abort_under_skew_where_snapshots_do_not() {
    let (mut db, r, _node) = build_bank();
    let hot = Hotspot::ninety_ten(ACCOUNTS);
    let mut rng = det_rng(0xCAFE);

    let mut legacy_conflicts = 0usize;
    let mut legacy_retries = 0usize;
    let mut snapshot_reads = 0usize;
    for _ in 0..60 {
        // A writer holds its claims on a hot account, mid-transaction.
        let target = hot.sample(&mut rng);
        let w = db.begin_concurrent().unwrap();
        db.set_range_t(w, r, target * CELL, CELL).unwrap();
        db.write_t(w, r, target * CELL, &7i64.to_le_bytes())
            .unwrap();

        // Legacy path: a reader must claim the range it reads, and keeps
        // losing to the writer until the writer is gone.
        let mut attempts = 0usize;
        loop {
            attempts += 1;
            let reader = db.begin_concurrent().unwrap();
            match db.set_range_t(reader, r, target * CELL, CELL) {
                Ok(()) => {
                    db.abort_t(reader).unwrap();
                    break;
                }
                Err(TxnError::Conflict { holder, .. }) => {
                    assert_eq!(holder, w.id(), "the open writer holds the claim");
                    legacy_conflicts += 1;
                    db.abort_t(reader).unwrap();
                    if attempts >= 3 {
                        legacy_retries += attempts - 1;
                        break;
                    }
                }
                Err(e) => panic!("unexpected claim error: {e}"),
            }
        }

        // MVCC path: the same read at the same moment, zero aborts — and
        // it sees the *committed* balance, not the writer's dirty bytes.
        let snap = db.begin_snapshot().unwrap();
        let mut buf = [0u8; CELL];
        db.read_s(snap, r, target * CELL, &mut buf)
            .expect("snapshot readers never conflict");
        assert_ne!(
            i64::from_le_bytes(buf),
            7,
            "uncommitted writer bytes are masked"
        );
        snapshot_reads += 1;
        db.end_snapshot(snap);

        db.abort_t(w).unwrap();
    }
    assert!(
        legacy_conflicts >= 60,
        "skewed claimed reads must conflict (got {legacy_conflicts})"
    );
    assert!(legacy_retries > 0, "legacy readers burned retries");
    assert_eq!(snapshot_reads, 60, "every snapshot read succeeded");
}

#[test]
fn long_scans_see_the_pinned_image_despite_concurrent_writers() {
    let (mut db, r, _node) = build_bank();
    let zipf = Zipfian::new(ACCOUNTS);
    let mut rng = det_rng(0x5CA4);

    let snap = db.begin_snapshot().unwrap();
    let expected = db.region_snapshot(r).unwrap();

    // Scan the table one cell at a time; between every two steps a
    // skewed writer commits, dirtying earlier *and* later scan positions.
    let mut scanned = Vec::with_capacity(ACCOUNTS * CELL);
    for i in 0..ACCOUNTS {
        let from = zipf.sample(&mut rng);
        let to = zipf.sample(&mut rng);
        transfer(&mut db, r, from, to, 13);
        scanned.extend_from_slice(&db.read_range_s(snap, r, i * CELL, CELL).unwrap());
    }
    assert_eq!(
        scanned, expected,
        "a long scan reassembles the exact image pinned at begin_snapshot"
    );
    db.end_snapshot(snap);

    // The live image has genuinely moved on — the scan was not trivially
    // reading an idle database.
    assert_ne!(db.region_snapshot(r).unwrap(), expected);
}

#[test]
fn read_mixes_95_5_and_50_50_never_abort_snapshot_readers() {
    for (read_permille, seed) in [(950u64, 0x95_05u64), (500, 0x50_50)] {
        let (mut db, r, _node) = build_bank();
        let hot = Hotspot::ninety_ten(ACCOUNTS);
        let mix = ReadMix::new(read_permille);
        let mut rng = det_rng(seed);

        let mut reads = 0usize;
        let mut writes = 0usize;
        for _ in 0..400 {
            if mix.is_read(&mut rng) {
                let snap = db.begin_snapshot().unwrap();
                let account = hot.sample(&mut rng);
                let mut buf = [0u8; CELL];
                db.read_s(snap, r, account * CELL, &mut buf)
                    .expect("snapshot readers never conflict in any mix");
                db.end_snapshot(snap);
                reads += 1;
            } else {
                let from = hot.sample(&mut rng);
                let to = hot.sample(&mut rng);
                transfer(&mut db, r, from, to, rng.gen_range(100) as i64);
                writes += 1;
            }
        }
        assert_eq!(reads + writes, 400);
        assert!(
            reads * 1000 >= 400 * (read_permille as usize - 100),
            "mix {read_permille}: got {reads} reads"
        );
        // The mix conserved money throughout.
        assert_eq!(
            total(&db.region_snapshot(r).unwrap()),
            ACCOUNTS as i64 * OPENING_BALANCE
        );
    }
}

#[test]
fn replicas_serve_snapshot_reads_while_the_primary_commits() {
    let (mut db, r, node) = build_bank();
    let zipf = Zipfian::new(ACCOUNTS);
    let mut rng = det_rng(0x4EB1);
    let cfg = PerseasConfig::default().with_concurrent(true);

    let mut replicas: Vec<ReadReplica<SimRemote>> = (0..3)
        .map(|_| ReadReplica::attach(reopen(&node), cfg).expect("attach replica"))
        .collect();
    let mut watermarks = vec![0u64; replicas.len()];

    for round in 0..40 {
        let from = zipf.sample(&mut rng);
        let to = zipf.sample(&mut rng);
        transfer(&mut db, r, from, to, rng.gen_range(200) as i64);

        // Leave a transaction in flight during some refreshes: its dirty
        // bytes must never leak into any replica's snapshot.
        let in_flight = if round % 3 == 0 {
            let w = db.begin_concurrent().unwrap();
            let a = zipf.sample(&mut rng);
            db.set_range_t(w, r, a * CELL, CELL).unwrap();
            db.write_t(w, r, a * CELL, &i64::MIN.to_le_bytes()).unwrap();
            Some(w)
        } else {
            None
        };

        for (i, replica) in replicas.iter_mut().enumerate() {
            let last = replica.refresh().expect("replica refresh never conflicts");
            assert!(
                last >= watermarks[i],
                "replica watermarks advance monotonically"
            );
            watermarks[i] = last;
            let image = replica.region_snapshot(r).unwrap();
            assert_eq!(
                total(&image),
                ACCOUNTS as i64 * OPENING_BALANCE,
                "replica snapshots are consistent cuts"
            );
            assert!(
                (0..ACCOUNTS).all(|a| balance_at(&image, a) != i64::MIN),
                "in-flight writer bytes never leak into a replica"
            );
        }

        if let Some(w) = in_flight {
            db.abort_t(w).unwrap();
        }
    }
}
