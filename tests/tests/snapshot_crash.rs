//! Crash and eviction sweeps for snapshot reads: the version store is
//! volatile, so every failure mode must surface as a *typed* error —
//! [`TxnError::Crashed`] on a crashed instance, [`TxnError::SnapshotTooOld`]
//! for tokens that predate a recovery or lost their versions to budget
//! pressure — and never as torn or stale bytes.

use perseas_core::{FaultPlan, Perseas, PerseasConfig, RegionId, TxnError};
use perseas_integration::reopen;
use perseas_obs::{parse_exposition, Registry};
use perseas_rnram::SimRemote;
use perseas_sci::NodeMemory;

const LEN: usize = 256;

/// The version store keeps at most 1 MiB of before-images: two commits
/// of `BIG` bytes cannot both stay.
const BIG: usize = (512 << 10) + 16;

/// The version store keeps at most this many versions.
const VERSION_ENTRIES: i64 = 4096;

fn cfg() -> PerseasConfig {
    PerseasConfig::default()
}

fn setup(c: PerseasConfig) -> (Perseas<SimRemote>, RegionId, NodeMemory) {
    setup_sized(c, LEN)
}

fn setup_sized(c: PerseasConfig, len: usize) -> (Perseas<SimRemote>, RegionId, NodeMemory) {
    let backend = SimRemote::new("snap-crash");
    let node = backend.node().clone();
    let mut db = Perseas::init(vec![backend], c).unwrap();
    let r = db.malloc(len).unwrap();
    db.init_remote_db().unwrap();
    (db, r, node)
}

/// Commits `byte` over `[offset, offset + len)` of `r`.
fn fill(db: &mut Perseas<SimRemote>, r: RegionId, offset: usize, len: usize, byte: u8) {
    db.begin_transaction().unwrap();
    db.set_range(r, offset, len).unwrap();
    db.write(r, offset, &vec![byte; len]).unwrap();
    db.commit_transaction().unwrap();
}

/// The value of the unlabelled metric `name` in `registry`.
fn metric(registry: &Registry, name: &str) -> i64 {
    let samples = parse_exposition(&registry.render()).unwrap();
    let sample = samples.iter().find(|s| s.name == name);
    sample.unwrap_or_else(|| panic!("no {name}")).value as i64
}

fn base_txn(db: &mut Perseas<SimRemote>, r: RegionId) {
    db.begin_transaction().unwrap();
    db.set_range(r, 0, 64).unwrap();
    db.write(r, 0, &[0xA1; 64]).unwrap();
    db.commit_transaction().unwrap();
}

fn second_txn(db: &mut Perseas<SimRemote>, r: RegionId) -> Result<(), TxnError> {
    db.begin_transaction()?;
    db.set_range(r, 32, 64)?;
    db.write(r, 32, &[0xB2; 64])?;
    db.commit_transaction()
}

/// Kills the commit at every protocol step while a snapshot is open. On
/// every crash point: reads on the dead instance fail `Crashed`, the
/// recovered instance refuses the stale token typed, and a fresh
/// snapshot on it serves the recovered image exactly.
#[test]
fn crash_at_every_commit_step_invalidates_open_snapshots_typed() {
    // Count the protocol steps of one clean run of the second
    // transaction alone (the sweep arms its plan after the base commit).
    let (mut db, r, _) = setup(cfg());
    base_txn(&mut db, r);
    let before = db.steps_taken();
    second_txn(&mut db, r).unwrap();
    let total = db.steps_taken() - before;
    assert!(total > 0, "commit must take protocol steps");

    for crash_at in 0..=total + 1 {
        let (mut db, r, node) = setup(cfg());
        base_txn(&mut db, r);
        let snap = db.begin_snapshot().unwrap();
        let pinned = db.region_snapshot(r).unwrap();

        db.set_fault_plan(FaultPlan::crash_after(crash_at));
        let res = second_txn(&mut db, r);
        if crash_at >= total {
            // The plan outlived the transaction: the snapshot still
            // serves its pinned pre-transaction image, exactly.
            res.unwrap_or_else(|e| panic!("crash_at={crash_at}: outlived plan failed: {e}"));
            assert_eq!(
                db.read_range_s(snap, r, 0, LEN).unwrap(),
                pinned,
                "crash_at={crash_at}: snapshot must pin the pre-commit image"
            );
            db.end_snapshot(snap);
            continue;
        }
        assert!(
            res.is_err(),
            "crash_at={crash_at} of {total}: the fault plan must kill the commit"
        );

        // Dead instance: typed refusal, and the caller's buffer is
        // untouched — never torn bytes.
        let mut buf = [0xEEu8; 8];
        assert!(
            matches!(db.read_s(snap, r, 0, &mut buf), Err(TxnError::Crashed)),
            "crash_at={crash_at}: reads on a crashed instance fail typed"
        );
        assert_eq!(buf, [0xEE; 8], "failed reads leave the buffer untouched");

        // Recovered instance: the stale token names a snapshot whose
        // volatile versions died with the process — typed refusal again.
        let (mut db2, _) = Perseas::recover(reopen(&node), cfg())
            .unwrap_or_else(|e| panic!("crash_at={crash_at}: recovery failed: {e}"));
        let mut buf = [0xEEu8; 8];
        assert!(
            matches!(
                db2.read_s(snap, r, 0, &mut buf),
                Err(TxnError::SnapshotTooOld { .. })
            ),
            "crash_at={crash_at}: recovered instances refuse pre-crash tokens"
        );
        assert_eq!(buf, [0xEE; 8]);

        // And a fresh snapshot on the recovered instance is exact.
        let image = db2.region_snapshot(r).unwrap();
        let fresh = db2.begin_snapshot().unwrap();
        assert_eq!(
            db2.read_range_s(fresh, r, 0, LEN).unwrap(),
            image,
            "crash_at={crash_at}: post-recovery snapshots serve the recovered image"
        );
        db2.end_snapshot(fresh);
    }
}

/// Same sweep through the concurrent engine's group commit: two
/// transactions commit as one group at every crash point while a
/// snapshot is open. The group lands all-or-nothing and the stale token
/// is refused typed either way.
#[test]
fn group_commit_crash_sweep_with_open_snapshot() {
    let conc = cfg().with_concurrent(true);
    let run_group = |db: &mut Perseas<SimRemote>, r: RegionId| -> Result<(), TxnError> {
        let t1 = db.begin_concurrent()?;
        let t2 = db.begin_concurrent()?;
        db.set_range_t(t1, r, 0, 32)?;
        db.write_t(t1, r, 0, &[0xC1; 32])?;
        db.set_range_t(t2, r, 128, 32)?;
        db.write_t(t2, r, 128, &[0xC2; 32])?;
        db.commit_group(&[t1, t2])
    };

    let (mut db, r, _) = setup(conc);
    let before = db.steps_taken();
    run_group(&mut db, r).unwrap();
    let total = db.steps_taken() - before;

    for crash_at in 0..=total {
        let (mut db, r, node) = setup(conc);
        let snap = db.begin_snapshot().unwrap();
        db.set_fault_plan(FaultPlan::crash_after(crash_at));
        let res = run_group(&mut db, r);

        let (db2, _) = Perseas::recover(reopen(&node), conc)
            .unwrap_or_else(|e| panic!("crash_at={crash_at}: recovery failed: {e}"));
        let image = db2.region_snapshot(r).unwrap();
        let pre = vec![0u8; LEN];
        let mut post = vec![0u8; LEN];
        post[0..32].fill(0xC1);
        post[128..160].fill(0xC2);
        assert!(
            image == pre || image == post,
            "crash_at={crash_at}: the group must land all-or-nothing"
        );
        if res.is_ok() {
            assert_eq!(image, post, "crash_at={crash_at}: durable group missing");
        }
        assert!(
            matches!(
                db2.read_range_s(snap, r, 0, LEN),
                Err(TxnError::SnapshotTooOld { .. })
            ),
            "crash_at={crash_at}: stale tokens refused after group-commit crash"
        );
    }
}

/// Commits past the version store's 1 MiB byte budget while a snapshot
/// is open: the eviction raises the reconstruction floor past the
/// snapshot, whose next read fails typed — the caller's buffer is never
/// filled with wrong bytes.
#[test]
fn byte_budget_eviction_fails_pinned_snapshots_typed() {
    let (mut db, r, _) = setup_sized(cfg(), BIG);
    base_txn(&mut db, r);

    let snap = db.begin_snapshot().unwrap();
    let pinned = db.region_snapshot(r).unwrap();

    // One big commit fits the budget: the snapshot still serves its
    // exact image.
    fill(&mut db, r, 0, BIG, 0xD1);
    assert_eq!(db.read_range_s(snap, r, 0, BIG).unwrap(), pinned);
    assert_eq!(db.version_store_bytes(), BIG);

    // A second cannot stay beside it: the first is evicted.
    fill(&mut db, r, 0, BIG, 0xD2);
    assert_eq!(db.version_store_bytes(), BIG);
    let mut buf = [0xEEu8; 8];
    match db.read_s(snap, r, 0, &mut buf) {
        Err(TxnError::SnapshotTooOld {
            read_seq,
            floor_seq,
        }) => {
            assert!(
                floor_seq > read_seq,
                "the floor rose past the snapshot's pin"
            );
        }
        other => panic!("expected SnapshotTooOld, got {other:?}"),
    }
    assert_eq!(buf, [0xEE; 8], "evicted snapshots never yield bytes");
    // Every later read fails the same way — the failure is sticky.
    assert!(db.read_range_s(snap, r, 0, 8).is_err());
    db.end_snapshot(snap);
    assert_eq!(db.version_store_bytes(), 0);

    // A snapshot pinned above the new floor is unaffected.
    let fresh = db.begin_snapshot().unwrap();
    fill(&mut db, r, 0, 64, 0xD3);
    let mut image = db.region_snapshot(r).unwrap();
    image[..64].fill(0xD2);
    assert_eq!(db.read_range_s(fresh, r, 0, BIG).unwrap(), image);
    db.end_snapshot(fresh);
    assert_eq!(db.version_store_bytes(), 0);
}

/// The entry budget behaves like the byte budget: one commit more than
/// the store's 4 096 versions evicts oldest-first past the pinned
/// snapshot. The version gauge follows the store throughout, and
/// closing a snapshot counts every version it held as evicted.
#[test]
fn entry_budget_eviction_fails_pinned_snapshots_typed() {
    let registry = Registry::new();
    let (mut db, r, _) = setup(cfg());
    db.set_metrics(&registry);
    let versions = || metric(&registry, "perseas_version_store_versions");
    let evictions = || metric(&registry, "perseas_version_evictions_total");
    base_txn(&mut db, r);
    assert_eq!((versions(), evictions()), (0, 0), "no snapshot: no version");

    // A snapshot held across k commits and then closed adds k.
    let k = 3;
    let snap = db.begin_snapshot().unwrap();
    for i in 0..k {
        fill(&mut db, r, 8 * i as usize, 8, i as u8);
    }
    assert_eq!(versions(), k);
    db.end_snapshot(snap);
    assert_eq!((versions(), evictions()), (0, k));

    let snap = db.begin_snapshot().unwrap();
    for i in 0..=VERSION_ENTRIES {
        fill(&mut db, r, 8 * (i % 32) as usize, 8, i as u8);
    }
    assert!(
        matches!(
            db.read_range_s(snap, r, 0, 8),
            Err(TxnError::SnapshotTooOld { .. })
        ),
        "entry pressure evicts past the open snapshot"
    );
    assert_eq!(db.version_store_bytes(), 8 * VERSION_ENTRIES as usize);
    assert_eq!((versions(), evictions()), (VERSION_ENTRIES, k + 1));
    db.end_snapshot(snap);
    assert_eq!(db.version_store_bytes(), 0);
    let released = k + VERSION_ENTRIES + 1;
    assert_eq!((versions(), evictions()), (0, released));
}
