//! Crash and recovery tests: the heart of the paper's reliability claims.
//!
//! The primary is crashed at every protocol step (and, separately, with
//! packet-granularity torn writes); recovery from the surviving mirror must
//! always produce either the pre-transaction or the post-transaction
//! database — never anything in between — and every transaction whose
//! commit record reached the mirror must survive.

use perseas_core::{FaultPlan, Perseas, PerseasConfig, ReadReplica, RegionId, TxnError};
use perseas_rnram::SimRemote;
use perseas_sci::{NodeMemory, SciParams};
use perseas_simtime::SimClock;

/// A fresh backend handle onto `node`, as a recovering workstation would
/// open.
fn reopen(node: &NodeMemory) -> SimRemote {
    SimRemote::with_parts(SimClock::new(), node.clone(), SciParams::dolphin_1998())
}

/// Builds a published database with one 256-byte region initialised to a
/// known pattern, returning (db, region, mirror node).
fn setup() -> (Perseas<SimRemote>, RegionId, NodeMemory) {
    let backend = SimRemote::new("mirror");
    let node = backend.node().clone();
    let mut db = Perseas::init(vec![backend], PerseasConfig::default()).unwrap();
    let r = db.malloc(256).unwrap();
    let init: Vec<u8> = (0..256).map(|i| i as u8).collect();
    db.write(r, 0, &init).unwrap();
    db.init_remote_db().unwrap();
    (db, r, node)
}

/// Runs the canonical two-range transaction against `db`.
fn run_txn(db: &mut Perseas<SimRemote>, r: RegionId) -> Result<(), TxnError> {
    db.begin_transaction()?;
    db.set_range(r, 0, 32)?;
    db.write(r, 0, &[0xAA; 32])?;
    db.set_range(r, 100, 50)?;
    db.write(r, 100, &[0xBB; 50])?;
    db.commit_transaction()
}

fn pre_image() -> Vec<u8> {
    (0..256).map(|i| i as u8).collect()
}

fn post_image() -> Vec<u8> {
    let mut v = pre_image();
    v[0..32].fill(0xAA);
    v[100..150].fill(0xBB);
    v
}

#[test]
fn recovery_without_crash_reproduces_database() {
    let (mut db, r, node) = setup();
    run_txn(&mut db, r).unwrap();
    let (db2, report) = Perseas::recover(reopen(&node), PerseasConfig::default()).unwrap();
    assert_eq!(db2.region_snapshot(r).unwrap(), post_image());
    assert_eq!(report.rolled_back_records, 0);
    assert_eq!(report.last_committed, 1);
    assert_eq!(report.regions, 1);
    assert_eq!(report.bytes_recovered, 256);
}

#[test]
fn crash_before_commit_record_loses_transaction_atomically() {
    // Crash after the data propagation but before the commit record: the
    // transaction must vanish entirely.
    let (mut db, r, node) = setup();
    // Count the steps of a full transaction first.
    run_txn(&mut db, r).unwrap();
    // New database, crash one step before the end.
    let (mut db, r2, node2) = setup();
    assert_eq!(r, r2);
    db.set_fault_plan(FaultPlan::crash_after(3)); // 2 set_ranges + 1 data write
    let err = run_txn(&mut db, r).unwrap_err();
    assert_eq!(err, TxnError::Crashed);
    assert!(db.is_crashed());
    drop(node);

    let (db2, report) = Perseas::recover(reopen(&node2), PerseasConfig::default()).unwrap();
    assert_eq!(db2.region_snapshot(r).unwrap(), pre_image());
    assert!(report.rolled_back_records > 0);
    assert_eq!(report.rolled_back_txn, Some(1));
}

#[test]
fn exhaustive_crash_point_sweep_preserves_atomicity() {
    // Determine the total number of protocol steps of the canonical
    // transaction.
    let (mut db, r, _) = setup();
    db.set_fault_plan(FaultPlan::none());
    run_txn(&mut db, r).unwrap();
    let total_steps = db.steps_taken();
    assert!(total_steps >= 5, "expected >= 5 steps, got {total_steps}");

    for crash_at in 0..total_steps {
        let (mut db, r, node) = setup();
        db.set_fault_plan(FaultPlan::crash_after(crash_at));
        let result = run_txn(&mut db, r);
        assert_eq!(result.unwrap_err(), TxnError::Crashed, "step {crash_at}");

        let (db2, _) = Perseas::recover(reopen(&node), PerseasConfig::default())
            .unwrap_or_else(|e| panic!("recovery failed at step {crash_at}: {e}"));
        let got = db2.region_snapshot(r).unwrap();
        // The commit record is the final step, so every crash in this
        // sweep must recover the pre-transaction image.
        assert_eq!(
            got,
            pre_image(),
            "crash at step {crash_at} exposed partial state"
        );
    }

    // Crashing after the final step means the transaction committed.
    let (mut db, r, node) = setup();
    db.set_fault_plan(FaultPlan::crash_after(total_steps));
    run_txn(&mut db, r).unwrap();
    db.crash();
    let (db2, _) = Perseas::recover(reopen(&node), PerseasConfig::default()).unwrap();
    assert_eq!(db2.region_snapshot(r).unwrap(), post_image());
}

#[test]
fn torn_remote_write_is_rolled_back() {
    // Cut the SCI link mid-burst at every packet count: the mirror sees a
    // realistic torn prefix; recovery must still restore the pre-image of
    // whatever the transaction touched.
    for cut_after in 0..24 {
        let backend = SimRemote::new("mirror");
        let node = backend.node().clone();
        let link = backend.link().clone();
        let mut db = Perseas::init(vec![backend], PerseasConfig::default()).unwrap();
        let r = db.malloc(256).unwrap();
        let init = pre_image();
        db.write(r, 0, &init).unwrap();
        db.init_remote_db().unwrap();

        link.cut_after_packets(cut_after);
        let result = run_txn(&mut db, r);
        link.heal();
        let (db2, _) = Perseas::recover(reopen(&node), PerseasConfig::default()).unwrap();
        let got = db2.region_snapshot(r).unwrap();
        if result.is_ok() {
            assert_eq!(got, post_image(), "cut {cut_after}: committed txn lost");
        } else {
            assert_eq!(got, pre_image(), "cut {cut_after}: partial state leaked");
        }
    }
}

#[test]
fn committed_prefix_survives_crash_during_later_transaction() {
    let (mut db, r, node) = setup();
    // Commit three transactions.
    for i in 0..3u8 {
        db.begin_transaction().unwrap();
        db.set_range(r, i as usize * 10, 10).unwrap();
        db.write(r, i as usize * 10, &[0xC0 + i; 10]).unwrap();
        db.commit_transaction().unwrap();
    }
    let committed = db.region_snapshot(r).unwrap();

    // Crash inside the fourth.
    db.set_fault_plan(FaultPlan::crash_after(0));
    db.begin_transaction().unwrap();
    db.set_range(r, 200, 20).unwrap_err(); // crashes at the remote push
    assert!(db.is_crashed());

    let (db2, report) = Perseas::recover(reopen(&node), PerseasConfig::default()).unwrap();
    assert_eq!(db2.region_snapshot(r).unwrap(), committed);
    assert_eq!(report.last_committed, 3);
}

#[test]
fn recovered_instance_keeps_committing() {
    let (mut db, r, node) = setup();
    run_txn(&mut db, r).unwrap();
    db.crash();

    let (mut db2, _) = Perseas::recover(reopen(&node), PerseasConfig::default()).unwrap();
    db2.begin_transaction().unwrap();
    db2.set_range(r, 200, 8).unwrap();
    db2.write(r, 200, &[0xEE; 8]).unwrap();
    db2.commit_transaction().unwrap();
    assert_eq!(db2.last_committed(), 2);

    // And a second crash/recovery still sees both transactions.
    db2.crash();
    let (db3, _) = Perseas::recover(reopen(&node), PerseasConfig::default()).unwrap();
    let got = db3.region_snapshot(r).unwrap();
    let mut want = post_image();
    want[200..208].fill(0xEE);
    assert_eq!(got, want);
}

#[test]
fn crash_right_after_abort_is_harmless() {
    // The paper's abort is local-only; stale records on the mirror must be
    // ignored (or harmlessly re-applied) by recovery.
    let (mut db, r, node) = setup();
    db.begin_transaction().unwrap();
    db.set_range(r, 0, 64).unwrap();
    db.write(r, 0, &[0xDD; 64]).unwrap();
    db.abort_transaction().unwrap();
    db.crash();

    let (db2, _) = Perseas::recover(reopen(&node), PerseasConfig::default()).unwrap();
    assert_eq!(db2.region_snapshot(r).unwrap(), pre_image());
}

#[test]
fn abort_then_commit_then_crash_keeps_committed_data() {
    let (mut db, r, node) = setup();
    // Abort a transaction touching range A.
    db.begin_transaction().unwrap();
    db.set_range(r, 0, 32).unwrap();
    db.write(r, 0, &[1; 32]).unwrap();
    db.abort_transaction().unwrap();
    // Commit a transaction touching range B.
    db.begin_transaction().unwrap();
    db.set_range(r, 64, 32).unwrap();
    db.write(r, 64, &[2; 32]).unwrap();
    db.commit_transaction().unwrap();
    db.crash();

    let (db2, _) = Perseas::recover(reopen(&node), PerseasConfig::default()).unwrap();
    let mut want = pre_image();
    want[64..96].fill(2);
    assert_eq!(db2.region_snapshot(r).unwrap(), want);
}

#[test]
fn crash_during_undo_growth_recovers_cleanly() {
    let cfg = PerseasConfig::default().with_initial_undo_capacity(64);
    let backend = SimRemote::new("mirror");
    let node = backend.node().clone();
    let mut db = Perseas::init(vec![backend], cfg).unwrap();
    let r = db.malloc(1024).unwrap();
    db.init_remote_db().unwrap();

    // Commit one transaction, then crash at each step of a transaction
    // whose undo log must grow.
    db.begin_transaction().unwrap();
    db.set_range(r, 0, 8).unwrap();
    db.write(r, 0, &[3; 8]).unwrap();
    db.commit_transaction().unwrap();
    let committed = db.region_snapshot(r).unwrap();

    for crash_at in 0..8 {
        let reopened = reopen(&node);
        let (mut db, _) = Perseas::recover(reopened, cfg).unwrap();
        db.set_fault_plan(FaultPlan::crash_after(crash_at));
        db.begin_transaction().unwrap();
        let res = db
            .set_range(r, 0, 512) // forces growth past 64 bytes
            .and_then(|_| db.write(r, 0, &[4; 512]))
            .and_then(|_| db.commit_transaction());
        let (db2, _) = Perseas::recover(reopen(&node), cfg).unwrap();
        let got = db2.region_snapshot(r).unwrap();
        if res.is_ok() {
            let mut want = committed.clone();
            want[..512].fill(4);
            assert_eq!(got, want, "crash_at={crash_at}");
            break;
        } else {
            assert_eq!(got, committed, "crash_at={crash_at}");
        }
    }
}

#[test]
fn recovery_fails_cleanly_on_blank_node() {
    let node = NodeMemory::new("blank");
    let err = Perseas::recover(reopen(&node), PerseasConfig::default()).unwrap_err();
    assert!(matches!(err, TxnError::Unavailable(_)));
}

#[test]
fn recovery_fails_cleanly_on_unpublished_database() {
    let backend = SimRemote::new("mirror");
    let node = backend.node().clone();
    let mut db = Perseas::init(vec![backend], PerseasConfig::default()).unwrap();
    let _ = db.malloc(64).unwrap();
    // No init_remote_db: the metadata segment exists but holds zeros.
    let err = Perseas::recover(reopen(&node), PerseasConfig::default()).unwrap_err();
    assert!(matches!(err, TxnError::Unavailable(_)));
}

#[test]
fn two_mirrors_recover_best_prefers_newest() {
    let a = SimRemote::new("a");
    let b = SimRemote::new("b");
    let (node_a, node_b) = (a.node().clone(), b.node().clone());
    let link_b = b.link().clone();
    let mut db = Perseas::init(vec![a, b], PerseasConfig::default()).unwrap();
    let r = db.malloc(64).unwrap();
    db.init_remote_db().unwrap();

    // First transaction reaches both mirrors.
    db.begin_transaction().unwrap();
    db.set_range(r, 0, 8).unwrap();
    db.write(r, 0, &[1; 8]).unwrap();
    db.commit_transaction().unwrap();

    // Cut mirror b, so the second transaction only lands on a.
    link_b.cut_after_packets(u64::MAX);
    db.begin_transaction().unwrap();
    db.set_range(r, 8, 8).unwrap();
    db.write(r, 8, &[2; 8]).unwrap();
    // b is wired after a in the mirror list, so a received everything
    // before the commit attempt fails on b.
    let _ = db.commit_transaction();
    db.crash();
    link_b.heal();

    let clock = SimClock::new();
    let (db2, report) = Perseas::recover_best(
        vec![reopen(&node_a), reopen(&node_b)],
        PerseasConfig::default(),
        clock,
    )
    .unwrap();
    // Mirror a carries commit record 2; it must win.
    assert!(report.last_committed >= 1);
    assert_eq!(db2.mirror_count(), 2);
    let snap = db2.region_snapshot(r).unwrap();
    assert_eq!(&snap[..8], &[1; 8]);
}

#[test]
fn availability_rebuild_on_third_node() {
    // The paper: "the database may be reconstructed quickly in any
    // workstation of the network".
    let (mut db, r, node) = setup();
    run_txn(&mut db, r).unwrap();
    db.crash();

    // A brand-new workstation recovers the database...
    let (mut db2, _) = Perseas::recover(reopen(&node), PerseasConfig::default()).unwrap();
    // ...and re-establishes redundancy on a third node.
    let third = SimRemote::new("third");
    let third_node = third.node().clone();
    db2.add_mirror(third).unwrap();
    assert_eq!(db2.mirror_count(), 2);

    // Now even if the original mirror dies, the data lives on the third.
    node.crash();
    db2.crash();
    let (db3, _) = Perseas::recover(reopen(&third_node), PerseasConfig::default()).unwrap();
    assert_eq!(db3.region_snapshot(r).unwrap(), post_image());
}

#[test]
fn stale_records_of_aborted_overlapping_txn_never_replay() {
    // Regression test: an aborted transaction with overlapping set_ranges
    // leaves undo records whose before-images contain its own uncommitted
    // mid-transaction values. If a *newer* in-flight transaction writes
    // fewer undo bytes and then crashes, the stale tail sits right behind
    // the new records — and must NOT be replayed by recovery.
    let (mut db, r, node) = setup();

    // Transaction 1: overlapping ranges, aborted. The second record's
    // before-image of byte 168 is the uncommitted 0xAA.
    db.begin_transaction().unwrap();
    db.set_range(r, 168, 60).unwrap();
    db.write(r, 168, &[0xAA; 60]).unwrap();
    db.set_range(r, 148, 21).unwrap(); // overlaps byte 168
    db.abort_transaction().unwrap();

    // Transaction 2: small, crashes mid-commit, leaving its (short)
    // records at the head of the undo log and txn 1's stale tail behind.
    db.set_fault_plan(FaultPlan::crash_after(1));
    db.begin_transaction().unwrap();
    db.set_range(r, 0, 4).unwrap();
    let _ = db
        .write(r, 0, &[0xBB; 4])
        .and_then(|_| db.commit_transaction());
    assert!(db.is_crashed());

    let (db2, _) = Perseas::recover(reopen(&node), PerseasConfig::default()).unwrap();
    assert_eq!(
        db2.region_snapshot(r).unwrap(),
        pre_image(),
        "a stale undo record of the aborted transaction leaked into recovery"
    );
}

#[test]
fn batched_ranges_crash_sweep() {
    // The batched declaration path must preserve atomicity at every
    // crash point, exactly like the per-range path.
    let run = |db: &mut Perseas<SimRemote>, r: RegionId| -> Result<(), TxnError> {
        db.begin_transaction()?;
        db.set_ranges(&[(r, 0, 32), (r, 100, 50)])?;
        db.write(r, 0, &[0xAA; 32])?;
        db.write(r, 100, &[0xBB; 50])?;
        db.commit_transaction()
    };
    let (mut db, r, _) = setup();
    run(&mut db, r).unwrap();
    let total = db.steps_taken();

    for crash_at in 0..=total {
        let (mut db, r, node) = setup();
        db.set_fault_plan(FaultPlan::crash_after(crash_at));
        let res = run(&mut db, r);
        let (db2, _) = Perseas::recover(reopen(&node), PerseasConfig::default()).unwrap();
        let got = db2.region_snapshot(r).unwrap();
        if res.is_ok() {
            assert_eq!(got, post_image(), "crash_at={crash_at}");
        } else {
            assert_eq!(got, pre_image(), "crash_at={crash_at}");
        }
    }
}

#[test]
fn a_replica_agrees_with_recovery_at_every_torn_commit() {
    // A read replica rolls a torn commit back locally by the same rules
    // recovery applies on the mirror. Cut the link at every packet of a
    // second commit spanning two regions, on each undo engine: a replica
    // attached to the torn mirror must show exactly what recovery from it
    // rebuilds.
    for (name, cfg) in [
        ("unbatched", PerseasConfig::default()),
        (
            "batched",
            PerseasConfig::default().with_batched_commit(true),
        ),
        ("concurrent", PerseasConfig::default().with_concurrent(true)),
    ] {
        let mut torn = 0;
        for cut in 0.. {
            let backend = SimRemote::new("mirror");
            let (node, link) = (backend.node().clone(), backend.link().clone());
            let mut db = Perseas::init(vec![backend], cfg).unwrap();
            let (r, s) = (db.malloc(256).unwrap(), db.malloc(128).unwrap());
            db.write(r, 0, &pre_image()).unwrap();
            db.init_remote_db().unwrap();
            run_txn(&mut db, r).unwrap();

            link.cut_after_packets(cut);
            let second = (|| {
                db.begin_transaction()?;
                db.set_ranges(&[(r, 16, 64), (s, 8, 32)])?;
                db.write(r, 16, &[0xCC; 64])?;
                db.write(s, 8, &[0xDD; 32])?;
                db.commit_transaction()
            })();
            link.heal();
            if second.is_ok() {
                break;
            }
            torn += 1;

            let replica = ReadReplica::attach(reopen(&node), cfg).unwrap();
            let (recovered, _) = Perseas::recover(reopen(&node), cfg).unwrap();
            for region in [r, s] {
                assert_eq!(
                    replica.region_snapshot(region).unwrap(),
                    recovered.region_snapshot(region).unwrap(),
                    "{name} cut={cut}: replica and recovery disagree on {region:?}"
                );
            }
        }
        assert!(torn > 0, "{name}: no cut tore the commit");
    }
}

#[test]
fn recovery_never_panics_on_corrupted_mirrors() {
    use perseas_simtime::det_rng;
    // Scribble random garbage over random remote segments; recovery must
    // either succeed (corruption missed the metadata invariants) or fail
    // with a clean error — never panic, never loop.
    let mut rng = det_rng(0xC0FFEE);
    for round in 0..60 {
        let (mut db, r, node) = setup();
        run_txn(&mut db, r).unwrap();
        db.crash();

        let segments = node.list_segments().unwrap();
        let n_corruptions = 1 + rng.gen_index(4);
        for _ in 0..n_corruptions {
            let seg = segments[rng.gen_index(segments.len())];
            if seg.len == 0 {
                continue;
            }
            let off = rng.gen_index(seg.len);
            let len = (1 + rng.gen_index(64)).min(seg.len - off);
            let mut junk = vec![0u8; len];
            rng.fill_bytes(&mut junk);
            node.write(seg.id, off, &junk).unwrap();
        }

        match Perseas::recover(reopen(&node), PerseasConfig::default()) {
            Ok((db2, _)) => {
                // Whatever survived must still be readable.
                let _ = db2.region_snapshot(r);
            }
            Err(e) => {
                assert!(matches!(e, TxnError::Unavailable(_)), "round {round}: {e}");
            }
        }
    }
}
