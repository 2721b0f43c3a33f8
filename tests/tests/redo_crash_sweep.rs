//! Exhaustive crash-point sweep over the REDO commit path.
//!
//! The redo pipeline has more moving parts than the undo paths — log
//! appends (segment opens, record bursts, tail lines), commit markers,
//! snapshots, and compactions — and every one of them is a fault step.
//! Each test crashes a fixed workload after every possible protocol step
//! `k`, then recovers from each surviving mirror independently. Every
//! recovery must observe a transactionally consistent state: each
//! transaction all-or-nothing (atomicity), and everything the library
//! reported committed present (durability). Snapshots and compactions
//! must never change the logical state, no matter where they die.

use perseas_core::{FaultPlan, Perseas, PerseasConfig, RegionId, TxnError};
use perseas_integration::reopen;
use perseas_rnram::SimRemote;
use perseas_sci::{NodeMemory, SciParams};
use perseas_simtime::SimClock;

const LEN_A: usize = 256;
const LEN_B: usize = 128;

fn redo_cfg() -> PerseasConfig {
    // Small segments so the sweep crosses segment boundaries (and the
    // snapshot sweep actually compacts) within a short workload.
    PerseasConfig::default()
        .with_redo(true)
        .with_redo_log(512, 8)
}

fn setup2(cfg: PerseasConfig) -> (Perseas<SimRemote>, [RegionId; 2], NodeMemory, NodeMemory) {
    let clock = SimClock::new();
    let a = SimRemote::with_parts(
        clock.clone(),
        NodeMemory::new("a"),
        SciParams::dolphin_1998(),
    );
    let b = SimRemote::with_parts(
        clock.clone(),
        NodeMemory::new("b"),
        SciParams::dolphin_1998(),
    );
    let (na, nb) = (a.node().clone(), b.node().clone());
    let mut db = Perseas::init_with_clock(vec![a, b], cfg, clock).unwrap();
    let ra = db.malloc(LEN_A).unwrap();
    let rb = db.malloc(LEN_B).unwrap();
    let (pa, pb) = pre();
    db.write(ra, 0, &pa).unwrap();
    db.write(rb, 0, &pb).unwrap();
    db.init_remote_db().unwrap();
    (db, [ra, rb], na, nb)
}

/// One multi-range transaction touching both regions with overlapping
/// and adjacent declarations, exactly as the undo-path sweeps use.
fn run_txn(db: &mut Perseas<SimRemote>, r: [RegionId; 2]) -> Result<(), TxnError> {
    db.begin_transaction()?;
    db.set_range(r[0], 0, 40)?;
    db.write(r[0], 0, &[0xA1; 40])?;
    db.set_range(r[0], 32, 32)?;
    db.write(r[0], 32, &[0xA2; 32])?;
    db.set_ranges(&[(r[0], 100, 24), (r[1], 0, 16), (r[1], 16, 8)])?;
    db.write(r[0], 100, &[0xA3; 24])?;
    db.write(r[1], 0, &[0xB1; 16])?;
    db.write(r[1], 16, &[0xB2; 8])?;
    db.set_range(r[0], 200, 8)?;
    db.write(r[0], 200, &[0xA4; 8])?;
    db.commit_transaction()
}

fn pre() -> (Vec<u8>, Vec<u8>) {
    (
        (0..LEN_A).map(|i| i as u8).collect(),
        (0..LEN_B).map(|i| (i as u8) ^ 0x5A).collect(),
    )
}

fn post() -> (Vec<u8>, Vec<u8>) {
    let (mut a, mut b) = pre();
    a[0..40].fill(0xA1);
    a[32..64].fill(0xA2);
    a[100..124].fill(0xA3);
    a[200..208].fill(0xA4);
    b[0..16].fill(0xB1);
    b[16..24].fill(0xB2);
    (a, b)
}

fn recover_cfg() -> PerseasConfig {
    PerseasConfig::default().with_redo(true)
}

#[test]
fn redo_commit_survives_every_crash_point() {
    // Count the protocol steps of one clean run.
    let (mut db, r, _, _) = setup2(redo_cfg());
    run_txn(&mut db, r).unwrap();
    let total = db.steps_taken();
    assert!(total >= 4, "redo path unexpectedly short: {total}");

    for crash_at in 0..=total + 1 {
        let (mut db, r, na, nb) = setup2(redo_cfg());
        db.set_fault_plan(FaultPlan::crash_after(crash_at));
        let res = run_txn(&mut db, r);
        if crash_at > total {
            res.as_ref()
                .unwrap_or_else(|e| panic!("crash_at={crash_at}: outlived plan failed: {e}"));
        }

        let (pa, pb) = pre();
        let (qa, qb) = post();
        for (name, node) in [("a", &na), ("b", &nb)] {
            let (db2, _) = Perseas::recover(reopen(node), recover_cfg()).unwrap_or_else(|e| {
                panic!("crash_at={crash_at}: mirror {name} unrecoverable: {e}")
            });
            let ga = db2.region_snapshot(r[0]).unwrap();
            let gb = db2.region_snapshot(r[1]).unwrap();
            let is_pre = ga == pa && gb == pb;
            let is_post = ga == qa && gb == qb;
            assert!(
                is_pre || is_post,
                "crash_at={crash_at}: mirror {name} holds a partial state"
            );
            if res.is_ok() {
                assert!(
                    is_post,
                    "crash_at={crash_at}: durable txn missing on mirror {name}"
                );
            }
        }
    }
}

/// The expected image of region `r` after `n` committed script
/// transactions: txn `i` (1-based) writes `[i; 8]` at `(i-1)*8`.
fn scripted_state(n: u64) -> Vec<u8> {
    let mut a: Vec<u8> = (0..LEN_A).map(|i| i as u8).collect();
    for i in 1..=n {
        let at = ((i - 1) as usize * 8) % (LEN_A - 8);
        a[at..at + 8].fill(i as u8);
    }
    a
}

/// Runs the snapshot/compaction script, stopping at the first error:
/// `batches[k]` transactions, then a snapshot between batches. Returns
/// how many transactions reported success.
fn run_script(db: &mut Perseas<SimRemote>, r: RegionId, batches: &[u64]) -> u64 {
    let mut ok = 0u64;
    let txn = |db: &mut Perseas<SimRemote>, i: u64| -> Result<(), TxnError> {
        let at = ((i - 1) as usize * 8) % (LEN_A - 8);
        db.begin_transaction()?;
        db.set_range(r, at, 8)?;
        db.write(r, at, &[i as u8; 8])?;
        db.commit_transaction()
    };
    for (k, &n) in batches.iter().enumerate() {
        if k > 0 && db.redo_snapshot().is_err() {
            return ok;
        }
        for i in ok + 1..=ok + n {
            if txn(db, i).is_err() {
                return ok;
            }
            ok = i;
        }
    }
    ok
}

/// Crashes the commit/snapshot/compaction script after every protocol
/// step. The recovered state must always equal the image after exactly
/// `last_committed` transactions — snapshots and compactions are pure
/// log maintenance and must never lose or invent a commit.
#[test]
fn redo_snapshot_and_compaction_survive_every_crash_point() {
    let (mut db, r, _, _) = setup2(redo_cfg());
    assert_eq!(run_script(&mut db, r[0], &[4, 2, 1]), 7);
    let total = db.steps_taken();
    // The script must actually compact: small segments + two snapshots.
    assert!(total > 20, "script too short to cover maintenance: {total}");
    sweep_script(redo_cfg(), &[4, 2, 1], total);
}

/// The same sweep over a two-slot log that the script laps: its 44-byte
/// records fill five to a 256-byte segment, and 20 transactions with a
/// snapshot after every six take the log through sequences 0 to 3, so
/// the last two are written into recycled segments over the first lap's
/// records. Crash points fall mid-append, mid-snapshot and at the retire
/// step inside recycled segments.
#[test]
fn a_wrapping_log_survives_every_crash_point() {
    let cfg = redo_cfg().with_redo_log(256, 2);
    let batches = [6, 6, 6, 2];
    let (mut db, r, _, _) = setup2(cfg);
    let tracer = perseas_core::RecordingTracer::new();
    db.set_tracer(Box::new(tracer.clone()));
    assert_eq!(run_script(&mut db, r[0], &batches), 20);
    let events = tracer.events();
    let recycled = events.iter().filter(
        |e| matches!(e, perseas_core::TraceEvent::RedoSegmentOpened { seq, .. } if *seq >= 2),
    );
    assert_eq!(recycled.count(), 2, "the script must lap the log");
    let retired = events
        .iter()
        .filter(|e| matches!(e, perseas_core::TraceEvent::RedoCompacted { .. }));
    assert_eq!(retired.count(), 3, "every snapshot retires a segment");
    sweep_script(cfg, &batches, db.steps_taken());
}

/// Crashes `run_script(batches)` after every protocol step up to past
/// `total`, and recovers each mirror on its own.
fn sweep_script(cfg: PerseasConfig, batches: &[u64], total: u64) {
    let all: u64 = batches.iter().sum();
    for crash_at in 0..=total + 1 {
        let (mut db, r, na, nb) = setup2(cfg);
        db.set_fault_plan(FaultPlan::crash_after(crash_at));
        let ok = run_script(&mut db, r[0], batches);
        if crash_at > total {
            assert_eq!(ok, all, "crash_at={crash_at}: outlived plan lost commits");
        }

        for (name, node) in [("a", &na), ("b", &nb)] {
            let (db2, _) = Perseas::recover(reopen(node), recover_cfg()).unwrap_or_else(|e| {
                panic!("crash_at={crash_at}: mirror {name} unrecoverable: {e}")
            });
            let got = db2.region_snapshot(r[0]).unwrap();
            // Each script txn writes a distinct range, so the image
            // uniquely identifies how many commits survived. (The
            // watermark itself may sit higher: recovery consumes the
            // ids of tombstoned in-flight transactions too.)
            let n = (0..=all)
                .find(|&n| got == scripted_state(n))
                .unwrap_or_else(|| {
                    panic!("crash_at={crash_at}: mirror {name} holds a partial state")
                });
            assert!(
                n >= ok,
                "crash_at={crash_at}: mirror {name} lost a durable commit ({n} < {ok})"
            );
            assert!(
                db2.last_committed() >= n,
                "crash_at={crash_at}: watermark below applied commits"
            );
        }
    }
}

/// A redo append is one crash *point*, but the SCI link can still die
/// mid-message, leaving a packet-aligned prefix of the burst applied
/// (records without the tail line, a torn record, a dir entry without
/// its records...). Sweep the cut across every packet: the recovered
/// state must always be all-or-nothing.
#[test]
fn torn_redo_bursts_roll_back_cleanly() {
    for cut_at in 0..=40u64 {
        let clock = SimClock::new();
        let backend = SimRemote::with_parts(
            clock.clone(),
            NodeMemory::new("m"),
            SciParams::dolphin_1998(),
        );
        let node = backend.node().clone();
        let link = backend.link().clone();
        let mut db = Perseas::init_with_clock(vec![backend], redo_cfg(), clock).unwrap();
        let ra = db.malloc(LEN_A).unwrap();
        let rb = db.malloc(LEN_B).unwrap();
        let (pa, pb) = pre();
        db.write(ra, 0, &pa).unwrap();
        db.write(rb, 0, &pb).unwrap();
        db.init_remote_db().unwrap();

        link.cut_after_packets(cut_at);
        let res = run_txn(&mut db, [ra, rb]);
        link.heal();
        if let Err(e) = &res {
            assert!(
                matches!(e, TxnError::Unavailable(_)),
                "cut_at={cut_at}: unexpected error {e}"
            );
        }

        let (db2, _) = Perseas::recover(reopen(&node), recover_cfg())
            .unwrap_or_else(|e| panic!("cut_at={cut_at}: unrecoverable: {e}"));
        let ga = db2.region_snapshot(ra).unwrap();
        let gb = db2.region_snapshot(rb).unwrap();
        let (qa, qb) = post();
        let is_pre = ga == pa && gb == pb;
        let is_post = ga == qa && gb == qb;
        assert!(
            is_pre || is_post,
            "cut_at={cut_at}: torn redo burst left a partial state"
        );
        if res.is_ok() {
            assert!(is_post, "cut_at={cut_at}: durable txn lost");
        }
    }
}

/// Group commits in redo mode: one coalesced log append for the whole
/// group, then the slot/watermark fan-out. Crash after every step; each
/// member must recover all-or-nothing, and a successful group must be
/// fully durable.
#[test]
fn redo_group_commit_survives_every_crash_point() {
    let cfg = redo_cfg().with_concurrent(true);
    let members = 3usize;

    let run_group = |db: &mut Perseas<SimRemote>, r: RegionId| -> Result<(), TxnError> {
        let ts: Vec<_> = (0..members)
            .map(|m| {
                let t = db.begin_concurrent()?;
                db.set_range_t(t, r, m * 32, 16)?;
                db.write_t(t, r, m * 32, &[0xC0 + m as u8; 16])?;
                Ok::<_, TxnError>(t)
            })
            .collect::<Result<_, _>>()?;
        db.commit_group(&ts)
    };

    let (mut db, r, _, _) = setup2(cfg);
    run_group(&mut db, r[0]).unwrap();
    let total = db.steps_taken();

    for crash_at in 0..=total + 1 {
        let (mut db, r, na, nb) = setup2(cfg);
        db.set_fault_plan(FaultPlan::crash_after(crash_at));
        let res = run_group(&mut db, r[0]);
        let committed_ok = res.is_ok() || matches!(res, Err(TxnError::CommitInDoubt { .. }));

        let (pa, _) = pre();
        for (name, node) in [("a", &na), ("b", &nb)] {
            let (db2, _) = Perseas::recover(reopen(node), recover_cfg().with_concurrent(true))
                .unwrap_or_else(|e| {
                    panic!("crash_at={crash_at}: mirror {name} unrecoverable: {e}")
                });
            let got = db2.region_snapshot(r[0]).unwrap();
            for m in 0..members {
                let slice = &got[m * 32..m * 32 + 16];
                let is_pre = slice == &pa[m * 32..m * 32 + 16];
                let is_post = slice.iter().all(|&b| b == 0xC0 + m as u8);
                assert!(
                    is_pre || is_post,
                    "crash_at={crash_at}: mirror {name} member {m} partial"
                );
                if committed_ok {
                    assert!(
                        is_post,
                        "crash_at={crash_at}: mirror {name} lost durable member {m}"
                    );
                }
            }
        }
    }
}

/// An abort after a successful prepare must tombstone the member's log
/// records: crash right after the abort and recovery must restore the
/// pre-state, never replay the prepared after-images.
#[test]
fn aborted_prepared_member_never_replays() {
    let cfg = redo_cfg().with_concurrent(true);
    let (mut db, r, na, nb) = setup2(cfg);
    let (pa, _) = pre();

    let t = db.begin_concurrent().unwrap();
    db.set_range_t(t, r[0], 0, 32).unwrap();
    db.write_t(t, r[0], 0, &[0xDD; 32]).unwrap();
    db.prepare_t(t).unwrap();
    // The after-images are in the log now; the abort must kill them.
    db.abort_t(t).unwrap();

    // A later commit forces recovery to replay past the dead records.
    let t2 = db.begin_concurrent().unwrap();
    db.set_range_t(t2, r[0], 64, 8).unwrap();
    db.write_t(t2, r[0], 64, &[0xEE; 8]).unwrap();
    db.commit_t(t2).unwrap();

    for (name, node) in [("a", &na), ("b", &nb)] {
        let (db2, _) = Perseas::recover(reopen(node), recover_cfg().with_concurrent(true)).unwrap();
        let got = db2.region_snapshot(r[0]).unwrap();
        assert_eq!(&got[..32], &pa[..32], "mirror {name} replayed aborted data");
        assert_eq!(&got[64..72], &[0xEE; 8][..], "mirror {name} lost commit");
    }
}

/// Commits five disjoint ranges across both regions in three
/// transactions, so the next snapshot ships five intervals, and returns
/// the committed images.
fn commit_scattered(db: &mut Perseas<SimRemote>, r: [RegionId; 2]) -> (Vec<u8>, Vec<u8>) {
    let (mut a, mut b) = pre();
    let txns: [&[(usize, usize, usize, u8)]; 3] = [
        &[(0, 0, 16, 0xD1), (0, 100, 40, 0xD2)],
        &[(0, 200, 8, 0xD3), (1, 40, 32, 0xD4)],
        &[(1, 100, 4, 0xD5)],
    ];
    for ranges in txns {
        db.transaction(|t| {
            for &(ri, at, len, v) in ranges {
                t.update(r[ri], at, &vec![v; len])?;
            }
            Ok(())
        })
        .unwrap();
        for &(ri, at, len, v) in ranges {
            [&mut a, &mut b][ri][at..at + len].fill(v);
        }
    }
    (a, b)
}

/// Recovers `node` twice and checks both images equal the oracle.
fn recovers_twice_to(node: &NodeMemory, oracle: &(Vec<u8>, Vec<u8>), r: [RegionId; 2], what: &str) {
    for pass in 1..=2 {
        let (db, _) = Perseas::recover(reopen(node), recover_cfg())
            .unwrap_or_else(|e| panic!("{what}: recovery {pass} failed: {e}"));
        let got = (
            db.region_snapshot(r[0]).unwrap(),
            db.region_snapshot(r[1]).unwrap(),
        );
        assert!(
            &got == oracle,
            "{what}: recovery {pass} left the oracle image"
        );
    }
}

/// A snapshot ships only the dirty intervals — here five, across both
/// regions, in one vectored write per mirror. Cut mirror a's link at
/// every packet of that write and the snapshot line after it, and crash
/// at every protocol step of the snapshot: a torn multi-range image is
/// torn only inside ranges the log suffix re-applies, so every recovery,
/// and a second one after it, lands on the committed image.
#[test]
fn torn_multi_range_snapshots_recover_the_committed_image() {
    let (mut db, r, _, _) = setup2(redo_cfg());
    let tracer = perseas_core::RecordingTracer::new();
    db.set_tracer(Box::new(tracer.clone()));
    commit_scattered(&mut db, r);
    let link = db.mirror_backend(0).unwrap().link().clone();
    let before = link.stats();
    db.set_fault_plan(FaultPlan::none());
    db.redo_snapshot().unwrap();
    let after = link.stats();
    let packets = (after.packets64 + after.packets16) - (before.packets64 + before.packets16);
    let steps = db.steps_taken();
    let shipped = tracer.events().iter().rev().find_map(|e| match e {
        perseas_core::TraceEvent::RedoSnapshot { bytes, .. } => Some(*bytes),
        _ => None,
    });
    assert_eq!(
        shipped,
        Some(16 + 40 + 8 + 32 + 4),
        "only the dirty intervals ship"
    );
    assert!(packets >= 5, "one packet per interval at least: {packets}");

    for cut_at in 0..=packets {
        let (mut db, r, na, nb) = setup2(redo_cfg());
        let oracle = commit_scattered(&mut db, r);
        let link = db.mirror_backend(0).unwrap().link().clone();
        link.cut_after_packets(cut_at);
        db.redo_snapshot()
            .unwrap_or_else(|e| panic!("cut_at={cut_at}: degraded snapshot failed: {e}"));
        link.heal();
        for (name, node) in [("a", &na), ("b", &nb)] {
            recovers_twice_to(node, &oracle, r, &format!("cut_at={cut_at} mirror {name}"));
        }
    }

    for crash_at in 0..=steps {
        let (mut db, r, na, nb) = setup2(redo_cfg());
        let oracle = commit_scattered(&mut db, r);
        db.set_fault_plan(FaultPlan::crash_after(crash_at));
        let res = db.redo_snapshot();
        assert_eq!(
            res.is_ok(),
            crash_at >= steps,
            "crash_at={crash_at}: {res:?}"
        );
        for (name, node) in [("a", &na), ("b", &nb)] {
            recovers_twice_to(
                node,
                &oracle,
                r,
                &format!("crash_at={crash_at} mirror {name}"),
            );
        }
    }
}

/// An append that fails below quorum may still have reached a mirror's
/// log without the engine's tail moving. If later appends reuse those
/// positions, a stale record can sit where the replay scan lands: here
/// the 512-byte segment holds the failed records at 0 (236 bytes) and
/// 236 (56 bytes), and a reused layout would put a 36-byte tombstone at
/// 0, a 200-byte record ending at 236, and then jump the next record to
/// a fresh segment, leaving the stale record at 236 in the live suffix.
/// The watermark passing its id would replay the aborted bytes. The
/// abort must tombstone the records, and no append may reuse their
/// positions. Covered for the legacy commit, the group commit and the
/// prepare.
#[test]
fn aborted_failed_append_never_replays() {
    for (concurrent, prepare) in [(false, false), (true, false), (true, true)] {
        let cfg = redo_cfg().with_concurrent(concurrent).with_commit_quorum(2);
        let (mut db, r, na, nb) = setup2(cfg);
        let (mut a, b) = pre();

        // Mirror b's link is cut, so the append reaches mirror a only and
        // the quorum of 2 refuses it.
        let link = db.mirror_backend(1).unwrap().link().clone();
        link.cut_after_packets(0);
        let ranges = [(r[0], 0, 200), (r[1], 0, 20)];
        if concurrent {
            let t = db.begin_concurrent().unwrap();
            db.set_ranges_t(t, &ranges).unwrap();
            for (region, at, len) in ranges {
                db.write_t(t, region, at, &vec![0xEE; len]).unwrap();
            }
            let shipped = if prepare {
                db.prepare_t(t)
            } else {
                db.commit_t(t)
            };
            assert!(matches!(shipped, Err(TxnError::Unavailable(_))));
            db.abort_t(t).unwrap();
        } else {
            db.begin_transaction().unwrap();
            db.set_ranges(&ranges).unwrap();
            for (region, at, len) in ranges {
                db.write(region, at, &vec![0xEE; len]).unwrap();
            }
            assert!(matches!(
                db.commit_transaction(),
                Err(TxnError::Unavailable(_))
            ));
            db.abort_transaction().unwrap();
        }
        link.heal();
        db.probe_down_mirrors();
        db.rejoin_mirror(1).unwrap();

        for (at, len, v) in [(0, 164, 0x11), (0, 250, 0x22)] {
            db.transaction(|t| t.update(r[0], at, &vec![v; len]))
                .unwrap();
            a[at..at + len].fill(v);
        }
        db.crash();

        for (name, node) in [("a", &na), ("b", &nb)] {
            let (db2, _) =
                Perseas::recover(reopen(node), recover_cfg().with_concurrent(concurrent)).unwrap();
            let tag = format!("concurrent={concurrent} prepare={prepare} mirror {name}");
            assert_eq!(db2.region_snapshot(r[0]).unwrap(), a, "{tag}");
            assert_eq!(
                db2.region_snapshot(r[1]).unwrap(),
                b,
                "{tag}: aborted bytes replayed"
            );
        }
    }
}

/// Recovering a redo image with an undo config (or vice versa) must be
/// refused with a typed error, not silently misread.
#[test]
fn commit_path_mismatch_is_refused() {
    let (mut db, r, na, _) = setup2(redo_cfg());
    db.transaction(|t| t.update(r[0], 0, &[1; 8])).unwrap();
    let err = Perseas::recover(reopen(&na), PerseasConfig::default()).unwrap_err();
    assert!(
        matches!(&err, TxnError::Unavailable(m) if m.contains("commit-path mismatch")),
        "got {err:?}"
    );

    let (mut db, r, na, _) = setup2(PerseasConfig::default());
    db.transaction(|t| t.update(r[0], 0, &[1; 8])).unwrap();
    let err = Perseas::recover(reopen(&na), recover_cfg()).unwrap_err();
    assert!(
        matches!(&err, TxnError::Unavailable(m) if m.contains("commit-path mismatch")),
        "got {err:?}"
    );
}
