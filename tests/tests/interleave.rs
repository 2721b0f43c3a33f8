//! Fixed-seed sweeps of the deterministic interleaving harness
//! (`perseas_integration::interleave`), plus the conflict-release,
//! scope-propagation and dirty-read regression tests.

use perseas_core::{ConcurrentPerseas, TxnError};
use perseas_integration::interleave::{build_concurrent, run_schedule};

#[test]
fn interleaving_sweep_matches_serial_oracle() {
    for seed in 0..48u64 {
        let ntxns = 2 + (seed as usize % 5);
        run_schedule(seed, ntxns);
    }
}

#[test]
fn failing_schedules_replay_byte_for_byte() {
    // The whole point of the harness: the same seed must reproduce the
    // same interleaving, the same committed set, and the same bytes.
    for seed in [0u64, 7, 0xDEAD_BEEF, u64::MAX / 3] {
        let first = run_schedule(seed, 5);
        let second = run_schedule(seed, 5);
        assert_eq!(first, second, "seed {seed}: schedule replay diverged");
    }
}

#[test]
fn an_aborted_writers_debit_is_never_read() {
    // Regression: W debits a balance 100 → 90, T reads it, W conflicts on
    // its credit cell and aborts, T writes back its read minus one. The
    // only serial order of the committed subset (T alone) leaves 99; a
    // read of W's uncommitted 90 would leave 89.
    let (db, r, _) = build_concurrent();
    let shared = ConcurrentPerseas::new(db).unwrap();
    let balance = |v: u64| v.to_le_bytes();
    shared
        .transaction(|tx| tx.update(r, 0, &balance(100)))
        .unwrap();
    // Another transaction holds W's credit cell.
    let holder = shared.begin_transaction().unwrap();
    holder.set_range(r, 8, 8).unwrap();

    let w = shared.begin_transaction().unwrap();
    w.update(r, 0, &balance(90)).unwrap();
    let t = shared.begin_transaction().unwrap();
    let mut buf = [0u8; 8];
    let first = t.read(r, 0, &mut buf);
    let err = w.update(r, 8, &balance(10)).unwrap_err();
    assert!(matches!(err, TxnError::Conflict { .. }), "{err}");
    let w_id = w.id();
    w.abort().unwrap();

    match first {
        Ok(()) => assert_eq!(u64::from_le_bytes(buf), 100, "T read W's uncommitted debit"),
        Err(TxnError::Conflict { holder, .. }) => {
            assert_eq!(holder, w_id);
            t.read(r, 0, &mut buf).unwrap();
            assert_eq!(u64::from_le_bytes(buf), 100);
        }
        Err(e) => panic!("unexpected read error: {e}"),
    }
    let seen = u64::from_le_bytes(buf);
    t.update(r, 0, &balance(seen - 1)).unwrap();
    t.commit().unwrap();
    holder.abort().unwrap();

    shared.read(r, 0, &mut buf).unwrap();
    assert_eq!(
        u64::from_le_bytes(buf),
        99,
        "the image matches no serial order"
    );
}

#[test]
fn conflicted_txn_frees_claims_and_undo_immediately() {
    // Regression: a conflicted loser (and any aborted transaction) must
    // release its conflict-table claims and undo extent right away — not
    // at the next group commit — so other transactions can reuse the
    // range while the winner is still open.
    let (mut db, r, _) = build_concurrent();
    let a = db.begin_concurrent().unwrap();
    db.set_range_t(a, r, 0, 16).unwrap();

    let b = db.begin_concurrent().unwrap();
    db.set_range_t(b, r, 100, 16).unwrap();
    let err = db.set_range_t(b, r, 8, 8).unwrap_err();
    assert!(
        matches!(err, TxnError::Conflict { holder, .. } if holder == a.id()),
        "expected a conflict against txn a, got {err}"
    );
    // b is still open (the failed claim is not granted); it aborts and
    // its [100, 116) claim must be reusable immediately, with no commit
    // in between and while a is still open.
    db.abort_t(b).unwrap();
    let c = db.begin_concurrent().unwrap();
    db.set_range_t(c, r, 100, 16)
        .expect("aborted transaction's claim must be released immediately");
    db.write_t(c, r, 100, &[3; 16]).unwrap();
    db.commit_t(c).unwrap();

    // a was never disturbed and still commits.
    db.write_t(a, r, 0, &[1; 16]).unwrap();
    db.commit_t(a).unwrap();
    let snap = db.region_snapshot(r).unwrap();
    assert_eq!(&snap[0..16], &[1; 16]);
    assert_eq!(&snap[100..116], &[3; 16]);
}

#[test]
fn scope_propagates_conflict_without_wedging() {
    // Regression: `Perseas::transaction` must surface `Conflict` from
    // inside the closure and leave the instance fully usable.
    let (mut db, r, _) = build_concurrent();
    let a = db.begin_concurrent().unwrap();
    db.set_range_t(a, r, 0, 16).unwrap();

    let err = db
        .transaction(|tx| {
            tx.set_range(r, 8, 8)?;
            tx.write(r, 8, &[9; 8])
        })
        .unwrap_err();
    assert!(
        matches!(err, TxnError::Conflict { holder, .. } if holder == a.id()),
        "scope swallowed the conflict: {err}"
    );
    assert!(!db.in_transaction(), "scope left a transaction open");

    // Not wedged: a disjoint scoped transaction succeeds while a is
    // still open, and a itself still commits.
    db.transaction(|tx| {
        tx.set_range(r, 64, 8)?;
        tx.write(r, 64, &[4; 8])
    })
    .unwrap();
    db.write_t(a, r, 0, &[1; 16]).unwrap();
    db.commit_t(a).unwrap();
    let snap = db.region_snapshot(r).unwrap();
    assert_eq!(&snap[0..16], &[1; 16]);
    assert_eq!(&snap[64..72], &[4; 8]);
}
