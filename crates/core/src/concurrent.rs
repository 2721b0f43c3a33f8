//! The `Send + Sync` front-end over the concurrent transaction engine.
//!
//! [`ConcurrentPerseas`] hands out RAII [`TxnHandle`]s backed by
//! [`Perseas::begin_concurrent`]: many OS threads keep transactions open
//! against one instance at once, each operation takes the instance lock
//! only for its own duration, and a handle's reads and writes both claim
//! their ranges, so every committed history is serialisable. Threads that
//! reach commit together are batched into one **group commit** — a
//! single undo/data/commit-record write per mirror covers all of them
//! (the commit-desk pattern: the first committer becomes leader, drains
//! the queue of every transaction waiting to commit, and runs one
//! [`Perseas::commit_group`] for the whole batch).

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use perseas_rnram::RemoteMemory;
use perseas_txn::{RegionId, SnapshotToken, TxnError, TxnStats};

use crate::conc::TxnToken;
use crate::perseas::Perseas;

/// Transactions queued for the next group commit, and the results the
/// leader published for the previous one.
#[derive(Default)]
struct CommitDesk {
    /// Ids waiting to be committed by the next leader.
    queue: Vec<u64>,
    /// `true` while some thread is inside `commit_group`.
    leader: bool,
    /// Per-id outcome of a finished group: `(still open, result)`.
    results: HashMap<u64, (bool, Result<(), TxnError>)>,
}

struct Shared<M: RemoteMemory> {
    db: Mutex<Perseas<M>>,
    desk: Mutex<CommitDesk>,
    done: Condvar,
}

impl<M: RemoteMemory> Shared<M> {
    fn lock_db(&self) -> MutexGuard<'_, Perseas<M>> {
        // A poisoned lock means a panic on another thread; the instance
        // is still structurally sound (its transaction aborts on the
        // handle's drop), so recover the guard.
        self.db.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_desk(&self) -> MutexGuard<'_, CommitDesk> {
        self.desk.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Commits `id`, batching with every other transaction queued at the
    /// desk. Returns whether the transaction is still open (a
    /// pre-durability failure leaves it open) and the group's result.
    fn commit_id(&self, id: u64) -> (bool, Result<(), TxnError>) {
        let mut desk = self.lock_desk();
        desk.queue.push(id);
        loop {
            if let Some(outcome) = desk.results.remove(&id) {
                return outcome;
            }
            if desk.leader {
                // A leader is committing; it may or may not have taken
                // this id along — check again when it finishes.
                desk = self.done.wait(desk).unwrap_or_else(|e| e.into_inner());
                continue;
            }
            // Become the leader. The desk lock is released before taking
            // the instance lock (always db before desk, never both ways),
            // so late committers can keep enqueueing while the group
            // runs — they ride the next one.
            desk.leader = true;
            drop(desk);
            let mut db = self.lock_db();
            let batch: Vec<u64> = std::mem::take(&mut self.lock_desk().queue);
            let tokens: Vec<TxnToken> = batch.iter().map(|&i| TxnToken::new(i)).collect();
            let result = db.commit_group(&tokens);
            let outcomes: Vec<(u64, bool)> = batch
                .iter()
                .map(|&i| (i, db.txn_is_open(TxnToken::new(i))))
                .collect();
            drop(db);
            let mut desk = self.lock_desk();
            desk.leader = false;
            for (i, open) in outcomes {
                desk.results.insert(i, (open, result.clone()));
            }
            self.done.notify_all();
            let own = desk
                .results
                .remove(&id)
                .expect("leader's own id rides its own batch");
            return own;
        }
    }
}

/// One open transaction, owned by a thread.
///
/// The handle releases the instance between operations, so other threads'
/// transactions interleave freely; a read or claim overlapping another
/// open transaction's claim is refused with [`TxnError::Conflict`].
/// Dropping an open handle aborts its transaction.
pub struct TxnHandle<M: RemoteMemory> {
    shared: Arc<Shared<M>>,
    token: TxnToken,
    open: bool,
}

impl<M: RemoteMemory> TxnHandle<M> {
    /// The underlying transaction id.
    pub fn id(&self) -> u64 {
        self.token.id()
    }

    /// The raw [`TxnToken`] this handle wraps, for routing the
    /// transaction through token-level APIs — e.g. staging its
    /// prepare/commit phases directly on the engine via
    /// [`ConcurrentPerseas::with`], or correlating it with the parts a
    /// sharded coordinator opens. The token stays valid only while this
    /// handle is open; the handle still owns the transaction's
    /// lifecycle (dropping it aborts).
    pub fn token(&self) -> TxnToken {
        self.token
    }

    /// Declares a writable range (see [`Perseas::set_range_t`]).
    ///
    /// # Errors
    ///
    /// [`TxnError::Conflict`] when another open transaction holds an
    /// overlapping claim; this transaction stays open.
    pub fn set_range(&self, region: RegionId, offset: usize, len: usize) -> Result<(), TxnError> {
        self.shared
            .lock_db()
            .set_range_t(self.token, region, offset, len)
    }

    /// Declares several ranges all-or-nothing (see
    /// [`Perseas::set_ranges_t`]).
    ///
    /// # Errors
    ///
    /// Fails like [`TxnHandle::set_range`].
    pub fn set_ranges(&self, ranges: &[(RegionId, usize, usize)]) -> Result<(), TxnError> {
        self.shared.lock_db().set_ranges_t(self.token, ranges)
    }

    /// Writes into a previously declared range.
    ///
    /// # Errors
    ///
    /// Fails on undeclared ranges or bounds violations.
    pub fn write(&self, region: RegionId, offset: usize, data: &[u8]) -> Result<(), TxnError> {
        self.shared
            .lock_db()
            .write_t(self.token, region, offset, data)
    }

    /// Declares and writes in one step.
    ///
    /// # Errors
    ///
    /// Fails like [`TxnHandle::set_range`] and [`TxnHandle::write`].
    pub fn update(&self, region: RegionId, offset: usize, data: &[u8]) -> Result<(), TxnError> {
        let mut db = self.shared.lock_db();
        db.set_range_t(self.token, region, offset, data.len())?;
        db.write_t(self.token, region, offset, data)
    }

    /// Claims the range, then reads committed bytes or this transaction's
    /// own writes (see [`Perseas::read_t`]): `read` then
    /// [`TxnHandle::update`] is a serialisable read-modify-write.
    ///
    /// # Errors
    ///
    /// Fails like [`TxnHandle::set_range`].
    pub fn read(&self, region: RegionId, offset: usize, buf: &mut [u8]) -> Result<(), TxnError> {
        self.shared
            .lock_db()
            .read_t(self.token, region, offset, buf)
    }

    /// Length of a region.
    ///
    /// # Errors
    ///
    /// Fails on unknown regions.
    pub fn region_len(&self, region: RegionId) -> Result<usize, TxnError> {
        self.shared.lock_db().region_len(region)
    }

    /// Ships this transaction's records and data to the mirrors ahead of
    /// the commit, freezing it: a prepared transaction accepts no further
    /// claims or writes and its commit is a single record fan-out (the
    /// stage a group commit amortizes).
    ///
    /// # Errors
    ///
    /// Fails like [`Perseas::prepare_t`](crate::Perseas::prepare_t); the
    /// transaction stays open either way.
    pub fn prepare(&self) -> Result<(), TxnError> {
        self.shared.lock_db().prepare_t(self.token)
    }

    /// Commits this transaction, group-committing with any other
    /// transaction that reaches its commit point at the same time.
    ///
    /// # Errors
    ///
    /// Propagates the group's commit error. After a pre-durability
    /// failure the transaction is aborted (the handle is consumed);
    /// [`TxnError::CommitInDoubt`] means it **is** durable on the
    /// survivors.
    pub fn commit(mut self) -> Result<(), TxnError> {
        let (still_open, result) = self.shared.commit_id(self.token.id());
        // A pre-durability failure leaves the transaction open; the
        // consuming call can't retry, so Drop aborts it cleanly.
        self.open = still_open;
        result
    }

    /// Aborts this transaction: its claims are released immediately and
    /// its writes rolled back.
    ///
    /// # Errors
    ///
    /// Propagates mirror-cleanup failures after a failed commit; the
    /// local abort has completed regardless.
    pub fn abort(mut self) -> Result<(), TxnError> {
        self.open = false;
        self.shared.lock_db().abort_t(self.token)
    }
}

impl<M: RemoteMemory> Drop for TxnHandle<M> {
    fn drop(&mut self) {
        if self.open {
            let _ = self.shared.lock_db().abort_t(self.token);
        }
    }
}

/// A cloneable, `Send + Sync` handle driving concurrent transactions
/// against one PERSEAS instance.
///
/// # Examples
///
/// ```
/// use perseas_core::{ConcurrentPerseas, Perseas, PerseasConfig};
/// use perseas_rnram::SimRemote;
///
/// # fn main() -> Result<(), perseas_txn::TxnError> {
/// let cfg = PerseasConfig::default().with_concurrent(true);
/// let mut db = Perseas::init(vec![SimRemote::new("m")], cfg)?;
/// let r = db.malloc(64)?;
/// db.init_remote_db()?;
/// let shared = ConcurrentPerseas::new(db)?;
///
/// // Two transactions open at once; their claims are disjoint.
/// let a = shared.begin_transaction()?;
/// let b = shared.begin_transaction()?;
/// a.update(r, 0, &[1; 8])?;
/// b.update(r, 8, &[2; 8])?;
/// a.commit()?;
/// b.commit()?;
///
/// let mut buf = [0u8; 16];
/// shared.read(r, 0, &mut buf)?;
/// assert_eq!(&buf[..8], &[1; 8]);
/// assert_eq!(&buf[8..], &[2; 8]);
/// # Ok(())
/// # }
/// ```
pub struct ConcurrentPerseas<M: RemoteMemory> {
    shared: Arc<Shared<M>>,
}

impl<M: RemoteMemory> Clone for ConcurrentPerseas<M> {
    fn clone(&self) -> Self {
        ConcurrentPerseas {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<M: RemoteMemory> ConcurrentPerseas<M> {
    /// Wraps a published database for concurrent use.
    ///
    /// # Errors
    ///
    /// Fails `Unavailable` unless the instance was configured with
    /// [`PerseasConfig::with_concurrent`](crate::PerseasConfig::with_concurrent).
    pub fn new(db: Perseas<M>) -> Result<Self, TxnError> {
        if !db.cfg.concurrent {
            return Err(TxnError::Unavailable(
                "ConcurrentPerseas requires PerseasConfig::with_concurrent".into(),
            ));
        }
        Ok(ConcurrentPerseas {
            shared: Arc::new(Shared {
                db: Mutex::new(db),
                desk: Mutex::default(),
                done: Condvar::new(),
            }),
        })
    }

    /// Opens a new transaction and returns its handle.
    ///
    /// Waits while the commit table has no slot to spare for it: a thread
    /// preempted mid-transaction pins the watermark, and each later commit
    /// holds a slot until it passes. The wait is bounded, as the pinning
    /// transaction may be the caller's own.
    ///
    /// # Errors
    ///
    /// Fails like [`Perseas::begin_concurrent`].
    pub fn begin_transaction(&self) -> Result<TxnHandle<M>, TxnError> {
        let deadline = Instant::now() + Duration::from_secs(1);
        let mut db = self.shared.lock_db();
        while db.spare_commit_slots() == 0 && Instant::now() < deadline {
            drop(db);
            std::thread::sleep(Duration::from_millis(1));
            db = self.shared.lock_db();
        }
        let token = db.begin_concurrent()?;
        Ok(TxnHandle {
            shared: Arc::clone(&self.shared),
            token,
            open: true,
        })
    }

    /// Runs `f` inside a transaction: committed when `f` succeeds,
    /// aborted when it fails. Errors — including
    /// [`TxnError::Conflict`] from a lost claim — propagate without
    /// wedging the instance; the caller may simply retry.
    ///
    /// # Errors
    ///
    /// Propagates the closure's or the library's error.
    pub fn transaction<T, F>(&self, f: F) -> Result<T, TxnError>
    where
        F: FnOnce(&TxnHandle<M>) -> Result<T, TxnError>,
    {
        let handle = self.begin_transaction()?;
        match f(&handle) {
            Ok(value) => {
                handle.commit()?;
                Ok(value)
            }
            Err(e) => {
                // Abort failures would mask the original error; the
                // rollback itself has completed locally either way.
                let _ = handle.abort();
                Err(e)
            }
        }
    }

    /// Reads committed bytes outside any transaction: open handles'
    /// uncommitted writes are masked, and no range is claimed.
    ///
    /// # Errors
    ///
    /// Propagates library errors.
    pub fn read(&self, region: RegionId, offset: usize, buf: &mut [u8]) -> Result<(), TxnError> {
        self.shared.lock_db().read(region, offset, buf)
    }

    /// Length of a region.
    ///
    /// # Errors
    ///
    /// Fails on unknown regions.
    pub fn region_len(&self, region: RegionId) -> Result<usize, TxnError> {
        self.shared.lock_db().region_len(region)
    }

    /// Opens a snapshot pinned at the current commit watermark (see
    /// [`Perseas::begin_snapshot`]). Snapshot reads through
    /// [`ConcurrentPerseas::read_snapshot`] take no conflict-table claims
    /// and can never conflict with writers on other handles.
    ///
    /// # Errors
    ///
    /// Fails after an unrecovered crash.
    pub fn begin_snapshot(&self) -> Result<SnapshotToken, TxnError> {
        self.shared.lock_db().begin_snapshot()
    }

    /// Reads at a snapshot's pinned watermark (see [`Perseas::read_s`]).
    ///
    /// # Errors
    ///
    /// Never `Conflict` or `SnapshotContention`; fails typed with
    /// [`TxnError::SnapshotTooOld`] when the snapshot's versions were
    /// evicted, or on bounds violations.
    pub fn read_snapshot(
        &self,
        snap: SnapshotToken,
        region: RegionId,
        offset: usize,
        buf: &mut [u8],
    ) -> Result<(), TxnError> {
        self.shared.lock_db().read_s(snap, region, offset, buf)
    }

    /// Closes a snapshot, releasing the versions it pinned.
    pub fn end_snapshot(&self, snap: SnapshotToken) {
        self.shared.lock_db().end_snapshot(snap);
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> TxnStats {
        self.shared.lock_db().stats()
    }

    /// Id of the last durably committed transaction.
    pub fn last_committed(&self) -> u64 {
        self.shared.lock_db().last_committed()
    }

    /// Number of transactions currently open.
    pub fn open_txn_count(&self) -> usize {
        self.shared.lock_db().open_txn_count()
    }

    /// Runs arbitrary code with exclusive access to the instance (crash
    /// simulation, mirror management, diagnostics).
    pub fn with<T>(&self, f: impl FnOnce(&mut Perseas<M>) -> T) -> T {
        f(&mut self.shared.lock_db())
    }

    /// Extracts the database if this is the last handle.
    ///
    /// # Errors
    ///
    /// Returns `self` back if other handles exist.
    pub fn try_unwrap(self) -> Result<Perseas<M>, ConcurrentPerseas<M>> {
        match Arc::try_unwrap(self.shared) {
            Ok(shared) => Ok(shared.db.into_inner().unwrap_or_else(|e| e.into_inner())),
            Err(shared) => Err(ConcurrentPerseas { shared }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PerseasConfig;
    use perseas_rnram::SimRemote;
    use perseas_sci::{NodeMemory, SciParams};
    use perseas_simtime::SimClock;
    use std::thread;

    fn cfg() -> PerseasConfig {
        PerseasConfig::default().with_concurrent(true)
    }

    fn built_on_node() -> (ConcurrentPerseas<SimRemote>, RegionId, NodeMemory) {
        let backend = SimRemote::new("m");
        let node = backend.node().clone();
        let mut db = Perseas::init(vec![backend], cfg()).unwrap();
        let r = db.malloc(256).unwrap();
        db.init_remote_db().unwrap();
        (ConcurrentPerseas::new(db).unwrap(), r, node)
    }

    fn built() -> (ConcurrentPerseas<SimRemote>, RegionId) {
        let (shared, r, _) = built_on_node();
        (shared, r)
    }

    /// One increment of the counter at offset 0 as a read-modify-write,
    /// retried until no other transaction holds the counter's claim.
    fn increment(db: &ConcurrentPerseas<SimRemote>, r: RegionId) {
        loop {
            match db.transaction(|tx| {
                let mut buf = [0u8; 8];
                tx.read(r, 0, &mut buf)?;
                let v = u64::from_le_bytes(buf) + 1;
                tx.update(r, 0, &v.to_le_bytes())
            }) {
                Ok(()) => return,
                Err(TxnError::Conflict { .. }) => thread::yield_now(),
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
    }

    #[test]
    fn concurrent_increments_are_serialised() {
        let (shared, r) = built();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let db = shared.clone();
                thread::spawn(move || (0..25).for_each(|_| increment(&db, r)))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut buf = [0u8; 8];
        shared.read(r, 0, &mut buf).unwrap();
        assert_eq!(u64::from_le_bytes(buf), 100);
        assert_eq!(shared.stats().commits, 100);
        assert_eq!(shared.open_txn_count(), 0);
    }

    #[test]
    fn a_handle_read_claims_its_range() {
        let (shared, r) = built();
        shared.transaction(|tx| tx.update(r, 0, &[1; 8])).unwrap();
        let w = shared.begin_transaction().unwrap();
        w.update(r, 0, &[2; 8]).unwrap();
        // Reads without a token see committed bytes only.
        let mut buf = [0u8; 8];
        shared.read(r, 0, &mut buf).unwrap();
        assert_eq!(buf, [1; 8]);
        // A handle read of a range another transaction claimed is refused.
        let t = shared.begin_transaction().unwrap();
        let err = t.read(r, 4, &mut buf).unwrap_err();
        assert!(matches!(err, TxnError::Conflict { holder, .. } if holder == w.id()));
        // Its own read claims, so the writer can no longer claim it.
        t.read(r, 8, &mut buf).unwrap();
        assert!(matches!(
            w.set_range(r, 8, 8),
            Err(TxnError::Conflict { .. })
        ));
        w.abort().unwrap();
        t.read(r, 0, &mut buf).unwrap();
        assert_eq!(buf, [1; 8], "the aborted write was never visible");
    }

    #[test]
    fn concurrent_history_survives_crash() {
        let (shared, r, node) = built_on_node();
        let handles: Vec<_> = (0..4usize)
            .map(|t| {
                let db = shared.clone();
                thread::spawn(move || {
                    for i in 0..20u64 {
                        db.transaction(|tx| tx.update(r, t * 8, &(i + 1).to_le_bytes()))
                            .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let expected = shared.with(|db| {
            let snap = db.region_snapshot(r).unwrap();
            db.crash();
            snap
        });

        let backend = SimRemote::with_parts(SimClock::new(), node, SciParams::dolphin_1998());
        let (db2, _) = Perseas::recover(backend, cfg()).unwrap();
        assert_eq!(db2.region_snapshot(r).unwrap(), expected);
    }

    #[test]
    fn panicking_transaction_does_not_poison_the_database() {
        let (shared, r) = built();
        let db = shared.clone();
        let result = thread::spawn(move || {
            db.transaction(|tx| -> Result<(), TxnError> {
                tx.update(r, 0, &[9; 8])?;
                panic!("application bug inside a transaction");
            })
        })
        .join();
        assert!(result.is_err(), "the panic must propagate to join()");
        // The unwound handle aborted its half-done transaction.
        assert_eq!(shared.open_txn_count(), 0);

        // A panic while holding the instance lock poisons it; the handle
        // recovers the guard.
        let db = shared.clone();
        let held = thread::spawn(move || db.with(|_| panic!("bug under the lock"))).join();
        assert!(held.is_err());

        shared
            .transaction(|tx| tx.update(r, 0, &7u64.to_le_bytes()))
            .unwrap();
        let mut buf = [0u8; 8];
        shared.read(r, 0, &mut buf).unwrap();
        assert_eq!(u64::from_le_bytes(buf), 7);
    }

    #[test]
    fn a_pinned_watermark_never_costs_a_commit_slot() {
        let cfg = cfg();
        let others = cfg.commit_slots + 8;
        let mut db = Perseas::init(vec![SimRemote::new("m")], cfg).unwrap();
        let r = db.malloc(8 * (others + 1)).unwrap();
        db.init_remote_db().unwrap();
        let shared = ConcurrentPerseas::new(db).unwrap();
        // The oldest open transaction pins the watermark while another
        // thread commits more transactions than the table has slots.
        let pinned = shared.begin_transaction().unwrap();
        pinned.update(r, 0, &[1; 8]).unwrap();
        let db = shared.clone();
        let committer = thread::spawn(move || {
            for i in 1..=others {
                db.transaction(|tx| tx.update(r, i * 8, &[2; 8])).unwrap();
            }
        });
        thread::sleep(Duration::from_millis(50));
        pinned
            .commit()
            .expect("the pinned transaction kept its slot");
        committer.join().expect("no later commit ran out of slots");
        assert_eq!(shared.stats().commits, others as u64 + 1);
    }

    #[test]
    fn try_unwrap_returns_database_when_sole_owner() {
        let (shared, r) = built();
        let clone = shared.clone();
        let back = shared.try_unwrap().expect_err("a clone is alive");
        drop(clone);
        let db = back
            .try_unwrap()
            .unwrap_or_else(|_| panic!("now sole owner"));
        assert_eq!(db.region_len(r).unwrap(), 256);
    }

    #[test]
    fn handle_layer_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ConcurrentPerseas<SimRemote>>();
        assert_send_sync::<TxnHandle<SimRemote>>();
    }

    #[test]
    fn new_requires_concurrent_config() {
        let db = Perseas::init(vec![SimRemote::new("m")], PerseasConfig::default()).unwrap();
        assert!(matches!(
            ConcurrentPerseas::new(db),
            Err(TxnError::Unavailable(_))
        ));
    }

    #[test]
    fn threads_share_disjoint_slices() {
        let (shared, r) = built();
        let threads = 8usize;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let db = shared.clone();
                thread::spawn(move || {
                    for i in 0..10u64 {
                        db.transaction(|tx| tx.update(r, t * 8, &(i + 1).to_le_bytes()))
                            .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for t in 0..threads {
            let mut buf = [0u8; 8];
            shared.read(r, t * 8, &mut buf).unwrap();
            assert_eq!(u64::from_le_bytes(buf), 10);
        }
        assert_eq!(shared.stats().commits, (threads * 10) as u64);
        assert_eq!(shared.open_txn_count(), 0);
    }

    #[test]
    fn dropping_an_open_handle_aborts_it() {
        let (shared, r) = built();
        {
            let tx = shared.begin_transaction().unwrap();
            tx.update(r, 0, &[9; 8]).unwrap();
            assert_eq!(shared.open_txn_count(), 1);
        }
        assert_eq!(shared.open_txn_count(), 0);
        let mut buf = [0u8; 8];
        shared.read(r, 0, &mut buf).unwrap();
        assert_eq!(buf, [0; 8], "dropped handle rolled back");
    }

    #[test]
    fn conflicting_threads_one_wins_one_retries() {
        let (shared, r) = built();
        let a = shared.begin_transaction().unwrap();
        a.set_range(r, 0, 16).unwrap();
        let err = shared
            .transaction(|tx| tx.update(r, 8, &[1; 4]))
            .unwrap_err();
        assert!(matches!(err, TxnError::Conflict { holder, .. } if holder == a.id()));
        a.write(r, 0, &[5; 16]).unwrap();
        a.commit().unwrap();
        // The loser retries after the holder resolves and succeeds.
        shared.transaction(|tx| tx.update(r, 8, &[1; 4])).unwrap();
        let mut buf = [0u8; 4];
        shared.read(r, 8, &mut buf).unwrap();
        assert_eq!(buf, [1; 4]);
    }

    #[test]
    fn tokens_route_through_the_engine() {
        let (shared, r) = built();
        let h = shared.begin_transaction().unwrap();
        h.set_range(r, 0, 8).unwrap();
        h.write(r, 0, &[9; 8]).unwrap();
        let tok = h.token();
        assert_eq!(tok.id(), h.id());
        // The token drives token-level phases on the engine directly —
        // here a vectored prepare — while the handle keeps ownership.
        shared.with(|db| db.prepare_t(tok)).unwrap();
        h.commit().unwrap();
        let mut buf = [0u8; 8];
        shared.read(r, 0, &mut buf).unwrap();
        assert_eq!(buf, [9; 8]);
    }
}
