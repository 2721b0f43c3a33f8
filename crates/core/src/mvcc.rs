//! The in-memory version store behind snapshot reads.
//!
//! Every committed transaction's before-images — the same bytes the undo
//! arena already carries for abort and recovery — are retained here for a
//! bounded window, keyed by a monotonically increasing **commit
//! sequence**. A snapshot pins the sequence current at `begin_snapshot`;
//! a snapshot read starts from the live region bytes and walks the
//! retained versions newest-first, overlaying the before-image of every
//! commit *after* the pin, which reconstructs the exact committed image
//! at the pinned watermark. Readers therefore take no conflict-table
//! claims and can never lose a first-claimer-wins race.
//!
//! Only commits made while a snapshot is open are retained: with none
//! open, a commit just advances the sequence and copies nothing, so the
//! store costs nothing until it is used.
//!
//! The store is volatile and bounded: versions older than every open
//! snapshot are pruned eagerly, and byte/entry budget pressure
//! ([`VERSION_BYTES`], [`VERSION_ENTRIES`]) evicts oldest-first past open
//! snapshots, raising the reconstruction floor. A snapshot pinned below
//! the floor can no longer be served consistently and every later read
//! on it fails typed with
//! [`TxnError::SnapshotTooOld`] — never with torn bytes. A crash clears
//! the store and the open-snapshot table, so recovered instances refuse
//! stale tokens the same way.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

use perseas_txn::{SnapshotToken, TxnError};

/// Process-wide generation counter: every engine instance (fresh init or
/// recovery) gets a distinct generation, so tokens minted before a crash
/// can never alias a snapshot opened after it.
static NEXT_GEN: AtomicU64 = AtomicU64::new(1);

/// Byte budget of the retained before-images: 1 MiB. When a new version
/// would push the store past it, the oldest versions are evicted whole.
pub(crate) const VERSION_BYTES: usize = 1 << 20;

/// Maximum number of retained versions (one per commit), evicted
/// oldest-first like the byte budget.
pub(crate) const VERSION_ENTRIES: usize = 4096;

/// One committed transaction's retained before-images.
#[derive(Debug, Clone)]
pub(crate) struct CommittedVersion {
    /// Commit sequence (1-based, dense, store-local).
    pub seq: u64,
    /// `(region index, offset, before-image)` in undo-log order.
    pub records: Vec<(usize, usize, Vec<u8>)>,
    /// Total payload bytes across `records`.
    pub bytes: usize,
}

/// What one store operation evicted, for trace/metrics emission.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Evicted {
    /// Versions removed.
    pub versions: usize,
    /// Payload bytes removed.
    pub bytes: usize,
}

/// The bounded version store plus the open-snapshot table.
#[derive(Debug)]
pub(crate) struct MvccState {
    /// Retained versions, ascending by `seq`.
    versions: VecDeque<CommittedVersion>,
    /// Total payload bytes across `versions`.
    bytes: usize,
    /// Highest commit sequence ever removed from the store: snapshots
    /// pinned strictly below this can no longer be reconstructed.
    floor_seq: u64,
    /// Sequence of the most recent captured commit.
    cur_seq: u64,
    /// Open snapshots: id → pinned sequence.
    open: BTreeMap<u64, u64>,
    next_snap_id: u64,
    gen: u64,
}

impl MvccState {
    pub fn new() -> MvccState {
        MvccState {
            versions: VecDeque::new(),
            bytes: 0,
            floor_seq: 0,
            cur_seq: 0,
            open: BTreeMap::new(),
            next_snap_id: 1,
            gen: NEXT_GEN.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Number of snapshots currently open.
    pub fn open_count(&self) -> usize {
        self.open.len()
    }

    /// Retained versions.
    pub fn version_count(&self) -> usize {
        self.versions.len()
    }

    /// Retained payload bytes.
    pub fn version_bytes(&self) -> usize {
        self.bytes
    }

    /// The reconstruction floor (see [`MvccState::floor_seq`]).
    pub fn floor(&self) -> u64 {
        self.floor_seq
    }

    /// Clears everything volatile on a crash: retained versions are gone
    /// and every open snapshot is forgotten, so stale tokens fail typed.
    pub fn clear(&mut self) {
        self.versions.clear();
        self.bytes = 0;
        self.floor_seq = self.cur_seq;
        self.open.clear();
    }

    /// Opens a snapshot pinned at the current sequence.
    pub fn begin(&mut self) -> SnapshotToken {
        let id = self.next_snap_id;
        self.next_snap_id += 1;
        self.open.insert(id, self.cur_seq);
        SnapshotToken::from_raw(id, self.cur_seq, self.gen)
    }

    /// Closes a snapshot (idempotent) and prunes versions no open
    /// snapshot needs any more.
    pub fn end(&mut self, token: SnapshotToken) -> Evicted {
        if token.generation() == self.gen {
            self.open.remove(&token.id());
        }
        self.prune()
    }

    /// Checks that `token` still names a live, reconstructable snapshot.
    ///
    /// # Errors
    ///
    /// [`TxnError::SnapshotTooOld`] when the token predates a crash, was
    /// already closed, or is pinned below the eviction floor.
    pub fn validate(&self, token: SnapshotToken) -> Result<u64, TxnError> {
        let live =
            token.generation() == self.gen && self.open.get(&token.id()) == Some(&token.read_seq());
        if live && token.read_seq() >= self.floor_seq {
            Ok(token.read_seq())
        } else {
            Err(TxnError::SnapshotTooOld {
                read_seq: token.read_seq(),
                floor_seq: self.floor_seq,
            })
        }
    }

    /// Advances past a commit that no snapshot can read, copying nothing:
    /// the state a version captured and released at once would leave.
    /// Only legal while no snapshot is open.
    pub fn skip(&mut self) {
        debug_assert!(self.open.is_empty() && self.versions.is_empty());
        self.cur_seq += 1;
        self.floor_seq = self.cur_seq;
    }

    /// Retains one committed transaction's before-images for the open
    /// snapshots, all pinned below it, and enforces the retention budgets;
    /// a single commit larger than the whole byte budget is still kept.
    /// Returns the commit's sequence and whatever the budgets evicted.
    /// Only legal while a snapshot is open.
    pub fn capture(&mut self, records: Vec<(usize, usize, Vec<u8>)>) -> (u64, Evicted) {
        debug_assert!(!self.open.is_empty());
        self.cur_seq += 1;
        let seq = self.cur_seq;
        let bytes = records.iter().map(|(_, _, b)| b.len()).sum();
        self.bytes += bytes;
        self.versions.push_back(CommittedVersion {
            seq,
            records,
            bytes,
        });
        let mut evicted = Evicted::default();
        // Budget pressure evicts oldest-first *past* open snapshots:
        // their next read fails typed rather than serving wrong bytes.
        while self.versions.len() > VERSION_ENTRIES
            || (self.bytes > VERSION_BYTES && self.versions.len() > 1)
        {
            self.pop_front(&mut evicted);
        }
        (seq, evicted)
    }

    /// Overlays onto `buf` (the live bytes of region `region` starting at
    /// `offset`) the before-images of every retained commit newer than
    /// `read_seq`, newest first — reconstructing the committed image at
    /// `read_seq`. Records within one commit apply in reverse log order,
    /// matching the abort path, so overlapping claims resolve to the
    /// oldest before-image.
    pub fn overlay(&self, read_seq: u64, region: usize, offset: usize, buf: &mut [u8]) {
        for v in self.versions.iter().rev() {
            if v.seq <= read_seq {
                break;
            }
            for &(r, roff, ref image) in v.records.iter().rev() {
                if r != region {
                    continue;
                }
                crate::perseas::overlay_bytes(buf, offset, roff, image);
            }
        }
    }

    /// Drops versions older than every open snapshot (they can never be
    /// read again).
    fn prune(&mut self) -> Evicted {
        let horizon = self.open.values().copied().min().unwrap_or(self.cur_seq);
        let mut evicted = Evicted::default();
        while self.versions.front().is_some_and(|v| v.seq <= horizon) {
            self.pop_front(&mut evicted);
        }
        evicted
    }

    fn pop_front(&mut self, evicted: &mut Evicted) {
        if let Some(v) = self.versions.pop_front() {
            self.bytes -= v.bytes;
            self.floor_seq = self.floor_seq.max(v.seq);
            evicted.versions += 1;
            evicted.bytes += v.bytes;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_pin_the_capture_sequence() {
        let mut s = MvccState::new();
        s.skip();
        let t = s.begin();
        assert_eq!(t.read_seq(), 1);
        assert_eq!(s.validate(t).unwrap(), 1);
        assert_eq!(s.capture(vec![(0, 0, vec![9; 4])]).0, 2);
        // Still valid: version 2's before-image is retained for t.
        assert_eq!(s.validate(t).unwrap(), 1);
        s.end(t);
        assert!(s.validate(t).is_err(), "closed tokens are refused");
    }

    #[test]
    fn overlay_reconstructs_older_images() {
        let mut s = MvccState::new();
        let t0 = s.begin(); // before any commit
        s.capture(vec![(0, 2, vec![0, 0, 0])]); // commit wrote [2,5)
        let t1 = s.begin();
        s.capture(vec![(0, 4, vec![1, 1])]); // commit wrote [4,6)
                                             // Live bytes after both commits:
        let live = [7u8, 7, 1, 1, 2, 2, 7, 7];
        let mut buf = live;
        s.overlay(t1.read_seq(), 0, 0, &mut buf);
        assert_eq!(buf, [7, 7, 1, 1, 1, 1, 7, 7], "only commit 2 undone");
        let mut buf = live;
        s.overlay(t0.read_seq(), 0, 0, &mut buf);
        assert_eq!(buf, [7, 7, 0, 0, 0, 1, 7, 7], "both commits undone");
        // Partial window into the region.
        let mut buf = [1u8, 2, 2];
        s.overlay(t0.read_seq(), 0, 3, &mut buf);
        assert_eq!(buf, [0, 0, 1]);
        // Other regions are untouched.
        let mut buf = live;
        s.overlay(t0.read_seq(), 1, 0, &mut buf);
        assert_eq!(buf, live);
    }

    #[test]
    fn records_within_a_commit_apply_in_reverse() {
        let mut s = MvccState::new();
        let t = s.begin();
        // One commit logged two overlapping claims: the first (oldest)
        // record holds the true pre-transaction bytes.
        s.capture(vec![(0, 0, vec![5, 5, 5, 5]), (0, 2, vec![8, 8])]);
        let mut buf = [9u8; 4];
        s.overlay(t.read_seq(), 0, 0, &mut buf);
        assert_eq!(buf, [5, 5, 5, 5], "oldest record wins on overlap");
    }

    #[test]
    fn prune_keeps_only_what_open_snapshots_need() {
        let mut s = MvccState::new();
        s.skip();
        let t = s.begin();
        s.capture(vec![(0, 0, vec![2; 8])]);
        s.capture(vec![(0, 0, vec![3; 8])]);
        assert_eq!(s.version_count(), 2, "both needed by t");
        let e = s.end(t);
        assert_eq!(
            e,
            Evicted {
                versions: 2,
                bytes: 16
            }
        );
        assert_eq!(s.version_bytes(), 0);
    }

    #[test]
    fn skip_leaves_what_a_released_version_leaves() {
        let (mut released, mut skipped) = (MvccState::new(), MvccState::new());
        for _ in 0..3 {
            let t = released.begin();
            released.capture(vec![(0, 0, vec![1; 8])]);
            assert_eq!(released.end(t).versions, 1);
            skipped.skip();
        }
        for s in [&released, &skipped] {
            assert_eq!((s.cur_seq, s.floor(), s.version_count()), (3, 3, 0));
            assert_eq!(s.version_bytes(), 0);
        }
        let (t, u) = (released.begin(), skipped.begin());
        assert_eq!(t.read_seq(), u.read_seq());
        assert!(released.validate(t).is_ok() && skipped.validate(u).is_ok());
    }

    #[test]
    fn budget_pressure_raises_the_floor_past_open_snapshots() {
        let mut s = MvccState::new();
        let t = s.begin();
        let half = VERSION_BYTES / 2 + 1;
        s.capture(vec![(0, 0, vec![1; half])]);
        let (_, e) = s.capture(vec![(0, 0, vec![2; half])]);
        assert_eq!(e.versions, 1, "byte budget evicted the oldest");
        assert!(
            matches!(
                s.validate(t),
                Err(TxnError::SnapshotTooOld {
                    read_seq: 0,
                    floor_seq: 1
                })
            ),
            "snapshot below the floor must fail typed"
        );
        // A fresh snapshot above the floor still works, and keeps a
        // commit larger than the whole budget.
        let t2 = s.begin();
        let (_, e) = s.capture(vec![(0, 0, vec![3; VERSION_BYTES + 1])]);
        assert_eq!((e.versions, s.version_count()), (1, 1));
        assert!(s.validate(t2).is_ok());
    }

    #[test]
    fn entry_budget_evicts_oldest_first() {
        let mut s = MvccState::new();
        let t = s.begin();
        for i in 0..=VERSION_ENTRIES {
            s.capture(vec![(0, 0, vec![i as u8; 4])]);
        }
        assert_eq!(s.version_count(), VERSION_ENTRIES);
        assert_eq!(s.floor(), 1);
        assert!(s.validate(t).is_err());
    }

    #[test]
    fn crash_clear_invalidates_every_open_snapshot() {
        let mut s = MvccState::new();
        let t = s.begin();
        s.capture(vec![(0, 0, vec![1; 4])]);
        s.clear();
        assert_eq!(s.open_count(), 0);
        assert_eq!(s.version_bytes(), 0);
        assert!(s.validate(t).is_err());
        // Generations differ across instances, so a token from another
        // instance can never validate here even with matching ids.
        let mut other = MvccState::new();
        let alien = other.begin();
        assert!(s.validate(alien).is_err());
    }
}
