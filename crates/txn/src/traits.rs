//! The [`TransactionalMemory`] trait.

use std::fmt;

use serde::{Deserialize, Serialize};

use perseas_simtime::SimClock;

use crate::{TxnError, TxnStats};

/// Handle to a recoverable memory region (one "database segment" in the
/// paper's terms).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct RegionId(u32);

impl RegionId {
    /// Builds a region id from its raw representation (used by recovery
    /// code that re-derives handles from durable metadata).
    pub const fn from_raw(raw: u32) -> Self {
        RegionId(raw)
    }

    /// The raw representation.
    pub const fn as_raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "region#{}", self.0)
    }
}

/// Handle to an open read snapshot: a pinned commit watermark that
/// [`TransactionalMemory::read_snapshot`] resolves reads against. Plain
/// copyable data — dropping a token does not close the snapshot; call
/// [`TransactionalMemory::end_snapshot`] so the version store can evict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SnapshotToken {
    id: u64,
    read_seq: u64,
    gen: u64,
}

impl SnapshotToken {
    /// Builds a token from its raw parts (engine-internal; tokens are
    /// normally obtained from `begin_snapshot`).
    pub const fn from_raw(id: u64, read_seq: u64, gen: u64) -> Self {
        SnapshotToken { id, read_seq, gen }
    }

    /// The snapshot's id, unique within one engine generation.
    pub const fn id(self) -> u64 {
        self.id
    }

    /// The commit watermark this snapshot reads at: every commit with a
    /// sequence number ≤ `read_seq` is visible, nothing later is.
    pub const fn read_seq(self) -> u64 {
        self.read_seq
    }

    /// The engine generation (recovery epoch) the token was issued under.
    /// A recovered engine refuses tokens from earlier generations with a
    /// typed [`TxnError::SnapshotTooOld`] rather than serving torn bytes.
    pub const fn generation(self) -> u64 {
        self.gen
    }
}

impl fmt::Display for SnapshotToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "snapshot#{}@{}", self.id, self.read_seq)
    }
}

/// A recoverable, transactional main memory: the interface shared by
/// PERSEAS and every baseline.
///
/// The lifecycle mirrors the paper's API:
///
/// 1. [`alloc_region`](TransactionalMemory::alloc_region) one or more
///    regions (`PERSEAS_malloc`) and initialise them with
///    [`write`](TransactionalMemory::write) (allowed outside transactions
///    only before `publish`);
/// 2. [`publish`](TransactionalMemory::publish) the initial image
///    (`PERSEAS_init_remote_db` — or the initial checkpoint of a WAL
///    system);
/// 3. run transactions:
///    [`begin_transaction`](TransactionalMemory::begin_transaction) →
///    [`set_range`](TransactionalMemory::set_range) →
///    [`write`](TransactionalMemory::write) →
///    [`commit_transaction`](TransactionalMemory::commit_transaction) or
///    [`abort_transaction`](TransactionalMemory::abort_transaction).
///
/// Implementations are sequential (one transaction at a time), as in the
/// paper.
pub trait TransactionalMemory {
    /// Short human-readable system name ("perseas", "rvm", ...).
    fn system_name(&self) -> &'static str;

    /// Allocates a zero-filled recoverable region of `len` bytes.
    ///
    /// # Errors
    ///
    /// Fails with [`TxnError::BusyInTransaction`] inside a transaction, or
    /// if the backing store cannot hold the region.
    fn alloc_region(&mut self, len: usize) -> Result<RegionId, TxnError>;

    /// Makes the current contents of all regions the durable initial
    /// image. Must be called exactly once, after initialisation writes and
    /// before the first transaction.
    ///
    /// # Errors
    ///
    /// Fails with [`TxnError::BadPublishState`] on misuse or
    /// [`TxnError::Unavailable`] if the durable store cannot be reached.
    fn publish(&mut self) -> Result<(), TxnError>;

    /// Opens a transaction.
    ///
    /// # Errors
    ///
    /// Fails with [`TxnError::TransactionAlreadyActive`] if one is open,
    /// or [`TxnError::BadPublishState`] before `publish`.
    fn begin_transaction(&mut self) -> Result<(), TxnError>;

    /// Declares that the current transaction may modify
    /// `[offset, offset+len)` of `region`; the before-image is logged.
    ///
    /// # Errors
    ///
    /// Fails outside a transaction, on unknown regions, and on bounds
    /// violations.
    fn set_range(&mut self, region: RegionId, offset: usize, len: usize) -> Result<(), TxnError>;

    /// Writes `data` at `offset` of `region`.
    ///
    /// Outside a transaction this is only legal before `publish`
    /// (initialisation). Inside a transaction the range must be covered by
    /// a prior `set_range`.
    ///
    /// # Errors
    ///
    /// Fails on undeclared ranges, unknown regions, and bounds violations.
    fn write(&mut self, region: RegionId, offset: usize, data: &[u8]) -> Result<(), TxnError>;

    /// Reads `buf.len()` bytes at `offset` of `region`.
    ///
    /// # Errors
    ///
    /// Fails on unknown regions and bounds violations.
    fn read(&self, region: RegionId, offset: usize, buf: &mut [u8]) -> Result<(), TxnError>;

    /// Commits the current transaction, making its updates durable.
    ///
    /// # Errors
    ///
    /// Fails outside a transaction or if the durable store is unreachable
    /// (in which case the transaction is *not* durable).
    fn commit_transaction(&mut self) -> Result<(), TxnError>;

    /// Aborts the current transaction, restoring every declared range from
    /// the undo log.
    ///
    /// # Errors
    ///
    /// Fails outside a transaction.
    fn abort_transaction(&mut self) -> Result<(), TxnError>;

    /// `true` while a transaction is open.
    fn in_transaction(&self) -> bool;

    /// The virtual clock this system charges its costs to.
    fn clock(&self) -> &SimClock;

    /// Cumulative operation counters.
    fn stats(&self) -> TxnStats;

    /// Length of a region.
    ///
    /// # Errors
    ///
    /// Fails on unknown regions.
    fn region_len(&self, region: RegionId) -> Result<usize, TxnError>;

    /// Opens a read snapshot pinned at the current commit watermark.
    /// Snapshot reads take no conflict-table claims and never contend
    /// with writers. Systems without multi-version support keep the
    /// default, which refuses with [`TxnError::Unavailable`].
    ///
    /// # Errors
    ///
    /// Fails when the system has no version store (the default).
    fn begin_snapshot(&mut self) -> Result<SnapshotToken, TxnError> {
        Err(TxnError::Unavailable(
            "snapshot reads are not supported by this system".into(),
        ))
    }

    /// Reads `buf.len()` bytes at `offset` of `region` as of the
    /// snapshot's pinned commit watermark.
    ///
    /// # Errors
    ///
    /// Fails on unknown regions, bounds violations, and with
    /// [`TxnError::SnapshotTooOld`] when the needed versions were
    /// evicted; never with [`TxnError::Conflict`] or
    /// [`TxnError::SnapshotContention`].
    fn read_snapshot(
        &self,
        snap: SnapshotToken,
        region: RegionId,
        offset: usize,
        buf: &mut [u8],
    ) -> Result<(), TxnError> {
        let _ = (snap, region, offset, buf);
        Err(TxnError::Unavailable(
            "snapshot reads are not supported by this system".into(),
        ))
    }

    /// Closes a snapshot so the version store can evict past it. Closing
    /// an unknown or already-closed token is a no-op.
    fn end_snapshot(&mut self, snap: SnapshotToken) {
        let _ = snap;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_id_roundtrip_and_display() {
        let r = RegionId::from_raw(7);
        assert_eq!(r.as_raw(), 7);
        assert_eq!(r.to_string(), "region#7");
    }

    #[test]
    fn trait_is_object_safe() {
        fn _takes_dyn(_: &mut dyn TransactionalMemory) {}
    }
}
