//! Protocol event tracing — production observability for the library.
//!
//! Operators of a replicated store need to see what the commit path is
//! doing (how many ranges per transaction, how often the undo log grows,
//! when mirrors are reconfigured). A [`Tracer`] installed with
//! [`Perseas::set_tracer`](crate::Perseas::set_tracer) receives a
//! [`TraceEvent`] at each protocol milestone; the default is no tracer and
//! zero overhead beyond a branch.

use std::sync::{Arc, Mutex};

/// One protocol milestone.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceEvent {
    /// A transaction opened.
    TxnBegin {
        /// Transaction id.
        id: u64,
    },
    /// A range was declared and its before-image pushed to the mirrors.
    SetRange {
        /// Transaction id.
        id: u64,
        /// Region index.
        region: u32,
        /// Range start.
        offset: usize,
        /// Range length.
        len: usize,
    },
    /// The mirrored undo log grew.
    UndoGrown {
        /// New capacity in bytes.
        new_capacity: usize,
    },
    /// The batched commit pipeline dispatched one vectored write per
    /// mirror for the undo log and one for the coalesced data ranges
    /// (emitted before the commit record is published; only on the
    /// batched path, see
    /// [`PerseasConfig::with_batched_commit`](crate::PerseasConfig::with_batched_commit)).
    CommitBatch {
        /// Transaction id.
        id: u64,
        /// Mirrors written.
        mirrors: usize,
        /// Physical ranges in the data-update vectored write (after
        /// coalescing and alignment widening).
        ranges: usize,
        /// Bytes of the data-update vectored write, per mirror.
        bytes: usize,
        /// Bytes of the undo-log vectored write, per mirror.
        undo_bytes: usize,
    },
    /// A transaction committed durably.
    TxnCommitted {
        /// Transaction id.
        id: u64,
        /// Coalesced ranges propagated.
        ranges: usize,
        /// Payload bytes propagated.
        bytes: usize,
    },
    /// A transaction aborted (local-only).
    TxnAborted {
        /// Transaction id.
        id: u64,
    },
    /// A mirror was added at the given index.
    MirrorAdded {
        /// Index of the new mirror.
        index: usize,
    },
    /// A mirror was removed from the given index.
    MirrorRemoved {
        /// Index the mirror occupied.
        index: usize,
    },
    /// A remote operation against a mirror failed with a transport-level
    /// error: the mirror was marked `Down` and fenced out of the set.
    MirrorDown {
        /// Index of the failed mirror.
        index: usize,
        /// The transport failure that condemned it.
        error: String,
    },
    /// A `Down` or `Suspect` mirror was resynced and promoted back to
    /// `Healthy` at the current epoch.
    MirrorRejoined {
        /// Index of the restored mirror.
        index: usize,
        /// Epoch at which it rejoined.
        epoch: u64,
    },
    /// The mirror-set epoch advanced (a membership change: fence, add,
    /// rejoin, or removal) and was written to every healthy mirror.
    EpochBump {
        /// The new epoch.
        epoch: u64,
    },
    /// A transaction committed durably while one or more mirrors were
    /// down — redundancy is reduced until they rejoin.
    DegradedCommit {
        /// Transaction id.
        id: u64,
        /// Healthy mirrors the commit reached.
        healthy: usize,
        /// Total mirrors in the set.
        mirrors: usize,
    },
    /// A `set_range` claim lost to an overlapping claim held by another
    /// open transaction (concurrent engine only).
    TxnConflict {
        /// Transaction whose claim was rejected.
        id: u64,
        /// Transaction holding the overlapping claim.
        holder: u64,
        /// Region of the contested range.
        region: u32,
        /// Start of the rejected claim.
        offset: usize,
        /// Length of the rejected claim.
        len: usize,
    },
    /// Several transactions committed together through one batched
    /// fan-out (concurrent engine only; emitted once per group, after the
    /// per-transaction `TxnCommitted` events).
    GroupCommit {
        /// Ids of the transactions in the group, ascending.
        txns: Vec<u64>,
        /// Physical ranges in the shared data-update vectored write.
        ranges: usize,
        /// Bytes of the shared data-update vectored write, per mirror.
        bytes: usize,
        /// Bytes of the shared undo-log vectored write, per mirror.
        undo_bytes: usize,
    },
    /// An ack barrier at a durability point confirmed previously posted
    /// remote writes (emitted only when at least one operation was
    /// actually outstanding, so inline-acknowledging backends — the
    /// simulated SCI mapping, the synchronous TCP client — never see it
    /// and their event sequences are unchanged).
    Flush {
        /// Posted operations the barrier confirmed, summed over mirrors.
        posted: usize,
        /// Payload bytes those operations carried.
        bytes: usize,
    },
    /// The instance crashed (fault injection or explicit).
    Crashed,
    /// A cross-shard transaction froze its part on one shard: undo
    /// records and data are durable, and an intent slot names the home
    /// shard holding the decision (sharded databases only).
    CrossShardPrepared {
        /// Global cross-shard transaction id.
        global: u64,
        /// Shard the part was prepared on.
        shard: u16,
        /// The part's local transaction id on that shard.
        txn: u64,
    },
    /// The packet-atomic decision record of a cross-shard transaction was
    /// flushed to its home shard — the transaction is now committed,
    /// whatever happens to the fan-out.
    CrossShardDecision {
        /// Global cross-shard transaction id.
        global: u64,
        /// Home shard holding the decision record.
        home: u16,
        /// Number of participant shards.
        shards: usize,
    },
    /// The record-only commit fan-out of a cross-shard transaction
    /// completed on every participant shard.
    CrossShardCommitted {
        /// Global cross-shard transaction id.
        global: u64,
        /// Number of participant shards.
        shards: usize,
    },
    /// Recovery resolved an in-doubt prepared part by consulting the home
    /// shard's decision table.
    CrossShardResolved {
        /// Global cross-shard transaction id.
        global: u64,
        /// Shard whose part was resolved.
        shard: u16,
        /// `true` if the decision record existed (part kept), `false` if
        /// it was absent (part rolled back — presumed abort).
        committed: bool,
    },
    /// A read snapshot opened, pinned at the current commit watermark.
    SnapshotBegin {
        /// Snapshot id.
        id: u64,
        /// Commit watermark the snapshot pinned.
        read_seq: u64,
        /// Snapshots open after this one, including it.
        open: usize,
    },
    /// A read snapshot closed; the version store may evict past it.
    SnapshotEnd {
        /// Snapshot id.
        id: u64,
        /// Snapshots still open.
        open: usize,
    },
    /// A snapshot read was refused because its versions were evicted (or
    /// a crash cleared the store) — raised typed, never served torn.
    SnapshotTooOld {
        /// Snapshot id.
        id: u64,
        /// Commit watermark the snapshot pinned.
        read_seq: u64,
        /// Oldest watermark the store can still reconstruct.
        floor_seq: u64,
    },
    /// A committed transaction's before-images were retained in the
    /// version store (only while a snapshot is open).
    VersionCaptured {
        /// Commit sequence assigned to the version.
        seq: u64,
        /// Committing transaction's id.
        txn: u64,
        /// Store payload bytes after the capture.
        bytes: usize,
        /// Versions retained after the capture.
        versions: usize,
    },
    /// The version store evicted versions (released when the snapshots
    /// that needed them closed, or pushed past open ones by budget
    /// pressure).
    VersionEvicted {
        /// Versions removed.
        versions: usize,
        /// Payload bytes removed.
        bytes: usize,
        /// The new reconstruction floor.
        floor_seq: u64,
        /// Store payload bytes remaining.
        store_bytes: usize,
        /// Versions remaining.
        store_versions: usize,
    },
    /// A commit (or abort tombstone) appended records to the segmented
    /// redo log on every healthy mirror (redo mode only, see
    /// [`PerseasConfig::with_redo`](crate::PerseasConfig::with_redo)).
    RedoAppend {
        /// Records in the appended batch (after-images and tombstones).
        records: usize,
        /// Encoded bytes appended, per mirror (headers + payloads).
        bytes: usize,
        /// Absolute log byte position of the new tail.
        tail: u64,
        /// Log bytes above the compaction floor after this append.
        live_bytes: u64,
    },
    /// An append reached a new log sequence: its slot's segment was
    /// allocated on every healthy mirror (first lap) or recycled from a
    /// retired sequence, and the append's burst publishes it in the log
    /// directory.
    RedoSegmentOpened {
        /// The segment's log sequence number.
        seq: u64,
        /// Directory slot it occupies.
        slot: usize,
        /// Live log segments after opening it.
        live: usize,
    },
    /// The dirty ranges were shipped to every healthy mirror, whose db
    /// segments now equal the local image, and the snapshot position
    /// advanced to the tail: recovery now replays only records appended
    /// after this point.
    RedoSnapshot {
        /// Log position the snapshot covers (the tail at capture).
        tail: u64,
        /// Dirty region bytes shipped, per mirror.
        bytes: usize,
    },
    /// Fully-snapshotted log segments were retired: recovery reads them
    /// no more, and each one's slot keeps its remote memory for the next
    /// lap of the log.
    RedoCompacted {
        /// Segments retired.
        segments: usize,
        /// Remote log bytes retired, per mirror.
        retired_bytes: usize,
        /// Live log segments remaining.
        live: usize,
    },
}

/// A sink for [`TraceEvent`]s.
pub trait Tracer: Send {
    /// Receives one event, in protocol order.
    fn event(&mut self, event: &TraceEvent);
}

impl<F: FnMut(&TraceEvent) + Send> Tracer for F {
    fn event(&mut self, event: &TraceEvent) {
        self(event)
    }
}

/// A tracer that records every event into a shared vector — handy in
/// tests and debugging sessions.
///
/// # Examples
///
/// ```
/// use perseas_core::{Perseas, PerseasConfig, RecordingTracer, TraceEvent};
/// use perseas_rnram::SimRemote;
///
/// # fn main() -> Result<(), perseas_txn::TxnError> {
/// let mut db = Perseas::init(vec![SimRemote::new("m")], PerseasConfig::default())?;
/// let r = db.malloc(16)?;
/// db.init_remote_db()?;
///
/// let tracer = RecordingTracer::new();
/// db.set_tracer(Box::new(tracer.clone()));
/// db.transaction(|tx| tx.update(r, 0, &[1; 4]))?;
///
/// let events = tracer.events();
/// assert!(matches!(events[0], TraceEvent::TxnBegin { id: 1 }));
/// assert!(matches!(events.last(), Some(TraceEvent::TxnCommitted { .. })));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct RecordingTracer {
    events: Arc<Mutex<Vec<TraceEvent>>>,
}

impl RecordingTracer {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        RecordingTracer::default()
    }

    /// A snapshot of the events recorded so far.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Discards recorded events.
    pub fn clear(&self) {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
    }
}

impl Tracer for RecordingTracer {
    fn event(&mut self, event: &TraceEvent) {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultPlan, Perseas, PerseasConfig};
    use perseas_rnram::SimRemote;

    fn traced() -> (Perseas<SimRemote>, perseas_txn::RegionId, RecordingTracer) {
        let mut db = Perseas::init(vec![SimRemote::new("m")], PerseasConfig::default()).unwrap();
        let r = db.malloc(64).unwrap();
        db.init_remote_db().unwrap();
        let tracer = RecordingTracer::new();
        db.set_tracer(Box::new(tracer.clone()));
        (db, r, tracer)
    }

    #[test]
    fn commit_emits_begin_ranges_commit() {
        let (mut db, r, tracer) = traced();
        db.begin_transaction().unwrap();
        db.set_range(r, 0, 8).unwrap();
        db.set_range(r, 8, 8).unwrap();
        db.write(r, 0, &[1; 16]).unwrap();
        db.commit_transaction().unwrap();

        let events = tracer.events();
        assert_eq!(events[0], TraceEvent::TxnBegin { id: 1 });
        assert_eq!(
            events[1],
            TraceEvent::SetRange {
                id: 1,
                region: 0,
                offset: 0,
                len: 8
            }
        );
        assert_eq!(
            *events.last().unwrap(),
            TraceEvent::TxnCommitted {
                id: 1,
                ranges: 1, // coalesced 0..8 + 8..16
                bytes: 16
            }
        );
    }

    #[test]
    fn abort_and_crash_are_traced() {
        let (mut db, r, tracer) = traced();
        db.begin_transaction().unwrap();
        db.set_range(r, 0, 4).unwrap();
        db.abort_transaction().unwrap();
        db.set_fault_plan(FaultPlan::crash_after(0));
        db.begin_transaction().unwrap();
        let _ = db.set_range(r, 0, 4);
        let events = tracer.events();
        assert!(events.contains(&TraceEvent::TxnAborted { id: 1 }));
        assert_eq!(*events.last().unwrap(), TraceEvent::Crashed);
    }

    #[test]
    fn undo_growth_and_mirror_changes_are_traced() {
        let cfg = PerseasConfig::default().with_initial_undo_capacity(64);
        let mut db = Perseas::init(vec![SimRemote::new("m")], cfg).unwrap();
        let r = db.malloc(1024).unwrap();
        db.init_remote_db().unwrap();
        let tracer = RecordingTracer::new();
        db.set_tracer(Box::new(tracer.clone()));

        db.begin_transaction().unwrap();
        db.set_range(r, 0, 512).unwrap();
        db.write(r, 0, &[2; 512]).unwrap();
        db.commit_transaction().unwrap();
        db.add_mirror(SimRemote::new("m2")).unwrap();
        db.remove_mirror(1).unwrap();

        let events = tracer.events();
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::UndoGrown { new_capacity } if *new_capacity >= 548)));
        assert!(events.contains(&TraceEvent::MirrorAdded { index: 1 }));
        assert!(events.contains(&TraceEvent::MirrorRemoved { index: 1 }));
    }

    #[test]
    fn closures_are_tracers() {
        let (mut db, r, _) = traced();
        let count = Arc::new(Mutex::new(0usize));
        let c2 = count.clone();
        db.set_tracer(Box::new(move |_: &TraceEvent| {
            *c2.lock().unwrap() += 1;
        }));
        db.transaction(|tx| tx.update(r, 0, &[1; 4])).unwrap();
        assert!(*count.lock().unwrap() >= 3); // begin + set_range + commit
    }
}
