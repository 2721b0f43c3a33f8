//! Crash recovery (Section 3 and 4 of the paper).
//!
//! After a primary crash the database survives in the mirrors' memory.
//! Recovery, which may run on *any* workstation:
//!
//! 1. reconnects the metadata segment by its well-known tag
//!    (`sci_connect_segment`);
//! 2. reads the region table, the undo-log indirection, and the commit
//!    record;
//! 3. scans the mirrored undo log — every valid record belonging to a
//!    transaction newer than the commit record is a before-image of an
//!    **uncommitted** transaction, and is copied back over the mirrored
//!    database (in reverse order, so overlapping `set_range`s resolve to
//!    the oldest image);
//! 4. rebuilds the local image with one remote-to-local copy per region.

use perseas_rnram::{RemoteMemory, RemoteSegment};
use perseas_sci::SegmentId;
use perseas_simtime::SimClock;
use perseas_txn::TxnError;

use crate::config::PerseasConfig;
use crate::layout::{
    decode_commit_table, decode_group_header, undo_records, MetaHeader, UndoRecord,
    FLAG_CONCURRENT, GROUP_HEADER_SIZE, OFF_COMMIT, OFF_EPOCH,
};
use crate::perseas::{unavailable, MirrorState, Perseas};

/// What [`Perseas::recover`] found and did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Id of the last committed transaction according to the mirror (the
    /// durable watermark for concurrent images).
    pub last_committed: u64,
    /// Mirror-set epoch the recovered image carries (0 for pre-epoch
    /// images).
    pub epoch: u64,
    /// Id of the first in-flight transaction that was rolled back, if
    /// any (see [`RecoveryReport::rolled_back_txns`] for all of them).
    pub rolled_back_txn: Option<u64>,
    /// Ids of every in-flight transaction rolled back — a concurrent
    /// image can leave several open at the crash; each is resolved
    /// independently from its commit-table slot.
    pub rolled_back_txns: Vec<u64>,
    /// Number of undo records applied during rollback.
    pub rolled_back_records: usize,
    /// Number of database regions rebuilt.
    pub regions: usize,
    /// Bytes copied remote→local to rebuild the database.
    pub bytes_recovered: usize,
    /// Committed redo records replayed over the snapshot image (redo
    /// mode only; 0 for undo images).
    pub replayed_records: usize,
    /// After-image payload bytes replayed from the redo log.
    pub replayed_bytes: usize,
    /// Virtual-time nanoseconds the replay phase cost (regions replay in
    /// parallel, so this scales with the busiest region's share of the
    /// live tail, not total history).
    pub replay_virtual_nanos: u64,
}

impl<M: RemoteMemory> Perseas<M> {
    /// Recovers a database from one surviving mirror, rolling back any
    /// in-flight transaction and rebuilding the local image.
    ///
    /// # Errors
    ///
    /// Fails if the mirror has no (or corrupt) PERSEAS metadata or is
    /// unreachable.
    pub fn recover(backend: M, cfg: PerseasConfig) -> Result<(Self, RecoveryReport), TxnError> {
        Perseas::recover_with_clock(backend, cfg, SimClock::new())
    }

    /// Like [`Perseas::recover`], charging recovery work to `clock`.
    ///
    /// # Errors
    ///
    /// Fails if the mirror has no (or corrupt) PERSEAS metadata or is
    /// unreachable.
    pub fn recover_with_clock(
        mut backend: M,
        mut cfg: PerseasConfig,
        clock: SimClock,
    ) -> Result<(Self, RecoveryReport), TxnError> {
        // 1. Reconnect the metadata segment.
        let meta = backend.connect_segment(cfg.meta_tag).map_err(unavailable)?;
        let mut meta_image = vec![0u8; meta.len];
        backend
            .remote_read(meta.id, 0, &mut meta_image)
            .map_err(unavailable)?;
        let header = MetaHeader::decode(&meta_image)
            .map_err(|m| TxnError::Unavailable(format!("corrupt metadata: {m}")))?;
        // A mirror fenced out of the set after missing commits carries a
        // stale epoch; its image must never serve recovery.
        if header.epoch < cfg.min_epoch {
            return Err(TxnError::FencedMirror {
                epoch: header.epoch,
                required: cfg.min_epoch,
                attempts: 1,
            });
        }
        // The engine that wrote the image decides how its undo log and
        // commit record are interpreted; a config that disagrees would
        // silently mis-recover, so refuse it. The image's slot count
        // overrides the config — the table lives at the segment tail and
        // its geometry is baked into the mirror.
        let concurrent = header.flags & FLAG_CONCURRENT != 0;
        if concurrent != cfg.concurrent {
            return Err(TxnError::Unavailable(format!(
                "engine mismatch: the mirror was written by the {} engine \
                 but the config selects the {} engine",
                if concurrent { "concurrent" } else { "legacy" },
                if cfg.concurrent {
                    "concurrent"
                } else {
                    "legacy"
                }
            )));
        }
        if concurrent {
            cfg.commit_slots = header.commit_slots as usize;
        }
        // The commit-path mode is baked into the image the same way: an
        // undo config replaying a redo image would trust db segments
        // that are stale between snapshots, and a redo config would look
        // for a log directory an undo image does not have.
        let redo = header.flags & crate::layout::FLAG_REDO != 0;
        if redo != cfg.redo {
            return Err(TxnError::Unavailable(format!(
                "commit-path mismatch: the mirror was written in {} mode \
                 but the config selects {} mode",
                if redo { "redo" } else { "undo" },
                if cfg.redo { "redo" } else { "undo" }
            )));
        }
        // A sharded image carries its coordination-table geometry and
        // shard coordinates in the header; like the commit-slot count,
        // the mirror's layout overrides whatever the config guessed.
        if header.flags & crate::layout::FLAG_SHARDED != 0 {
            cfg.intent_slots = header.intent_slots as usize;
            cfg.decision_slots = header.decision_slots as usize;
            cfg.shard_index = header.shard_index;
            cfg.shard_count = header.shard_count;
        }

        // 2. Locate the region and undo segments.
        let mut db_segs: Vec<RemoteSegment> = Vec::with_capacity(header.region_count as usize);
        for i in 0..header.region_count as usize {
            let (seg_id, len) = crate::layout::decode_region_entry(&meta_image, i)
                .map_err(|m| TxnError::Unavailable(format!("corrupt region table: {m}")))?;
            let seg = backend
                .segment_info(SegmentId::from_raw(seg_id))
                .map_err(unavailable)?;
            if seg.len as u64 != len {
                return Err(TxnError::Unavailable(format!(
                    "region {i} length mismatch: table says {len}, segment has {}",
                    seg.len
                )));
            }
            db_segs.push(seg);
        }
        let undo_seg = backend
            .segment_info(SegmentId::from_raw(header.undo_seg_id))
            .map_err(unavailable)?;

        if redo {
            return Perseas::recover_redo(backend, cfg, clock, meta, meta_image, header, db_segs, undo_seg);
        }

        // 3. Scan the mirrored undo log for records of uncommitted
        //    transactions.
        let mut undo_shadow = vec![0u8; undo_seg.len];
        backend
            .remote_read(undo_seg.id, 0, &mut undo_shadow)
            .map_err(unavailable)?;
        let region_lens: Vec<usize> = db_segs.iter().map(|s| s.len).collect();
        let to_undo = scan_uncommitted(&undo_shadow, &meta_image, &header, &region_lens);

        // 4. Roll the mirrored database back, newest record first.
        let mut rolled_back_txns: Vec<u64> = to_undo.iter().map(|(r, _)| r.txn_id).collect();
        rolled_back_txns.sort_unstable();
        rolled_back_txns.dedup();
        let rolled_back_txn = rolled_back_txns.first().copied();
        let rolled_back_records = to_undo.len();
        let mut highest = header.last_committed;
        if concurrent {
            // Ids are dense, and after this rollback every id at or below
            // the largest one seen (committed in a slot, or just rolled
            // back) is resolved: the watermark jumps to that maximum and
            // frees every slot in one step.
            for &sid in &decode_commit_table(&meta_image, cfg.commit_slots) {
                highest = highest.max(sid);
            }
        }
        for (rec, payload) in to_undo.iter().rev() {
            let seg = db_segs[rec.region as usize];
            backend
                .remote_write(seg.id, rec.offset as usize, &undo_shadow[payload.clone()])
                .map_err(unavailable)?;
            highest = highest.max(rec.txn_id);
        }
        consume_through(&mut backend, meta.id, &header, highest)?;

        // 5. Rebuild the local image.
        let (regions, bytes_recovered) = read_regions(&mut backend, &db_segs, &cfg, &clock)?;

        let report = RecoveryReport {
            last_committed: header.last_committed,
            epoch: header.epoch,
            rolled_back_txn,
            rolled_back_txns,
            rolled_back_records,
            regions: regions.len(),
            bytes_recovered,
            replayed_records: 0,
            replayed_bytes: 0,
            replay_virtual_nanos: 0,
        };

        let mut mirror = MirrorState::new(backend, meta, undo_seg);
        mirror.db = db_segs;
        let db = Perseas::assemble(cfg, clock, vec![mirror], regions, header.epoch, highest);
        Ok((db, report))
    }

    /// The redo-mode arm of [`Perseas::recover_with_clock`]: the db
    /// segments hold the last snapshot image, so recovery replays the
    /// committed log suffix `(snapshot, tail]` on top of it instead of
    /// rolling anything back. Uncommitted ids found live in the suffix
    /// are resolved by presumed abort — a tombstone is appended (and
    /// confirmed) for each *before* the watermark passes their ids.
    #[allow(clippy::too_many_arguments)]
    fn recover_redo(
        mut backend: M,
        mut cfg: PerseasConfig,
        clock: SimClock,
        meta: RemoteSegment,
        meta_image: Vec<u8>,
        header: MetaHeader,
        db_segs: Vec<RemoteSegment>,
        undo_seg: RemoteSegment,
    ) -> Result<(Self, RecoveryReport), TxnError> {
        use crate::redo::{
            append_recovery_tombstones, decode_redo_dir, replay_committed, scan_redo_suffix,
            split_suffix_fates, RedoState,
        };
        // The directory's geometry is baked into the mirror and overrides
        // whatever the config guessed, like the commit-slot count.
        let mut dir = decode_redo_dir(&meta_image, &header)?;
        cfg.redo_segment_bytes = dir.seg_size as usize;
        cfg.redo_segments = dir.slot_count;

        // 3. Scan the live log suffix and split it by commit fate.
        let table = if cfg.concurrent {
            decode_commit_table(&meta_image, cfg.commit_slots)
        } else {
            Vec::new()
        };
        let suffix = scan_redo_suffix(&mut backend, &dir)?;
        let fates = split_suffix_fates(suffix, header.last_committed, &table);

        // 4. Resolve the in-flight transactions (presumed abort): their
        //    tombstones must be durable before the watermark below can
        //    pass their ids, or a second crash would replay them as
        //    committed.
        let mut rolled_back_txns = fates.live_uncommitted.clone();
        rolled_back_txns.sort_unstable();
        append_recovery_tombstones(
            &mut backend,
            meta.id,
            meta_image.len(),
            &header,
            &mut dir,
            &rolled_back_txns,
        )?;
        let mut highest = header.last_committed.max(fates.highest_seen);
        if cfg.concurrent {
            for &sid in &table {
                highest = highest.max(sid);
            }
        }
        consume_through(&mut backend, meta.id, &header, highest)?;

        // 5. Rebuild the local image from the snapshot in the db
        //    segments, then replay the committed suffix over it. The
        //    replay cost scales with the live tail — this is the instant
        //    restart the log-structured design buys.
        let (mut regions, bytes_recovered) = read_regions(&mut backend, &db_segs, &cfg, &clock)?;
        let replay_start = clock.now();
        let (replayed_records, replayed_bytes) =
            replay_committed(&mut regions, &fates.committed, &cfg, &clock)?;
        let replay_virtual_nanos = clock.now().duration_since(replay_start).as_nanos();

        let report = RecoveryReport {
            last_committed: header.last_committed,
            epoch: header.epoch,
            rolled_back_txn: rolled_back_txns.first().copied(),
            rolled_back_txns,
            rolled_back_records: 0,
            regions: regions.len(),
            bytes_recovered,
            replayed_records,
            replayed_bytes,
            replay_virtual_nanos,
        };

        // 6. Reconstruct the engine-side log state from the (possibly
        //    tombstone-extended) directory.
        let mut redo_state = RedoState::new(dir.slot_count);
        redo_state.tail = dir.tail;
        redo_state.snap_floor = dir.snap;
        // The replayed records are exactly where the rebuilt image
        // differs from the mirror's snapshot (a torn snapshot is torn
        // only inside them), so they are the dirty set.
        for s in &fates.committed {
            redo_state.mark_dirty(
                s.rec.region as usize,
                s.rec.offset as usize,
                s.rec.len as usize,
            );
        }
        let mut mirror = MirrorState::new(backend, meta, undo_seg);
        mirror.db = db_segs;
        mirror.redo = vec![None; dir.slot_count];
        mirror.redo_snap = dir.snap;
        for (slot, entry) in dir.entries.iter().enumerate() {
            if let Some((seg_id, seq)) = entry {
                let seg = mirror
                    .backend
                    .segment_info(SegmentId::from_raw(*seg_id))
                    .map_err(unavailable)?;
                mirror.redo[slot] = Some(seg);
                redo_state.slot_seqs[slot] = Some(*seq);
            }
        }
        let mut db = Perseas::assemble(cfg, clock, vec![mirror], regions, header.epoch, highest);
        db.redo = redo_state;
        Ok((db, report))
    }

    /// Recovers from the best of several surviving mirrors (the one with
    /// the newest commit record) and re-mirrors onto the rest, restoring
    /// full redundancy.
    ///
    /// Mirrors that are unreachable or hold no metadata are skipped.
    ///
    /// # Errors
    ///
    /// Fails if no mirror is recoverable.
    pub fn recover_best(
        backends: Vec<M>,
        cfg: PerseasConfig,
        clock: SimClock,
    ) -> Result<(Self, RecoveryReport), TxnError> {
        // Peek at every mirror's epoch and commit record. Epoch ranks
        // first: a fenced mirror (lower epoch) missed commits by
        // construction, so the newest epoch is always at least as
        // committed as any older one. Mirrors below `cfg.min_epoch` are
        // not even candidates.
        let mut candidates: Vec<(usize, u64, u64)> = Vec::new();
        let mut backends: Vec<Option<M>> = backends.into_iter().map(Some).collect();
        for (i, b) in backends.iter_mut().enumerate() {
            let backend = b.as_mut().expect("present");
            if let Ok(meta) = backend.connect_segment(cfg.meta_tag) {
                let mut commit = [0u8; 8];
                let mut epoch = [0u8; 8];
                if backend
                    .remote_read(meta.id, OFF_COMMIT, &mut commit)
                    .is_ok()
                    && backend.remote_read(meta.id, OFF_EPOCH, &mut epoch).is_ok()
                {
                    let epoch = u64::from_le_bytes(epoch);
                    if epoch >= cfg.min_epoch {
                        candidates.push((i, epoch, u64::from_le_bytes(commit)));
                    }
                }
            }
        }
        let Some(&(best, _, _)) = candidates
            .iter()
            .max_by_key(|&&(i, epoch, committed)| (epoch, committed, std::cmp::Reverse(i)))
        else {
            return Err(TxnError::Unavailable(
                "no mirror holds recoverable PERSEAS metadata at an admissible epoch".into(),
            ));
        };

        let chosen = backends[best].take().expect("present");
        let (mut db, report) = Perseas::recover_with_clock(chosen, cfg, clock)?;
        for mut b in backends.into_iter().flatten() {
            // Drop the stale replica before re-mirroring, so its old
            // metadata can never shadow the fresh copy in a later
            // recovery. A mirror that is itself dead is simply skipped:
            // recovery must proceed on whatever survives.
            if Perseas::scrub_mirror(&mut b, &cfg).is_err() {
                continue;
            }
            let _ = db.add_mirror(b);
        }
        Ok((db, report))
    }

    /// Frees every PERSEAS segment (metadata, undo log, database regions)
    /// that `backend` holds under `cfg.meta_tag`. Used before re-mirroring
    /// onto a node that carries a stale replica.
    ///
    /// # Errors
    ///
    /// Fails only on transport errors; a node without PERSEAS state is
    /// fine.
    pub fn scrub_mirror(backend: &mut M, cfg: &PerseasConfig) -> Result<(), TxnError> {
        loop {
            let meta = match backend.connect_segment(cfg.meta_tag) {
                Ok(meta) => meta,
                Err(perseas_rnram::RnError::TagNotFound(_)) => return Ok(()),
                Err(e) => return Err(unavailable(e)),
            };
            let mut image = vec![0u8; meta.len];
            backend
                .remote_read(meta.id, 0, &mut image)
                .map_err(unavailable)?;
            if let Ok(header) = MetaHeader::decode(&image) {
                for i in 0..header.region_count as usize {
                    if let Ok((seg_id, _)) = crate::layout::decode_region_entry(&image, i) {
                        let _ = backend.remote_free(SegmentId::from_raw(seg_id));
                    }
                }
                let _ = backend.remote_free(SegmentId::from_raw(header.undo_seg_id));
                // A redo image also owns the live log segments its
                // directory names.
                if header.flags & crate::layout::FLAG_REDO != 0 {
                    if let Ok(dir) = crate::redo::decode_redo_dir(&image, &header) {
                        for (seg_id, _) in dir.entries.iter().flatten() {
                            let _ = backend.remote_free(SegmentId::from_raw(*seg_id));
                        }
                    }
                }
            }
            backend.remote_free(meta.id).map_err(unavailable)?;
        }
    }
}

/// Moves the watermark of the image `header` describes to `highest`,
/// marking every id up to it consumed, so a crash during or right after
/// recovery cannot resolve a rolled-back transaction again against a
/// database that new transactions have since modified. Then an ack
/// barrier: the resolution writes and the watermark may be posted
/// unacknowledged on a pipelined transport, and all must be confirmed
/// before the mirror image is read back as recovered.
fn consume_through<M: RemoteMemory>(
    backend: &mut M,
    meta: SegmentId,
    header: &MetaHeader,
    highest: u64,
) -> Result<(), TxnError> {
    if highest != header.last_committed {
        backend
            .remote_write(meta, OFF_COMMIT, &highest.to_le_bytes())
            .map_err(unavailable)?;
    }
    backend.flush().map(|_| ()).map_err(unavailable)
}

/// One remote-to-local copy per region segment, each charged as a local
/// copy: the local image recovery rebuilds, with its size in bytes.
fn read_regions<M: RemoteMemory>(
    backend: &mut M,
    segs: &[RemoteSegment],
    cfg: &PerseasConfig,
    clock: &SimClock,
) -> Result<(Vec<Vec<u8>>, usize), TxnError> {
    let mut regions = Vec::with_capacity(segs.len());
    for seg in segs {
        let mut data = vec![0u8; seg.len];
        if seg.len > 0 {
            backend
                .remote_read(seg.id, 0, &mut data)
                .map_err(unavailable)?;
        }
        cfg.mem_cost.charge_memcpy(clock, seg.len);
        regions.push(data);
    }
    Ok((regions, segs.iter().map(|s| s.len).sum()))
}

/// The records of **uncommitted** transactions in a mirror's undo log
/// `undo`, oldest first, by the rules of the engine that wrote the image
/// (`header`, with its metadata segment `meta_image`). A record that
/// does not fit the regions `region_lens` ends the scan. Shared by
/// [`Perseas::recover`] and [`crate::ReadReplica::refresh`].
///
/// - Concurrent image: the arena opens with a CRC-guarded group header
///   that says how far it reaches, and a transaction is committed when
///   its id is at or below the watermark *or* holds a commit-table slot
///   above it. Tombstoned records (id 0) and committed ids are skipped.
/// - Legacy image: only the single newest transaction can be in flight
///   (the legacy library is sequential), and its records form a prefix
///   of the log from offset 0. Records of *older* transactions beyond
///   that prefix are stale — and must not be replayed: an aborted
///   transaction with overlapping `set_range`s leaves stale records whose
///   before-images contain its own uncommitted mid-transaction values.
///   The scan therefore stops at the first record whose transaction id
///   differs from the first record's.
pub(crate) fn scan_uncommitted(
    undo: &[u8],
    meta_image: &[u8],
    header: &MetaHeader,
    region_lens: &[usize],
) -> Vec<(UndoRecord, std::ops::Range<usize>)> {
    let watermark = header.last_committed;
    let fits = |rec: &UndoRecord| {
        let ri = rec.region as usize;
        ri < region_lens.len() && (rec.offset + rec.len) as usize <= region_lens[ri]
    };
    if header.flags & FLAG_CONCURRENT == 0 {
        let mut in_flight = None;
        return undo_records(undo, 0, undo.len())
            .take_while(|(rec, _)| {
                rec.txn_id > watermark
                    && *in_flight.get_or_insert(rec.txn_id) == rec.txn_id
                    && fits(rec)
            })
            .collect();
    }
    let Some(record_bytes) = decode_group_header(undo) else {
        return Vec::new();
    };
    let end = (GROUP_HEADER_SIZE as u64 + record_bytes).min(undo.len() as u64) as usize;
    let table = decode_commit_table(meta_image, header.commit_slots as usize);
    undo_records(undo, GROUP_HEADER_SIZE, end)
        .filter(|(rec, _)| rec.txn_id > watermark && !table.contains(&rec.txn_id))
        .take_while(|(rec, _)| fits(rec))
        .collect()
}
