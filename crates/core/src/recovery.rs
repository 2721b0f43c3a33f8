//! Crash recovery (Section 3 and 4 of the paper).
//!
//! After a primary crash the database survives in the mirrors' memory.
//! Recovery, which may run on *any* workstation:
//!
//! 1. reconnects the metadata segment by its well-known tag
//!    (`sci_connect_segment`) and reads it as a [`MirrorImage`]: the
//!    header, the region table, the undo-log indirection and the commit
//!    record, every size checked against the segment's length;
//! 2. locates the region and undo segments the image names;
//! 3. scans the mirrored undo log — every valid record belonging to a
//!    transaction newer than the commit record is a before-image of an
//!    **uncommitted** transaction, and is copied back over the mirrored
//!    database (in reverse order, so overlapping `set_range`s resolve to
//!    the oldest image);
//! 4. rebuilds the local image with one remote-to-local copy per region.

use perseas_rnram::{RemoteMemory, RemoteSegment};
use perseas_sci::image::zeroed;
use perseas_sci::SegmentId;
use perseas_simtime::SimClock;
use perseas_txn::TxnError;

use crate::config::PerseasConfig;
use crate::layout::{
    decode_commit_table, decode_group_header, decode_region_entry, redo_dir_size, undo_records,
    MetaHeader, UndoRecord, DECISION_SLOT_SIZE, FLAG_CONCURRENT, FLAG_REDO, FLAG_SHARDED,
    GROUP_HEADER_SIZE, INTENT_SLOT_SIZE, OFF_COMMIT, OFF_EPOCH, OFF_REGION_TABLE,
    REGION_ENTRY_SIZE,
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

/// One mirror's metadata segment, read and checked, with the region and
/// undo segments it names located: the first step of recovery,
/// [`Perseas::recover_best`], sharded recovery and
/// [`crate::ReadReplica::refresh`] alike.
pub(crate) struct MirrorImage {
    /// The metadata segment.
    pub(crate) meta: RemoteSegment,
    /// The metadata segment's bytes as read.
    pub(crate) bytes: Vec<u8>,
    /// The decoded header.
    pub(crate) header: MetaHeader,
    /// The region segments, in table order.
    pub(crate) db: Vec<RemoteSegment>,
    /// The undo segment.
    pub(crate) undo: RemoteSegment,
    /// The undo log, once read (see [`MirrorImage::read_undo`]).
    pub(crate) undo_log: Option<Vec<u8>>,
}

impl MirrorImage {
    /// Reads the image the metadata segment `meta` describes and locates
    /// its segments. A mirror fenced out of the set after missing commits
    /// carries an epoch below `min_epoch`; its image must never serve, and
    /// the refusal carries `attempt`.
    pub(crate) fn read<M: RemoteMemory>(
        backend: &mut M,
        meta: RemoteSegment,
        min_epoch: u64,
        attempt: usize,
    ) -> Result<Self, TxnError> {
        let mut bytes = vec![0u8; meta.len];
        backend
            .remote_read(meta.id, 0, &mut bytes)
            .map_err(unavailable)?;
        let (header, table) = MirrorImage::decode(&bytes).map_err(TxnError::Unavailable)?;
        if header.epoch < min_epoch {
            return Err(TxnError::FencedMirror {
                epoch: header.epoch,
                required: min_epoch,
                attempts: attempt,
            });
        }
        let mut db = Vec::with_capacity(table.len());
        for (i, (seg_id, len)) in table.into_iter().enumerate() {
            let seg = backend
                .segment_info(SegmentId::from_raw(seg_id))
                .map_err(unavailable)?;
            if seg.len as u64 != len {
                return Err(TxnError::Unavailable(format!(
                    "region {i} length mismatch: table says {len}, segment has {}",
                    seg.len
                )));
            }
            db.push(seg);
        }
        let undo = backend
            .segment_info(SegmentId::from_raw(header.undo_seg_id))
            .map_err(unavailable)?;
        Ok(MirrorImage {
            meta,
            bytes,
            header,
            db,
            undo,
            undo_log: None,
        })
    }

    /// Decodes a metadata segment's header and region table
    /// `(db_seg_id, region_len)`. Every count the header declares comes
    /// off the wire, so the tables they describe must fit the segment
    /// before any of them sizes an allocation or a loop.
    fn decode(bytes: &[u8]) -> Result<(MetaHeader, Vec<(u64, u64)>), String> {
        let h = MetaHeader::decode(bytes).map_err(|m| format!("corrupt metadata: {m}"))?;
        let tables = (OFF_REGION_TABLE as u64)
            + u64::from(h.region_count) * REGION_ENTRY_SIZE as u64
            + u64::from(h.commit_slots) * 8
            + u64::from(h.intent_slots) * INTENT_SLOT_SIZE as u64
            + u64::from(h.decision_slots) * DECISION_SLOT_SIZE as u64
            + if h.flags & FLAG_REDO != 0 {
                redo_dir_size(0) as u64
            } else {
                0
            };
        if tables > bytes.len() as u64 {
            return Err(format!(
                "corrupt metadata: the header's tables need {tables} bytes, the segment has {}",
                bytes.len()
            ));
        }
        let table = (0..h.region_count as usize)
            .map(|i| decode_region_entry(bytes, i))
            .collect::<Result<_, _>>()?;
        Ok((h, table))
    }

    /// Whether the concurrent engine wrote the image.
    fn concurrent(&self) -> bool {
        self.header.flags & FLAG_CONCURRENT != 0
    }

    /// Whether the image was written on the redo commit path.
    pub(crate) fn redo(&self) -> bool {
        self.header.flags & FLAG_REDO != 0
    }

    /// `cfg` with the geometry baked into the image: its commit-slot
    /// count and, for a shard, its coordination tables and coordinates
    /// override whatever the config guessed.
    ///
    /// The engine that wrote the image decides how its undo log and
    /// commit record are interpreted, and so does its commit path: an
    /// undo config replaying a redo image would trust db segments that
    /// are stale between snapshots, and a redo config would look for a
    /// log directory an undo image does not have. A config that disagrees
    /// would silently mis-recover, so it is refused.
    fn config(&self, mut cfg: PerseasConfig) -> Result<PerseasConfig, TxnError> {
        let engine = |c: bool| if c { "concurrent" } else { "legacy" };
        if self.concurrent() != cfg.concurrent {
            return Err(TxnError::Unavailable(format!(
                "engine mismatch: the mirror was written by the {} engine \
                 but the config selects the {} engine",
                engine(self.concurrent()),
                engine(cfg.concurrent)
            )));
        }
        let path = |r: bool| if r { "redo" } else { "undo" };
        if self.redo() != cfg.redo {
            return Err(TxnError::Unavailable(format!(
                "commit-path mismatch: the mirror was written in {} mode \
                 but the config selects {} mode",
                path(self.redo()),
                path(cfg.redo)
            )));
        }
        let h = &self.header;
        if self.concurrent() {
            cfg.commit_slots = h.commit_slots as usize;
        }
        if h.flags & FLAG_SHARDED != 0 {
            cfg.intent_slots = h.intent_slots as usize;
            cfg.decision_slots = h.decision_slots as usize;
            cfg.shard_index = h.shard_index;
            cfg.shard_count = h.shard_count;
        }
        Ok(cfg)
    }

    /// The raw commit-table slots (none in a legacy image).
    pub(crate) fn commit_table(&self) -> Vec<u64> {
        decode_commit_table(&self.bytes, self.header.commit_slots as usize)
    }

    /// The newest id the image resolves as committed: the watermark, or
    /// a commit-table slot above it.
    pub(crate) fn newest_commit(&self) -> u64 {
        self.commit_table()
            .into_iter()
            .fold(self.header.last_committed, u64::max)
    }

    /// Reads the undo log unless it is held already: sharded recovery
    /// checks it for in-doubt parts and rolls back from the same bytes.
    pub(crate) fn read_undo<M: RemoteMemory>(&mut self, backend: &mut M) -> Result<(), TxnError> {
        if self.undo_log.is_none() {
            let mut undo = zeroed(self.undo.len);
            backend
                .remote_read(self.undo.id, 0, &mut undo)
                .map_err(unavailable)?;
            self.undo_log = Some(undo);
        }
        Ok(())
    }

    /// The records of **uncommitted** transactions in the undo log held
    /// (none before [`MirrorImage::read_undo`]), oldest first, by the
    /// rules of the engine that wrote the image. A record that does not
    /// fit the regions ends the scan.
    ///
    /// - Concurrent image: the arena opens with a CRC-guarded group
    ///   header that says how far it reaches, and a transaction is
    ///   committed when its id is at or below the watermark *or* holds a
    ///   commit-table slot above it. Tombstoned records (id 0) and
    ///   committed ids are skipped.
    /// - Legacy image: only the single newest transaction can be in
    ///   flight (the legacy library is sequential), and its records form
    ///   a prefix of the log from offset 0. Records of *older*
    ///   transactions beyond that prefix are stale — and must not be
    ///   replayed: an aborted transaction with overlapping `set_range`s
    ///   leaves stale records whose before-images contain its own
    ///   uncommitted mid-transaction values. The scan therefore stops at
    ///   the first record whose transaction id differs from the first
    ///   record's.
    pub(crate) fn scan_uncommitted(&self) -> Vec<(UndoRecord, std::ops::Range<usize>)> {
        let undo = self.undo_log.as_deref().unwrap_or_default();
        let watermark = self.header.last_committed;
        let fits = |rec: &UndoRecord| {
            self.db
                .get(rec.region as usize)
                .is_some_and(|seg| rec.offset.saturating_add(rec.len) <= seg.len as u64)
        };
        if !self.concurrent() {
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
        let end = record_bytes.saturating_add(GROUP_HEADER_SIZE as u64);
        let end = end.min(undo.len() as u64) as usize;
        let table = self.commit_table();
        undo_records(undo, GROUP_HEADER_SIZE, end)
            .filter(|(rec, _)| rec.txn_id > watermark && !table.contains(&rec.txn_id))
            .take_while(|(rec, _)| fits(rec))
            .collect()
    }
}

/// Reads the image to recover from out of `backends`, with its index.
///
/// Mirrors rank by epoch, then commit record, then lowest index. Epoch
/// ranks first: a fenced mirror (lower epoch) missed commits by
/// construction, so the newest epoch is always at least as committed as
/// any older one. Ranking peeks at two words per mirror and skips a
/// mirror that is unreachable or holds no metadata; only the winner is
/// read in full. A winner that is corrupt or below `cfg.min_epoch` fails
/// the recovery: it never falls back to a lower-ranked mirror.
pub(crate) fn best_image<M: RemoteMemory>(
    backends: &mut [M],
    cfg: &PerseasConfig,
) -> Result<(usize, MirrorImage), TxnError> {
    let mut best: Option<(usize, RemoteSegment, (u64, u64))> = None;
    for (i, b) in backends.iter_mut().enumerate() {
        let Ok(meta) = b.connect_segment(cfg.meta_tag) else {
            continue;
        };
        let (mut commit, mut epoch) = ([0u8; 8], [0u8; 8]);
        if b.remote_read(meta.id, OFF_COMMIT, &mut commit).is_err()
            || b.remote_read(meta.id, OFF_EPOCH, &mut epoch).is_err()
        {
            continue;
        }
        let rank = (u64::from_le_bytes(epoch), u64::from_le_bytes(commit));
        if best.is_none_or(|(.., top)| rank > top) {
            best = Some((i, meta, rank));
        }
    }
    let Some((i, meta, _)) = best else {
        return Err(TxnError::Unavailable(
            "no mirror holds recoverable PERSEAS metadata".into(),
        ));
    };
    Ok((
        i,
        MirrorImage::read(&mut backends[i], meta, cfg.min_epoch, 1)?,
    ))
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
        cfg: PerseasConfig,
        clock: SimClock,
    ) -> Result<(Self, RecoveryReport), TxnError> {
        let meta = backend.connect_segment(cfg.meta_tag).map_err(unavailable)?;
        let image = MirrorImage::read(&mut backend, meta, cfg.min_epoch, 1)?;
        Perseas::recover_image(backend, image, cfg, clock, Vec::new())
    }

    /// Recovers from `image`, read from `backend`, then scrubs each of
    /// the `rest` and re-mirrors onto it, restoring full redundancy.
    pub(crate) fn recover_image(
        mut backend: M,
        mut image: MirrorImage,
        cfg: PerseasConfig,
        clock: SimClock,
        rest: Vec<M>,
    ) -> Result<(Self, RecoveryReport), TxnError> {
        use crate::layout::RedoFormat;
        use crate::redo::{
            append_recovery_tombstones, decode_redo_dir, replay_committed, scan_redo_suffix,
            split_suffix_fates, RedoState,
        };
        let mut cfg = image.config(cfg)?;
        // Ids are dense, and once the in-flight transactions are resolved
        // every id at or below the largest one seen (committed in a slot,
        // rolled back, or in the log) is resolved: the watermark jumps to
        // that maximum and frees every slot in one step.
        let mut highest = image.newest_commit();
        // An `RDO1` log is read by its own rule, then migrated once the
        // engine stands (see `Perseas::migrate_redo_log`).
        let mut migrate = false;
        let (mut rolled_back_txns, rolled_back_records, redo) = if image.redo() {
            // The db segments hold the last snapshot image, so the
            // committed log suffix `(snapshot, tail]` is replayed over it
            // instead of rolling anything back. The directory's geometry
            // is baked into the mirror, like the commit-slot count.
            let mut dir = decode_redo_dir(&image.bytes, &image.header)?;
            cfg.redo_segment_bytes = dir.seg_size as usize;
            cfg.redo_segments = dir.slot_count;
            migrate = dir.format == RedoFormat::V1;
            let suffix = scan_redo_suffix(&mut backend, &dir)?;
            let table = image.commit_table();
            let fates = split_suffix_fates(suffix, image.header.last_committed, &table);
            // Presumed abort: the tombstones of the ids live in the suffix
            // must be durable before the watermark passes them, or a
            // second crash would replay them as committed.
            let mut ids = fates.live_uncommitted;
            ids.sort_unstable();
            append_recovery_tombstones(&mut backend, &image, &mut dir, &ids)?;
            highest = highest.max(fates.highest_seen);
            (ids, 0, Some((dir, fates.committed)))
        } else {
            // Roll the mirrored database back, newest record first.
            image.read_undo(&mut backend)?;
            let to_undo = image.scan_uncommitted();
            let undo = image.undo_log.as_deref().unwrap_or_default();
            for (rec, payload) in to_undo.iter().rev() {
                let seg = image.db[rec.region as usize];
                backend
                    .remote_write(seg.id, rec.offset as usize, &undo[payload.clone()])
                    .map_err(unavailable)?;
                highest = highest.max(rec.txn_id);
            }
            let ids = to_undo.iter().map(|(rec, _)| rec.txn_id).collect();
            (ids, to_undo.len(), None)
        };
        rolled_back_txns.sort_unstable();
        rolled_back_txns.dedup();
        // Mark every id up to `highest` consumed, so a crash during or
        // right after recovery cannot resolve a rolled-back transaction
        // again against a database that new transactions have since
        // modified. Then an ack barrier: the resolution writes and the
        // watermark may be posted unacknowledged on a pipelined transport,
        // and all must be confirmed before the image is read back.
        if highest != image.header.last_committed {
            backend
                .remote_write(image.meta.id, OFF_COMMIT, &highest.to_le_bytes())
                .map_err(unavailable)?;
        }
        backend.flush().map_err(unavailable)?;

        // Rebuild the local image: one remote-to-local copy per region
        // segment, each charged as a local copy.
        let mut regions = Vec::with_capacity(image.db.len());
        for seg in &image.db {
            let mut data = zeroed(seg.len);
            if seg.len > 0 {
                backend
                    .remote_read(seg.id, 0, &mut data)
                    .map_err(unavailable)?;
            }
            cfg.mem_cost.charge_memcpy(&clock, seg.len);
            regions.push(data);
        }
        let bytes_recovered = image.db.iter().map(|s| s.len).sum();
        let mut report = RecoveryReport {
            last_committed: image.header.last_committed,
            epoch: image.header.epoch,
            rolled_back_txn: rolled_back_txns.first().copied(),
            rolled_back_txns,
            rolled_back_records,
            regions: regions.len(),
            bytes_recovered,
            replayed_records: 0,
            replayed_bytes: 0,
            replay_virtual_nanos: 0,
        };
        let mut mirror = MirrorState::new(backend, image.meta, image.undo);
        mirror.db = image.db;
        let mut redo_state = None;
        if let Some((dir, committed)) = redo {
            // The replay cost scales with the live tail — this is the
            // instant restart the log-structured design buys.
            let replay_start = clock.now();
            (report.replayed_records, report.replayed_bytes) =
                replay_committed(&mut regions, &committed, &cfg, &clock)?;
            report.replay_virtual_nanos = clock.now().duration_since(replay_start).as_nanos();
            // The engine-side log state, from the (possibly
            // tombstone-extended) directory. The replayed records are
            // exactly where the rebuilt image differs from the mirror's
            // snapshot (a torn snapshot is torn only inside them), so
            // they are the dirty set.
            let state = redo_state.insert(RedoState::new(dir.slot_count, cfg.redo_segment_bytes));
            state.tail = dir.tail;
            state.snap_floor = dir.snap;
            for s in &committed {
                let (region, offset, len) = (s.rec.region, s.rec.offset, s.rec.len);
                state.mark_dirty(region as usize, offset as usize, len as usize);
            }
            mirror.redo = vec![None; dir.slot_count];
            mirror.redo_snap = dir.snap;
            for (slot, entry) in dir.entries.iter().enumerate() {
                if let Some((seg_id, seq)) = entry {
                    let seg = mirror
                        .backend
                        .segment_info(SegmentId::from_raw(*seg_id))
                        .map_err(unavailable)?;
                    mirror.redo[slot] = Some(seg);
                    state.slot_seqs[slot] = Some(*seq);
                }
            }
        }
        let epoch = image.header.epoch;
        let mut db = Perseas::assemble(cfg, clock, vec![mirror], regions, epoch, highest);
        if let Some(state) = redo_state {
            db.redo = state;
            if migrate {
                db.migrate_redo_log()?;
            }
        }
        for mut b in rest {
            // Drop the stale replica before re-mirroring, so its old
            // metadata can never shadow the fresh copy in a later
            // recovery. A mirror that is itself dead is simply skipped:
            // recovery must proceed on whatever survives.
            if Perseas::scrub_mirror(&mut b, &db.cfg).is_ok() {
                let _ = db.add_mirror(b);
            }
        }
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
    /// Fails if no mirror is recoverable, or if the best-ranked one is
    /// corrupt or below `cfg.min_epoch`.
    pub fn recover_best(
        mut backends: Vec<M>,
        cfg: PerseasConfig,
        clock: SimClock,
    ) -> Result<(Self, RecoveryReport), TxnError> {
        let (best, image) = best_image(&mut backends, &cfg)?;
        let chosen = backends.remove(best);
        Perseas::recover_image(chosen, image, cfg, clock, backends)
    }

    /// Frees every PERSEAS segment (metadata, undo log, database regions)
    /// that `backend` holds under `cfg.meta_tag`. Used before re-mirroring
    /// onto a node that carries a stale replica. Best effort: it frees
    /// what a decodable image names, plus the metadata segment.
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
            let mut bytes = vec![0u8; meta.len];
            backend
                .remote_read(meta.id, 0, &mut bytes)
                .map_err(unavailable)?;
            if let Ok((header, table)) = MirrorImage::decode(&bytes) {
                for (seg_id, _) in table {
                    let _ = backend.remote_free(SegmentId::from_raw(seg_id));
                }
                let _ = backend.remote_free(SegmentId::from_raw(header.undo_seg_id));
                // A redo image also owns the log segments its directory
                // names, live or retired.
                if header.flags & FLAG_REDO != 0 {
                    if let Ok(dir) = crate::redo::decode_redo_dir(&bytes, &header) {
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
