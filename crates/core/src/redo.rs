//! The REDO-only log-structured commit path (`PerseasConfig::with_redo`).
//!
//! In redo mode a commit ships **after-images** instead of undo copies:
//! the declared ranges are framed as CRC-guarded [`RedoRecord`]s and
//! appended — together with the packet-atomic log-tail line — in one
//! vectored write per mirror to a log of fixed-size remote segments. The
//! packet-atomic commit record (legacy) or watermark/slot write
//! (concurrent) stays the durability point. It rides behind the tail
//! line in the same write, which applies in order, or, under a commit
//! quorum above 1, follows an ack barrier on the burst (see
//! [`Perseas::publish_commit`]); either way a durable marker always
//! implies a durable log suffix. The mirrored database segments are
//! **not** touched on the hot path: they hold the image of the last
//! [`Perseas::redo_snapshot`], and recovery replays the committed log
//! suffix `(snapshot position, tail]` on top of it — restart time scales
//! with the live tail, not total history.
//!
//! Every appended after-image also marks its range in the engine's
//! dirty set ([`RedoState::dirty`]). Outside that set each healthy
//! mirror's db segments already equal the local image, so a snapshot
//! ships only the dirty ranges, not every region.
//!
//! The log directory (geometry header, tail, snapshot position, one
//! 16-byte entry per segment slot) lives at the tail of the metadata
//! segment, directly before the coordination tables (see
//! [`crate::layout::redo_dir_end`]). Records never straddle a segment
//! boundary: a record that does not fit pads the remainder with zeroes
//! and replay jumps to the next boundary on the (CRC-guaranteed) decode
//! failure.
//!
//! Aborts are purely local — uncommitted records are inert without the
//! marker — with one exception: a transaction whose records already
//! reached the log (a prepared member, or a commit that failed past the
//! append) must publish an **abort tombstone**
//! ([`REDO_TOMBSTONE_REGION`]) before its id can be passed by the
//! watermark, or replay would resurrect the aborted bytes.

use std::collections::BTreeSet;

use perseas_rnram::{RemoteMemory, SegmentId};
use perseas_simtime::SimClock;
use perseas_txn::TxnError;

use crate::config::PerseasConfig;
use crate::layout::{
    decode_redo_dir_header, decode_redo_entry, encode_redo_entry, redo_dir_end,
    redo_entry_offset, redo_header_offset, redo_snap_offset, redo_tail_offset, MetaHeader,
    RedoRecord, REDO_ENTRY_SIZE, REDO_TOMBSTONE_REGION,
};
use crate::perseas::{
    commit_completes, commit_record, unavailable, Batch, MirrorState, Perseas, Phase,
};
use crate::trace::TraceEvent;

/// One write to be logged: `(txn id, region index, start, len)`. A
/// `region` of [`REDO_TOMBSTONE_REGION`] (with zero length) logs an
/// abort tombstone instead of an after-image.
pub(crate) type RedoWrite = (u64, usize, usize, usize);

/// A commit riding on an append: its id and the builder of each
/// mirror's commit record (see [`Perseas::redo_append`]).
pub(crate) type AppendedCommit<'a, M> = (u64, &'a mut dyn FnMut(&MirrorState<M>) -> Batch);

/// Engine-side state of the segmented redo log.
pub(crate) struct RedoState {
    /// Absolute log byte position of the durable tail (`seq * seg_size +
    /// offset`).
    pub(crate) tail: u64,
    /// Compaction floor: the smallest snapshot position any healthy
    /// mirror's image covers. Segments wholly below it are retired.
    pub(crate) snap_floor: u64,
    /// Which log segment sequence number each directory slot holds.
    pub(crate) slot_seqs: Vec<Option<u64>>,
    /// End of the last append burst that failed, until an append
    /// succeeds. The burst may have reached some mirrors without the tail
    /// advancing, so its positions are never reused: the next append
    /// starts at the segment boundary after it.
    pub(crate) failed_end: Option<u64>,
    /// The dirty set, as `(region, start, len)` ranges. **Invariant:**
    /// every healthy mirror's db segments equal the local committed
    /// image on every byte outside these ranges, so a snapshot ships
    /// only them. The set may over-approximate (an aborted after-image
    /// stays marked); it must never miss a committed byte.
    pub(crate) dirty: Vec<(usize, usize, usize)>,
    /// `dirty.len()` right after its last prune.
    dirty_pruned: usize,
}

impl RedoState {
    pub(crate) fn new(slots: usize) -> Self {
        RedoState {
            tail: 0,
            snap_floor: 0,
            slot_seqs: vec![None; slots],
            failed_end: None,
            dirty: Vec::new(),
            dirty_pruned: 0,
        }
    }

    pub(crate) fn live_segments(&self) -> usize {
        self.slot_seqs.iter().flatten().count()
    }

    /// Adds one after-image range to the dirty set, re-pruning once the
    /// list has doubled since the last prune. The log bounds the list:
    /// it must be compacted by a snapshot before it wraps.
    pub(crate) fn mark_dirty(&mut self, region: usize, start: usize, len: usize) {
        self.dirty.push((region, start, len));
        if self.dirty.len() >= 2 * self.dirty_pruned.max(1) {
            self.prune_dirty();
        }
    }

    /// Drops every dirty range that the ones kept already cover whole
    /// and joins ranges that touch end to start, in region and offset
    /// order. Ranges that only partly overlap stay as logged, so unless
    /// a write repeats an earlier one's range (or lies inside it) a
    /// snapshot ships exactly the after-image bytes logged since the
    /// last one: its size follows from the commits alone, not from
    /// where they happened to land.
    pub(crate) fn prune_dirty(&mut self) {
        self.dirty = drop_contained(&self.dirty);
        self.dirty_pruned = self.dirty.len();
    }

    /// Empties the dirty set: every healthy mirror now holds the local
    /// image byte for byte.
    pub(crate) fn clear_dirty(&mut self) {
        self.dirty.clear();
        self.dirty_pruned = 0;
    }
}

/// `ranges` without the empty ones and without any range inside the
/// ones kept, with ranges that touch end to start joined, sorted by
/// region and start. Ranges that partly overlap are all kept.
fn drop_contained(ranges: &[(usize, usize, usize)]) -> Vec<(usize, usize, usize)> {
    let mut sorted: Vec<(usize, usize, usize)> = ranges
        .iter()
        .filter(|&&(_, _, l)| l > 0)
        .map(|&(r, s, l)| (r, s, s + l))
        .collect();
    // Longest first among equal starts, so it is the one kept.
    sorted.sort_unstable_by_key(|&(r, s, e)| (r, s, std::cmp::Reverse(e)));
    let mut out: Vec<(usize, usize, usize)> = Vec::with_capacity(sorted.len());
    // A range is kept only if it ends past every earlier one of its
    // region, so the last kept one starts at or before `s` and reaches
    // furthest: `e` at or below its end means contained.
    for (r, s, e) in sorted {
        match out.last_mut() {
            Some(&mut (lr, _, le)) if lr == r && e <= le => {}
            Some((lr, _, le)) if *lr == r && *le == s => *le = e,
            _ => out.push((r, s, e)),
        }
    }
    out.into_iter().map(|(r, s, e)| (r, s, e - s)).collect()
}

/// A record chunk placed at a concrete log position.
struct Placed {
    seq: u64,
    off: usize,
    bytes: Vec<u8>,
}

/// The decoded redo directory of one mirror's metadata image.
pub(crate) struct RedoDir {
    pub(crate) seg_size: u64,
    pub(crate) slot_count: usize,
    pub(crate) tail: u64,
    pub(crate) snap: u64,
    /// Slot → `(segment id, seq)` of the live log segment it holds.
    pub(crate) entries: Vec<Option<(u64, u64)>>,
}

/// One decoded suffix record with its payload and absolute log position.
pub(crate) struct SuffixRecord {
    pub(crate) pos: u64,
    pub(crate) rec: RedoRecord,
    pub(crate) payload: Vec<u8>,
}

impl SuffixRecord {
    pub(crate) fn is_tombstone(&self) -> bool {
        self.rec.region == REDO_TOMBSTONE_REGION
    }
}

impl<M: RemoteMemory> Perseas<M> {
    /// End offset of the redo directory inside a metadata segment of
    /// `meta_len` bytes under the current config (the directory nests
    /// directly before the intent table; see
    /// [`crate::layout::redo_dir_end`]).
    pub(crate) fn redo_dir_end_local(&self, meta_len: usize) -> usize {
        let cs = if self.cfg.concurrent {
            self.cfg.commit_slots
        } else {
            0
        };
        let (is, ds) = if self.cfg.shard_count > 0 {
            (self.cfg.intent_slots, self.cfg.decision_slots)
        } else {
            (0, 0)
        };
        redo_dir_end(meta_len, cs, is, ds)
    }

    /// Appends one coalesced batch of after-image records (and the
    /// packet-atomic tail line) to the log on every healthy mirror:
    /// fresh segments are opened and published in the directory as
    /// needed, then the directory entries, the records, and the tail
    /// ride a single vectored write per mirror — it applies in order, so
    /// the tail can only ever name fully-received records — and an ack
    /// barrier confirms the burst.
    ///
    /// With `commit` = `(id, record)`, the append is a commit's log and
    /// `record` builds each mirror's commit record, which
    /// [`Perseas::publish_commit`] ships behind the tail line: in the same
    /// burst at a quorum of 1, after the burst's barrier above it. The
    /// burst counts as landed, and the tail moves, when the commit
    /// succeeds or is in doubt.
    pub(crate) fn redo_append(
        &mut self,
        writes: &[RedoWrite],
        commit: Option<AppendedCommit<'_, M>>,
    ) -> Result<(), TxnError> {
        if writes.is_empty() {
            return Ok(());
        }
        let seg_size = self.cfg.redo_segment_bytes as u64;
        let slots = self.cfg.redo_segments;

        // 1. Frame and place every record, never straddling a segment,
        //    and past the segment a failed burst ended in.
        let mut pos = match self.redo.failed_end {
            Some(end) => end.next_multiple_of(seg_size),
            None => self.redo.tail,
        };
        let mut chunks: Vec<Placed> = Vec::with_capacity(writes.len());
        let mut encoded_bytes = 0usize;
        for &(txn_id, ri, start, len) in writes {
            let rec = if ri == REDO_TOMBSTONE_REGION as usize {
                RedoRecord {
                    txn_id,
                    region: REDO_TOMBSTONE_REGION,
                    offset: 0,
                    len: 0,
                }
            } else {
                RedoRecord {
                    txn_id,
                    region: ri as u32,
                    offset: start as u64,
                    len: len as u64,
                }
            };
            let total = rec.encoded_len();
            if total as u64 > seg_size {
                return Err(TxnError::Unavailable(format!(
                    "redo record of {total} bytes exceeds the {seg_size}-byte log segment; \
                     raise PerseasConfig::with_redo_log"
                )));
            }
            if pos % seg_size + total as u64 > seg_size {
                pos = (pos / seg_size + 1) * seg_size;
            }
            // Marshalling the record for the wire is not charged as a
            // modeled memcpy, matching the batched undo path (which
            // ships arena and region bytes without an extra local-copy
            // charge): the application's before-image copy at set_range
            // time is the commit path's one local copy in both modes.
            let mut bytes = vec![0u8; total];
            if rec.region == REDO_TOMBSTONE_REGION {
                rec.encode_into(&mut bytes, 0, &[]);
            } else {
                rec.encode_into(&mut bytes, 0, &self.regions[ri][start..start + len]);
                // Marked before anything ships: if the append fails the
                // range stays marked, which the dirty set tolerates.
                self.redo.mark_dirty(ri, start, len);
            }
            encoded_bytes += total;
            chunks.push(Placed {
                seq: pos / seg_size,
                off: (pos % seg_size) as usize,
                bytes,
            });
            pos += total as u64;
        }
        let new_tail = pos;

        // 2. Open fresh (zeroed) segments for sequences this batch
        //    reaches first. An occupied slot means the log wrapped past
        //    its snapshot: the caller must `redo_snapshot` to compact.
        let touched: BTreeSet<u64> = chunks.iter().map(|c| c.seq).collect();
        for &seq in &touched {
            let slot = (seq % slots as u64) as usize;
            match self.redo.slot_seqs[slot] {
                Some(s) if s == seq => continue,
                Some(stale) => {
                    return Err(TxnError::Unavailable(format!(
                        "redo log full: slot {slot} still holds segment {stale} \
                         (call redo_snapshot to compact before appending)"
                    )))
                }
                None => {}
            }
            self.fan_out(|_, m, local| {
                if m.redo.len() < slots {
                    m.redo.resize(slots, None);
                }
                let seg = m.backend.remote_malloc(local.cfg.redo_segment_bytes, 0)?;
                m.redo[slot] = Some(seg);
                Ok(None)
            })?;
            self.redo.slot_seqs[slot] = Some(seq);
            let live = self.redo.live_segments();
            self.emit(TraceEvent::RedoSegmentOpened { seq, slot, live });
        }

        // 3. One vectored burst per mirror: directory entries for every
        //    touched slot (idempotent 16-byte lines, re-sent so a retry
        //    after a partial fan-out cannot leave a mirror without
        //    them), the records, and the tail line last. After a failed
        //    burst every live slot's entry is re-sent: a mirror that
        //    missed that burst holds zeroes from the old tail on, and its
        //    replay scan skips segment by segment to where this burst
        //    starts, so it needs the entries of the segments in between.
        //    Each record is encoded once: the last healthy mirror's batch
        //    takes the bytes, the others get copies.
        let dir_slots: BTreeSet<usize> = match self.redo.failed_end {
            Some(_) => (0..slots)
                .filter(|&slot| self.redo.slot_seqs[slot].is_some())
                .collect(),
            None => touched
                .iter()
                .map(|&seq| (seq % slots as u64) as usize)
                .collect(),
        };
        let mut copies_left = self.healthy_mirror_count();
        let lists = self.batches(|m| {
            copies_left -= 1;
            let dir_end = self.redo_dir_end_local(m.meta.len);
            let mut list = Vec::with_capacity(dir_slots.len() + chunks.len() + 1);
            for &slot in &dir_slots {
                let seq = self.redo.slot_seqs[slot].expect("slot opened above");
                let seg = m.redo[slot].expect("segment allocated above");
                list.push((
                    m.meta.id,
                    redo_entry_offset(dir_end, slots, slot),
                    encode_redo_entry(seg.id.as_raw(), seq).to_vec(),
                ));
            }
            for c in &mut chunks {
                let slot = (c.seq % slots as u64) as usize;
                let seg = m.redo[slot].expect("segment allocated above");
                let bytes = if copies_left == 0 {
                    std::mem::take(&mut c.bytes)
                } else {
                    c.bytes.clone()
                };
                list.push((seg.id, c.off, bytes));
            }
            list.push((
                m.meta.id,
                redo_tail_offset(dir_end),
                new_tail.to_le_bytes().to_vec(),
            ));
            list
        });
        let shipped = match commit {
            Some((id, record)) => self.publish_commit(id, vec![lists], record, |_| {}),
            None => self
                .fan_out_vectored(lists)
                .and_then(|()| self.flush_mirrors()),
        };
        if !commit_completes(&shipped) {
            self.redo.failed_end = Some(new_tail);
            return shipped;
        }
        self.redo.failed_end = None;
        self.redo.tail = new_tail;
        let live_bytes = new_tail - self.redo.snap_floor;
        self.emit(TraceEvent::RedoAppend {
            records: chunks.len(),
            bytes: encoded_bytes,
            tail: new_tail,
            live_bytes,
        });
        shipped
    }

    /// The legacy-engine redo commit: append the after-images with the
    /// same packet-atomic commit record as the undo paths behind the
    /// tail line, the durability point.
    pub(crate) fn commit_redo(
        &mut self,
        txn: &mut crate::perseas::ActiveTxn,
        ranges: &[(usize, usize, usize)],
    ) -> Result<(), TxnError> {
        let id = txn.id;
        let writes: Vec<RedoWrite> = ranges.iter().map(|&(ri, s, l)| (id, ri, s, l)).collect();
        // From here the log may hold this transaction's records — even a
        // failed append can reach some mirrors — so an abort must publish
        // a tombstone (see `Perseas::redo_abort_mark`), not restore any
        // mirror bytes: the database segments are never touched.
        txn.mirrors_dirty = true;
        self.redo_append(&writes, Some((id, &mut |m| commit_record(m, id))))
    }

    /// Publishes an abort tombstone for `id`, whose after-images already
    /// reached the log: replay must treat the records as dead even after
    /// the watermark passes the id. Confirmed before the abort returns.
    pub(crate) fn redo_abort_mark(&mut self, id: u64) -> Result<(), TxnError> {
        self.redo_append(&[(id, REDO_TOMBSTONE_REGION as usize, 0, 0)], None)
    }

    /// Takes a snapshot of the database into the mirrored db segments
    /// and compacts the log: ships the dirty set — every range logged
    /// since the last successful snapshot, less those inside another;
    /// partial overlaps ship as logged — to every healthy
    /// mirror in one vectored write each, advances the per-mirror
    /// snapshot position (one packet-atomic line each) to the current
    /// tail, and retires every log segment wholly below the new floor.
    /// Outside the dirty set every healthy mirror already holds the
    /// local image, so afterwards each one's db segments equal it byte
    /// for byte. Recovery then replays only the records appended since —
    /// restart time is bounded by the live tail.
    ///
    /// A crash at any point is safe: a torn image is only ever torn in
    /// bytes that committed records above the *old* snapshot position
    /// re-apply, and the snapshot line moves only after the image is
    /// confirmed. The dirty set is cleared only once the line is.
    ///
    /// # Errors
    ///
    /// Fails outside redo mode, while transactions are open, or when
    /// fewer than `commit_quorum` mirrors are healthy.
    pub fn redo_snapshot(&mut self) -> Result<(), TxnError> {
        if !self.cfg.redo {
            return Err(TxnError::Unavailable(
                "redo mode is off; enable with PerseasConfig::with_redo".into(),
            ));
        }
        self.ensure_phase(Phase::Ready)?;
        self.ensure_no_open_txns()?;
        self.check_commit_quorum()?;
        let tail = self.redo.tail;

        // 1. Ship the dirty ranges (no transaction is open, so the local
        //    image is exactly the committed state) and confirm. With
        //    nothing dirty the mirrors already hold the image.
        self.redo.prune_dirty();
        let bytes: usize = self.redo.dirty.iter().map(|&(_, _, len)| len).sum();
        if bytes > 0 {
            let db_lists = self.batches(|m| {
                self.redo
                    .dirty
                    .iter()
                    .map(|&(ri, start, len)| {
                        (
                            m.db[ri].id,
                            start,
                            self.regions[ri][start..start + len].to_vec(),
                        )
                    })
                    .collect()
            });
            self.fan_out_vectored(db_lists)?;
            self.flush_mirrors()?;
        }

        // 2. Advance the snapshot position — one packet-atomic line per
        //    mirror, confirmed before the floor moves. A crash between
        //    mirrors leaves each self-consistent: every mirror's image
        //    covers exactly the position its own line names.
        let snap_lists = self.batches(|m| {
            let dir_end = self.redo_dir_end_local(m.meta.len);
            let off = redo_snap_offset(dir_end);
            vec![(m.meta.id, off, tail.to_le_bytes().to_vec())]
        });
        self.fan_out_vectored(snap_lists)?;
        self.flush_mirrors()?;
        self.redo.clear_dirty();
        for m in &mut self.mirrors {
            if m.is_healthy() {
                m.redo_snap = tail;
            }
        }
        self.redo.snap_floor = self
            .mirrors
            .iter()
            .filter(|m| m.is_healthy())
            .map(|m| m.redo_snap)
            .min()
            .unwrap_or(tail);
        self.emit(TraceEvent::RedoSnapshot { tail, bytes });

        // 3. Retire segments the floor has fully passed.
        self.redo_compact()
    }

    /// Retires every log segment wholly below the compaction floor:
    /// zeroes its directory entry on every healthy mirror (packet-atomic
    /// each, confirmed before any free, so no published directory ever
    /// names a freed segment), then frees the segments.
    fn redo_compact(&mut self) -> Result<(), TxnError> {
        let seg_size = self.cfg.redo_segment_bytes as u64;
        let slots = self.cfg.redo_segments;
        let floor = self.redo.snap_floor;
        let retire: Vec<(usize, u64)> = self
            .redo
            .slot_seqs
            .iter()
            .enumerate()
            .filter_map(|(slot, seq)| {
                seq.filter(|&s| (s + 1) * seg_size <= floor)
                    .map(|s| (slot, s))
            })
            .collect();
        if retire.is_empty() {
            return Ok(());
        }
        let lists = self.batches(|m| {
            let dir_end = self.redo_dir_end_local(m.meta.len);
            retire
                .iter()
                .map(|&(slot, _)| {
                    let off = redo_entry_offset(dir_end, slots, slot);
                    (m.meta.id, off, vec![0u8; REDO_ENTRY_SIZE])
                })
                .collect()
        });
        self.fan_out_vectored(lists)?;
        self.flush_mirrors()?;
        self.fan_out(|_, m, _| {
            for &(slot, _) in &retire {
                if let Some(seg) = m.redo.get_mut(slot).and_then(Option::take) {
                    m.backend.remote_free(seg.id)?;
                }
            }
            Ok(None)
        })?;
        for &(slot, _) in &retire {
            self.redo.slot_seqs[slot] = None;
        }
        let freed_bytes = retire.len() * self.cfg.redo_segment_bytes;
        let live = self.redo.live_segments();
        self.emit(TraceEvent::RedoCompacted {
            segments: retire.len(),
            freed_bytes,
            live,
        });
        Ok(())
    }
}

/// Decodes the redo directory from a metadata image, using the table
/// geometry the header declares. The directory's own geometry header
/// (segment size, slot count) overrides whatever the config guessed.
pub(crate) fn decode_redo_dir(meta_image: &[u8], header: &MetaHeader) -> Result<RedoDir, TxnError> {
    let dir_end = redo_dir_end(
        meta_image.len(),
        header.commit_slots as usize,
        header.intent_slots as usize,
        header.decision_slots as usize,
    );
    let (seg_size, slot_count) = decode_redo_dir_header(meta_image, redo_header_offset(dir_end))
        .ok_or_else(|| {
            TxnError::Unavailable("corrupt metadata: redo directory header is missing or torn".into())
        })?;
    let slot_count = slot_count as usize;
    let tail = read_u64(meta_image, redo_tail_offset(dir_end));
    let snap = read_u64(meta_image, redo_snap_offset(dir_end));
    if snap > tail {
        return Err(TxnError::Unavailable(format!(
            "corrupt metadata: redo snapshot position {snap} is past the log tail {tail}"
        )));
    }
    let entries = (0..slot_count)
        .map(|i| decode_redo_entry(meta_image, redo_entry_offset(dir_end, slot_count, i)))
        .collect();
    Ok(RedoDir {
        seg_size: seg_size as u64,
        slot_count,
        tail,
        snap,
        entries,
    })
}

/// Reads and decodes the log suffix `(dir.snap, dir.tail]` from one
/// mirror, in log order. An undecodable position below the tail is the
/// zeroed end-of-segment skip (records never straddle), so the scan
/// jumps to the next boundary; a missing or mismatched directory entry
/// for a sequence the suffix needs is corruption.
pub(crate) fn scan_redo_suffix<M: RemoteMemory>(
    backend: &mut M,
    dir: &RedoDir,
) -> Result<Vec<SuffixRecord>, TxnError> {
    let mut out = Vec::new();
    let mut cached: Option<(u64, Vec<u8>)> = None;
    let mut pos = dir.snap;
    while pos < dir.tail {
        let seq = pos / dir.seg_size;
        let off = (pos % dir.seg_size) as usize;
        if cached.as_ref().map(|(s, _)| *s) != Some(seq) {
            let slot = (seq % dir.slot_count as u64) as usize;
            let (seg_id, entry_seq) = dir.entries[slot].ok_or_else(|| {
                TxnError::Unavailable(format!(
                    "corrupt metadata: redo directory lost live log segment {seq}"
                ))
            })?;
            if entry_seq != seq {
                return Err(TxnError::Unavailable(format!(
                    "corrupt metadata: redo slot {slot} holds segment {entry_seq}, \
                     the live suffix needs {seq}"
                )));
            }
            let seg = backend
                .segment_info(SegmentId::from_raw(seg_id))
                .map_err(unavailable)?;
            if seg.len as u64 != dir.seg_size {
                return Err(TxnError::Unavailable(format!(
                    "redo segment {seq} length mismatch: directory says {}, segment has {}",
                    dir.seg_size, seg.len
                )));
            }
            let mut bytes = vec![0u8; seg.len];
            backend
                .remote_read(seg.id, 0, &mut bytes)
                .map_err(unavailable)?;
            cached = Some((seq, bytes));
        }
        let buf = &cached.as_ref().expect("cached above").1;
        match RedoRecord::decode_at(buf, off) {
            Some((rec, payload)) => {
                out.push(SuffixRecord {
                    pos,
                    rec,
                    payload: buf[payload].to_vec(),
                });
                pos += rec.encoded_len() as u64;
            }
            None => pos = (seq + 1) * dir.seg_size,
        }
    }
    Ok(out)
}

/// Splits a scanned suffix by commit fate. A transaction is committed
/// when its id is at or below the watermark or occupies a commit-table
/// slot, **and** no tombstone at a later log position kills the record;
/// `live_uncommitted` are the distinct ids whose records are neither
/// committed nor already tombstoned — recovery must resolve them
/// (presumed abort) by appending tombstones, and sharded recovery
/// checks them against the decision tables first.
pub(crate) struct SuffixFates {
    /// Committed, replayable records in log order.
    pub(crate) committed: Vec<SuffixRecord>,
    /// Distinct ids with live (un-tombstoned) uncommitted records.
    pub(crate) live_uncommitted: Vec<u64>,
    /// Highest transaction id seen anywhere in the suffix.
    pub(crate) highest_seen: u64,
}

pub(crate) fn split_suffix_fates(
    suffix: Vec<SuffixRecord>,
    watermark: u64,
    table: &[u64],
) -> SuffixFates {
    use std::collections::HashMap;
    // A tombstone kills records of its transaction at earlier positions
    // only: a later recovery could otherwise never reuse the id space.
    let mut tomb_after: HashMap<u64, u64> = HashMap::new();
    for s in &suffix {
        if s.is_tombstone() {
            let e = tomb_after.entry(s.rec.txn_id).or_insert(s.pos);
            *e = (*e).max(s.pos);
        }
    }
    let mut committed = Vec::new();
    let mut live_uncommitted: Vec<u64> = Vec::new();
    let mut highest_seen = 0u64;
    for s in suffix {
        highest_seen = highest_seen.max(s.rec.txn_id);
        if s.is_tombstone() {
            continue;
        }
        let dead = tomb_after.get(&s.rec.txn_id).is_some_and(|&t| t > s.pos);
        if dead {
            continue;
        }
        let id = s.rec.txn_id;
        if id <= watermark || table.contains(&id) {
            committed.push(s);
        } else if !live_uncommitted.contains(&id) {
            live_uncommitted.push(id);
        }
    }
    SuffixFates {
        committed,
        live_uncommitted,
        highest_seen,
    }
}

/// Distinct transaction ids holding live (uncommitted, un-tombstoned)
/// records in a redo image's log suffix — the redo analogue of
/// [`crate::recovery::scan_uncommitted`] for the sharded
/// in-doubt check.
pub(crate) fn redo_uncommitted_ids<M: RemoteMemory>(
    backend: &mut M,
    meta_image: &[u8],
    header: &MetaHeader,
    table: &[u64],
) -> Result<Vec<u64>, TxnError> {
    let dir = decode_redo_dir(meta_image, header)?;
    let suffix = scan_redo_suffix(backend, &dir)?;
    Ok(split_suffix_fates(suffix, header.last_committed, table).live_uncommitted)
}

/// Appends abort tombstones for `ids` directly to one mirror's log
/// during recovery (presumed abort of the stale suffix), opening fresh
/// segments on that mirror as needed, and advances its tail line.
/// Confirmed before the watermark may pass the ids.
pub(crate) fn append_recovery_tombstones<M: RemoteMemory>(
    backend: &mut M,
    meta_seg_id: SegmentId,
    meta_image_len: usize,
    header: &MetaHeader,
    dir: &mut RedoDir,
    ids: &[u64],
) -> Result<(), TxnError> {
    if ids.is_empty() {
        return Ok(());
    }
    let dir_end = redo_dir_end(
        meta_image_len,
        header.commit_slots as usize,
        header.intent_slots as usize,
        header.decision_slots as usize,
    );
    let mut pos = dir.tail;
    for &id in ids {
        let rec = RedoRecord {
            txn_id: id,
            region: REDO_TOMBSTONE_REGION,
            offset: 0,
            len: 0,
        };
        let total = rec.encoded_len() as u64;
        if pos % dir.seg_size + total > dir.seg_size {
            pos = (pos / dir.seg_size + 1) * dir.seg_size;
        }
        let seq = pos / dir.seg_size;
        let slot = (seq % dir.slot_count as u64) as usize;
        let seg_id = match dir.entries[slot] {
            Some((seg_id, s)) if s == seq => seg_id,
            Some((_, stale)) => {
                return Err(TxnError::Unavailable(format!(
                    "redo log full during recovery: slot {slot} still holds segment {stale}"
                )))
            }
            None => {
                let seg = backend
                    .remote_malloc(dir.seg_size as usize, 0)
                    .map_err(unavailable)?;
                backend
                    .remote_write(
                        meta_seg_id,
                        redo_entry_offset(dir_end, dir.slot_count, slot),
                        &encode_redo_entry(seg.id.as_raw(), seq),
                    )
                    .map_err(unavailable)?;
                dir.entries[slot] = Some((seg.id.as_raw(), seq));
                seg.id.as_raw()
            }
        };
        let mut bytes = vec![0u8; rec.encoded_len()];
        rec.encode_into(&mut bytes, 0, &[]);
        backend
            .remote_write(
                SegmentId::from_raw(seg_id),
                (pos % dir.seg_size) as usize,
                &bytes,
            )
            .map_err(unavailable)?;
        pos += total;
    }
    backend
        .remote_write(meta_seg_id, redo_tail_offset(dir_end), &pos.to_le_bytes())
        .map_err(unavailable)?;
    backend.flush().map_err(unavailable)?;
    dir.tail = pos;
    Ok(())
}

/// Replays `committed` (in log order, newest-wins) onto `regions`,
/// charging the virtual clock as if the per-region record streams were
/// applied in parallel (the longest region's bytes dominate). Returns
/// `(records replayed, bytes replayed)`.
pub(crate) fn replay_committed(
    regions: &mut [Vec<u8>],
    committed: &[SuffixRecord],
    cfg: &PerseasConfig,
    clock: &SimClock,
) -> Result<(usize, usize), TxnError> {
    let mut per_region = vec![0usize; regions.len()];
    let mut bytes = 0usize;
    for s in committed {
        let ri = s.rec.region as usize;
        let off = s.rec.offset as usize;
        let len = s.rec.len as usize;
        if ri >= regions.len() || off + len > regions[ri].len() {
            return Err(TxnError::Unavailable(format!(
                "corrupt redo record: txn {} writes [{off}, {}) of region {ri}",
                s.rec.txn_id,
                off + len
            )));
        }
        regions[ri][off..off + len].copy_from_slice(&s.payload);
        per_region[ri] += len;
        bytes += len;
    }
    // Parallel replay across regions: the clock pays for the busiest
    // region only, exactly like a commit fan-out pays the slowest
    // mirror.
    if let Some(&max) = per_region.iter().max() {
        cfg.mem_cost.charge_memcpy(clock, max);
    }
    Ok((committed.len(), bytes))
}

fn read_u64(buf: &[u8], off: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&buf[off..off + 8]);
    u64::from_le_bytes(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(pos: u64, txn_id: u64, region: u32, len: u64) -> SuffixRecord {
        SuffixRecord {
            pos,
            rec: RedoRecord {
                txn_id,
                region,
                offset: 0,
                len,
            },
            payload: vec![0u8; len as usize],
        }
    }

    #[test]
    fn pruning_drops_contained_ranges_and_keeps_partial_overlaps() {
        let logged = [
            (1, 0, 8),    // region 1 sorts after region 0
            (0, 100, 50), // partly overlaps the next: both kept
            (0, 120, 50),
            (0, 110, 20), // inside 100..150: dropped
            (0, 100, 50), // a rewrite of the same range: dropped
            (0, 170, 10), // touches 120..170: joined
            (0, 300, 0),  // empty: dropped
            (0, 0, 4),
            (0, 0, 8), // same start, longer: kept, the shorter dropped
            (1, 8, 8), // touches 0..8 of region 1: joined
        ];
        assert_eq!(
            drop_contained(&logged),
            vec![(0, 0, 8), (0, 100, 50), (0, 120, 60), (1, 0, 16)]
        );

        let mut state = RedoState::new(1);
        for &(r, s, l) in &logged {
            state.mark_dirty(r, s, l);
        }
        state.prune_dirty();
        let bytes: usize = state.dirty.iter().map(|&(_, _, l)| l).sum();
        assert_eq!(bytes, 8 + 50 + 60 + 16, "the overlap 120..150 ships twice");
    }

    #[test]
    fn fates_split_by_watermark_table_and_tombstones() {
        let suffix = vec![
            rec(0, 3, 0, 4),                          // committed: below watermark
            rec(40, 5, 0, 4),                         // committed: in table
            rec(80, 6, 0, 4),                         // live uncommitted
            rec(120, 7, 0, 4),                        // aborted: tombstone below
            rec(160, 7, REDO_TOMBSTONE_REGION, 0),    // the tombstone
        ];
        let fates = split_suffix_fates(suffix, 4, &[5]);
        assert_eq!(
            fates.committed.iter().map(|s| s.rec.txn_id).collect::<Vec<_>>(),
            vec![3, 5]
        );
        assert_eq!(fates.live_uncommitted, vec![6]);
        assert_eq!(fates.highest_seen, 7);
    }

    #[test]
    fn tombstone_kills_earlier_records_only() {
        // A tombstone for id 7 at position 40 must not kill a *later*
        // committed record of a reused id 7.
        let suffix = vec![
            rec(0, 7, 0, 4),
            rec(40, 7, REDO_TOMBSTONE_REGION, 0),
            rec(80, 7, 1, 4),
        ];
        let fates = split_suffix_fates(suffix, 7, &[]);
        assert_eq!(fates.committed.len(), 1);
        assert_eq!(fates.committed[0].pos, 80);
        assert!(fates.live_uncommitted.is_empty());
    }

    #[test]
    fn replay_applies_newest_wins_and_charges_busiest_region() {
        let cfg = PerseasConfig::default();
        let clock = SimClock::new();
        let mut regions = vec![vec![0u8; 8], vec![0u8; 8]];
        let committed = vec![
            SuffixRecord {
                pos: 0,
                rec: RedoRecord {
                    txn_id: 1,
                    region: 0,
                    offset: 0,
                    len: 4,
                },
                payload: vec![1; 4],
            },
            SuffixRecord {
                pos: 40,
                rec: RedoRecord {
                    txn_id: 2,
                    region: 0,
                    offset: 2,
                    len: 4,
                },
                payload: vec![2; 4],
            },
        ];
        let (n, bytes) = replay_committed(&mut regions, &committed, &cfg, &clock).unwrap();
        assert_eq!((n, bytes), (2, 8));
        assert_eq!(&regions[0], &[1, 1, 2, 2, 2, 2, 0, 0]);
        assert!(
            clock.now().duration_since(perseas_simtime::SimInstant::ORIGIN)
                > perseas_simtime::SimDuration::ZERO
        );
    }

    #[test]
    fn replay_rejects_out_of_bounds_records() {
        let cfg = PerseasConfig::default();
        let clock = SimClock::new();
        let mut regions = vec![vec![0u8; 4]];
        let committed = vec![rec(0, 1, 0, 8)];
        assert!(replay_committed(&mut regions, &committed, &cfg, &clock).is_err());
    }
}
