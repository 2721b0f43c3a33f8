//! Durable layouts: the remote metadata segment and the undo-log record
//! format.
//!
//! The protocol is designed around the SCI card's delivery guarantees:
//! packets of one store burst arrive **in order**, and a crash can truncate
//! a burst only at a packet boundary. Therefore:
//!
//! * the commit record is a single 8-byte word inside one 16-byte line —
//!   it is either fully visible or not at all;
//! * undo records are self-validating (magic + transaction id + CRC-32
//!   over header and payload), so recovery can scan the mirrored undo log
//!   and stop at the first record that is torn, stale, or absent;
//! * the undo-segment indirection (`undo_seg_id`, `undo_seg_len`) lives in
//!   one 16-byte line and is updated with a single packet when the undo
//!   log grows.

use serde::{Deserialize, Serialize};

/// Well-known tag under which the metadata segment is exported.
pub const META_TAG: u64 = 0x5045_5253_4541_5331; // "PERSEAS1"

/// Magic value at offset 0 of the metadata segment.
pub const META_MAGIC: u64 = 0x4D45_4455_5341_0001; // "MEDUSA", v1

/// Layout version encoded in the header.
pub const META_VERSION: u32 = 1;

/// Byte offset of the `(undo_seg_id, undo_seg_len)` line.
pub const OFF_UNDO: usize = 16;

/// Byte offset of the mirror-set epoch counter. The epoch is bumped on
/// every membership change (mirror fenced, added, rejoined, or removed)
/// and written to every surviving mirror *before* the change takes
/// effect, so a mirror that missed commits always carries a stale epoch
/// and can be refused by recovery. The 8-byte counter sits inside one
/// 16-byte line: the update is packet-atomic.
pub const OFF_EPOCH: usize = 32;

/// Byte offset of the engine-flags word (see [`FLAG_CONCURRENT`]).
/// Written once at publication and never rewritten concurrently with
/// commits, so it needs no packet-atomicity of its own.
pub const OFF_FLAGS: usize = 40;

/// Byte offset of the commit-table slot count (u32). Zero in legacy
/// images; the concurrent engine records here how many 8-byte slots
/// trail the region table.
pub const OFF_COMMIT_SLOTS: usize = 44;

/// Flags bit: the image was written by the concurrent engine — the undo
/// log opens with a group-header line and a commit table of
/// [`MetaHeader::commit_slots`] slots trails the region table. Recovery
/// must use the concurrent scan rules.
pub(crate) const FLAG_CONCURRENT: u32 = 1;

/// Flags bit: the image belongs to one shard of a
/// [`crate::ShardedPerseas`] database. The header carries the shard
/// coordinates at `OFF_SHARD`, and an intent table plus a decision
/// table sit between the region table and the commit table. Implies
/// the concurrent-engine flag.
pub const FLAG_SHARDED: u32 = 2;

/// Byte offset of the shard-coordinate line: `intent_slots: u16`,
/// `decision_slots: u16`, `shard_index: u16`, `shard_count: u16`. All
/// zero in unsharded images, so legacy headers decode unchanged.
pub const OFF_SHARD: usize = 48;

/// Magic value opening a live intent slot.
pub const INTENT_MAGIC: u32 = 0x584E_5431; // "XNT1"

/// Magic value opening a live decision slot.
pub const DECISION_MAGIC: u32 = 0x4443_4E31; // "DCN1"

/// Bytes per intent slot: magic, CRC, local txn id, global txn id, home
/// shard, pad. Two 16-byte lines; the CRC makes a torn write read as
/// absent rather than as a bogus intent.
pub(crate) const INTENT_SLOT_SIZE: usize = 32;

/// Bytes per decision slot: magic, CRC, global txn id. Exactly one
/// 16-byte line, so the SCI card delivers the whole slot in a single
/// packet — writing it is the atomic commit point of a cross-shard
/// transaction.
pub(crate) const DECISION_SLOT_SIZE: usize = 16;

/// Byte offset of the commit record (`last_committed` transaction id).
/// Deliberately placed so the 8-byte record ends on the last word of its
/// 64-byte SCI buffer: the card then flushes it eagerly (no partial-flush
/// timeout), shaving ~0.3 µs off every commit. The concurrent engine
/// reads this as the commit **watermark**: every transaction id at or
/// below it is resolved; committed ids above it live in the commit
/// table.
pub const OFF_COMMIT: usize = 56;

/// Byte offset of the region table.
pub const OFF_REGION_TABLE: usize = 64;

/// Bytes per region-table entry: `(db_seg_id: u64, region_len: u64)`.
pub const REGION_ENTRY_SIZE: usize = 16;

/// Flags bit: the image was written in REDO mode — commits append
/// after-images to a segmented redo log instead of shipping undo copies,
/// and a redo directory (header, tail, snapshot position, segment
/// entries) sits directly before the intent table (see
/// `redo_dir_end`). Recovery must replay the committed log suffix onto
/// the last snapshot image instead of rolling back.
pub(crate) const FLAG_REDO: u32 = 4;

/// Magic value opening the redo-directory header line: the log's
/// records follow [`RedoFormat::V2`].
pub const REDO_DIR_MAGIC: u32 = 0x5244_4F32; // "RDO2"

/// Magic of a directory whose records follow [`RedoFormat::V1`]. Recovery
/// still reads such a log, then migrates it to [`REDO_DIR_MAGIC`].
pub const REDO_DIR_MAGIC_V1: u32 = 0x5244_4F31; // "RDO1"

/// The CRC rule a redo log's records follow, as its directory header's
/// magic declares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RedoFormat {
    /// `RDO1`: a record's CRC covers its header and payload.
    V1,
    /// `RDO2`: the CRC also covers the record's absolute log position,
    /// which is not stored. A log segment is recycled once the snapshot
    /// passes it, and a record left from an earlier lap then fails to
    /// decode at the position the scan reads it from.
    V2,
}

/// Magic value opening every redo record (after-image).
pub const REDO_MAGIC: u32 = 0x5245_444F; // "REDO"

/// Size of a redo record header (magic, txn id, region, offset, len,
/// CRC) — identical framing to an undo record.
pub const REDO_HEADER_SIZE: usize = 36;

/// Bytes per redo-directory segment entry: `(seg_id: u64,
/// seq_plus_1: u64)`. One 16-byte line — one packet — so installing a
/// segment, or handing a retired one its next sequence, is atomic. A
/// zeroed entry is an empty slot.
pub const REDO_ENTRY_SIZE: usize = 16;

/// Sentinel region id marking a redo **abort tombstone**: a zero-length
/// record appended when a transaction whose after-images already reached
/// the log aborts. Replay treats every earlier record of the tombstone's
/// transaction as dead, so a later watermark that passes over the
/// aborted id can never resurrect its bytes. Tombstones are CRC-framed
/// like any record, so a torn tombstone is simply not there yet — and
/// the id it would have killed is still above the durable watermark.
pub(crate) const REDO_TOMBSTONE_REGION: u32 = u32::MAX;

/// Magic value opening every undo record.
pub const UNDO_MAGIC: u32 = 0x554E_444F; // "UNDO"

/// Size of an undo record header (magic, txn id, region, offset, len,
/// CRC).
pub const UNDO_HEADER_SIZE: usize = 36;

/// Magic value opening the undo log of a concurrent-engine image.
pub const GROUP_MAGIC: u32 = 0x4752_5550; // "GRUP"

/// Size of the group header at offset 0 of a concurrent undo log.
pub const GROUP_HEADER_SIZE: usize = 16;

/// Total size of a metadata segment holding up to `max_regions` regions.
pub fn meta_segment_size(max_regions: usize) -> usize {
    OFF_REGION_TABLE + max_regions * REGION_ENTRY_SIZE
}

/// Total size of a concurrent-engine metadata segment: the legacy layout
/// plus `commit_slots` trailing 8-byte commit-table slots.
pub fn meta_segment_size_concurrent(max_regions: usize, commit_slots: usize) -> usize {
    meta_segment_size(max_regions) + commit_slots * 8
}

/// Total size of a sharded metadata segment: the concurrent layout plus
/// an intent table and a decision table between the region table and the
/// tail commit table.
///
/// # Panics
///
/// Panics on an odd `commit_slots`: the decision table must start on a
/// 16-byte line for its single-packet atomicity, and the 8-byte commit
/// slots trail it.
pub(crate) fn meta_segment_size_sharded(
    max_regions: usize,
    commit_slots: usize,
    intent_slots: usize,
    decision_slots: usize,
) -> usize {
    assert!(
        commit_slots.is_multiple_of(2),
        "sharded images need an even commit_slots so decision slots stay line-aligned"
    );
    meta_segment_size_concurrent(max_regions, commit_slots)
        + intent_slots * INTENT_SLOT_SIZE
        + decision_slots * DECISION_SLOT_SIZE
}

/// Byte offset of the commit table inside a metadata segment of
/// `meta_len` total bytes. The table occupies the *last* `commit_slots`
/// 8-byte words, so recovery can locate it without knowing the writer's
/// `max_regions`.
pub fn commit_table_offset(meta_len: usize, commit_slots: usize) -> usize {
    meta_len - commit_slots * 8
}

/// Byte offset of the decision table: `decision_slots` 16-byte slots
/// directly before the tail commit table. Like the commit table it is
/// located from the segment end, so recovery needs no `max_regions`.
pub(crate) fn decision_table_offset(
    meta_len: usize,
    commit_slots: usize,
    decision_slots: usize,
) -> usize {
    commit_table_offset(meta_len, commit_slots) - decision_slots * DECISION_SLOT_SIZE
}

/// Byte offset of the intent table: `intent_slots` 32-byte slots directly
/// before the decision table.
pub(crate) fn intent_table_offset(
    meta_len: usize,
    commit_slots: usize,
    intent_slots: usize,
    decision_slots: usize,
) -> usize {
    decision_table_offset(meta_len, commit_slots, decision_slots) - intent_slots * INTENT_SLOT_SIZE
}

/// Total bytes of the redo directory for `redo_slots` segment entries:
/// the entries plus the snapshot-position, tail, and header lines.
pub fn redo_dir_size(redo_slots: usize) -> usize {
    (redo_slots + 3) * REDO_ENTRY_SIZE
}

/// Byte offset one past the end of the redo directory: the directory
/// nests directly **before** the intent table (or, when the image is
/// unsharded and/or legacy, before whichever tail tables exist — the
/// offset arithmetic degrades gracefully because empty tables are
/// zero-sized). Like every tail table it is located from the segment
/// end, so recovery needs no `max_regions`.
pub fn redo_dir_end(
    meta_len: usize,
    commit_slots: usize,
    intent_slots: usize,
    decision_slots: usize,
) -> usize {
    intent_table_offset(meta_len, commit_slots, intent_slots, decision_slots)
}

/// Byte offset of the redo-directory header line (magic, CRC, segment
/// size, slot count). Fixed at 16 bytes before the directory end so
/// recovery can read it **before** knowing the slot count.
pub fn redo_header_offset(dir_end: usize) -> usize {
    dir_end - 16
}

/// Byte offset of the log-tail line: a u64 absolute log byte position
/// (`seq * seg_size + offset`) in its own 16-byte line, updated with a
/// single packet at the end of every commit's log fan-out.
pub fn redo_tail_offset(dir_end: usize) -> usize {
    dir_end - 32
}

/// Byte offset of the snapshot-position line: a u64 absolute log byte
/// position up to which the mirrored region images are consistent.
/// Replay starts here.
pub fn redo_snap_offset(dir_end: usize) -> usize {
    dir_end - 48
}

/// Byte offset of the `i`-th segment entry of a directory with
/// `redo_slots` entries. Entries grow **downward** from the
/// snapshot-position line.
pub fn redo_entry_offset(dir_end: usize, redo_slots: usize, i: usize) -> usize {
    dir_end - 48 - (redo_slots - i) * REDO_ENTRY_SIZE
}

/// Encodes the redo-directory header line: log segments are `seg_size`
/// bytes, the directory holds `slot_count` entries and the records
/// follow [`RedoFormat::V2`]. CRC-protected so a torn publication reads
/// as absent.
pub fn encode_redo_dir_header(seg_size: u32, slot_count: u32) -> [u8; 16] {
    let mut out = [0u8; 16];
    out[0..4].copy_from_slice(&REDO_DIR_MAGIC.to_le_bytes());
    out[8..12].copy_from_slice(&seg_size.to_le_bytes());
    out[12..16].copy_from_slice(&slot_count.to_le_bytes());
    let crc = crc32(&[&out[8..16]]);
    out[4..8].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Decodes the redo-directory header at `off`, returning
/// `(seg_size, slot_count, format)`, or `None` for an absent or torn
/// header.
pub fn decode_redo_dir_header(buf: &[u8], off: usize) -> Option<(u32, u32, RedoFormat)> {
    let format = match get_u32(buf, off)? {
        REDO_DIR_MAGIC => RedoFormat::V2,
        REDO_DIR_MAGIC_V1 => RedoFormat::V1,
        _ => return None,
    };
    let stored = get_u32(buf, off + 4)?;
    let body = buf.get(off + 8..off + 16)?;
    if crc32(&[body]) != stored {
        return None;
    }
    Some((get_u32(buf, off + 8)?, get_u32(buf, off + 12)?, format))
}

/// Encodes a redo-directory segment entry: the slot holds remote segment
/// `seg_id`, whose latest log segment number is `seq` (retired once the
/// snapshot position passes its end). The sequence is stored off-by-one
/// so a zeroed line reads as an empty slot.
pub fn encode_redo_entry(seg_id: u64, seq: u64) -> [u8; REDO_ENTRY_SIZE] {
    let mut out = [0u8; REDO_ENTRY_SIZE];
    out[0..8].copy_from_slice(&seg_id.to_le_bytes());
    out[8..16].copy_from_slice(&(seq + 1).to_le_bytes());
    out
}

/// Decodes the redo-directory entry at `off`, returning
/// `(seg_id, seq)`, or `None` for an empty slot.
pub fn decode_redo_entry(buf: &[u8], off: usize) -> Option<(u64, u64)> {
    let seg_id = get_u64(buf, off)?;
    let seq_plus_1 = get_u64(buf, off + 8)?;
    if seq_plus_1 == 0 {
        return None;
    }
    Some((seg_id, seq_plus_1 - 1))
}

/// Encodes a live intent slot: local transaction `local` on this shard is
/// part of cross-shard transaction `global`, whose decision record lives
/// on shard `home`.
pub fn encode_intent_slot(local: u64, global: u64, home: u32) -> [u8; INTENT_SLOT_SIZE] {
    let mut out = [0u8; INTENT_SLOT_SIZE];
    out[0..4].copy_from_slice(&INTENT_MAGIC.to_le_bytes());
    out[8..16].copy_from_slice(&local.to_le_bytes());
    out[16..24].copy_from_slice(&global.to_le_bytes());
    out[24..28].copy_from_slice(&home.to_le_bytes());
    let crc = crc32(&[&out[8..INTENT_SLOT_SIZE]]);
    out[4..8].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Decodes the intent slot at `off`, returning `(local, global, home)`,
/// or `None` for a free or torn slot.
pub fn decode_intent_slot(buf: &[u8], off: usize) -> Option<(u64, u64, u32)> {
    if get_u32(buf, off)? != INTENT_MAGIC {
        return None;
    }
    let stored = get_u32(buf, off + 4)?;
    let body = buf.get(off + 8..off + INTENT_SLOT_SIZE)?;
    if crc32(&[body]) != stored {
        return None;
    }
    Some((
        get_u64(buf, off + 8)?,
        get_u64(buf, off + 16)?,
        get_u32(buf, off + 24)?,
    ))
}

/// Decodes every live intent slot of a full sharded metadata image,
/// returning `(slot index, local, global, home)` per live slot.
pub(crate) fn decode_intent_table(
    meta_image: &[u8],
    commit_slots: usize,
    intent_slots: usize,
    decision_slots: usize,
) -> Vec<(usize, u64, u64, u32)> {
    let base = intent_table_offset(meta_image.len(), commit_slots, intent_slots, decision_slots);
    (0..intent_slots)
        .filter_map(|i| {
            decode_intent_slot(meta_image, base + i * INTENT_SLOT_SIZE)
                .map(|(l, g, h)| (i, l, g, h))
        })
        .collect()
}

/// Encodes a live decision slot: cross-shard transaction `global` is
/// committed. One 16-byte line — one packet.
pub fn encode_decision_slot(global: u64) -> [u8; DECISION_SLOT_SIZE] {
    let mut out = [0u8; DECISION_SLOT_SIZE];
    out[0..4].copy_from_slice(&DECISION_MAGIC.to_le_bytes());
    out[8..16].copy_from_slice(&global.to_le_bytes());
    let crc = crc32(&[&out[8..DECISION_SLOT_SIZE]]);
    out[4..8].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Decodes the decision slot at `off`, returning the committed global
/// transaction id, or `None` for a free or torn slot.
pub fn decode_decision_slot(buf: &[u8], off: usize) -> Option<u64> {
    if get_u32(buf, off)? != DECISION_MAGIC {
        return None;
    }
    let stored = get_u32(buf, off + 4)?;
    let body = buf.get(off + 8..off + DECISION_SLOT_SIZE)?;
    if crc32(&[body]) != stored {
        return None;
    }
    get_u64(buf, off + 8)
}

/// Decodes every live decision slot of a full sharded metadata image into
/// the set of committed global transaction ids.
pub(crate) fn decode_decision_table(
    meta_image: &[u8],
    commit_slots: usize,
    decision_slots: usize,
) -> Vec<u64> {
    let base = decision_table_offset(meta_image.len(), commit_slots, decision_slots);
    (0..decision_slots)
        .filter_map(|i| decode_decision_slot(meta_image, base + i * DECISION_SLOT_SIZE))
        .collect()
}

/// Decodes the raw commit-table slots from a full metadata image. A slot
/// holding an id *above* the watermark marks that transaction committed;
/// slots at or below the watermark are free (their transactions are
/// already covered by the watermark) — callers filter accordingly.
pub fn decode_commit_table(meta_image: &[u8], commit_slots: usize) -> Vec<u64> {
    let off = commit_table_offset(meta_image.len(), commit_slots);
    (0..commit_slots)
        .filter_map(|i| get_u64(meta_image, off + i * 8))
        .collect()
}

/// Encodes the 16-byte group header bounding a concurrent undo log:
/// `record_bytes` bytes of undo records follow the header. CRC-protected
/// so a torn header rewrite reads as absent, not as a bogus bound.
pub fn encode_group_header(record_bytes: u64) -> [u8; GROUP_HEADER_SIZE] {
    let mut out = [0u8; GROUP_HEADER_SIZE];
    out[0..4].copy_from_slice(&GROUP_MAGIC.to_le_bytes());
    out[4..12].copy_from_slice(&record_bytes.to_le_bytes());
    let crc = crc32(&[&out[0..12]]);
    out[12..16].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Decodes the group header at offset 0 of a concurrent undo log,
/// returning the record-region length, or `None` if the bytes do not form
/// a valid header (fresh segment, torn rewrite) — in which case the log
/// holds no scannable records.
pub fn decode_group_header(undo: &[u8]) -> Option<u64> {
    if get_u32(undo, 0)? != GROUP_MAGIC {
        return None;
    }
    let record_bytes = get_u64(undo, 4)?;
    let stored = get_u32(undo, 12)?;
    if crc32(&[&undo[0..12]]) != stored {
        return None;
    }
    Some(record_bytes)
}

/// Computes the IEEE CRC-32 of `parts` concatenated.
pub use perseas_sci::crc32::checksum_parts as crc32;

fn get_u64(buf: &[u8], off: usize) -> Option<u64> {
    buf.get(off..off + 8)
        .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
}

fn get_u32(buf: &[u8], off: usize) -> Option<u32> {
    buf.get(off..off + 4)
        .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
}

fn get_u16(buf: &[u8], off: usize) -> Option<u16> {
    buf.get(off..off + 2)
        .map(|b| u16::from_le_bytes(b.try_into().expect("2 bytes")))
}

/// The decoded fixed header of the metadata segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetaHeader {
    /// Number of regions in the table.
    pub region_count: u32,
    /// Raw id of the current undo segment.
    pub undo_seg_id: u64,
    /// Length of the current undo segment.
    pub undo_seg_len: u64,
    /// Mirror-set epoch this mirror last participated in (0 in images
    /// written before epochs existed).
    pub epoch: u64,
    /// Engine flags (concurrent, [`FLAG_SHARDED`], redo); 0 in legacy
    /// images.
    pub flags: u32,
    /// Number of 8-byte commit-table slots trailing the region table
    /// (0 in legacy images).
    pub commit_slots: u32,
    /// Number of intent slots before the decision table (0 when
    /// [`FLAG_SHARDED`] is clear).
    pub intent_slots: u16,
    /// Number of decision slots before the commit table (0 when
    /// [`FLAG_SHARDED`] is clear).
    pub decision_slots: u16,
    /// Which shard of the sharded database this image is (0 when
    /// unsharded).
    pub shard_index: u16,
    /// Total shard count of the sharded database (0 when unsharded).
    pub shard_count: u16,
    /// Id of the last committed transaction (the commit record). In an
    /// image of the concurrent engine this is the resolution watermark.
    pub last_committed: u64,
}

impl MetaHeader {
    /// Encodes the full 64-byte header.
    pub fn encode(&self) -> [u8; OFF_REGION_TABLE] {
        let mut out = [0u8; OFF_REGION_TABLE];
        out[0..8].copy_from_slice(&META_MAGIC.to_le_bytes());
        out[8..12].copy_from_slice(&META_VERSION.to_le_bytes());
        out[12..16].copy_from_slice(&self.region_count.to_le_bytes());
        out[16..24].copy_from_slice(&self.undo_seg_id.to_le_bytes());
        out[24..32].copy_from_slice(&self.undo_seg_len.to_le_bytes());
        out[OFF_EPOCH..OFF_EPOCH + 8].copy_from_slice(&self.epoch.to_le_bytes());
        out[OFF_FLAGS..OFF_FLAGS + 4].copy_from_slice(&self.flags.to_le_bytes());
        out[OFF_COMMIT_SLOTS..OFF_COMMIT_SLOTS + 4]
            .copy_from_slice(&self.commit_slots.to_le_bytes());
        out[OFF_SHARD..OFF_SHARD + 2].copy_from_slice(&self.intent_slots.to_le_bytes());
        out[OFF_SHARD + 2..OFF_SHARD + 4].copy_from_slice(&self.decision_slots.to_le_bytes());
        out[OFF_SHARD + 4..OFF_SHARD + 6].copy_from_slice(&self.shard_index.to_le_bytes());
        out[OFF_SHARD + 6..OFF_SHARD + 8].copy_from_slice(&self.shard_count.to_le_bytes());
        out[OFF_COMMIT..OFF_COMMIT + 8].copy_from_slice(&self.last_committed.to_le_bytes());
        out
    }

    /// Decodes and validates a header from the start of a metadata
    /// segment.
    ///
    /// # Errors
    ///
    /// Returns a description of the corruption.
    pub fn decode(buf: &[u8]) -> Result<MetaHeader, String> {
        let magic = get_u64(buf, 0).ok_or("metadata segment too short")?;
        if magic != META_MAGIC {
            return Err(format!("bad metadata magic {magic:#x}"));
        }
        let version = get_u32(buf, 8).ok_or("truncated version")?;
        if version != META_VERSION {
            return Err(format!("unsupported metadata version {version}"));
        }
        Ok(MetaHeader {
            region_count: get_u32(buf, 12).ok_or("truncated region count")?,
            undo_seg_id: get_u64(buf, OFF_UNDO).ok_or("truncated undo id")?,
            undo_seg_len: get_u64(buf, OFF_UNDO + 8).ok_or("truncated undo len")?,
            epoch: get_u64(buf, OFF_EPOCH).ok_or("truncated epoch")?,
            flags: get_u32(buf, OFF_FLAGS).ok_or("truncated flags")?,
            commit_slots: get_u32(buf, OFF_COMMIT_SLOTS).ok_or("truncated slot count")?,
            intent_slots: get_u16(buf, OFF_SHARD).ok_or("truncated shard line")?,
            decision_slots: get_u16(buf, OFF_SHARD + 2).ok_or("truncated shard line")?,
            shard_index: get_u16(buf, OFF_SHARD + 4).ok_or("truncated shard line")?,
            shard_count: get_u16(buf, OFF_SHARD + 6).ok_or("truncated shard line")?,
            last_committed: get_u64(buf, OFF_COMMIT).ok_or("truncated commit record")?,
        })
    }
}

/// Encodes one region-table entry.
pub fn encode_region_entry(db_seg_id: u64, region_len: u64) -> [u8; REGION_ENTRY_SIZE] {
    let mut out = [0u8; REGION_ENTRY_SIZE];
    out[0..8].copy_from_slice(&db_seg_id.to_le_bytes());
    out[8..16].copy_from_slice(&region_len.to_le_bytes());
    out
}

/// Decodes the `index`-th region-table entry from a metadata image.
///
/// # Errors
///
/// Returns a description if the table is truncated.
pub fn decode_region_entry(buf: &[u8], index: usize) -> Result<(u64, u64), String> {
    let off = OFF_REGION_TABLE + index * REGION_ENTRY_SIZE;
    let id = get_u64(buf, off).ok_or("truncated region table")?;
    let len = get_u64(buf, off + 8).ok_or("truncated region table")?;
    Ok((id, len))
}

/// The header of one undo record (before-image of one `set_range`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct UndoRecord {
    /// Transaction that logged this record.
    pub txn_id: u64,
    /// Region index the before-image belongs to.
    pub region: u32,
    /// Byte offset within the region.
    pub offset: u64,
    /// Length of the before-image.
    pub len: u64,
}

impl UndoRecord {
    /// Total encoded size including the payload.
    pub fn encoded_len(&self) -> usize {
        UNDO_HEADER_SIZE + self.len as usize
    }

    /// Encodes header + `payload` into `out` at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `payload.len() != self.len` or `out` is too short.
    pub fn encode_into(&self, out: &mut [u8], at: usize, payload: &[u8]) {
        assert_eq!(payload.len() as u64, self.len, "payload length mismatch");
        let mut head = [0u8; UNDO_HEADER_SIZE];
        head[0..4].copy_from_slice(&UNDO_MAGIC.to_le_bytes());
        head[4..12].copy_from_slice(&self.txn_id.to_le_bytes());
        head[12..16].copy_from_slice(&self.region.to_le_bytes());
        head[16..24].copy_from_slice(&self.offset.to_le_bytes());
        head[24..32].copy_from_slice(&self.len.to_le_bytes());
        let crc = crc32(&[&head[0..32], payload]);
        head[32..36].copy_from_slice(&crc.to_le_bytes());
        out[at..at + UNDO_HEADER_SIZE].copy_from_slice(&head);
        out[at + UNDO_HEADER_SIZE..at + UNDO_HEADER_SIZE + payload.len()].copy_from_slice(payload);
    }

    /// Attempts to decode a record at `at` in `buf`. Returns the record and
    /// the payload range, or `None` if the bytes do not form a valid record
    /// (wrong magic, truncation, or CRC mismatch) — which recovery treats
    /// as the end of the log.
    pub fn decode_at(buf: &[u8], at: usize) -> Option<(UndoRecord, std::ops::Range<usize>)> {
        if get_u32(buf, at)? != UNDO_MAGIC {
            return None;
        }
        let txn_id = get_u64(buf, at + 4)?;
        let region = get_u32(buf, at + 12)?;
        let offset = get_u64(buf, at + 16)?;
        let len = get_u64(buf, at + 24)?;
        let stored_crc = get_u32(buf, at + 32)?;
        let payload_start = at + UNDO_HEADER_SIZE;
        let payload_end = payload_start.checked_add(usize::try_from(len).ok()?)?;
        if payload_end > buf.len() {
            return None;
        }
        let crc = crc32(&[&buf[at..at + 32], &buf[payload_start..payload_end]]);
        if crc != stored_crc {
            return None;
        }
        Some((
            UndoRecord {
                txn_id,
                region,
                offset,
                len,
            },
            payload_start..payload_end,
        ))
    }
}

/// The undo records encoded back to back from `from` in `buf`, with their
/// payload ranges, up to the first record that starts at or past `end` or
/// does not decode. Every reader of an undo log walks it through here.
pub(crate) fn undo_records(
    buf: &[u8],
    from: usize,
    end: usize,
) -> impl Iterator<Item = (UndoRecord, std::ops::Range<usize>)> + '_ {
    let mut off = from;
    std::iter::from_fn(move || {
        if off >= end {
            return None;
        }
        let (rec, payload) = UndoRecord::decode_at(buf, off)?;
        off += rec.encoded_len();
        Some((rec, payload))
    })
}

/// [`undo_records`] over all of `undo`, newest first: the order a
/// rollback applies them in, so that overlapping ranges resolve to the
/// oldest before-image.
pub(crate) fn undo_newest_first(
    undo: &[u8],
) -> impl Iterator<Item = (UndoRecord, std::ops::Range<usize>)> {
    let records: Vec<_> = undo_records(undo, 0, undo.len()).collect();
    records.into_iter().rev()
}

/// The header of one redo record: the **after**-image of one committed
/// `set_range`. The same self-validating framing as [`UndoRecord`]
/// (magic + transaction id + CRC-32) under its own magic, so replay can
/// scan a log segment and stop at the first record that is torn or
/// absent. Under [`RedoFormat::V2`] the CRC covers the record's absolute
/// log position, then header and payload; the position is not stored,
/// so the encoded size is the same in both formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RedoRecord {
    /// Transaction that logged this record.
    pub txn_id: u64,
    /// Region index the after-image belongs to.
    pub region: u32,
    /// Byte offset within the region.
    pub offset: u64,
    /// Length of the after-image.
    pub len: u64,
}

impl RedoRecord {
    /// Total encoded size including the payload.
    pub fn encoded_len(&self) -> usize {
        REDO_HEADER_SIZE + self.len as usize
    }

    /// Encodes header + `payload` into `out` at `at`, sealed to log
    /// position `pos` ([`RedoFormat::V2`]).
    ///
    /// # Panics
    ///
    /// Panics if `payload.len() != self.len` or `out` is too short.
    pub fn encode_into(&self, out: &mut [u8], at: usize, pos: u64, payload: &[u8]) {
        let head = self.encode_head(pos, payload);
        out[at..at + REDO_HEADER_SIZE].copy_from_slice(&head);
        out[at + REDO_HEADER_SIZE..at + REDO_HEADER_SIZE + payload.len()].copy_from_slice(payload);
    }

    /// Encodes just the CRC-sealed 36-byte header for `payload` at log
    /// position `pos` ([`RedoFormat::V2`]), for callers that ship header
    /// and payload as separate vectored parts.
    pub fn encode_head(&self, pos: u64, payload: &[u8]) -> [u8; REDO_HEADER_SIZE] {
        self.encode_head_as(RedoFormat::V2, pos, payload)
    }

    /// [`RedoRecord::encode_head`] under `format`: recovery appends its
    /// tombstones to a [`RedoFormat::V1`] log by that log's rule.
    pub(crate) fn encode_head_as(
        &self,
        format: RedoFormat,
        pos: u64,
        payload: &[u8],
    ) -> [u8; REDO_HEADER_SIZE] {
        assert_eq!(payload.len() as u64, self.len, "payload length mismatch");
        let mut head = [0u8; REDO_HEADER_SIZE];
        head[0..4].copy_from_slice(&REDO_MAGIC.to_le_bytes());
        head[4..12].copy_from_slice(&self.txn_id.to_le_bytes());
        head[12..16].copy_from_slice(&self.region.to_le_bytes());
        head[16..24].copy_from_slice(&self.offset.to_le_bytes());
        head[24..32].copy_from_slice(&self.len.to_le_bytes());
        let crc = redo_crc(format, pos, &head[0..32], payload);
        head[32..36].copy_from_slice(&crc.to_le_bytes());
        head
    }

    /// Attempts to decode a record at `at` in `buf`, read from log
    /// position `pos` of a log in `format`. Returns the record and the
    /// payload range, or `None` if the bytes do not form a valid record
    /// there — which replay treats as the end of the segment's used
    /// prefix.
    pub fn decode_at(
        buf: &[u8],
        at: usize,
        pos: u64,
        format: RedoFormat,
    ) -> Option<(RedoRecord, std::ops::Range<usize>)> {
        if get_u32(buf, at)? != REDO_MAGIC {
            return None;
        }
        let txn_id = get_u64(buf, at + 4)?;
        let region = get_u32(buf, at + 12)?;
        let offset = get_u64(buf, at + 16)?;
        let len = get_u64(buf, at + 24)?;
        let stored_crc = get_u32(buf, at + 32)?;
        let payload_start = at + REDO_HEADER_SIZE;
        let payload_end = payload_start.checked_add(usize::try_from(len).ok()?)?;
        if payload_end > buf.len() {
            return None;
        }
        let crc = redo_crc(
            format,
            pos,
            &buf[at..at + 32],
            &buf[payload_start..payload_end],
        );
        if crc != stored_crc {
            return None;
        }
        Some((
            RedoRecord {
                txn_id,
                region,
                offset,
                len,
            },
            payload_start..payload_end,
        ))
    }
}

/// A redo record's CRC under `format`: over the 32 header bytes before
/// the CRC and the payload, with the log position first from `RDO2` on.
fn redo_crc(format: RedoFormat, pos: u64, head: &[u8], payload: &[u8]) -> u32 {
    match format {
        RedoFormat::V1 => crc32(&[head, payload]),
        RedoFormat::V2 => crc32(&[&pos.to_le_bytes(), head, payload]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_record_fits_one_line() {
        // The durability point must be packet-atomic: the 8-byte record
        // may not straddle a 16-byte line...
        assert_eq!(OFF_COMMIT / 16, (OFF_COMMIT + 7) / 16);
        // ...and it should end on the last word of its 64-byte buffer so
        // the card flushes it eagerly.
        assert_eq!((OFF_COMMIT + 8) % 64, 0);
    }

    #[test]
    fn undo_indirection_fits_one_line() {
        assert_eq!(OFF_UNDO % 16, 0);
    }

    #[test]
    fn epoch_fits_one_line() {
        // The epoch bump fences a mirror with a single packet: the
        // 8-byte counter may not straddle a 16-byte line.
        assert_eq!(OFF_EPOCH / 16, (OFF_EPOCH + 7) / 16);
        // It must not share a line with the commit record either —
        // fencing and committing are separate atomic events.
        assert_ne!(OFF_EPOCH / 16, OFF_COMMIT / 16);
    }

    #[test]
    fn header_roundtrips() {
        let h = MetaHeader {
            region_count: 3,
            undo_seg_id: 42,
            undo_seg_len: 4096,
            epoch: 9,
            flags: FLAG_CONCURRENT,
            commit_slots: 64,
            intent_slots: 0,
            decision_slots: 0,
            shard_index: 0,
            shard_count: 0,
            last_committed: 17,
        };
        let enc = h.encode();
        assert_eq!(MetaHeader::decode(&enc).unwrap(), h);
    }

    #[test]
    fn pre_epoch_images_decode_as_epoch_zero() {
        // Images written before the epoch field existed left bytes
        // 32..40 zeroed; they must decode as epoch 0, which passes the
        // default `min_epoch = 0` admission check.
        let h = MetaHeader {
            region_count: 1,
            undo_seg_id: 7,
            undo_seg_len: 64,
            epoch: 3,
            flags: 0,
            commit_slots: 0,
            intent_slots: 0,
            decision_slots: 0,
            shard_index: 0,
            shard_count: 0,
            last_committed: 2,
        };
        let mut enc = h.encode();
        enc[OFF_EPOCH..OFF_EPOCH + 8].fill(0);
        assert_eq!(MetaHeader::decode(&enc).unwrap().epoch, 0);
    }

    #[test]
    fn header_rejects_corruption() {
        let h = MetaHeader {
            region_count: 1,
            undo_seg_id: 1,
            undo_seg_len: 1,
            epoch: 1,
            flags: 0,
            commit_slots: 0,
            intent_slots: 0,
            decision_slots: 0,
            shard_index: 0,
            shard_count: 0,
            last_committed: 0,
        };
        let mut enc = h.encode();
        enc[0] ^= 0xFF;
        assert!(MetaHeader::decode(&enc).unwrap_err().contains("magic"));
        assert!(MetaHeader::decode(&[0; 4]).is_err());
        let mut enc = h.encode();
        enc[8] ^= 0xFF; // version
        assert!(MetaHeader::decode(&enc).unwrap_err().contains("version"));
    }

    #[test]
    fn region_entries_roundtrip() {
        let mut buf = vec![0u8; meta_segment_size(4)];
        let e = encode_region_entry(9, 512);
        buf[OFF_REGION_TABLE + 2 * REGION_ENTRY_SIZE..OFF_REGION_TABLE + 3 * REGION_ENTRY_SIZE]
            .copy_from_slice(&e);
        assert_eq!(decode_region_entry(&buf, 2).unwrap(), (9, 512));
        assert!(decode_region_entry(&buf, 4).is_err());
    }

    #[test]
    fn undo_record_roundtrips() {
        let rec = UndoRecord {
            txn_id: 5,
            region: 2,
            offset: 100,
            len: 4,
        };
        let mut buf = vec![0u8; 128];
        rec.encode_into(&mut buf, 8, &[1, 2, 3, 4]);
        let (got, payload) = UndoRecord::decode_at(&buf, 8).unwrap();
        assert_eq!(got, rec);
        assert_eq!(&buf[payload], &[1, 2, 3, 4]);
    }

    #[test]
    fn torn_record_is_rejected() {
        let rec = UndoRecord {
            txn_id: 5,
            region: 0,
            offset: 0,
            len: 8,
        };
        let mut buf = vec![0u8; 64];
        rec.encode_into(&mut buf, 0, &[7; 8]);
        // Corrupt one payload byte: CRC must fail.
        buf[UNDO_HEADER_SIZE + 3] ^= 1;
        assert!(UndoRecord::decode_at(&buf, 0).is_none());
    }

    #[test]
    fn garbage_and_truncation_rejected() {
        assert!(UndoRecord::decode_at(&[0; 16], 0).is_none());
        let rec = UndoRecord {
            txn_id: 1,
            region: 0,
            offset: 0,
            len: 100,
        };
        let mut buf = vec![0u8; 200];
        rec.encode_into(&mut buf, 0, &[0; 100]);
        // Truncate below the payload end.
        assert!(UndoRecord::decode_at(&buf[..120], 0).is_none());
        // Absurd length must not panic.
        let mut buf = vec![0u8; 64];
        buf[0..4].copy_from_slice(&UNDO_MAGIC.to_le_bytes());
        buf[24..32].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(UndoRecord::decode_at(&buf, 0).is_none());
    }

    #[test]
    fn crc_concatenation_matches_flat() {
        let a = crc32(&[b"hello ", b"world"]);
        let b = crc32(&[b"hello world"]);
        assert_eq!(a, b);
        assert_eq!(crc32(&[b"123456789"]), 0xCBF4_3926);
    }

    #[test]
    fn meta_size_scales_with_regions() {
        assert_eq!(meta_segment_size(0), 64);
        assert_eq!(meta_segment_size(4), 64 + 64);
    }

    #[test]
    fn concurrent_meta_size_appends_commit_table() {
        assert_eq!(meta_segment_size_concurrent(4, 0), meta_segment_size(4));
        assert_eq!(
            meta_segment_size_concurrent(4, 64),
            meta_segment_size(4) + 512
        );
        assert_eq!(
            commit_table_offset(meta_segment_size_concurrent(4, 64), 64),
            meta_segment_size(4)
        );
    }

    #[test]
    fn commit_table_slots_are_packet_atomic() {
        // The region table is 16-byte-aligned and entries are 16 bytes,
        // so the commit table starts on a line boundary: every 8-byte
        // slot sits inside one 16-byte line and is written with a single
        // packet, exactly like the commit record itself.
        assert_eq!(OFF_REGION_TABLE % 16, 0);
        assert_eq!(REGION_ENTRY_SIZE % 16, 0);
        for max_regions in [0, 1, 64] {
            let table = meta_segment_size(max_regions);
            for slot in 0..8 {
                let off = table + slot * 8;
                assert_eq!(off / 16, (off + 7) / 16, "slot {slot} straddles a line");
            }
        }
    }

    #[test]
    fn flags_and_slots_roundtrip_and_default_to_legacy() {
        let h = MetaHeader {
            region_count: 1,
            undo_seg_id: 1,
            undo_seg_len: 64,
            epoch: 0,
            flags: FLAG_CONCURRENT,
            commit_slots: 16,
            intent_slots: 0,
            decision_slots: 0,
            shard_index: 0,
            shard_count: 0,
            last_committed: 0,
        };
        let got = MetaHeader::decode(&h.encode()).unwrap();
        assert_eq!(got.flags, FLAG_CONCURRENT);
        assert_eq!(got.commit_slots, 16);
        // Legacy images left bytes 40..48 zeroed: they must decode as a
        // non-concurrent header with an empty commit table.
        let mut enc = h.encode();
        enc[OFF_FLAGS..OFF_COMMIT_SLOTS + 4].fill(0);
        let got = MetaHeader::decode(&enc).unwrap();
        assert_eq!(got.flags, 0);
        assert_eq!(got.commit_slots, 0);
    }

    #[test]
    fn group_header_roundtrips() {
        let enc = encode_group_header(1234);
        assert_eq!(decode_group_header(&enc), Some(1234));
        assert_eq!(GROUP_HEADER_SIZE % 16, 0); // own line: packet-atomic rewrite
    }

    #[test]
    fn torn_group_header_reads_as_absent() {
        // A fresh (zeroed) segment has no header...
        assert_eq!(decode_group_header(&[0u8; 64]), None);
        // ...a truncated one doesn't either...
        let enc = encode_group_header(77);
        assert_eq!(decode_group_header(&enc[..12]), None);
        // ...and a single flipped bit anywhere fails the CRC.
        for i in 0..GROUP_HEADER_SIZE {
            let mut bad = enc;
            bad[i] ^= 1;
            assert_eq!(decode_group_header(&bad), None, "bit flip at {i} accepted");
        }
    }

    #[test]
    fn commit_table_decodes_raw_slots() {
        let mut image = vec![0u8; meta_segment_size_concurrent(2, 4)];
        let base = commit_table_offset(image.len(), 4);
        for (i, id) in [9u64, 0, 3, 12].iter().enumerate() {
            image[base + i * 8..base + i * 8 + 8].copy_from_slice(&id.to_le_bytes());
        }
        assert_eq!(decode_commit_table(&image, 4), vec![9, 0, 3, 12]);
    }

    #[test]
    fn intent_slot_roundtrips_and_rejects_torn_writes() {
        let enc = encode_intent_slot(7, 1001, 2);
        assert_eq!(decode_intent_slot(&enc, 0), Some((7, 1001, 2)));
        // A torn slot (any payload byte lost) reads as absent, not as a
        // bogus intent.
        for i in 8..INTENT_SLOT_SIZE {
            let mut torn = enc;
            torn[i] ^= 0xFF;
            assert_eq!(decode_intent_slot(&torn, 0), None, "byte {i}");
        }
        // A cleared (zeroed) slot is absent too.
        assert_eq!(decode_intent_slot(&[0u8; INTENT_SLOT_SIZE], 0), None);
    }

    #[test]
    fn decision_slot_roundtrips_and_rejects_torn_writes() {
        let enc = encode_decision_slot(1001);
        assert_eq!(decode_decision_slot(&enc, 0), Some(1001));
        for i in 8..DECISION_SLOT_SIZE {
            let mut torn = enc;
            torn[i] ^= 0xFF;
            assert_eq!(decode_decision_slot(&torn, 0), None, "byte {i}");
        }
        assert_eq!(decode_decision_slot(&[0u8; DECISION_SLOT_SIZE], 0), None);
    }

    #[test]
    fn decision_slots_are_packet_atomic() {
        // A decision record is the cross-shard commit point: each slot
        // must be exactly one 16-byte line (one SCI packet), so a crash
        // mid-flush leaves it fully durable or CRC-invalid.
        assert_eq!(DECISION_SLOT_SIZE, 16);
        // Every table the sharded layout appends is 16-byte aligned from
        // the segment end (even commit_slots keeps the 8-byte tail words
        // paired into lines), so slots never straddle lines.
        let len = meta_segment_size_sharded(64, 32, 16, 8);
        assert_eq!(commit_table_offset(len, 32) % 16, 0);
        assert_eq!(decision_table_offset(len, 32, 8) % 16, 0);
        assert_eq!(intent_table_offset(len, 32, 16, 8) % 16, 0);
        assert_eq!(INTENT_SLOT_SIZE % 16, 0);
    }

    #[test]
    #[should_panic(expected = "even commit_slots")]
    fn odd_commit_slots_are_rejected_in_sharded_images() {
        meta_segment_size_sharded(64, 33, 16, 8);
    }

    #[test]
    fn sharded_meta_layout_nests_tables_without_overlap() {
        let len = meta_segment_size_sharded(8, 4, 2, 2);
        assert_eq!(
            len,
            meta_segment_size_concurrent(8, 4) + 2 * INTENT_SLOT_SIZE + 2 * DECISION_SLOT_SIZE
        );
        let intents = intent_table_offset(len, 4, 2, 2);
        let decisions = decision_table_offset(len, 4, 2);
        let commits = commit_table_offset(len, 4);
        // Region table < intents < decisions < commits < end.
        assert!(OFF_REGION_TABLE + 8 * REGION_ENTRY_SIZE <= intents);
        assert_eq!(intents + 2 * INTENT_SLOT_SIZE, decisions);
        assert_eq!(decisions + 2 * DECISION_SLOT_SIZE, commits);
        assert_eq!(commits + 4 * 8, len);
    }

    #[test]
    fn intent_and_decision_tables_decode_only_live_slots() {
        let len = meta_segment_size_sharded(4, 4, 3, 2);
        let mut image = vec![0u8; len];
        let ibase = intent_table_offset(len, 4, 3, 2);
        image[ibase + INTENT_SLOT_SIZE..ibase + 2 * INTENT_SLOT_SIZE]
            .copy_from_slice(&encode_intent_slot(5, 900, 1));
        let dbase = decision_table_offset(len, 4, 2);
        image[dbase..dbase + DECISION_SLOT_SIZE].copy_from_slice(&encode_decision_slot(900));
        assert_eq!(decode_intent_table(&image, 4, 3, 2), vec![(1, 5, 900, 1)]);
        assert_eq!(decode_decision_table(&image, 4, 2), vec![900]);
    }

    #[test]
    fn redo_record_roundtrips_and_rejects_corruption() {
        let rec = RedoRecord {
            txn_id: 5,
            region: 2,
            offset: 100,
            len: 4,
        };
        let pos = 3 * 4096 + 8;
        let v2 = RedoFormat::V2;
        let mut buf = vec![0u8; 128];
        rec.encode_into(&mut buf, 8, pos, &[1, 2, 3, 4]);
        let (got, payload) = RedoRecord::decode_at(&buf, 8, pos, v2).unwrap();
        assert_eq!(got, rec);
        assert_eq!(&buf[payload], &[1, 2, 3, 4]);
        // The vectored head matches the flat encoding.
        assert_eq!(
            rec.encode_head(pos, &[1, 2, 3, 4]),
            buf[8..8 + REDO_HEADER_SIZE]
        );
        // The same bytes read from any other log position, or by the
        // `RDO1` rule, are not a record: a recycled segment's old lap
        // reads as garbage.
        for other in [pos - 4096, pos + 4096, pos + 1, 8] {
            assert!(
                RedoRecord::decode_at(&buf, 8, other, v2).is_none(),
                "{other}"
            );
        }
        assert!(RedoRecord::decode_at(&buf, 8, pos, RedoFormat::V1).is_none());
        let v1 = rec.encode_head_as(RedoFormat::V1, pos, &[1, 2, 3, 4]);
        let mut old = v1.to_vec();
        old.extend_from_slice(&[1, 2, 3, 4]);
        assert_eq!(
            RedoRecord::decode_at(&old, 0, 0, RedoFormat::V1).unwrap().0,
            rec
        );
        assert!(RedoRecord::decode_at(&old, 0, pos, v2).is_none());
        // A redo record must never decode as an undo record (and vice
        // versa): the two logs use distinct magics.
        assert!(UndoRecord::decode_at(&buf, 8).is_none());
        // Any flipped bit anywhere in header or payload fails the CRC.
        for i in 8..8 + rec.encoded_len() {
            let mut bad = buf.clone();
            bad[i] ^= 1;
            assert!(
                RedoRecord::decode_at(&bad, 8, pos, v2).is_none(),
                "bit flip at {i}"
            );
        }
        // Fresh zeroed bytes and absurd lengths read as end-of-log.
        assert!(RedoRecord::decode_at(&[0; 64], 0, 0, v2).is_none());
        let mut buf = vec![0u8; 64];
        buf[0..4].copy_from_slice(&REDO_MAGIC.to_le_bytes());
        buf[24..32].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(RedoRecord::decode_at(&buf, 0, 0, v2).is_none());
    }

    #[test]
    fn redo_dir_header_roundtrips_and_rejects_torn_writes() {
        let enc = encode_redo_dir_header(64 << 10, 8);
        assert_eq!(
            decode_redo_dir_header(&enc, 0),
            Some((64 << 10, 8, RedoFormat::V2))
        );
        // An `RDO1` line still decodes, as the old format.
        let mut old = enc;
        old[0..4].copy_from_slice(&REDO_DIR_MAGIC_V1.to_le_bytes());
        assert_eq!(
            decode_redo_dir_header(&old, 0),
            Some((64 << 10, 8, RedoFormat::V1))
        );
        for i in 0..16 {
            let mut torn = enc;
            torn[i] ^= 1;
            assert_eq!(decode_redo_dir_header(&torn, 0), None, "byte {i}");
        }
        // A fresh (zeroed) line has no header.
        assert_eq!(decode_redo_dir_header(&[0u8; 16], 0), None);
    }

    #[test]
    fn redo_entry_roundtrips_and_zero_reads_as_empty() {
        let enc = encode_redo_entry(42, 0);
        assert_eq!(decode_redo_entry(&enc, 0), Some((42, 0)));
        let enc = encode_redo_entry(9, 17);
        assert_eq!(decode_redo_entry(&enc, 0), Some((9, 17)));
        // A zeroed entry is an empty slot, even for seg_id 0.
        assert_eq!(decode_redo_entry(&[0u8; REDO_ENTRY_SIZE], 0), None);
    }

    #[test]
    fn redo_dir_nests_before_intent_table_without_overlap() {
        // Sharded + redo image: the directory sits between the region
        // table and the intent table, every line packet-atomic.
        let slots = 4;
        let len = meta_segment_size_sharded(8, 4, 2, 2) + redo_dir_size(slots);
        let dir_end = redo_dir_end(len, 4, 2, 2);
        assert_eq!(
            dir_end + 2 * INTENT_SLOT_SIZE,
            decision_table_offset(len, 4, 2)
        );
        assert_eq!(redo_header_offset(dir_end) + 16, dir_end);
        assert_eq!(redo_tail_offset(dir_end) + 16, redo_header_offset(dir_end));
        assert_eq!(redo_snap_offset(dir_end) + 16, redo_tail_offset(dir_end));
        assert_eq!(
            redo_entry_offset(dir_end, slots, slots - 1) + REDO_ENTRY_SIZE,
            redo_snap_offset(dir_end)
        );
        assert_eq!(
            redo_entry_offset(dir_end, slots, 0),
            dir_end - redo_dir_size(slots)
        );
        assert!(OFF_REGION_TABLE + 8 * REGION_ENTRY_SIZE <= redo_entry_offset(dir_end, slots, 0));
        // Every directory line is 16-byte aligned: the tail and snapshot
        // u64s and each entry are single-packet writes.
        for off in [
            redo_header_offset(dir_end),
            redo_tail_offset(dir_end),
            redo_snap_offset(dir_end),
            redo_entry_offset(dir_end, slots, 0),
        ] {
            assert_eq!(off % 16, 0, "offset {off} not line-aligned");
        }
        // Legacy (unsharded, non-concurrent) redo image: the directory is
        // the only tail table and ends at the segment end.
        let len = meta_segment_size(8) + redo_dir_size(slots);
        assert_eq!(redo_dir_end(len, 0, 0, 0), len);
    }

    #[test]
    fn sharded_header_roundtrips_and_legacy_zeros_decode_unsharded() {
        let h = MetaHeader {
            region_count: 2,
            undo_seg_id: 11,
            undo_seg_len: 2048,
            epoch: 4,
            flags: FLAG_CONCURRENT | FLAG_SHARDED,
            commit_slots: 16,
            intent_slots: 8,
            decision_slots: 4,
            shard_index: 2,
            shard_count: 3,
            last_committed: 77,
        };
        let enc = h.encode();
        let dec = MetaHeader::decode(&enc).unwrap();
        assert_eq!(dec, h);
        // Legacy images carry zeros at OFF_SHARD: they decode as
        // unsharded, so pre-shard metadata stays readable.
        let mut legacy = enc;
        legacy[OFF_FLAGS..OFF_FLAGS + 4].copy_from_slice(&FLAG_CONCURRENT.to_le_bytes());
        legacy[OFF_SHARD..OFF_SHARD + 8].fill(0);
        let dec = MetaHeader::decode(&legacy).unwrap();
        assert_eq!(dec.flags & FLAG_SHARDED, 0);
        assert_eq!(dec.shard_count, 0);
        assert_eq!(dec.intent_slots, 0);
    }
}
