//! The write-ahead log record format shared by RVM and RVM-on-Rio.
//!
//! The log holds two kinds of records, both CRC-protected so that recovery
//! can stop cleanly at a torn tail:
//!
//! * **update** records carrying the after-image of one modified range;
//! * **commit** records marking every update of a transaction durable.
//!
//! Updates are written (buffered) at commit time — RVM's no-undo/redo
//! scheme: uncommitted data never reaches the log, so recovery is a pure
//! redo scan.

use perseas_sci::crc32::checksum_parts as crc32;

/// Magic opening an update record.
pub const RECORD_MAGIC: u32 = 0x5741_4C52; // "WALR"

/// Magic opening a commit record.
pub const COMMIT_MAGIC: u32 = 0x5741_4C43; // "WALC"

/// Header size of an update record.
pub const RECORD_HEADER: usize = 36;

/// Size of a commit record.
pub const COMMIT_SIZE: usize = 16;

fn get_u32(buf: &[u8], off: usize) -> Option<u32> {
    buf.get(off..off + 4)
        .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
}

fn get_u64(buf: &[u8], off: usize) -> Option<u64> {
    buf.get(off..off + 8)
        .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
}

/// A decoded log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// After-image of one modified range.
    Update {
        /// Transaction id.
        txn_id: u64,
        /// Region index.
        region: u32,
        /// Byte offset within the region.
        offset: u64,
        /// Range of the after-image bytes within the log buffer.
        payload: std::ops::Range<usize>,
    },
    /// Transaction `txn_id` is committed.
    Commit {
        /// Transaction id.
        txn_id: u64,
    },
}

/// Encodes an update record (header + after-image) into `out`.
pub fn encode_update(out: &mut Vec<u8>, txn_id: u64, region: u32, offset: u64, payload: &[u8]) {
    let mut head = [0u8; RECORD_HEADER];
    head[0..4].copy_from_slice(&RECORD_MAGIC.to_le_bytes());
    head[4..12].copy_from_slice(&txn_id.to_le_bytes());
    head[12..16].copy_from_slice(&region.to_le_bytes());
    head[16..24].copy_from_slice(&offset.to_le_bytes());
    head[24..32].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    let crc = crc32(&[&head[0..32], payload]);
    head[32..36].copy_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(&head);
    out.extend_from_slice(payload);
}

/// Encodes a commit record into `out`.
pub fn encode_commit(out: &mut Vec<u8>, txn_id: u64) {
    let mut rec = [0u8; COMMIT_SIZE];
    rec[0..4].copy_from_slice(&COMMIT_MAGIC.to_le_bytes());
    rec[4..12].copy_from_slice(&txn_id.to_le_bytes());
    let crc = crc32(&[&rec[0..12]]);
    rec[12..16].copy_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(&rec);
}

/// Decodes the record at `at`, returning it and the offset of the next
/// record, or `None` at a torn/garbage tail.
pub fn decode_at(buf: &[u8], at: usize) -> Option<(WalRecord, usize)> {
    match get_u32(buf, at)? {
        RECORD_MAGIC => {
            let txn_id = get_u64(buf, at + 4)?;
            let region = get_u32(buf, at + 12)?;
            let offset = get_u64(buf, at + 16)?;
            let len = usize::try_from(get_u64(buf, at + 24)?).ok()?;
            let stored = get_u32(buf, at + 32)?;
            let p_start = at + RECORD_HEADER;
            let p_end = p_start.checked_add(len)?;
            if p_end > buf.len() {
                return None;
            }
            if crc32(&[&buf[at..at + 32], &buf[p_start..p_end]]) != stored {
                return None;
            }
            Some((
                WalRecord::Update {
                    txn_id,
                    region,
                    offset,
                    payload: p_start..p_end,
                },
                p_end,
            ))
        }
        COMMIT_MAGIC => {
            let txn_id = get_u64(buf, at + 4)?;
            let stored = get_u32(buf, at + 12)?;
            if crc32(&[&buf[at..at + 12]]) != stored {
                return None;
            }
            Some((WalRecord::Commit { txn_id }, at + COMMIT_SIZE))
        }
        _ => None,
    }
}

/// Scans a whole log image, yielding records until the first invalid one.
pub fn scan(buf: &[u8]) -> Vec<WalRecord> {
    let mut out = Vec::new();
    let mut at = 0;
    while let Some((rec, next)) = decode_at(buf, at) {
        out.push(rec);
        at = next;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_and_commit_roundtrip() {
        let mut log = Vec::new();
        encode_update(&mut log, 3, 1, 64, &[9; 10]);
        encode_commit(&mut log, 3);
        let recs = scan(&log);
        assert_eq!(recs.len(), 2);
        match &recs[0] {
            WalRecord::Update {
                txn_id,
                region,
                offset,
                payload,
            } => {
                assert_eq!((*txn_id, *region, *offset), (3, 1, 64));
                assert_eq!(&log[payload.clone()], &[9; 10]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(recs[1], WalRecord::Commit { txn_id: 3 });
    }

    #[test]
    fn torn_tail_stops_the_scan() {
        let mut log = Vec::new();
        encode_update(&mut log, 1, 0, 0, &[1; 8]);
        encode_commit(&mut log, 1);
        let complete = scan(&log).len();
        encode_update(&mut log, 2, 0, 0, &[2; 8]);
        // Tear the last record.
        let torn = log.len() - 3;
        assert_eq!(scan(&log[..torn]).len(), complete);
    }

    #[test]
    fn corrupt_payload_invalidates_record() {
        let mut log = Vec::new();
        encode_update(&mut log, 1, 0, 0, &[1; 8]);
        log[RECORD_HEADER + 2] ^= 0xFF;
        assert!(scan(&log).is_empty());
    }

    #[test]
    fn corrupt_commit_invalidates_record() {
        let mut log = Vec::new();
        encode_commit(&mut log, 1);
        log[5] ^= 0xFF;
        assert!(scan(&log).is_empty());
    }

    #[test]
    fn empty_and_garbage_logs_scan_to_nothing() {
        assert!(scan(&[]).is_empty());
        assert!(scan(&[0xAB; 100]).is_empty());
    }

    #[test]
    fn absurd_length_does_not_panic() {
        let mut log = vec![0u8; 64];
        log[0..4].copy_from_slice(&RECORD_MAGIC.to_le_bytes());
        log[24..32].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(scan(&log).is_empty());
    }
}
