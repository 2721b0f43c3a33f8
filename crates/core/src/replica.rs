//! Read replicas: consistent read-only snapshots on any workstation.
//!
//! The paper (§3): *"Data in network memory are always available and
//! accessible by every node."* A [`ReadReplica`] attaches to a mirror
//! **without disturbing it** — unlike recovery it writes nothing — and
//! materialises a transactionally consistent snapshot: the mirrored
//! regions with any in-flight transaction's before-images applied
//! locally. Re-[`refresh`](ReadReplica::refresh) at will; reporting jobs,
//! monitoring, and warm standbys read while the primary keeps committing.

use perseas_rnram::{RemoteMemory, RemoteSegment};
use perseas_sci::SegmentId;
use perseas_txn::{RegionId, TxnError};

use crate::config::PerseasConfig;
use crate::layout::{
    commit_table_offset, decode_commit_table, MetaHeader, FLAG_CONCURRENT, OFF_COMMIT,
};
use crate::perseas::unavailable;
use crate::recovery::scan_uncommitted;

/// A read-only, transactionally consistent copy of a PERSEAS database,
/// built from a mirror without modifying it.
#[derive(Debug)]
pub struct ReadReplica<M: RemoteMemory> {
    backend: M,
    meta: RemoteSegment,
    cfg: PerseasConfig,
    regions: Vec<Vec<u8>>,
    last_committed: u64,
    epoch: u64,
}

impl<M: RemoteMemory> ReadReplica<M> {
    /// Attaches to the mirror and takes the initial snapshot.
    ///
    /// A mirror whose metadata epoch is below `cfg.min_epoch` was fenced
    /// out of the mirror set after missing commits; attaching to it is
    /// refused with [`TxnError::FencedMirror`] so a stale image can
    /// never masquerade as the database.
    ///
    /// # Errors
    ///
    /// Fails if the mirror holds no (or corrupt) PERSEAS metadata, is
    /// unreachable ([`TxnError::Unavailable`]), is fenced
    /// ([`TxnError::FencedMirror`]), or keeps committing so fast that no
    /// consistent snapshot forms within `cfg.snapshot_retries` attempts
    /// ([`TxnError::SnapshotContention`] — the mirror is alive, retry).
    pub fn attach(mut backend: M, cfg: PerseasConfig) -> Result<Self, TxnError> {
        let meta = backend.connect_segment(cfg.meta_tag).map_err(unavailable)?;
        let mut replica = ReadReplica {
            backend,
            meta,
            cfg,
            regions: Vec::new(),
            last_committed: 0,
            epoch: 0,
        };
        replica.refresh()?;
        Ok(replica)
    }

    /// Re-snapshots the database, returning the id of the newest
    /// committed transaction now visible.
    ///
    /// The snapshot is consistent: it retries if the mirror's commit
    /// record moves while the regions are being copied, and applies the
    /// before-images of any in-flight transaction to its **local** copy
    /// (the mirror is never written).
    ///
    /// Snapshot-first: each attempt in the first half of the retry budget
    /// copies the undo log, every region, and the commit-record re-checks
    /// in **one vectored read** — served atomically by the event-driven
    /// server, so a committing primary cannot tear it. The remaining
    /// budget falls back to the legacy per-segment copy loop for backends
    /// without an atomic vectored path.
    ///
    /// # Errors
    ///
    /// Fails on unreachable mirrors ([`TxnError::Unavailable`]), corrupt
    /// metadata, fenced mirrors ([`TxnError::FencedMirror`], carrying the
    /// attempt the fence was diagnosed on), or — as
    /// [`TxnError::SnapshotContention`], distinct from transport
    /// failures — when the primary outruns `cfg.snapshot_retries`
    /// attempts.
    pub fn refresh(&mut self) -> Result<u64, TxnError> {
        let budget = self.cfg.snapshot_retries;
        let vectored = budget.div_ceil(2);
        let mut attempts = 0usize;
        while attempts < vectored {
            attempts += 1;
            if let Some(last) = self.try_refresh(attempts, true)? {
                return Ok(last);
            }
        }
        while attempts < budget {
            attempts += 1;
            if let Some(last) = self.try_refresh(attempts, false)? {
                return Ok(last);
            }
        }
        // The mirror answered every read — it is alive, just committing
        // faster than we can copy. Distinct from a transport failure.
        Err(TxnError::SnapshotContention { attempts })
    }

    /// One snapshot attempt. Returns `Ok(None)` when the primary
    /// committed mid-copy (fuzzy cut — retry); `attempt` is carried by
    /// any typed error so the caller learns the final attempt count.
    fn try_refresh(&mut self, attempt: usize, use_vectored: bool) -> Result<Option<u64>, TxnError> {
        let mut meta_image = vec![0u8; self.meta.len];
        self.backend
            .remote_read(self.meta.id, 0, &mut meta_image)
            .map_err(unavailable)?;
        let header = MetaHeader::decode(&meta_image)
            .map_err(|m| TxnError::Unavailable(format!("corrupt metadata: {m}")))?;
        if header.epoch < self.cfg.min_epoch {
            return Err(TxnError::FencedMirror {
                epoch: header.epoch,
                required: self.cfg.min_epoch,
                attempts: attempt,
            });
        }
        if header.flags & crate::layout::FLAG_REDO != 0 {
            // A redo-mode mirror's db segments only hold the last
            // snapshot; the committed state lives partly in the log.
            // Materialising it would mean replaying the suffix here —
            // refuse rather than serve a stale image.
            return Err(TxnError::Unavailable(
                "mirror uses the redo commit path: its db segments lag the log, \
                 so a read replica cannot snapshot it consistently"
                    .into(),
            ));
        }

        let undo_seg = self
            .backend
            .segment_info(SegmentId::from_raw(header.undo_seg_id))
            .map_err(unavailable)?;
        let mut segs = Vec::with_capacity(header.region_count as usize);
        let mut region_lens = Vec::with_capacity(header.region_count as usize);
        for i in 0..header.region_count as usize {
            let (seg_id, _) = crate::layout::decode_region_entry(&meta_image, i)
                .map_err(|m| TxnError::Unavailable(format!("corrupt region table: {m}")))?;
            let seg = self
                .backend
                .segment_info(SegmentId::from_raw(seg_id))
                .map_err(unavailable)?;
            region_lens.push(seg.len);
            segs.push(seg);
        }

        let concurrent = header.flags & FLAG_CONCURRENT != 0;
        let slots = header.commit_slots as usize;
        let table_base = commit_table_offset(self.meta.len, slots);

        let (undo, mut regions) = if use_vectored {
            // One cut: undo log first, then every region, with the
            // commit-record (and, for a concurrent image, commit-table)
            // re-checks last in the same vector.
            let mut reads = vec![(undo_seg.id, 0usize, undo_seg.len)];
            for seg in &segs {
                reads.push((seg.id, 0, seg.len));
            }
            reads.push((self.meta.id, OFF_COMMIT, 8));
            if concurrent && slots > 0 {
                reads.push((self.meta.id, table_base, slots * 8));
            }
            let bufs = self.backend.remote_read_v(&reads).map_err(unavailable)?;
            let mut bufs = bufs.into_iter();
            let undo = bufs.next().expect("undo buffer present");
            let regions: Vec<Vec<u8>> = segs
                .iter()
                .map(|_| bufs.next().expect("region buffer"))
                .collect();
            let after = bufs.next().expect("commit-record buffer");
            if after.len() != 8
                || u64::from_le_bytes(after.try_into().expect("8 bytes")) != header.last_committed
            {
                return Ok(None);
            }
            if concurrent && slots > 0 {
                let table_after = bufs.next().expect("commit-table buffer");
                if table_after != meta_image[table_base..table_base + slots * 8] {
                    return Ok(None);
                }
            }
            (undo, regions)
        } else {
            // Legacy per-segment copy loop: undo log first, then the
            // regions, then the re-checks.
            let mut undo = vec![0u8; undo_seg.len];
            self.backend
                .remote_read(undo_seg.id, 0, &mut undo)
                .map_err(unavailable)?;
            let mut regions = Vec::with_capacity(segs.len());
            for seg in &segs {
                let mut data = vec![0u8; seg.len];
                if seg.len > 0 {
                    self.backend
                        .remote_read(seg.id, 0, &mut data)
                        .map_err(unavailable)?;
                }
                regions.push(data);
            }
            // If a commit landed while we copied, the snapshot may be
            // fuzzy: retry. The replica adapts to whichever engine wrote
            // the image: a concurrent mirror publishes every group commit
            // through its commit table, so the table bytes are compared
            // too — a watermark-only check would miss a group committed
            // entirely above the watermark.
            let mut after = [0u8; 8];
            self.backend
                .remote_read(self.meta.id, OFF_COMMIT, &mut after)
                .map_err(unavailable)?;
            if u64::from_le_bytes(after) != header.last_committed {
                return Ok(None);
            }
            if concurrent && slots > 0 {
                let mut table_after = vec![0u8; slots * 8];
                self.backend
                    .remote_read(self.meta.id, table_base, &mut table_after)
                    .map_err(unavailable)?;
                if table_after != meta_image[table_base..table_base + slots * 8] {
                    return Ok(None);
                }
            }
            (undo, regions)
        };

        // Roll back the in-flight transactions *locally*, using the
        // same rules as recovery.
        let to_undo = scan_uncommitted(&undo, &meta_image, &header, &region_lens);
        for (rec, payload) in to_undo.iter().rev() {
            let ri = rec.region as usize;
            let at = rec.offset as usize;
            regions[ri][at..at + payload.len()].copy_from_slice(&undo[payload.clone()]);
        }

        self.regions = regions;
        // For a concurrent image, the newest *visible* commit may sit
        // in a table slot above the watermark.
        self.last_committed = if concurrent {
            decode_commit_table(&meta_image, slots)
                .into_iter()
                .fold(header.last_committed, u64::max)
        } else {
            header.last_committed
        };
        self.epoch = header.epoch;
        Ok(Some(self.last_committed))
    }

    /// Reads `buf.len()` bytes at `offset` of `region` from the snapshot.
    ///
    /// # Errors
    ///
    /// Fails on unknown regions or bounds violations.
    pub fn read(&self, region: RegionId, offset: usize, buf: &mut [u8]) -> Result<(), TxnError> {
        let ri = region.as_raw() as usize;
        let data = self
            .regions
            .get(ri)
            .ok_or(TxnError::UnknownRegion(region))?;
        if offset.checked_add(buf.len()).is_none_or(|e| e > data.len()) {
            return Err(TxnError::OutOfBounds {
                region,
                offset,
                len: buf.len(),
                region_len: data.len(),
            });
        }
        buf.copy_from_slice(&data[offset..offset + buf.len()]);
        Ok(())
    }

    /// Length of a region in the snapshot.
    ///
    /// # Errors
    ///
    /// Fails on unknown regions.
    pub fn region_len(&self, region: RegionId) -> Result<usize, TxnError> {
        self.regions
            .get(region.as_raw() as usize)
            .map(Vec::len)
            .ok_or(TxnError::UnknownRegion(region))
    }

    /// A copy of a snapshot region.
    ///
    /// # Errors
    ///
    /// Fails on unknown regions.
    pub fn region_snapshot(&self, region: RegionId) -> Result<Vec<u8>, TxnError> {
        self.regions
            .get(region.as_raw() as usize)
            .cloned()
            .ok_or(TxnError::UnknownRegion(region))
    }

    /// Number of regions in the snapshot.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// Id of the newest committed transaction visible in the snapshot.
    pub fn last_committed(&self) -> u64 {
        self.last_committed
    }

    /// Mirror-set epoch of the snapshot's source mirror (0 for
    /// pre-epoch images).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Perseas, PerseasConfig};
    use perseas_rnram::SimRemote;
    use perseas_sci::{NodeMemory, SciParams};
    use perseas_simtime::SimClock;

    fn reopen(node: &NodeMemory) -> SimRemote {
        SimRemote::with_parts(SimClock::new(), node.clone(), SciParams::dolphin_1998())
    }

    fn built() -> (Perseas<SimRemote>, RegionId, NodeMemory) {
        let backend = SimRemote::new("m");
        let node = backend.node().clone();
        let mut db = Perseas::init(vec![backend], PerseasConfig::default()).unwrap();
        let r = db.malloc(64).unwrap();
        db.init_remote_db().unwrap();
        (db, r, node)
    }

    #[test]
    fn replica_sees_committed_data_only() {
        let (mut db, r, node) = built();
        db.transaction(|tx| tx.update(r, 0, &[1; 8])).unwrap();

        // Leave a transaction in flight on the primary.
        db.begin_transaction().unwrap();
        db.set_range(r, 8, 8).unwrap();
        db.write(r, 8, &[2; 8]).unwrap();

        let replica = ReadReplica::attach(reopen(&node), PerseasConfig::default()).unwrap();
        assert_eq!(replica.last_committed(), 1);
        let snap = replica.region_snapshot(r).unwrap();
        assert_eq!(&snap[..8], &[1; 8], "committed data visible");
        assert_eq!(&snap[8..16], &[0; 8], "in-flight data invisible");

        // The primary is undisturbed: it can still commit the open txn.
        db.commit_transaction().unwrap();
        assert_eq!(db.last_committed(), 2);
    }

    #[test]
    fn refresh_tracks_new_commits() {
        let (mut db, r, node) = built();
        db.transaction(|tx| tx.update(r, 0, &[3; 4])).unwrap();
        let mut replica = ReadReplica::attach(reopen(&node), PerseasConfig::default()).unwrap();
        assert_eq!(replica.last_committed(), 1);

        db.transaction(|tx| tx.update(r, 4, &[4; 4])).unwrap();
        assert_eq!(replica.refresh().unwrap(), 2);
        let snap = replica.region_snapshot(r).unwrap();
        assert_eq!(&snap[4..8], &[4; 4]);
    }

    #[test]
    fn replica_reads_and_bounds() {
        let (mut db, r, node) = built();
        db.transaction(|tx| tx.update(r, 0, &[9; 8])).unwrap();
        let replica = ReadReplica::attach(reopen(&node), PerseasConfig::default()).unwrap();
        let mut buf = [0u8; 4];
        replica.read(r, 2, &mut buf).unwrap();
        assert_eq!(buf, [9; 4]);
        assert_eq!(replica.region_len(r).unwrap(), 64);
        assert_eq!(replica.region_count(), 1);
        let mut big = [0u8; 128];
        assert!(matches!(
            replica.read(r, 0, &mut big),
            Err(TxnError::OutOfBounds { .. })
        ));
        assert!(matches!(
            replica.read(RegionId::from_raw(9), 0, &mut buf),
            Err(TxnError::UnknownRegion(_))
        ));
    }

    #[test]
    fn replica_over_tcp() {
        use perseas_rnram::{server::Server, TcpRemote};
        let server = Server::bind("replica-node", "127.0.0.1:0").unwrap().start();
        let mut db = Perseas::init(
            vec![TcpRemote::connect(server.addr()).unwrap()],
            PerseasConfig::default(),
        )
        .unwrap();
        let r = db.malloc(32).unwrap();
        db.init_remote_db().unwrap();
        db.transaction(|tx| tx.update(r, 0, &[7; 8])).unwrap();

        let replica = ReadReplica::attach(
            TcpRemote::connect(server.addr()).unwrap(),
            PerseasConfig::default(),
        )
        .unwrap();
        assert_eq!(&replica.region_snapshot(r).unwrap()[..8], &[7; 8]);
        server.shutdown();
    }

    #[test]
    fn attach_refuses_redo_mirrors() {
        let backend = SimRemote::new("redo-m");
        let node = backend.node().clone();
        let mut db = Perseas::init(vec![backend], PerseasConfig::default().with_redo(true)).unwrap();
        let r = db.malloc(32).unwrap();
        db.init_remote_db().unwrap();
        db.transaction(|tx| tx.update(r, 0, &[5; 8])).unwrap();

        let err = ReadReplica::attach(reopen(&node), PerseasConfig::default()).unwrap_err();
        assert!(
            matches!(&err, TxnError::Unavailable(m) if m.contains("redo commit path")),
            "got {err:?}"
        );
    }

    #[test]
    fn attach_fails_cleanly_on_blank_mirror() {
        let node = NodeMemory::new("blank");
        assert!(matches!(
            ReadReplica::attach(reopen(&node), PerseasConfig::default()),
            Err(TxnError::Unavailable(_))
        ));
    }
}
