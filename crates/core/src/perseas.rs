//! The PERSEAS transaction library.

use std::fmt;

use perseas_rnram::{mirror_copy, plan_transfer, RemoteMemory, RemoteSegment, RnError, SegmentId};
use perseas_simtime::SimClock;
use perseas_txn::{RegionId, SnapshotToken, TxnError, TxnStats};

use crate::conc::ConcState;
use crate::config::PerseasConfig;
use crate::fault::FaultPlan;
use crate::layout::{
    commit_table_offset, encode_region_entry, meta_segment_size, meta_segment_size_concurrent,
    undo_newest_first, undo_records, MetaHeader, UndoRecord, FLAG_CONCURRENT, OFF_COMMIT,
    OFF_EPOCH, OFF_REGION_TABLE, OFF_UNDO, REGION_ENTRY_SIZE, UNDO_HEADER_SIZE,
};
use crate::metrics::CoreMetrics;
use crate::mvcc::MvccState;
use crate::trace::{TraceEvent, Tracer};

/// Per-mirror vectored write batch: each entry pairs a mirror index with
/// the `(segment, offset, bytes)` ranges destined for that mirror.
pub(crate) type MirrorBatches = Vec<(usize, Batch)>;

/// One mirror's vectored write: `(segment, offset, bytes)` per range, in
/// the order they apply.
pub(crate) type Batch = Vec<(SegmentId, usize, Vec<u8>)>;

/// One committed transaction as [`Perseas::finish_commits`] takes it: its
/// id, its encoded undo records, and its declared ranges, coalesced.
pub(crate) type Member<'a> = (u64, &'a [u8], &'a [(usize, usize, usize)]);

/// The local state a [`Perseas::fan_out`] step may read while it holds
/// one mirror mutably.
pub(crate) struct Local<'a> {
    pub(crate) regions: &'a [Vec<u8>],
    pub(crate) undo_shadow: &'a [u8],
    pub(crate) cfg: &'a PerseasConfig,
}

/// Health of one mirror in the set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MirrorHealth {
    /// Serving: every protocol write reaches this mirror.
    Healthy,
    /// A reconnect probe got a real answer from a `Down` mirror — the
    /// node is reachable again but its image is stale; it must be
    /// resynced with [`Perseas::rejoin_mirror`] before it serves.
    Suspect,
    /// A transport-level failure condemned this mirror; it receives no
    /// writes and its (stale-epoch) image is fenced out of recovery.
    Down,
}

/// One row of [`Perseas::mirror_status`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MirrorStatus {
    /// Position in the mirror set.
    pub index: usize,
    /// The backend's node name.
    pub node: String,
    /// Current health.
    pub health: MirrorHealth,
    /// Reconnect probes attempted since the mirror went `Down`.
    pub probes: u32,
}

/// Lifecycle of an instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Regions may be allocated and initialised; nothing is durable yet.
    Setup,
    /// Mirrored and idle; transactions may start.
    Ready,
    /// A transaction is open.
    InTxn,
    /// Killed by fault injection; only the mirrors survive.
    Crashed,
}

/// Per-mirror remote state.
pub(crate) struct MirrorState<M> {
    pub(crate) backend: M,
    pub(crate) meta: RemoteSegment,
    pub(crate) undo: RemoteSegment,
    pub(crate) db: Vec<RemoteSegment>,
    /// Redo-log segments by directory slot (empty unless `cfg.redo`).
    pub(crate) redo: Vec<Option<RemoteSegment>>,
    /// Log position this mirror's db-segment image covers (redo mode):
    /// recovery from this mirror replays `(redo_snap, tail]` only.
    pub(crate) redo_snap: u64,
    pub(crate) health: MirrorHealth,
    /// Reconnect probes attempted while `Down` (paces the backoff).
    pub(crate) probes: u32,
    /// Segments a failed rejoin allocated but could not free (the
    /// transport died under the frees too). Reclaimed by the next rejoin
    /// attempt; never part of a published image.
    pub(crate) orphans: Vec<SegmentId>,
}

impl<M> MirrorState<M> {
    pub(crate) fn new(backend: M, meta: RemoteSegment, undo: RemoteSegment) -> Self {
        MirrorState {
            backend,
            meta,
            undo,
            db: Vec::new(),
            redo: Vec::new(),
            redo_snap: 0,
            health: MirrorHealth::Healthy,
            probes: 0,
            orphans: Vec::new(),
        }
    }

    pub(crate) fn is_healthy(&self) -> bool {
        self.health == MirrorHealth::Healthy
    }
}

/// State of the open transaction. Its undo records are always
/// `undo_shadow[..undo_off]`: `begin_transaction` empties that prefix and
/// `set_ranges` appends to it.
pub(crate) struct ActiveTxn {
    pub(crate) id: u64,
    /// Declared writable ranges: `(region index, start, len)`.
    pub(crate) declared: Vec<(usize, usize, usize)>,
    /// `true` once a commit attempt has started pushing data ranges to
    /// the mirrors: an abort after a failed commit must then restore the
    /// mirrored images too, not just the local one.
    pub(crate) mirrors_dirty: bool,
}

/// The PERSEAS recoverable main-memory database.
///
/// Generic over the reliable-network-RAM backend `M`: use
/// [`perseas_rnram::SimRemote`] to reproduce the paper's virtual-time
/// experiments and [`perseas_rnram::TcpRemote`] for a real two-process
/// deployment. See the [crate docs](crate) for the full protocol.
pub struct Perseas<M: RemoteMemory> {
    pub(crate) cfg: PerseasConfig,
    pub(crate) clock: SimClock,
    pub(crate) mirrors: Vec<MirrorState<M>>,
    /// Local images of the database regions.
    pub(crate) regions: Vec<Vec<u8>>,
    /// Local undo log — a byte-exact shadow of the mirrored undo segment.
    pub(crate) undo_shadow: Vec<u8>,
    pub(crate) undo_off: usize,
    pub(crate) phase: Phase,
    pub(crate) txn: Option<ActiveTxn>,
    /// Mirror-set epoch: bumped on every membership change and written
    /// to every healthy mirror before the change takes effect.
    pub(crate) epoch: u64,
    pub(crate) last_committed: u64,
    pub(crate) next_txn_id: u64,
    pub(crate) stats: TxnStats,
    pub(crate) fault: FaultPlan,
    pub(crate) tracer: Option<Box<dyn Tracer>>,
    pub(crate) metrics: Option<CoreMetrics>,
    /// State of the concurrent engine (unused unless `cfg.concurrent`).
    pub(crate) conc: ConcState,
    /// The version store behind snapshot reads (empty unless `cfg.mvcc`).
    pub(crate) mvcc: MvccState,
    /// State of the segmented redo log (unused unless `cfg.redo`).
    pub(crate) redo: crate::redo::RedoState,
}

impl<M: RemoteMemory> Perseas<M> {
    /// `PERSEAS_init`: creates an instance mirroring into `mirrors`,
    /// allocating the remote metadata and undo segments on each.
    ///
    /// A fresh virtual clock is created; use [`Perseas::init_with_clock`]
    /// to share a clock with simulated mirrors (required for meaningful
    /// virtual-time measurements).
    ///
    /// # Errors
    ///
    /// Fails if `mirrors` is empty or a mirror cannot allocate segments.
    pub fn init(mirrors: Vec<M>, cfg: PerseasConfig) -> Result<Self, TxnError> {
        Perseas::init_with_clock(mirrors, cfg, SimClock::new())
    }

    /// Like [`Perseas::init`] but charging local-copy costs to `clock`.
    ///
    /// # Errors
    ///
    /// Fails if `mirrors` is empty or a mirror cannot allocate segments.
    pub fn init_with_clock(
        mirrors: Vec<M>,
        cfg: PerseasConfig,
        clock: SimClock,
    ) -> Result<Self, TxnError> {
        if mirrors.is_empty() {
            return Err(TxnError::Unavailable(
                "at least one mirror node is required".into(),
            ));
        }
        let meta_size = Perseas::<M>::meta_len_for(&cfg);
        let mut states = Vec::with_capacity(mirrors.len());
        for mut backend in mirrors {
            let meta = backend
                .remote_malloc(meta_size, cfg.meta_tag)
                .map_err(unavailable)?;
            let undo = backend
                .remote_malloc(cfg.initial_undo_capacity, 0)
                .map_err(unavailable)?;
            states.push(MirrorState::new(backend, meta, undo));
        }
        let mut db = Perseas::assemble(cfg, clock, states, Vec::new(), 1, 0);
        db.phase = Phase::Setup;
        Ok(db)
    }

    /// An idle instance over `mirrors` at `epoch`, holding the local
    /// `regions`, with every id through `last_committed` resolved. Its
    /// undo shadow is empty and as long as the mirrors' undo segments,
    /// and its version store is fresh: snapshots opened before a crash
    /// fail typed on a recovered instance.
    pub(crate) fn assemble(
        cfg: PerseasConfig,
        clock: SimClock,
        mirrors: Vec<MirrorState<M>>,
        regions: Vec<Vec<u8>>,
        epoch: u64,
        last_committed: u64,
    ) -> Self {
        Perseas {
            cfg,
            clock,
            undo_shadow: vec![0; mirrors[0].undo.len],
            mirrors,
            regions,
            undo_off: 0,
            phase: Phase::Ready,
            txn: None,
            epoch,
            last_committed,
            next_txn_id: last_committed + 1,
            stats: TxnStats::new(),
            fault: FaultPlan::none(),
            tracer: None,
            metrics: None,
            conc: ConcState::new(cfg.commit_slots),
            mvcc: MvccState::new(cfg.version_bytes, cfg.version_entries),
            redo: crate::redo::RedoState::new(cfg.redo_segments),
        }
    }

    /// Size of the metadata segment under `cfg`: the legacy layout plus,
    /// for the concurrent engine, the trailing commit table, plus, in
    /// redo mode, the redo-log directory nested before the tables.
    pub(crate) fn meta_len_for(cfg: &PerseasConfig) -> usize {
        let base = if cfg.shard_count > 0 {
            crate::layout::meta_segment_size_sharded(
                cfg.max_regions,
                cfg.commit_slots,
                cfg.intent_slots,
                cfg.decision_slots,
            )
        } else if cfg.concurrent {
            meta_segment_size_concurrent(cfg.max_regions, cfg.commit_slots)
        } else {
            meta_segment_size(cfg.max_regions)
        };
        if cfg.redo {
            base + crate::layout::redo_dir_size(cfg.redo_segments)
        } else {
            base
        }
    }

    /// `PERSEAS_malloc`: allocates a zero-filled database region of `len`
    /// bytes locally *and* its mirror segment on every remote node.
    ///
    /// Only legal before [`Perseas::init_remote_db`].
    ///
    /// # Errors
    ///
    /// Fails after publication, past `max_regions`, or if a mirror is out
    /// of memory.
    pub fn malloc(&mut self, len: usize) -> Result<RegionId, TxnError> {
        self.ensure_phase(Phase::Setup)?;
        if self.regions.len() >= self.cfg.max_regions {
            return Err(TxnError::Unavailable(format!(
                "region table full ({} regions)",
                self.cfg.max_regions
            )));
        }
        for m in &mut self.mirrors {
            let seg = m.backend.remote_malloc(len, 0).map_err(unavailable)?;
            m.db.push(seg);
        }
        self.regions.push(vec![0; len]);
        Ok(RegionId::from_raw(self.regions.len() as u32 - 1))
    }

    /// `PERSEAS_init_remote_db`: copies every region to every mirror and
    /// publishes the metadata (region table + undo indirection + commit
    /// record 0). After this the database is fully mirrored and
    /// transactions may start.
    ///
    /// # Errors
    ///
    /// Fails if called twice, inside a transaction, or if a mirror is
    /// unreachable.
    pub fn init_remote_db(&mut self) -> Result<(), TxnError> {
        self.ensure_phase(Phase::Setup)?;
        let meta_image = self.build_meta_image();
        for (mi, image) in meta_image.iter().enumerate() {
            for ri in 0..self.regions.len() {
                let m = &mut self.mirrors[mi];
                let seg = m.db[ri];
                if !self.regions[ri].is_empty() {
                    push_range(
                        &mut m.backend,
                        seg,
                        &self.regions[ri],
                        0,
                        self.regions[ri].len(),
                        self.cfg.aligned_memcpy,
                    )
                    .map_err(unavailable)?;
                    self.stats.add_remote_write(self.regions[ri].len());
                }
            }
            let m = &mut self.mirrors[mi];
            m.backend
                .remote_write(m.meta.id, 0, image)
                // Everything streamed to this mirror — regions and the
                // metadata image — must be confirmed before the database
                // is published as mirrored.
                .and_then(|()| m.backend.flush().map(|_| ()))
                .map_err(unavailable)?;
            self.stats.add_remote_write(image.len());
        }
        self.phase = Phase::Ready;
        Ok(())
    }

    /// `PERSEAS_begin_transaction`.
    ///
    /// # Errors
    ///
    /// Fails inside a transaction, before publication, after a crash, or
    /// `Unavailable` while fewer than `commit_quorum` mirrors are
    /// healthy: a set that degraded below quorum keeps refusing new
    /// transactions until mirrors rejoin, not just the operation that
    /// watched a mirror die.
    pub fn begin_transaction(&mut self) -> Result<(), TxnError> {
        if self.cfg.concurrent {
            // Legacy facade over the concurrent engine: one implicit token.
            if self.conc.legacy_token.is_some() {
                return Err(TxnError::TransactionAlreadyActive);
            }
            let token = self.begin_concurrent()?;
            self.conc.legacy_token = Some(token.id());
            return Ok(());
        }
        if self.phase == Phase::InTxn {
            return Err(TxnError::TransactionAlreadyActive);
        }
        self.ensure_phase(Phase::Ready)?;
        self.check_commit_quorum()?;
        self.txn = Some(ActiveTxn {
            id: self.next_txn_id,
            declared: Vec::new(),
            mirrors_dirty: false,
        });
        self.next_txn_id += 1;
        self.undo_off = 0;
        self.phase = Phase::InTxn;
        self.emit(TraceEvent::TxnBegin {
            id: self.next_txn_id - 1,
        });
        Ok(())
    }

    /// `PERSEAS_set_range`: declares that the open transaction may modify
    /// `[offset, offset+len)` of `region`. The before-image is copied to
    /// the local undo log and appended (one remote write per mirror) to
    /// the mirrored undo log.
    ///
    /// # Errors
    ///
    /// Fails outside a transaction, on bad regions/bounds, or if a mirror
    /// is unreachable.
    pub fn set_range(
        &mut self,
        region: RegionId,
        offset: usize,
        len: usize,
    ) -> Result<(), TxnError> {
        self.set_ranges(&[(region, offset, len)])
    }

    /// Declares several ranges in one protocol step: all before-images
    /// are appended to the undo log as consecutive records and pushed
    /// with a **single** remote write per mirror, instead of one write
    /// per range. Semantically identical to calling
    /// [`Perseas::set_range`] for each element; measurably cheaper for
    /// multi-range transactions like debit-credit (see the
    /// `ablation-batch` experiment).
    ///
    /// # Errors
    ///
    /// Fails like [`Perseas::set_range`]; on error, no range of the batch
    /// is declared.
    pub fn set_ranges(&mut self, ranges: &[(RegionId, usize, usize)]) -> Result<(), TxnError> {
        if self.cfg.concurrent {
            let t = self.legacy_conc_token()?;
            return self.set_ranges_t(t, ranges);
        }
        self.ensure_phase(Phase::InTxn)?;
        // Validate everything first: all-or-nothing declaration. Each
        // pass below walks `ranges` again rather than collecting them, so
        // the common single-range call never allocates.
        let mut total = 0;
        for &(region, offset, len) in ranges {
            self.check_region_range(region, offset, len)?;
            total += if len > 0 { UNDO_HEADER_SIZE + len } else { 0 };
        }
        if total == 0 {
            return Ok(());
        }
        let txn_id = self.txn.as_ref().expect("in txn").id;
        if self.undo_off + total > self.undo_shadow.len() {
            self.grow_undo(self.undo_off + total)?;
        }
        let declared = || {
            ranges
                .iter()
                .filter(|&&(_, _, len)| len > 0)
                .map(move |&(region, offset, len)| UndoRecord {
                    txn_id,
                    region: region.as_raw(),
                    offset: offset as u64,
                    len: len as u64,
                })
        };

        // Copy the before-images into the local undo log, back to back
        // (copy 1 of the paper's Figure 3).
        let start = self.undo_off;
        let mut at = start;
        for rec in declared() {
            let (ri, offset) = (rec.region as usize, rec.offset as usize);
            let payload = &self.regions[ri][offset..offset + rec.len as usize];
            rec.encode_into(&mut self.undo_shadow, at, payload);
            self.cfg
                .mem_cost
                .charge_memcpy(&self.clock, rec.encoded_len());
            self.stats.add_local_copy(payload.len());
            at += rec.encoded_len();
        }

        // Push them to the mirrored undo log as one remote write per
        // mirror (copy 2). On the batched path this push is deferred:
        // commit sends the whole undo prefix as one vectored write per
        // mirror, which is safe because the mirror's undo log is only
        // consulted by recovery after the data-propagation phase has
        // begun. In redo mode the mirrors never see undo bytes at all —
        // that is the point of the design — the before-images stay local
        // for abort and snapshot reads only.
        if !self.cfg.batched_commit && !self.cfg.redo {
            self.fan_out(|_, m, local| {
                push_range(
                    &mut m.backend,
                    m.undo,
                    local.undo_shadow,
                    start,
                    total,
                    local.cfg.aligned_memcpy,
                )
                .map(|()| Some(total))
            })?;
        }

        self.undo_off = at;
        for rec in declared() {
            let (region, offset, len) = (rec.region, rec.offset as usize, rec.len as usize);
            let txn = self.txn.as_mut().expect("in txn");
            txn.declared.push((region as usize, offset, len));
            self.stats.set_ranges += 1;
            self.emit(TraceEvent::SetRange {
                id: txn_id,
                region,
                offset,
                len,
            });
        }
        Ok(())
    }

    /// Writes `data` at `offset` of `region`.
    ///
    /// During setup this initialises the local image. Inside a transaction
    /// the range must be covered by prior [`Perseas::set_range`] calls —
    /// otherwise an abort could not restore it.
    ///
    /// # Errors
    ///
    /// Fails on bounds violations, undeclared transactional writes, or
    /// when idle after publication.
    pub fn write(&mut self, region: RegionId, offset: usize, data: &[u8]) -> Result<(), TxnError> {
        if self.cfg.concurrent && self.phase != Phase::Setup {
            let t = self.legacy_conc_token()?;
            return self.write_t(t, region, offset, data);
        }
        let ri = self.check_region_range(region, offset, data.len())?;
        match self.phase {
            Phase::Setup => {}
            Phase::InTxn => {
                let txn = self.txn.as_ref().expect("in txn");
                if let Some(bad) = first_uncovered(&txn.declared, ri, offset, data.len()) {
                    return Err(TxnError::RangeNotDeclared {
                        region,
                        offset: bad,
                    });
                }
            }
            Phase::Ready => return Err(TxnError::NoActiveTransaction),
            Phase::Crashed => return Err(TxnError::Crashed),
        }
        self.regions[ri][offset..offset + data.len()].copy_from_slice(data);
        self.cfg.mem_cost.charge_memcpy(&self.clock, data.len());
        Ok(())
    }

    /// Reads `buf.len()` bytes at `offset` of `region` from the local
    /// image.
    ///
    /// # Errors
    ///
    /// Fails on unknown regions, bounds violations, or after a crash.
    pub fn read(&self, region: RegionId, offset: usize, buf: &mut [u8]) -> Result<(), TxnError> {
        if self.phase == Phase::Crashed {
            return Err(TxnError::Crashed);
        }
        let ri = self.check_region_range(region, offset, buf.len())?;
        buf.copy_from_slice(&self.regions[ri][offset..offset + buf.len()]);
        self.cfg.mem_cost.charge_memcpy(&self.clock, buf.len());
        Ok(())
    }

    /// Opens a read snapshot pinned at the current commit watermark.
    /// Snapshot reads ([`Perseas::read_s`]) resolve against the version
    /// store at that watermark, take no conflict-table claims, and can
    /// never fail with [`TxnError::Conflict`] or
    /// [`TxnError::SnapshotContention`]. Close with
    /// [`Perseas::end_snapshot`] so the store can evict past the pin.
    ///
    /// # Errors
    ///
    /// Fails after a crash, or with [`TxnError::Unavailable`] when the
    /// version store is disabled (see [`PerseasConfig::with_mvcc`]).
    pub fn begin_snapshot(&mut self) -> Result<SnapshotToken, TxnError> {
        if self.phase == Phase::Crashed {
            return Err(TxnError::Crashed);
        }
        if !self.cfg.mvcc {
            return Err(TxnError::Unavailable(
                "MVCC version store is disabled; enable with PerseasConfig::with_mvcc".into(),
            ));
        }
        let token = self.mvcc.begin();
        self.emit(TraceEvent::SnapshotBegin {
            id: token.id(),
            read_seq: token.read_seq(),
            open: self.mvcc.open_count(),
        });
        Ok(token)
    }

    /// Reads `buf.len()` bytes at `offset` of `region` as of the
    /// snapshot's pinned commit watermark: the live bytes are copied,
    /// uncommitted writes of open transactions are masked with their
    /// logged before-images, and commits newer than the pin are unwound
    /// from the version store.
    ///
    /// # Errors
    ///
    /// Fails on unknown regions, bounds violations, after a crash, and
    /// with [`TxnError::SnapshotTooOld`] when the snapshot's versions
    /// were evicted. Never blocks on or conflicts with writers.
    pub fn read_s(
        &self,
        snap: SnapshotToken,
        region: RegionId,
        offset: usize,
        buf: &mut [u8],
    ) -> Result<(), TxnError> {
        if self.phase == Phase::Crashed {
            return Err(TxnError::Crashed);
        }
        let read_seq = match self.mvcc.validate(snap) {
            Ok(seq) => seq,
            Err(e) => {
                if let TxnError::SnapshotTooOld {
                    read_seq,
                    floor_seq,
                } = e
                {
                    self.observe_metrics(&TraceEvent::SnapshotTooOld {
                        id: snap.id(),
                        read_seq,
                        floor_seq,
                    });
                }
                return Err(e);
            }
        };
        let ri = self.check_region_range(region, offset, buf.len())?;
        buf.copy_from_slice(&self.regions[ri][offset..offset + buf.len()]);
        // Mask uncommitted writes: open transactions modify the local
        // image in place, so their logged before-images are overlaid to
        // recover the committed-current bytes first.
        self.overlay_open_txns(ri, offset, buf);
        // Then unwind every commit newer than the snapshot's pin.
        self.mvcc.overlay(read_seq, ri, offset, buf);
        self.cfg.mem_cost.charge_memcpy(&self.clock, buf.len());
        Ok(())
    }

    /// [`Perseas::read_s`] into a freshly allocated buffer.
    ///
    /// # Errors
    ///
    /// As [`Perseas::read_s`].
    pub fn read_range_s(
        &self,
        snap: SnapshotToken,
        region: RegionId,
        offset: usize,
        len: usize,
    ) -> Result<Vec<u8>, TxnError> {
        let mut buf = vec![0u8; len];
        self.read_s(snap, region, offset, &mut buf)?;
        Ok(buf)
    }

    /// Closes a snapshot so the version store can evict past its pin.
    /// Closing an unknown or already-closed token is a no-op.
    pub fn end_snapshot(&mut self, snap: SnapshotToken) {
        let evicted = self.mvcc.end(snap);
        let open = self.mvcc.open_count();
        self.emit(TraceEvent::SnapshotEnd {
            id: snap.id(),
            open,
        });
        self.emit_eviction(evicted);
    }

    /// Number of snapshots currently open.
    pub fn open_snapshot_count(&self) -> usize {
        self.mvcc.open_count()
    }

    /// Bytes currently retained by the version store.
    pub fn version_store_bytes(&self) -> usize {
        self.mvcc.version_bytes()
    }

    /// Retains a committed transaction's before-images, its undo records
    /// `undo`, in the version store and emits the capture/eviction
    /// telemetry. Charges nothing to the virtual clock, so enabling MVCC
    /// never perturbs sim-mode measurements.
    fn capture_version(&mut self, txn_id: u64, undo: &[u8]) {
        let records = undo_records(undo, 0, undo.len())
            .map(|(rec, payload)| {
                (
                    rec.region as usize,
                    rec.offset as usize,
                    undo[payload].to_vec(),
                )
            })
            .collect();
        let (seq, evicted) = self.mvcc.capture(records);
        self.emit(TraceEvent::VersionCaptured {
            seq,
            txn: txn_id,
            bytes: self.mvcc.version_bytes(),
            versions: self.mvcc.version_count(),
        });
        self.emit_eviction(evicted);
    }

    pub(crate) fn emit_eviction(&mut self, evicted: crate::mvcc::Evicted) {
        if evicted.versions > 0 {
            self.emit(TraceEvent::VersionEvicted {
                versions: evicted.versions,
                bytes: evicted.bytes,
                floor_seq: self.mvcc.floor(),
                store_bytes: self.mvcc.version_bytes(),
            });
        }
    }

    /// Overlays onto `buf` (live bytes of region `ri` from `offset`) the
    /// logged before-images of every open transaction — legacy or
    /// concurrent — masking their uncommitted in-place writes. Claims of
    /// distinct open transactions never overlap; within one transaction
    /// records apply in reverse log order, matching the abort path.
    fn overlay_open_txns(&self, ri: usize, offset: usize, buf: &mut [u8]) {
        let legacy = self
            .txn
            .as_ref()
            .map(|_| &self.undo_shadow[..self.undo_off]);
        let open = self.conc.txns.values().map(|txn| txn.undo.as_slice());
        for undo in legacy.into_iter().chain(open) {
            for (rec, payload) in undo_newest_first(undo) {
                if rec.region as usize == ri {
                    overlay_bytes(buf, offset, rec.offset as usize, &undo[payload]);
                }
            }
        }
    }

    /// The tail every commit shares once its durability point has passed.
    /// Each member, `(id, undo records, coalesced ranges)`, has its
    /// before-images kept as a version and its `TxnCommitted` emitted;
    /// then comes the `group` event of a group commit, then
    /// `DegradedCommit` if a mirror is missing.
    pub(crate) fn finish_commits(&mut self, members: &[Member<'_>], group: Option<TraceEvent>) {
        for &(id, undo, ranges) in members {
            if self.cfg.mvcc && !undo.is_empty() {
                self.capture_version(id, undo);
            }
            self.emit(TraceEvent::TxnCommitted {
                id,
                ranges: ranges.len(),
                bytes: ranges.iter().map(|&(_, _, l)| l).sum(),
            });
        }
        self.stats.commits += members.len() as u64;
        if let Some(event) = group {
            self.stats.group_commits += 1;
            self.emit(event);
        }
        let (healthy, total) = (self.healthy_mirror_count(), self.mirrors.len());
        if healthy < total {
            let (id, _, _) = *members.last().expect("a commit has members");
            self.emit(TraceEvent::DegradedCommit {
                id,
                healthy,
                mirrors: total,
            });
        }
    }

    /// Local rollback of transaction `id` from its undo records `undo`:
    /// every before-image is copied back, newest first, and charged as a
    /// local copy; then the abort is counted and traced.
    pub(crate) fn roll_back(&mut self, id: u64, undo: &[u8]) {
        for (rec, payload) in undo_newest_first(undo) {
            let (ri, at) = (rec.region as usize, rec.offset as usize);
            self.regions[ri][at..at + payload.len()].copy_from_slice(&undo[payload.clone()]);
            self.cfg.mem_cost.charge_memcpy(&self.clock, payload.len());
            self.stats.add_local_copy(payload.len());
        }
        self.stats.aborts += 1;
        self.emit(TraceEvent::TxnAborted { id });
    }

    /// Runs `f` with the open transaction's undo records, lent out of
    /// the undo shadow so that `f` may change the rest of the instance.
    fn with_txn_records<R>(&mut self, f: impl FnOnce(&mut Self, &[u8]) -> R) -> R {
        let shadow = std::mem::take(&mut self.undo_shadow);
        let r = f(self, &shadow[..self.undo_off]);
        self.undo_shadow = shadow;
        r
    }

    /// Forwards an event to the metrics sink only (used on `&self` read
    /// paths where the tracer, which needs `&mut`, cannot run).
    pub(crate) fn observe_metrics(&self, event: &TraceEvent) {
        if let Some(m) = self.metrics.as_ref() {
            m.observe(event);
        }
    }

    /// `PERSEAS_commit_transaction`: copies every declared range to the
    /// mirrored database (copy 3 of Figure 3) and publishes the
    /// packet-atomic commit record. No disk, no fsync.
    ///
    /// # Errors
    ///
    /// Fails outside a transaction, or `Unavailable` when fewer than
    /// `commit_quorum` mirrors are healthy — checked before any remote
    /// work, so a set already degraded below quorum refuses every
    /// commit, not only the one that watched a mirror die. An error
    /// raised *before* the durability point leaves the transaction open
    /// and not durable anywhere: the caller may [`abort_transaction`]
    /// (which also restores any mirror bytes the failed attempt
    /// propagated) or retry the commit. A quorum failure *at* the
    /// durability point is reported as [`TxnError::CommitInDoubt`]: the
    /// record already reached every surviving mirror, so the
    /// transaction is completed locally and must not be retried.
    ///
    /// [`abort_transaction`]: Perseas::abort_transaction
    pub fn commit_transaction(&mut self) -> Result<(), TxnError> {
        if self.cfg.concurrent {
            let t = self.legacy_conc_token()?;
            self.conc.legacy_token = None;
            let r = self.commit_group(&[t]);
            if self.conc.txns.contains_key(&t.id()) {
                // Pre-durability failure left the transaction open: keep
                // the legacy slot bound so the caller can abort or retry.
                self.conc.legacy_token = Some(t.id());
            }
            return r;
        }
        self.ensure_phase(Phase::InTxn)?;
        self.check_commit_quorum()?;
        // Commit-latency timing exists only with metrics installed: the
        // virtual clock is read, never advanced, and the wall clock is
        // not consulted at all on the metrics-off path.
        let timer = self
            .metrics
            .as_ref()
            .map(|_| (self.clock.now(), std::time::Instant::now()));
        let mut txn = self.txn.take().expect("in txn");
        let ranges = coalesce(&txn.declared);

        let result = if ranges.is_empty() {
            Ok(())
        } else if self.cfg.redo {
            self.commit_redo(&mut txn, &ranges)
        } else if self.cfg.batched_commit {
            self.commit_batched(&mut txn, &ranges)
        } else {
            self.commit_unbatched(&mut txn, &ranges)
        };
        if !commit_completes(&result) {
            // Nothing durable was published. Keep the transaction open so
            // the caller can abort or retry instead of wedging the
            // instance; a crash already cleared it.
            if self.phase == Phase::InTxn {
                self.txn = Some(txn);
            }
            return result;
        }
        if !ranges.is_empty() {
            self.last_committed = txn.id;
        }
        self.with_txn_records(|s, undo| s.finish_commits(&[(txn.id, undo, &ranges)], None));
        self.phase = Phase::Ready;
        if let (Some(m), Some((sim0, wall0))) = (self.metrics.as_ref(), timer) {
            m.record_commit(self.clock.now().duration_since(sim0), wall0.elapsed());
        }
        result
    }

    /// The paper's per-range commit path: propagate every coalesced
    /// range to every healthy mirror, then publish the commit record.
    fn commit_unbatched(
        &mut self,
        txn: &mut ActiveTxn,
        ranges: &[(usize, usize, usize)],
    ) -> Result<(), TxnError> {
        // Propagate coalesced modified ranges to every healthy mirror; a
        // mirror failing mid-propagation is fenced and the commit
        // continues degraded.
        txn.mirrors_dirty = true;
        for &(ri, start, len) in ranges {
            self.fan_out(|_, m, local| {
                push_range(
                    &mut m.backend,
                    m.db[ri],
                    &local.regions[ri],
                    start,
                    len,
                    local.cfg.aligned_memcpy,
                )
                .map(|()| Some(len))
            })?;
        }
        // Ack barrier: every posted undo and data write must be confirmed
        // before the commit record can be published — per-connection FIFO
        // already guarantees the mirror *applies* them first, but the
        // record must not claim durability for writes the mirror never
        // received.
        self.flush_mirrors()?;
        // Durability point: one 8-byte, packet-atomic remote write per
        // healthy mirror, in turn, under the refusal rule of
        // `confirm_record`. The loop never stops early, so afterwards every
        // mirror still `Healthy` carries the record. A mirror failing here
        // is fenced: the survivors get the new epoch before the commit is
        // reported durable, so the failed mirror (which may lack the
        // record) can never outrank them in recovery.
        let id = txn.id;
        self.confirm_record(id, |s, refused| {
            s.fan_out_unfenced(|mi, m, _| {
                let written = m
                    .backend
                    .remote_write(m.meta.id, OFF_COMMIT, &id.to_le_bytes());
                refusal(mi, written.map(|()| Some(8)), Some(refused))
            })
        })
    }

    /// `PERSEAS_abort_transaction`: restores every declared range from the
    /// **local** undo log. As the paper notes, this is just local memory
    /// copies — the mirrored undo log is simply superseded by the next
    /// transaction.
    ///
    /// The one exception is an abort after a *failed commit*: the failed
    /// attempt may already have pushed data ranges to the surviving
    /// mirrors, so the restored before-images are pushed back to every
    /// healthy mirror too — otherwise the next successful commit would
    /// bake the aborted bytes into the mirrors as committed state.
    ///
    /// # Errors
    ///
    /// Fails outside a transaction, or on the post-failed-commit path if
    /// the mirror restoration itself drops the set below quorum. The
    /// local abort has completed by then (the instance stays usable).
    pub fn abort_transaction(&mut self) -> Result<(), TxnError> {
        if self.cfg.concurrent {
            let t = self.legacy_conc_token()?;
            self.conc.legacy_token = None;
            return self.abort_t(t);
        }
        self.ensure_phase(Phase::InTxn)?;
        let txn = self.txn.take().expect("in txn");
        self.with_txn_records(|s, undo| s.roll_back(txn.id, undo));
        self.phase = Phase::Ready;
        self.clean_up_mirrors(txn.id, &txn.declared, txn.mirrors_dirty, None)
    }

    /// Removes from the mirrors what a failed commit of transaction `id`
    /// left there, once its local rollback is done. `dirty` says the
    /// attempt began to ship its data: in redo mode an abort tombstone is
    /// published, so replay treats the logged after-images as dead even
    /// once the watermark passes the id; otherwise the `declared` ranges
    /// are restored. `staged` is the undo-arena extent whose records
    /// reached the mirrors: they are tombstoned after the restore, since
    /// until then they let recovery undo whatever the attempt propagated.
    pub(crate) fn clean_up_mirrors(
        &mut self,
        id: u64,
        declared: &[(usize, usize, usize)],
        dirty: bool,
        staged: Option<(usize, usize)>,
    ) -> Result<(), TxnError> {
        if self.cfg.redo {
            return if dirty {
                self.redo_abort_mark(id)
            } else {
                Ok(())
            };
        }
        if dirty {
            self.restore_mirror_ranges(&coalesce(declared))?;
        }
        match staged {
            Some((start, len)) => self.tombstone_extent(start, len),
            None => Ok(()),
        }
    }

    /// Pushes the (already locally restored) images of `ranges` back to
    /// every healthy mirror, undoing the data propagation of a failed
    /// commit. A mirror failing the restore is fenced like any other
    /// write failure — its polluted image then carries a stale epoch.
    pub(crate) fn restore_mirror_ranges(
        &mut self,
        ranges: &[(usize, usize, usize)],
    ) -> Result<(), TxnError> {
        // Never widen under the concurrent engine: the bytes around a
        // restored range may belong to another open transaction and must
        // not reach the mirror.
        let aligned = self.cfg.aligned_memcpy && !self.cfg.concurrent;
        let mut failed = false;
        for &(ri, start, len) in ranges {
            failed |= self.fan_out_unfenced(|_, m, local| {
                push_range(
                    &mut m.backend,
                    m.db[ri],
                    &local.regions[ri],
                    start,
                    len,
                    aligned,
                )
                .map(|()| Some(len))
            })?;
        }
        // Fence once, after every range has reached every survivor.
        self.fence_failed(failed)?;
        // The restores must be confirmed before the abort completes:
        // otherwise the next commit could publish its record over a
        // mirror that never applied them.
        self.flush_mirrors()
    }

    /// Simulates a crash of the primary: all local state becomes
    /// unusable; the mirrors keep their memory. Recover with
    /// [`Perseas::recover`].
    pub fn crash(&mut self) {
        self.phase = Phase::Crashed;
        self.regions.clear();
        self.undo_shadow.clear();
        self.txn = None;
        self.conc.clear();
        // The version store is volatile: every open snapshot is forgotten
        // so stale tokens fail typed instead of serving torn bytes.
        self.mvcc.clear();
        self.emit(TraceEvent::Crashed);
    }

    /// Arms crash-point fault injection (see [`FaultPlan`]).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = plan;
    }

    /// Installs a [`Tracer`] receiving a [`TraceEvent`] at each protocol
    /// milestone. Without a tracer the overhead is a single branch per
    /// milestone.
    pub fn set_tracer(&mut self, tracer: Box<dyn Tracer>) {
        self.tracer = Some(tracer);
    }

    /// Installs metrics: every protocol milestone is mirrored into
    /// counters/gauges registered in `registry` and the commit paths
    /// record latency histograms in both time bases (see
    /// `docs/OBSERVABILITY.md` for the metric-name contract). Without
    /// this call the overhead is a single branch per milestone and the
    /// virtual clock is never touched, so sim-mode measurements are
    /// byte-identical with metrics off.
    pub fn set_metrics(&mut self, registry: &perseas_obs::Registry) {
        let m = CoreMetrics::new(registry);
        let health: Vec<bool> = self.mirrors.iter().map(|s| s.is_healthy()).collect();
        m.seed(self.epoch, &health, self.undo_shadow.len());
        self.metrics = Some(m);
    }

    /// Like [`Perseas::set_metrics`], tagging every series with a shard
    /// label (used by [`crate::ShardedPerseas`]; the mirror-health gauge
    /// becomes `perseas_shard_mirror_healthy{shard,mirror}` so mirror
    /// indices from different shards never collide in one registry).
    pub(crate) fn set_metrics_tagged(&mut self, registry: &perseas_obs::Registry, shard: u16) {
        let m = CoreMetrics::new(registry).with_shard(shard);
        let health: Vec<bool> = self.mirrors.iter().map(|s| s.is_healthy()).collect();
        m.seed(self.epoch, &health, self.undo_shadow.len());
        self.metrics = Some(m);
    }

    pub(crate) fn emit(&mut self, event: TraceEvent) {
        if let Some(m) = self.metrics.as_ref() {
            m.observe(&event);
        }
        if let Some(t) = self.tracer.as_mut() {
            t.event(&event);
        }
    }

    /// Protocol steps attempted so far under the current fault plan.
    pub fn steps_taken(&self) -> u64 {
        self.fault.steps_taken()
    }

    /// The virtual clock costs are charged to.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Cumulative operation counters.
    pub fn stats(&self) -> TxnStats {
        self.stats
    }

    /// Number of mirror nodes (healthy or not).
    pub fn mirror_count(&self) -> usize {
        self.mirrors.len()
    }

    /// Number of mirrors currently `Healthy` (receiving every write).
    pub fn healthy_mirror_count(&self) -> usize {
        self.mirrors.iter().filter(|m| m.is_healthy()).count()
    }

    /// The current mirror-set epoch. Bumped on every membership change;
    /// a mirror whose metadata carries an older epoch was fenced out of
    /// the set and must not serve recovery.
    pub fn current_epoch(&self) -> u64 {
        self.epoch
    }

    /// Health and identity of every mirror in the set.
    pub fn mirror_status(&self) -> Vec<MirrorStatus> {
        self.mirrors
            .iter()
            .enumerate()
            .map(|(index, m)| MirrorStatus {
                index,
                node: m.backend.node_name(),
                health: m.health,
                probes: m.probes,
            })
            .collect()
    }

    /// Probes every `Down` mirror once, paced by
    /// [`PerseasConfig::probe_backoff`]: the delay for probe number *n*
    /// grows exponentially (capped, jittered) and is charged to the
    /// backend's virtual clock for simulated mirrors or slept on the
    /// wall clock for TCP. A mirror that gives any real answer — even a
    /// refusal, which proves the node is reachable — is promoted to
    /// `Suspect`; its image is still stale, so it must go through
    /// [`Perseas::rejoin_mirror`] before it serves again.
    ///
    /// Returns the indices of mirrors promoted to `Suspect` by this
    /// pass. Call periodically (e.g. from a reconnect thread) until the
    /// dead mirrors come back or are
    /// [`remove_mirror`](Perseas::remove_mirror)ed.
    pub fn probe_down_mirrors(&mut self) -> Vec<usize> {
        let mut reachable = Vec::new();
        for mi in 0..self.mirrors.len() {
            if self.mirrors[mi].health != MirrorHealth::Down {
                continue;
            }
            let delay = self.cfg.probe_backoff.delay_nanos(self.mirrors[mi].probes);
            let m = &mut self.mirrors[mi];
            if delay > 0 {
                match m.backend.virtual_clock() {
                    Some(clock) => {
                        clock.advance(perseas_simtime::SimDuration::from_nanos(delay));
                    }
                    None => std::thread::sleep(std::time::Duration::from_nanos(delay)),
                }
            }
            let meta_id = m.meta.id;
            match m.backend.segment_info(meta_id) {
                Err(e) if e.is_unavailable() => {
                    m.probes = m.probes.saturating_add(1);
                }
                _ => {
                    m.health = MirrorHealth::Suspect;
                    m.probes = 0;
                    reachable.push(mi);
                }
            }
        }
        reachable
    }

    /// Id of the last durably committed transaction (0 if none).
    pub fn last_committed(&self) -> u64 {
        self.last_committed
    }

    /// `true` while a transaction is open (for the concurrent engine:
    /// while the legacy facade's implicit token is bound; concurrently
    /// open tokens are tracked by [`Perseas::open_txn_count`]).
    pub fn in_transaction(&self) -> bool {
        self.phase == Phase::InTxn || self.conc.legacy_token.is_some()
    }

    /// `true` once the instance has crashed.
    pub fn is_crashed(&self) -> bool {
        self.phase == Phase::Crashed
    }

    /// Length of a region.
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

    /// A copy of a region's current local image (diagnostics and tests).
    ///
    /// # Errors
    ///
    /// Fails on unknown regions or after a crash.
    pub fn region_snapshot(&self, region: RegionId) -> Result<Vec<u8>, TxnError> {
        if self.phase == Phase::Crashed {
            return Err(TxnError::Crashed);
        }
        self.regions
            .get(region.as_raw() as usize)
            .cloned()
            .ok_or(TxnError::UnknownRegion(region))
    }

    /// Adds a fresh mirror node to a running (idle) database: allocates
    /// segments on it, copies every region, and publishes metadata. This
    /// is the paper's availability story — after a mirror loss the
    /// database re-establishes redundancy on any spare workstation.
    ///
    /// # Errors
    ///
    /// Fails inside a transaction, before publication, or if the new
    /// mirror cannot hold the database. The mirror set is then unchanged
    /// and the segments the attempt allocated on the newcomer are freed,
    /// best effort (see [`Perseas::abandon_stream`]): ids whose free also
    /// fails are dropped with the newcomer, as nothing is left to retry
    /// them.
    pub fn add_mirror(&mut self, backend: M) -> Result<(), TxnError> {
        self.ensure_phase(Phase::Ready)?;
        self.ensure_no_open_txns()?;
        // Membership change: the survivors move to a fresh epoch before
        // the newcomer is built, so a half-streamed newcomer can never
        // look like the newest image to a later recovery.
        self.bump_epoch()?;
        // The newcomer joins `Down`, so no other step reaches it before
        // its image is published; the stream allocates its segments.
        let vacant = RemoteSegment {
            id: SegmentId::from_raw(0),
            len: 0,
            tag: 0,
            base_addr: 0,
        };
        let mut newcomer = MirrorState::new(backend, vacant, vacant);
        newcomer.health = MirrorHealth::Down;
        self.mirrors.push(newcomer);
        let index = self.mirrors.len() - 1;
        if let Err(e) = self.stream_image(index, false) {
            self.mirrors.pop();
            return Err(e);
        }
        self.emit(TraceEvent::MirrorAdded { index });
        Ok(())
    }

    /// Resyncs a `Down` or `Suspect` mirror and promotes it back to
    /// `Healthy` at a fresh epoch, restoring full redundancy: the
    /// survivors are fenced forward first, the rejoiner's stale segments
    /// are scrubbed, the current region images, undo capacity, and
    /// metadata are streamed to it, and only then does its metadata
    /// header become valid. Byte-for-byte, the rejoined mirror ends
    /// identical to the survivors.
    ///
    /// Crash-safe at every step: until the final header write the
    /// rejoiner holds no valid metadata magic, so a crash mid-resync
    /// leaves recovery to the surviving mirrors.
    ///
    /// # Errors
    ///
    /// Fails inside a transaction, on bad indices, on already-healthy
    /// mirrors, or if the rejoiner is still unreachable (it stays
    /// `Down`).
    pub fn rejoin_mirror(&mut self, index: usize) -> Result<(), TxnError> {
        self.ensure_phase(Phase::Ready)?;
        self.ensure_no_open_txns()?;
        if index >= self.mirrors.len() {
            return Err(TxnError::Unavailable(format!("no mirror at index {index}")));
        }
        if self.mirrors[index].is_healthy() {
            return Err(TxnError::Unavailable(format!(
                "mirror {index} is healthy; nothing to rejoin"
            )));
        }
        // 1. Fence the rejoin: survivors move to a fresh epoch before the
        //    stale mirror is touched, so whatever half-state a crash
        //    leaves on it is provably old.
        self.bump_epoch()?;

        // 2. Scrub the rejoiner's stale segments. A node that lost its
        //    memory (restart) has nothing under the tag — that's fine.
        self.fault_step()?;
        {
            let m = &mut self.mirrors[index];
            if let Err(e) = Perseas::scrub_mirror(&mut m.backend, &self.cfg) {
                m.health = MirrorHealth::Down;
                return Err(e);
            }
            // Also reclaim segments a previous failed rejoin could not
            // free (its frees raced the transport failure): the scrub
            // cannot see them — no header ever pointed at them — but
            // their ids were recorded. A node that lost its memory
            // reports them unknown, which is fine.
            for id in std::mem::take(&mut m.orphans) {
                let _ = m.backend.remote_free(id);
            }
        }

        // 3. Stream the current image and promote.
        self.stream_image(index, true)?;
        self.emit(TraceEvent::MirrorRejoined {
            index,
            epoch: self.epoch,
        });
        Ok(())
    }

    /// Streams a full image to the unhealthy mirror `index` and promotes
    /// it to `Healthy`: fresh meta and undo segments, every region image,
    /// fresh redo-log segments for the live slots, then the metadata.
    /// With `crash_points` each step is a crash point.
    ///
    /// On any failure after the meta and undo allocation, the segments
    /// allocated so far are freed again (best effort, see
    /// [`Perseas::abandon_stream`]): the header never becomes valid, so a
    /// later scrub could not find them and repeated failures would
    /// otherwise leak the mirror's memory.
    fn stream_image(&mut self, index: usize, crash_points: bool) -> Result<(), TxnError> {
        let step = |s: &mut Self| if crash_points { s.fault_step() } else { Ok(()) };
        let meta_size = Perseas::<M>::meta_len_for(&self.cfg);
        let undo_len = self.undo_shadow.len();
        step(self)?;
        let alloc = {
            let m = &mut self.mirrors[index];
            m.backend
                .remote_malloc(meta_size, self.cfg.meta_tag)
                .and_then(|meta| match m.backend.remote_malloc(undo_len, 0) {
                    Ok(undo) => Ok((meta, undo)),
                    Err(e) => {
                        let _ = m.backend.remote_free(meta.id);
                        Err(e)
                    }
                })
        };
        let (meta, undo) = match alloc {
            Ok(pair) => pair,
            Err(e) => {
                if e.is_unavailable() {
                    self.mirrors[index].health = MirrorHealth::Down;
                }
                return Err(unavailable(e));
            }
        };
        self.mirrors[index].meta = meta;
        self.mirrors[index].undo = undo;
        self.mirrors[index].db.clear();
        let mut resynced = 0usize;
        for ri in 0..self.regions.len() {
            step(self)?;
            let aligned = self.cfg.aligned_memcpy;
            let region_len = self.regions[ri].len();
            let m = &mut self.mirrors[index];
            // Register the segment before streaming into it, so a failed
            // stream still finds (and frees) it in `abandon_stream`.
            let seg = match m.backend.remote_malloc(region_len, 0) {
                Ok(seg) => seg,
                Err(e) => {
                    self.abandon_stream(index, &e);
                    return Err(unavailable(e));
                }
            };
            self.mirrors[index].db.push(seg);
            if region_len > 0 {
                let m = &mut self.mirrors[index];
                if let Err(e) = push_range(
                    &mut m.backend,
                    seg,
                    &self.regions[ri],
                    0,
                    region_len,
                    aligned,
                ) {
                    self.abandon_stream(index, &e);
                    return Err(unavailable(e));
                }
            }
            self.stats.add_remote_write(region_len);
            resynced += region_len;
        }

        // Fresh (zeroed) redo-log segments for the live slots: the
        // streamed region images are current through the tail, so the
        // mirror's snapshot position is the tail and its log holds only
        // later appends.
        if self.cfg.redo {
            step(self)?;
            let slots = self.cfg.redo_segments;
            self.mirrors[index].redo = vec![None; slots];
            for slot in 0..slots {
                if self.redo.slot_seqs[slot].is_none() {
                    continue;
                }
                let m = &mut self.mirrors[index];
                match m.backend.remote_malloc(self.cfg.redo_segment_bytes, 0) {
                    Ok(seg) => m.redo[slot] = Some(seg),
                    Err(e) => {
                        self.abandon_stream(index, &e);
                        return Err(unavailable(e));
                    }
                }
            }
            self.mirrors[index].redo_snap = self.redo.tail;
        }

        // Publish the metadata: region table first, the magic-bearing
        // header last, so a torn publication leaves no valid image and
        // recovery skips the mirror. The barrier after each part makes
        // "first" real on a pipelined transport: it confirms the streamed
        // regions and the table before the magic goes out, and the header
        // itself before the promotion below.
        let image = self.meta_image_for(&self.mirrors[index]);
        for (off, part) in [
            (OFF_REGION_TABLE, &image[OFF_REGION_TABLE..]),
            (0, &image[..OFF_REGION_TABLE]),
        ] {
            step(self)?;
            let m = &mut self.mirrors[index];
            let meta_id = m.meta.id;
            if let Err(e) = m
                .backend
                .remote_write(meta_id, off, part)
                .and_then(|()| m.backend.flush().map(|_| ()))
            {
                self.abandon_stream(index, &e);
                return Err(unavailable(e));
            }
            self.stats.add_remote_write(part.len());
        }

        self.mirrors[index].health = MirrorHealth::Healthy;
        self.mirrors[index].probes = 0;
        if let Some(m) = self.metrics.as_ref() {
            m.resynced(resynced);
        }
        Ok(())
    }

    /// The backend of mirror `index`, if it exists. Gives tests and
    /// operational tooling access to backend-specific facilities (link
    /// statistics, fault injection, the underlying node handle).
    pub fn mirror_backend(&self, index: usize) -> Option<&M> {
        self.mirrors.get(index).map(|m| &m.backend)
    }

    /// Removes mirror `index` (e.g. after it crashed and is not coming
    /// back), returning its backend. The database keeps running on the
    /// remaining mirrors, which are fenced forward to a fresh epoch.
    ///
    /// # Errors
    ///
    /// Fails if `index` is out of range, this is the last mirror, or it
    /// is the last *healthy* mirror (removing it would leave only stale
    /// images).
    pub fn remove_mirror(&mut self, index: usize) -> Result<M, TxnError> {
        self.ensure_no_open_txns()?;
        if index >= self.mirrors.len() {
            return Err(TxnError::Unavailable(format!("no mirror at index {index}")));
        }
        if self.mirrors.len() == 1 {
            return Err(TxnError::Unavailable(
                "cannot remove the last mirror".into(),
            ));
        }
        if self.mirrors[index].is_healthy() && self.healthy_mirror_count() == 1 {
            return Err(TxnError::Unavailable(
                "cannot remove the last healthy mirror".into(),
            ));
        }
        // Membership change: fence the survivors forward *before* the
        // removal takes effect, so the removed mirror's image can never
        // outrank theirs — and so a failed fence leaves the set
        // unchanged. The leaver is excluded from the epoch write (its
        // image must stay at the old, fenced-out epoch).
        let prior = self.mirrors[index].health;
        self.mirrors[index].health = MirrorHealth::Down;
        if let Err(e) = self.bump_epoch() {
            self.mirrors[index].health = prior;
            return Err(e);
        }
        let backend = self.mirrors.remove(index).backend;
        self.emit(TraceEvent::MirrorRemoved { index });
        Ok(backend)
    }

    // ------------------------------------------------------------------
    // internals
    // ------------------------------------------------------------------

    /// Reclaims a failed stream's partial image: frees the segments
    /// allocated so far — their header was never published, so no later
    /// scrub could find them and repeated failed streams would leak the
    /// mirror's memory. Ids whose free also fails (the transport died
    /// under us) are recorded in `orphans` and reclaimed by the next
    /// rejoin attempt; a failed `add_mirror` drops them with the newcomer.
    /// Transport failures condemn the mirror again.
    fn abandon_stream(&mut self, index: usize, error: &RnError) {
        let m = &mut self.mirrors[index];
        let stale: Vec<SegmentId> = [m.meta.id, m.undo.id]
            .into_iter()
            .chain(std::mem::take(&mut m.db).into_iter().map(|s| s.id))
            .chain(std::mem::take(&mut m.redo).into_iter().flatten().map(|s| s.id))
            .collect();
        for id in stale {
            if m.backend.remote_free(id).is_err() {
                m.orphans.push(id);
            }
        }
        if error.is_unavailable() {
            m.health = MirrorHealth::Down;
        }
    }

    /// Condemns mirror `index` after a transport-level failure.
    pub(crate) fn mark_down(&mut self, index: usize, error: &RnError) {
        self.mirrors[index].health = MirrorHealth::Down;
        self.mirrors[index].probes = 0;
        self.emit(TraceEvent::MirrorDown {
            index,
            error: error.to_string(),
        });
    }

    /// The engine's mirror-failure policy, for one remote step: runs `op`
    /// on every healthy mirror in index order (passing the index), one
    /// crash point each, and
    /// counts the bytes it reports writing (`None` for a step that writes
    /// nothing, such as an allocation). A mirror whose transport fails is
    /// condemned and the step carries on with the survivors; any other
    /// error stops it at once. The condemned mirrors are then fenced
    /// ([`Perseas::fence_failed`]).
    pub(crate) fn fan_out<F>(&mut self, op: F) -> Result<(), TxnError>
    where
        F: FnMut(usize, &mut MirrorState<M>, &Local<'_>) -> Result<Option<usize>, RnError>,
    {
        let failed = self.fan_out_unfenced(op)?;
        self.fence_failed(failed)
    }

    /// [`Perseas::fan_out`] without the fence, for callers that fence
    /// once after several steps: returns whether a mirror was condemned.
    pub(crate) fn fan_out_unfenced<F>(&mut self, mut op: F) -> Result<bool, TxnError>
    where
        F: FnMut(usize, &mut MirrorState<M>, &Local<'_>) -> Result<Option<usize>, RnError>,
    {
        let mut failed = false;
        for mi in 0..self.mirrors.len() {
            if !self.mirrors[mi].is_healthy() {
                continue;
            }
            self.fault_step()?;
            let local = Local {
                regions: &self.regions,
                undo_shadow: &self.undo_shadow,
                cfg: &self.cfg,
            };
            match op(mi, &mut self.mirrors[mi], &local) {
                Ok(Some(bytes)) => self.stats.add_remote_write(bytes),
                Ok(None) => {}
                Err(e) if e.is_unavailable() => {
                    self.mark_down(mi, &e);
                    failed = true;
                }
                Err(e) => return Err(unavailable(e)),
            }
        }
        Ok(failed)
    }

    /// One vectored batch per healthy mirror, in index order: the shape
    /// [`Perseas::fan_out_vectored`] ships.
    pub(crate) fn batches<F>(&self, mut batch: F) -> MirrorBatches
    where
        F: FnMut(&MirrorState<M>) -> Batch,
    {
        self.mirrors
            .iter()
            .enumerate()
            .filter(|(_, m)| m.is_healthy())
            .map(|(mi, m)| (mi, batch(m)))
            .collect()
    }

    /// The undo log prefix `[0, len)` as one range per healthy mirror,
    /// widened to the mirror's aligned transfer plan when
    /// `aligned_memcpy` is on (recovery stops at the widened tail: it
    /// holds garbage or superseded records).
    pub(crate) fn undo_prefix_batches(&self, len: usize) -> MirrorBatches {
        self.batches(|m| {
            let (off, len) = if self.cfg.aligned_memcpy {
                let p = plan_transfer(m.undo.base_addr, 0, len, self.undo_shadow.len());
                (p.offset, p.len)
            } else {
                (0, len)
            };
            vec![(m.undo.id, off, self.undo_shadow[off..off + len].to_vec())]
        })
    }

    /// Ack barrier across the healthy mirror set: awaits every remote
    /// write a pipelined backend has posted without waiting for its
    /// acknowledgement. Called wherever posted writes must be confirmed
    /// before the engine relies on them — after a commit record, and
    /// before one where the commit shape needs it (see
    /// [`Perseas::publish_commit`]) — so writes go to all mirrors
    /// concurrently and round-trip latency is paid only here.
    ///
    /// Each backend's refusal queue is drained completely (one refusal
    /// per `flush` call, looped until clean) so a failed operation's
    /// refusals cannot leak into a later transaction's barrier; the
    /// first refusal fails this barrier. A mirror whose connection died
    /// with the window unconfirmed is condemned and fenced like any
    /// other transport failure, before a refusal is reported.
    /// Inline-acknowledging backends make this a no-op: no events, no
    /// crash points, no virtual time — the simulated figures are
    /// unchanged.
    pub(crate) fn flush_mirrors(&mut self) -> Result<(), TxnError> {
        let (failed, refused) = self.drain_mirrors();
        self.fence_failed(failed)?;
        match refused.into_iter().next() {
            Some((_, e)) => Err(unavailable(e)),
            None => Ok(()),
        }
    }

    /// The drain of [`Perseas::flush_mirrors`] without the fence: condemns
    /// each mirror whose connection died with writes unconfirmed and
    /// returns whether one did, with the first refusal of each mirror
    /// that refused a posted write.
    fn drain_mirrors(&mut self) -> (bool, Vec<(usize, RnError)>) {
        let mut any_failed = false;
        let mut refused = Vec::new();
        let mut posted = 0usize;
        let mut bytes = 0usize;
        for mi in 0..self.mirrors.len() {
            if !self.mirrors[mi].is_healthy() {
                continue;
            }
            let mut first_refusal: Option<RnError> = None;
            let down = loop {
                match self.mirrors[mi].backend.flush() {
                    Ok(stats) => {
                        posted += stats.posted;
                        bytes += stats.bytes;
                        break None;
                    }
                    Err(e) if e.is_unavailable() => break Some(e),
                    // A typed refusal of a posted write: keep draining so
                    // later barriers start clean, keep the first one.
                    Err(e) => {
                        first_refusal.get_or_insert(e);
                    }
                }
            };
            if let Some(e) = down {
                self.mark_down(mi, &e);
                any_failed = true;
            } else if let Some(e) = first_refusal {
                refused.push((mi, e));
            }
        }
        if posted > 0 {
            self.emit(TraceEvent::Flush { posted, bytes });
        }
        (any_failed, refused)
    }

    /// Advances the mirror-set epoch and writes it to every healthy
    /// mirror. If a survivor fails the epoch write it is condemned too
    /// and the bump restarts at a fresh epoch, so on return every
    /// healthy mirror carries the same, newest epoch.
    ///
    /// # Errors
    ///
    /// Fails only on injected crashes or non-transport refusals.
    pub(crate) fn bump_epoch(&mut self) -> Result<(), TxnError> {
        'restart: loop {
            self.epoch += 1;
            self.emit(TraceEvent::EpochBump { epoch: self.epoch });
            for mi in 0..self.mirrors.len() {
                if !self.mirrors[mi].is_healthy() {
                    continue;
                }
                self.fault_step()?;
                let m = &mut self.mirrors[mi];
                let meta_id = m.meta.id;
                // The epoch write is itself a fencing operation, so it is
                // confirmed inline (per-mirror `flush`, not the set-wide
                // barrier — `flush_mirrors` fences through *this* function
                // and must not recurse into it).
                match m
                    .backend
                    .remote_write(meta_id, OFF_EPOCH, &self.epoch.to_le_bytes())
                    .and_then(|()| m.backend.flush().map(|_| ()))
                {
                    Ok(()) => self.stats.add_remote_write(8),
                    Err(e) if e.is_unavailable() => {
                        self.mark_down(mi, &e);
                        continue 'restart;
                    }
                    Err(e) => return Err(unavailable(e)),
                }
            }
            return Ok(());
        }
    }

    /// Completes the fencing of mirrors condemned during the current
    /// operation: bump the epoch on the survivors, then verify the
    /// healthy count still meets the commit quorum.
    ///
    /// # Errors
    ///
    /// Fails `Unavailable` when fewer than `commit_quorum` mirrors
    /// survive. What that means for the enclosing operation depends on
    /// where it happens: before the durability point the transaction is
    /// not durable anywhere; at the durability point the caller maps the
    /// error to [`TxnError::CommitInDoubt`] (see
    /// [`Perseas::durability_in_doubt`]).
    pub(crate) fn fence_failed(&mut self, any_failed: bool) -> Result<(), TxnError> {
        if !any_failed {
            return Ok(());
        }
        self.bump_epoch()?;
        self.check_commit_quorum()
    }

    /// Refuses the operation when fewer than `commit_quorum` mirrors are
    /// healthy. Checked on every `fence_failed` *and* unconditionally at
    /// `begin_transaction` / `commit_transaction`, so a set that
    /// degraded below quorum in an earlier operation keeps refusing
    /// until mirrors rejoin — not only on the Healthy→Down transition
    /// that observed the failure.
    pub(crate) fn check_commit_quorum(&self) -> Result<(), TxnError> {
        let healthy = self.healthy_mirror_count();
        if healthy < self.cfg.commit_quorum {
            if let Some(m) = self.metrics.as_ref() {
                m.quorum_refusal();
            }
            return Err(TxnError::Unavailable(format!(
                "{healthy} healthy mirrors left, below the commit quorum of {}",
                self.cfg.commit_quorum
            )));
        }
        Ok(())
    }

    /// Maps an error raised at the durability point to
    /// [`TxnError::CommitInDoubt`]. By then the commit-record loop has
    /// visited every mirror without stopping early, so each mirror
    /// either holds the record or is `Down` (and fenced to a stale
    /// epoch): recovery from any surviving mirror replays the
    /// transaction as committed, and the error must say so rather than
    /// claim the transaction is not durable. Injected crashes keep
    /// their own variant — recovery reports the actual outcome. And
    /// when *no* healthy mirror is left, the record rests nowhere
    /// reliable: recovery may roll a torn record back, so the original
    /// error passes through and the transaction stays open.
    pub(crate) fn durability_in_doubt(&self, e: TxnError, id: u64) -> TxnError {
        let healthy = self.healthy_mirror_count();
        match e {
            TxnError::Crashed => TxnError::Crashed,
            e if healthy == 0 => e,
            _ => TxnError::CommitInDoubt {
                id,
                healthy,
                quorum: self.cfg.commit_quorum,
            },
        }
    }

    /// Refuses membership and archival changes while any concurrent
    /// transaction (token-based or via the legacy facade) is open.
    pub(crate) fn ensure_no_open_txns(&self) -> Result<(), TxnError> {
        if self.conc.txns.is_empty() {
            Ok(())
        } else {
            Err(TxnError::BusyInTransaction)
        }
    }

    /// The implicit token bound by the legacy facade over the concurrent
    /// engine ([`Perseas::begin_transaction`] under `cfg.concurrent`).
    fn legacy_conc_token(&self) -> Result<crate::conc::TxnToken, TxnError> {
        if self.phase == Phase::Crashed {
            return Err(TxnError::Crashed);
        }
        self.conc
            .legacy_token
            .map(crate::conc::TxnToken::new)
            .ok_or(TxnError::NoActiveTransaction)
    }

    pub(crate) fn ensure_phase(&self, want: Phase) -> Result<(), TxnError> {
        if self.phase == want {
            return Ok(());
        }
        Err(match (self.phase, want) {
            (Phase::Crashed, _) => TxnError::Crashed,
            (Phase::InTxn, Phase::Setup) | (Phase::InTxn, Phase::Ready) => {
                TxnError::BusyInTransaction
            }
            (_, Phase::InTxn) => TxnError::NoActiveTransaction,
            _ => TxnError::BadPublishState,
        })
    }

    pub(crate) fn check_region_range(
        &self,
        region: RegionId,
        offset: usize,
        len: usize,
    ) -> Result<usize, TxnError> {
        let ri = region.as_raw() as usize;
        let region_len = self
            .regions
            .get(ri)
            .map(Vec::len)
            .ok_or(TxnError::UnknownRegion(region))?;
        if offset.checked_add(len).is_none_or(|e| e > region_len) {
            return Err(TxnError::OutOfBounds {
                region,
                offset,
                len,
                region_len,
            });
        }
        Ok(ri)
    }

    pub(crate) fn fault_step(&mut self) -> Result<(), TxnError> {
        if self.fault.step() {
            Ok(())
        } else {
            self.crash();
            Err(TxnError::Crashed)
        }
    }

    /// The batched commit pipeline: the deferred undo log, the coalesced
    /// data ranges and the packet-atomic commit record, in that order,
    /// fanned out to the mirrors in parallel by
    /// [`Perseas::publish_commit`]. At the default quorum of 1 that is one
    /// vectored write and one ack barrier per mirror; above it, the undo
    /// and data writes are confirmed before the record ships.
    fn commit_batched(
        &mut self,
        txn: &mut ActiveTxn,
        ranges: &[(usize, usize, usize)],
    ) -> Result<(), TxnError> {
        let aligned = self.cfg.aligned_memcpy;

        // Phase 1: the undo pushes deferred by `set_range` — the whole log
        // prefix rides as one range.
        let undo_bytes = self.undo_off;
        let undo_lists = self.undo_prefix_batches(undo_bytes);

        // Phase 2: the data update. Alignment widening can re-introduce
        // overlap between coalesced ranges, so the physical plans are
        // merged again before building the vectored write.
        let db_lists = self.batches(|m| {
            let planned: Vec<(usize, usize, usize)> = ranges
                .iter()
                .map(|&(ri, start, len)| {
                    if aligned {
                        let p =
                            plan_transfer(m.db[ri].base_addr, start, len, self.regions[ri].len());
                        (ri, p.offset, p.len)
                    } else {
                        (ri, start, len)
                    }
                })
                .collect();
            coalesce(&planned)
                .into_iter()
                .map(|(ri, s, l)| (m.db[ri].id, s, self.regions[ri][s..s + l].to_vec()))
                .collect()
        });

        let (batch_ranges, batch_bytes) = db_lists
            .first()
            .map_or((0, 0), |(_, l)| (l.len(), payload(l)));
        self.emit(TraceEvent::CommitBatch {
            id: txn.id,
            mirrors: db_lists.len(),
            ranges: batch_ranges,
            bytes: batch_bytes,
            undo_bytes,
        });

        // Phase 3: the durability point, same 8-byte record as the
        // per-range path.
        let id = txn.id;
        self.publish_commit(
            id,
            vec![undo_lists, db_lists],
            |m| commit_record(m, id),
            |_| txn.mirrors_dirty = true,
        )
    }

    /// The durability point of the batched, group and redo commits.
    /// `log` holds, in write-ahead order, what the record vouches for —
    /// undo and data, or a redo burst — as one batch per healthy mirror
    /// each; `record` builds a mirror's commit record. `logged` runs once
    /// the log may rest on a mirror, so an abort knows to clean up after
    /// it.
    ///
    /// This is the one place that decides between the two commit shapes:
    /// - `commit_quorum == 1`: each mirror gets one vectored write, log
    ///   then record, and one ack barrier confirms it. The write applies
    ///   in order ([`RemoteMemory::remote_write_v`]), so a torn one is a
    ///   prefix, and no prefix holds the record without everything ahead
    ///   of it. A mirror lost on the way is fenced and the commit
    ///   continues on the survivors, as a lost mirror would be after a
    ///   barrier; losing every mirror passes the error through.
    /// - `commit_quorum ≥ 2`: the log ships first and a barrier confirms
    ///   it before the record ships. A failure that leaves fewer than
    ///   quorum mirrors must stop the commit before any mirror holds the
    ///   record, and only that barrier can tell.
    ///
    /// The paper's unbatched path ships range by range and keeps its own
    /// barrier; it does not come here.
    pub(crate) fn publish_commit<R>(
        &mut self,
        id: u64,
        log: Vec<MirrorBatches>,
        record: R,
        logged: impl FnOnce(&mut Self),
    ) -> Result<(), TxnError>
    where
        R: FnMut(&MirrorState<M>) -> Batch,
    {
        let mut phases = log.into_iter();
        if self.cfg.commit_quorum > 1 {
            if let Some(first) = phases.next() {
                self.fan_out_vectored(first)?;
                logged(self);
                for phase in phases {
                    self.fan_out_vectored(phase)?;
                }
                self.flush_mirrors()?;
            }
            let frame = self.batches(record);
            return self.confirm_record(id, |s, refused| s.post_vectored(frame, Some(refused)));
        }
        logged(self);
        // Every batch was built from the same healthy set, so the k-th
        // batch of each phase belongs to the same mirror.
        let mut frame = phases
            .next()
            .unwrap_or_else(|| self.batches(|_| Vec::new()));
        for phase in phases.chain([self.batches(record)]) {
            for ((_, list), (_, more)) in frame.iter_mut().zip(phase) {
                list.extend(more);
            }
        }
        self.confirm_record(id, |s, refused| s.post_vectored(frame, Some(refused)))
    }

    /// The refusal rule at the durability point. `post` ships each healthy
    /// mirror the writes that end with the commit record, listing the
    /// mirrors that refuse them, and reports whether one failed; one ack
    /// barrier then confirms them. A mirror that refuses (a typed refusal
    /// such as `Overloaded`, inline or at the barrier) did not apply the
    /// record:
    /// - if every healthy mirror refused, no mirror holds the record, so
    ///   the error is a plain one and the transaction stays open;
    /// - otherwise the refusers are condemned and fenced with any mirror
    ///   that failed, because their images lack a transaction the others
    ///   hold, and a failure from here on is the caller's durability
    ///   point (see [`Perseas::durability_in_doubt`]).
    fn confirm_record<P>(&mut self, id: u64, post: P) -> Result<(), TxnError>
    where
        P: FnOnce(&mut Self, &mut Vec<(usize, RnError)>) -> Result<bool, TxnError>,
    {
        let mut refused = Vec::new();
        let mut failed = post(self, &mut refused)?;
        let (down, late) = self.drain_mirrors();
        failed |= down;
        for (mi, e) in late {
            if refused.iter().all(|(r, _)| *r != mi) {
                refused.push((mi, e));
            }
        }
        refused.retain(|(mi, _)| self.mirrors[*mi].is_healthy());
        if !refused.is_empty() && refused.len() == self.healthy_mirror_count() {
            self.fence_failed(failed)?;
            return Err(unavailable(refused.swap_remove(0).1));
        }
        for (mi, e) in &refused {
            self.mark_down(*mi, e);
        }
        self.fence_failed(failed || !refused.is_empty())
            .map_err(|e| self.durability_in_doubt(e, id))
    }

    /// Issues one vectored write per listed mirror as a parallel fan-out:
    /// mirrors sharing a simulated clock are charged the *maximum* of
    /// their latencies (the rewind/advance pattern of
    /// [`SimClock::rewind_to`]), and real-network mirrors are written from
    /// scoped threads so the writes overlap on the wire. Each mirror's
    /// write is one crash point. Each list entry carries the mirror index
    /// it targets; entries whose mirror has gone `Down` since the lists
    /// were built are skipped, and a mirror failing its write is fenced
    /// while the fan-out commits degraded on the survivors.
    pub(crate) fn fan_out_vectored(&mut self, lists: MirrorBatches) -> Result<(), TxnError> {
        let failed = self.post_vectored(lists, None)?;
        self.fence_failed(failed)
    }

    /// [`Perseas::fan_out_vectored`] without the fence: returns whether a
    /// mirror was condemned. With `refused` given, a mirror that refuses
    /// its write is listed there, counts no bytes and the fan-out carries
    /// on; without it the refusal stops the fan-out.
    fn post_vectored(
        &mut self,
        mut lists: MirrorBatches,
        mut refused: Option<&mut Vec<(usize, RnError)>>,
    ) -> Result<bool, TxnError> {
        let clocks: Vec<Option<SimClock>> = lists
            .iter()
            .map(|(mi, _)| self.mirrors[*mi].backend.virtual_clock())
            .collect();
        let any_sim = clocks.iter().any(Option::is_some);
        let shared = match clocks.first().and_then(Option::as_ref) {
            Some(first)
                if clocks
                    .iter()
                    .all(|c| c.as_ref().is_some_and(|c| c.same_clock(first))) =>
            {
                Some(first.clone())
            }
            _ => None,
        };

        let sequential = self.fault.is_armed() || any_sim || lists.len() == 1;
        // Lists are built from the healthy set and no mirror is promoted
        // before they ship, so once the mirrors condemned since are
        // dropped, the k-th list belongs to the k-th healthy mirror.
        lists.retain(|(mi, _)| self.mirrors[*mi].is_healthy());
        debug_assert_eq!(lists.len(), self.healthy_mirror_count());
        let mut note = |mi, written| refusal(mi, written, refused.as_deref_mut());
        let failed = if sequential {
            // Sequential issue keeps crash points deterministic; when all
            // the mirrors share one simulated timeline the overlap is
            // modelled by rewinding to the dispatch instant before each
            // mirror and finally advancing to the latest completion.
            let t0 = shared.as_ref().map(SimClock::now);
            let mut t_end = t0;
            let mut next = lists.iter();
            let failed = self.fan_out_unfenced(|_, m, _| {
                let (mi, list) = next.next().expect("one list per healthy mirror");
                if let (Some(c), Some(start)) = (shared.as_ref(), t0) {
                    c.rewind_to(start);
                }
                let written = m
                    .backend
                    .remote_write_v(&borrowed(list))
                    .map(|()| Some(payload(list)));
                if let (Some(c), Some(te)) = (shared.as_ref(), t_end.as_mut()) {
                    *te = (*te).max(c.now());
                }
                note(*mi, written)
            })?;
            if let (Some(c), Some(te)) = (shared.as_ref(), t_end) {
                c.advance_to(te);
            }
            failed
        } else {
            // Real-network mirrors with no fault plan armed: one scoped
            // thread per listed healthy mirror, whose results then pass
            // through the usual step. Crash-point accounting is unchanged
            // (one step per mirror; an unarmed plan never fires).
            let results: Vec<Result<(), RnError>> = std::thread::scope(|scope| {
                let mut next = lists.iter().peekable();
                let mut handles = Vec::with_capacity(lists.len());
                for (mi, m) in self.mirrors.iter_mut().enumerate() {
                    let Some((_, list)) = next.next_if(|(i, _)| *i == mi) else {
                        continue;
                    };
                    handles.push(scope.spawn(move || m.backend.remote_write_v(&borrowed(list))));
                }
                handles
                    .into_iter()
                    .map(|h| h.join().expect("mirror writer panicked"))
                    .collect()
            });
            let mut next = lists.iter().zip(results);
            self.fan_out_unfenced(|_, _, _| {
                let ((mi, list), written) = next.next().expect("one result per healthy mirror");
                note(*mi, written.map(|()| Some(payload(list))))
            })?
        };
        Ok(failed)
    }

    /// Grows the undo log to at least `needed` bytes: allocate the larger
    /// segment, re-push the open transaction's records, flip the
    /// single-packet indirection in the metadata, free the old segment.
    pub(crate) fn grow_undo(&mut self, needed: usize) -> Result<(), TxnError> {
        let new_len = (self.undo_shadow.len() * 2).max(needed);
        self.undo_shadow.resize(new_len, 0);
        self.emit(TraceEvent::UndoGrown {
            new_capacity: new_len,
        });
        if self.cfg.redo {
            // The undo log is purely local in redo mode (abort restore
            // and snapshot-read masking); the mirrors hold no copy to
            // grow.
            return Ok(());
        }
        let prefix_len = self.undo_off;
        self.fan_out(|_, m, local| {
            let new_seg = m.backend.remote_malloc(new_len, 0)?;
            // Single 16-byte line: (undo_seg_id, undo_seg_len) flips
            // atomically.
            let mut line = [0u8; 16];
            line[0..8].copy_from_slice(&new_seg.id.as_raw().to_le_bytes());
            line[8..16].copy_from_slice(&(new_len as u64).to_le_bytes());
            let flipped = if prefix_len > 0 {
                m.backend
                    .remote_write(new_seg.id, 0, &local.undo_shadow[..prefix_len])
            } else {
                Ok(())
            }
            .and_then(|()| m.backend.remote_write(m.meta.id, OFF_UNDO, &line));
            // Whichever segment the header does not name is invisible to
            // a rejoin's scrub, so a failure leaves it to the orphan list.
            if let Err(e) = flipped {
                m.orphans.push(new_seg.id);
                return Err(e);
            }
            let old = std::mem::replace(&mut m.undo, new_seg).id;
            if let Err(e) = m.backend.remote_free(old) {
                m.orphans.push(old);
                return Err(e);
            }
            Ok(Some(prefix_len + 16))
        })?;
        // The re-pushed prefix and the metadata flip must be confirmed
        // before the growth is relied on.
        self.flush_mirrors()
    }

    fn build_meta_image(&self) -> Vec<Vec<u8>> {
        self.mirrors
            .iter()
            .map(|m| self.meta_image_for(m))
            .collect()
    }

    pub(crate) fn meta_image_for(&self, m: &MirrorState<M>) -> Vec<u8> {
        let concurrent = self.cfg.concurrent;
        let mut image = vec![0u8; Perseas::<M>::meta_len_for(&self.cfg)];
        let sharded = self.cfg.shard_count > 0;
        let header = MetaHeader {
            region_count: self.regions.len() as u32,
            undo_seg_id: m.undo.id.as_raw(),
            undo_seg_len: m.undo.len as u64,
            epoch: self.epoch,
            flags: if concurrent { FLAG_CONCURRENT } else { 0 }
                | if sharded {
                    crate::layout::FLAG_SHARDED
                } else {
                    0
                }
                | if self.cfg.redo {
                    crate::layout::FLAG_REDO
                } else {
                    0
                },
            commit_slots: if concurrent {
                self.cfg.commit_slots as u32
            } else {
                0
            },
            intent_slots: if sharded {
                self.cfg.intent_slots as u16
            } else {
                0
            },
            decision_slots: if sharded {
                self.cfg.decision_slots as u16
            } else {
                0
            },
            shard_index: if sharded { self.cfg.shard_index } else { 0 },
            shard_count: self.cfg.shard_count,
            last_committed: self.last_committed,
        };
        image[..OFF_REGION_TABLE].copy_from_slice(&header.encode());
        for (i, seg) in m.db.iter().enumerate() {
            let off = OFF_REGION_TABLE + i * REGION_ENTRY_SIZE;
            image[off..off + REGION_ENTRY_SIZE]
                .copy_from_slice(&encode_region_entry(seg.id.as_raw(), seg.len as u64));
        }
        if concurrent {
            let base = commit_table_offset(image.len(), self.cfg.commit_slots);
            for (i, id) in self.conc.slot_ids.iter().enumerate() {
                image[base + i * 8..base + i * 8 + 8].copy_from_slice(&id.to_le_bytes());
            }
        }
        if self.cfg.redo {
            use crate::layout::{
                encode_redo_dir_header, encode_redo_entry, redo_entry_offset, redo_header_offset,
                redo_snap_offset, redo_tail_offset, REDO_ENTRY_SIZE,
            };
            let dir_end = self.redo_dir_end_local(image.len());
            let slots = self.cfg.redo_segments;
            image[redo_header_offset(dir_end)..][..16].copy_from_slice(&encode_redo_dir_header(
                self.cfg.redo_segment_bytes as u32,
                slots as u32,
            ));
            image[redo_tail_offset(dir_end)..][..8]
                .copy_from_slice(&self.redo.tail.to_le_bytes());
            // The snapshot position is per-mirror: a newcomer's streamed
            // image is current through the join-time tail even while the
            // veterans' images cover an older snapshot.
            image[redo_snap_offset(dir_end)..][..8].copy_from_slice(&m.redo_snap.to_le_bytes());
            for slot in 0..slots {
                if let (Some(seq), Some(seg)) = (
                    self.redo.slot_seqs.get(slot).copied().flatten(),
                    m.redo.get(slot).copied().flatten(),
                ) {
                    image[redo_entry_offset(dir_end, slots, slot)..][..REDO_ENTRY_SIZE]
                        .copy_from_slice(&encode_redo_entry(seg.id.as_raw(), seq));
                }
            }
        }
        image
    }
}

/// Copies the intersection of `image` (at region offset `roff`) into
/// `buf` (a view of the region starting at `offset`).
pub(crate) fn overlay_bytes(buf: &mut [u8], offset: usize, roff: usize, image: &[u8]) {
    let start = roff.max(offset);
    let end = (roff + image.len()).min(offset + buf.len());
    if start < end {
        buf[start - offset..end - offset].copy_from_slice(&image[start - roff..end - roff]);
    }
}

/// Whether a commit's result completes it: it succeeded, or failed at
/// the durability point ([`TxnError::CommitInDoubt`]), when the record
/// already rests on every surviving mirror and each would replay the
/// transaction as committed. Any other error published nothing durable.
pub(crate) fn commit_completes(result: &Result<(), TxnError>) -> bool {
    matches!(result, Ok(()) | Err(TxnError::CommitInDoubt { .. }))
}

/// Maps a backend failure to the shared error type.
pub(crate) fn unavailable(e: RnError) -> TxnError {
    TxnError::Unavailable(e.to_string())
}

/// A batch's ranges as the borrowed slices `remote_write_v` takes.
fn borrowed(list: &[(SegmentId, usize, Vec<u8>)]) -> Vec<(SegmentId, usize, &[u8])> {
    list.iter()
        .map(|(s, o, d)| (*s, *o, d.as_slice()))
        .collect()
}

/// Passes mirror `mi`'s write result through, except that with
/// `refused` given a typed refusal is listed there and counts as a write
/// of no bytes, so the step carries on.
fn refusal(
    mi: usize,
    written: Result<Option<usize>, RnError>,
    refused: Option<&mut Vec<(usize, RnError)>>,
) -> Result<Option<usize>, RnError> {
    match (written, refused) {
        (Err(e), Some(r)) if !e.is_unavailable() => {
            r.push((mi, e));
            Ok(None)
        }
        (written, _) => written,
    }
}

/// The packet-atomic commit record naming `id`, as mirror `m`'s batch.
pub(crate) fn commit_record<M>(m: &MirrorState<M>, id: u64) -> Batch {
    vec![(m.meta.id, OFF_COMMIT, id.to_le_bytes().to_vec())]
}

/// Payload bytes of one mirror's batch.
pub(crate) fn payload(list: &[(SegmentId, usize, Vec<u8>)]) -> usize {
    list.iter().map(|(_, _, d)| d.len()).sum()
}

/// Pushes `local[offset..offset+len]` to a remote segment, using the
/// optimised aligned-chunk `sci_memcpy` or the naive store depending on
/// configuration.
pub(crate) fn push_range<M: RemoteMemory>(
    backend: &mut M,
    seg: RemoteSegment,
    local: &[u8],
    offset: usize,
    len: usize,
    aligned: bool,
) -> Result<(), RnError> {
    if aligned {
        mirror_copy(backend, seg.id, seg.base_addr, local, offset, len).map(|_| ())
    } else {
        backend.remote_write(seg.id, offset, &local[offset..offset + len])
    }
}

/// Returns the first byte of `[start, start+len)` of region `ri` that no
/// declared range covers, or `None` if fully covered.
pub(crate) fn first_uncovered(
    declared: &[(usize, usize, usize)],
    ri: usize,
    start: usize,
    len: usize,
) -> Option<usize> {
    let mut uncovered = vec![(start, start + len)];
    for &(r, s, l) in declared {
        if r != ri || l == 0 {
            continue;
        }
        let (ds, de) = (s, s + l);
        let mut next = Vec::with_capacity(uncovered.len() + 1);
        for (a, b) in uncovered {
            if de <= a || ds >= b {
                next.push((a, b));
            } else {
                if a < ds {
                    next.push((a, ds));
                }
                if de < b {
                    next.push((de, b));
                }
            }
        }
        uncovered = next;
        if uncovered.is_empty() {
            return None;
        }
    }
    uncovered.first().map(|&(a, _)| a)
}

/// Coalesces declared ranges per region into maximal disjoint ranges.
pub(crate) fn coalesce(declared: &[(usize, usize, usize)]) -> Vec<(usize, usize, usize)> {
    let mut ranges: Vec<(usize, usize, usize)> = declared
        .iter()
        .filter(|&&(_, _, l)| l > 0)
        .map(|&(r, s, l)| (r, s, s + l))
        .collect();
    ranges.sort_unstable();
    let mut out: Vec<(usize, usize, usize)> = Vec::with_capacity(ranges.len());
    for (r, s, e) in ranges {
        match out.last_mut() {
            Some((lr, _, le)) if *lr == r && s <= *le => {
                *le = (*le).max(e);
            }
            _ => out.push((r, s, e)),
        }
    }
    out.into_iter().map(|(r, s, e)| (r, s, e - s)).collect()
}

impl<M: RemoteMemory> fmt::Debug for Perseas<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Perseas")
            .field("phase", &self.phase)
            .field("mirrors", &self.mirrors.len())
            .field("healthy", &self.healthy_mirror_count())
            .field("epoch", &self.epoch)
            .field("regions", &self.regions.len())
            .field("last_committed", &self.last_committed)
            .field("undo_capacity", &self.undo_shadow.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesce_merges_overlaps_and_adjacency() {
        let d = vec![(0, 0, 4), (0, 4, 4), (0, 10, 2), (1, 0, 2), (0, 11, 5)];
        let c = coalesce(&d);
        assert_eq!(c, vec![(0, 0, 8), (0, 10, 6), (1, 0, 2)]);
    }

    #[test]
    fn coalesce_drops_empty_ranges() {
        assert!(coalesce(&[(0, 5, 0)]).is_empty());
    }

    #[test]
    fn uncovered_detection() {
        let d = vec![(0, 0, 4), (0, 8, 4)];
        assert_eq!(first_uncovered(&d, 0, 0, 4), None);
        assert_eq!(first_uncovered(&d, 0, 2, 2), None);
        assert_eq!(first_uncovered(&d, 0, 2, 8), Some(4));
        assert_eq!(first_uncovered(&d, 1, 0, 1), Some(0));
        assert_eq!(first_uncovered(&d, 0, 4, 4), Some(4));
    }

    #[test]
    fn uncovered_with_split_coverage() {
        // Two declared ranges covering a middle write jointly.
        let d = vec![(0, 0, 6), (0, 6, 6)];
        assert_eq!(first_uncovered(&d, 0, 4, 6), None);
    }
}
