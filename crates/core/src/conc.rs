//! The concurrent transaction engine.
//!
//! With [`PerseasConfig::with_concurrent`](crate::PerseasConfig::with_concurrent)
//! enabled, [`Perseas::begin_concurrent`] hands out [`TxnToken`]s for many
//! simultaneously open transactions. A byte-range conflict table serializes
//! only genuinely overlapping `set_range` claims (first-claimer-wins; the
//! loser gets [`TxnError::Conflict`] and stays open), and non-conflicting
//! transactions commit together through the batched, vectored pipeline as
//! one *group commit*: the undo arena, the data and the commit records of
//! the whole group ride one vectored write per mirror and one ack
//! barrier.
//!
//! Durability stays per-transaction. The metadata segment's commit record
//! at `OFF_COMMIT` becomes a *watermark* (every id at or below it is
//! committed), and each transaction committed above the watermark claims
//! one 8-byte, packet-atomic slot in the commit table appended to the
//! metadata segment. The commit write carries the group's slots first and
//! the watermark last, behind the arena and data, so a torn
//! delivery durably commits exactly a prefix of the group — recovery then
//! resolves each transaction independently from its slot.

use std::collections::{BTreeMap, BTreeSet};

use perseas_rnram::{RemoteMemory, SegmentId};
use perseas_txn::{RegionId, TxnError};

use crate::layout::{
    commit_table_offset, encode_group_header, UndoRecord, GROUP_HEADER_SIZE, OFF_COMMIT,
};
use crate::perseas::{
    coalesce, commit_completes, first_uncovered, payload, push_range, Batch, Member, MirrorState,
    Perseas, Phase, Src,
};
use crate::trace::TraceEvent;

/// Handle to one open concurrent transaction.
///
/// Tokens are plain copyable ids: they carry no borrow of the instance, so
/// any number may be open at once and they can be moved freely across
/// threads (the [`ConcurrentPerseas`](crate::ConcurrentPerseas) layer wraps
/// them in RAII handles).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnToken {
    id: u64,
}

impl TxnToken {
    pub(crate) fn new(id: u64) -> Self {
        TxnToken { id }
    }

    /// The transaction id this token names.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// One open concurrent transaction.
pub(crate) struct ConcTxn {
    /// Declared writable ranges: `(region index, start, len)`.
    pub(crate) declared: Vec<(usize, usize, usize)>,
    /// This transaction's encoded undo records (the local rollback source
    /// of truth; copied into the shared arena only at commit time).
    pub(crate) undo: Vec<u8>,
    /// Placement `(start, len)` in the undo-arena shadow, set when a
    /// commit attempt stages the records.
    pub(crate) extent: Option<(usize, usize)>,
    /// `true` once a commit attempt has pushed the arena (and hence this
    /// transaction's records) to the mirrors: an abort must then tombstone
    /// the remote records.
    pub(crate) undo_remote: bool,
    /// `true` once a commit attempt has started pushing data ranges.
    pub(crate) mirrors_dirty: bool,
    /// `true` once [`Perseas::prepare_t`] has shipped this transaction's
    /// records and data to the mirrors: the transaction is then frozen
    /// (no further claims or writes) and its commit is record-only.
    pub(crate) prepared: bool,
}

impl ConcTxn {
    fn new() -> Self {
        ConcTxn {
            declared: Vec::new(),
            undo: Vec::new(),
            extent: None,
            undo_remote: false,
            mirrors_dirty: false,
            prepared: false,
        }
    }
}

/// Shared state of the concurrent engine.
pub(crate) struct ConcState {
    /// Open transactions by id.
    pub(crate) txns: BTreeMap<u64, ConcTxn>,
    /// Per-region conflict table: claim start → `(end, owner id)`. The
    /// claims of one region are always pairwise disjoint.
    pub(crate) claims: Vec<BTreeMap<usize, (usize, u64)>>,
    /// Ids committed above the watermark (still holding a table slot).
    pub(crate) committed_above: BTreeSet<u64>,
    /// Ids resolved without a durable trace (aborted, or committed empty)
    /// above the watermark — they gate its advance but hold no slot.
    pub(crate) resolved_above: BTreeSet<u64>,
    /// Local image of the commit table (slot index → id; an id at or
    /// below the watermark marks a free slot).
    pub(crate) slot_ids: Vec<u64>,
    /// High-water mark of the undo arena (records live in
    /// `[GROUP_HEADER_SIZE, undo_hw)`); resets when no staged transaction
    /// remains.
    pub(crate) undo_hw: usize,
    /// The implicit token bound by the legacy single-transaction facade.
    pub(crate) legacy_token: Option<u64>,
}

impl ConcState {
    pub(crate) fn new(slots: usize) -> Self {
        ConcState {
            txns: BTreeMap::new(),
            claims: Vec::new(),
            committed_above: BTreeSet::new(),
            resolved_above: BTreeSet::new(),
            slot_ids: vec![0; slots],
            undo_hw: GROUP_HEADER_SIZE,
            legacy_token: None,
        }
    }

    /// Drops all open transactions and claims (crash path).
    pub(crate) fn clear(&mut self) {
        self.txns.clear();
        self.claims.clear();
        self.committed_above.clear();
        self.resolved_above.clear();
        self.undo_hw = GROUP_HEADER_SIZE;
        self.legacy_token = None;
    }
}

impl<M: RemoteMemory> Perseas<M> {
    /// Opens a new concurrent transaction and returns its token. Any
    /// number may be open at once; each sees the committed image plus its
    /// own writes.
    ///
    /// # Errors
    ///
    /// Fails when the concurrent engine is off, before publication, after
    /// a crash, or `Unavailable` below the commit quorum.
    pub fn begin_concurrent(&mut self) -> Result<TxnToken, TxnError> {
        self.ensure_concurrent()?;
        self.ensure_phase(Phase::Ready)?;
        self.check_commit_quorum()?;
        while self.conc.claims.len() < self.regions.len() {
            self.conc.claims.push(BTreeMap::new());
        }
        let id = self.next_txn_id;
        self.next_txn_id += 1;
        self.conc.txns.insert(id, ConcTxn::new());
        self.emit(TraceEvent::TxnBegin { id });
        Ok(TxnToken { id })
    }

    /// `true` while the token's transaction is open.
    pub fn txn_is_open(&self, t: TxnToken) -> bool {
        self.conc.txns.contains_key(&t.id)
    }

    /// Number of concurrently open transactions.
    pub fn open_txn_count(&self) -> usize {
        self.conc.txns.len()
    }

    /// Commit-table slots still free once every open transaction has one.
    pub(crate) fn spare_commit_slots(&self) -> usize {
        let free = self.free_slots().count();
        free.saturating_sub(self.conc.txns.len())
    }

    /// The commit-table slots whose id the durable watermark covers.
    fn free_slots(&self) -> impl Iterator<Item = usize> + '_ {
        let w = self.last_committed;
        let ids = self.conc.slot_ids.iter().enumerate();
        ids.filter(move |&(_, &id)| id <= w).map(|(i, _)| i)
    }

    /// Declares `[offset, offset+len)` of `region` writable by the
    /// token's transaction: the range is claimed in the conflict table
    /// and its before-image appended to the transaction's undo records.
    ///
    /// # Errors
    ///
    /// [`TxnError::Conflict`] when the range overlaps a claim of another
    /// open transaction (first-claimer-wins; this transaction stays open
    /// and keeps every claim it already holds). Also fails on unknown
    /// tokens, bad regions/bounds, or after a crash.
    pub fn set_range_t(
        &mut self,
        t: TxnToken,
        region: RegionId,
        offset: usize,
        len: usize,
    ) -> Result<(), TxnError> {
        self.set_ranges_t(t, &[(region, offset, len)])
    }

    /// Declares several ranges in one step, all-or-nothing: every range
    /// is bounds- and conflict-checked before any is claimed, so on error
    /// no range of the batch is declared.
    ///
    /// # Errors
    ///
    /// Fails like [`Perseas::set_range_t`].
    pub fn set_ranges_t(
        &mut self,
        t: TxnToken,
        ranges: &[(RegionId, usize, usize)],
    ) -> Result<(), TxnError> {
        self.claim_ranges(t, ranges)?;
        for &(region, offset, len) in ranges.iter().filter(|&&(_, _, len)| len > 0) {
            self.log_before_image(t.id, region.as_raw() as usize, offset, len);
        }
        Ok(())
    }

    /// Reads under the token's transaction. The range is first claimed as
    /// [`Perseas::set_range_t`] claims it, minus the before-image, so the
    /// bytes are committed or the transaction's own until it ends: a read
    /// then a write of the range is a serialisable read-modify-write.
    ///
    /// # Errors
    ///
    /// Fails like [`Perseas::set_range_t`], `Conflict` included.
    pub fn read_t(
        &mut self,
        t: TxnToken,
        region: RegionId,
        offset: usize,
        buf: &mut [u8],
    ) -> Result<(), TxnError> {
        self.claim_ranges(t, &[(region, offset, buf.len())])?;
        self.read_as(Some(t.id), region, offset, buf)
    }

    /// Claims `ranges` for the token's transaction, all-or-nothing: every
    /// range is bounds- and conflict-checked before any is claimed.
    fn claim_ranges(
        &mut self,
        t: TxnToken,
        ranges: &[(RegionId, usize, usize)],
    ) -> Result<(), TxnError> {
        self.ensure_concurrent()?;
        self.ensure_phase(Phase::Ready)?;
        let id = t.id;
        match self.conc.txns.get(&id) {
            None => return Err(TxnError::NoActiveTransaction),
            Some(txn) if txn.prepared => return Err(frozen(id)),
            Some(_) => {}
        }
        // Validate everything first; the second pass walks `ranges` again
        // rather than collecting them, so a single range never allocates.
        for &(region, offset, len) in ranges {
            let ri = self.check_region_range(region, offset, len)?;
            if len == 0 {
                continue;
            }
            if let Some(holder) = self.peek_conflict(ri, offset, len, id) {
                self.stats.conflicts += 1;
                self.emit(TraceEvent::TxnConflict {
                    id,
                    holder,
                    region: ri as u32,
                    offset,
                    len,
                });
                return Err(TxnError::Conflict {
                    region,
                    offset,
                    len,
                    holder,
                });
            }
        }
        // Intra-batch overlaps are same-owner by construction, so none of
        // these claims can conflict now.
        for &(region, offset, len) in ranges.iter().filter(|&&(_, _, len)| len > 0) {
            self.claim_range(region.as_raw() as usize, offset, len, id);
        }
        Ok(())
    }

    /// Writes `data` at `offset` of `region` under the token's
    /// transaction; the range must be covered by prior claims.
    ///
    /// # Errors
    ///
    /// Fails on unknown tokens, bounds violations, or undeclared ranges.
    pub fn write_t(
        &mut self,
        t: TxnToken,
        region: RegionId,
        offset: usize,
        data: &[u8],
    ) -> Result<(), TxnError> {
        self.ensure_concurrent()?;
        if self.phase == Phase::Crashed {
            return Err(TxnError::Crashed);
        }
        let ri = self.check_region_range(region, offset, data.len())?;
        let txn = self
            .conc
            .txns
            .get(&t.id)
            .ok_or(TxnError::NoActiveTransaction)?;
        if txn.prepared {
            return Err(frozen(t.id));
        }
        if let Some(bad) = first_uncovered(&txn.declared, ri, offset, data.len()) {
            return Err(TxnError::RangeNotDeclared {
                region,
                offset: bad,
            });
        }
        self.regions[ri][offset..offset + data.len()].copy_from_slice(data);
        self.cfg.mem_cost.charge_memcpy(&self.clock, data.len());
        Ok(())
    }

    /// Ships the token's transaction to the mirrors ahead of its commit:
    /// one vectored fan-out per mirror carries the arena header, the
    /// transaction's undo records, and its data ranges — in WAL order, so
    /// a torn delivery can always be rolled back. A prepared transaction
    /// is frozen (no further claims or writes) and its later commit is a
    /// single 8-byte-record fan-out; that is the stage a group commit
    /// amortizes across members. Preparing is idempotent, preparing an
    /// empty transaction is a local no-op, and an abort after prepare
    /// restores the shipped ranges and tombstones the records exactly
    /// like an abort after a failed commit attempt.
    ///
    /// # Errors
    ///
    /// Fails on unknown tokens, below quorum, or when a mirror write
    /// fails. On error before the fan-out the transaction is untouched; a
    /// crash mid-fan-out leaves only rollback-covered bytes on the
    /// mirrors.
    pub fn prepare_t(&mut self, t: TxnToken) -> Result<(), TxnError> {
        self.ensure_concurrent()?;
        self.ensure_phase(Phase::Ready)?;
        self.check_commit_quorum()?;
        let id = t.id;
        let txn = self
            .conc
            .txns
            .get(&id)
            .ok_or(TxnError::NoActiveTransaction)?;
        if txn.prepared {
            return Ok(());
        }
        if txn.undo.is_empty() {
            self.conc.txns.get_mut(&id).expect("open").prepared = true;
            return Ok(());
        }
        if self.cfg.redo {
            // Redo mode ships the member's after-images to the log
            // instead of staging undo records and data: the transaction
            // is frozen, so the local bytes of its (disjoint) claims are
            // final, and its later commit is record-only exactly as on
            // the undo path. `redo_append` confirms the burst.
            let writes = self.redo_writes(&[id]);
            self.redo_append(&writes, None)?;
            self.conc.txns.get_mut(&id).expect("open").prepared = true;
            return Ok(());
        }

        // Stage the records in the shared arena, exactly as a commit
        // would.
        let (hw, at) = self.stage_records(&[id])?;

        // Header, records, then data, all in one vectored write per
        // mirror: ranges apply in order, so any torn prefix still honours
        // write-ahead logging. Data ships exactly as declared — see the
        // widening note in `commit_group`.
        let ranges = coalesce(&self.conc.txns[&id].declared);
        let lists = self.batches(|m| {
            let mut list = vec![
                (m.undo.id, 0, Src::Undo(0..GROUP_HEADER_SIZE)),
                (m.undo.id, hw, Src::Undo(hw..at)),
            ];
            list.extend(self.data_ranges(m, &ranges));
            list
        });
        self.fan_out_vectored(lists)?;
        // Prepare promises the staged records and data are *on* the
        // mirrors, so the barrier belongs here, not at the later commit.
        self.flush_mirrors()?;
        let txn = self.conc.txns.get_mut(&id).expect("open");
        txn.undo_remote = true;
        txn.mirrors_dirty = true;
        txn.prepared = true;
        Ok(())
    }

    /// Commits the token's transaction alone (a group of one).
    ///
    /// # Errors
    ///
    /// Fails like [`Perseas::commit_group`].
    pub fn commit_t(&mut self, t: TxnToken) -> Result<(), TxnError> {
        self.commit_group(&[t])
    }

    /// Commits several open transactions as one group: the undo arena,
    /// the data and the commit record of the whole group ride one
    /// vectored write per mirror, confirmed by one ack barrier (under a
    /// commit quorum above 1 the record follows a barrier on the rest;
    /// see `Perseas::publish_commit`). In redo mode the log burst
    /// takes the place of arena and data. Durability stays
    /// per-transaction — the record carries each transaction's 8-byte
    /// table slot (one packet each) before the watermark, so a torn
    /// delivery durably commits exactly a prefix of the group and
    /// recovery resolves each member independently.
    ///
    /// # Errors
    ///
    /// Fails on unknown tokens, below quorum, or when the commit table
    /// has no free slot per transaction (`Unavailable`; resolve older
    /// transactions first). An error raised *before* the durability point
    /// leaves every member open; [`TxnError::CommitInDoubt`] means the
    /// whole group is durable on the survivors and completed locally.
    pub fn commit_group(&mut self, tokens: &[TxnToken]) -> Result<(), TxnError> {
        self.ensure_concurrent()?;
        self.ensure_phase(Phase::Ready)?;
        self.check_commit_quorum()?;
        // Group-commit timing exists only with metrics installed; the
        // clocks are read, never advanced.
        let timer = self
            .metrics
            .as_ref()
            .map(|_| (self.clock.now(), std::time::Instant::now()));
        let mut ids: Vec<u64> = tokens.iter().map(|t| t.id).collect();
        ids.sort_unstable();
        ids.dedup();
        if ids.is_empty() {
            return Ok(());
        }
        for id in &ids {
            if !self.conc.txns.contains_key(id) {
                return Err(TxnError::NoActiveTransaction);
            }
        }
        let nonempty: Vec<u64> = ids
            .iter()
            .copied()
            .filter(|id| !self.conc.txns[id].undo.is_empty())
            .collect();
        if nonempty.is_empty() {
            // Nothing was written: resolve every member locally, no
            // durable trace needed.
            self.finish_group(&ids, &[], &[], self.last_committed, None);
            self.record_group_latency(timer);
            return Ok(());
        }

        // One commit-table slot per non-empty member. A slot is free once
        // the id it holds is covered by the *currently durable* watermark
        // — never the one this group is about to publish, since a torn
        // delivery could then overwrite a committed id recovery still
        // needs.
        let free: Vec<usize> = self.free_slots().take(nonempty.len()).collect();
        if free.len() < nonempty.len() {
            return Err(TxnError::Unavailable(format!(
                "commit table full: {} free slots for {} transactions — \
                 resolve older open transactions so the watermark can advance",
                free.len(),
                nonempty.len()
            )));
        }

        // Stage every not-yet-prepared member's records in the shared
        // undo arena and stamp the group header so recovery knows how far
        // the arena reaches. Prepared members are already staged and
        // durable on the mirrors; their commit needs only a record.
        let unstaged: Vec<u64> = nonempty
            .iter()
            .copied()
            .filter(|id| !self.conc.txns[id].prepared)
            .collect();
        if !self.cfg.redo {
            self.stage_records(&unstaged)?;
        }

        // New watermark: ids are dense, so it advances while the next id
        // is resolved by this group or an earlier one.
        let group: BTreeSet<u64> = ids.iter().copied().collect();
        let mut new_w = self.last_committed;
        while self.conc.committed_above.contains(&(new_w + 1))
            || self.conc.resolved_above.contains(&(new_w + 1))
            || group.contains(&(new_w + 1))
        {
            new_w += 1;
        }

        // The commit record: each member's table slot (one 8-byte,
        // packet-atomic write each), then the watermark last, in one
        // vectored write per mirror. Slot offsets are end-relative and
        // per-mirror: every mirror's metadata segment carries its own
        // table at the tail.
        let max_id = *nonempty.last().expect("nonempty");
        let slots = self.cfg.commit_slots;
        let mut record = |m: &MirrorState<M>| {
            let base = commit_table_offset(m.meta.len, slots);
            let mut list: Batch = nonempty
                .iter()
                .zip(&free)
                .map(|(id, &slot)| (m.meta.id, base + slot * 8, Src::copied(&id.to_le_bytes())))
                .collect();
            list.push((m.meta.id, OFF_COMMIT, Src::copied(&new_w.to_le_bytes())));
            list
        };

        let undo_bytes = if self.cfg.redo { 0 } else { self.conc.undo_hw };
        let mut batch_ranges = 0;
        let mut batch_bytes = 0;
        let shipped = if !unstaged.is_empty() && self.cfg.redo {
            // Redo mode: one coalesced after-image batch for every
            // unprepared member, appended as a single log burst with the
            // record behind its tail line. Prepared members' records are
            // already in the log; claims are disjoint, so each member's
            // local bytes are its own.
            let writes = self.redo_writes(&unstaged);
            batch_ranges = writes.len();
            batch_bytes = writes.iter().map(|&(_, _, _, len)| len).sum();
            self.redo_append(&writes, Some((max_id, &mut record)))
        } else {
            let mut log = Vec::new();
            if !unstaged.is_empty() {
                let undo_lists = self.undo_prefix_batches(undo_bytes);

                // The shared data update: the coalesced union of every
                // unprepared member's declared ranges (claims are disjoint
                // across members, so the union is exact; prepared members'
                // data is already on the mirrors). Unlike the
                // single-transaction path, the ranges are shipped EXACTLY
                // as declared — alignment widening would read neighbouring
                // bytes from the local image, and under concurrency those
                // may be another open transaction's uncommitted writes,
                // which must never reach a mirror.
                let mut declared_all = Vec::new();
                for id in &unstaged {
                    declared_all.extend(self.conc.txns[id].declared.iter().copied());
                }
                let ranges = coalesce(&declared_all);
                let db_lists = self.batches(|m| self.data_ranges(m, &ranges).collect());
                (batch_ranges, batch_bytes) = db_lists
                    .first()
                    .map_or((0, 0), |(_, l)| (l.len(), payload(l)));
                self.emit(TraceEvent::CommitBatch {
                    id: max_id,
                    mirrors: db_lists.len(),
                    ranges: batch_ranges,
                    bytes: batch_bytes,
                    undo_bytes,
                });
                log = vec![undo_lists, db_lists];
            }
            // The arena, the data, then the record (see
            // `Perseas::publish_commit`). Once the arena may rest on the
            // mirrors, the members' aborts must tombstone their records.
            self.publish_commit(max_id, log, record, |s| {
                for id in &unstaged {
                    let txn = s.conc.txns.get_mut(id).expect("member open");
                    txn.undo_remote = true;
                    txn.mirrors_dirty = true;
                }
            })
        };
        // Otherwise (crashed, every healthy mirror refused the record, or
        // no healthy mirror holds it reliably) nothing is durable and every
        // member stays open; a crash cleared them already.
        if commit_completes(&shipped) {
            let group = TraceEvent::GroupCommit {
                txns: ids.clone(),
                ranges: batch_ranges,
                bytes: batch_bytes,
                undo_bytes,
            };
            self.finish_group(&ids, &nonempty, &free, new_w, Some(group));
            self.record_group_latency(timer);
        }
        shipped
    }

    /// Aborts the token's transaction: the before-images are restored
    /// locally, its claims are released **immediately** (another
    /// transaction may claim the ranges right away), and any trace a
    /// failed commit left on the mirrors is cleaned up — data ranges are
    /// restored first, then the staged arena records are tombstoned so
    /// recovery can never replay the aborted writes.
    ///
    /// # Errors
    ///
    /// Fails on unknown tokens, or if the mirror cleanup after a failed
    /// commit drops the set below quorum. The local abort (rollback,
    /// claim release, slot-free) has completed by then.
    pub fn abort_t(&mut self, t: TxnToken) -> Result<(), TxnError> {
        self.ensure_concurrent()?;
        if self.phase == Phase::Crashed {
            return Err(TxnError::Crashed);
        }
        let id = t.id;
        let txn = self
            .conc
            .txns
            .remove(&id)
            .ok_or(TxnError::NoActiveTransaction)?;
        if self.conc.legacy_token == Some(id) {
            self.conc.legacy_token = None;
        }
        self.roll_back(id, &txn.undo);
        self.release_claims(id);
        self.conc.resolved_above.insert(id);
        let staged = txn.extent.filter(|_| txn.undo_remote);
        let result = self.clean_up_mirrors(id, &txn.declared, txn.mirrors_dirty, staged);
        self.maybe_reset_arena();
        result
    }

    /// Stages the records of the `ids` members in the shared undo arena,
    /// after its high-water mark, and stamps the group header so recovery
    /// knows how far the arena reaches. Returns the arena's old and new
    /// high-water marks.
    fn stage_records(&mut self, ids: &[u64]) -> Result<(usize, usize), TxnError> {
        let hw = self.conc.undo_hw;
        let new: usize = ids.iter().map(|id| self.conc.txns[id].undo.len()).sum();
        if hw + new > self.undo_shadow.len() {
            // `grow_undo` re-pushes `[0, undo_off)`: keep the live arena
            // prefix (header included) intact on the larger segment.
            self.undo_off = hw;
            self.grow_undo(hw + new)?;
        }
        let mut at = hw;
        for id in ids {
            let txn = self.conc.txns.get_mut(id).expect("member open");
            let len = txn.undo.len();
            self.undo_shadow[at..at + len].copy_from_slice(&txn.undo);
            txn.extent = Some((at, len));
            at += len;
        }
        self.conc.undo_hw = at;
        self.undo_off = at;
        if !ids.is_empty() {
            let header = encode_group_header((at - GROUP_HEADER_SIZE) as u64);
            self.undo_shadow[..GROUP_HEADER_SIZE].copy_from_slice(&header);
            self.cfg
                .mem_cost
                .charge_memcpy(&self.clock, new + GROUP_HEADER_SIZE);
            self.stats.add_local_copy(new + GROUP_HEADER_SIZE);
        }
        Ok((hw, at))
    }

    /// The redo-log writes of the `ids` members: each one's declared
    /// ranges, coalesced. The append, even a failed one, may put a
    /// member's after-images on the mirrors, so each is marked for its
    /// abort to tombstone the log.
    fn redo_writes(&mut self, ids: &[u64]) -> Vec<crate::redo::RedoWrite> {
        let mut writes = Vec::new();
        for id in ids {
            let txn = self.conc.txns.get_mut(id).expect("member open");
            txn.mirrors_dirty = true;
            writes.extend(
                coalesce(&txn.declared)
                    .into_iter()
                    .map(|(ri, s, l)| (*id, ri, s, l)),
            );
        }
        writes
    }

    /// Appends the before-image of a claimed range to the transaction's
    /// undo records and declares the range writable.
    fn log_before_image(&mut self, id: u64, ri: usize, offset: usize, len: usize) {
        let rec = UndoRecord {
            txn_id: id,
            region: ri as u32,
            offset: offset as u64,
            len: len as u64,
        };
        let total = rec.encoded_len();
        let payload = &self.regions[ri][offset..offset + len];
        let txn = self.conc.txns.get_mut(&id).expect("claim holder open");
        let at = txn.undo.len();
        txn.undo.resize(at + total, 0);
        rec.encode_into(&mut txn.undo, at, payload);
        txn.declared.push((ri, offset, len));
        self.cfg.mem_cost.charge_memcpy(&self.clock, total);
        self.stats.add_local_copy(len);
        self.stats.set_ranges += 1;
        self.emit(TraceEvent::SetRange {
            id,
            region: ri as u32,
            offset,
            len,
        });
    }

    /// The other open transaction holding a claim overlapping
    /// `[start, start+len)` of region `ri`, if any.
    fn peek_conflict(&self, ri: usize, start: usize, len: usize, id: u64) -> Option<u64> {
        let end = start + len;
        let map = self.conc.claims.get(ri)?;
        // Claims are disjoint, so both starts and ends are sorted: walk
        // backwards from the last claim starting before `end` and stop at
        // the first that ends at or before `start`.
        for (_, &(e, owner)) in map.range(..end).rev() {
            if e <= start {
                break;
            }
            if owner != id {
                return Some(owner);
            }
        }
        None
    }

    /// Claims `[start, start+len)` of region `ri` for transaction `id`,
    /// merging with its own adjacent or overlapping claims. The caller
    /// has checked [`Perseas::peek_conflict`] first.
    fn claim_range(&mut self, ri: usize, start: usize, len: usize, id: u64) {
        debug_assert_eq!(self.peek_conflict(ri, start, len, id), None);
        let mut new_s = start;
        let mut new_e = start + len;
        let map = &mut self.conc.claims[ri];
        let merge: Vec<usize> = map
            .range(..=new_e)
            .rev()
            .take_while(|&(_, &(e, _))| e >= new_s)
            .filter(|&(_, &(_, owner))| owner == id)
            .map(|(&s, _)| s)
            .collect();
        for s in merge {
            let (e, _) = map.remove(&s).expect("claim listed");
            new_s = new_s.min(s);
            new_e = new_e.max(e);
        }
        map.insert(new_s, (new_e, id));
    }

    /// `ranges` of the local image as mirror `m`'s batch entries, exactly
    /// as declared (see the widening note in `commit_group`).
    fn data_ranges<'a>(
        &'a self,
        m: &'a MirrorState<M>,
        ranges: &'a [(usize, usize, usize)],
    ) -> impl Iterator<Item = (SegmentId, usize, Src)> + 'a {
        ranges
            .iter()
            .map(|&(ri, s, l)| (m.db[ri].id, s, Src::Region(ri, s..s + l)))
    }

    /// Drops every claim transaction `id` holds, in every region.
    fn release_claims(&mut self, id: u64) {
        for map in &mut self.conc.claims {
            map.retain(|_, &mut (_, owner)| owner != id);
        }
    }

    /// Records the group-commit latency histograms from a timer captured
    /// at `commit_group` entry (`None` when metrics are not installed).
    fn record_group_latency(
        &self,
        timer: Option<(perseas_simtime::SimInstant, std::time::Instant)>,
    ) {
        if let (Some(m), Some((sim0, wall0))) = (self.metrics.as_ref(), timer) {
            m.record_group_commit(self.clock.now().duration_since(sim0), wall0.elapsed());
        }
    }

    /// Applies a successful (or in-doubt) group commit locally: slots,
    /// watermark, transaction resolution, claims, stats, and events —
    /// `group` is its `GroupCommit` event, `None` when no member wrote.
    fn finish_group(
        &mut self,
        ids: &[u64],
        nonempty: &[u64],
        free: &[usize],
        new_w: u64,
        group: Option<TraceEvent>,
    ) {
        for (id, &slot) in nonempty.iter().zip(free) {
            self.conc.slot_ids[slot] = *id;
        }
        for id in ids {
            if nonempty.contains(id) {
                self.conc.committed_above.insert(*id);
            } else {
                self.conc.resolved_above.insert(*id);
            }
        }
        if new_w > self.last_committed {
            self.last_committed = new_w;
        }
        let w = self.last_committed;
        self.conc.committed_above.retain(|&x| x > w);
        self.conc.resolved_above.retain(|&x| x > w);
        let txns: Vec<ConcTxn> = ids
            .iter()
            .map(|id| self.conc.txns.remove(id).expect("member open"))
            .collect();
        let ranges: Vec<_> = txns.iter().map(|txn| coalesce(&txn.declared)).collect();
        let members: Vec<Member<'_>> = ids
            .iter()
            .zip(&txns)
            .zip(&ranges)
            .map(|((&id, txn), ranges)| (id, txn.undo.as_slice(), ranges.as_slice()))
            .collect();
        self.finish_commits(&members, group);
        for id in ids {
            self.release_claims(*id);
            if self.conc.legacy_token == Some(*id) {
                self.conc.legacy_token = None;
            }
        }
        self.maybe_reset_arena();
    }

    /// Rewrites the records in `[start, start+len)` of the undo arena
    /// with transaction id 0 and pushes the range back to every healthy
    /// mirror, so recovery skips them even if they are the newest thing
    /// in the log. A torn tombstone push is safe either way: the mirror
    /// that missed it is fenced, and rolling the still-live records back
    /// restores before-images the data restore already re-published.
    pub(crate) fn tombstone_extent(&mut self, start: usize, len: usize) -> Result<(), TxnError> {
        let end = start + len;
        let mut off = start;
        while off < end {
            let Some((rec, payload)) = UndoRecord::decode_at(&self.undo_shadow, off) else {
                break;
            };
            let total = rec.encoded_len();
            let bytes = self.undo_shadow[payload].to_vec();
            let dead = UndoRecord { txn_id: 0, ..rec };
            dead.encode_into(&mut self.undo_shadow, off, &bytes);
            off += total;
        }
        self.cfg.mem_cost.charge_memcpy(&self.clock, len);
        self.fan_out(|_, m, local| {
            push_range(
                &mut m.backend,
                m.undo,
                local.undo_shadow,
                start,
                len,
                local.cfg.aligned_memcpy,
            )
            .map(|()| Some(len))
        })?;
        // The tombstones must be confirmed before the abort completes:
        // recovery must never replay records the caller believes dead.
        self.flush_mirrors()
    }

    /// Resets the undo arena once no open transaction has records staged
    /// in it. Stale bytes above the header are harmless — they belong to
    /// committed, tombstoned, or rolled-back transactions — but resetting
    /// keeps the arena (and the undo fan-out) small.
    fn maybe_reset_arena(&mut self) {
        if self.conc.txns.values().any(|t| t.extent.is_some()) {
            return;
        }
        self.conc.undo_hw = GROUP_HEADER_SIZE;
        self.undo_off = GROUP_HEADER_SIZE;
        if self.undo_shadow.len() >= GROUP_HEADER_SIZE {
            self.undo_shadow[..GROUP_HEADER_SIZE].copy_from_slice(&encode_group_header(0));
        }
    }

    fn ensure_concurrent(&self) -> Result<(), TxnError> {
        if self.cfg.concurrent {
            Ok(())
        } else {
            Err(TxnError::Unavailable(
                "concurrent engine is off; enable it with PerseasConfig::with_concurrent".into(),
            ))
        }
    }
}

/// The error for claim or write attempts on a prepared (frozen)
/// transaction.
fn frozen(id: u64) -> TxnError {
    TxnError::Unavailable(format!(
        "transaction {id} is prepared and frozen; commit or abort it"
    ))
}
