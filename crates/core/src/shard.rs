//! Sharding: K independent mirror sets under one crash-tolerant
//! cross-shard atomic commit.
//!
//! A [`ShardedPerseas`] partitions its regions round-robin across `K`
//! [`Perseas`] instances ("shards"). Each shard owns its own mirror set,
//! epoch line, conflict table, undo arena and commit watermark, so a
//! transaction touching one shard commits — and its mirrors fail over —
//! with **zero cross-shard coordination**: the fast path is a plain
//! [`Perseas::commit_t`] on the owning shard.
//!
//! A transaction touching several shards commits through a two-phase
//! protocol built from the same packet-atomic record writes the
//! single-shard engine uses:
//!
//! 1. **Prepare** — every touched shard freezes its part with the
//!    WAL-ordered vectored prepare ([`Perseas::prepare_t`]): undo records
//!    and data are durable on that shard's mirrors, the part rejects
//!    further writes.
//! 2. **Intent** — every touched shard durably records a 32-byte
//!    CRC-guarded *intent slot* naming its local part, the global
//!    transaction id, and the **home shard** (the lowest touched shard)
//!    that will hold the decision.
//! 3. **Decision** — the coordinator writes a 16-byte CRC-guarded
//!    *decision record* to the home shard's mirrors and flushes. One
//!    decision slot is exactly one SCI packet, so it is either fully
//!    durable or reads as absent: this flush is the atomic commit point
//!    of the whole cross-shard transaction.
//! 4. **Fan-out** — record-only commits ([`Perseas::commit_t`]) retire
//!    each part; the data already travelled during `set_range_t` and
//!    prepare. Each shard's fan-out write is charged to that shard's own
//!    clock, so the fan-out is parallel in virtual time. The intent and
//!    decision slots are then cleared lazily (no flush — a lost clear
//!    leaves a stale slot that recovery skips, because committed-ness is
//!    checked first).
//!
//! **Presumed abort.** If anything fails before the decision record is
//! durable, every part is rolled back and no decision is ever written.
//! Recovery applies the same rule: an in-doubt prepared part whose
//! global transaction has no decision record on its home shard is rolled
//! back; one whose decision record survives is committed by writing its
//! local id into a free commit-table slot (an 8-byte packet-atomic
//! write) before normal single-shard recovery runs. This tolerates a
//! coordinator crash at any step, a shard-primary crash, and any packet
//! prefix of the commit fan-out.

use std::collections::{BTreeMap, HashMap, HashSet};

use perseas_rnram::RemoteMemory;
use perseas_simtime::SimClock;
use perseas_txn::{RegionId, SnapshotToken, TransactionalMemory, TxnError, TxnStats};

use crate::conc::TxnToken;
use crate::fault::FaultPlan;
use crate::layout::{
    commit_table_offset, decode_decision_table, decode_intent_table, encode_decision_slot,
    encode_intent_slot, intent_table_offset, DECISION_SLOT_SIZE, FLAG_SHARDED, INTENT_SLOT_SIZE,
};
use crate::perseas::{unavailable, Perseas, Phase, Src};
use crate::recovery::{best_image, RecoveryReport};
use crate::trace::{TraceEvent, Tracer};
use crate::PerseasConfig;

/// A handle naming an open cross-shard transaction on a
/// [`ShardedPerseas`]. Like [`TxnToken`], it is a plain copyable id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GlobalToken {
    id: u64,
}

impl GlobalToken {
    /// The global transaction id this token names.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// How far a cross-shard commit has progressed (see the staged phase
/// methods on [`ShardedPerseas`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Accepting claims and writes.
    Open,
    /// Every part is frozen and durable on its shard.
    Prepared,
    /// Every touched shard holds a durable intent slot.
    Intended,
    /// The decision record is durable on the home shard: committed.
    Decided,
}

/// Coordinator-side state of one open cross-shard transaction.
struct XTxn {
    /// Touched shards, ascending, with the part's token on each.
    parts: BTreeMap<usize, TxnToken>,
    /// `(shard, intent slot)` written so far.
    intents: Vec<(usize, usize)>,
    /// `(home shard, decision slot)` once the decision is durable.
    decision: Option<(usize, usize)>,
    stage: Stage,
}

impl XTxn {
    fn new() -> XTxn {
        XTxn {
            parts: BTreeMap::new(),
            intents: Vec::new(),
            decision: None,
            stage: Stage::Open,
        }
    }
}

/// Coordination-slot writes shared by the commit path and recovery: each
/// is a vectored record write fanned out to every healthy mirror of one
/// shard, charged one fault step per mirror like every other protocol
/// write.
impl<M: RemoteMemory> Perseas<M> {
    /// Writes `bytes` at the meta offset `off_of(meta_len)` on every
    /// healthy mirror, optionally followed by an ack barrier.
    fn coord_write(
        &mut self,
        off_of: impl Fn(usize) -> usize,
        bytes: &[u8],
        flush: bool,
    ) -> Result<(), TxnError> {
        self.ensure_phase(Phase::Ready)?;
        self.check_commit_quorum()?;
        let lists = self.batches(|m| vec![(m.meta.id, off_of(m.meta.len), Src::copied(bytes))]);
        self.fan_out_vectored(lists)?;
        if flush {
            self.flush_mirrors()?;
        }
        Ok(())
    }

    /// Durably records an intent slot: this shard's part `local` of the
    /// cross-shard transaction `global` awaits the decision on `home`.
    pub(crate) fn write_intent_slot(
        &mut self,
        slot: usize,
        local: u64,
        global: u64,
        home: u32,
    ) -> Result<(), TxnError> {
        let (cs, is, ds) = (
            self.cfg.commit_slots,
            self.cfg.intent_slots,
            self.cfg.decision_slots,
        );
        debug_assert!(slot < is);
        let bytes = encode_intent_slot(local, global, home);
        self.coord_write(
            move |len| intent_table_offset(len, cs, is, ds) + slot * INTENT_SLOT_SIZE,
            &bytes,
            true,
        )
    }

    /// Retires an intent slot. Unflushed by default: a lost clear leaves
    /// a stale slot that recovery skips via the committed-ness check.
    pub(crate) fn clear_intent_slot(&mut self, slot: usize, flush: bool) -> Result<(), TxnError> {
        let (cs, is, ds) = (
            self.cfg.commit_slots,
            self.cfg.intent_slots,
            self.cfg.decision_slots,
        );
        self.coord_write(
            move |len| intent_table_offset(len, cs, is, ds) + slot * INTENT_SLOT_SIZE,
            &[0u8; INTENT_SLOT_SIZE],
            flush,
        )
    }

    /// Writes and flushes the decision record for `global` — the atomic
    /// commit point of a cross-shard transaction. One decision slot is a
    /// single 16-byte line (one SCI packet), so a crash mid-flush leaves
    /// it either fully durable or CRC-invalid, never half-decided.
    pub(crate) fn write_decision_slot(&mut self, slot: usize, global: u64) -> Result<(), TxnError> {
        let (cs, ds) = (self.cfg.commit_slots, self.cfg.decision_slots);
        debug_assert!(slot < ds);
        let bytes = encode_decision_slot(global);
        self.coord_write(
            move |len| {
                crate::layout::decision_table_offset(len, cs, ds) + slot * DECISION_SLOT_SIZE
            },
            &bytes,
            true,
        )
    }

    /// Retires a decision slot (unflushed; see [`Perseas::clear_intent_slot`]).
    pub(crate) fn clear_decision_slot(&mut self, slot: usize, flush: bool) -> Result<(), TxnError> {
        let (cs, ds) = (self.cfg.commit_slots, self.cfg.decision_slots);
        self.coord_write(
            move |len| {
                crate::layout::decision_table_offset(len, cs, ds) + slot * DECISION_SLOT_SIZE
            },
            &[0u8; DECISION_SLOT_SIZE],
            flush,
        )
    }
}

/// What [`ShardedPerseas::recover`] found and did, beyond the per-shard
/// [`RecoveryReport`]s: how many in-doubt prepared parts each shard held
/// and how they were resolved. Feed it to
/// [`record_shard_recovery`](crate::record_shard_recovery) to surface the
/// counts as metrics.
#[derive(Debug)]
pub struct ShardRecoveryReport {
    /// Per-shard reports from the underlying single-shard recoveries.
    pub shards: Vec<RecoveryReport>,
    /// Per shard: in-doubt prepared parts **kept** because the home
    /// shard's decision table held their global transaction.
    pub resolved_commits: Vec<usize>,
    /// Per shard: in-doubt prepared parts **rolled back** because no
    /// decision record existed (presumed abort).
    pub resolved_aborts: Vec<usize>,
}

/// A database partitioned across K independent [`Perseas`] shards (see
/// the `shard` module docs for the commit protocol).
///
/// Regions allocated through [`ShardedPerseas::malloc`] are spread
/// round-robin: global region `g` lives on shard `g % K`. The global
/// [`RegionId`]s handed out here are what every other method takes; the
/// shard-local ids never escape.
///
/// # Examples
///
/// ```
/// use perseas_core::{PerseasConfig, ShardedPerseas};
/// use perseas_rnram::SimRemote;
///
/// # fn main() -> Result<(), perseas_txn::TxnError> {
/// let backends = (0..2)
///     .map(|s| (0..2).map(|m| SimRemote::new(format!("s{s}m{m}"))).collect())
///     .collect();
/// let mut db = ShardedPerseas::init(backends, PerseasConfig::default())?;
/// let a = db.malloc(64)?; // shard 0
/// let b = db.malloc(64)?; // shard 1
/// db.init_remote_db()?;
///
/// let g = db.begin_global()?;
/// db.set_range_g(g, a, 0, 8)?;
/// db.set_range_g(g, b, 0, 8)?;
/// db.write_g(g, a, 0, &[1; 8])?;
/// db.write_g(g, b, 0, &[2; 8])?;
/// db.commit_g(g)?; // atomic across both shards
/// # Ok(())
/// # }
/// ```
pub struct ShardedPerseas<M: RemoteMemory> {
    shards: Vec<Perseas<M>>,
    /// Global region index → (owning shard, shard-local region handle).
    routes: Vec<(usize, RegionId)>,
    next_global: u64,
    open: BTreeMap<u64, XTxn>,
    /// Per shard: local txn id → owning global id, for holder remapping
    /// in [`TxnError::Conflict`].
    locals: Vec<HashMap<u64, u64>>,
    intent_busy: Vec<Vec<bool>>,
    decision_busy: Vec<Vec<bool>>,
    /// Implicit transaction backing the [`TransactionalMemory`] facade.
    implicit: Option<GlobalToken>,
    /// Set when a shard crashed under the coordinator: the in-doubt
    /// state on the other shards must survive untouched for recovery.
    crashed: bool,
}

/// A shard-local read error `e`, renamed to the global `region`.
fn named_global(region: RegionId, e: TxnError) -> TxnError {
    match e {
        TxnError::UnknownRegion(_) => TxnError::UnknownRegion(region),
        TxnError::OutOfBounds {
            offset,
            len,
            region_len,
            ..
        } => TxnError::OutOfBounds {
            region,
            offset,
            len,
            region_len,
        },
        other => other,
    }
}

/// The per-shard config: shard `s` runs the concurrent engine (cross-shard
/// commits are built on `prepare_t`), keeps its metadata under
/// `meta_tag + s`, and stamps its identity into the durable header, which
/// lays out the intent and decision tables.
fn shard_cfg(base: &PerseasConfig, index: usize, count: usize) -> PerseasConfig {
    let mut cfg = base
        .with_meta_tag(base.meta_tag + index as u64)
        .with_concurrent(true);
    cfg.shard_index = index as u16;
    cfg.shard_count = count as u16;
    cfg
}

impl<M: RemoteMemory> ShardedPerseas<M> {
    /// Creates a sharded database: one shard per entry of `backends`,
    /// each mirroring across its own backend set. `cfg` applies to every
    /// shard, except that shard `s` uses `meta_tag + s` (the tag space
    /// must leave `backends.len()` consecutive tags free) and the
    /// concurrent engine is forced on.
    ///
    /// # Errors
    ///
    /// Fails if any shard's backends cannot be initialised.
    ///
    /// # Panics
    ///
    /// Panics on zero shards or more than `u16::MAX` shards.
    pub fn init(backends: Vec<Vec<M>>, cfg: PerseasConfig) -> Result<Self, TxnError> {
        Self::init_with_clocks(
            backends.into_iter().map(|b| (b, SimClock::new())).collect(),
            cfg,
        )
    }

    /// Like [`ShardedPerseas::init`], charging each shard's protocol work
    /// to its own clock — the model of K workstation sets operating in
    /// parallel, used by the scaling benchmarks.
    pub fn init_with_clocks(
        backends: Vec<(Vec<M>, SimClock)>,
        cfg: PerseasConfig,
    ) -> Result<Self, TxnError> {
        let k = backends.len();
        assert!(k > 0, "a sharded database needs at least one shard");
        assert!(k <= u16::MAX as usize, "shard count must fit in u16");
        let mut shards = Vec::with_capacity(k);
        for (s, (b, clock)) in backends.into_iter().enumerate() {
            shards.push(Perseas::init_with_clock(b, shard_cfg(&cfg, s, k), clock)?);
        }
        Ok(Self::assemble(shards, Vec::new(), 1))
    }

    fn assemble(shards: Vec<Perseas<M>>, routes: Vec<(usize, RegionId)>, next_global: u64) -> Self {
        let k = shards.len();
        ShardedPerseas {
            intent_busy: shards
                .iter()
                .map(|d| vec![false; d.cfg.intent_slots])
                .collect(),
            decision_busy: shards
                .iter()
                .map(|d| vec![false; d.cfg.decision_slots])
                .collect(),
            locals: vec![HashMap::new(); k],
            shards,
            routes,
            next_global,
            open: BTreeMap::new(),
            implicit: None,
            crashed: false,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of regions allocated so far (across all shards).
    pub fn regions(&self) -> usize {
        self.routes.len()
    }

    /// Read access to one shard, for inspection (status, clock,
    /// snapshots via shard-local handles).
    pub fn shard(&self, shard: usize) -> &Perseas<M> {
        &self.shards[shard]
    }

    /// Allocates a region of `len` bytes on shard
    /// `regions() % shard_count()` and returns its **global** handle.
    ///
    /// # Errors
    ///
    /// Fails when the owning shard is out of region-table slots or a
    /// transaction is open.
    pub fn malloc(&mut self, len: usize) -> Result<RegionId, TxnError> {
        self.ensure_alive()?;
        let g = self.routes.len();
        let shard = g % self.shards.len();
        let local = self.shards[shard].malloc(len)?;
        self.routes.push((shard, local));
        Ok(RegionId::from_raw(g as u32))
    }

    /// Publishes every shard to its mirrors (see
    /// [`Perseas::init_remote_db`]).
    ///
    /// # Errors
    ///
    /// Fails on the first shard whose publication fails.
    pub fn init_remote_db(&mut self) -> Result<(), TxnError> {
        self.ensure_alive()?;
        for s in &mut self.shards {
            s.init_remote_db()?;
        }
        Ok(())
    }

    fn ensure_alive(&self) -> Result<(), TxnError> {
        if self.crashed {
            Err(TxnError::Crashed)
        } else {
            Ok(())
        }
    }

    fn route(&self, region: RegionId) -> Result<(usize, RegionId), TxnError> {
        self.routes
            .get(region.as_raw() as usize)
            .copied()
            .ok_or(TxnError::UnknownRegion(region))
    }

    /// Rewrites shard-local ids in `e` into the caller's global terms:
    /// the contested region becomes the global handle and a conflicting
    /// holder becomes its global transaction id. A `Crashed` from a
    /// shard poisons the coordinator.
    fn remap(&mut self, shard: usize, gregion: RegionId, e: TxnError) -> TxnError {
        match e {
            TxnError::Crashed => {
                self.crashed = true;
                TxnError::Crashed
            }
            TxnError::Conflict {
                offset,
                len,
                holder,
                ..
            } => TxnError::Conflict {
                region: gregion,
                offset,
                len,
                holder: self.locals[shard].get(&holder).copied().unwrap_or(holder),
            },
            TxnError::RangeNotDeclared { offset, .. } => TxnError::RangeNotDeclared {
                region: gregion,
                offset,
            },
            other => named_global(gregion, other),
        }
    }

    /// Opens a cross-shard transaction. No shard is touched until the
    /// first claim routes to it.
    ///
    /// # Errors
    ///
    /// Fails only after the coordinator was poisoned by a crash.
    pub fn begin_global(&mut self) -> Result<GlobalToken, TxnError> {
        self.ensure_alive()?;
        let id = self.next_global;
        self.next_global += 1;
        self.open.insert(id, XTxn::new());
        Ok(GlobalToken { id })
    }

    /// The part of `g` on `shard`, opened lazily on first touch.
    fn part(&mut self, g: GlobalToken, shard: usize) -> Result<TxnToken, TxnError> {
        let xt = self.open.get(&g.id).ok_or(TxnError::NoActiveTransaction)?;
        if xt.stage != Stage::Open {
            return Err(TxnError::Unavailable(format!(
                "cross-shard transaction {} is already committing",
                g.id
            )));
        }
        if let Some(&tok) = xt.parts.get(&shard) {
            return Ok(tok);
        }
        let tok = match self.shards[shard].begin_concurrent() {
            Ok(t) => t,
            Err(TxnError::Crashed) => {
                self.crashed = true;
                return Err(TxnError::Crashed);
            }
            Err(e) => return Err(e),
        };
        self.open
            .get_mut(&g.id)
            .expect("checked above")
            .parts
            .insert(shard, tok);
        self.locals[shard].insert(tok.id(), g.id);
        Ok(tok)
    }

    /// Declares `[offset, offset+len)` of a (global) region writable by
    /// `g`, claiming it in the owning shard's conflict table.
    ///
    /// # Errors
    ///
    /// [`TxnError::Conflict`] (with the *global* holder id) when the
    /// range is claimed by another open transaction on that shard, plus
    /// every error [`Perseas::set_range_t`] can raise.
    pub fn set_range_g(
        &mut self,
        g: GlobalToken,
        region: RegionId,
        offset: usize,
        len: usize,
    ) -> Result<(), TxnError> {
        self.ensure_alive()?;
        let (shard, local) = self.route(region)?;
        let tok = self.part(g, shard)?;
        self.shards[shard]
            .set_range_t(tok, local, offset, len)
            .map_err(|e| self.remap(shard, region, e))
    }

    /// Transactionally writes `data` into a (global) region under `g`.
    ///
    /// # Errors
    ///
    /// As [`Perseas::write_t`], with shard-local ids remapped.
    pub fn write_g(
        &mut self,
        g: GlobalToken,
        region: RegionId,
        offset: usize,
        data: &[u8],
    ) -> Result<(), TxnError> {
        self.ensure_alive()?;
        let (shard, local) = self.route(region)?;
        let tok = self.part(g, shard)?;
        self.shards[shard]
            .write_t(tok, local, offset, data)
            .map_err(|e| self.remap(shard, region, e))
    }

    /// Reads committed bytes from the owning shard's local image: open
    /// transactions' uncommitted writes are masked, and no range is
    /// claimed.
    ///
    /// # Errors
    ///
    /// Fails on unknown regions or out-of-range reads.
    pub fn read_g(&self, region: RegionId, offset: usize, buf: &mut [u8]) -> Result<(), TxnError> {
        self.read_as(None, region, offset, buf)
    }

    /// [`ShardedPerseas::read_g`] on behalf of the open transaction `g`,
    /// whose own writes stay visible.
    fn read_as(
        &self,
        g: Option<GlobalToken>,
        region: RegionId,
        offset: usize,
        buf: &mut [u8],
    ) -> Result<(), TxnError> {
        let (shard, local) = self.route(region)?;
        let own = g.and_then(|g| self.open.get(&g.id)?.parts.get(&shard).map(TxnToken::id));
        self.shards[shard]
            .read_as(own, local, offset, buf)
            .map_err(|e| named_global(region, e))
    }

    /// Opens a cross-shard snapshot: a vector pinning one commit
    /// watermark **per shard** (index = shard index). Each shard's
    /// watermark is exact for that shard, so single-shard reads through
    /// the vector are serializable; across shards the vector is a
    /// consistent cut only up to cross-shard commits that were mid-flight
    /// while it was taken — a read whose shard has since evicted the
    /// pinned versions fails typed with [`TxnError::SnapshotTooOld`]
    /// rather than returning a torn image.
    ///
    /// # Errors
    ///
    /// Fails after a crash; on failure no shard keeps a snapshot open.
    pub fn begin_snapshot_g(&mut self) -> Result<Vec<SnapshotToken>, TxnError> {
        self.ensure_alive()?;
        let mut snaps = Vec::with_capacity(self.shards.len());
        for i in 0..self.shards.len() {
            match self.shards[i].begin_snapshot() {
                Ok(s) => snaps.push(s),
                Err(e) => {
                    for (shard, snap) in snaps.into_iter().enumerate() {
                        self.shards[shard].end_snapshot(snap);
                    }
                    return Err(e);
                }
            }
        }
        Ok(snaps)
    }

    /// Reads `region` at the watermark `snaps` pinned on its owning
    /// shard. Takes no conflict-table claims: concurrent writers on any
    /// shard can never force this read to abort.
    ///
    /// # Errors
    ///
    /// Never `Conflict` or `SnapshotContention`; fails with
    /// [`TxnError::SnapshotTooOld`] when the owning shard evicted the
    /// pinned versions, or on routing/bounds violations.
    ///
    /// # Panics
    ///
    /// Panics if `snaps` has fewer entries than there are shards (it must
    /// come from [`ShardedPerseas::begin_snapshot_g`]).
    pub fn read_g_s(
        &self,
        snaps: &[SnapshotToken],
        region: RegionId,
        offset: usize,
        buf: &mut [u8],
    ) -> Result<(), TxnError> {
        let (shard, local) = self.route(region)?;
        self.shards[shard]
            .read_s(snaps[shard], local, offset, buf)
            .map_err(|e| named_global(region, e))
    }

    /// Closes a cross-shard snapshot, releasing every shard's pinned
    /// versions. Idempotent per token; extra entries are ignored.
    pub fn end_snapshot_g(&mut self, snaps: Vec<SnapshotToken>) {
        for (shard, snap) in snaps.into_iter().enumerate() {
            if let Some(db) = self.shards.get_mut(shard) {
                db.end_snapshot(snap);
            }
        }
    }

    /// Rolls back every part of `g` on its shard.
    ///
    /// # Errors
    ///
    /// Returns the first per-shard abort failure after attempting all of
    /// them; the transaction is closed either way.
    pub fn abort_g(&mut self, g: GlobalToken) -> Result<(), TxnError> {
        self.ensure_alive()?;
        let xt = self
            .open
            .remove(&g.id)
            .ok_or(TxnError::NoActiveTransaction)?;
        let mut first_err = None;
        for (&shard, &tok) in &xt.parts {
            match self.shards[shard].abort_t(tok) {
                Ok(()) => {}
                Err(TxnError::Crashed) => {
                    self.crashed = true;
                    first_err.get_or_insert(TxnError::Crashed);
                }
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
            self.locals[shard].remove(&tok.id());
        }
        for (shard, slot) in xt.intents {
            let _ = self.shards[shard].clear_intent_slot(slot, false);
            self.intent_busy[shard][slot] = false;
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// Commits `g` atomically across every shard it touched.
    ///
    /// A transaction that touched **one** shard commits through that
    /// shard's ordinary commit path — no intent, no decision record, no
    /// traffic to any other shard. A transaction that touched several
    /// runs the prepare → intent → decision → fan-out protocol from the
    /// `shard` module docs.
    ///
    /// # Errors
    ///
    /// Before the decision record is durable, errors abort the
    /// transaction everywhere (presumed abort) — except
    /// [`TxnError::Crashed`], which poisons the coordinator in place so
    /// the surviving shards' in-doubt state is preserved for recovery.
    /// After the decision, a failed fan-out surfaces as
    /// [`TxnError::CommitInDoubt`] naming the **global** id: the
    /// transaction *is* committed and recovery will finish the fan-out;
    /// do not retry it.
    pub fn commit_g(&mut self, g: GlobalToken) -> Result<(), TxnError> {
        self.ensure_alive()?;
        let xt = self.open.get(&g.id).ok_or(TxnError::NoActiveTransaction)?;
        match xt.parts.len() {
            0 => {
                self.open.remove(&g.id);
                Ok(())
            }
            1 => {
                let (&shard, &tok) = xt.parts.iter().next().expect("len 1");
                match self.shards[shard].commit_t(tok) {
                    Ok(()) => {
                        self.open.remove(&g.id);
                        self.locals[shard].remove(&tok.id());
                        Ok(())
                    }
                    Err(TxnError::Crashed) => {
                        self.crashed = true;
                        Err(TxnError::Crashed)
                    }
                    Err(TxnError::CommitInDoubt {
                        healthy, quorum, ..
                    }) => {
                        // Durable but under-replicated: resolved, not retryable.
                        self.open.remove(&g.id);
                        self.locals[shard].remove(&tok.id());
                        Err(TxnError::CommitInDoubt {
                            id: g.id,
                            healthy,
                            quorum,
                        })
                    }
                    // Failed before its durability point: the part (and the
                    // transaction) stays open so the caller can abort or retry.
                    Err(e) => Err(e),
                }
            }
            _ => {
                self.prepare_parts(g)?;
                self.write_intents(g)?;
                self.write_decision(g)?;
                self.fan_out_commits(g)
            }
        }
    }

    fn parts_of(&self, g: GlobalToken, want: Stage) -> Result<Vec<(usize, TxnToken)>, TxnError> {
        let xt = self.open.get(&g.id).ok_or(TxnError::NoActiveTransaction)?;
        if xt.stage != want {
            return Err(TxnError::Unavailable(format!(
                "cross-shard transaction {} is at stage {:?}, not {:?}",
                g.id, xt.stage, want
            )));
        }
        Ok(xt.parts.iter().map(|(&s, &t)| (s, t)).collect())
    }

    /// The home shard of `g`: the lowest shard it touched, which holds
    /// the decision record.
    fn home_of(&self, g: GlobalToken) -> usize {
        *self.open[&g.id].parts.keys().next().expect("≥2 parts")
    }

    /// Phase 1 of the cross-shard commit: freezes every part on its
    /// shard. Exposed (hidden) so crash-point tests can stop the
    /// protocol between exact phases; use [`ShardedPerseas::commit_g`].
    ///
    /// # Errors
    ///
    /// See [`ShardedPerseas::commit_g`].
    #[doc(hidden)]
    pub fn prepare_parts(&mut self, g: GlobalToken) -> Result<(), TxnError> {
        self.ensure_alive()?;
        let parts = self.parts_of(g, Stage::Open)?;
        for &(shard, tok) in &parts {
            match self.shards[shard].prepare_t(tok) {
                Ok(()) => {
                    self.shards[shard].emit(TraceEvent::CrossShardPrepared {
                        global: g.id,
                        shard: shard as u16,
                        txn: tok.id(),
                    });
                }
                Err(e) => return Err(self.presumed_abort(g, e)),
            }
        }
        self.open.get_mut(&g.id).expect("open").stage = Stage::Prepared;
        Ok(())
    }

    /// Phase 2: durably records an intent slot on every touched shard.
    ///
    /// # Errors
    ///
    /// See [`ShardedPerseas::commit_g`].
    #[doc(hidden)]
    pub fn write_intents(&mut self, g: GlobalToken) -> Result<(), TxnError> {
        self.ensure_alive()?;
        let parts = self.parts_of(g, Stage::Prepared)?;
        let home = self.home_of(g) as u32;
        for &(shard, tok) in &parts {
            let slot = match self.intent_busy[shard].iter().position(|b| !b) {
                Some(s) => s,
                None => {
                    return Err(self.presumed_abort(
                        g,
                        TxnError::Unavailable(format!("shard {shard}: intent table is full")),
                    ))
                }
            };
            self.intent_busy[shard][slot] = true;
            match self.shards[shard].write_intent_slot(slot, tok.id(), g.id, home) {
                Ok(()) => self
                    .open
                    .get_mut(&g.id)
                    .expect("open")
                    .intents
                    .push((shard, slot)),
                Err(e) => {
                    self.intent_busy[shard][slot] = false;
                    return Err(self.presumed_abort(g, e));
                }
            }
        }
        self.open.get_mut(&g.id).expect("open").stage = Stage::Intended;
        Ok(())
    }

    /// Phase 3: writes and flushes the decision record on the home shard
    /// — the atomic commit point.
    ///
    /// # Errors
    ///
    /// See [`ShardedPerseas::commit_g`].
    #[doc(hidden)]
    pub fn write_decision(&mut self, g: GlobalToken) -> Result<(), TxnError> {
        self.ensure_alive()?;
        let parts = self.parts_of(g, Stage::Intended)?;
        let home = self.home_of(g);
        let slot = match self.decision_busy[home].iter().position(|b| !b) {
            Some(s) => s,
            None => {
                return Err(self.presumed_abort(
                    g,
                    TxnError::Unavailable(format!("shard {home}: decision table is full")),
                ))
            }
        };
        self.decision_busy[home][slot] = true;
        match self.shards[home].write_decision_slot(slot, g.id) {
            Ok(()) => {}
            Err(TxnError::Crashed) => {
                self.crashed = true;
                return Err(TxnError::Crashed);
            }
            Err(e) => {
                // The flush failed part-way: the record may or may not have
                // reached a surviving mirror, so neither outcome can be
                // claimed. Recovery decides from whatever is durable.
                self.forget(g);
                return Err(self.in_doubt(home, g.id, e));
            }
        }
        let xt = self.open.get_mut(&g.id).expect("open");
        xt.decision = Some((home, slot));
        xt.stage = Stage::Decided;
        let shards = parts.len();
        self.shards[home].emit(TraceEvent::CrossShardDecision {
            global: g.id,
            home: home as u16,
            shards,
        });
        Ok(())
    }

    /// Phase 4: record-only commit fan-out, then lazy retirement of the
    /// coordination slots.
    ///
    /// # Errors
    ///
    /// See [`ShardedPerseas::commit_g`].
    #[doc(hidden)]
    pub fn fan_out_commits(&mut self, g: GlobalToken) -> Result<(), TxnError> {
        self.ensure_alive()?;
        let parts = self.parts_of(g, Stage::Decided)?;
        for &(shard, tok) in &parts {
            match self.shards[shard].commit_t(tok) {
                // Degraded but durable on that shard; the fan-out goes on.
                Ok(()) | Err(TxnError::CommitInDoubt { .. }) => {}
                Err(TxnError::Crashed) => {
                    self.crashed = true;
                    return Err(TxnError::Crashed);
                }
                Err(e) => {
                    // Decided but not fully fanned out: recovery finishes the
                    // commit on the shards this loop never reached.
                    self.forget(g);
                    return Err(self.in_doubt(shard, g.id, e));
                }
            }
        }
        let xt = self.open.remove(&g.id).expect("open");
        for &(shard, tok) in &parts {
            self.locals[shard].remove(&tok.id());
        }
        for (shard, slot) in xt.intents {
            if let Err(TxnError::Crashed) = self.shards[shard].clear_intent_slot(slot, false) {
                self.crashed = true;
                return Err(TxnError::Crashed);
            }
            self.intent_busy[shard][slot] = false;
        }
        let (home, dslot) = xt.decision.expect("decided");
        if let Err(TxnError::Crashed) = self.shards[home].clear_decision_slot(dslot, false) {
            self.crashed = true;
            return Err(TxnError::Crashed);
        }
        self.decision_busy[home][dslot] = false;
        self.shards[home].emit(TraceEvent::CrossShardCommitted {
            global: g.id,
            shards: parts.len(),
        });
        Ok(())
    }

    /// Abandons a cross-shard commit **before** its decision record
    /// exists: every part is rolled back — exactly what recovery would
    /// decide (presumed abort) — and written intents are retired. A
    /// [`TxnError::Crashed`] cause instead poisons the coordinator in
    /// place, touching nothing else: the other shards' prepared parts
    /// stay in-doubt, exactly as a coordinator process death would leave
    /// them.
    fn presumed_abort(&mut self, g: GlobalToken, cause: TxnError) -> TxnError {
        if matches!(cause, TxnError::Crashed) {
            self.crashed = true;
            return TxnError::Crashed;
        }
        let Some(xt) = self.open.remove(&g.id) else {
            return cause;
        };
        for (&shard, &tok) in &xt.parts {
            if let Err(TxnError::Crashed) = self.shards[shard].abort_t(tok) {
                self.crashed = true;
            }
            self.locals[shard].remove(&tok.id());
        }
        for (shard, slot) in xt.intents {
            let _ = self.shards[shard].clear_intent_slot(slot, false);
            self.intent_busy[shard][slot] = false;
        }
        cause
    }

    /// Closes the coordinator's books on an in-doubt transaction. The
    /// durable intent/decision slots stay pinned — they must not be
    /// reused while recovery may still need them.
    fn forget(&mut self, g: GlobalToken) {
        if let Some(xt) = self.open.remove(&g.id) {
            for (&shard, &tok) in &xt.parts {
                self.locals[shard].remove(&tok.id());
            }
        }
    }

    fn in_doubt(&self, shard: usize, global: u64, _cause: TxnError) -> TxnError {
        TxnError::CommitInDoubt {
            id: global,
            healthy: self.shards[shard]
                .mirror_status()
                .iter()
                .filter(|s| s.health == crate::MirrorHealth::Healthy)
                .count(),
            quorum: self.shards[shard].cfg.commit_quorum,
        }
    }

    /// Kills every shard's volatile state (fault-injection convenience;
    /// see [`Perseas::crash`]).
    pub fn crash(&mut self) {
        for s in &mut self.shards {
            s.crash();
        }
        self.crashed = true;
    }

    /// Arms crash-point fault injection on one shard (see [`FaultPlan`]).
    pub fn set_fault_plan(&mut self, shard: usize, plan: FaultPlan) {
        self.shards[shard].set_fault_plan(plan);
    }

    /// Protocol steps one shard has taken (see [`Perseas::steps_taken`]).
    pub fn steps_taken(&self, shard: usize) -> u64 {
        self.shards[shard].steps_taken()
    }

    /// Installs a tracer on one shard (see [`Perseas::set_tracer`]).
    pub fn set_tracer(&mut self, shard: usize, tracer: Box<dyn Tracer>) {
        self.shards[shard].set_tracer(tracer);
    }

    /// Installs metrics on every shard, tagging each shard's series with
    /// a `shard` label (the mirror-health gauge becomes
    /// `perseas_shard_mirror_healthy{shard,mirror}` so mirror indices
    /// from different shards never collide), and publishes the
    /// `perseas_shards` gauge.
    pub fn set_metrics(&mut self, registry: &perseas_obs::Registry) {
        for (s, shard) in self.shards.iter_mut().enumerate() {
            shard.set_metrics_tagged(registry, s as u16);
        }
        registry
            .gauge(
                "perseas_shards",
                "Number of shards in the sharded database.",
            )
            .set(self.shards.len() as i64);
    }

    /// The owning shard's committed watermark for a global region — a
    /// copy of the current bytes (see [`Perseas::region_snapshot`]).
    ///
    /// # Errors
    ///
    /// Fails on unknown regions.
    pub fn region_snapshot(&self, region: RegionId) -> Result<Vec<u8>, TxnError> {
        let (shard, local) = self.route(region)?;
        self.shards[shard].region_snapshot(local)
    }

    /// Length of a global region.
    ///
    /// # Errors
    ///
    /// Fails on unknown regions.
    pub fn region_len(&self, region: RegionId) -> Result<usize, TxnError> {
        let (shard, local) = self.route(region)?;
        self.shards[shard].region_len(local)
    }

    /// Recovers the whole sharded database from each shard's surviving
    /// mirrors, resolving in-doubt cross-shard transactions first.
    ///
    /// For every shard the best surviving image is chosen and read exactly
    /// as in [`Perseas::recover_best`], and that image goes on to the
    /// shard's recovery without being ranked or read again. Valid intent
    /// slots naming a prepared, uncommitted local part are then resolved
    /// against the home shard's decision table: present → the part's id is written into a free
    /// commit-table slot (an 8-byte packet-atomic write, flushed) so
    /// ordinary recovery keeps it; absent → presumed abort, ordinary
    /// recovery rolls it back. Only after **every** shard has recovered
    /// are the coordination tables cleared, so a crash during recovery
    /// just re-runs the (idempotent) resolution.
    ///
    /// # Errors
    ///
    /// Fails if any shard has no admissible image, an image that is not
    /// this shard of this database, or unreachable mirrors mid-way.
    pub fn recover(
        backends: Vec<Vec<M>>,
        cfg: PerseasConfig,
    ) -> Result<(Self, ShardRecoveryReport), TxnError> {
        Self::recover_with_clocks(
            backends.into_iter().map(|b| (b, SimClock::new())).collect(),
            cfg,
        )
    }

    /// Like [`ShardedPerseas::recover`], charging each shard's recovery
    /// to its own clock.
    ///
    /// # Errors
    ///
    /// See [`ShardedPerseas::recover`].
    pub fn recover_with_clocks(
        mut backends: Vec<(Vec<M>, SimClock)>,
        cfg: PerseasConfig,
    ) -> Result<(Self, ShardRecoveryReport), TxnError> {
        let k = backends.len();
        assert!(k > 0, "a sharded database needs at least one shard");

        // 1. Read the best surviving image per shard: the one ordinary
        // recovery rebuilds below.
        let mut images = Vec::with_capacity(k);
        for (s, (bs, _)) in backends.iter_mut().enumerate() {
            let (best, image) = best_image(bs, &shard_cfg(&cfg, s, k))?;
            let h = &image.header;
            if h.flags & FLAG_SHARDED == 0
                || h.shard_index as usize != s
                || h.shard_count as usize != k
            {
                return Err(TxnError::Unavailable(format!(
                    "shard {s}: image is shard {}/{} (flags {:#x}), not shard {s} of {k}",
                    h.shard_index, h.shard_count, h.flags
                )));
            }
            images.push((best, image));
        }

        // 2. The decision tables — the committed set of cross-shard
        // transactions, keyed by home shard.
        let decisions: Vec<HashSet<u64>> = images
            .iter()
            .map(|(_, im)| {
                decode_decision_table(
                    &im.bytes,
                    im.header.commit_slots as usize,
                    im.header.decision_slots as usize,
                )
                .into_iter()
                .collect()
            })
            .collect();

        // 3. Resolve in-doubt intents before ordinary recovery, so its
        // rollback pass sees resolved-commit parts as committed.
        let mut resolved_commits = vec![0usize; k];
        let mut resolved_aborts = vec![0usize; k];
        let mut resolutions: Vec<(usize, u64, bool)> = Vec::new();
        let mut max_global = 0u64;
        for (s, (best, image)) in images.iter_mut().enumerate() {
            let cs = image.header.commit_slots as usize;
            let watermark = image.header.last_committed;
            let mut table = image.commit_table();
            let intents = decode_intent_table(
                &image.bytes,
                cs,
                image.header.intent_slots as usize,
                image.header.decision_slots as usize,
            );
            for &(_, _, global, _) in &intents {
                max_global = max_global.max(global);
            }
            for &d in &decisions[s] {
                max_global = max_global.max(d);
            }
            if intents.is_empty() {
                continue;
            }
            // Which local ids actually hold live prepared records? A stale
            // intent whose transaction aborted (tombstoned records) or
            // committed before the crash must not be re-resolved.
            let backend = &mut backends[s].0[*best];
            let in_doubt: HashSet<u64> = if image.redo() {
                // Redo shards: an intent is live while the log suffix
                // still holds un-tombstoned records for the id.
                crate::redo::redo_uncommitted_ids(backend, image, &table)?
                    .into_iter()
                    .collect()
            } else {
                image.read_undo(backend)?;
                image
                    .scan_uncommitted()
                    .iter()
                    .map(|(rec, _)| rec.txn_id)
                    .collect()
            };
            for (_, local, global, home) in intents {
                if local <= watermark || table.contains(&local) || !in_doubt.contains(&local) {
                    continue;
                }
                let committed = (home as usize) < k && decisions[home as usize].contains(&global);
                if committed {
                    let free = (0..cs).position(|i| table[i] <= watermark).ok_or_else(|| {
                        TxnError::Unavailable(format!("shard {s}: commit table is full"))
                    })?;
                    let off = commit_table_offset(image.bytes.len(), cs) + free * 8;
                    let slot = local.to_le_bytes();
                    backend
                        .remote_write(image.meta.id, off, &slot)
                        .map_err(unavailable)?;
                    backend.flush().map_err(unavailable)?;
                    // The image in hand is the one recovery rebuilds.
                    image.bytes[off..off + 8].copy_from_slice(&slot);
                    table[free] = local;
                    resolved_commits[s] += 1;
                } else {
                    resolved_aborts[s] += 1;
                }
                resolutions.push((s, global, committed));
            }
        }

        // 4. Ordinary per-shard recovery: each shard's image (unchanged in
        // rank by the slot writes above) is rebuilt, uncommitted parts
        // are rolled back, survivors are re-mirrored.
        let mut shards = Vec::with_capacity(k);
        let mut reports = Vec::with_capacity(k);
        for (s, ((mut bs, clock), (best, image))) in backends.into_iter().zip(images).enumerate() {
            let chosen = bs.remove(best);
            let (db, report) =
                Perseas::recover_image(chosen, image, shard_cfg(&cfg, s, k), clock, bs)?;
            shards.push(db);
            reports.push(report);
        }
        for &(s, global, committed) in &resolutions {
            shards[s].emit(TraceEvent::CrossShardResolved {
                global,
                shard: s as u16,
                committed,
            });
        }

        // 5. Every shard is consistent — retire the coordination tables
        // (intent + decision are contiguous, one write covers both).
        for db in &mut shards {
            let (cs, is, ds) = (
                db.cfg.commit_slots,
                db.cfg.intent_slots,
                db.cfg.decision_slots,
            );
            let zeros = vec![0u8; is * INTENT_SLOT_SIZE + ds * DECISION_SLOT_SIZE];
            db.coord_write(
                move |len| intent_table_offset(len, cs, is, ds),
                &zeros,
                true,
            )?;
        }

        // 6. Region routes are deterministic: allocation was round-robin,
        // so shard s must hold exactly the regions g with g % k == s.
        let counts: Vec<usize> = shards.iter().map(|d| d.regions.len()).collect();
        let total: usize = counts.iter().sum();
        for (s, &count) in counts.iter().enumerate() {
            let expected = total / k + usize::from(s < total % k);
            if count != expected {
                return Err(TxnError::Unavailable(format!(
                    "shard {s} holds {count} regions where round-robin placement \
                     of {total} over {k} shards requires {expected}"
                )));
            }
        }
        let routes = (0..total)
            .map(|g| (g % k, RegionId::from_raw((g / k) as u32)))
            .collect();

        let report = ShardRecoveryReport {
            shards: reports,
            resolved_commits,
            resolved_aborts,
        };
        Ok((Self::assemble(shards, routes, max_global + 1), report))
    }
}

/// The [`TransactionalMemory`] facade: one implicit cross-shard
/// transaction at a time, so the store containers (tables, ring logs)
/// span shards without knowing they exist.
impl<M: RemoteMemory> TransactionalMemory for ShardedPerseas<M> {
    fn system_name(&self) -> &'static str {
        "perseas-sharded"
    }

    fn alloc_region(&mut self, len: usize) -> Result<RegionId, TxnError> {
        self.malloc(len)
    }

    fn publish(&mut self) -> Result<(), TxnError> {
        self.init_remote_db()
    }

    fn begin_transaction(&mut self) -> Result<(), TxnError> {
        if self.implicit.is_some() {
            return Err(TxnError::TransactionAlreadyActive);
        }
        self.implicit = Some(self.begin_global()?);
        Ok(())
    }

    fn set_range(&mut self, region: RegionId, offset: usize, len: usize) -> Result<(), TxnError> {
        let g = self.implicit.ok_or(TxnError::NoActiveTransaction)?;
        self.set_range_g(g, region, offset, len)
    }

    fn write(&mut self, region: RegionId, offset: usize, data: &[u8]) -> Result<(), TxnError> {
        match self.implicit {
            Some(g) => self.write_g(g, region, offset, data),
            // Outside a transaction (region initialisation before
            // publish), delegate to the owning shard's plain write.
            None => {
                let (shard, local) = self.route(region)?;
                self.shards[shard]
                    .write(local, offset, data)
                    .map_err(|e| self.remap(shard, region, e))
            }
        }
    }

    fn read(&self, region: RegionId, offset: usize, buf: &mut [u8]) -> Result<(), TxnError> {
        self.read_as(self.implicit, region, offset, buf)
    }

    fn commit_transaction(&mut self) -> Result<(), TxnError> {
        let g = self.implicit.take().ok_or(TxnError::NoActiveTransaction)?;
        self.commit_g(g)
    }

    fn abort_transaction(&mut self) -> Result<(), TxnError> {
        let g = self.implicit.take().ok_or(TxnError::NoActiveTransaction)?;
        self.abort_g(g)
    }

    fn in_transaction(&self) -> bool {
        self.implicit.is_some()
    }

    fn clock(&self) -> &SimClock {
        // Each shard runs on its own clock; the facade reports shard 0's
        // (the home of the first region), which bounds no cross-shard
        // total — harness code needing per-shard time uses `shard(s).clock()`.
        self.shards[0].clock()
    }

    fn stats(&self) -> TxnStats {
        let mut total = TxnStats::new();
        for s in &self.shards {
            let st = s.stats();
            total.commits += st.commits;
            total.aborts += st.aborts;
            total.set_ranges += st.set_ranges;
            total.local_copies += st.local_copies;
            total.local_copy_bytes += st.local_copy_bytes;
            total.remote_writes += st.remote_writes;
            total.remote_write_bytes += st.remote_write_bytes;
            total.disk_sync_writes += st.disk_sync_writes;
            total.disk_async_writes += st.disk_async_writes;
            total.disk_write_bytes += st.disk_write_bytes;
            total.conflicts += st.conflicts;
            total.group_commits += st.group_commits;
        }
        total
    }

    fn region_len(&self, region: RegionId) -> Result<usize, TxnError> {
        ShardedPerseas::region_len(self, region)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perseas_rnram::SimRemote;

    fn sharded(k: usize, mirrors: usize) -> ShardedPerseas<SimRemote> {
        let backends = (0..k)
            .map(|s| {
                (0..mirrors)
                    .map(|m| SimRemote::new(format!("s{s}m{m}")))
                    .collect()
            })
            .collect();
        ShardedPerseas::init(backends, PerseasConfig::default()).unwrap()
    }

    fn backends_of(k: usize, mirrors: usize) -> Vec<Vec<SimRemote>> {
        (0..k)
            .map(|s| {
                (0..mirrors)
                    .map(|m| SimRemote::new(format!("s{s}m{m}")))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn regions_route_round_robin() {
        let mut db = sharded(3, 1);
        let regions: Vec<_> = (0..7).map(|_| db.malloc(32).unwrap()).collect();
        db.init_remote_db().unwrap();
        assert_eq!(db.regions(), 7);
        // Regions 0,3,6 on shard 0; 1,4 on shard 1; 2,5 on shard 2.
        assert_eq!(db.shard(0).last_committed(), 0);
        let g = db.begin_global().unwrap();
        db.set_range_g(g, regions[3], 0, 4).unwrap();
        db.write_g(g, regions[3], 0, &[9; 4]).unwrap();
        db.commit_g(g).unwrap();
        // A single-shard commit advanced only shard 0's line.
        assert_eq!(db.shard(0).last_committed(), 1);
        assert_eq!(db.shard(1).last_committed(), 0);
        assert_eq!(db.shard(2).last_committed(), 0);
        let mut buf = [0u8; 4];
        db.read_g(regions[3], 0, &mut buf).unwrap();
        assert_eq!(buf, [9; 4]);
    }

    #[test]
    fn single_shard_commit_is_coordination_free() {
        let mut db = sharded(2, 2);
        let a = db.malloc(16).unwrap(); // shard 0
        let _b = db.malloc(16).unwrap(); // shard 1
        db.init_remote_db().unwrap();
        let before = db.steps_taken(1);
        let g = db.begin_global().unwrap();
        db.set_range_g(g, a, 0, 8).unwrap();
        db.write_g(g, a, 0, &[1; 8]).unwrap();
        db.commit_g(g).unwrap();
        // Shard 1 saw zero protocol traffic.
        assert_eq!(db.steps_taken(1), before);
    }

    #[test]
    fn cross_shard_commit_is_atomic_and_visible() {
        let mut db = sharded(2, 2);
        let a = db.malloc(16).unwrap();
        let b = db.malloc(16).unwrap();
        db.init_remote_db().unwrap();
        let g = db.begin_global().unwrap();
        db.set_range_g(g, a, 0, 8).unwrap();
        db.set_range_g(g, b, 0, 8).unwrap();
        db.write_g(g, a, 0, &[3; 8]).unwrap();
        db.write_g(g, b, 0, &[4; 8]).unwrap();
        db.commit_g(g).unwrap();
        assert_eq!(db.shard(0).last_committed(), 1);
        assert_eq!(db.shard(1).last_committed(), 1);
        let (mut x, mut y) = ([0u8; 8], [0u8; 8]);
        db.read_g(a, 0, &mut x).unwrap();
        db.read_g(b, 0, &mut y).unwrap();
        assert_eq!((x, y), ([3; 8], [4; 8]));
        // The coordination slots were retired: another cross-shard commit
        // reuses slot 0 on both tables.
        let g2 = db.begin_global().unwrap();
        db.set_range_g(g2, a, 8, 8).unwrap();
        db.set_range_g(g2, b, 8, 8).unwrap();
        db.commit_g(g2).unwrap();
        assert!(db.intent_busy.iter().all(|v| v.iter().all(|b| !b)));
        assert!(db.decision_busy.iter().all(|v| v.iter().all(|b| !b)));
    }

    #[test]
    fn cross_shard_snapshots_work_on_the_default_config() {
        let mut db = sharded(2, 1);
        let a = db.malloc(16).unwrap(); // shard 0
        let b = db.malloc(16).unwrap(); // shard 1
        db.init_remote_db().unwrap();
        let snaps = db.begin_snapshot_g().unwrap();
        let g = db.begin_global().unwrap();
        for r in [a, b] {
            db.set_range_g(g, r, 0, 8).unwrap();
            db.write_g(g, r, 0, &[5; 8]).unwrap();
        }
        db.commit_g(g).unwrap();
        for r in [a, b] {
            let mut buf = [9u8; 8];
            db.read_g_s(&snaps, r, 0, &mut buf).unwrap();
            assert_eq!(buf, [0; 8], "the snapshot predates the commit");
        }
        db.end_snapshot_g(snaps);
        assert!((0..2).all(|s| db.shard(s).version_store_bytes() == 0));
    }

    #[test]
    fn conflict_holders_are_reported_globally() {
        let mut db = sharded(2, 1);
        let a = db.malloc(16).unwrap();
        let _b = db.malloc(16).unwrap();
        db.init_remote_db().unwrap();
        let g1 = db.begin_global().unwrap();
        db.set_range_g(g1, a, 0, 8).unwrap();
        let g2 = db.begin_global().unwrap();
        let err = db.set_range_g(g2, a, 4, 8).unwrap_err();
        match err {
            TxnError::Conflict { region, holder, .. } => {
                assert_eq!(region, a, "global region id, not the shard-local one");
                assert_eq!(holder, g1.id(), "global transaction id");
            }
            other => panic!("expected conflict, got {other:?}"),
        }
        db.abort_g(g2).unwrap();
        db.abort_g(g1).unwrap();
    }

    #[test]
    fn abort_rolls_back_every_part() {
        let mut db = sharded(2, 1);
        let a = db.malloc(16).unwrap();
        let b = db.malloc(16).unwrap();
        db.init_remote_db().unwrap();
        let g = db.begin_global().unwrap();
        db.set_range_g(g, a, 0, 8).unwrap();
        db.set_range_g(g, b, 0, 8).unwrap();
        db.write_g(g, a, 0, &[7; 8]).unwrap();
        db.write_g(g, b, 0, &[8; 8]).unwrap();
        db.abort_g(g).unwrap();
        let (mut x, mut y) = ([1u8; 8], [1u8; 8]);
        db.read_g(a, 0, &mut x).unwrap();
        db.read_g(b, 0, &mut y).unwrap();
        assert_eq!((x, y), ([0; 8], [0; 8]));
    }

    #[test]
    fn recover_restores_routes_and_data() {
        let backends = backends_of(3, 2);
        let mut db = ShardedPerseas::init(backends.clone(), PerseasConfig::default()).unwrap();
        let regions: Vec<_> = (0..6).map(|_| db.malloc(32).unwrap()).collect();
        db.init_remote_db().unwrap();
        for (i, &r) in regions.iter().enumerate() {
            let g = db.begin_global().unwrap();
            db.set_range_g(g, r, 0, 8).unwrap();
            db.write_g(g, r, 0, &[i as u8 + 1; 8]).unwrap();
            db.commit_g(g).unwrap();
        }
        db.crash();
        let (db2, report) = ShardedPerseas::recover(backends, PerseasConfig::default()).unwrap();
        assert_eq!(report.shards.len(), 3);
        assert_eq!(report.resolved_commits, vec![0, 0, 0]);
        assert_eq!(report.resolved_aborts, vec![0, 0, 0]);
        assert_eq!(db2.regions(), 6);
        for (i, &r) in regions.iter().enumerate() {
            let mut buf = [0u8; 8];
            db2.read_g(r, 0, &mut buf).unwrap();
            assert_eq!(buf, [i as u8 + 1; 8]);
        }
    }

    #[test]
    fn recovered_database_accepts_new_cross_shard_commits() {
        let backends = backends_of(2, 2);
        let mut db = ShardedPerseas::init(backends.clone(), PerseasConfig::default()).unwrap();
        let a = db.malloc(16).unwrap();
        let b = db.malloc(16).unwrap();
        db.init_remote_db().unwrap();
        let g = db.begin_global().unwrap();
        db.set_range_g(g, a, 0, 4).unwrap();
        db.set_range_g(g, b, 0, 4).unwrap();
        db.commit_g(g).unwrap();
        db.crash();
        let (mut db2, _) = ShardedPerseas::recover(backends, PerseasConfig::default()).unwrap();
        // Global ids continue past anything recovery may have seen.
        let g2 = db2.begin_global().unwrap();
        db2.set_range_g(g2, a, 4, 4).unwrap();
        db2.set_range_g(g2, b, 4, 4).unwrap();
        db2.write_g(g2, a, 4, &[5; 4]).unwrap();
        db2.write_g(g2, b, 4, &[6; 4]).unwrap();
        db2.commit_g(g2).unwrap();
        let mut buf = [0u8; 4];
        db2.read_g(b, 4, &mut buf).unwrap();
        assert_eq!(buf, [6; 4]);
    }

    #[test]
    fn sharded_db_is_a_transactional_memory() {
        let mut db = sharded(2, 1);
        let tm: &mut dyn TransactionalMemory = &mut db;
        let a = tm.alloc_region(16).unwrap();
        let b = tm.alloc_region(16).unwrap();
        tm.write(a, 0, &[1; 16]).unwrap();
        tm.write(b, 0, &[2; 16]).unwrap();
        tm.publish().unwrap();
        tm.begin_transaction().unwrap();
        assert!(tm.in_transaction());
        tm.set_range(a, 0, 4).unwrap();
        tm.set_range(b, 0, 4).unwrap();
        tm.write(a, 0, &[3; 4]).unwrap();
        tm.write(b, 0, &[4; 4]).unwrap();
        tm.commit_transaction().unwrap();
        let mut buf = [0u8; 4];
        tm.read(b, 0, &mut buf).unwrap();
        assert_eq!(buf, [4; 4]);
        assert_eq!(tm.system_name(), "perseas-sharded");
        assert_eq!(tm.stats().commits, 2, "one part per touched shard");
    }

    #[test]
    fn empty_and_unknown_transactions_error_cleanly() {
        let mut db = sharded(2, 1);
        let _a = db.malloc(8).unwrap();
        db.init_remote_db().unwrap();
        let g = db.begin_global().unwrap();
        db.commit_g(g).unwrap(); // zero parts: trivially committed
        assert!(matches!(db.commit_g(g), Err(TxnError::NoActiveTransaction)));
        assert!(matches!(
            db.abort_g(GlobalToken { id: 999 }),
            Err(TxnError::NoActiveTransaction)
        ));
    }
}
