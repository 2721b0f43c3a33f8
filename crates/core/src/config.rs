//! Library configuration.

use perseas_rnram::BackoffPolicy;
use perseas_simtime::MemCostModel;

use crate::layout::META_TAG;

/// Configuration of a [`crate::Perseas`] instance.
///
/// The defaults reproduce the paper's testbed: 133 MHz Pentium memory
/// costs, up to 64 database segments, and a 64 KB initial mirrored undo
/// log that grows on demand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerseasConfig {
    /// Cost model for local memory copies.
    pub mem_cost: MemCostModel,
    /// Maximum number of database regions (fixes the size of the remote
    /// metadata segment's region table).
    pub max_regions: usize,
    /// Initial capacity of the mirrored undo log in bytes; it doubles on
    /// demand.
    pub initial_undo_capacity: usize,
    /// Tag under which the metadata segment is exported, used by
    /// [`crate::Perseas::recover`] to find it again (the paper's
    /// `sci_connect_segment`).
    pub meta_tag: u64,
    /// Use the optimised `sci_memcpy` (widen copies of 32+ bytes to whole
    /// 64-byte aligned chunks, Section 4). Disable only for the ablation
    /// benchmark.
    pub aligned_memcpy: bool,
    /// Commit through the batched, vectored pipeline: undo pushes are
    /// deferred to commit time and each mirror then receives exactly one
    /// vectored write for the undo log, one for the coalesced data
    /// ranges, and one for the commit record — with the mirrors' writes
    /// overlapping (each TCP write is posted and the barriers after them
    /// confirm them together; a shared simulated clock is charged the
    /// maximum latency). `false` reproduces the paper's original
    /// per-range protocol, where every `set_range` and every coalesced
    /// range is its own remote write. Crash-point counting follows the
    /// writes: on the batched path one vectored write is one crash point.
    pub batched_commit: bool,
    /// Minimum number of `Healthy` mirrors a commit must reach. When a
    /// mirror fails mid-operation it is fenced (marked `Down`, epoch
    /// bumped on the survivors) and the transaction commits in degraded
    /// mode as long as this many mirrors remain; below the quorum the
    /// operation fails `Unavailable`. The paper's availability claim
    /// (data survives any single workstation crash) corresponds to the
    /// default of 1.
    pub commit_quorum: usize,
    /// Epoch admission floor for `recover` and `ReadReplica::attach`: a
    /// mirror whose metadata carries an epoch below this value was
    /// fenced out of the set after missing commits and is refused with
    /// [`perseas_txn::TxnError::FencedMirror`]. The default of 0 admits
    /// every mirror, including pre-epoch images.
    pub min_epoch: u64,
    /// Pacing for reconnect probes against `Down` mirrors
    /// ([`crate::Perseas::probe_down_mirrors`]): exponential backoff
    /// with deterministic jitter, charged to the simulated clock for sim
    /// backends and to the wall clock for TCP.
    pub probe_backoff: BackoffPolicy,
    /// Run the concurrent transaction engine: `begin_concurrent` hands
    /// out tokens for many simultaneously open transactions, a byte-range
    /// conflict table serializes overlapping `set_range` claims
    /// (first-claimer-wins, [`perseas_txn::TxnError::Conflict`] for the
    /// loser), and non-conflicting transactions commit as a group through
    /// the batched pipeline with per-transaction commit records. Implies
    /// the batched commit path. Off by default: the legacy single-slot
    /// engine stays byte-for-byte identical to the paper's protocol.
    pub concurrent: bool,
    /// Number of 8-byte commit-table slots appended to the metadata
    /// segment when `concurrent` is on: 64. Bounds how many transactions
    /// may be committed above the watermark while older transactions are
    /// still open; a full table fails the commit `Unavailable` until the
    /// watermark advances. Recovery takes it from the mirror's header.
    pub(crate) commit_slots: usize,
    /// Which shard of a [`crate::ShardedPerseas`] database this instance
    /// is. Meaningful only when `shard_count > 0`.
    pub(crate) shard_index: u16,
    /// Total shard count of the sharded database this instance belongs
    /// to. Zero means unsharded: no intent or decision tables are laid
    /// out and the image carries no shard flag. Only
    /// [`crate::ShardedPerseas`] sets it.
    pub(crate) shard_count: u16,
    /// Number of 32-byte intent slots in a sharded metadata segment: 16.
    /// Bounds how many cross-shard transactions may simultaneously hold a
    /// prepared part on one shard.
    pub(crate) intent_slots: usize,
    /// Number of 16-byte decision slots in a sharded metadata segment:
    /// 16. Bounds how many cross-shard decisions may be in flight on one
    /// home shard between the decision write and the end of its commit
    /// fan-out.
    pub(crate) decision_slots: usize,
    /// Commit through the REDO-only log-structured path: `set_range`
    /// keeps its before-image **local** (aborts stay cheap) and commit
    /// appends CRC-framed after-images to a segmented remote redo log
    /// instead of shipping undo copies — write-heavy workloads stop
    /// paying undo bytes on the hot path. The flushed commit record
    /// remains the durability point. Recovery replays the committed log
    /// suffix past the last snapshot ([`crate::Perseas::redo_snapshot`])
    /// onto the snapshotted region images; restart time scales with the
    /// live tail, not total history. Off by default: the undo protocol
    /// stays byte-identical to the paper's.
    pub redo: bool,
    /// Size in bytes of each redo-log segment (fixed; records never
    /// straddle a segment boundary). Meaningful only when `redo` is on.
    pub redo_segment_bytes: usize,
    /// Number of redo-directory slots — the maximum number of live
    /// (not-yet-compacted) log segments. When every slot's segment is
    /// full and uncompacted, commits fail `Unavailable` until
    /// [`crate::Perseas::redo_snapshot`] retires segments.
    pub redo_segments: usize,
}

impl PerseasConfig {
    /// The default configuration (see type-level docs).
    pub fn new() -> Self {
        PerseasConfig {
            mem_cost: MemCostModel::pentium_133(),
            max_regions: 64,
            initial_undo_capacity: 64 << 10,
            meta_tag: META_TAG,
            aligned_memcpy: true,
            batched_commit: false,
            commit_quorum: 1,
            min_epoch: 0,
            probe_backoff: BackoffPolicy::default(),
            concurrent: false,
            commit_slots: 64,
            shard_index: 0,
            shard_count: 0,
            intent_slots: 16,
            decision_slots: 16,
            redo: false,
            redo_segment_bytes: 64 << 10,
            redo_segments: 8,
        }
    }

    /// Sets the local memory cost model.
    pub fn with_mem_cost(mut self, mem_cost: MemCostModel) -> Self {
        self.mem_cost = mem_cost;
        self
    }

    /// Sets the maximum region count.
    ///
    /// # Panics
    ///
    /// Panics if `max_regions` is zero.
    pub fn with_max_regions(mut self, max_regions: usize) -> Self {
        assert!(max_regions > 0, "max_regions must be positive");
        self.max_regions = max_regions;
        self
    }

    /// Sets the initial undo-log capacity.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    pub fn with_initial_undo_capacity(mut self, bytes: usize) -> Self {
        assert!(bytes > 0, "undo capacity must be positive");
        self.initial_undo_capacity = bytes;
        self
    }

    /// Sets the metadata tag (distinct databases sharing one mirror node
    /// need distinct tags).
    pub fn with_meta_tag(mut self, tag: u64) -> Self {
        self.meta_tag = tag;
        self
    }

    /// Enables or disables the aligned-chunk `sci_memcpy` optimisation
    /// (ablation only; leave on for faithful behaviour).
    pub fn with_aligned_memcpy(mut self, aligned: bool) -> Self {
        self.aligned_memcpy = aligned;
        self
    }

    /// Enables or disables the batched, vectored commit pipeline (see the
    /// [`batched_commit`](PerseasConfig::batched_commit) field). Off by
    /// default for faithfulness to the paper's per-range protocol.
    pub fn with_batched_commit(mut self, batched: bool) -> Self {
        self.batched_commit = batched;
        self
    }

    /// Sets the minimum healthy-mirror count for degraded commits. A
    /// quorum equal to the mirror count disables degraded mode entirely
    /// (any mirror failure fails the commit).
    ///
    /// # Panics
    ///
    /// Panics if `quorum` is zero.
    pub fn with_commit_quorum(mut self, quorum: usize) -> Self {
        assert!(quorum > 0, "commit quorum must be positive");
        self.commit_quorum = quorum;
        self
    }

    /// Sets the epoch admission floor for recovery and replica attach.
    pub fn with_min_epoch(mut self, epoch: u64) -> Self {
        self.min_epoch = epoch;
        self
    }

    /// Sets the pacing policy for down-mirror reconnect probes.
    pub fn with_probe_backoff(mut self, policy: BackoffPolicy) -> Self {
        self.probe_backoff = policy;
        self
    }

    /// Enables the concurrent transaction engine (see the
    /// [`concurrent`](PerseasConfig::concurrent) field). Also turns on
    /// the batched commit pipeline, which group commits are built on.
    pub fn with_concurrent(mut self, concurrent: bool) -> Self {
        self.concurrent = concurrent;
        if concurrent {
            self.batched_commit = true;
        }
        self
    }

    /// Enables the REDO-only commit path (see the
    /// [`redo`](PerseasConfig::redo) field). Orthogonal to the
    /// concurrent engine and sharding: group commits append one
    /// coalesced batch, and each shard keeps its own log.
    pub fn with_redo(mut self, redo: bool) -> Self {
        self.redo = redo;
        self
    }

    /// Sets the redo log's segment size and directory slot count.
    ///
    /// # Panics
    ///
    /// Panics if `segment_bytes` is zero or not a multiple of 16 (log
    /// writes must stay line-aligned for packet atomicity), or if
    /// `segments` is zero.
    pub fn with_redo_log(mut self, segment_bytes: usize, segments: usize) -> Self {
        assert!(
            segment_bytes > 0 && segment_bytes.is_multiple_of(16),
            "redo_segment_bytes must be a positive multiple of 16"
        );
        assert!(segments > 0, "redo_segments must be positive");
        self.redo_segment_bytes = segment_bytes;
        self.redo_segments = segments;
        self
    }
}

impl Default for PerseasConfig {
    fn default() -> Self {
        PerseasConfig::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let c = PerseasConfig::new()
            .with_max_regions(8)
            .with_initial_undo_capacity(1024)
            .with_meta_tag(7)
            .with_mem_cost(MemCostModel::free())
            .with_batched_commit(true);
        assert_eq!(c.max_regions, 8);
        assert_eq!(c.initial_undo_capacity, 1024);
        assert_eq!(c.meta_tag, 7);
        assert_eq!(c.mem_cost, MemCostModel::free());
        assert!(c.batched_commit);
    }

    #[test]
    fn batched_commit_defaults_off() {
        assert!(!PerseasConfig::new().batched_commit);
    }

    #[test]
    fn failover_defaults() {
        let c = PerseasConfig::new();
        assert_eq!(c.commit_quorum, 1, "paper: survive any single crash");
        assert_eq!(c.min_epoch, 0, "admit pre-epoch images");
        assert_eq!(c.probe_backoff, BackoffPolicy::default());
    }

    #[test]
    fn failover_builders_chain() {
        let c = PerseasConfig::new()
            .with_commit_quorum(2)
            .with_min_epoch(5)
            .with_probe_backoff(BackoffPolicy::from_millis(2, 8));
        assert_eq!(c.commit_quorum, 2);
        assert_eq!(c.min_epoch, 5);
        assert_eq!(c.probe_backoff, BackoffPolicy::from_millis(2, 8));
    }

    #[test]
    #[should_panic(expected = "quorum")]
    fn zero_quorum_rejected() {
        let _ = PerseasConfig::new().with_commit_quorum(0);
    }

    #[test]
    #[should_panic(expected = "max_regions")]
    fn zero_regions_rejected() {
        let _ = PerseasConfig::new().with_max_regions(0);
    }

    #[test]
    #[should_panic(expected = "undo capacity")]
    fn zero_undo_rejected() {
        let _ = PerseasConfig::new().with_initial_undo_capacity(0);
    }

    #[test]
    fn default_is_new() {
        assert_eq!(PerseasConfig::default(), PerseasConfig::new());
    }

    #[test]
    fn concurrent_defaults_off_and_implies_batched() {
        let c = PerseasConfig::new();
        assert!(!c.concurrent);
        assert_eq!(c.commit_slots, 64);
        let c = PerseasConfig::new().with_concurrent(true);
        assert!(c.concurrent);
        assert!(c.batched_commit, "group commits ride the batched pipeline");
    }

    #[test]
    fn redo_defaults_off_with_segmented_log() {
        let c = PerseasConfig::new();
        assert!(!c.redo, "the undo protocol is the faithful default");
        assert_eq!(c.redo_segment_bytes, 64 << 10);
        assert_eq!(c.redo_segments, 8);
        let c = PerseasConfig::new().with_redo(true).with_redo_log(4096, 4);
        assert!(c.redo);
        assert_eq!(c.redo_segment_bytes, 4096);
        assert_eq!(c.redo_segments, 4);
        // Redo composes with the concurrent engine without disturbing it.
        let c = PerseasConfig::new().with_concurrent(true).with_redo(true);
        assert!(c.concurrent && c.redo && c.batched_commit);
    }

    #[test]
    #[should_panic(expected = "redo_segment_bytes")]
    fn unaligned_redo_segment_rejected() {
        let _ = PerseasConfig::new().with_redo_log(100, 4);
    }

    #[test]
    #[should_panic(expected = "redo_segments")]
    fn zero_redo_segments_rejected() {
        let _ = PerseasConfig::new().with_redo_log(4096, 0);
    }
}
