//! Metrics instrumentation for the transaction engine.
//!
//! [`Perseas::set_metrics`] installs a [`CoreMetrics`] bundle of typed
//! handles into a shared [`Registry`]; every [`TraceEvent`] the engine
//! emits is then mirrored into counters and gauges, and the commit paths
//! record latency histograms in both time bases (virtual [`SimClock`]
//! time and wall-clock time). Without metrics installed the overhead is
//! a single branch per milestone — virtual-time measurements are
//! untouched, which is what keeps the sim-mode bench CSVs byte-identical
//! with the registry off.
//!
//! The metric names registered here are a stable contract; see
//! `docs/OBSERVABILITY.md`.
//!
//! [`Perseas::set_metrics`]: crate::Perseas::set_metrics
//! [`SimClock`]: perseas_simtime::SimClock

use perseas_obs::{Counter, Gauge, Histo, Registry};
use perseas_simtime::SimDuration;

use crate::recovery::RecoveryReport;
use crate::trace::TraceEvent;

/// Typed handles into a [`Registry`] for every engine-level metric.
///
/// Owned by [`Perseas`](crate::Perseas); updated from
/// [`TraceEvent`]s plus a few explicit latency hooks on the commit
/// paths.
pub(crate) struct CoreMetrics {
    registry: Registry,
    /// Shard index of the owning instance, when it is one shard of a
    /// [`crate::ShardedPerseas`] database. Per-mirror gauges then carry a
    /// `shard` label (so shard 0's mirror 0 and shard 1's mirror 0 are
    /// distinct series) and commits are additionally counted into the
    /// shard-labelled `perseas_shard_*` family.
    shard: Option<u16>,
    begun: Counter,
    committed: Counter,
    committed_bytes: Counter,
    aborted: Counter,
    conflicts: Counter,
    quorum_refusals: Counter,
    degraded_commits: Counter,
    group_commits: Counter,
    group_txns: Counter,
    commit_batches: Counter,
    set_ranges: Counter,
    crashes: Counter,
    flush_barriers: Counter,
    flush_posted: Counter,
    flush_bytes: Counter,
    undo_grown: Counter,
    undo_capacity: Gauge,
    epoch: Gauge,
    mirrors: Gauge,
    fenced: Counter,
    rejoins: Counter,
    resync_bytes: Counter,
    commit_wall: Histo,
    commit_virtual: Histo,
    group_commit_wall: Histo,
    group_commit_virtual: Histo,
    snapshots_open: Gauge,
    version_store_bytes: Gauge,
    version_store_versions: Gauge,
    version_evictions: Counter,
    version_evicted_bytes: Counter,
    snapshot_too_old: Counter,
    redo_appends: Counter,
    redo_records: Counter,
    redo_bytes: Counter,
    redo_log_bytes: Gauge,
    redo_segments_opened: Counter,
    redo_segments: Gauge,
    redo_snapshots: Counter,
    redo_snapshot_bytes: Counter,
    redo_compactions: Counter,
    redo_retired_bytes: Counter,
}

impl CoreMetrics {
    pub(crate) fn new(registry: &Registry) -> CoreMetrics {
        let r = registry;
        CoreMetrics {
            registry: r.clone(),
            shard: None,
            begun: r.counter("perseas_txn_begun_total", "Transactions begun."),
            committed: r.counter("perseas_txn_committed_total", "Transactions committed."),
            committed_bytes: r.counter(
                "perseas_txn_committed_bytes_total",
                "Database bytes made durable by committed transactions.",
            ),
            aborted: r.counter("perseas_txn_aborted_total", "Transactions aborted."),
            conflicts: r.counter(
                "perseas_txn_conflicts_total",
                "Range claims refused because another open transaction holds them.",
            ),
            quorum_refusals: r.counter(
                "perseas_txn_quorum_refusals_total",
                "Operations refused because fewer than commit_quorum mirrors are healthy.",
            ),
            degraded_commits: r.counter(
                "perseas_txn_degraded_commits_total",
                "Commits that completed with at least one mirror down.",
            ),
            group_commits: r.counter(
                "perseas_txn_group_commits_total",
                "Group commits (one durability fan-out covering several transactions).",
            ),
            group_txns: r.counter(
                "perseas_txn_group_txns_total",
                "Transactions resolved by group commits.",
            ),
            commit_batches: r.counter(
                "perseas_txn_commit_batches_total",
                "Batched-commit pipelines executed.",
            ),
            set_ranges: r.counter(
                "perseas_txn_set_ranges_total",
                "Before-images logged by set_range.",
            ),
            crashes: r.counter("perseas_txn_crashes_total", "Injected or real crashes."),
            flush_barriers: r.counter(
                "perseas_txn_flush_barriers_total",
                "Ack barriers that confirmed posted work at a durability claim.",
            ),
            flush_posted: r.counter(
                "perseas_txn_flush_posted_total",
                "Posted operations confirmed by ack barriers.",
            ),
            flush_bytes: r.counter(
                "perseas_txn_flush_bytes_total",
                "Posted bytes confirmed by ack barriers.",
            ),
            undo_grown: r.counter(
                "perseas_txn_undo_grown_total",
                "Times the mirrored undo log was grown.",
            ),
            undo_capacity: r.gauge(
                "perseas_undo_capacity_bytes",
                "Current capacity of the mirrored undo log.",
            ),
            epoch: r.gauge(
                "perseas_epoch",
                "Mirror-set epoch (bumped on every membership change).",
            ),
            mirrors: r.gauge(
                "perseas_mirrors",
                "Mirror nodes in the set (healthy or not).",
            ),
            fenced: r.counter(
                "perseas_mirror_fenced_total",
                "Mirrors fenced out of the set after a failed remote operation.",
            ),
            rejoins: r.counter(
                "perseas_mirror_rejoins_total",
                "Mirrors resynced and promoted back to healthy.",
            ),
            resync_bytes: r.counter(
                "perseas_mirror_resync_bytes_total",
                "Region-image bytes streamed to rejoining or newly added mirrors.",
            ),
            commit_wall: r.histogram(
                "perseas_txn_commit_seconds",
                "Wall-clock latency of commit_transaction (legacy path).",
            ),
            commit_virtual: r.histogram(
                "perseas_txn_commit_virtual_seconds",
                "Virtual-time latency of commit_transaction (legacy path).",
            ),
            group_commit_wall: r.histogram(
                "perseas_txn_group_commit_seconds",
                "Wall-clock latency of commit_group.",
            ),
            group_commit_virtual: r.histogram(
                "perseas_txn_group_commit_virtual_seconds",
                "Virtual-time latency of commit_group.",
            ),
            snapshots_open: r.gauge(
                "perseas_snapshots_open",
                "Read snapshots currently open against the version store.",
            ),
            version_store_bytes: r.gauge(
                "perseas_version_store_bytes",
                "Before-image payload bytes retained by the version store.",
            ),
            version_store_versions: r.gauge(
                "perseas_version_store_versions",
                "Committed versions retained by the version store.",
            ),
            version_evictions: r.counter(
                "perseas_version_evictions_total",
                "Versions dropped from the version store: released when the snapshots that needed them closed, or evicted past open ones by the byte/entry budget.",
            ),
            version_evicted_bytes: r.counter(
                "perseas_version_evicted_bytes_total",
                "Before-image payload bytes evicted from the version store.",
            ),
            snapshot_too_old: r.counter(
                "perseas_snapshot_too_old_total",
                "Snapshot reads refused because their versions were evicted.",
            ),
            redo_appends: r.counter(
                "perseas_redo_appends_total",
                "Redo-log append fan-outs (one per commit batch or tombstone).",
            ),
            redo_records: r.counter(
                "perseas_redo_records_total",
                "Records appended to the redo log (after-images and tombstones).",
            ),
            redo_bytes: r.counter(
                "perseas_redo_bytes_total",
                "Encoded bytes appended to the redo log, per mirror.",
            ),
            redo_log_bytes: r.gauge(
                "perseas_redo_log_bytes",
                "Redo-log bytes above the compaction floor (replayed by a restart now).",
            ),
            redo_segments_opened: r.counter(
                "perseas_redo_segments_opened_total",
                "Redo-log segments opened, first allocated or recycled from a retired sequence.",
            ),
            redo_segments: r.gauge(
                "perseas_redo_segments",
                "Live redo-log segments (per mirror).",
            ),
            redo_snapshots: r.counter(
                "perseas_redo_snapshots_total",
                "Redo snapshots taken (dirty ranges shipped, snapshot position advanced).",
            ),
            redo_snapshot_bytes: r.counter(
                "perseas_redo_snapshot_bytes_total",
                "Dirty region bytes shipped by redo snapshots, per mirror.",
            ),
            redo_compactions: r.counter(
                "perseas_redo_compactions_total",
                "Redo-log compaction passes that retired at least one segment.",
            ),
            redo_retired_bytes: r.counter(
                "perseas_redo_retired_bytes_total",
                "Remote redo-log bytes retired by compaction and kept for reuse, per mirror.",
            ),
        }
    }

    /// Tags this bundle with the shard index of its owning instance.
    pub(crate) fn with_shard(mut self, shard: u16) -> CoreMetrics {
        self.shard = Some(shard);
        self
    }

    /// The per-mirror health gauge (1 healthy, 0 suspect/down).
    /// Registration is idempotent, so resolving it on each health event
    /// is cheap enough for a membership-change-rate path.
    fn mirror_healthy(&self, index: usize) -> Gauge {
        let mirror = index.to_string();
        match self.shard {
            None => self.registry.gauge_with(
                "perseas_mirror_healthy",
                "Per-mirror health (1 = healthy and receiving every write).",
                &[("mirror", &mirror)],
            ),
            Some(shard) => self.registry.gauge_with(
                "perseas_shard_mirror_healthy",
                "Per-mirror health of one shard's mirror set (1 = healthy).",
                &[("shard", &shard.to_string()), ("mirror", &mirror)],
            ),
        }
    }

    /// A shard-labelled counter of the `perseas_shard_*` family, resolved
    /// only when the bundle is shard-tagged.
    fn shard_counter(&self, name: &'static str, help: &'static str) -> Option<Counter> {
        self.shard.map(|s| {
            self.registry
                .counter_with(name, help, &[("shard", &s.to_string())])
        })
    }

    /// Seeds the membership gauges at installation time.
    pub(crate) fn seed(&self, epoch: u64, mirror_healthy: &[bool], undo_capacity: usize) {
        self.epoch.set(epoch as i64);
        self.mirrors.set(mirror_healthy.len() as i64);
        self.undo_capacity.set(undo_capacity as i64);
        for (i, &healthy) in mirror_healthy.iter().enumerate() {
            self.mirror_healthy(i).set(healthy as i64);
        }
    }

    /// Mirrors one trace event into the counters and gauges.
    pub(crate) fn observe(&self, event: &TraceEvent) {
        match event {
            TraceEvent::TxnBegin { .. } => self.begun.inc(),
            TraceEvent::SetRange { .. } => self.set_ranges.inc(),
            TraceEvent::UndoGrown { new_capacity } => {
                self.undo_grown.inc();
                self.undo_capacity.set(*new_capacity as i64);
            }
            TraceEvent::CommitBatch { .. } => self.commit_batches.inc(),
            TraceEvent::TxnCommitted { bytes, .. } => {
                self.committed.inc();
                self.committed_bytes.add(*bytes as u64);
                if let Some(c) = self.shard_counter(
                    "perseas_shard_txn_committed_total",
                    "Transactions committed, per shard.",
                ) {
                    c.inc();
                }
            }
            TraceEvent::TxnAborted { .. } => self.aborted.inc(),
            TraceEvent::MirrorAdded { index } => {
                self.mirrors.add(1);
                self.mirror_healthy(*index).set(1);
            }
            TraceEvent::MirrorRemoved { index } => {
                self.mirrors.add(-1);
                self.mirror_healthy(*index).set(0);
            }
            TraceEvent::MirrorDown { index, .. } => {
                self.fenced.inc();
                self.mirror_healthy(*index).set(0);
            }
            TraceEvent::MirrorRejoined { index, .. } => {
                self.rejoins.inc();
                self.mirror_healthy(*index).set(1);
            }
            TraceEvent::EpochBump { epoch } => self.epoch.set(*epoch as i64),
            TraceEvent::DegradedCommit { .. } => self.degraded_commits.inc(),
            TraceEvent::TxnConflict { .. } => self.conflicts.inc(),
            // The concurrent engine traces every commit fan-out as a
            // GroupCommit, including single-transaction ones from the
            // legacy facade; the metric only counts genuine groups.
            TraceEvent::GroupCommit { txns, .. } if txns.len() > 1 => {
                self.group_commits.inc();
                self.group_txns.add(txns.len() as u64);
            }
            TraceEvent::GroupCommit { .. } => {}
            TraceEvent::Flush { posted, bytes } => {
                self.flush_barriers.inc();
                self.flush_posted.add(*posted as u64);
                self.flush_bytes.add(*bytes as u64);
            }
            TraceEvent::Crashed => self.crashes.inc(),
            TraceEvent::CrossShardPrepared { .. } => {
                if let Some(c) = self.shard_counter(
                    "perseas_shard_prepares_total",
                    "Cross-shard transaction parts prepared, per shard.",
                ) {
                    c.inc();
                }
            }
            TraceEvent::CrossShardDecision { .. } => {
                if let Some(c) = self.shard_counter(
                    "perseas_shard_decisions_total",
                    "Cross-shard decision records written, per home shard.",
                ) {
                    c.inc();
                }
            }
            TraceEvent::CrossShardCommitted { shards, .. } => {
                if let Some(c) = self.shard_counter(
                    "perseas_shard_cross_commits_total",
                    "Cross-shard transactions fully committed, per home shard.",
                ) {
                    c.inc();
                }
                if let Some(c) = self.shard_counter(
                    "perseas_shard_cross_commit_parts_total",
                    "Participant parts resolved by cross-shard commits.",
                ) {
                    c.add(*shards as u64);
                }
            }
            TraceEvent::CrossShardResolved { committed, .. } => {
                let name = if *committed {
                    "perseas_shard_resolved_commits_total"
                } else {
                    "perseas_shard_resolved_aborts_total"
                };
                if let Some(c) = self.shard_counter(
                    name,
                    "In-doubt prepared parts resolved by recovery, per shard.",
                ) {
                    c.inc();
                }
            }
            TraceEvent::SnapshotBegin { open, .. } | TraceEvent::SnapshotEnd { open, .. } => {
                self.snapshots_open.set(*open as i64);
            }
            TraceEvent::SnapshotTooOld { .. } => self.snapshot_too_old.inc(),
            TraceEvent::VersionCaptured {
                bytes, versions, ..
            } => {
                self.version_store_bytes.set(*bytes as i64);
                self.version_store_versions.set(*versions as i64);
            }
            TraceEvent::VersionEvicted {
                versions,
                bytes,
                store_bytes,
                store_versions,
                ..
            } => {
                self.version_evictions.add(*versions as u64);
                self.version_evicted_bytes.add(*bytes as u64);
                self.version_store_bytes.set(*store_bytes as i64);
                self.version_store_versions.set(*store_versions as i64);
            }
            TraceEvent::RedoAppend {
                records,
                bytes,
                live_bytes,
                ..
            } => {
                self.redo_appends.inc();
                self.redo_records.add(*records as u64);
                self.redo_bytes.add(*bytes as u64);
                self.redo_log_bytes.set(*live_bytes as i64);
            }
            TraceEvent::RedoSegmentOpened { live, .. } => {
                self.redo_segments_opened.inc();
                self.redo_segments.set(*live as i64);
            }
            TraceEvent::RedoSnapshot { bytes, .. } => {
                self.redo_snapshots.inc();
                self.redo_snapshot_bytes.add(*bytes as u64);
                // The snapshot covers the whole tail: nothing is left to
                // replay until the next append.
                self.redo_log_bytes.set(0);
            }
            TraceEvent::RedoCompacted {
                retired_bytes,
                live,
                ..
            } => {
                self.redo_compactions.inc();
                self.redo_retired_bytes.add(*retired_bytes as u64);
                self.redo_segments.set(*live as i64);
            }
        }
    }

    pub(crate) fn quorum_refusal(&self) {
        self.quorum_refusals.inc();
    }

    pub(crate) fn resynced(&self, bytes: usize) {
        self.resync_bytes.add(bytes as u64);
    }

    pub(crate) fn record_commit(&self, virtual_time: SimDuration, wall: std::time::Duration) {
        self.commit_virtual.record_sim(virtual_time);
        self.commit_wall.record_wall(wall);
    }

    pub(crate) fn record_group_commit(&self, virtual_time: SimDuration, wall: std::time::Duration) {
        self.group_commit_virtual.record_sim(virtual_time);
        self.group_commit_wall.record_wall(wall);
    }
}

/// Records a completed [`recovery`](crate::Perseas::recover) into
/// `registry`. Recovery constructs the instance, so it cannot run under
/// an installed [`Perseas::set_metrics`](crate::Perseas::set_metrics)
/// bundle — callers record the report explicitly instead.
pub fn record_recovery(registry: &Registry, report: &RecoveryReport) {
    registry
        .counter("perseas_recovery_runs_total", "Recoveries performed.")
        .inc();
    registry
        .counter(
            "perseas_recovery_rolled_back_txns_total",
            "In-flight transactions rolled back during recovery.",
        )
        .add(report.rolled_back_txns.len() as u64);
    registry
        .counter(
            "perseas_recovery_rolled_back_records_total",
            "Undo records applied during recovery rollback.",
        )
        .add(report.rolled_back_records as u64);
    registry
        .counter(
            "perseas_recovery_bytes_total",
            "Bytes copied remote-to-local to rebuild the database.",
        )
        .add(report.bytes_recovered as u64);
    registry
        .counter(
            "perseas_recovery_replayed_records_total",
            "Committed redo records replayed during recovery (redo mode).",
        )
        .add(report.replayed_records as u64);
    registry
        .counter(
            "perseas_recovery_replayed_bytes_total",
            "After-image bytes replayed from the redo log during recovery.",
        )
        .add(report.replayed_bytes as u64);
    registry
        .histogram(
            "perseas_recovery_replay_virtual_seconds",
            "Virtual-time duration of the redo replay phase of recovery.",
        )
        .record_sim(SimDuration::from_nanos(report.replay_virtual_nanos));
    registry
        .gauge(
            "perseas_epoch",
            "Mirror-set epoch (bumped on every membership change).",
        )
        .set(report.epoch as i64);
}

/// Records a completed [`crate::ShardedPerseas::recover`] into
/// `registry`: one [`record_recovery`] per shard report plus the
/// in-doubt resolutions the coordinator layer performed.
pub fn record_shard_recovery(registry: &Registry, report: &crate::ShardRecoveryReport) {
    for (shard, shard_report) in report.shards.iter().enumerate() {
        record_recovery(registry, shard_report);
        let label = shard.to_string();
        registry
            .counter_with(
                "perseas_shard_resolved_commits_total",
                "In-doubt prepared parts resolved by recovery, per shard.",
                &[("shard", &label)],
            )
            .add(report.resolved_commits[shard] as u64);
        registry
            .counter_with(
                "perseas_shard_resolved_aborts_total",
                "In-doubt prepared parts resolved by recovery, per shard.",
                &[("shard", &label)],
            )
            .add(report.resolved_aborts[shard] as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perseas_obs::parse_exposition;

    fn value(registry: &Registry, name: &str) -> f64 {
        parse_exposition(&registry.render())
            .unwrap()
            .into_iter()
            .find(|s| s.name == name && s.label("quantile").is_none())
            .map(|s| s.value)
            .unwrap_or(f64::NAN)
    }

    #[test]
    fn events_map_onto_counters() {
        let registry = Registry::new();
        let m = CoreMetrics::new(&registry);
        m.seed(3, &[true, true], 4096);
        m.observe(&TraceEvent::TxnBegin { id: 1 });
        m.observe(&TraceEvent::TxnCommitted {
            id: 1,
            ranges: 2,
            bytes: 300,
        });
        m.observe(&TraceEvent::MirrorDown {
            index: 1,
            error: "cut".into(),
        });
        m.observe(&TraceEvent::DegradedCommit {
            id: 2,
            healthy: 1,
            mirrors: 2,
        });
        m.observe(&TraceEvent::EpochBump { epoch: 4 });
        m.observe(&TraceEvent::GroupCommit {
            txns: (1..=8).collect(),
            ranges: 8,
            bytes: 8192,
            undo_bytes: 9000,
        });
        m.record_commit(
            SimDuration::from_micros(100),
            std::time::Duration::from_micros(80),
        );
        assert_eq!(value(&registry, "perseas_txn_begun_total"), 1.0);
        assert_eq!(value(&registry, "perseas_txn_committed_total"), 1.0);
        assert_eq!(value(&registry, "perseas_txn_committed_bytes_total"), 300.0);
        assert_eq!(value(&registry, "perseas_mirror_fenced_total"), 1.0);
        assert_eq!(value(&registry, "perseas_txn_degraded_commits_total"), 1.0);
        assert_eq!(value(&registry, "perseas_epoch"), 4.0);
        assert_eq!(value(&registry, "perseas_txn_group_txns_total"), 8.0);
        assert_eq!(value(&registry, "perseas_mirrors"), 2.0);
        assert_eq!(
            value(&registry, "perseas_txn_commit_virtual_seconds_count"),
            1.0
        );
        // The per-mirror gauge flipped for mirror 1 and stayed up for 0.
        let samples = parse_exposition(&registry.render()).unwrap();
        let health: Vec<(String, f64)> = samples
            .iter()
            .filter(|s| s.name == "perseas_mirror_healthy")
            .map(|s| (s.label("mirror").unwrap().to_string(), s.value))
            .collect();
        assert!(health.contains(&("0".to_string(), 1.0)));
        assert!(health.contains(&("1".to_string(), 0.0)));
    }

    #[test]
    fn recovery_report_is_recordable() {
        let registry = Registry::new();
        let report = RecoveryReport {
            last_committed: 7,
            epoch: 9,
            rolled_back_txn: Some(8),
            rolled_back_txns: vec![8, 9],
            rolled_back_records: 5,
            regions: 2,
            bytes_recovered: 8192,
            replayed_records: 3,
            replayed_bytes: 640,
            replay_virtual_nanos: 1200,
        };
        record_recovery(&registry, &report);
        record_recovery(&registry, &report);
        assert_eq!(value(&registry, "perseas_recovery_runs_total"), 2.0);
        assert_eq!(
            value(&registry, "perseas_recovery_rolled_back_txns_total"),
            4.0
        );
        assert_eq!(value(&registry, "perseas_recovery_bytes_total"), 16384.0);
        assert_eq!(value(&registry, "perseas_epoch"), 9.0);
    }
}
