//! Structured JSONL tracing: adapts the [`TraceEvent`] stream onto a
//! [`JsonlSink`].
//!
//! Every line carries the sink's monotonic `seq`, a `kind`, and the
//! event's identifying fields (`txn`, `mirror`, `epoch`, byte counts).
//! Transaction-resolution events additionally carry a wall-clock
//! `duration_us` measured from the matching `txn_begin`, so a trace can
//! be analysed for latency without replaying it.

use std::collections::HashMap;
use std::time::Instant;

use perseas_obs::{Json, JsonlSink};

use crate::trace::{TraceEvent, Tracer};

/// A [`Tracer`] writing one JSON object per [`TraceEvent`].
///
/// ```
/// use perseas_core::{JsonlTracer, Perseas, PerseasConfig, TransactionalMemory};
/// use perseas_obs::JsonlSink;
/// use perseas_rnram::SimRemote;
///
/// # fn main() -> Result<(), perseas_txn::TxnError> {
/// let sink = JsonlSink::in_memory();
/// let mut db = Perseas::init(vec![SimRemote::new("m")], PerseasConfig::default())?;
/// db.set_tracer(Box::new(JsonlTracer::new(sink.clone())));
/// let r = db.malloc(64)?;
/// db.init_remote_db()?;
/// db.transaction(|t| t.update(r, 0, &[7; 8]))?;
/// assert!(sink.lines().iter().any(|l| l.contains("\"kind\":\"txn_committed\"")));
/// # Ok(())
/// # }
/// ```
pub struct JsonlTracer {
    sink: JsonlSink,
    /// Wall-clock begin instants of open transactions, for `duration_us`
    /// on the matching resolution event.
    begun: HashMap<u64, Instant>,
}

impl JsonlTracer {
    /// Wraps a sink. The sink may be shared (cloned) with other writers;
    /// sequence numbers stay totally ordered across all of them.
    pub fn new(sink: JsonlSink) -> JsonlTracer {
        JsonlTracer {
            sink,
            begun: HashMap::new(),
        }
    }

    fn duration_of(&mut self, id: u64) -> Option<Json> {
        self.begun
            .remove(&id)
            .map(|t0| Json::UInt(t0.elapsed().as_micros().min(u64::MAX as u128) as u64))
    }
}

impl Tracer for JsonlTracer {
    fn event(&mut self, event: &TraceEvent) {
        let (kind, mut fields): (&str, Vec<(&str, Json)>) = match event {
            TraceEvent::TxnBegin { id } => {
                self.begun.insert(*id, Instant::now());
                ("txn_begin", vec![("txn", Json::UInt(*id))])
            }
            TraceEvent::SetRange {
                id,
                region,
                offset,
                len,
            } => (
                "set_range",
                vec![
                    ("txn", Json::UInt(*id)),
                    ("region", Json::UInt(*region as u64)),
                    ("offset", Json::UInt(*offset as u64)),
                    ("len", Json::UInt(*len as u64)),
                ],
            ),
            TraceEvent::UndoGrown { new_capacity } => (
                "undo_grown",
                vec![("new_capacity", Json::UInt(*new_capacity as u64))],
            ),
            TraceEvent::CommitBatch {
                id,
                mirrors,
                ranges,
                bytes,
                undo_bytes,
            } => (
                "commit_batch",
                vec![
                    ("txn", Json::UInt(*id)),
                    ("mirrors", Json::UInt(*mirrors as u64)),
                    ("ranges", Json::UInt(*ranges as u64)),
                    ("bytes", Json::UInt(*bytes as u64)),
                    ("undo_bytes", Json::UInt(*undo_bytes as u64)),
                ],
            ),
            TraceEvent::TxnCommitted { id, ranges, bytes } => (
                "txn_committed",
                vec![
                    ("txn", Json::UInt(*id)),
                    ("ranges", Json::UInt(*ranges as u64)),
                    ("bytes", Json::UInt(*bytes as u64)),
                ],
            ),
            TraceEvent::TxnAborted { id } => ("txn_aborted", vec![("txn", Json::UInt(*id))]),
            TraceEvent::MirrorAdded { index } => {
                ("mirror_added", vec![("mirror", Json::UInt(*index as u64))])
            }
            TraceEvent::MirrorRemoved { index } => (
                "mirror_removed",
                vec![("mirror", Json::UInt(*index as u64))],
            ),
            TraceEvent::MirrorDown { index, error } => (
                "mirror_down",
                vec![
                    ("mirror", Json::UInt(*index as u64)),
                    ("error", Json::str(error.clone())),
                ],
            ),
            TraceEvent::MirrorRejoined { index, epoch } => (
                "mirror_rejoined",
                vec![
                    ("mirror", Json::UInt(*index as u64)),
                    ("epoch", Json::UInt(*epoch)),
                ],
            ),
            TraceEvent::EpochBump { epoch } => ("epoch_bump", vec![("epoch", Json::UInt(*epoch))]),
            TraceEvent::DegradedCommit {
                id,
                healthy,
                mirrors,
            } => (
                "degraded_commit",
                vec![
                    ("txn", Json::UInt(*id)),
                    ("healthy", Json::UInt(*healthy as u64)),
                    ("mirrors", Json::UInt(*mirrors as u64)),
                ],
            ),
            TraceEvent::TxnConflict {
                id,
                holder,
                region,
                offset,
                len,
            } => (
                "txn_conflict",
                vec![
                    ("txn", Json::UInt(*id)),
                    ("holder", Json::UInt(*holder)),
                    ("region", Json::UInt(*region as u64)),
                    ("offset", Json::UInt(*offset as u64)),
                    ("len", Json::UInt(*len as u64)),
                ],
            ),
            TraceEvent::GroupCommit {
                txns,
                ranges,
                bytes,
                undo_bytes,
            } => (
                "group_commit",
                vec![
                    (
                        "txns",
                        Json::Array(txns.iter().map(|&id| Json::UInt(id)).collect()),
                    ),
                    ("ranges", Json::UInt(*ranges as u64)),
                    ("bytes", Json::UInt(*bytes as u64)),
                    ("undo_bytes", Json::UInt(*undo_bytes as u64)),
                ],
            ),
            TraceEvent::Flush { posted, bytes } => (
                "flush",
                vec![
                    ("posted", Json::UInt(*posted as u64)),
                    ("bytes", Json::UInt(*bytes as u64)),
                ],
            ),
            TraceEvent::Crashed => {
                self.begun.clear();
                ("crashed", vec![])
            }
            TraceEvent::CrossShardPrepared { global, shard, txn } => (
                "cross_shard_prepared",
                vec![
                    ("global", Json::UInt(*global)),
                    ("shard", Json::UInt(*shard as u64)),
                    ("txn", Json::UInt(*txn)),
                ],
            ),
            TraceEvent::CrossShardDecision {
                global,
                home,
                shards,
            } => (
                "cross_shard_decision",
                vec![
                    ("global", Json::UInt(*global)),
                    ("home", Json::UInt(*home as u64)),
                    ("shards", Json::UInt(*shards as u64)),
                ],
            ),
            TraceEvent::CrossShardCommitted { global, shards } => (
                "cross_shard_committed",
                vec![
                    ("global", Json::UInt(*global)),
                    ("shards", Json::UInt(*shards as u64)),
                ],
            ),
            TraceEvent::CrossShardResolved {
                global,
                shard,
                committed,
            } => (
                "cross_shard_resolved",
                vec![
                    ("global", Json::UInt(*global)),
                    ("shard", Json::UInt(*shard as u64)),
                    ("committed", Json::Bool(*committed)),
                ],
            ),
            TraceEvent::SnapshotBegin { id, read_seq, open } => (
                "snapshot_begin",
                vec![
                    ("snapshot", Json::UInt(*id)),
                    ("read_seq", Json::UInt(*read_seq)),
                    ("open", Json::UInt(*open as u64)),
                ],
            ),
            TraceEvent::SnapshotEnd { id, open } => (
                "snapshot_end",
                vec![
                    ("snapshot", Json::UInt(*id)),
                    ("open", Json::UInt(*open as u64)),
                ],
            ),
            TraceEvent::SnapshotTooOld {
                id,
                read_seq,
                floor_seq,
            } => (
                "snapshot_too_old",
                vec![
                    ("snapshot", Json::UInt(*id)),
                    ("read_seq", Json::UInt(*read_seq)),
                    ("floor_seq", Json::UInt(*floor_seq)),
                ],
            ),
            TraceEvent::VersionCaptured {
                seq,
                txn,
                bytes,
                versions,
            } => (
                "version_captured",
                vec![
                    ("commit_seq", Json::UInt(*seq)),
                    ("txn", Json::UInt(*txn)),
                    ("store_bytes", Json::UInt(*bytes as u64)),
                    ("store_versions", Json::UInt(*versions as u64)),
                ],
            ),
            TraceEvent::VersionEvicted {
                versions,
                bytes,
                floor_seq,
                store_bytes,
                store_versions,
            } => (
                "version_evicted",
                vec![
                    ("versions", Json::UInt(*versions as u64)),
                    ("bytes", Json::UInt(*bytes as u64)),
                    ("floor_seq", Json::UInt(*floor_seq)),
                    ("store_bytes", Json::UInt(*store_bytes as u64)),
                    ("store_versions", Json::UInt(*store_versions as u64)),
                ],
            ),
            TraceEvent::RedoAppend {
                records,
                bytes,
                tail,
                live_bytes,
            } => (
                "redo_append",
                vec![
                    ("records", Json::UInt(*records as u64)),
                    ("bytes", Json::UInt(*bytes as u64)),
                    ("tail", Json::UInt(*tail)),
                    ("live_bytes", Json::UInt(*live_bytes)),
                ],
            ),
            TraceEvent::RedoSegmentOpened { seq, slot, live } => (
                "redo_segment_opened",
                vec![
                    ("segment_seq", Json::UInt(*seq)),
                    ("slot", Json::UInt(*slot as u64)),
                    ("live", Json::UInt(*live as u64)),
                ],
            ),
            TraceEvent::RedoSnapshot { tail, bytes } => (
                "redo_snapshot",
                vec![
                    ("tail", Json::UInt(*tail)),
                    ("bytes", Json::UInt(*bytes as u64)),
                ],
            ),
            TraceEvent::RedoCompacted {
                segments,
                retired_bytes,
                live,
            } => (
                "redo_compacted",
                vec![
                    ("segments", Json::UInt(*segments as u64)),
                    ("retired_bytes", Json::UInt(*retired_bytes as u64)),
                    ("live", Json::UInt(*live as u64)),
                ],
            ),
        };
        match event {
            TraceEvent::TxnCommitted { id, .. } | TraceEvent::TxnAborted { id } => {
                if let Some(d) = self.duration_of(*id) {
                    fields.push(("duration_us", d));
                }
            }
            _ => {}
        }
        self.sink.emit(kind, fields);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_become_jsonl_with_durations() {
        let sink = JsonlSink::in_memory();
        let mut tracer = JsonlTracer::new(sink.clone());
        tracer.event(&TraceEvent::TxnBegin { id: 9 });
        tracer.event(&TraceEvent::SetRange {
            id: 9,
            region: 0,
            offset: 16,
            len: 8,
        });
        tracer.event(&TraceEvent::TxnCommitted {
            id: 9,
            ranges: 1,
            bytes: 8,
        });
        tracer.event(&TraceEvent::TxnAborted { id: 10 });
        let lines = sink.lines();
        assert_eq!(lines.len(), 4);
        let committed = Json::parse(&lines[2]).unwrap();
        assert_eq!(
            committed.get("kind").unwrap().as_str(),
            Some("txn_committed")
        );
        assert_eq!(committed.get("txn").unwrap().as_f64(), Some(9.0));
        assert!(committed.get("duration_us").is_some(), "begin was tracked");
        // An abort with no tracked begin has no duration.
        let aborted = Json::parse(&lines[3]).unwrap();
        assert!(aborted.get("duration_us").is_none());
        // Sequence numbers are the line index.
        for (i, line) in lines.iter().enumerate() {
            let v = Json::parse(line).unwrap();
            assert_eq!(v.get("seq").unwrap().as_f64(), Some(i as f64));
        }
    }

    #[test]
    fn group_commit_carries_member_ids() {
        let sink = JsonlSink::in_memory();
        let mut tracer = JsonlTracer::new(sink.clone());
        tracer.event(&TraceEvent::GroupCommit {
            txns: vec![3, 4, 5],
            ranges: 2,
            bytes: 64,
            undo_bytes: 96,
        });
        let v = Json::parse(&sink.lines()[0]).unwrap();
        let ids = v.get("txns").unwrap().as_array().unwrap();
        assert_eq!(ids.len(), 3);
        assert_eq!(ids[0].as_f64(), Some(3.0));
    }

    /// One event of every variant. `variant` below matches exhaustively,
    /// so a new variant does not compile until it is numbered there, and
    /// the test then fails until it is listed here.
    fn one_of_each() -> Vec<TraceEvent> {
        vec![
            TraceEvent::TxnBegin { id: 1 },
            TraceEvent::SetRange {
                id: 1,
                region: 2,
                offset: 3,
                len: 4,
            },
            TraceEvent::UndoGrown { new_capacity: 5 },
            TraceEvent::CommitBatch {
                id: 1,
                mirrors: 2,
                ranges: 3,
                bytes: 4,
                undo_bytes: 5,
            },
            TraceEvent::TxnCommitted {
                id: 1,
                ranges: 2,
                bytes: 3,
            },
            TraceEvent::TxnAborted { id: 2 },
            TraceEvent::MirrorAdded { index: 1 },
            TraceEvent::MirrorRemoved { index: 1 },
            TraceEvent::MirrorDown {
                index: 1,
                error: "cut".into(),
            },
            TraceEvent::MirrorRejoined { index: 1, epoch: 2 },
            TraceEvent::EpochBump { epoch: 3 },
            TraceEvent::DegradedCommit {
                id: 3,
                healthy: 1,
                mirrors: 2,
            },
            TraceEvent::TxnConflict {
                id: 4,
                holder: 5,
                region: 0,
                offset: 1,
                len: 2,
            },
            TraceEvent::GroupCommit {
                txns: vec![6, 7],
                ranges: 1,
                bytes: 2,
                undo_bytes: 3,
            },
            TraceEvent::Flush {
                posted: 1,
                bytes: 2,
            },
            TraceEvent::Crashed,
            TraceEvent::CrossShardPrepared {
                global: 1,
                shard: 2,
                txn: 3,
            },
            TraceEvent::CrossShardDecision {
                global: 1,
                home: 0,
                shards: 2,
            },
            TraceEvent::CrossShardCommitted {
                global: 1,
                shards: 2,
            },
            TraceEvent::CrossShardResolved {
                global: 1,
                shard: 2,
                committed: true,
            },
            TraceEvent::SnapshotBegin {
                id: 1,
                read_seq: 2,
                open: 1,
            },
            TraceEvent::SnapshotEnd { id: 1, open: 0 },
            TraceEvent::SnapshotTooOld {
                id: 1,
                read_seq: 2,
                floor_seq: 3,
            },
            TraceEvent::VersionCaptured {
                seq: 4,
                txn: 5,
                bytes: 6,
                versions: 7,
            },
            TraceEvent::VersionEvicted {
                versions: 1,
                bytes: 2,
                floor_seq: 3,
                store_bytes: 4,
                store_versions: 5,
            },
            TraceEvent::RedoAppend {
                records: 1,
                bytes: 2,
                tail: 3,
                live_bytes: 4,
            },
            TraceEvent::RedoSegmentOpened {
                seq: 8,
                slot: 0,
                live: 1,
            },
            TraceEvent::RedoSnapshot { tail: 3, bytes: 4 },
            TraceEvent::RedoCompacted {
                segments: 1,
                retired_bytes: 2,
                live: 3,
            },
        ]
    }

    fn variant(event: &TraceEvent) -> usize {
        match event {
            TraceEvent::TxnBegin { .. } => 0,
            TraceEvent::SetRange { .. } => 1,
            TraceEvent::UndoGrown { .. } => 2,
            TraceEvent::CommitBatch { .. } => 3,
            TraceEvent::TxnCommitted { .. } => 4,
            TraceEvent::TxnAborted { .. } => 5,
            TraceEvent::MirrorAdded { .. } => 6,
            TraceEvent::MirrorRemoved { .. } => 7,
            TraceEvent::MirrorDown { .. } => 8,
            TraceEvent::MirrorRejoined { .. } => 9,
            TraceEvent::EpochBump { .. } => 10,
            TraceEvent::DegradedCommit { .. } => 11,
            TraceEvent::TxnConflict { .. } => 12,
            TraceEvent::GroupCommit { .. } => 13,
            TraceEvent::Flush { .. } => 14,
            TraceEvent::Crashed => 15,
            TraceEvent::CrossShardPrepared { .. } => 16,
            TraceEvent::CrossShardDecision { .. } => 17,
            TraceEvent::CrossShardCommitted { .. } => 18,
            TraceEvent::CrossShardResolved { .. } => 19,
            TraceEvent::SnapshotBegin { .. } => 20,
            TraceEvent::SnapshotEnd { .. } => 21,
            TraceEvent::SnapshotTooOld { .. } => 22,
            TraceEvent::VersionCaptured { .. } => 23,
            TraceEvent::VersionEvicted { .. } => 24,
            TraceEvent::RedoAppend { .. } => 25,
            TraceEvent::RedoSegmentOpened { .. } => 26,
            TraceEvent::RedoSnapshot { .. } => 27,
            TraceEvent::RedoCompacted { .. } => 28,
        }
    }

    #[test]
    fn every_kind_of_line_names_each_key_once() {
        let events = one_of_each();
        let mut listed: Vec<usize> = events.iter().map(variant).collect();
        listed.sort_unstable();
        assert_eq!(listed, (0..29).collect::<Vec<_>>(), "one event per variant");

        let sink = JsonlSink::in_memory();
        let mut tracer = JsonlTracer::new(sink.clone());
        for event in &events {
            tracer.event(event);
        }
        let lines = sink.lines();
        assert_eq!(lines.len(), events.len());
        for (i, line) in lines.iter().enumerate() {
            let v = Json::parse(line).unwrap();
            let mut keys: Vec<&str> = v
                .as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            keys.sort_unstable();
            let before = keys.len();
            keys.dedup();
            assert_eq!(keys.len(), before, "a key repeats in {line}");
            assert_eq!(v.get("seq").unwrap().as_f64(), Some(i as f64), "{line}");
        }
        let opened = Json::parse(&lines[26]).unwrap();
        assert_eq!(opened.get("segment_seq").unwrap().as_f64(), Some(8.0));
        let captured = Json::parse(&lines[23]).unwrap();
        assert_eq!(captured.get("commit_seq").unwrap().as_f64(), Some(4.0));
    }
}
