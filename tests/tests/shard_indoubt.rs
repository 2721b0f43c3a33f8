//! In-doubt resolution regressions for the cross-shard commit.
//!
//! The staged phase methods (`prepare_parts` → `write_intents` →
//! `write_decision` → `fan_out_commits`) let these tests park a
//! cross-shard transaction at an exact protocol boundary and kill the
//! coordinator there. Recovery must then resolve the prepared,
//! in-doubt parts from durable state alone: no decision record means
//! presumed abort on every shard; a durable decision record means the
//! commit is finished on every shard — even when a shard's mirror set
//! is degraded — and the [`ShardRecoveryReport`] must account for every
//! resolution.
//!
//! [`ShardRecoveryReport`]: perseas_core::ShardRecoveryReport

use std::sync::{Arc, Mutex};

use perseas_core::{
    GlobalToken, MetaHeader, PerseasConfig, RegionId, ShardedPerseas, TxnError, META_TAG,
};
use perseas_integration::shard_harness::{build_sharded, pre_image, reopen_sharded};
use perseas_rnram::{FlushStats, RemoteMemory, RemoteSegment, RnError, SimRemote};
use perseas_sci::SegmentId;
use perseas_simtime::SimClock;

const K: usize = 3;
const FILL: u8 = 0xE7;

/// Opens a cross-shard transaction writing `[FILL; 24]` at offset 16 of
/// every shard's region and returns it still open.
fn stage_writes(db: &mut ShardedPerseas<SimRemote>, regions: &[RegionId]) -> GlobalToken {
    let g = db.begin_global().unwrap();
    for &r in regions {
        db.set_range_g(g, r, 16, 24).unwrap();
        db.write_g(g, r, 16, &[FILL; 24]).unwrap();
    }
    g
}

fn post_image(s: usize) -> Vec<u8> {
    let mut img = pre_image(s);
    img[16..40].fill(FILL);
    img
}

fn assert_all<M: RemoteMemory>(
    db: &ShardedPerseas<M>,
    regions: &[RegionId],
    image: fn(usize) -> Vec<u8>,
) {
    for (s, &r) in regions.iter().enumerate() {
        assert_eq!(
            db.region_snapshot(r).unwrap(),
            image(s),
            "shard {s} holds the wrong image"
        );
    }
}

/// Coordinator death after every part is prepared and every intent slot
/// is durable, but before the decision record: presumed abort. Recovery
/// rolls the prepared parts back on all three shards and reports one
/// resolved abort per shard.
#[test]
fn death_before_the_decision_aborts_everywhere() {
    let (mut db, regions, cluster) = build_sharded(K, 2);
    let g = stage_writes(&mut db, &regions);
    db.prepare_parts(g).unwrap();
    db.write_intents(g).unwrap();
    db.crash();

    let (db2, report) =
        ShardedPerseas::recover(reopen_sharded(&cluster), PerseasConfig::default()).unwrap();
    assert_eq!(
        report.resolved_aborts,
        vec![1; K],
        "one in-doubt part per shard"
    );
    assert_eq!(report.resolved_commits, vec![0; K]);
    assert_all(&db2, &regions, pre_image);
}

/// Coordinator death after the decision record is durable but before
/// any commit record of the fan-out: the transaction *is* committed.
/// Recovery finishes the fan-out on all three shards and reports one
/// resolved commit per shard.
#[test]
fn death_after_the_decision_commits_everywhere() {
    let (mut db, regions, cluster) = build_sharded(K, 2);
    let g = stage_writes(&mut db, &regions);
    db.prepare_parts(g).unwrap();
    db.write_intents(g).unwrap();
    db.write_decision(g).unwrap();
    db.crash();

    let (db2, report) =
        ShardedPerseas::recover(reopen_sharded(&cluster), PerseasConfig::default()).unwrap();
    assert_eq!(
        report.resolved_commits,
        vec![1; K],
        "one in-doubt part per shard"
    );
    assert_eq!(report.resolved_aborts, vec![0; K]);
    assert_all(&db2, &regions, post_image);
}

/// Same death point, but the cluster recovers degraded: the home shard
/// lost one mirror and another shard lost the other. The decision
/// record and the prepared parts live on every healthy mirror, so the
/// surviving ones are enough to finish the commit.
#[test]
fn degraded_shards_still_resolve_from_the_decision_record() {
    let (mut db, regions, cluster) = build_sharded(K, 2);
    let g = stage_writes(&mut db, &regions);
    db.prepare_parts(g).unwrap();
    db.write_intents(g).unwrap();
    db.write_decision(g).unwrap();
    db.crash();

    let mut backends = reopen_sharded(&cluster);
    backends[0].remove(1); // home shard: one mirror gone
    backends[2].remove(0); // another shard: the other mirror gone
    let (db2, report) = ShardedPerseas::recover(backends, PerseasConfig::default()).unwrap();
    assert_eq!(report.resolved_commits, vec![1; K]);
    assert_all(&db2, &regions, post_image);
}

/// And the mirror image: a degraded cluster with *no* decision record
/// must still abort everywhere — losing a mirror never flips a
/// presumed abort into a commit.
#[test]
fn degraded_shards_still_presume_abort_without_a_decision() {
    let (mut db, regions, cluster) = build_sharded(K, 2);
    let g = stage_writes(&mut db, &regions);
    db.prepare_parts(g).unwrap();
    db.write_intents(g).unwrap();
    db.crash();

    let mut backends = reopen_sharded(&cluster);
    backends[1].remove(1);
    let (db2, report) = ShardedPerseas::recover(backends, PerseasConfig::default()).unwrap();
    assert_eq!(report.resolved_aborts, vec![1; K]);
    assert_all(&db2, &regions, pre_image);
}

/// A recovered database is fully operational: the resolved transaction
/// has released its claims and slots, so a fresh cross-shard commit
/// over the same ranges goes through cleanly.
#[test]
fn recovery_releases_the_resolved_transactions_slots() {
    let (mut db, regions, cluster) = build_sharded(K, 2);
    let g = stage_writes(&mut db, &regions);
    db.prepare_parts(g).unwrap();
    db.write_intents(g).unwrap();
    db.write_decision(g).unwrap();
    db.crash();

    let (mut db2, _) =
        ShardedPerseas::recover(reopen_sharded(&cluster), PerseasConfig::default()).unwrap();
    let g2 = db2.begin_global().unwrap();
    for &r in &regions {
        db2.set_range_g(g2, r, 16, 24).unwrap();
        db2.write_g(g2, r, 16, &[0x11; 24]).unwrap();
    }
    db2.commit_g(g2).unwrap();
    for &r in &regions {
        let mut buf = [0u8; 24];
        db2.read_g(r, 16, &mut buf).unwrap();
        assert_eq!(buf, [0x11; 24]);
    }
}

/// The staged methods refuse to run out of order — a regression net for
/// the stage machine the crash-point tests rely on.
#[test]
fn phases_enforce_their_order() {
    let (mut db, regions, _cluster) = build_sharded(K, 2);
    let g = stage_writes(&mut db, &regions);
    assert!(matches!(db.write_intents(g), Err(TxnError::Unavailable(_))));
    assert!(matches!(
        db.write_decision(g),
        Err(TxnError::Unavailable(_))
    ));
    assert!(matches!(
        db.fan_out_commits(g),
        Err(TxnError::Unavailable(_))
    ));
    db.prepare_parts(g).unwrap();
    assert!(matches!(db.prepare_parts(g), Err(TxnError::Unavailable(_))));
    db.write_intents(g).unwrap();
    db.write_decision(g).unwrap();
    db.fan_out_commits(g).unwrap();
}

/// A stale intent slot left over from a transaction that completed
/// before the crash must not be re-resolved: the lazy slot clears are
/// advisory, and recovery's committed-ness check is what protects them.
#[test]
fn completed_transactions_are_not_re_resolved() {
    let (mut db, regions, cluster) = build_sharded(K, 2);
    let g = stage_writes(&mut db, &regions);
    db.commit_g(g).unwrap();
    db.crash();

    let (db2, report) =
        ShardedPerseas::recover(reopen_sharded(&cluster), PerseasConfig::default()).unwrap();
    assert_eq!(report.resolved_commits, vec![0; K]);
    assert_eq!(report.resolved_aborts, vec![0; K]);
    assert_all(&db2, &regions, post_image);
}

/// Delegates to a [`SimRemote`] and logs every read as `(segment,
/// offset, len)`.
#[derive(Debug)]
struct CountingRemote {
    inner: SimRemote,
    reads: Arc<Mutex<Vec<(SegmentId, usize, usize)>>>,
}

impl RemoteMemory for CountingRemote {
    fn remote_malloc(&mut self, len: usize, tag: u64) -> Result<RemoteSegment, RnError> {
        self.inner.remote_malloc(len, tag)
    }
    fn remote_free(&mut self, seg: SegmentId) -> Result<(), RnError> {
        self.inner.remote_free(seg)
    }
    fn remote_write(&mut self, seg: SegmentId, offset: usize, data: &[u8]) -> Result<(), RnError> {
        self.inner.remote_write(seg, offset, data)
    }
    fn remote_write_v(&mut self, writes: &[(SegmentId, usize, &[u8])]) -> Result<(), RnError> {
        self.inner.remote_write_v(writes)
    }
    fn flush(&mut self) -> Result<FlushStats, RnError> {
        self.inner.flush()
    }
    fn virtual_clock(&self) -> Option<SimClock> {
        self.inner.virtual_clock()
    }
    fn remote_read(
        &mut self,
        seg: SegmentId,
        offset: usize,
        buf: &mut [u8],
    ) -> Result<(), RnError> {
        self.reads.lock().unwrap().push((seg, offset, buf.len()));
        self.inner.remote_read(seg, offset, buf)
    }
    fn connect_segment(&mut self, tag: u64) -> Result<RemoteSegment, RnError> {
        self.inner.connect_segment(tag)
    }
    fn segment_info(&mut self, seg: SegmentId) -> Result<RemoteSegment, RnError> {
        self.inner.segment_info(seg)
    }
    fn node_name(&self) -> String {
        self.inner.node_name()
    }
}

/// Sharded recovery reads each shard's chosen image once: the metadata
/// segment and the undo log are each read in full a single time, and
/// the commit slot written to resolve the in-doubt part is applied to
/// the image already in hand rather than read back.
#[test]
fn sharded_recovery_reads_each_image_once() {
    let (mut db, regions, cluster) = build_sharded(2, 1);
    let g = stage_writes(&mut db, &regions);
    db.prepare_parts(g).unwrap();
    db.write_intents(g).unwrap();
    db.write_decision(g).unwrap();
    db.crash();

    let logs: Vec<_> = (0..2).map(|_| Arc::new(Mutex::new(Vec::new()))).collect();
    let backends = reopen_sharded(&cluster)
        .into_iter()
        .zip(&logs)
        .map(|(shard, log)| {
            shard
                .into_iter()
                .map(|inner| CountingRemote {
                    inner,
                    reads: Arc::clone(log),
                })
                .collect()
        })
        .collect();
    let (db2, report) = ShardedPerseas::recover(backends, PerseasConfig::default()).unwrap();
    assert_eq!(report.resolved_commits, vec![1; 2]);
    assert_all(&db2, &regions, post_image);

    for (s, log) in logs.iter().enumerate() {
        let node = &cluster.nodes[s][0];
        let meta = node.find_by_tag(META_TAG + s as u64).unwrap();
        let mut bytes = vec![0u8; meta.len];
        node.read(meta.id, 0, &mut bytes).unwrap();
        let undo_id = SegmentId::from_raw(MetaHeader::decode(&bytes).unwrap().undo_seg_id);
        let undo_len = node.segment_info(undo_id).unwrap().len;
        let log = log.lock().unwrap();
        let full = |seg, len| log.iter().filter(|&&r| r == (seg, 0, len)).count();
        assert_eq!(full(meta.id, meta.len), 1, "shard {s}: metadata reads");
        assert_eq!(full(undo_id, undo_len), 1, "shard {s}: undo-log reads");
    }
}
