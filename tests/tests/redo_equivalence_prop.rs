//! Property test: the REDO-only commit path is observationally
//! equivalent to the undo path.
//!
//! Identical workloads — arbitrary overlapping multi-region range sets,
//! commits and aborts mixed, optional mid-history snapshots — driven
//! through a redo instance and an undo instance must yield identical
//! commit fates at every step and byte-identical recovered database
//! images, including recovery that starts from a snapshot plus a live
//! log tail.
//!
//! A snapshot ships only the ranges logged since the last one; the last
//! property checks that such an incremental snapshot leaves every
//! healthy mirror holding exactly what a full one would.

use proptest::prelude::*;

use perseas_core::{
    decode_region_entry, MetaHeader, MirrorHealth, Perseas, PerseasConfig, RecordingTracer,
    RegionId, TraceEvent, TxnError, META_TAG,
};
use perseas_rnram::SimRemote;
use perseas_sci::{NodeMemory, SciParams, SegmentId};
use perseas_simtime::SimClock;

const LEN_A: usize = 512;
const LEN_B: usize = 192;

#[derive(Debug, Clone)]
struct Txn {
    // (region selector, offset, len, fill byte)
    ranges: Vec<(bool, usize, usize, u8)>,
    commit: bool,
    // Take a consistent snapshot (redo arm only) after resolving.
    snapshot_after: bool,
}

fn txn_strategy() -> impl Strategy<Value = Txn> {
    (
        prop::collection::vec(
            (any::<bool>(), 0usize..LEN_A, 1usize..96, any::<u8>()).prop_map(
                |(second, off, len, b)| {
                    let region_len = if second { LEN_B } else { LEN_A };
                    let off = off % region_len;
                    let len = len.min(region_len - off).max(1);
                    (second, off, len, b)
                },
            ),
            1..10,
        ),
        any::<bool>(),
        (0u8..4).prop_map(|v| v == 0),
    )
        .prop_map(|(ranges, commit, snapshot_after)| Txn {
            ranges,
            commit,
            snapshot_after,
        })
}

fn build(redo: bool) -> (Perseas<SimRemote>, [RegionId; 2], NodeMemory) {
    // Small segments so longer histories wrap segments and snapshots
    // actually compact.
    let cfg = PerseasConfig::default()
        .with_redo(redo)
        .with_redo_log(2048, 16)
        .with_initial_undo_capacity(512);
    let backend = SimRemote::new(if redo { "redo-mirror" } else { "undo-mirror" });
    let node = backend.node().clone();
    let mut db = Perseas::init(vec![backend], cfg).unwrap();
    let ra = db.malloc(LEN_A).unwrap();
    let rb = db.malloc(LEN_B).unwrap();
    db.init_remote_db().unwrap();
    (db, [ra, rb], node)
}

/// Applies one scripted transaction, returning its fate as
/// `(committed, new_watermark)`.
fn apply(
    db: &mut Perseas<SimRemote>,
    r: [RegionId; 2],
    model: &mut [Vec<u8>; 2],
    txn: &Txn,
    snapshots: bool,
) -> (bool, u64) {
    db.begin_transaction().unwrap();
    let mut staged = model.clone();
    for &(second, off, len, b) in &txn.ranges {
        let ri = second as usize;
        db.set_range(r[ri], off, len).unwrap();
        db.write(r[ri], off, &vec![b; len]).unwrap();
        staged[ri][off..off + len].fill(b);
    }
    if txn.commit {
        db.commit_transaction().unwrap();
        *model = staged;
    } else {
        db.abort_transaction().unwrap();
    }
    if snapshots && txn.snapshot_after {
        db.redo_snapshot().unwrap();
    }
    (txn.commit, db.last_committed())
}

fn reopen(node: &NodeMemory) -> SimRemote {
    sim(&SimClock::new(), node.clone())
}

fn sim(clock: &SimClock, node: NodeMemory) -> SimRemote {
    SimRemote::with_parts(clock.clone(), node, SciParams::dolphin_1998())
}

/// One declared range: `(second region, offset, len, fill byte)`.
type Range = (bool, usize, usize, u8);

fn clamp((second, off, len): (bool, usize, usize), fill: u8) -> Range {
    let region_len = if second { LEN_B } else { LEN_A };
    let off = off % region_len;
    (second, off, len.min(region_len - off).max(1), fill)
}

/// 1–4 ranges over both regions. Each range after the first is adjacent
/// to its predecessor, overlaps it, or lands anywhere.
fn ranges_strategy() -> impl Strategy<Value = Vec<Range>> {
    (
        (any::<bool>(), 0usize..LEN_A, 1usize..96),
        prop::collection::vec((0u8..3, any::<bool>(), 0usize..LEN_A, 1usize..96), 0..4),
        any::<u8>(),
    )
        .prop_map(|(first, rest, fill)| {
            let mut out = vec![clamp(first, fill)];
            for (i, (how, second, off, len)) in rest.into_iter().enumerate() {
                let (ps, po, pl, _) = out[out.len() - 1];
                let next = match how {
                    0 => (ps, po + pl, len),
                    1 => (ps, po + pl / 2, len),
                    _ => (second, off, len),
                };
                out.push(clamp(next, fill.wrapping_add(i as u8 + 1)));
            }
            out
        })
}

#[derive(Debug, Clone)]
enum Step {
    /// Commit the ranges; the concurrent engine prepares first when the
    /// flag is set.
    Commit(Vec<Range>, bool),
    /// Write the ranges, then abort; after a prepare (concurrent engine)
    /// when the flag is set, which leaves a tombstone in the log.
    Abort(Vec<Range>, bool),
    /// Commit with mirror 1's link cut. Under a quorum of 2 the append
    /// reaches mirror 0 only and fails, and the abort leaves a tombstone;
    /// under a quorum of 1 the commit goes through degraded. With the
    /// flag set, snapshot while mirror 1 is down. Then heal, rejoin it
    /// and snapshot.
    CutCommit(Vec<Range>, bool),
    /// Snapshot; with the flag set, snapshot again with nothing dirty.
    Snapshot(bool),
    /// Crash the primary, recover from the best mirror, re-mirror onto
    /// the other, then snapshot.
    Recover,
    /// Replace mirror 1 with a fresh node, then snapshot.
    AddMirror,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        4 => (ranges_strategy(), any::<bool>()).prop_map(|(r, p)| Step::Commit(r, p)),
        2 => (ranges_strategy(), any::<bool>()).prop_map(|(r, p)| Step::Abort(r, p)),
        2 => (ranges_strategy(), any::<bool>()).prop_map(|(r, s)| Step::CutCommit(r, s)),
        2 => any::<bool>().prop_map(Step::Snapshot),
        1 => Just(Step::Recover),
        1 => Just(Step::AddMirror),
    ]
}

/// Whether a commit attempt took effect: `CommitInDoubt` is durable on
/// the survivors, `Unavailable` failed before the durability point and
/// leaves the transaction open.
fn took_effect(result: Result<(), TxnError>) -> bool {
    match result {
        Ok(()) | Err(TxnError::CommitInDoubt { .. }) => true,
        Err(TxnError::Unavailable(_)) => false,
        Err(e) => panic!("unexpected commit error: {e:?}"),
    }
}

/// The db-segment images a mirror's metadata names, in region order.
fn db_images(node: &NodeMemory) -> Vec<Vec<u8>> {
    let meta = node
        .list_segments()
        .unwrap()
        .into_iter()
        .find(|s| s.tag == META_TAG)
        .expect("mirror holds metadata");
    let mut image = vec![0u8; meta.len];
    node.read(meta.id, 0, &mut image).unwrap();
    let header = MetaHeader::decode(&image).unwrap();
    (0..header.region_count as usize)
        .map(|i| {
            let (id, len) = decode_region_entry(&image, i).unwrap();
            let mut data = vec![0u8; len as usize];
            node.read(SegmentId::from_raw(id), 0, &mut data).unwrap();
            data
        })
        .collect()
}

/// A redo database on two simulated mirrors sharing one clock, with the
/// serial reference of what committed.
struct Rig {
    db: Perseas<SimRemote>,
    cfg: PerseasConfig,
    clock: SimClock,
    tracer: RecordingTracer,
    r: [RegionId; 2],
    model: [Vec<u8>; 2],
}

impl Rig {
    fn new(concurrent: bool, quorum: usize) -> Self {
        // Small log segments, so appends often jump to a fresh segment.
        let cfg = PerseasConfig::default()
            .with_redo(true)
            .with_redo_log(512, 32)
            .with_concurrent(concurrent)
            .with_commit_quorum(quorum);
        let clock = SimClock::new();
        let mirrors = vec![
            sim(&clock, NodeMemory::new("a")),
            sim(&clock, NodeMemory::new("b")),
        ];
        let mut db = Perseas::init_with_clock(mirrors, cfg, clock.clone()).unwrap();
        let tracer = RecordingTracer::new();
        db.set_tracer(Box::new(tracer.clone()));
        let r = [db.malloc(LEN_A).unwrap(), db.malloc(LEN_B).unwrap()];
        db.init_remote_db().unwrap();
        Rig {
            db,
            cfg,
            clock,
            tracer,
            r,
            model: [vec![0u8; LEN_A], vec![0u8; LEN_B]],
        }
    }

    fn node(&self, i: usize) -> NodeMemory {
        self.db.mirror_backend(i).unwrap().node().clone()
    }

    /// Declares and writes `ranges` in one transaction, then commits or
    /// aborts it, aborting too when the commit fails. Returns whether it
    /// committed; the model follows.
    fn txn(&mut self, ranges: &[Range], prepare: bool, commit: bool) -> bool {
        let r = self.r;
        let db = &mut self.db;
        let committed = if self.cfg.concurrent {
            let t = db.begin_concurrent().unwrap();
            for &(second, off, len, b) in ranges {
                db.set_range_t(t, r[second as usize], off, len).unwrap();
                db.write_t(t, r[second as usize], off, &vec![b; len])
                    .unwrap();
            }
            let mut result = if prepare { db.prepare_t(t) } else { Ok(()) };
            if commit && result.is_ok() {
                result = db.commit_t(t);
            }
            let committed = commit && took_effect(result);
            if !committed {
                db.abort_t(t).unwrap();
            }
            committed
        } else {
            db.begin_transaction().unwrap();
            for &(second, off, len, b) in ranges {
                db.set_range(r[second as usize], off, len).unwrap();
                db.write(r[second as usize], off, &vec![b; len]).unwrap();
            }
            let committed = commit && took_effect(db.commit_transaction());
            if !committed {
                db.abort_transaction().unwrap();
            }
            committed
        };
        if committed {
            for &(second, off, len, b) in ranges {
                self.model[second as usize][off..off + len].fill(b);
            }
        }
        committed
    }

    /// A snapshot that must succeed, then the dirty-set invariant with an
    /// empty set: every healthy mirror's db segments equal the local
    /// image, which equals the serial reference.
    fn snapshot(&mut self) {
        self.db.redo_snapshot().unwrap();
        for ri in 0..2 {
            assert_eq!(
                self.db.region_snapshot(self.r[ri]).unwrap(),
                self.model[ri],
                "local region {ri} left the serial reference"
            );
        }
        for status in self.db.mirror_status() {
            if status.health != MirrorHealth::Healthy {
                continue;
            }
            let images = db_images(&self.node(status.index));
            for (ri, image) in images.iter().enumerate() {
                assert_eq!(
                    image, &self.model[ri],
                    "mirror {} region {ri} differs from the local image after a snapshot",
                    status.index
                );
            }
        }
    }

    /// Region bytes the latest snapshot shipped per mirror.
    fn last_snapshot_bytes(&self) -> usize {
        self.tracer
            .events()
            .iter()
            .rev()
            .find_map(|e| match e {
                TraceEvent::RedoSnapshot { bytes, .. } => Some(*bytes),
                _ => None,
            })
            .expect("a snapshot was taken")
    }

    fn step(&mut self, step: &Step) {
        match step {
            Step::Commit(ranges, prepare) => assert!(self.txn(ranges, *prepare, true)),
            Step::Abort(ranges, prepare) => assert!(!self.txn(ranges, *prepare, false)),
            Step::CutCommit(ranges, snapshot_while_down) => {
                let link = self.db.mirror_backend(1).unwrap().link().clone();
                link.cut_after_packets(0);
                let committed = self.txn(ranges, false, true);
                link.heal();
                assert_eq!(committed, self.cfg.commit_quorum == 1);
                assert_eq!(self.db.healthy_mirror_count(), 1);
                if *snapshot_while_down {
                    if committed {
                        self.snapshot();
                    } else {
                        // Below quorum: refused before anything ships,
                        // so the dirty set must survive it.
                        assert!(self.db.redo_snapshot().is_err());
                    }
                }
                self.db.probe_down_mirrors();
                self.db.rejoin_mirror(1).unwrap();
                self.snapshot();
            }
            Step::Snapshot(twice) => {
                self.snapshot();
                if *twice {
                    self.snapshot();
                    assert_eq!(self.last_snapshot_bytes(), 0, "nothing was dirty");
                }
            }
            Step::Recover => {
                let backends = (0..2).map(|i| sim(&self.clock, self.node(i))).collect();
                self.db.crash();
                let (mut db, _) =
                    Perseas::recover_best(backends, self.cfg, self.clock.clone()).unwrap();
                db.set_tracer(Box::new(self.tracer.clone()));
                assert_eq!(db.healthy_mirror_count(), 2);
                self.db = db;
                self.snapshot();
            }
            Step::AddMirror => {
                self.db
                    .add_mirror(sim(&self.clock, NodeMemory::new("c")))
                    .unwrap();
                self.db.remove_mirror(1).unwrap();
                self.snapshot();
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Identical histories on both modes: identical commit fates and
    /// watermarks at every step, identical live snapshots, and —
    /// after a crash — byte-identical recovered images. The redo arm
    /// takes no snapshots here, so recovery replays the full log.
    #[test]
    fn redo_and_undo_recover_byte_identical_images(
        txns in prop::collection::vec(txn_strategy(), 1..8),
    ) {
        let (mut undo, r, undo_node) = build(false);
        let (mut redo, _, redo_node) = build(true);
        let mut model_u = [vec![0u8; LEN_A], vec![0u8; LEN_B]];
        let mut model_r = model_u.clone();
        let mut committed_max = 0u64;
        for t in &txns {
            let fate_u = apply(&mut undo, r, &mut model_u, t, false);
            let fate_r = apply(&mut redo, r, &mut model_r, t, false);
            prop_assert_eq!(fate_u, fate_r, "commit fates diverged");
            committed_max = fate_u.1;
            prop_assert_eq!(
                redo.region_snapshot(r[0]).unwrap(),
                undo.region_snapshot(r[0]).unwrap()
            );
            prop_assert_eq!(
                redo.region_snapshot(r[1]).unwrap(),
                undo.region_snapshot(r[1]).unwrap()
            );
        }
        undo.crash();
        redo.crash();

        let (u2, _) = Perseas::recover(reopen(&undo_node), PerseasConfig::default()).unwrap();
        let (r2, _) = Perseas::recover(
            reopen(&redo_node),
            PerseasConfig::default().with_redo(true),
        )
        .unwrap();
        prop_assert_eq!(u2.region_snapshot(r[0]).unwrap(), model_u[0].clone());
        prop_assert_eq!(u2.region_snapshot(r[1]).unwrap(), model_u[1].clone());
        prop_assert_eq!(r2.region_snapshot(r[0]).unwrap(), u2.region_snapshot(r[0]).unwrap());
        prop_assert_eq!(r2.region_snapshot(r[1]).unwrap(), u2.region_snapshot(r[1]).unwrap());
        // Every durable commit is covered by both recovered watermarks.
        // (The exact values may differ: undo recovery consumes the id of
        // a trailing aborted transaction whose stale records sit at the
        // log head, while the redo log holds no trace of clean aborts.)
        prop_assert!(r2.last_committed() >= committed_max);
        prop_assert!(u2.last_committed() >= committed_max);
    }

    /// The same equivalence when the redo arm snapshots (and compacts)
    /// mid-history: recovery starts from the newest snapshot image plus
    /// the live log tail, and must still land on the exact model bytes.
    #[test]
    fn recovery_from_snapshot_plus_tail_matches_undo(
        txns in prop::collection::vec(txn_strategy(), 1..10),
    ) {
        let (mut undo, r, undo_node) = build(false);
        let (mut redo, _, redo_node) = build(true);
        let mut model_u = [vec![0u8; LEN_A], vec![0u8; LEN_B]];
        let mut model_r = model_u.clone();
        let mut snapshots = 0usize;
        let mut committed_max = 0u64;
        for t in &txns {
            let fate_u = apply(&mut undo, r, &mut model_u, t, false);
            let fate_r = apply(&mut redo, r, &mut model_r, t, true);
            snapshots += t.snapshot_after as usize;
            prop_assert_eq!(fate_u, fate_r, "commit fates diverged");
            committed_max = fate_u.1;
        }
        undo.crash();
        redo.crash();

        let (u2, _) = Perseas::recover(reopen(&undo_node), PerseasConfig::default()).unwrap();
        let (r2, rep) = Perseas::recover(
            reopen(&redo_node),
            PerseasConfig::default().with_redo(true),
        )
        .unwrap();
        prop_assert_eq!(r2.region_snapshot(r[0]).unwrap(), u2.region_snapshot(r[0]).unwrap());
        prop_assert_eq!(r2.region_snapshot(r[1]).unwrap(), u2.region_snapshot(r[1]).unwrap());
        prop_assert_eq!(r2.region_snapshot(r[0]).unwrap(), model_u[0].clone());
        prop_assert!(r2.last_committed() >= committed_max);
        // A snapshot right before the crash leaves nothing to replay.
        if snapshots > 0 && txns.last().is_some_and(|t| t.snapshot_after) {
            prop_assert_eq!(rep.replayed_records, 0, "snapshot covers the whole log");
        }
    }

    /// The recovered redo instance is a fully working database: more
    /// transactions commit on it and a second recovery sees them.
    #[test]
    fn recovered_redo_instance_keeps_working(
        txns in prop::collection::vec(txn_strategy(), 1..5),
    ) {
        let (mut redo, r, node) = build(true);
        let mut model = [vec![0u8; LEN_A], vec![0u8; LEN_B]];
        for t in &txns {
            apply(&mut redo, r, &mut model, t, true);
        }
        redo.crash();

        let (mut r2, _) = Perseas::recover(
            reopen(&node),
            PerseasConfig::default().with_redo(true).with_redo_log(2048, 16),
        )
        .unwrap();
        r2.transaction(|t| t.update(r[0], 0, &[0x77; 16])).unwrap();
        model[0][..16].fill(0x77);
        r2.crash();

        let (r3, _) = Perseas::recover(
            reopen(&node),
            PerseasConfig::default().with_redo(true),
        )
        .unwrap();
        prop_assert_eq!(r3.region_snapshot(r[0]).unwrap(), model[0].clone());
        prop_assert_eq!(r3.region_snapshot(r[1]).unwrap(), model[1].clone());
    }

    /// Snapshots ship only the ranges logged since the last one, yet
    /// after every successful snapshot each healthy mirror's db segments
    /// equal the local image — what a full-image snapshot would leave —
    /// through aborts, tombstones, degraded and refused snapshots,
    /// recovery, rejoin and a new mirror, on both engines. Recovery from
    /// each mirror alone then lands on the serial reference.
    #[test]
    fn incremental_snapshots_equal_full_ones(
        steps in prop::collection::vec(step_strategy(), 1..16),
        quorum in 1usize..=2,
    ) {
        for concurrent in [false, true] {
            let mut rig = Rig::new(concurrent, quorum);
            // init_remote_db pushed the whole image: nothing is dirty.
            rig.snapshot();
            prop_assert_eq!(rig.last_snapshot_bytes(), 0);
            for step in &steps {
                rig.step(step);
            }
            rig.db.crash();
            for i in 0..2 {
                let (db, _) = Perseas::recover(reopen(&rig.node(i)), rig.cfg).unwrap();
                prop_assert_eq!(db.region_snapshot(rig.r[0]).unwrap(), rig.model[0].clone());
                prop_assert_eq!(db.region_snapshot(rig.r[1]).unwrap(), rig.model[1].clone());
            }
        }
    }
}
