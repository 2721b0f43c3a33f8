//! Exhaustive crash-point sweep over the commit pipeline, on BOTH the
//! legacy per-range path and the batched vectored path.
//!
//! A fixed multi-range, multi-region workload is crashed after every
//! possible protocol step `k` (from 0 to past the last step), then
//! recovered from each surviving mirror independently. Every recovery
//! must observe either the full pre-state or the full post-state
//! (atomicity), and whenever the commit reported success, every mirror
//! must hold the post-state (durability). On the batched path a crash
//! point is a whole vectored write, so recovery must also cope with
//! partially applied batches (torn-prefix delivery inside one message).

use perseas_core::{
    decode_region_entry, FaultPlan, MetaHeader, Perseas, PerseasConfig, RegionId, TxnError,
    META_TAG,
};
use perseas_integration::reopen;
use perseas_rnram::{RemoteMemory, SimRemote};
use perseas_sci::{NodeMemory, SciLink, SciParams, SegmentId};
use perseas_simtime::SimClock;

const LEN_A: usize = 256;
const LEN_B: usize = 128;

fn setup2(cfg: PerseasConfig) -> (Perseas<SimRemote>, [RegionId; 2], NodeMemory, NodeMemory) {
    let clock = SimClock::new();
    let a = SimRemote::with_parts(
        clock.clone(),
        NodeMemory::new("a"),
        SciParams::dolphin_1998(),
    );
    let b = SimRemote::with_parts(
        clock.clone(),
        NodeMemory::new("b"),
        SciParams::dolphin_1998(),
    );
    let (na, nb) = (a.node().clone(), b.node().clone());
    let mut db = Perseas::init_with_clock(vec![a, b], cfg, clock).unwrap();
    let ra = db.malloc(LEN_A).unwrap();
    let rb = db.malloc(LEN_B).unwrap();
    let (pa, pb) = pre();
    db.write(ra, 0, &pa).unwrap();
    db.write(rb, 0, &pb).unwrap();
    db.init_remote_db().unwrap();
    (db, [ra, rb], na, nb)
}

/// One multi-range transaction touching both regions with overlapping and
/// adjacent declarations (so coalescing and alignment widening both kick
/// in).
fn run_txn(db: &mut Perseas<SimRemote>, r: [RegionId; 2]) -> Result<(), TxnError> {
    db.begin_transaction()?;
    db.set_range(r[0], 0, 40)?;
    db.write(r[0], 0, &[0xA1; 40])?;
    db.set_range(r[0], 32, 32)?; // overlaps the first declaration
    db.write(r[0], 32, &[0xA2; 32])?;
    db.set_ranges(&[(r[0], 100, 24), (r[1], 0, 16), (r[1], 16, 8)])?;
    db.write(r[0], 100, &[0xA3; 24])?;
    db.write(r[1], 0, &[0xB1; 16])?;
    db.write(r[1], 16, &[0xB2; 8])?;
    db.set_range(r[0], 200, 8)?;
    db.write(r[0], 200, &[0xA4; 8])?;
    db.commit_transaction()
}

fn pre() -> (Vec<u8>, Vec<u8>) {
    (
        (0..LEN_A).map(|i| i as u8).collect(),
        (0..LEN_B).map(|i| (i as u8) ^ 0x5A).collect(),
    )
}

fn post() -> (Vec<u8>, Vec<u8>) {
    let (mut a, mut b) = pre();
    a[0..40].fill(0xA1);
    a[32..64].fill(0xA2);
    a[100..124].fill(0xA3);
    a[200..208].fill(0xA4);
    b[0..16].fill(0xB1);
    b[16..24].fill(0xB2);
    (a, b)
}

fn sweep(batched: bool) -> u64 {
    sweep_with(PerseasConfig::default().with_batched_commit(batched))
}

fn sweep_with(cfg: PerseasConfig) -> u64 {
    let batched = cfg.batched_commit;
    // Count the protocol steps of one clean run.
    let (mut db, r, _, _) = setup2(cfg);
    run_txn(&mut db, r).unwrap();
    let total = db.steps_taken();

    // Crash after every step, including one plan the transaction outlives.
    for crash_at in 0..=total + 1 {
        let (mut db, r, na, nb) = setup2(cfg);
        db.set_fault_plan(FaultPlan::crash_after(crash_at));
        let res = run_txn(&mut db, r);
        if crash_at > total {
            res.as_ref().unwrap_or_else(|e| {
                panic!("batched={batched} crash_at={crash_at}: outlived plan failed: {e}")
            });
        }

        let (pa, pb) = pre();
        let (qa, qb) = post();
        for (name, node) in [("a", &na), ("b", &nb)] {
            let (db2, _) =
                Perseas::recover(reopen(node), PerseasConfig::default()).unwrap_or_else(|e| {
                    panic!(
                        "batched={batched} crash_at={crash_at}: mirror {name} unrecoverable: {e}"
                    )
                });
            let ga = db2.region_snapshot(r[0]).unwrap();
            let gb = db2.region_snapshot(r[1]).unwrap();
            let is_pre = ga == pa && gb == pb;
            let is_post = ga == qa && gb == qb;
            assert!(
                is_pre || is_post,
                "batched={batched} crash_at={crash_at}: mirror {name} holds a partial state"
            );
            if res.is_ok() {
                assert!(
                    is_post,
                    "batched={batched} crash_at={crash_at}: durable txn missing on mirror {name}"
                );
            }
        }
    }
    total
}

#[test]
fn legacy_path_survives_every_crash_point() {
    let total = sweep(false);
    // 6 set_range records x 2 mirrors + 4 coalesced ranges x 2 mirrors
    // + 2 commit records.
    assert!(total >= 12, "legacy path unexpectedly short: {total}");
}

#[test]
fn batched_path_survives_every_crash_point() {
    let total = sweep(true);
    // Exactly one crash point per vectored write: undo, data and the
    // commit record ride one write per mirror, 2 mirrors.
    assert_eq!(total, 2, "batched path should have 1 write per mirror");
}

/// The same sweep under a commit quorum of 2, where the record ships
/// only after a barrier confirms undo and data: three writes per mirror,
/// each its own crash point.
#[test]
fn two_barrier_batched_path_survives_every_crash_point() {
    let cfg = PerseasConfig::default()
        .with_batched_commit(true)
        .with_commit_quorum(2);
    let total = sweep_with(cfg);
    assert_eq!(total, 6, "quorum-2 path should have 3 writes per mirror");
}

/// Mirror `m`'s commit record and database regions, straight off its
/// memory: what a cut left there, before recovery rolls anything back.
fn raw_mirror(node: &NodeMemory) -> (u64, Vec<Vec<u8>>) {
    let mut backend = reopen(node);
    let meta = backend.connect_segment(META_TAG).unwrap();
    let mut image = vec![0u8; meta.len];
    backend.remote_read(meta.id, 0, &mut image).unwrap();
    let header = MetaHeader::decode(&image).unwrap();
    let regions = (0..header.region_count as usize)
        .map(|i| {
            let (seg, len) = decode_region_entry(&image, i).unwrap();
            let mut data = vec![0u8; len as usize];
            backend
                .remote_read(SegmentId::from_raw(seg), 0, &mut data)
                .unwrap();
            data
        })
        .collect();
    (header.last_committed, regions)
}

fn packets(link: &SciLink) -> u64 {
    let st = link.stats();
    st.packets64 + st.packets16
}

/// A vectored write is one crash *point*, but the SCI link can still die
/// mid-message, leaving a packet-aligned prefix of the batch applied.
/// Sweep the cut across every packet of the commit's one write, on the
/// only mirror and on one of two: the recovered state must always be
/// all-or-nothing, and the sweep must cut inside the undo part, inside
/// the data part, and just before the record.
#[test]
fn torn_vectored_batches_roll_back_cleanly() {
    let cfg = PerseasConfig::default().with_batched_commit(true);
    let setup = |mirrors: usize| {
        let clock = SimClock::new();
        let backends: Vec<SimRemote> = (0..mirrors)
            .map(|i| {
                SimRemote::with_parts(
                    clock.clone(),
                    NodeMemory::new(format!("m{i}")),
                    SciParams::dolphin_1998(),
                )
            })
            .collect();
        let nodes: Vec<NodeMemory> = backends.iter().map(|b| b.node().clone()).collect();
        let link = backends[0].link().clone();
        let mut db = Perseas::init_with_clock(backends, cfg, clock).unwrap();
        let ra = db.malloc(LEN_A).unwrap();
        let rb = db.malloc(LEN_B).unwrap();
        let (pa, pb) = pre();
        db.write(ra, 0, &pa).unwrap();
        db.write(rb, 0, &pb).unwrap();
        db.init_remote_db().unwrap();
        (db, [ra, rb], nodes, link)
    };
    // The packets of the commit's write to one mirror.
    let total = {
        let (mut db, r, _, link) = setup(1);
        let before = packets(&link);
        run_txn(&mut db, r).unwrap();
        packets(&link) - before
    };

    let (pa, pb) = pre();
    let (qa, qb) = post();
    for mirrors in [1, 2] {
        let (mut in_undo, mut in_data, mut before_record) = (false, false, false);
        for cut_at in 0..=total {
            let (mut db, r, nodes, link) = setup(mirrors);
            link.cut_after_packets(cut_at);
            let res = run_txn(&mut db, r);
            link.heal();
            let at = format!("mirrors={mirrors} cut_at={cut_at}");
            match &res {
                // The survivor holds the whole write: degraded, durable.
                Ok(()) => assert!(cut_at == total || mirrors == 2, "{at}"),
                Err(e) => {
                    assert!(matches!(e, TxnError::Unavailable(_)), "{at}: {e}");
                    assert_eq!(mirrors, 1, "{at}: the survivor must carry the commit");
                }
            }

            // What the cut left on the cut mirror.
            let (record, regions) = raw_mirror(&nodes[0]);
            if cut_at < total {
                assert_eq!(record, 0, "{at}: the record must be the last packet");
                if regions == [qa.clone(), qb.clone()] {
                    before_record = true;
                } else if regions == [pa.clone(), pb.clone()] {
                    in_undo |= cut_at > 0;
                } else {
                    in_data = true;
                }
            }

            for (i, node) in nodes.iter().enumerate() {
                let (db2, _) = Perseas::recover(reopen(node), PerseasConfig::default())
                    .unwrap_or_else(|e| panic!("{at}: mirror {i} unrecoverable: {e}"));
                let ga = db2.region_snapshot(r[0]).unwrap();
                let gb = db2.region_snapshot(r[1]).unwrap();
                let is_pre = ga == pa && gb == pb;
                let is_post = ga == qa && gb == qb;
                assert!(is_pre || is_post, "{at}: torn batch left a partial state");
                // The cut mirror holds the commit only if its write
                // arrived whole; the other one always does.
                assert_eq!(is_post, i == 1 || cut_at == total, "{at}: mirror {i}");
            }
        }
        assert!(
            in_undo && in_data && before_record,
            "mirrors={mirrors}: the sweep missed a part of the write \
             (undo {in_undo}, data {in_data}, before the record {before_record})"
        );
    }
}

#[test]
fn batching_shrinks_the_crash_surface() {
    let cfg = PerseasConfig::default();
    let (mut legacy_db, r, _, _) = setup2(cfg);
    run_txn(&mut legacy_db, r).unwrap();
    let (mut batched_db, r, _, _) = setup2(cfg.with_batched_commit(true));
    run_txn(&mut batched_db, r).unwrap();
    assert!(
        batched_db.steps_taken() < legacy_db.steps_taken(),
        "batched {} vs legacy {}",
        batched_db.steps_taken(),
        legacy_db.steps_taken()
    );
}
