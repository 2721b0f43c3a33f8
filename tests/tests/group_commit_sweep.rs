//! Crash-point sweep over multi-transaction group commits.
//!
//! A group commit is one vectored write per mirror: the undo arena, the
//! data, then the commit records and the watermark (three fan-outs under
//! a commit quorum of 2). This sweep cuts the pipeline at every fault
//! step and — separately — at every SCI packet boundary, then checks the
//! fundamental guarantee: recovery commits exactly the transactions
//! whose commit records are durable on the mirror, rolls back every
//! other member, and the recovered bytes equal the serial oracle of the
//! durable subset.

use perseas_core::{
    commit_table_offset, decode_commit_table, decode_region_entry, FaultPlan, MetaHeader, Perseas,
    PerseasConfig, RegionId, TxnError, TxnToken, META_TAG, OFF_COMMIT,
};
use perseas_integration::reopen;
use perseas_rnram::SimRemote;
use perseas_sci::{NodeMemory, SegmentId};

const REGION_LEN: usize = 256;
const GROUP: usize = 3;

fn conc_cfg() -> PerseasConfig {
    PerseasConfig::default().with_concurrent(true)
}

fn setup(mirrors: &[&str]) -> (Perseas<SimRemote>, RegionId, Vec<NodeMemory>) {
    setup_with(mirrors, conc_cfg())
}

fn setup_with(
    mirrors: &[&str],
    cfg: PerseasConfig,
) -> (Perseas<SimRemote>, RegionId, Vec<NodeMemory>) {
    let backends: Vec<SimRemote> = mirrors.iter().map(|n| SimRemote::new(*n)).collect();
    let nodes: Vec<NodeMemory> = backends.iter().map(|b| b.node().clone()).collect();
    let mut db = Perseas::init(backends, cfg).unwrap();
    let r = db.malloc(REGION_LEN).unwrap();
    let init: Vec<u8> = (0..REGION_LEN).map(|i| i as u8).collect();
    db.write(r, 0, &init).unwrap();
    db.init_remote_db().unwrap();
    (db, r, nodes)
}

/// Opens the canonical group: GROUP transactions with disjoint 32-byte
/// ranges, fills 0x10 * (i + 1).
fn open_group(db: &mut Perseas<SimRemote>, r: RegionId) -> Vec<TxnToken> {
    (0..GROUP)
        .map(|i| {
            let t = db.begin_concurrent().unwrap();
            let off = i * 64;
            db.set_range_t(t, r, off, 32).unwrap();
            db.write_t(t, r, off, &[0x10 * (i as u8 + 1); 32]).unwrap();
            t
        })
        .collect()
}

/// The serial oracle for a given committed subset of the group. Member
/// ids are dense starting at `first_id`.
fn oracle(first_id: u64, committed: impl Fn(u64) -> bool) -> Vec<u8> {
    let mut img: Vec<u8> = (0..REGION_LEN).map(|i| i as u8).collect();
    for i in 0..GROUP {
        let id = first_id + i as u64;
        if committed(id) {
            img[i * 64..i * 64 + 32].fill(0x10 * (i as u8 + 1));
        }
    }
    img
}

/// Reads the durable commit state straight from the mirror's metadata
/// bytes: `(watermark, commit table)`.
fn durable_state(node: &NodeMemory) -> (u64, Vec<u64>) {
    let seg = node.find_by_tag(META_TAG).expect("meta segment");
    let mut image = vec![0u8; seg.len];
    node.read(seg.id, 0, &mut image).unwrap();
    let header = MetaHeader::decode(&image).unwrap();
    assert!(
        header.commit_slots > 0,
        "concurrent image must carry a commit table"
    );
    (
        header.last_committed,
        decode_commit_table(&image, header.commit_slots as usize),
    )
}

fn is_durable(id: u64, watermark: u64, table: &[u64]) -> bool {
    id <= watermark || table.contains(&id)
}

/// The region's bytes straight off the mirror's memory, before recovery
/// rolls anything back.
fn raw_region(node: &NodeMemory) -> Vec<u8> {
    let seg = node.find_by_tag(META_TAG).expect("meta segment");
    let mut image = vec![0u8; seg.len];
    node.read(seg.id, 0, &mut image).unwrap();
    let (id, len) = decode_region_entry(&image, 0).unwrap();
    let mut data = vec![0u8; len as usize];
    node.read(SegmentId::from_raw(id), 0, &mut data).unwrap();
    data
}

#[test]
fn group_commit_fault_step_sweep() {
    // 1 write per mirror x 2 mirrors.
    fault_step_sweep(conc_cfg(), 2);
}

#[test]
fn two_barrier_group_commit_fault_step_sweep() {
    // Under a quorum of 2 the record waits for a barrier on the rest:
    // 3 fan-out phases x 2 mirrors.
    fault_step_sweep(conc_cfg().with_commit_quorum(2), 6);
}

fn fault_step_sweep(cfg: PerseasConfig, shape: u64) {
    // Count the fault steps of a clean two-mirror group commit first.
    let (mut db, r, _) = setup_with(&["a", "b"], cfg);
    db.set_fault_plan(FaultPlan::none());
    let tokens = open_group(&mut db, r);
    db.commit_group(&tokens).unwrap();
    let total = db.steps_taken();
    assert_eq!(total, shape, "group commit fan-out shape changed");

    for crash_at in 0..=total {
        let (mut db, r, nodes) = setup_with(&["a", "b"], cfg);
        db.set_fault_plan(FaultPlan::crash_after(crash_at));
        let tokens = open_group(&mut db, r);
        let res = db.commit_group(&tokens);
        if crash_at < total {
            assert_eq!(res.unwrap_err(), TxnError::Crashed, "crash_at={crash_at}");
        } else {
            res.unwrap();
            db.crash();
        }

        // Recovery ranks the mirrors; each must individually satisfy the
        // invariant, and the recovered image must match the winner's
        // durable subset.
        let candidates: Vec<Vec<u8>> = nodes
            .iter()
            .map(|n| {
                let (w, table) = durable_state(n);
                oracle(1, |id| is_durable(id, w, &table))
            })
            .collect();
        let (db2, report) = Perseas::recover_best(
            nodes.iter().map(reopen).collect(),
            conc_cfg(),
            perseas_simtime::SimClock::new(),
        )
        .unwrap_or_else(|e| panic!("crash_at={crash_at}: recovery failed: {e}"));
        let got = db2.region_snapshot(r).unwrap();
        assert!(
            candidates.contains(&got),
            "crash_at={crash_at}: recovered image matches no mirror's durable subset \
             (report: rolled_back={:?} last_committed={})",
            report.rolled_back_txns,
            report.last_committed
        );
        // Each member (ids 1..=3) is durable iff its bytes survived, and
        // the report must agree.
        for i in 0..GROUP as u64 {
            let id = 1 + i;
            let committed_bytes =
                got[i as usize * 64..i as usize * 64 + 32] == [0x10 * (i as u8 + 1); 32];
            assert_eq!(
                committed_bytes,
                !report.rolled_back_txns.contains(&id) && report.last_committed >= id,
                "crash_at={crash_at}: txn {id} durability disagrees with the report"
            );
        }
    }
}

fn packets(l: &perseas_sci::SciLink) -> u64 {
    let st = l.stats();
    st.packets64 + st.packets16
}

#[test]
fn group_commit_packet_cut_sweep() {
    // Single mirror, cut the SCI link after every packet count inside the
    // group commit's one write: undo arena, data, each member's slot (one
    // packet each), then the watermark (last packet). A torn cut must
    // durably commit exactly a prefix-closed subset readable from the
    // mirror's own bytes.
    let setup = || {
        let backend = SimRemote::new("mirror");
        let node = backend.node().clone();
        let link = backend.link().clone();
        let mut db = Perseas::init(vec![backend], conc_cfg()).unwrap();
        let r = db.malloc(REGION_LEN).unwrap();
        let init: Vec<u8> = (0..REGION_LEN).map(|i| i as u8).collect();
        db.write(r, 0, &init).unwrap();
        db.init_remote_db().unwrap();
        (db, r, node, link)
    };
    let total = {
        let (mut db, r, _, link) = setup();
        let tokens = open_group(&mut db, r);
        let before = packets(&link);
        db.commit_group(&tokens).unwrap();
        packets(&link) - before
    };

    let mut saw_partial_group = false;
    let (mut in_undo, mut in_data, mut before_record) = (false, false, false);
    for cut_after in 0..=total {
        let (mut db, r, node, link) = setup();
        let tokens = open_group(&mut db, r);
        link.cut_after_packets(cut_after);
        let res = db.commit_group(&tokens);
        link.heal();

        let (watermark, table) = durable_state(&node);
        let durable: Vec<u64> = (1..=GROUP as u64)
            .filter(|&id| is_durable(id, watermark, &table))
            .collect();
        if res.is_ok() {
            assert_eq!(
                durable.len(),
                GROUP,
                "cut {cut_after}: commit reported success but records are missing"
            );
        } else if !durable.is_empty() && durable.len() < GROUP {
            saw_partial_group = true;
        } else if durable.is_empty() {
            // Where in the write the cut fell, by what reached the data.
            let data = raw_region(&node);
            if data == oracle(1, |_| true) {
                before_record = true;
            } else if data == oracle(1, |_| false) {
                in_undo |= cut_after > 0;
            } else {
                in_data = true;
            }
        }

        db.crash();
        let (db2, _) = Perseas::recover(reopen(&node), conc_cfg())
            .unwrap_or_else(|e| panic!("cut {cut_after}: recovery failed: {e}"));
        let got = db2.region_snapshot(r).unwrap();
        let want = oracle(1, |id| durable.contains(&id));
        assert_eq!(
            got, want,
            "cut {cut_after}: recovered image diverges from the durable subset \
             (watermark {watermark}, table {table:?})"
        );
    }
    assert!(
        saw_partial_group,
        "the sweep never produced a torn group — widen the cut range"
    );
    assert!(
        in_undo && in_data && before_record,
        "the sweep missed a part of the write \
         (undo {in_undo}, data {in_data}, before the record {before_record})"
    );
}

#[test]
fn torn_watermark_never_uncommits_slots() {
    // The watermark is the LAST write of the record fan-out. Cut exactly
    // between the slot writes and the watermark: the members are durable
    // via their slots even though the watermark still reads old. After
    // recovery the watermark must have caught up.
    let backend = SimRemote::new("mirror");
    let node = backend.node().clone();
    let link = backend.link().clone();
    let mut db = Perseas::init(vec![backend], conc_cfg()).unwrap();
    let r = db.malloc(REGION_LEN).unwrap();
    db.init_remote_db().unwrap();

    // Find the packet count of the full group commit, then cut one
    // packet earlier — dropping exactly the watermark write (the last
    // packet of the commit's write).
    let tokens = open_group(&mut db, r);
    let before = packets(&link);
    db.commit_group(&tokens).unwrap();
    let per_commit = packets(&link) - before;

    let tokens = open_group(&mut db, r);
    link.cut_after_packets(per_commit - 1);
    let res = db.commit_group(&tokens);
    link.heal();
    assert!(res.is_err(), "dropped watermark must fail the commit");

    let (watermark, table) = durable_state(&node);
    for id in 4..=6u64 {
        assert!(
            is_durable(id, watermark, &table),
            "txn {id}: slot write must survive a torn watermark (w={watermark}, {table:?})"
        );
    }
    assert!(watermark < 6, "the watermark write itself was cut");

    db.crash();
    let (db2, _) = Perseas::recover(reopen(&node), conc_cfg()).unwrap();
    assert!(
        db2.last_committed() >= 6,
        "recovery must advance the watermark over durable slots (got {})",
        db2.last_committed()
    );
    // Both groups wrote the same fills over a zeroed region.
    let mut want = vec![0u8; REGION_LEN];
    for i in 0..GROUP {
        want[i * 64..i * 64 + 32].fill(0x10 * (i as u8 + 1));
    }
    assert_eq!(db2.region_snapshot(r).unwrap(), want);
}

/// Opens the canonical group, prepares every member, then commits the
/// whole group (record fan-out only).
fn run_prepared(db: &mut Perseas<SimRemote>, r: RegionId) -> Result<(), TxnError> {
    let tokens = open_group(db, r);
    for &t in &tokens {
        db.prepare_t(t)?;
    }
    db.commit_group(&tokens)
}

#[test]
fn prepared_group_crash_sweep() {
    // Shape first: one fan-out per prepare per mirror, then one record
    // fan-out per mirror for the whole group.
    let (mut db, r, _) = setup(&["a", "b"]);
    db.set_fault_plan(FaultPlan::none());
    run_prepared(&mut db, r).unwrap();
    let total = db.steps_taken();
    assert_eq!(total, 8, "prepared pipeline fan-out shape changed");

    for crash_at in 0..=total {
        let (mut db, r, nodes) = setup(&["a", "b"]);
        db.set_fault_plan(FaultPlan::crash_after(crash_at));
        let res = run_prepared(&mut db, r);
        if crash_at < total {
            assert!(res.is_err(), "crash_at={crash_at}: pipeline must fail");
        } else {
            res.unwrap();
            db.crash();
        }

        let candidates: Vec<Vec<u8>> = nodes
            .iter()
            .map(|n| {
                let (w, table) = durable_state(n);
                oracle(1, |id| is_durable(id, w, &table))
            })
            .collect();
        let (db2, report) = Perseas::recover_best(
            nodes.iter().map(reopen).collect(),
            conc_cfg(),
            perseas_simtime::SimClock::new(),
        )
        .unwrap_or_else(|e| panic!("crash_at={crash_at}: recovery failed: {e}"));
        let got = db2.region_snapshot(r).unwrap();
        assert!(
            candidates.contains(&got),
            "crash_at={crash_at}: recovered image matches no mirror's durable subset \
             (report: rolled_back={:?} last_committed={})",
            report.rolled_back_txns,
            report.last_committed
        );
        for i in 0..GROUP as u64 {
            let id = 1 + i;
            let committed_bytes =
                got[i as usize * 64..i as usize * 64 + 32] == [0x10 * (i as u8 + 1); 32];
            assert_eq!(
                committed_bytes,
                !report.rolled_back_txns.contains(&id) && report.last_committed >= id,
                "crash_at={crash_at}: txn {id} durability disagrees with the report"
            );
        }
    }
}

#[test]
fn prepared_packet_cut_sweep() {
    // Count the clean pipeline's packets once, then cut at every packet
    // boundary of a fresh run: recovery must always equal the durable
    // subset read from the mirror's own bytes.
    let clean = {
        let backend = SimRemote::new("mirror");
        let link = backend.link().clone();
        let mut db = Perseas::init(vec![backend], conc_cfg()).unwrap();
        let r = db.malloc(REGION_LEN).unwrap();
        let init: Vec<u8> = (0..REGION_LEN).map(|i| i as u8).collect();
        db.write(r, 0, &init).unwrap();
        db.init_remote_db().unwrap();
        let before = packets(&link);
        run_prepared(&mut db, r).unwrap();
        packets(&link) - before
    };

    let mut saw_partial_group = false;
    for cut_after in 0..=clean {
        let backend = SimRemote::new("mirror");
        let node = backend.node().clone();
        let link = backend.link().clone();
        let mut db = Perseas::init(vec![backend], conc_cfg()).unwrap();
        let r = db.malloc(REGION_LEN).unwrap();
        let init: Vec<u8> = (0..REGION_LEN).map(|i| i as u8).collect();
        db.write(r, 0, &init).unwrap();
        db.init_remote_db().unwrap();

        link.cut_after_packets(cut_after);
        let res = run_prepared(&mut db, r);
        link.heal();

        let (watermark, table) = durable_state(&node);
        let durable: Vec<u64> = (1..=GROUP as u64)
            .filter(|&id| is_durable(id, watermark, &table))
            .collect();
        if res.is_ok() {
            assert_eq!(
                durable.len(),
                GROUP,
                "cut {cut_after}: success reported but records are missing"
            );
        } else if !durable.is_empty() && durable.len() < GROUP {
            saw_partial_group = true;
        }

        db.crash();
        let (db2, _) = Perseas::recover(reopen(&node), conc_cfg())
            .unwrap_or_else(|e| panic!("cut {cut_after}: recovery failed: {e}"));
        let got = db2.region_snapshot(r).unwrap();
        let want = oracle(1, |id| durable.contains(&id));
        assert_eq!(
            got, want,
            "cut {cut_after}: recovered image diverges from the durable subset \
             (watermark {watermark}, table {table:?})"
        );
    }
    assert!(
        saw_partial_group,
        "the sweep never cut inside the record fan-out"
    );
}

#[test]
fn aborting_prepared_txn_restores_mirror_and_frees_claims() {
    let (mut db, r, nodes) = setup(&["m"]);
    let t = db.begin_concurrent().unwrap();
    db.set_range_t(t, r, 0, 32).unwrap();
    db.write_t(t, r, 0, &[0xEE; 32]).unwrap();
    db.prepare_t(t).unwrap();
    // Prepared transactions are frozen.
    assert!(matches!(
        db.set_range_t(t, r, 100, 8),
        Err(TxnError::Unavailable(_))
    ));
    assert!(matches!(
        db.write_t(t, r, 0, &[1; 8]),
        Err(TxnError::Unavailable(_))
    ));
    // Preparing again is an idempotent no-op.
    db.prepare_t(t).unwrap();

    db.abort_t(t).unwrap();
    let init: Vec<u8> = (0..REGION_LEN).map(|i| i as u8).collect();
    assert_eq!(
        db.region_snapshot(r).unwrap(),
        init,
        "abort must roll the local image back"
    );

    // The claims freed immediately: a new transaction takes the range
    // and commits over it.
    let t2 = db.begin_concurrent().unwrap();
    db.set_range_t(t2, r, 0, 32).unwrap();
    db.write_t(t2, r, 0, &[0x55; 32]).unwrap();
    db.commit_t(t2).unwrap();

    db.crash();
    let (db2, report) = Perseas::recover(reopen(&nodes[0]), conc_cfg()).unwrap();
    let mut want = init;
    want[..32].fill(0x55);
    assert_eq!(
        db2.region_snapshot(r).unwrap(),
        want,
        "the aborted prepare must leave no trace (report: rolled_back={:?})",
        report.rolled_back_txns
    );
}

#[test]
fn meta_layout_smoke() {
    // The commit table really sits at the tail of the metadata segment.
    let (mut db, r, nodes) = setup(&["m"]);
    let t = db.begin_concurrent().unwrap();
    db.set_range_t(t, r, 0, 8).unwrap();
    db.write_t(t, r, 0, &[1; 8]).unwrap();
    db.commit_t(t).unwrap();

    let seg = nodes[0].find_by_tag(META_TAG).unwrap();
    let mut image = vec![0u8; seg.len];
    nodes[0].read(seg.id, 0, &mut image).unwrap();
    let header = MetaHeader::decode(&image).unwrap();
    let base = commit_table_offset(seg.len, header.commit_slots as usize);
    assert!(base > OFF_COMMIT);
    let table = decode_commit_table(&image, header.commit_slots as usize);
    assert!(
        header.last_committed == 1 || table.contains(&1),
        "committed id must be durable in watermark or table (w={}, {table:?})",
        header.last_committed
    );
}
