//! Corrupt mirror metadata must never panic, abort or hang the engine.
//!
//! Every size the metadata header declares (region count, commit-table,
//! intent and decision slot counts) comes off the wire. The regression
//! cases pin the sizes that used to reach an allocation or a loop
//! unchecked; the property overwrites 1–8 random bytes of the header,
//! region table or commit table of a small image — undo, concurrent,
//! redo, or one shard of a 2-shard database — and requires every way of
//! reading a mirror to return `Ok` or a typed [`TxnError`].

use std::ops::Range;

use perseas_core::{
    MetaHeader, Perseas, PerseasConfig, ReadReplica, ShardedPerseas, TxnError, META_TAG,
};
use perseas_integration::reopen;
use perseas_integration::shard_harness::{build_sharded, reopen_sharded, ShardCluster};
use perseas_rnram::SimRemote;
use perseas_sci::NodeMemory;
use perseas_simtime::{det_rng, DetRng, SimClock};

/// Byte offset of the header's region count.
const OFF_REGION_COUNT: usize = 12;
/// Byte offset of the header's commit-slot count.
const OFF_COMMIT_SLOTS: usize = 44;
/// Regions every single-mirror image holds.
const REGIONS: usize = 2;

#[derive(Debug, Clone, Copy)]
enum Kind {
    Undo,
    Concurrent,
    Redo,
    Shard,
}

fn cfg(kind: Kind) -> PerseasConfig {
    match kind {
        Kind::Undo => PerseasConfig::default(),
        Kind::Concurrent | Kind::Shard => PerseasConfig::default().with_concurrent(true),
        Kind::Redo => PerseasConfig::default().with_redo(true),
    }
}

/// A crashed single-mirror database of `kind`: one commit in each region,
/// one transaction left in flight.
fn single(kind: Kind) -> NodeMemory {
    let backend = SimRemote::new("m");
    let node = backend.node().clone();
    let mut db = Perseas::init(vec![backend], cfg(kind)).unwrap();
    let regions: Vec<_> = (0..REGIONS).map(|_| db.malloc(64).unwrap()).collect();
    db.init_remote_db().unwrap();
    for (i, &r) in regions.iter().enumerate() {
        db.transaction(|tx| tx.update(r, 8 * i, &[i as u8 + 1; 8]))
            .unwrap();
    }
    db.begin_transaction().unwrap();
    db.set_range(regions[0], 32, 8).unwrap();
    db.write(regions[0], 32, &[9; 8]).unwrap();
    db.crash();
    node
}

/// A crashed 2-shard database, one mirror per shard, with a cross-shard
/// transaction left in doubt (its decision record written when
/// `decided`).
fn sharded(decided: bool) -> ShardCluster {
    let (mut db, regions, cluster) = build_sharded(2, 1);
    let g = db.begin_global().unwrap();
    for &r in &regions {
        db.set_range_g(g, r, 16, 8).unwrap();
        db.write_g(g, r, 16, &[7; 8]).unwrap();
    }
    db.prepare_parts(g).unwrap();
    db.write_intents(g).unwrap();
    if decided {
        db.write_decision(g).unwrap();
    }
    db.crash();
    cluster
}

/// Overwrites `bytes` at `offset` of the metadata segment tagged `tag`.
fn poke(node: &NodeMemory, tag: u64, offset: usize, bytes: &[u8]) {
    let meta = node.find_by_tag(tag).expect("metadata segment");
    node.write(meta.id, offset, bytes).unwrap();
}

fn is_unavailable<T>(r: Result<T, TxnError>) -> bool {
    matches!(r, Err(TxnError::Unavailable(_)))
}

#[test]
fn a_region_count_of_u32_max_is_refused() {
    let huge = u32::MAX.to_le_bytes();
    let corrupt = || {
        let node = single(Kind::Undo);
        poke(&node, META_TAG, OFF_REGION_COUNT, &huge);
        node
    };
    let c = PerseasConfig::default();
    assert!(is_unavailable(Perseas::recover(reopen(&corrupt()), c)));
    assert!(is_unavailable(Perseas::recover_best(
        vec![reopen(&corrupt())],
        c,
        SimClock::new()
    )));
    assert!(is_unavailable(ReadReplica::attach(reopen(&corrupt()), c)));

    // Scrubbing stays best effort: an image whose tables do not fit its
    // segment names nothing, so only the metadata segment goes.
    let node = corrupt();
    Perseas::scrub_mirror(&mut reopen(&node), &c).unwrap();
    assert!(node.find_by_tag(META_TAG).is_none());

    let cluster = sharded(false);
    poke(&cluster.nodes[0][0], META_TAG, OFF_REGION_COUNT, &huge);
    assert!(is_unavailable(ShardedPerseas::recover(
        reopen_sharded(&cluster),
        c
    )));
}

#[test]
fn a_commit_table_larger_than_its_segment_is_refused() {
    let node = single(Kind::Concurrent);
    poke(&node, META_TAG, OFF_COMMIT_SLOTS, &100_000u32.to_le_bytes());
    assert!(is_unavailable(Perseas::recover(
        reopen(&node),
        cfg(Kind::Concurrent)
    )));
}

/// The areas the property corrupts in a metadata segment: the header,
/// the live region-table entries, and the commit table at the
/// segment's tail, as long as the clean header says it is.
fn areas(node: &NodeMemory, tag: u64, regions: usize) -> Vec<Range<usize>> {
    let meta = node.find_by_tag(tag).expect("metadata segment");
    let mut header = [0u8; 64];
    node.read(meta.id, 0, &mut header).unwrap();
    let slots = MetaHeader::decode(&header).unwrap().commit_slots as usize;
    let len = meta.len;
    [0..64, 64..64 + 16 * regions, len - 8 * slots..len]
        .into_iter()
        .filter(|area| !area.is_empty())
        .collect()
}

/// Overwrites 1–8 random bytes, each in an area picked uniformly, so the
/// short header is hit as often as the long commit table.
fn corrupt(rng: &mut DetRng, node: &NodeMemory, tag: u64, areas: &[Range<usize>]) {
    for _ in 0..1 + rng.gen_index(8) {
        let area = &areas[rng.gen_index(areas.len())];
        let off = area.start + rng.gen_index(area.len());
        poke(node, tag, off, &[rng.next_u32() as u8]);
    }
}

/// Runs every reader over a fresh copy of the same corrupted image. Each
/// must come back; any typed error is fine.
fn read_corrupted(seed: u64, kind: Kind) {
    let mut rng = det_rng(seed);
    let (decided, bytes_seed) = (rng.gen_bool(0.5), rng.next_u64());
    let shard = if matches!(kind, Kind::Shard) {
        rng.gen_index(2)
    } else {
        0
    };
    let tag = META_TAG + shard as u64;
    let c = cfg(kind).with_meta_tag(tag);
    let build = || {
        let mut rng = det_rng(bytes_seed);
        let (node, cluster) = match kind {
            Kind::Shard => {
                let cluster = sharded(decided);
                (cluster.nodes[shard][0].clone(), Some(cluster))
            }
            _ => (single(kind), None),
        };
        let regions = if cluster.is_some() { 1 } else { REGIONS };
        corrupt(&mut rng, &node, tag, &areas(&node, tag, regions));
        (node, cluster)
    };
    let spare = || reopen(&NodeMemory::new("spare"));

    let _ = Perseas::recover(reopen(&build().0), c);
    let _ = Perseas::recover_best(vec![reopen(&build().0), spare()], c, SimClock::new());
    let _ = ReadReplica::attach(reopen(&build().0), c);
    let _ = Perseas::scrub_mirror(&mut reopen(&build().0), &c);
    if let (_, Some(cluster)) = build() {
        let _ = ShardedPerseas::recover(reopen_sharded(&cluster), PerseasConfig::default());
    }
}

#[test]
fn corrupt_metadata_never_panics_across_256_cases() {
    let kinds = [Kind::Undo, Kind::Concurrent, Kind::Redo, Kind::Shard];
    for seed in 0..256u64 {
        read_corrupted(seed, kinds[(seed % 4) as usize]);
    }
}

#[test]
fn uncorrupted_images_pass_every_reader() {
    // The property's images are sound before the corruption: every
    // reader accepts them, so the property reaches past the checks.
    for kind in [Kind::Undo, Kind::Concurrent, Kind::Redo] {
        let node = single(kind);
        if !matches!(kind, Kind::Redo) {
            ReadReplica::attach(reopen(&node), cfg(kind)).unwrap();
        }
        let (_, report) =
            Perseas::recover_best(vec![reopen(&node)], cfg(kind), SimClock::new()).unwrap();
        assert_eq!(report.last_committed, REGIONS as u64, "{kind:?}");
    }
    for decided in [false, true] {
        let (_, report) =
            ShardedPerseas::recover(reopen_sharded(&sharded(decided)), PerseasConfig::default())
                .unwrap();
        assert_eq!(report.resolved_commits, vec![usize::from(decided); 2]);
    }
}
