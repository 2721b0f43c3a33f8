//! Sparse fill property: publishing a database and streaming an image to
//! an added or rejoining mirror ship only the 4 KiB pages of each region
//! that hold a non-zero byte, and still leave every mirror equal to the
//! local image.
//!
//! 256 cases vary the region count and sizes (empty, under a page, not a
//! multiple of a page), the pages (all zero, all non-zero, alternating,
//! one non-zero byte on the first or last byte of a page), the aligned
//! copy, and one or two `SimRemote` mirrors. After `init_remote_db`,
//! after `add_mirror`, and after a link cut followed by `rejoin_mirror`,
//! each case checks that:
//! - every mirror's database segments equal the local image;
//! - the bytes written into region segments are exactly the bytes of the
//!   image's non-zero pages, and the engine's counters say so;
//! - each mirror alone recovers the image.
//!
//! One case runs over TCP in every client mode, and one over a two-shard
//! database.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use perseas_core::{
    decode_region_entry, MetaHeader, MirrorHealth, Perseas, PerseasConfig, RegionId,
    ShardedPerseas, TransactionalMemory, META_TAG,
};
use perseas_integration::{reopen, TcpMode};
use perseas_obs::{parse_exposition, Registry};
use perseas_rnram::server::Server;
use perseas_rnram::{FlushStats, RemoteMemory, RemoteSegment, RnError, SegmentId, SimRemote};
use perseas_sci::{NodeMemory, SciParams};
use perseas_simtime::SimClock;
use proptest::prelude::*;

const PAGE: usize = 4096;

/// Bytes written through a set of [`Counting`] handles: all of them, and
/// those that landed in segments allocated untagged (regions, undo and
/// redo logs; only region segments are written while filling).
#[derive(Clone, Default)]
struct Tally {
    all: Arc<AtomicUsize>,
    region: Arc<AtomicUsize>,
}

impl Tally {
    /// Returns `(all, region)` and starts counting again from zero.
    fn take(&self) -> (usize, usize) {
        (
            self.all.swap(0, Ordering::Relaxed),
            self.region.swap(0, Ordering::Relaxed),
        )
    }
}

/// A backend that counts the payload bytes the engine hands it.
struct Counting<M> {
    inner: M,
    tagged: HashSet<SegmentId>,
    tally: Tally,
}

impl<M> Counting<M> {
    fn new(inner: M, tally: &Tally) -> Self {
        Counting {
            inner,
            tagged: HashSet::new(),
            tally: tally.clone(),
        }
    }

    fn count(&self, seg: SegmentId, len: usize) {
        self.tally.all.fetch_add(len, Ordering::Relaxed);
        if !self.tagged.contains(&seg) {
            self.tally.region.fetch_add(len, Ordering::Relaxed);
        }
    }
}

impl<M: RemoteMemory> RemoteMemory for Counting<M> {
    fn remote_malloc(&mut self, len: usize, tag: u64) -> Result<RemoteSegment, RnError> {
        let seg = self.inner.remote_malloc(len, tag)?;
        if tag != 0 {
            self.tagged.insert(seg.id);
        }
        Ok(seg)
    }

    fn remote_free(&mut self, seg: SegmentId) -> Result<(), RnError> {
        self.inner.remote_free(seg)
    }

    fn remote_write(&mut self, seg: SegmentId, offset: usize, data: &[u8]) -> Result<(), RnError> {
        self.count(seg, data.len());
        self.inner.remote_write(seg, offset, data)
    }

    fn remote_write_v(&mut self, writes: &[(SegmentId, usize, &[u8])]) -> Result<(), RnError> {
        for &(seg, _, data) in writes {
            self.count(seg, data.len());
        }
        self.inner.remote_write_v(writes)
    }

    fn flush(&mut self) -> Result<FlushStats, RnError> {
        self.inner.flush()
    }

    fn in_flight(&self) -> usize {
        self.inner.in_flight()
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
        self.inner.remote_read(seg, offset, buf)
    }

    fn remote_read_v(
        &mut self,
        reads: &[(SegmentId, usize, usize)],
    ) -> Result<Vec<Vec<u8>>, RnError> {
        self.inner.remote_read_v(reads)
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

/// How a region's pages are filled.
#[derive(Debug, Clone, Copy)]
enum Fill {
    Zero,
    Full,
    /// Every other page non-zero, starting with the first if `true`.
    Alternate(bool),
    /// A single non-zero byte on the first (or last) byte of a page.
    OneByte {
        page: usize,
        last: bool,
    },
}

fn fill_strategy() -> impl Strategy<Value = Fill> {
    prop_oneof![
        Just(Fill::Zero),
        Just(Fill::Full),
        any::<bool>().prop_map(Fill::Alternate),
        (0..8usize, any::<bool>()).prop_map(|(page, last)| Fill::OneByte { page, last }),
    ]
}

fn len_strategy() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        1..PAGE,
        (1..5usize).prop_map(|k| k * PAGE),
        (1..5usize, 1..PAGE).prop_map(|(k, r)| k * PAGE + r),
    ]
}

fn image(len: usize, fill: Fill) -> Vec<u8> {
    let mut v = vec![0u8; len];
    let nonzero = |p: &mut [u8]| {
        for (i, b) in p.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(31) | 1;
        }
    };
    match fill {
        Fill::Zero => {}
        Fill::Full => nonzero(&mut v),
        Fill::Alternate(first) => {
            for (i, p) in v.chunks_mut(PAGE).enumerate() {
                if (i % 2 == 0) == first {
                    nonzero(p);
                }
            }
        }
        Fill::OneByte { page, last } if len > 0 => {
            let p = page % len.div_ceil(PAGE);
            let at = if last {
                ((p + 1) * PAGE).min(len) - 1
            } else {
                p * PAGE
            };
            v[at] = 0xA5;
        }
        Fill::OneByte { .. } => {}
    }
    v
}

/// The bytes of the 4 KiB pages of `images` that hold a non-zero byte.
fn nonzero_bytes(images: &[Vec<u8>]) -> usize {
    images
        .iter()
        .flat_map(|img| img.chunks(PAGE))
        .filter(|p| p.iter().any(|&b| b != 0))
        .map(<[u8]>::len)
        .sum()
}

/// The database segments a mirror's published metadata points at.
fn mirror_regions<R: RemoteMemory>(remote: &mut R, meta_tag: u64) -> Vec<Vec<u8>> {
    let meta = remote.connect_segment(meta_tag).unwrap();
    let mut table = vec![0u8; meta.len];
    remote.remote_read(meta.id, 0, &mut table).unwrap();
    let header = MetaHeader::decode(&table).unwrap();
    (0..header.region_count as usize)
        .map(|i| {
            let (id, len) = decode_region_entry(&table, i).unwrap();
            let mut data = vec![0u8; len as usize];
            if len > 0 {
                remote
                    .remote_read(SegmentId::from_raw(id), 0, &mut data)
                    .unwrap();
            }
            data
        })
        .collect()
}

/// Checks one mirror, reached through a fresh handle: its segments equal
/// `local`, and it alone recovers `local`.
fn check_mirror<R: RemoteMemory>(mut remote: R, cfg: PerseasConfig, local: &[Vec<u8>], what: &str) {
    assert_eq!(
        mirror_regions(&mut remote, cfg.meta_tag),
        local,
        "{what}: mirror segments differ from the local image"
    );
    let (db, _) = Perseas::recover(remote, cfg).unwrap();
    let got: Vec<Vec<u8>> = (0..local.len())
        .map(|i| db.region_snapshot(RegionId::from_raw(i as u32)).unwrap())
        .collect();
    assert_eq!(got, local, "{what}: recovery differs from the local image");
}

fn local_image<M: RemoteMemory>(db: &Perseas<M>, regions: &[RegionId]) -> Vec<Vec<u8>> {
    regions
        .iter()
        .map(|&r| db.region_snapshot(r).unwrap())
        .collect()
}

fn resync_bytes(registry: &Registry) -> usize {
    parse_exposition(&registry.render())
        .unwrap()
        .iter()
        .filter(|s| s.name == "perseas_mirror_resync_bytes_total")
        .map(|s| s.value as usize)
        .sum()
}

/// A degraded transaction: writes `byte` over `len` bytes of the first
/// non-empty region (zero bytes can empty a page).
#[derive(Debug, Clone, Copy)]
struct Touch {
    offset: usize,
    len: usize,
    byte: u8,
}

fn touch_strategy() -> impl Strategy<Value = Touch> {
    (
        0..5 * PAGE,
        1..2 * PAGE,
        prop_oneof![Just(0u8), Just(0x77u8)],
    )
        .prop_map(|(offset, len, byte)| Touch { offset, len, byte })
}

fn run_sim_case(layout: &[(usize, Fill)], mirrors: usize, aligned: bool, touch: Touch) {
    let what = format!("{layout:?} mirrors={mirrors} aligned={aligned} {touch:?}");
    let cfg = PerseasConfig::default()
        .with_aligned_memcpy(aligned)
        .with_max_regions(8);
    let clock = SimClock::new();
    let tally = Tally::default();
    let mut nodes: Vec<NodeMemory> = (0..mirrors)
        .map(|i| NodeMemory::new(format!("m{i}")))
        .collect();
    let backend = |node: &NodeMemory| {
        let sim = SimRemote::with_parts(clock.clone(), node.clone(), SciParams::dolphin_1998());
        (sim.link().clone(), Counting::new(sim, &tally))
    };
    let (mut links, backends): (Vec<_>, Vec<_>) = nodes.iter().map(backend).unzip();
    let mut db = Perseas::init_with_clock(backends, cfg, clock.clone()).unwrap();
    let registry = Registry::new();
    db.set_metrics(&registry);
    let mut regions = Vec::new();
    for &(len, fill) in layout {
        let r = db.malloc(len).unwrap();
        if len > 0 {
            db.write(r, 0, &image(len, fill)).unwrap();
        }
        regions.push(r);
    }
    let check_all = |nodes: &[NodeMemory], local: &[Vec<u8>], step: &str| {
        for (i, node) in nodes.iter().enumerate() {
            check_mirror(
                reopen(node),
                cfg,
                local,
                &format!("{what}: {step}, mirror {i}"),
            );
        }
    };

    // Publish.
    tally.take();
    let stats0 = db.stats().remote_write_bytes;
    db.init_remote_db().unwrap();
    let local = local_image(&db, &regions);
    let (all, region) = tally.take();
    assert_eq!(region, mirrors * nonzero_bytes(&local), "{what}: publish");
    assert_eq!(
        db.stats().remote_write_bytes - stats0,
        all as u64,
        "{what}: stats"
    );
    check_all(&nodes, &local, "publish");

    // Add a mirror.
    let node = NodeMemory::new("added");
    let (link, newcomer) = backend(&node);
    nodes.push(node);
    links.push(link);
    let resync0 = resync_bytes(&registry);
    db.add_mirror(newcomer).unwrap();
    let (_, region) = tally.take();
    assert_eq!(region, nonzero_bytes(&local), "{what}: add_mirror");
    assert_eq!(
        resync_bytes(&registry) - resync0,
        region,
        "{what}: resync metric"
    );
    check_all(&nodes, &local, "add_mirror");

    // Cut the newcomer's link under a transaction, heal it and rejoin.
    // A transaction that writes nothing sends nothing, so a database
    // without a byte to write has no way to lose a mirror.
    let Some((i, img)) = local.iter().enumerate().find(|(_, img)| !img.is_empty()) else {
        return;
    };
    let last = nodes.len() - 1;
    links[last].cut_after_packets(0);
    let offset = touch.offset % img.len();
    let len = touch.len.min(img.len() - offset);
    db.begin_transaction().unwrap();
    db.set_range(regions[i], offset, len).unwrap();
    db.write(regions[i], offset, &vec![touch.byte; len])
        .unwrap();
    db.commit_transaction().unwrap();
    assert_eq!(
        db.mirror_status()[last].health,
        MirrorHealth::Down,
        "{what}"
    );
    links[last].heal();
    db.probe_down_mirrors();
    let local = local_image(&db, &regions);
    tally.take();
    let resync0 = resync_bytes(&registry);
    db.rejoin_mirror(last).unwrap();
    let (_, region) = tally.take();
    assert_eq!(region, nonzero_bytes(&local), "{what}: rejoin");
    assert_eq!(
        resync_bytes(&registry) - resync0,
        region,
        "{what}: resync metric"
    );
    check_all(&nodes, &local, "rejoin");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fresh_mirrors_get_exactly_the_non_zero_pages(
        layout in prop::collection::vec((len_strategy(), fill_strategy()), 0..5),
        mirrors in 1..3usize,
        aligned in any::<bool>(),
        touch in touch_strategy(),
    ) {
        run_sim_case(&layout, mirrors, aligned, touch);
    }
}

/// A mixed layout for the fixed TCP and sharded cases.
fn mixed() -> Vec<Vec<u8>> {
    vec![
        image(3 * PAGE + 100, Fill::Alternate(false)),
        image(0, Fill::Zero),
        image(2 * PAGE, Fill::Zero),
        image(
            PAGE + 1,
            Fill::OneByte {
                page: 1,
                last: true,
            },
        ),
        image(300, Fill::Full),
    ]
}

#[test]
fn tcp_mirrors_get_exactly_the_non_zero_pages() {
    for mode in TcpMode::ALL {
        let servers: Vec<_> = (0..3)
            .map(|i| {
                Server::bind(format!("sparse{i}"), "127.0.0.1:0")
                    .unwrap()
                    .start()
            })
            .collect();
        let tally = Tally::default();
        let cfg = PerseasConfig::default();
        let backends = servers[..2]
            .iter()
            .map(|s| Counting::new(mode.connect(s.addr()), &tally))
            .collect();
        let mut db = Perseas::init(backends, cfg).unwrap();
        let images = mixed();
        let mut regions = Vec::new();
        for img in &images {
            let r = db.malloc(img.len()).unwrap();
            if !img.is_empty() {
                db.write(r, 0, img).unwrap();
            }
            regions.push(r);
        }
        db.init_remote_db().unwrap();
        assert_eq!(tally.take().1, 2 * nonzero_bytes(&images), "{mode:?}");
        db.add_mirror(Counting::new(mode.connect(servers[2].addr()), &tally))
            .unwrap();
        assert_eq!(tally.take().1, nonzero_bytes(&images), "{mode:?}");
        assert_eq!(local_image(&db, &regions), images);
        for s in &servers {
            check_mirror(mode.connect(s.addr()), cfg, &images, &format!("{mode:?}"));
        }
        drop(db);
        for s in servers {
            s.shutdown();
        }
    }
}

#[test]
fn sharded_mirrors_get_exactly_the_non_zero_pages() {
    const K: usize = 2;
    let tally = Tally::default();
    let nodes: Vec<Vec<NodeMemory>> = (0..K)
        .map(|s| {
            (0..2)
                .map(|m| NodeMemory::new(format!("s{s}m{m}")))
                .collect()
        })
        .collect();
    let backends = nodes
        .iter()
        .map(|shard| {
            shard
                .iter()
                .map(|n| Counting::new(reopen(n), &tally))
                .collect()
        })
        .collect();
    let cfg = PerseasConfig::default().with_max_regions(8);
    let mut db = ShardedPerseas::init(backends, cfg).unwrap();
    let images = mixed();
    let mut regions = Vec::new();
    for img in &images {
        let r = db.malloc(img.len()).unwrap();
        if !img.is_empty() {
            db.write(r, 0, img).unwrap();
        }
        regions.push(r);
    }
    tally.take();
    db.init_remote_db().unwrap();
    assert_eq!(tally.take().1, 2 * nonzero_bytes(&images));
    // Global region g lives on shard g % K, whose metadata carries tag
    // META_TAG + shard.
    for (s, shard) in nodes.iter().enumerate() {
        let want: Vec<Vec<u8>> = images.iter().skip(s).step_by(K).cloned().collect();
        for node in shard {
            assert_eq!(mirror_regions(&mut reopen(node), META_TAG + s as u64), want);
        }
    }
    for m in 0..2 {
        let alone = nodes.iter().map(|shard| vec![reopen(&shard[m])]).collect();
        let (rec, _) = ShardedPerseas::recover(alone, cfg).unwrap();
        for (&r, img) in regions.iter().zip(&images) {
            assert_eq!(&rec.region_snapshot(r).unwrap(), img, "mirror {m} alone");
        }
    }
}
