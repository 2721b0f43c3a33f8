//! Database images are advised for 2 MiB pages: a segment a node exports
//! (the SCI-model mirror's and `perseas serve`'s memory) and a region
//! recovery rebuilds are both allocated through `perseas_sci::image::zeroed`,
//! which calls `madvise(MADV_HUGEPAGE)` over the buffer's aligned 2 MiB
//! interior before any byte is touched. Filling the image then takes one
//! page fault per 2 MiB instead of one per 4 KiB.
//!
//! The advised part of a mapping carries `hg` in its `/proc/self/smaps`
//! `VmFlags`, so the test measures how many such bytes each allocation
//! adds. This binary holds one test, so no other thread maps or unmaps
//! memory while it measures. A kernel built without transparent huge
//! pages (no `/sys/kernel/mm/transparent_hugepage/enabled`) is not
//! checked. Run it alone with
//! `cargo test --release -p perseas-integration --test image_pages`.

use std::path::Path;

use perseas_core::{Perseas, PerseasConfig};
use perseas_rnram::SimRemote;
use perseas_sci::image::HUGE_PAGE;
use perseas_sci::NodeMemory;

/// Large enough that glibc maps each image on its own (its `mmap`
/// threshold never passes 32 MiB), so an image always adds a fresh
/// mapping, and small enough for one node's 64 MiB.
const IMAGE: usize = 40 << 20;

/// The least an `IMAGE`-byte buffer's aligned 2 MiB interior can be.
const ADVISED: usize = IMAGE - 2 * HUGE_PAGE;

/// Bytes of this process's mappings whose `VmFlags` hold `hg`.
fn advised_bytes() -> usize {
    let smaps = std::fs::read_to_string("/proc/self/smaps").unwrap();
    let mut size = 0;
    let mut total = 0;
    for line in smaps.lines() {
        let range = line
            .split_whitespace()
            .next()
            .and_then(|r| r.split_once('-'))
            .and_then(|(lo, hi)| {
                Some((
                    usize::from_str_radix(lo, 16).ok()?,
                    usize::from_str_radix(hi, 16).ok()?,
                ))
            });
        if let Some((lo, hi)) = range {
            size = hi - lo;
        } else if let Some(flags) = line.strip_prefix("VmFlags:") {
            if flags.split_whitespace().any(|f| f == "hg") {
                total += size;
            }
        }
    }
    total
}

fn thp_kernel() -> bool {
    Path::new("/sys/kernel/mm/transparent_hugepage/enabled").exists()
}

#[test]
fn node_segments_and_recovered_regions_are_advised() {
    // A node's exported segment: zero, and advised.
    let node = NodeMemory::new("segment");
    let before = advised_bytes();
    let seg = node.export_segment(IMAGE, 7).unwrap();
    let grown = advised_bytes().saturating_sub(before);
    println!("export_segment({IMAGE}) advised {grown} bytes");
    if thp_kernel() {
        assert!(grown >= ADVISED, "a segment advised {grown} bytes");
    }
    let mut image = vec![1u8; IMAGE];
    node.read(seg, 0, &mut image).unwrap();
    assert!(image.iter().all(|&b| b == 0), "a fresh segment is zero");
    drop(image);
    node.free_segment(seg).unwrap();

    // A region recovery rebuilds: the committed image, and advised.
    let mirror = SimRemote::new("mirror");
    let mut db = Perseas::init(vec![mirror.clone()], PerseasConfig::default()).unwrap();
    let r = db.malloc(IMAGE).unwrap();
    db.init_remote_db().unwrap();
    db.begin_transaction().unwrap();
    db.set_range(r, IMAGE / 2, 64).unwrap();
    db.write(r, IMAGE / 2, &[9; 64]).unwrap();
    db.commit_transaction().unwrap();
    db.crash();
    drop(db);

    let before = advised_bytes();
    let (db, _) = Perseas::recover(mirror, PerseasConfig::default()).unwrap();
    let grown = advised_bytes().saturating_sub(before);
    println!("recover of a {IMAGE}-byte region advised {grown} bytes");
    if thp_kernel() {
        assert!(grown >= ADVISED, "recovery advised {grown} bytes");
    }
    let mut expected = vec![0u8; IMAGE];
    expected[IMAGE / 2..IMAGE / 2 + 64].fill(9);
    assert!(
        db.region_snapshot(r).unwrap() == expected,
        "the recovered image"
    );
}
