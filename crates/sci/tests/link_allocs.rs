//! The link's allocation gate: once warm, `SciLink` writes and reads make
//! no heap allocation, whatever their length. The link counts a burst's
//! packets from its two ends instead of listing them, so a 40 MiB read
//! costs what a 50-byte write does in allocations: none.
//!
//! A thread-local counting allocator sees only the test's own thread.
//! `cargo test -p perseas-sci --test link_allocs` runs it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use perseas_sci::{NodeMemory, SciLink, SciParams, SegmentId};
use perseas_simtime::SimClock;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialised thread-local of `Copy` data, which neither allocates
// nor registers a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const READ: usize = 40 << 20;
const ROUNDS: usize = 3;

/// Allocations `op` makes on this thread in `ROUNDS` calls, after one
/// warm-up call.
fn allocs(mut op: impl FnMut()) -> u64 {
    op();
    let before = ALLOCS.with(Cell::get);
    for _ in 0..ROUNDS {
        op();
    }
    ALLOCS.with(Cell::get) - before
}

fn link() -> (SciLink, SegmentId) {
    let node = NodeMemory::new("allocs");
    let link = SciLink::new(SimClock::new(), node.clone(), SciParams::dolphin_1998());
    let seg = node.export_segment(READ, 0).unwrap();
    (link, seg)
}

#[test]
fn writes_of_any_length_allocate_nothing() {
    let (link, seg) = link();
    let small = [7u8; 50];
    let big = vec![9u8; 1 << 20];
    // 8 ranges at unaligned offsets, so every shape of burst is in it.
    let ranges: Vec<(SegmentId, usize, &[u8])> = (0..8)
        .map(|i| (seg, 3 + i * 4099, &big[..100 + i * 700]))
        .collect();

    assert_eq!(allocs(|| link.remote_write(seg, 13, &small).unwrap()), 0);
    assert_eq!(allocs(|| link.remote_write(seg, 5, &big).unwrap()), 0);
    assert_eq!(allocs(|| link.remote_write_v(&ranges).unwrap()), 0);
    assert_eq!(link.stats().writes, 3 * (ROUNDS as u64 + 1));
}

#[test]
fn a_40_mib_read_into_a_caller_buffer_allocates_nothing() {
    let (link, seg) = link();
    let mut buf = vec![0u8; READ];
    assert_eq!(allocs(|| link.remote_read(seg, 0, &mut buf).unwrap()), 0);
    assert_eq!(link.stats().bytes_read, (READ * (ROUNDS + 1)) as u64);
}
