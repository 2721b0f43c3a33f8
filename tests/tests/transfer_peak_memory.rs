//! The memory gate of a long transfer: a 40 MiB `remote_write` and a
//! 40 MiB `remote_read` over `TcpRemote` raise the process's peak of live
//! heap bytes by at most four frames of `MAX_PIECE` bytes. The client cuts
//! both into frames of at most that size, so the server's connection
//! buffer never grows past one frame and it builds one read answer at a
//! time; the client sends from the caller's buffer and reads into it.
//!
//! A global counting allocator sees every thread, the server's included,
//! so this binary holds one test. Run it in release to see the figures:
//! `cargo test --release -p perseas-integration --test transfer_peak_memory -- --nocapture`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use perseas_rnram::protocol::MAX_PIECE;
use perseas_rnram::server::Server;
use perseas_rnram::{RemoteMemory, TcpRemote};

struct Counting;

/// Live heap bytes, and the most there have been since the last reset.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::SeqCst);
}

// SAFETY: every call forwards to `System` unchanged; the counters are
// atomics, which neither allocate nor hold locks.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            // Counted as if both blocks were live at once, as they are
            // while a moving realloc copies.
            grew(new_size);
            shrank(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size());
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const LEN: usize = 40 << 20;

#[test]
fn a_long_transfer_holds_a_few_frames_of_memory() {
    let server = Server::bind("peak", "127.0.0.1:0").unwrap().start();
    let mut c = TcpRemote::connect(server.addr()).unwrap();
    let seg = c.remote_malloc(LEN, 0).unwrap();
    let data: Vec<u8> = (0..LEN).map(|i| (i % 251) as u8).collect();
    let mut back = vec![0u8; LEN];
    c.ping().unwrap();

    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    c.remote_write(seg.id, 0, &data).unwrap();
    c.flush().unwrap();
    let write_rise = PEAK.load(Ordering::SeqCst) - base;
    c.remote_read(seg.id, 0, &mut back).unwrap();
    let rise = PEAK.load(Ordering::SeqCst) - base;
    println!(
        "peak live heap over a {} MiB write: +{write_rise} B; with the read: +{rise} B \
         (gate {} B)",
        LEN >> 20,
        4 * MAX_PIECE
    );
    assert!(back == data, "the read returned what was written");
    assert!(
        rise <= 4 * MAX_PIECE,
        "a {LEN}-byte transfer raised the peak by {rise} bytes"
    );
    drop(c);
    server.shutdown();
}
