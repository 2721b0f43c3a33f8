//! `remote_malloc` returns a zero-filled segment on every transport.
//!
//! The engine relies on this: publishing a database and re-streaming a
//! mirror ship only the non-zero pages of each region into segments
//! fresh from `remote_malloc`. A node reuses the memory of freed
//! segments, so every case also frees a written segment and allocates
//! one of the same size right after.

use perseas_rnram::server::Server;
use perseas_rnram::{BackoffPolicy, RemoteMemory, SessionMux, SimRemote, TcpRemote};

/// Segment sizes: under a page, a page, not a multiple of a page, and
/// past one 256 KiB transfer frame.
const SIZES: [usize; 4] = [100, 4096, 3 * 4096 + 17, (1 << 18) + 4096];

fn assert_zeroed<M: RemoteMemory>(remote: &mut M, id: perseas_rnram::SegmentId, len: usize) {
    let mut buf = vec![0xAA; len];
    remote.remote_read(id, 0, &mut buf).unwrap();
    assert!(
        buf.iter().all(|&b| b == 0),
        "segment of {len} bytes not zero"
    );
}

/// Allocates, dirties and frees a segment of each size, then checks that
/// fresh segments of the same sizes read back all zero.
fn check<M: RemoteMemory>(remote: &mut M) {
    for len in SIZES {
        let seg = remote.remote_malloc(len, 0).unwrap();
        assert_eq!(seg.len, len);
        assert_zeroed(remote, seg.id, len);
        remote.remote_write(seg.id, 0, &vec![0xFF; len]).unwrap();
        remote.flush().unwrap();
        remote.remote_free(seg.id).unwrap();

        let again = remote.remote_malloc(len, 0).unwrap();
        assert_zeroed(remote, again.id, len);
        remote.remote_free(again.id).unwrap();
    }
}

#[test]
fn sim_remote_mallocs_zeroed_segments() {
    check(&mut SimRemote::new("zeroed"));
}

#[test]
fn tcp_remote_mallocs_zeroed_segments() {
    let server = Server::bind("zeroed", "127.0.0.1:0").unwrap().start();
    check(&mut TcpRemote::connect(server.addr()).unwrap());
    check(&mut SessionMux::connect(server.addr()).unwrap().session());
    server.shutdown();
}

#[test]
fn reconnecting_remote_mallocs_zeroed_segments() {
    let server = Server::bind("zeroed", "127.0.0.1:0").unwrap().start();
    let redialing = TcpRemote::connect_redialing(server.addr(), 3, BackoffPolicy::default());
    check(&mut redialing.unwrap());
    let mux = SessionMux::connect(server.addr()).unwrap();
    let (mut a, mut b) = (mux.session(), mux.session());
    check(&mut a);
    check(&mut b);
    server.shutdown();
}
