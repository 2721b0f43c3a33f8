//! The REDO-only commit path over the real TCP backend: commits append
//! to the segmented log across a genuine socket/thread boundary, a
//! snapshot retires the covered history, and a recovering connection
//! replays only the live tail.
//!
//! Every scenario runs once per [`TcpMode`]: a private socket and a
//! session on the shared socket.

use perseas_core::{Perseas, PerseasConfig};
use perseas_integration::TcpMode;
use perseas_rnram::server::Server;

fn redo_cfg() -> PerseasConfig {
    PerseasConfig::default()
        .with_redo(true)
        .with_redo_log(4096, 8)
}

#[test]
fn redo_commit_snapshot_crash_recover_over_tcp() {
    for mode in TcpMode::ALL {
        let server = Server::bind("redo-tcp", "127.0.0.1:0").unwrap().start();

        let mirror = mode.connect(server.addr());
        let mut db = Perseas::init(vec![mirror], redo_cfg()).unwrap();
        let r = db.malloc(1024).unwrap();
        db.init_remote_db().unwrap();

        for i in 0..48u64 {
            db.begin_transaction().unwrap();
            let slot = (i as usize % 128) * 8;
            db.set_range(r, slot, 8).unwrap();
            db.write(r, slot, &i.to_le_bytes()).unwrap();
            db.commit_transaction().unwrap();
            // Snapshot 8 transactions before the crash: the covered log
            // prefix is retired, so recovery replays only the tail.
            if i == 39 {
                db.redo_snapshot().unwrap();
            }
        }
        db.crash();

        let reconnect = mode.connect(server.addr());
        let (db2, report) = Perseas::recover(reconnect, redo_cfg()).unwrap();
        assert_eq!(report.last_committed, 48, "{mode:?}");
        assert_eq!(
            report.replayed_records, 8,
            "{mode:?}: only the tail replays"
        );
        let mut buf = [0u8; 8];
        db2.read(r, 47 * 8, &mut buf).unwrap();
        assert_eq!(u64::from_le_bytes(buf), 47, "{mode:?}");
        server.shutdown();
    }
}

#[test]
fn redo_in_flight_transaction_vanishes_over_tcp() {
    for mode in TcpMode::ALL {
        let server = Server::bind("redo-tcp-abort", "127.0.0.1:0")
            .unwrap()
            .start();
        let mirror = mode.connect(server.addr());
        let mut db = Perseas::init(vec![mirror], redo_cfg()).unwrap();
        let r = db.malloc(256).unwrap();
        db.write(r, 0, &[1; 256]).unwrap();
        db.init_remote_db().unwrap();

        // In redo mode nothing reaches the log before commit, so an
        // in-flight transaction leaves no trace at all.
        db.begin_transaction().unwrap();
        db.set_range(r, 0, 64).unwrap();
        db.write(r, 0, &[2; 64]).unwrap();
        db.crash();

        let reconnect = mode.connect(server.addr());
        let (db2, report) = Perseas::recover(reconnect, redo_cfg()).unwrap();
        assert_eq!(report.last_committed, 0, "{mode:?}");
        assert_eq!(report.replayed_records, 0, "{mode:?}");
        let mut buf = [0u8; 64];
        db2.read(r, 0, &mut buf).unwrap();
        assert_eq!(buf, [1; 64], "{mode:?}");
        server.shutdown();
    }
}
