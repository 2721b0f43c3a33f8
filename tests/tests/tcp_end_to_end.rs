//! End-to-end PERSEAS over the real TCP backend: a genuinely separate
//! server process boundary (threads + sockets), full commit/crash/recover
//! cycle, and multi-database coexistence on one mirror.
//!
//! Every scenario runs once per [`TcpMode`]: a confirmed private socket,
//! a pipelined private socket, and a session on the shared socket.

use perseas_core::{Perseas, PerseasConfig};
use perseas_integration::TcpMode;
use perseas_rnram::server::Server;
use perseas_workloads::{run_workload, DebitCredit, DebitCreditScale, Workload};

#[test]
fn commit_crash_recover_over_tcp() {
    for mode in TcpMode::ALL {
        let server = Server::bind("tcp-e2e", "127.0.0.1:0").unwrap().start();

        let mirror = mode.connect(server.addr());
        let mut db = Perseas::init(vec![mirror], PerseasConfig::default()).unwrap();
        let r = db.malloc(1024).unwrap();
        db.init_remote_db().unwrap();

        for i in 0..50u64 {
            db.begin_transaction().unwrap();
            let slot = (i as usize % 128) * 8;
            db.set_range(r, slot, 8).unwrap();
            db.write(r, slot, &i.to_le_bytes()).unwrap();
            db.commit_transaction().unwrap();
        }
        db.crash();

        let reconnect = mode.connect(server.addr());
        let (db2, report) = Perseas::recover(reconnect, PerseasConfig::default()).unwrap();
        assert_eq!(report.last_committed, 50, "{mode:?}");
        let mut buf = [0u8; 8];
        db2.read(r, 49 * 8, &mut buf).unwrap();
        assert_eq!(u64::from_le_bytes(buf), 49, "{mode:?}");
        server.shutdown();
    }
}

#[test]
fn in_flight_transaction_rolls_back_over_tcp() {
    for mode in TcpMode::ALL {
        let server = Server::bind("tcp-rollback", "127.0.0.1:0").unwrap().start();
        let mirror = mode.connect(server.addr());
        let mut db = Perseas::init(vec![mirror], PerseasConfig::default()).unwrap();
        let r = db.malloc(256).unwrap();
        db.write(r, 0, &[1; 256]).unwrap();
        db.init_remote_db().unwrap();

        db.begin_transaction().unwrap();
        db.set_range(r, 0, 64).unwrap();
        db.write(r, 0, &[2; 64]).unwrap();
        // Crash before commit; set_range already pushed undo records + data
        // was never propagated.
        db.crash();

        let reconnect = mode.connect(server.addr());
        let (db2, report) = Perseas::recover(reconnect, PerseasConfig::default()).unwrap();
        assert!(report.rolled_back_txn.is_some(), "{mode:?}");
        assert_eq!(db2.region_snapshot(r).unwrap(), vec![1; 256], "{mode:?}");
        server.shutdown();
    }
}

#[test]
fn debit_credit_workload_over_tcp() {
    for mode in TcpMode::ALL {
        let server = Server::bind("tcp-bank", "127.0.0.1:0").unwrap().start();
        let mirror = mode.connect(server.addr());
        let mut db = Perseas::init(vec![mirror], PerseasConfig::default()).unwrap();
        let mut wl = DebitCredit::new(DebitCreditScale::tiny(), 31);
        wl.setup(&mut db).unwrap();
        run_workload(&mut db, &mut wl, 200).unwrap();
        wl.check(&db).unwrap();
        server.shutdown();
    }
}

#[test]
fn two_databases_share_one_mirror_via_distinct_tags() {
    for mode in TcpMode::ALL {
        let server = Server::bind("tcp-shared", "127.0.0.1:0").unwrap().start();
        let addr = server.addr();

        let cfg_a = PerseasConfig::default().with_meta_tag(0xA);
        let cfg_b = PerseasConfig::default().with_meta_tag(0xB);

        let mut db_a = Perseas::init(vec![mode.connect(addr)], cfg_a).unwrap();
        let ra = db_a.malloc(64).unwrap();
        db_a.init_remote_db().unwrap();

        let mut db_b = Perseas::init(vec![mode.connect(addr)], cfg_b).unwrap();
        let rb = db_b.malloc(64).unwrap();
        db_b.init_remote_db().unwrap();

        db_a.begin_transaction().unwrap();
        db_a.set_range(ra, 0, 8).unwrap();
        db_a.write(ra, 0, &[0xA; 8]).unwrap();
        db_a.commit_transaction().unwrap();

        db_b.begin_transaction().unwrap();
        db_b.set_range(rb, 0, 8).unwrap();
        db_b.write(rb, 0, &[0xB; 8]).unwrap();
        db_b.commit_transaction().unwrap();

        db_a.crash();
        db_b.crash();

        let (ra_db, _) = Perseas::recover(mode.connect(addr), cfg_a).unwrap();
        let (rb_db, _) = Perseas::recover(mode.connect(addr), cfg_b).unwrap();
        assert_eq!(
            &ra_db.region_snapshot(ra).unwrap()[..8],
            &[0xA; 8],
            "{mode:?}"
        );
        assert_eq!(
            &rb_db.region_snapshot(rb).unwrap()[..8],
            &[0xB; 8],
            "{mode:?}"
        );
        server.shutdown();
    }
}

#[test]
fn perseas_rides_out_a_mirror_server_restart() {
    for mode in TcpMode::ALL {
        let server = Server::bind("flappy", "127.0.0.1:0").unwrap().start();
        let node = server.node().clone();
        let addr = server.addr();

        let mirror = mode.reconnecting(addr, 5);
        let mut db = Perseas::init(vec![mirror], PerseasConfig::default()).unwrap();
        let r = db.malloc(64).unwrap();
        db.init_remote_db().unwrap();
        db.begin_transaction().unwrap();
        db.set_range(r, 0, 8).unwrap();
        db.write(r, 0, &[1; 8]).unwrap();
        db.commit_transaction().unwrap();

        // The mirror's server process restarts (same memory, same port). A
        // confirmed connection reconnects transparently on the next
        // transaction. A posting one (pipelined or shared) depends on when
        // the dead socket is noticed: writes posted into the corpse are a
        // lost window, which must surface `Unavailable` rather than be
        // silently retried — but a post that fails before anything is in
        // flight re-dials and rides out like the confirmed one. Either way
        // the commit's answer must match what recovery finds durable.
        server.shutdown();
        let server2 = Server::with_node(node, addr).unwrap().start();

        let committed = (|| -> Result<(), perseas_core::TxnError> {
            db.begin_transaction()?;
            db.set_range(r, 8, 8)?;
            db.write(r, 8, &[2; 8])?;
            db.commit_transaction()
        })();
        if let Err(e) = &committed {
            assert!(
                mode.posts_writes(),
                "a confirmed connection must ride the restart out: {e}"
            );
            assert!(
                matches!(e, perseas_core::TxnError::Unavailable(_)),
                "restart may only surface as Unavailable: {e}"
            );
        }

        db.crash();
        let (db2, report) = Perseas::recover(mode.connect(addr), PerseasConfig::default()).unwrap();
        if committed.is_ok() {
            assert_eq!(report.last_committed, 2, "{mode:?}");
            assert_eq!(
                &db2.region_snapshot(r).unwrap()[..16],
                &[[1u8; 8], [2u8; 8]].concat()[..]
            );
        } else {
            assert_eq!(
                report.last_committed, 1,
                "{mode:?}: a failed commit must not be durable"
            );
            assert_eq!(&db2.region_snapshot(r).unwrap()[..8], &[1u8; 8]);
            assert_eq!(
                &db2.region_snapshot(r).unwrap()[8..16],
                &[0u8; 8],
                "{mode:?}: the lost window must not surface as committed bytes"
            );
        }
        server2.shutdown();
    }
}

#[test]
fn read_replica_follows_a_tcp_primary() {
    use perseas_core::ReadReplica;
    for mode in TcpMode::ALL {
        let server = Server::bind("follow", "127.0.0.1:0").unwrap().start();
        let mut db =
            Perseas::init(vec![mode.connect(server.addr())], PerseasConfig::default()).unwrap();
        let r = db.malloc(32).unwrap();
        db.init_remote_db().unwrap();

        db.begin_transaction().unwrap();
        db.set_range(r, 0, 8).unwrap();
        db.write(r, 0, &[5; 8]).unwrap();
        db.commit_transaction().unwrap();

        let mut replica =
            ReadReplica::attach(mode.connect(server.addr()), PerseasConfig::default()).unwrap();
        assert_eq!(
            &replica.region_snapshot(r).unwrap()[..8],
            &[5; 8],
            "{mode:?}"
        );

        db.begin_transaction().unwrap();
        db.set_range(r, 8, 8).unwrap();
        db.write(r, 8, &[6; 8]).unwrap();
        db.commit_transaction().unwrap();
        assert_eq!(replica.refresh().unwrap(), 2, "{mode:?}");
        assert_eq!(
            &replica.region_snapshot(r).unwrap()[8..16],
            &[6; 8],
            "{mode:?}"
        );
        server.shutdown();
    }
}
