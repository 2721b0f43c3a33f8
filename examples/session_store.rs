//! Session store: a multi-threaded application on the typed record layer.
//!
//! Combines [`perseas_store`]'s tables and ring logs with
//! [`perseas_core::ConcurrentPerseas`] to build the kind of service a
//! downstream user actually writes: a web session store whose sessions
//! survive a server crash by living in network RAM. Each login runs as
//! one scoped transaction under [`ConcurrentPerseas::with`], so the
//! containers' read-modify-writes never interleave.
//!
//! ```text
//! cargo run --release -p perseas-examples --bin session_store
//! ```

use std::thread;

use perseas_core::{ConcurrentPerseas, Perseas, PerseasConfig};
use perseas_rnram::SimRemote;
use perseas_sci::SciParams;
use perseas_simtime::SimClock;
use perseas_store::{fixed_record, RingLog, Table};

fixed_record! {
    /// One login session.
    pub struct Session {
        pub user: u64,
        pub logins: u32,
        pub active: bool,
    }
}

fixed_record! {
    /// One audit-trail event.
    pub struct AuditEvent {
        pub user: u64,
        pub kind: u8, // 0 = login, 1 = logout
    }
}

fn main() -> Result<(), perseas_txn::TxnError> {
    let backend = SimRemote::new("session-mirror");
    let mirror_memory = backend.node().clone();
    let cfg = PerseasConfig::default().with_concurrent(true);
    let mut db = Perseas::init(vec![backend], cfg)?;
    let sessions = Table::<Session>::create(&mut db, 256)?;
    let audit = RingLog::<AuditEvent>::create(&mut db, 128)?;
    db.init_remote_db()?;
    let shared = ConcurrentPerseas::new(db)?;

    // Four worker threads log users in and out concurrently.
    let workers: Vec<_> = (0..4u64)
        .map(|t| {
            let db = shared.clone();
            thread::spawn(move || {
                for i in 0..50u64 {
                    let user = t * 64 + (i % 64);
                    db.with(|db| {
                        db.transaction(|tx| {
                            let tm = tx.inner_mut();
                            let mut s = sessions.get(tm, user as usize)?;
                            s.user = user;
                            s.logins += 1;
                            s.active = i % 2 == 0;
                            sessions.put(tm, user as usize, &s)?;
                            audit.push(
                                tm,
                                &AuditEvent {
                                    user,
                                    kind: (i % 2) as u8,
                                },
                            )?;
                            Ok(())
                        })
                    })
                    .expect("session transaction");
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker");
    }

    let total_logins: u32 = shared.with(|db| {
        (0..256)
            .map(|i| sessions.get(db, i).expect("session").logins)
            .sum()
    });
    println!("4 threads x 50 logins recorded; table sums to {total_logins}");
    assert_eq!(total_logins, 200);

    let events = shared.with(|db| audit.pushed(db).expect("audit count"));
    println!("audit log holds {events} events (wrapping ring of 128 slots)");
    assert_eq!(events, 200);

    // The server dies; sessions survive in the mirror.
    shared.with(|db| db.crash());
    let reconnect =
        SimRemote::with_parts(SimClock::new(), mirror_memory, SciParams::dolphin_1998());
    let (db2, report) = Perseas::recover(reconnect, cfg)?;
    let sessions2 = Table::<Session>::open(&db2, sessions.region())?;
    let recovered_logins: u32 = (0..256)
        .map(|i| sessions2.get(&db2, i).expect("session").logins)
        .sum();
    println!(
        "recovered on a standby ({} committed txns): {recovered_logins} logins intact",
        report.last_committed
    );
    assert_eq!(recovered_logins, 200);
    Ok(())
}
