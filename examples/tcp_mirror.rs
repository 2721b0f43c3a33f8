//! Real networking: PERSEAS mirroring over TCP to a genuinely separate
//! server, as in a production deployment on two workstations.
//!
//! Run self-contained (server on a background thread):
//!
//! ```text
//! cargo run -p perseas-examples --bin tcp_mirror
//! ```
//!
//! Or as two processes:
//!
//! ```text
//! cargo run -p perseas-examples --bin tcp_mirror -- server 127.0.0.1:7070
//! cargo run -p perseas-examples --bin tcp_mirror -- client 127.0.0.1:7070
//! ```

use std::env;
use std::process::ExitCode;

use perseas_core::{Perseas, PerseasConfig};
use perseas_rnram::server::Server;
use perseas_rnram::TcpRemote;

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None => {
            // Self-contained demo: spawn the server locally.
            let server = match Server::bind("tcp-mirror", "127.0.0.1:0") {
                Ok(s) => s.start(),
                Err(e) => {
                    eprintln!("cannot bind server: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let addr = server.addr().to_string();
            println!("mirror server listening on {addr}");
            let code = run_client(&addr);
            server.shutdown();
            code
        }
        Some("server") => {
            let addr = args.get(1).map(String::as_str).unwrap_or("127.0.0.1:7070");
            match Server::bind("tcp-mirror", addr) {
                Ok(s) => {
                    let handle = s.start();
                    println!(
                        "mirror server listening on {} (ctrl-c to stop)",
                        handle.addr()
                    );
                    loop {
                        std::thread::park();
                    }
                }
                Err(e) => {
                    eprintln!("cannot bind {addr}: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("client") => {
            let addr = args.get(1).map(String::as_str).unwrap_or("127.0.0.1:7070");
            run_client(addr)
        }
        Some(other) => {
            eprintln!("unknown mode '{other}' (expected 'server' or 'client')");
            ExitCode::FAILURE
        }
    }
}

fn run_client(addr: &str) -> ExitCode {
    let run = || -> Result<(), Box<dyn std::error::Error>> {
        let mut mirror = TcpRemote::connect(addr)?;
        println!("connected to mirror {}", mirror.fetch_name()?);

        let mut db = Perseas::init(vec![mirror], PerseasConfig::default())?;
        let ledger = db.malloc(4096)?;
        db.init_remote_db()?;

        let started = std::time::Instant::now();
        let n = 1_000u64;
        for i in 0..n {
            db.begin_transaction()?;
            let slot = ((i as usize) % 512) * 8;
            db.set_range(ledger, slot, 8)?;
            db.write(ledger, slot, &i.to_le_bytes())?;
            db.commit_transaction()?;
        }
        let elapsed = started.elapsed();
        println!(
            "{n} transactions mirrored over TCP in {elapsed:?} \
             ({:.0} txns/sec wall clock)",
            n as f64 / elapsed.as_secs_f64()
        );

        // Simulate losing the primary: throw the instance away and recover
        // over a fresh connection — the paper's availability story, over
        // real sockets.
        db.crash();
        let reconnect = TcpRemote::connect(addr)?;
        let (db2, report) = Perseas::recover(reconnect, PerseasConfig::default())?;
        println!(
            "recovered over TCP: last committed txn {} ({} bytes pulled back)",
            report.last_committed, report.bytes_recovered
        );
        let mut buf = [0u8; 8];
        db2.read(ledger, ((n as usize - 1) % 512) * 8, &mut buf)?;
        assert_eq!(u64::from_le_bytes(buf), n - 1);
        println!("last committed value verified after recovery");
        Ok(())
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("client failed: {e}");
            ExitCode::FAILURE
        }
    }
}
