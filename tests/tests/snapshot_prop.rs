//! Snapshot-consistency property: 256 random interleavings of writers
//! and snapshot readers, every snapshot read checked against a serial
//! reference image.
//!
//! Each case replays a seeded schedule of writer steps (claim + write,
//! commit, abort — with claim conflicts predicted by a model claim
//! table) interleaved with snapshot activity (open, read, re-read,
//! close). The model records the committed image at the instant each
//! snapshot is opened; since a snapshot pins the commit watermark,
//! every later `read_s` on it must return exactly those bytes — i.e. the
//! serial-reference image at a watermark no newer than the snapshot's —
//! and repeated reads must be byte-identical. A subset of seeds twin-runs
//! over a real TCP server, once per client mode, and must produce the
//! same read digest and final image as the sim run.

use perseas_core::{Perseas, PerseasConfig, SnapshotToken, TxnError, TxnToken};
use perseas_integration::TcpMode;
use perseas_rnram::server::Server;
use perseas_rnram::{RemoteMemory, SimRemote};
use perseas_simtime::det_rng;

const LEN: usize = 128;
const STEPS: usize = 60;
const MAX_TXNS: usize = 3;
const MAX_SNAPS: usize = 3;

fn cfg() -> PerseasConfig {
    PerseasConfig::default()
        .with_concurrent(true)
        .with_mvcc(true)
}

struct OpenTxn {
    token: TxnToken,
    claims: Vec<(usize, usize)>,
    writes: Vec<(usize, usize, u8)>,
}

/// Runs one seeded schedule against `db`, panicking (with the seed) on
/// any snapshot read that diverges from the serial reference. Returns
/// `(final committed image, digest of every snapshot read)`.
fn run_case<M: RemoteMemory>(mut db: Perseas<M>, seed: u64) -> (Vec<u8>, u64) {
    let mut rng = det_rng(seed);
    let r = db.malloc(LEN).unwrap();
    db.init_remote_db().unwrap();

    // The serial reference: the committed image right now.
    let mut model = vec![0u8; LEN];
    let mut txns: Vec<OpenTxn> = Vec::new();
    let mut snaps: Vec<(SnapshotToken, Vec<u8>)> = Vec::new();
    let mut digest = 0xcbf2_9ce4_8422_2325u64; // FNV-1a
    let mut fill = 0u8;

    for _ in 0..STEPS {
        match rng.gen_index(10) {
            // Open a writer.
            0 | 1 if txns.len() < MAX_TXNS => {
                let token = db.begin_concurrent().unwrap();
                txns.push(OpenTxn {
                    token,
                    claims: Vec::new(),
                    writes: Vec::new(),
                });
            }
            // Claim + write a random range on a random open writer.
            2..=4 if !txns.is_empty() => {
                let i = rng.gen_index(txns.len());
                let off = rng.gen_index(LEN - 1);
                let len = 1 + rng.gen_index((LEN - off).min(24));
                let conflict = txns.iter().enumerate().any(|(j, t)| {
                    j != i && t.claims.iter().any(|&(s, e)| s < off + len && off < e)
                });
                match db.set_range_t(txns[i].token, r, off, len) {
                    Ok(()) => {
                        assert!(!conflict, "seed {seed}: engine missed a model conflict");
                        fill = fill.wrapping_add(1).max(1);
                        db.write_t(txns[i].token, r, off, &vec![fill; len]).unwrap();
                        txns[i].claims.push((off, off + len));
                        txns[i].writes.push((off, len, fill));
                    }
                    Err(TxnError::Conflict { .. }) => {
                        assert!(conflict, "seed {seed}: engine invented a conflict");
                        let t = txns.remove(i);
                        db.abort_t(t.token).unwrap();
                    }
                    Err(e) => panic!("seed {seed}: unexpected claim error: {e}"),
                }
            }
            // Commit a random open writer: its writes join the reference.
            5 | 6 if !txns.is_empty() => {
                let t = txns.remove(rng.gen_index(txns.len()));
                db.commit_group(&[t.token]).unwrap();
                for (off, len, b) in t.writes {
                    model[off..off + len].fill(b);
                }
            }
            // Abort a random open writer: it contributes nothing.
            7 if !txns.is_empty() => {
                let t = txns.remove(rng.gen_index(txns.len()));
                db.abort_t(t.token).unwrap();
            }
            // Open a snapshot, remembering the reference image it pins.
            8 if snaps.len() < MAX_SNAPS => {
                let snap = db.begin_snapshot().unwrap();
                snaps.push((snap, model.clone()));
            }
            // Close a random snapshot.
            9 if !snaps.is_empty() => {
                let (snap, _) = snaps.remove(rng.gen_index(snaps.len()));
                db.end_snapshot(snap);
            }
            _ => {}
        }

        // Every open snapshot serves a random read, twice: it must equal
        // the reference image pinned at open, both times, despite any
        // open writers' dirty bytes and any commits since.
        for (snap, pinned) in &snaps {
            let off = rng.gen_index(LEN - 1);
            let len = 1 + rng.gen_index(LEN - off);
            let a = db
                .read_range_s(*snap, r, off, len)
                .unwrap_or_else(|e| panic!("seed {seed}: snapshot read aborted: {e}"));
            assert_eq!(
                a,
                &pinned[off..off + len],
                "seed {seed}: snapshot diverged from the serial reference at [{off}, {})",
                off + len
            );
            let b = db.read_range_s(*snap, r, off, len).unwrap();
            assert_eq!(a, b, "seed {seed}: repeated snapshot read differed");
            for byte in a {
                digest = (digest ^ byte as u64).wrapping_mul(0x100_0000_01b3);
            }
        }
    }

    for t in txns.drain(..) {
        db.abort_t(t.token).unwrap();
    }
    for (snap, pinned) in snaps.drain(..) {
        // Still exact after the teardown aborts.
        assert_eq!(
            db.read_range_s(snap, r, 0, LEN).unwrap(),
            pinned,
            "seed {seed}: snapshot diverged after teardown"
        );
        db.end_snapshot(snap);
    }
    assert_eq!(db.open_snapshot_count(), 0);
    assert_eq!(
        db.version_store_bytes(),
        0,
        "seed {seed}: version store must drain once no snapshot is open"
    );
    let image = db.region_snapshot(r).unwrap();
    assert_eq!(image, model, "seed {seed}: committed image diverged");
    (image, digest)
}

fn sim_db(name: &str) -> Perseas<SimRemote> {
    Perseas::init(vec![SimRemote::new(name)], cfg()).unwrap()
}

#[test]
fn snapshot_reads_match_the_serial_reference_across_256_interleavings() {
    for seed in 0..256u64 {
        run_case(sim_db(&format!("prop-{seed}")), seed);
    }
}

#[test]
fn tcp_twin_runs_produce_identical_snapshot_reads() {
    for seed in 0..8u64 {
        let sim = run_case(sim_db(&format!("twin-{seed}")), seed);
        for mode in TcpMode::ALL {
            let server = Server::bind(format!("twin-tcp-{seed}"), "127.0.0.1:0")
                .unwrap()
                .start();
            let mirror = mode.connect(server.addr());
            let tcp = run_case(Perseas::init(vec![mirror], cfg()).unwrap(), seed);
            server.shutdown();
            assert_eq!(sim, tcp, "seed {seed}: sim and {mode:?} TCP runs diverged");
        }
    }
}
