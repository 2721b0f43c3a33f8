//! Scrape-shaped observability test: run a realistic mixed workload —
//! batched commits, a group commit, and one injected mirror failure —
//! against real TCP mirror servers with a live `/metrics` endpoint,
//! then scrape it over HTTP exactly as Prometheus would and check the
//! numbers against ground truth the engine itself reports, once per
//! [`TcpMode`] of the client transport.
//!
//! The invariants under test are the ones an operator would alarm on:
//! the committed-transactions counter equals `last_committed`, exactly
//! one commit is recorded as degraded after exactly one mirror loss,
//! and the whole exposition parses.

use perseas_core::{record_shard_recovery, MirrorHealth, Perseas, PerseasConfig, ShardedPerseas};
use perseas_integration::shard_harness::{build_sharded, reopen_sharded};
use perseas_integration::TcpMode;
use perseas_obs::{parse_exposition, scrape, MetricsServer, Registry, Sample};
use perseas_rnram::server::Server;

/// Sum of every sample of `name`, across all label sets.
fn total(samples: &[Sample], name: &str) -> f64 {
    samples
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.value)
        .sum()
}

/// The single sample of `name` whose `key` label equals `val`.
fn labelled(samples: &[Sample], name: &str, key: &str, val: &str) -> f64 {
    samples
        .iter()
        .find(|s| s.name == name && s.label(key) == Some(val))
        .unwrap_or_else(|| panic!("no {name}{{{key}=\"{val}\"}} in scrape"))
        .value
}

/// The single sample of `name` carrying both labels.
fn labelled2(samples: &[Sample], name: &str, a: (&str, &str), b: (&str, &str)) -> f64 {
    samples
        .iter()
        .find(|s| s.name == name && s.label(a.0) == Some(a.1) && s.label(b.0) == Some(b.1))
        .unwrap_or_else(|| {
            panic!(
                "no {name}{{{}=\"{}\",{}=\"{}\"}} in scrape",
                a.0, a.1, b.0, b.1
            )
        })
        .value
}

#[test]
fn scraped_metrics_match_engine_ground_truth() {
    for mode in TcpMode::ALL {
        // One registry spanning both mirror servers, the client transport,
        // and the transaction engine; one scrape sees the whole stack.
        let registry = Registry::new();
        let sa = Server::bind("scrape-a", "127.0.0.1:0")
            .unwrap()
            .with_metrics(&registry)
            .start();
        let sb = Server::bind("scrape-b", "127.0.0.1:0")
            .unwrap()
            .with_metrics(&registry)
            .start();
        let metrics = MetricsServer::serve("127.0.0.1:0", registry.clone()).unwrap();

        let mut conn_a = mode.connect(sa.addr());
        conn_a.set_metrics(&registry);
        let mut conn_b = mode.connect(sb.addr());
        conn_b.set_metrics(&registry);

        // The concurrent engine implies the batched commit pipeline, so the
        // legacy-facade commits below exercise batched commits while the
        // token API drives a group commit through the same database.
        let mut db = Perseas::init(
            vec![conn_a, conn_b],
            PerseasConfig::default().with_concurrent(true),
        )
        .unwrap();
        db.set_metrics(&registry);
        let r = db.malloc(4096).unwrap();
        db.init_remote_db().unwrap();

        // 10 batched commits.
        for i in 0..10u64 {
            db.begin_transaction().unwrap();
            let slot = (i as usize % 64) * 8;
            db.set_range(r, slot, 8).unwrap();
            db.write(r, slot, &i.to_le_bytes()).unwrap();
            db.commit_transaction().unwrap();
        }

        // One group commit covering 4 transactions.
        let tokens: Vec<_> = (0..4)
            .map(|i| {
                let t = db.begin_concurrent().unwrap();
                let slot = 1024 + i * 256;
                db.set_range_t(t, r, slot, 8).unwrap();
                db.write_t(t, r, slot, &[i as u8 + 1; 8]).unwrap();
                db.prepare_t(t).unwrap();
                t
            })
            .collect();
        db.commit_group(&tokens).unwrap();

        // Inject exactly one mirror failure: mirror b dies, and the next
        // commit must fence it and complete degraded on the survivor.
        sb.shutdown();
        db.begin_transaction().unwrap();
        db.set_range(r, 0, 8).unwrap();
        db.write(r, 0, &[0xEE; 8]).unwrap();
        db.commit_transaction().unwrap();
        assert_eq!(db.mirror_status()[1].health, MirrorHealth::Down);
        let committed = db.last_committed();
        assert_eq!(
            committed, 15,
            "{mode:?}: 10 batched + 4 grouped + 1 degraded"
        );

        // Scrape over HTTP, as Prometheus would, and parse the exposition.
        let exposition = scrape(metrics.addr()).unwrap();
        let samples = parse_exposition(&exposition).unwrap();
        assert!(!samples.is_empty(), "exposition yielded no samples");

        // Commits seen by the scrape equal commits the engine reports.
        assert_eq!(
            total(&samples, "perseas_txn_committed_total"),
            committed as f64
        );
        assert_eq!(total(&samples, "perseas_txn_begun_total"), committed as f64);
        assert_eq!(total(&samples, "perseas_txn_aborted_total"), 0.0);

        // Exactly one commit ran degraded, and the scrape shows which
        // mirror is gone.
        assert_eq!(total(&samples, "perseas_txn_degraded_commits_total"), 1.0);
        assert_eq!(
            labelled(&samples, "perseas_mirror_healthy", "mirror", "0"),
            1.0
        );
        assert_eq!(
            labelled(&samples, "perseas_mirror_healthy", "mirror", "1"),
            0.0
        );
        assert_eq!(total(&samples, "perseas_mirrors"), 2.0);

        // The group commit is visible as one fan-out resolving four txns.
        assert_eq!(total(&samples, "perseas_txn_group_commits_total"), 1.0);
        assert_eq!(total(&samples, "perseas_txn_group_txns_total"), 4.0);

        // Transport and server layers registered real traffic: every write
        // the engine shipped hit a server's per-opcode counter, and the
        // client posted at least that many framed requests.
        let server_writes = labelled(&samples, "perseas_server_requests_total", "op", "write");
        assert!(server_writes > 0.0, "no write requests reached a server");
        assert!(total(&samples, "perseas_server_bytes_in_total") > 0.0);
        assert!(total(&samples, "perseas_client_ops_total") > 0.0);

        // A second scrape still parses and commits never go backwards.
        let again = parse_exposition(&scrape(metrics.addr()).unwrap()).unwrap();
        assert_eq!(
            total(&again, "perseas_txn_committed_total"),
            committed as f64
        );

        metrics.shutdown();
        sa.shutdown();
    }
}

/// Shard-labelled exposition: a 2-shard database under one registry
/// must publish `perseas_shard_*` series keyed by shard index — never
/// colliding across shards — and recovery's in-doubt resolutions must
/// surface through `record_shard_recovery`.
#[test]
fn sharded_metrics_are_shard_labelled() {
    let registry = Registry::new();
    let metrics = MetricsServer::serve("127.0.0.1:0", registry.clone()).unwrap();
    let (mut db, regions, cluster) = build_sharded(2, 2);
    db.set_metrics(&registry);

    // 2 single-shard commits on shard 0, 1 on shard 1.
    for (region, count) in [(regions[0], 2), (regions[1], 1)] {
        for i in 0..count {
            let g = db.begin_global().unwrap();
            db.set_range_g(g, region, i * 8, 8).unwrap();
            db.write_g(g, region, i * 8, &[0x42; 8]).unwrap();
            db.commit_g(g).unwrap();
        }
    }
    // 2 cross-shard commits, home shard 0.
    for i in 0..2usize {
        let g = db.begin_global().unwrap();
        for &r in &regions {
            db.set_range_g(g, r, 64 + i * 8, 8).unwrap();
            db.write_g(g, r, 64 + i * 8, &[0x43; 8]).unwrap();
        }
        db.commit_g(g).unwrap();
    }
    // One in-doubt transaction: decided but never fanned out, so
    // recovery must resolve one commit per shard.
    let g = db.begin_global().unwrap();
    for &r in &regions {
        db.set_range_g(g, r, 128, 8).unwrap();
        db.write_g(g, r, 128, &[0x44; 8]).unwrap();
    }
    db.prepare_parts(g).unwrap();
    db.write_intents(g).unwrap();
    db.write_decision(g).unwrap();
    db.crash();
    let (_db2, report) =
        ShardedPerseas::recover(reopen_sharded(&cluster), PerseasConfig::default()).unwrap();
    record_shard_recovery(&registry, &report);

    let samples = parse_exposition(&scrape(metrics.addr()).unwrap()).unwrap();

    // Shard topology: the shard-count gauge and a health gauge per
    // (shard, mirror) pair, all healthy.
    assert_eq!(total(&samples, "perseas_shards"), 2.0);
    for shard in ["0", "1"] {
        for mirror in ["0", "1"] {
            assert_eq!(
                labelled2(
                    &samples,
                    "perseas_shard_mirror_healthy",
                    ("shard", shard),
                    ("mirror", mirror),
                ),
                1.0
            );
        }
    }

    // Per-shard commit counters: 2 single + 2 cross-shard parts on
    // shard 0, 1 single + 2 cross-shard parts on shard 1.
    assert_eq!(
        labelled(&samples, "perseas_shard_txn_committed_total", "shard", "0"),
        4.0
    );
    assert_eq!(
        labelled(&samples, "perseas_shard_txn_committed_total", "shard", "1"),
        3.0
    );

    // The 2PC counters: the 2 completed cross-shard commits plus the
    // decided-but-unfinished one prepared a part and wrote an intent on
    // each shard, decided on home shard 0, and only the completed two
    // fanned out.
    for shard in ["0", "1"] {
        assert_eq!(
            labelled(&samples, "perseas_shard_prepares_total", "shard", shard),
            3.0
        );
    }
    assert_eq!(
        labelled(&samples, "perseas_shard_decisions_total", "shard", "0"),
        3.0
    );
    assert_eq!(
        labelled(&samples, "perseas_shard_cross_commits_total", "shard", "0"),
        2.0
    );
    assert_eq!(
        labelled(
            &samples,
            "perseas_shard_cross_commit_parts_total",
            "shard",
            "0"
        ),
        4.0
    );

    // Recovery resolved the in-doubt part on each shard as a commit.
    for shard in ["0", "1"] {
        assert_eq!(
            labelled(
                &samples,
                "perseas_shard_resolved_commits_total",
                "shard",
                shard
            ),
            1.0
        );
        assert_eq!(
            labelled(
                &samples,
                "perseas_shard_resolved_aborts_total",
                "shard",
                shard
            ),
            0.0
        );
    }

    metrics.shutdown();
}
