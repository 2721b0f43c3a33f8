//! Wall-clock micro-benchmarks of the substrates: SCI packetisation and
//! latency model, node memory, disk simulator, undo-record codec, the
//! typed record containers, and the TCP wire protocol.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use perseas_core::{crc32, UndoRecord};
use perseas_disk::{DiskParams, SimDisk, WriteMode};
use perseas_rnram::plan_transfer;
use perseas_sci::{packetize, remote_write_latency, NodeMemory, SciLink, SciParams};
use perseas_simtime::SimClock;

fn bench_sci(c: &mut Criterion) {
    let mut g = c.benchmark_group("sci");
    for size in [4usize, 64, 200, 4096] {
        g.bench_with_input(BenchmarkId::new("packetize", size), &size, |b, &size| {
            b.iter(|| packetize(std::hint::black_box(12), size));
        });
        g.bench_with_input(
            BenchmarkId::new("latency_model", size),
            &size,
            |b, &size| {
                let p = SciParams::dolphin_1998();
                b.iter(|| remote_write_latency(&p, std::hint::black_box(12), size));
            },
        );
    }
    g.bench_function("plan_transfer", |b| {
        b.iter(|| plan_transfer(0, std::hint::black_box(70), 100, 4096));
    });

    g.throughput(Throughput::Bytes(4096));
    g.bench_function("remote_write_4k", |b| {
        let clock = SimClock::new();
        let node = NodeMemory::new("bench");
        let link = SciLink::new(clock, node.clone(), SciParams::dolphin_1998());
        let seg = node.export_segment(1 << 20, 0).expect("export");
        let data = vec![7u8; 4096];
        let mut off = 0usize;
        b.iter(|| {
            off = (off + 4096) % (1 << 19);
            link.remote_write(seg, off, &data).expect("write");
        });
    });
    g.finish();
}

fn bench_disk(c: &mut Criterion) {
    let mut g = c.benchmark_group("disk");
    g.bench_function("async_append_512", |b| {
        let disk = SimDisk::new(SimClock::new(), DiskParams::disk_1998());
        let f = disk.create_file("log", 0);
        let data = [1u8; 512];
        b.iter(|| f.append(&data, WriteMode::Async));
    });
    g.finish();
}

fn bench_codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("codec");
    let payload = vec![3u8; 256];
    g.throughput(Throughput::Bytes(payload.len() as u64));
    g.bench_function("crc32_256b", |b| {
        b.iter(|| crc32(&[std::hint::black_box(&payload)]));
    });
    g.bench_function("undo_record_roundtrip", |b| {
        let rec = UndoRecord {
            txn_id: 9,
            region: 1,
            offset: 128,
            len: payload.len() as u64,
        };
        let mut buf = vec![0u8; 512];
        b.iter(|| {
            rec.encode_into(&mut buf, 0, &payload);
            UndoRecord::decode_at(&buf, 0).expect("valid")
        });
    });
    g.finish();
}

fn bench_store(c: &mut Criterion) {
    use perseas_baselines::VistaSystem;
    use perseas_store::{fixed_record, RingLog, Table};
    use perseas_txn::TransactionalMemory;

    fixed_record! {
        struct BenchRec {
            a: u64,
            b: i64,
        }
    }

    let mut g = c.benchmark_group("store");
    g.throughput(Throughput::Elements(1));
    g.bench_function("table_update_txn", |b| {
        let mut tm = VistaSystem::new(SimClock::new());
        let t = Table::<BenchRec>::create(&mut tm, 1_024).expect("table");
        tm.publish().expect("publish");
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 7) % 1_024;
            tm.begin_transaction().expect("begin");
            t.update(&mut tm, i, |r| r.a += 1).expect("update");
            tm.commit_transaction().expect("commit");
        });
    });
    g.bench_function("ring_push_txn", |b| {
        let mut tm = VistaSystem::new(SimClock::new());
        let log = RingLog::<u64>::create(&mut tm, 256).expect("ring");
        tm.publish().expect("publish");
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            tm.begin_transaction().expect("begin");
            log.push(&mut tm, &i).expect("push");
            tm.commit_transaction().expect("commit");
        });
    });
    g.finish();
}

fn bench_tcp(c: &mut Criterion) {
    use perseas_rnram::{server::Server, RemoteMemory, TcpRemote};

    let mut g = c.benchmark_group("tcp");
    g.sample_size(30);
    g.throughput(Throughput::Bytes(64));
    g.bench_function("roundtrip_write_64b", |b| {
        let server = Server::bind("bench", "127.0.0.1:0").expect("bind").start();
        let mut client = TcpRemote::connect(server.addr()).expect("connect");
        let seg = client.remote_malloc(4_096, 0).expect("malloc");
        let data = [7u8; 64];
        let mut off = 0usize;
        b.iter(|| {
            off = (off + 64) % 4_096;
            client.remote_write(seg.id, off, &data).expect("write");
            client.flush().expect("flush");
        });
        server.shutdown();
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_sci, bench_disk, bench_codec, bench_store, bench_tcp
}
criterion_main!(benches);
