//! Per-layer metrics: what each module cost, from the traced slices, the
//! counted pass, the kernel's process counters and the codec micro loops.
//! A metric that does not apply to a workload (a TCP figure on the
//! simulated mirror, a snapshot figure on an undo workload) reads 0.

use crate::compare::Side;
use crate::micro;
use crate::run::Measured;
use crate::spec::{Spec, Substrate};
use crate::stats::{median, quantile, quantile_sorted};
use crate::trace::{self_times_ns, Layer, Name, Span, NO_PARENT};

/// A metric of one layer. No bound: these explain, they do not gate.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a larger value is the better one.
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: true,
    }
}

pub const PER_LAYER: [PerLayer; 48] = [
    lower("workloads.gen_self_us_p50", "us"),
    lower("core.begin_self_us_p50", "us"),
    lower("core.set_range_self_us_p50", "us"),
    lower("core.write_self_us_p50", "us"),
    lower("core.commit_self_us_p50", "us"),
    lower("core.commit_self_us_p99", "us"),
    lower("core.self_share_of_txn", "ratio"),
    lower("core.remote_ops_per_txn", "count"),
    lower("core.ack_barriers_per_txn", "count"),
    lower("core.remote_payload_bytes_per_txn", "B"),
    lower("core.local_copy_bytes_per_txn", "B"),
    lower("core.set_range_4k_us_p50", "us"),
    lower("core.init_remote_db_ms", "ms"),
    lower("core.recover_self_ms_p50", "ms"),
    lower("core.recover_remote_reads", "count"),
    lower("core.recover_read_bytes", "B"),
    lower("core.redo_snapshot_ms_p50", "ms"),
    lower("core.redo_snapshot_self_ms_p50", "ms"),
    lower("core.redo_snapshot_bytes_per_user_byte", "ratio"),
    lower("rnram.tcp.post_us_p50", "us"),
    lower("rnram.tcp.flush_wait_us_p50", "us"),
    lower("rnram.tcp.flush_wait_us_p99", "us"),
    lower("rnram.tcp.share_of_txn", "ratio"),
    higher("rnram.tcp.read_mb_per_s", "MB/s"),
    lower("rnram.tcp.connect_ms", "ms"),
    lower("rnram.tcp.wire_bytes_per_txn", "B"),
    lower("rnram.tcp.waits_per_txn", "count"),
    lower("rnram.protocol.crc32_ns_per_kib", "ns"),
    lower("rnram.protocol.encode_write_v_ns_per_frame", "ns"),
    lower("rnram.protocol.decode_ns_per_frame", "ns"),
    lower("rnram.protocol.frame_ns_per_kib", "ns"),
    lower("rnram.server.cpu_us_per_txn", "us"),
    lower("rnram.server.waits_per_txn", "count"),
    lower("rnram.server.rss_mb", "MB"),
    lower("rnram.server.apply_ns_per_kib", "ns"),
    lower("cli.serve_ready_ms", "ms"),
    lower("rnram.sim.write_host_us_p50", "us"),
    lower("sci.writes_per_txn", "count"),
    lower("sci.packets64_per_txn", "count"),
    lower("sci.packets16_per_txn", "count"),
    lower("sci.bytes_per_txn", "B"),
    lower("sci.vt_share_of_txn", "ratio"),
    lower("run.txn_p99_us", "us"),
    lower("run.epoch_iqr_frac", "ratio"),
    lower("run.trace_overhead_frac", "ratio"),
    lower("run.layer_sum_error_frac", "ratio"),
    lower("run.traced_txns", "count"),
    lower("run.span_cost_ns", "ns"),
];

/// Self times, in microseconds, of the spans called `name`; `in_txn`
/// keeps only those inside a transaction.
fn self_us(spans: &[Span], own: &[u64], name: Name, in_txn: bool) -> Vec<f64> {
    spans
        .iter()
        .zip(own)
        .filter(|(s, _)| s.name == name && (!in_txn || s.txn != 0))
        .map(|(_, &ns)| ns as f64 / 1e3)
        .collect()
}

fn durations_ms(spans: &[Span], name: Name) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect()
}

/// What the traced transactions say about where their time went.
struct TxnBreakdown {
    txns: usize,
    /// Nanoseconds of every transaction span, and of each layer's self
    /// time inside them.
    total_ns: u64,
    workloads_ns: u64,
    core_ns: u64,
    rnram_ns: u64,
    /// Self time of the workload layer per transaction, microseconds.
    gen_us: Vec<f64>,
    /// Largest relative gap between a transaction's span and the sum of
    /// the layer self times inside it.
    worst_sum_error: f64,
}

fn breakdown(spans: &[Span], own: &[u64]) -> TxnBreakdown {
    // Spans are recorded in start order, so a transaction's spans follow
    // its root and every parent precedes its children: one pass suffices.
    let mut b = TxnBreakdown {
        txns: 0,
        total_ns: 0,
        workloads_ns: 0,
        core_ns: 0,
        rnram_ns: 0,
        gen_us: Vec::new(),
        worst_sum_error: 0.0,
    };
    let mut i = 0;
    while i < spans.len() {
        let root = &spans[i];
        if root.name != Name::Txn || root.parent != NO_PARENT {
            i += 1;
            continue;
        }
        let (mut w, mut c, mut r) = (own[i], 0u64, 0u64);
        let mut j = i + 1;
        while j < spans.len() && spans[j].txn == root.txn && spans[j].parent != NO_PARENT {
            match spans[j].name.layer() {
                Layer::Workloads => w += own[j],
                Layer::Core => c += own[j],
                Layer::Rnram | Layer::Cli => r += own[j],
            }
            j += 1;
        }
        let total = root.duration_ns();
        b.txns += 1;
        b.total_ns += total;
        b.workloads_ns += w;
        b.core_ns += c;
        b.rnram_ns += r;
        b.gen_us.push(w as f64 / 1e3);
        if total > 0 {
            let err = ((w + c + r) as f64 - total as f64).abs() / total as f64;
            b.worst_sum_error = b.worst_sum_error.max(err);
        }
        i = j;
    }
    b
}

/// Every per-layer metric of one traced run, in [`PER_LAYER`] order.
pub fn per_layer(spec: &Spec, m: &mut Measured) -> Vec<f64> {
    let spans = std::mem::take(&mut m.spans);
    let own = self_times_ns(&spans);
    let b = breakdown(&spans, &own);
    let tcp = spec.substrate == Substrate::Tcp;
    let c = m.counted.expect("counted pass ran");
    let n = c.txns as f64;
    let timed = m.timed_txns.max(1) as f64;
    let share = |ns: u64| ns as f64 / b.total_ns.max(1) as f64;
    let p = |mut v: Vec<f64>, q: f64| quantile(&mut v, q);

    // Mirror writes and confirmed barriers inside transactions.
    let mut posts = self_us(&spans, &own, Name::RemoteWrite, true);
    posts.extend(self_us(&spans, &own, Name::RemoteWriteV, true));
    let flushes = self_us(&spans, &own, Name::RemoteFlush, true);
    let commits = self_us(&spans, &own, Name::Commit, true);

    // Recovery: the engine's own time, and how fast the image came back.
    let recover_self: Vec<f64> = self_us(&spans, &own, Name::Recover, false)
        .into_iter()
        .map(|us| us / 1e3)
        .collect();
    let read_ns: u64 = spans
        .iter()
        .filter(|s| s.name == Name::RemoteRead && s.parent != NO_PARENT)
        .filter(|s| spans[s.parent as usize].name == Name::Recover)
        .map(Span::duration_ns)
        .sum();
    let read_mb_per_s = if read_ns == 0 {
        0.0
    } else {
        m.recover_read_bytes_total as f64 / 1e6 / (read_ns as f64 / 1e9)
    };

    let snapshot_self: Vec<f64> = self_us(&spans, &own, Name::RedoSnapshot, false)
        .into_iter()
        .map(|us| us / 1e3)
        .collect();

    m.latency_ns.sort_unstable();
    let txn_p99_us = quantile_sorted(&m.latency_ns, 0.99) / 1e3;
    let plain = median(&mut m.plain_slice_s.clone());
    let traced = median(&mut m.traced_slice_s.clone());
    let codec = micro::codec(&m.frame_shape);

    let if_tcp = |v: f64| if tcp { v } else { 0.0 };
    vec![
        p(b.gen_us.clone(), 0.5),
        p(self_us(&spans, &own, Name::Begin, true), 0.5),
        p(self_us(&spans, &own, Name::SetRange, true), 0.5),
        p(self_us(&spans, &own, Name::Write, true), 0.5),
        p(commits.clone(), 0.5),
        p(commits, 0.99),
        share(b.core_ns),
        c.remote.write_ops as f64 / n,
        m.timed_remote.ack_barriers as f64 / timed,
        c.remote.write_bytes as f64 / n,
        c.local_copy_bytes as f64 / n,
        p(m.set_range_4k_us.clone(), 0.5),
        p(durations_ms(&spans, Name::Publish), 0.5),
        p(recover_self, 0.5),
        m.recover_reads as f64,
        m.recover_read_bytes as f64,
        p(durations_ms(&spans, Name::RedoSnapshot), 0.5),
        p(snapshot_self, 0.5),
        c.snapshot_bytes as f64 / c.declared_bytes as f64,
        if_tcp(p(posts.clone(), 0.5)),
        if_tcp(p(flushes.clone(), 0.5)),
        if_tcp(p(flushes, 0.99)),
        if_tcp(share(b.rnram_ns)),
        if_tcp(read_mb_per_s),
        p(durations_ms(&spans, Name::Dial), 0.5),
        if_tcp(m.timed_wire_bytes as f64 / timed),
        if_tcp(m.client.waits as f64 / timed),
        codec.crc32_ns_per_kib,
        codec.encode_write_v_ns_per_frame,
        codec.decode_ns_per_frame,
        codec.frame_ns_per_kib,
        m.server.cpu_s * 1e6 / timed,
        m.server.waits as f64 / timed,
        m.server_rss_mb,
        codec.apply_ns_per_kib,
        p(durations_ms(&spans, Name::ServeReady), 0.5),
        if tcp { 0.0 } else { p(posts, 0.5) },
        c.link_writes as f64 / n,
        c.link_packets64 as f64 / n,
        c.link_packets16 as f64 / n,
        c.link_bytes as f64 / n,
        c.remote.link_vt_ns as f64 / c.vt_ns.max(1) as f64,
        txn_p99_us,
        Side::of(&m.epoch_s).spread(),
        if plain > 0.0 {
            traced / plain - 1.0
        } else {
            0.0
        },
        b.worst_sum_error,
        b.txns as f64,
        crate::trace::span_cost_ns(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: Name, parent: u32, txn: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            txn,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn breakdown_charges_each_layer_its_self_time() {
        let spans = [
            s(Name::Publish, NO_PARENT, 0, 0, 5),
            s(Name::Txn, NO_PARENT, 1, 10, 110),
            s(Name::Begin, 1, 1, 12, 20),
            s(Name::Commit, 1, 1, 30, 100),
            s(Name::RemoteWriteV, 3, 1, 40, 60),
            s(Name::RemoteFlush, 3, 1, 60, 95),
            s(Name::Txn, NO_PARENT, 2, 200, 260),
            s(Name::Commit, 6, 2, 210, 250),
        ];
        let own = self_times_ns(&spans);
        let b = breakdown(&spans, &own);
        assert_eq!(b.txns, 2);
        assert_eq!(b.total_ns, 160);
        assert_eq!(b.rnram_ns, 55);
        assert_eq!(b.core_ns, 8 + 15 + 40);
        assert_eq!(b.workloads_ns, 22 + 20);
        assert_eq!(b.workloads_ns + b.core_ns + b.rnram_ns, b.total_ns);
        assert_eq!(b.worst_sum_error, 0.0);
        assert_eq!(b.gen_us, vec![0.022, 0.02]);
    }

    #[test]
    fn per_layer_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert!(names.iter().all(|n| n.len() <= 64));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
    }
}
