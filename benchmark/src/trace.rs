//! Spans recorded from outside the system under test.
//!
//! The benchmark wraps the two interfaces a transaction crosses — the
//! [`TransactionalMemory`] the workload calls ([`TracedTm`]) and the
//! [`RemoteMemory`] the engine calls ([`Traced`]) — and records one span
//! per call: name, start, end, the span that was open when it started
//! (its parent) and the transaction it belongs to. Calls nest strictly
//! (one client thread, one mirror), so a stack gives the parent and a
//! layer's self time is its span minus its child spans.
//!
//! Spans live in a thread-local buffer and are written as JSONL when the
//! run ends. With tracing off a call costs one thread-local flag test;
//! the counters of [`RemoteCounts`] are plain integers and always run.

use std::cell::{Cell, RefCell};
use std::io::{self, Write};
use std::time::Instant;

use crate::sut::{
    FlushStats, Perseas, RegionId, RemoteMemory, RemoteSegment, RnError, SegmentId, SimClock,
    SnapshotToken, TransactionalMemory, TxnError, TxnStats,
};

/// The module a span's time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `crates/workloads`: the application code between engine calls.
    Workloads,
    /// `crates/core`: the transaction engine.
    Core,
    /// `crates/rnram` (`tcp` or `sim`, whichever the workload runs on)
    /// and everything below it: wire, server, SCI model.
    Rnram,
    /// `crates/cli`: the spawned `perseas serve` process.
    Cli,
}

/// What a span measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// `begin_transaction` entry to `commit_transaction` return.
    Txn,
    Begin,
    SetRange,
    Write,
    Commit,
    Alloc,
    Publish,
    Recover,
    RedoSnapshot,
    RemoteWrite,
    RemoteWriteV,
    /// A `flush` that confirmed at least one posted operation.
    RemoteFlush,
    /// A `flush` with nothing posted: a free no-op.
    RemoteFlushIdle,
    RemoteRead,
    RemoteMalloc,
    RemoteFree,
    RemoteConnect,
    /// Dialling the mirror (`TcpRemote::connect_pipelined`).
    Dial,
    /// Spawning `perseas serve` until it answers.
    ServeReady,
}

impl Name {
    /// The span name written to the trace, prefixed with its module.
    pub fn as_str(self) -> &'static str {
        match self {
            Name::Txn => "workloads.txn",
            Name::Begin => "core.begin",
            Name::SetRange => "core.set_range",
            Name::Write => "core.write",
            Name::Commit => "core.commit",
            Name::Alloc => "core.malloc",
            Name::Publish => "core.init_remote_db",
            Name::Recover => "core.recover",
            Name::RedoSnapshot => "core.redo_snapshot",
            Name::RemoteWrite => "rnram.remote_write",
            Name::RemoteWriteV => "rnram.remote_write_v",
            Name::RemoteFlush => "rnram.flush",
            Name::RemoteFlushIdle => "rnram.flush_idle",
            Name::RemoteRead => "rnram.remote_read",
            Name::RemoteMalloc => "rnram.remote_malloc",
            Name::RemoteFree => "rnram.remote_free",
            Name::RemoteConnect => "rnram.connect_segment",
            Name::Dial => "rnram.dial",
            Name::ServeReady => "cli.serve_ready",
        }
    }

    /// The module this span's self time belongs to.
    pub fn layer(self) -> Layer {
        match self {
            Name::Txn => Layer::Workloads,
            Name::Begin
            | Name::SetRange
            | Name::Write
            | Name::Commit
            | Name::Alloc
            | Name::Publish
            | Name::Recover
            | Name::RedoSnapshot => Layer::Core,
            Name::ServeReady => Layer::Cli,
            _ => Layer::Rnram,
        }
    }
}

/// One recorded span. Times are nanoseconds since the tracer was reset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: Name,
    /// Index of the enclosing span, [`NO_PARENT`] for a root.
    pub parent: u32,
    /// Transaction the span belongs to; 0 outside any transaction.
    pub txn: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Tracer {
    base: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    txn: u32,
    next_txn: u32,
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        base: Instant::now(),
        spans: Vec::new(),
        stack: Vec::new(),
        txn: 0,
        next_txn: 0,
    });
}

/// Turns span recording on or off for the calling thread.
pub fn set_enabled(on: bool) {
    ENABLED.with(|e| e.set(on));
}

/// Whether the calling thread records spans.
#[inline]
pub fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Takes every span recorded so far, leaving the buffer empty.
pub fn take_spans() -> Vec<Span> {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        assert!(t.stack.is_empty(), "spans taken while one is open");
        std::mem::take(&mut t.spans)
    })
}

fn enter(name: Name, new_txn: bool) -> u32 {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if new_txn {
            t.next_txn += 1;
            t.txn = t.next_txn;
        }
        let idx = t.spans.len() as u32;
        let parent = t.stack.last().copied().unwrap_or(NO_PARENT);
        let txn = t.txn;
        t.stack.push(idx);
        // Read the clock last, so the bookkeeping above is charged to
        // the parent and not to the span being opened.
        let start_ns = t.base.elapsed().as_nanos() as u64;
        t.spans.push(Span {
            name,
            parent,
            txn,
            start_ns,
            end_ns: start_ns,
        });
        idx
    })
}

fn exit(idx: u32, name: Name) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let end_ns = t.base.elapsed().as_nanos() as u64;
        let popped = t.stack.pop();
        debug_assert_eq!(popped, Some(idx), "spans must nest");
        let s = &mut t.spans[idx as usize];
        s.end_ns = end_ns;
        s.name = name;
        if name == Name::Txn {
            t.txn = 0;
        }
    });
}

/// Runs `f` inside a span called `name` (or bare, with tracing off).
#[inline]
pub fn span<R>(name: Name, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let idx = enter(name, false);
    let r = f();
    exit(idx, name);
    r
}

/// What one span costs the code it watches, in nanoseconds: two clock
/// reads and the bookkeeping, measured on empty spans. A span's own
/// duration holds about one clock read of it, its parent's self time the
/// rest.
pub fn span_cost_ns() -> f64 {
    const N: u32 = 100_000;
    let was = enabled();
    let kept = take_spans();
    set_enabled(true);
    let t0 = Instant::now();
    for _ in 0..N {
        span(Name::Begin, || ());
    }
    let cost = t0.elapsed().as_nanos() as f64 / f64::from(N);
    set_enabled(was);
    drop(take_spans());
    TRACER.with(|t| t.borrow_mut().spans = kept);
    cost
}

/// Self time of every span: its duration minus its children's.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Writes one JSON object per span: index, name, module, parent (`null`
/// for a root), transaction, start, end and self time in nanoseconds.
pub fn write_jsonl(out: &mut impl Write, spans: &[Span]) -> io::Result<()> {
    let own = self_times_ns(spans);
    for (i, (s, own_ns)) in spans.iter().zip(own).enumerate() {
        let name = s.name.as_str();
        let layer = name.split('.').next().unwrap_or(name);
        write!(
            out,
            "{{\"span\":{i},\"name\":\"{name}\",\"layer\":\"{layer}\","
        )?;
        match s.parent {
            NO_PARENT => write!(out, "\"parent\":null,")?,
            p => write!(out, "\"parent\":{p},")?,
        }
        writeln!(
            out,
            "\"txn\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own_ns}}}",
            s.txn, s.start_ns, s.end_ns
        )?;
    }
    Ok(())
}

/// Exact counts of what the engine asked of its mirror.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RemoteCounts {
    /// `remote_write` + `remote_write_v` calls.
    pub write_ops: u64,
    /// Payload bytes those calls carried.
    pub write_bytes: u64,
    /// `flush` calls that confirmed at least one posted operation.
    pub ack_barriers: u64,
    /// `remote_read` + `remote_read_v` calls.
    pub read_ops: u64,
    /// Bytes they fetched.
    pub read_bytes: u64,
    /// Virtual nanoseconds spent inside mirror calls (simulated mirrors
    /// only): the link's share of virtual time.
    pub link_vt_ns: u64,
}

impl RemoteCounts {
    pub fn since(&self, earlier: &RemoteCounts) -> RemoteCounts {
        RemoteCounts {
            write_ops: self.write_ops - earlier.write_ops,
            write_bytes: self.write_bytes - earlier.write_bytes,
            ack_barriers: self.ack_barriers - earlier.ack_barriers,
            read_ops: self.read_ops - earlier.read_ops,
            read_bytes: self.read_bytes - earlier.read_bytes,
            link_vt_ns: self.link_vt_ns - earlier.link_vt_ns,
        }
    }
}

/// A mirror handed to the engine with the benchmark watching every call.
#[derive(Debug)]
pub struct Traced<M> {
    inner: M,
    vclock: Option<SimClock>,
    /// Exact call and byte counts since construction.
    pub counts: RemoteCounts,
    /// Range lengths of the largest write frame seen inside a traced
    /// transaction: the shape the codec micro loops replay.
    pub frame_shape: Vec<usize>,
    /// The largest segment allocated or reconnected: a database region,
    /// which is where `--sabotage` flips its byte.
    pub largest_segment: Option<RemoteSegment>,
}

impl<M: RemoteMemory> Traced<M> {
    pub fn new(inner: M) -> Self {
        Traced {
            vclock: inner.virtual_clock(),
            inner,
            counts: RemoteCounts::default(),
            frame_shape: Vec::new(),
            largest_segment: None,
        }
    }

    #[inline]
    fn vt_now(&self) -> u64 {
        self.vclock.as_ref().map_or(0, |c| c.now().as_nanos())
    }

    fn note_frame(&mut self, lens: impl Iterator<Item = usize> + Clone) {
        let in_txn = TRACER.with(|t| t.borrow().txn != 0);
        if in_txn && lens.clone().sum::<usize>() > self.frame_shape.iter().sum() {
            self.frame_shape = lens.collect();
        }
    }

    fn note_segment(&mut self, seg: &RemoteSegment) {
        if self.largest_segment.is_none_or(|l| seg.len > l.len) {
            self.largest_segment = Some(*seg);
        }
    }
}

impl<M: RemoteMemory> RemoteMemory for Traced<M> {
    fn remote_malloc(&mut self, len: usize, tag: u64) -> Result<RemoteSegment, RnError> {
        let seg = span(Name::RemoteMalloc, || self.inner.remote_malloc(len, tag))?;
        self.note_segment(&seg);
        Ok(seg)
    }

    fn remote_free(&mut self, seg: SegmentId) -> Result<(), RnError> {
        span(Name::RemoteFree, || self.inner.remote_free(seg))
    }

    fn remote_write(&mut self, seg: SegmentId, offset: usize, data: &[u8]) -> Result<(), RnError> {
        self.counts.write_ops += 1;
        self.counts.write_bytes += data.len() as u64;
        if enabled() {
            self.note_frame(std::iter::once(data.len()));
        }
        let t0 = self.vt_now();
        let r = span(Name::RemoteWrite, || {
            self.inner.remote_write(seg, offset, data)
        });
        self.counts.link_vt_ns += self.vt_now() - t0;
        r
    }

    fn remote_write_v(&mut self, writes: &[(SegmentId, usize, &[u8])]) -> Result<(), RnError> {
        self.counts.write_ops += 1;
        self.counts.write_bytes += writes.iter().map(|w| w.2.len() as u64).sum::<u64>();
        if enabled() {
            self.note_frame(writes.iter().map(|w| w.2.len()));
        }
        let t0 = self.vt_now();
        let r = span(Name::RemoteWriteV, || self.inner.remote_write_v(writes));
        self.counts.link_vt_ns += self.vt_now() - t0;
        r
    }

    fn flush(&mut self) -> Result<FlushStats, RnError> {
        let idx = enabled().then(|| enter(Name::RemoteFlush, false));
        let r = self.inner.flush();
        let confirmed = matches!(r, Ok(s) if s.posted > 0);
        if let Some(idx) = idx {
            let name = if confirmed {
                Name::RemoteFlush
            } else {
                Name::RemoteFlushIdle
            };
            exit(idx, name);
        }
        self.counts.ack_barriers += u64::from(confirmed);
        r
    }

    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }

    fn virtual_clock(&self) -> Option<SimClock> {
        self.vclock.clone()
    }

    fn remote_read(
        &mut self,
        seg: SegmentId,
        offset: usize,
        buf: &mut [u8],
    ) -> Result<(), RnError> {
        self.counts.read_ops += 1;
        self.counts.read_bytes += buf.len() as u64;
        let t0 = self.vt_now();
        let r = span(Name::RemoteRead, || {
            self.inner.remote_read(seg, offset, buf)
        });
        self.counts.link_vt_ns += self.vt_now() - t0;
        r
    }

    fn remote_read_v(
        &mut self,
        reads: &[(SegmentId, usize, usize)],
    ) -> Result<Vec<Vec<u8>>, RnError> {
        self.counts.read_ops += 1;
        self.counts.read_bytes += reads.iter().map(|r| r.2 as u64).sum::<u64>();
        let t0 = self.vt_now();
        let r = span(Name::RemoteRead, || self.inner.remote_read_v(reads));
        self.counts.link_vt_ns += self.vt_now() - t0;
        r
    }

    fn connect_segment(&mut self, tag: u64) -> Result<RemoteSegment, RnError> {
        span(Name::RemoteConnect, || self.inner.connect_segment(tag))
    }

    fn segment_info(&mut self, seg: SegmentId) -> Result<RemoteSegment, RnError> {
        let info = span(Name::RemoteConnect, || self.inner.segment_info(seg))?;
        self.note_segment(&info);
        Ok(info)
    }

    fn node_name(&self) -> String {
        self.inner.node_name()
    }
}

/// The benchmark's own image of every acknowledged commit, built from
/// the bytes the workload handed to `write` and from nothing the engine
/// reports.
#[derive(Debug, Default)]
pub struct Oracle {
    regions: Vec<Vec<u8>>,
    /// Before-images of the last acknowledged commit, kept only when the
    /// sabotage self-test is going to drop that commit again.
    last_commit_before: Option<Vec<(usize, usize, Vec<u8>)>>,
}

impl Oracle {
    /// Forgets the most recent acknowledged commit, as if the benchmark
    /// had never seen it succeed. Only possible after
    /// [`TracedTm::keep_last_commit`].
    pub fn drop_last_commit(&mut self) {
        let before = self
            .last_commit_before
            .take()
            .expect("keep_last_commit was not set before the commit");
        for (region, offset, bytes) in before.into_iter().rev() {
            self.regions[region][offset..offset + bytes.len()].copy_from_slice(&bytes);
        }
    }

    /// Number of bytes at which `tm`'s regions differ from this image.
    pub fn mismatches(&self, tm: &dyn TransactionalMemory) -> Result<usize, TxnError> {
        const CHUNK: usize = 1 << 20;
        let mut buf = vec![0u8; CHUNK];
        let mut bad = 0;
        for (i, want) in self.regions.iter().enumerate() {
            let id = RegionId::from_raw(i as u32);
            if tm.region_len(id)? != want.len() {
                bad += want.len();
                continue;
            }
            for (c, chunk) in want.chunks(CHUNK).enumerate() {
                let got = &mut buf[..chunk.len()];
                tm.read(id, c * CHUNK, got)?;
                if got != chunk {
                    bad += got.iter().zip(chunk).filter(|(a, b)| a != b).count();
                }
            }
        }
        Ok(bad)
    }

    /// Region lengths, indexed by raw region id.
    pub fn region_lens(&self) -> Vec<usize> {
        self.regions.iter().map(Vec::len).collect()
    }
}

/// The engine handed to [`crate::sut::Workload::run_txn`], with the
/// benchmark watching every call: spans when tracing is on, a latency
/// sample per transaction when asked, the oracle image always.
pub struct TracedTm<M: RemoteMemory> {
    db: Option<Perseas<Traced<M>>>,
    pub oracle: Oracle,
    /// `(region, offset, start in pending_data, len)` of the open
    /// transaction's writes.
    pending: Vec<(usize, usize, usize, usize)>,
    pending_data: Vec<u8>,
    txn_span: Option<u32>,
    begun_at: Instant,
    /// Begin-to-commit wall nanoseconds of every transaction committed
    /// while [`TracedTm::record_latency`] was on.
    pub latency_ns: Vec<u32>,
    pub record_latency: bool,
    /// Make the next `commit_transaction` fail before it reaches the
    /// engine, leaving the transaction open: the benchmark's crash point.
    pub crash_at_commit: bool,
    /// `(region, offset, len)` of every `set_range` while this is `Some`:
    /// the bytes a recovery may legitimately rewrite.
    pub declared_log: Option<Vec<(usize, usize, usize)>>,
    pub keep_last_commit: bool,
    /// Inside a traced slice: record the spans of one transaction in this
    /// many, so that watching costs the slice under a tenth of its time
    /// even when a transaction is shorter than its spans' clock reads.
    /// Zero outside traced slices.
    pub trace_every: u64,
    /// Transactions that reached `commit_transaction` (the crash
    /// transactions are stopped before it).
    pub attempted: u64,
    /// Bytes declared to `set_range`.
    pub declared_bytes: u64,
}

impl<M: RemoteMemory> TracedTm<M> {
    pub fn new(db: Perseas<Traced<M>>) -> Self {
        TracedTm {
            db: Some(db),
            oracle: Oracle::default(),
            pending: Vec::new(),
            pending_data: Vec::new(),
            txn_span: None,
            begun_at: Instant::now(),
            latency_ns: Vec::new(),
            record_latency: false,
            crash_at_commit: false,
            declared_log: None,
            keep_last_commit: false,
            trace_every: 0,
            attempted: 0,
            declared_bytes: 0,
        }
    }

    /// The engine. Panics after [`TracedTm::crash`] until
    /// [`TracedTm::adopt`] installs a recovered one.
    pub fn db(&self) -> &Perseas<Traced<M>> {
        self.db.as_ref().expect("engine crashed and not recovered")
    }

    fn db_mut(&mut self) -> &mut Perseas<Traced<M>> {
        self.db.as_mut().expect("engine crashed and not recovered")
    }

    /// The mirror decorator inside the engine.
    pub fn mirror(&self) -> &Traced<M> {
        self.db().mirror_backend(0).expect("one mirror")
    }

    /// Kills the primary: the engine, its local image and its connection
    /// are dropped with whatever transaction was open.
    pub fn crash(&mut self) {
        self.db = None;
        self.pending.clear();
        self.pending_data.clear();
        self.crash_at_commit = false;
        self.end_txn_span();
    }

    /// Installs the engine `Perseas::recover` returned.
    pub fn adopt(&mut self, db: Perseas<Traced<M>>) {
        self.db = Some(db);
    }

    /// `Perseas::redo_snapshot`, as its own span.
    pub fn redo_snapshot(&mut self) -> Result<(), TxnError> {
        span(Name::RedoSnapshot, || self.db_mut().redo_snapshot())
    }

    /// Closes the transaction's span; between the transactions of a
    /// traced slice every call is recorded again (snapshots happen there).
    fn end_txn_span(&mut self) {
        if let Some(idx) = self.txn_span.take() {
            exit(idx, Name::Txn);
        }
        if self.trace_every != 0 {
            set_enabled(true);
        }
    }

    /// Moves the open transaction's writes into the oracle.
    fn apply_pending(&mut self) {
        let mut before = self.keep_last_commit.then(Vec::new);
        for &(region, offset, start, len) in &self.pending {
            let dst = &mut self.oracle.regions[region][offset..offset + len];
            if let Some(b) = before.as_mut() {
                b.push((region, offset, dst.to_vec()));
            }
            dst.copy_from_slice(&self.pending_data[start..start + len]);
        }
        if before.is_some() {
            self.oracle.last_commit_before = before;
        }
        self.pending.clear();
        self.pending_data.clear();
    }

    /// Bytes differing between the engine's regions and the oracle.
    pub fn oracle_mismatches(&self) -> Result<usize, TxnError> {
        self.oracle.mismatches(self.db())
    }
}

impl<M: RemoteMemory> TransactionalMemory for TracedTm<M> {
    fn system_name(&self) -> &'static str {
        self.db().system_name()
    }

    fn alloc_region(&mut self, len: usize) -> Result<RegionId, TxnError> {
        let id = span(Name::Alloc, || self.db_mut().alloc_region(len))?;
        assert_eq!(
            id.as_raw() as usize,
            self.oracle.regions.len(),
            "region ids are expected to count up from zero"
        );
        self.oracle.regions.push(vec![0; len]);
        Ok(id)
    }

    fn publish(&mut self) -> Result<(), TxnError> {
        span(Name::Publish, || self.db_mut().publish())
    }

    fn begin_transaction(&mut self) -> Result<(), TxnError> {
        if self.trace_every != 0 {
            set_enabled(self.attempted.is_multiple_of(self.trace_every));
        }
        if enabled() {
            self.txn_span = Some(enter(Name::Txn, true));
        }
        if self.record_latency {
            self.begun_at = Instant::now();
        }
        span(Name::Begin, || self.db_mut().begin_transaction())
    }

    fn set_range(&mut self, region: RegionId, offset: usize, len: usize) -> Result<(), TxnError> {
        self.declared_bytes += len as u64;
        if let Some(log) = self.declared_log.as_mut() {
            log.push((region.as_raw() as usize, offset, len));
        }
        span(Name::SetRange, || {
            self.db_mut().set_range(region, offset, len)
        })
    }

    fn write(&mut self, region: RegionId, offset: usize, data: &[u8]) -> Result<(), TxnError> {
        span(Name::Write, || self.db_mut().write(region, offset, data))?;
        let r = region.as_raw() as usize;
        if self.db().in_transaction() {
            self.pending
                .push((r, offset, self.pending_data.len(), data.len()));
            self.pending_data.extend_from_slice(data);
        } else {
            // Initialisation before `publish`: durable as soon as the
            // image is published.
            self.oracle.regions[r][offset..offset + data.len()].copy_from_slice(data);
        }
        Ok(())
    }

    fn read(&self, region: RegionId, offset: usize, buf: &mut [u8]) -> Result<(), TxnError> {
        // Not a span: a bounds check and a local copy, cheaper than the
        // two clock reads a span costs. Its time stays with the caller.
        self.db().read(region, offset, buf)
    }

    fn commit_transaction(&mut self) -> Result<(), TxnError> {
        if self.crash_at_commit {
            return Err(TxnError::Unavailable("benchmark crash point".into()));
        }
        self.attempted += 1;
        let r = span(Name::Commit, || self.db_mut().commit_transaction());
        if self.record_latency {
            self.latency_ns
                .push(self.begun_at.elapsed().as_nanos().min(u32::MAX as u128) as u32);
        }
        self.end_txn_span();
        // An acknowledged commit, and only that, reaches the oracle.
        if r.is_ok() {
            self.apply_pending();
        }
        r
    }

    fn abort_transaction(&mut self) -> Result<(), TxnError> {
        self.pending.clear();
        self.pending_data.clear();
        let r = self.db_mut().abort_transaction();
        self.end_txn_span();
        r
    }

    fn in_transaction(&self) -> bool {
        self.db().in_transaction()
    }

    fn clock(&self) -> &SimClock {
        self.db().clock()
    }

    fn stats(&self) -> TxnStats {
        self.db().stats()
    }

    fn region_len(&self, region: RegionId) -> Result<usize, TxnError> {
        self.db().region_len(region)
    }

    fn begin_snapshot(&mut self) -> Result<SnapshotToken, TxnError> {
        self.db_mut().begin_snapshot()
    }

    fn read_snapshot(
        &self,
        snap: SnapshotToken,
        region: RegionId,
        offset: usize,
        buf: &mut [u8],
    ) -> Result<(), TxnError> {
        self.db().read_s(snap, region, offset, buf)
    }

    fn end_snapshot(&mut self, snap: SnapshotToken) {
        self.db_mut().end_snapshot(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: Name, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            txn: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        // txn 0..100 { commit 10..90 { write_v 20..50, flush 50..80 } }
        let spans = [
            s(Name::Txn, NO_PARENT, 0, 100),
            s(Name::Commit, 0, 10, 90),
            s(Name::RemoteWriteV, 1, 20, 50),
            s(Name::RemoteFlush, 1, 50, 80),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own, vec![20, 20, 30, 30]);
        // Self times of a strictly nested tree add up to the root.
        assert_eq!(own.iter().sum::<u64>(), spans[0].duration_ns());
    }

    #[test]
    fn recorded_spans_nest_and_carry_the_transaction() {
        set_enabled(true);
        let root = enter(Name::Txn, true);
        span(Name::Commit, || span(Name::RemoteWriteV, || ()));
        exit(root, Name::Txn);
        span(Name::Recover, || ());
        set_enabled(false);
        span(Name::Commit, || ());
        let spans = take_spans();
        assert_eq!(spans.len(), 4, "nothing is recorded with tracing off");
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 1);
        assert_eq!(spans[2].txn, spans[0].txn);
        assert_ne!(spans[0].txn, 0);
        assert_eq!(spans[3].txn, 0, "the transaction ended with its span");
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let mut out = Vec::new();
        write_jsonl(&mut out, &spans).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 4);
        assert!(text.lines().next().unwrap().contains("\"parent\":null"));
        assert!(text.contains("\"name\":\"rnram.remote_write_v\",\"layer\":\"rnram\""));
    }
}
