//! One run of one workload: set-ups, timed pass, traced slices, crash and
//! recovery cycles, counted pass, and the checks on every output.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::procfs::{self, ProcSample};
use crate::spec::{
    Spec, Substrate, RECOVERIES, REDO_CRASH_TAIL, SIM_CAPACITY, SLICE_PAIRS, SNAPSHOT_EVERY,
};
use crate::stats;
use crate::sut::{
    self, LinkStats, PerseasConfig, RegionId, RemoteMemory, RemoteSegment, SimRemote, TcpRemote,
    TransactionalMemory, TxnStats, Workload,
};
use crate::trace::{self, Name, RemoteCounts, Span, Traced, TracedTm};

/// A deliberate fault for the self-test: each must turn `correct` false.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sabotage {
    None,
    /// Flip one byte of the mirrored database before the first recovery.
    FlipMirrorByte,
    /// Forget one acknowledged commit in the benchmark's oracle.
    DropOracleCommit,
}

/// What to run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub spec: &'static Spec,
    pub seed: u64,
    /// Timed epochs (after one discarded warm-up epoch).
    pub epochs: u64,
    /// Stop the timed pass early once it has taken this long, so a
    /// disturbed machine cannot push a run past the driver's time limit.
    pub time_cap: Duration,
    pub trace: bool,
    pub sabotage: Sabotage,
    /// The `perseas` binary, needed by the TCP workloads.
    pub cli: PathBuf,
    pub setups: usize,
    pub recoveries: usize,
}

impl RunArgs {
    pub fn new(spec: &'static Spec, seed: u64, epochs: u64, cli: PathBuf) -> RunArgs {
        RunArgs {
            spec,
            seed,
            epochs,
            time_cap: Duration::from_secs(150),
            trace: false,
            sabotage: Sabotage::None,
            cli,
            setups: spec.setups,
            recoveries: RECOVERIES,
        }
    }
}

/// Where a workload's mirror lives and how to reach it.
pub trait Site: Sized {
    type Mirror: RemoteMemory;
    /// Brings a fresh, empty mirror up.
    fn start(spec: &Spec, cli: &Path) -> Result<Self, String>;
    /// A new connection to the mirror (the first one, or the one a
    /// recovering node opens).
    fn connect(&self) -> Result<Self::Mirror, String>;
    /// The mirror's process, if it is one.
    fn server_pid(&self) -> Option<u32>;
}

/// An in-process simulated node.
pub struct SimSite {
    remote: SimRemote,
}

impl SimSite {
    fn link_stats(&self) -> LinkStats {
        self.remote.link().stats()
    }
}

impl Site for SimSite {
    type Mirror = SimRemote;

    fn start(_spec: &Spec, _cli: &Path) -> Result<Self, String> {
        Ok(SimSite {
            remote: sut::sim_node("mirror", SIM_CAPACITY),
        })
    }

    fn connect(&self) -> Result<SimRemote, String> {
        // A clone is a second mapping of the same node memory and clock.
        Ok(self.remote.clone())
    }

    fn server_pid(&self) -> Option<u32> {
        None
    }
}

/// A spawned `perseas serve` child on an ephemeral loopback port. Killed
/// and reaped when dropped.
pub struct TcpSite {
    child: Child,
    // Held open: the server prints once more after the banner and would
    // die of a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Site for TcpSite {
    type Mirror = TcpRemote;

    fn start(spec: &Spec, cli: &Path) -> Result<Self, String> {
        trace::span(Name::ServeReady, || {
            let mut child = sut::serve_command(cli, spec.name)
                .spawn()
                .map_err(|e| format!("cannot spawn {}: {e}", cli.display()))?;
            let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
            let mut banner = String::new();
            let addr = match stdout.read_line(&mut banner) {
                Ok(n) if n > 0 => sut::parse_serve_banner(&banner).map(str::to_owned),
                _ => None,
            };
            let mut site = TcpSite {
                child,
                _stdout: stdout,
                addr: String::new(),
            };
            site.addr = addr.ok_or_else(|| {
                let _ = site.child.kill();
                format!("perseas serve printed no address (got {banner:?})")
            })?;
            let mut probe = TcpRemote::connect(site.addr.as_str()).map_err(|e| e.to_string())?;
            probe.ping().map_err(|e| e.to_string())?;
            Ok(site)
        })
    }

    fn connect(&self) -> Result<TcpRemote, String> {
        trace::span(Name::Dial, || {
            TcpRemote::connect_pipelined(self.addr.as_str()).map_err(|e| e.to_string())
        })
    }

    fn server_pid(&self) -> Option<u32> {
        Some(self.child.id())
    }
}

impl Drop for TcpSite {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The exact, machine-independent results of the counted pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Counted {
    pub txns: u64,
    pub errors: u64,
    /// Virtual nanoseconds the transactions took.
    pub vt_ns: u64,
    pub remote: RemoteCounts,
    /// Bytes declared to `set_range`.
    pub declared_bytes: u64,
    pub local_copy_bytes: u64,
    /// Payload bytes written by `redo_snapshot` calls.
    pub snapshot_bytes: u64,
    pub link_writes: u64,
    pub link_packets64: u64,
    pub link_packets16: u64,
    pub link_bytes: u64,
}

/// Everything one run measured. Times in seconds unless named otherwise.
#[derive(Debug, Default)]
pub struct Measured {
    pub correct: bool,
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub setup_s: Vec<f64>,
    pub epoch_s: Vec<f64>,
    pub epoch_txns: u64,
    /// Begin-to-commit nanoseconds of every timed transaction.
    pub latency_ns: Vec<u32>,
    pub timed_txns: u64,
    pub client: ProcSample,
    pub server: ProcSample,
    /// What the engine asked of the mirror during the timed pass.
    pub timed_remote: RemoteCounts,
    /// Loopback bytes, headers included, during the timed pass.
    pub timed_wire_bytes: u64,
    pub recover_s: Vec<f64>,
    /// Mirror reads and bytes of one recovery (the last).
    pub recover_reads: u64,
    pub recover_read_bytes: u64,
    /// Bytes fetched by all recoveries together.
    pub recover_read_bytes_total: u64,
    pub client_rss_mb: f64,
    pub server_rss_mb: f64,
    pub counted: Option<Counted>,
    /// Wall seconds per transaction of the untraced and traced slices.
    pub plain_slice_s: Vec<f64>,
    pub traced_slice_s: Vec<f64>,
    pub spans: Vec<Span>,
    pub frame_shape: Vec<usize>,
    pub set_range_4k_us: Vec<f64>,
}

/// The run's moving parts, bundled so that every transaction — timed,
/// traced, post-recovery or counted — takes the same path.
struct Driver<S: Site> {
    spec: &'static Spec,
    site: S,
    tm: TracedTm<S::Mirror>,
    wl: Box<dyn Workload>,
    since_snapshot: u64,
    snapshot_bytes: u64,
    /// Transactions (or snapshots) that returned an error.
    errors: u64,
    /// `attempted` at the last verification, and the transactions that
    /// failed verifications left unaccounted for.
    verified_upto: u64,
    unverifiable: u64,
}

impl<S: Site> Driver<S> {
    /// One complete set-up: mirror up, connect, `init`, and the
    /// workload's `setup` including `init_remote_db`.
    fn set_up(spec: &'static Spec, seed: u64, cli: &Path) -> Result<Self, String> {
        let site = S::start(spec, cli)?;
        let mirror = Traced::new(site.connect()?);
        let db = sut::init(mirror, spec.config()).map_err(|e| e.to_string())?;
        let mut tm = TracedTm::new(db);
        let mut wl = spec.workload(seed);
        wl.setup(&mut tm).map_err(|e| e.to_string())?;
        Ok(Driver {
            spec,
            site,
            tm,
            wl,
            since_snapshot: 0,
            snapshot_bytes: 0,
            errors: 0,
            verified_upto: 0,
            unverifiable: 0,
        })
    }

    fn run_txns(&mut self, n: u64) {
        for _ in 0..n {
            if self.wl.run_txn(&mut self.tm).is_ok() {
                self.after_commit();
            } else {
                self.errors += 1;
                if self.tm.in_transaction() {
                    let _ = self.tm.abort_transaction();
                }
            }
        }
    }

    /// The redo workload's background duty: a snapshot (and the log
    /// compaction it triggers) every [`SNAPSHOT_EVERY`] commits.
    fn after_commit(&mut self) {
        if !self.spec.redo {
            return;
        }
        self.since_snapshot += 1;
        if self.since_snapshot == SNAPSHOT_EVERY {
            self.snapshot();
        }
    }

    fn snapshot(&mut self) {
        let before = self.tm.mirror().counts.write_bytes;
        if self.tm.redo_snapshot().is_err() {
            self.errors += 1;
        }
        self.snapshot_bytes += self.tm.mirror().counts.write_bytes - before;
        self.since_snapshot = 0;
    }

    /// `Workload::check()` and the byte comparison with the oracle. When
    /// either fails, every transaction since the previous verification
    /// counts as failed: its effect cannot be vouched for.
    fn verify(&mut self, stage: &str, problems: &mut Vec<String>) {
        let mut ok = true;
        if let Err(e) = self.wl.check(&self.tm) {
            problems.push(format!("{stage}: workload check failed: {e}"));
            ok = false;
        }
        match self.tm.oracle_mismatches() {
            Ok(0) => {}
            Ok(n) => {
                problems.push(format!(
                    "{stage}: {n} bytes differ from the oracle of acknowledged commits"
                ));
                ok = false;
            }
            Err(e) => {
                problems.push(format!("{stage}: regions unreadable: {e}"));
                ok = false;
            }
        }
        if !ok {
            self.unverifiable += self.tm.attempted - self.verified_upto;
        }
        self.verified_upto = self.tm.attempted;
    }

    /// 1 000 single-range 4 KiB transactions that rewrite what is there:
    /// the wall time of `set_range` alone, in microseconds.
    fn set_range_4k(&mut self) -> Vec<f64> {
        const LEN: usize = 4096;
        let region = RegionId::from_raw(0);
        let slots = self.tm.oracle.region_lens()[0] / LEN;
        let mut buf = vec![0u8; LEN];
        let mut samples = Vec::with_capacity(1000);
        for i in 0..1000 {
            let offset = (i * 7919 % slots) * LEN;
            let tm = &mut self.tm;
            let step = tm
                .read(region, offset, &mut buf)
                .and_then(|()| tm.begin_transaction())
                .and_then(|()| {
                    let t0 = Instant::now();
                    let r = tm.set_range(region, offset, LEN);
                    samples.push(t0.elapsed().as_secs_f64() * 1e6);
                    r
                })
                .and_then(|()| tm.write(region, offset, &buf))
                .and_then(|()| tm.commit_transaction());
            match step {
                Ok(()) => self.after_commit(),
                Err(_) => self.errors += 1,
            }
        }
        samples
    }
}

/// Memory one set-up or recovery touches on both sides, with room to spare.
const WARM_BYTES: usize = 256 << 20;

/// Has a short-lived child touch [`WARM_BYTES`] of fresh memory, so that
/// the pages a set-up or a recovery is about to fault in are backed by
/// the host. This
/// guest hands freed memory back to the hypervisor after two seconds
/// (free page reporting), a page the hypervisor has to back again costs
/// four times as much to touch as one it still backs, and a 40 MB set-up
/// on the simulated mirror is little else than touching pages. A child
/// does it so that the run's own peak memory stays its own.
fn warm_pages() -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = Command::new(exe)
        .arg("warm-pages")
        .stdin(Stdio::null())
        .status()
        .map_err(|e| format!("cannot start the page-warming child: {e}"))?;
    status
        .success()
        .then_some(())
        .ok_or_else(|| "the page-warming child failed".to_owned())
}

/// The child side of [`warm_pages`]: `perf_ledger warm-pages`.
pub fn touch_pages() -> bool {
    let mut block = vec![0u8; WARM_BYTES];
    for page in block.chunks_mut(4096) {
        page[0] = 1;
    }
    std::hint::black_box(&block);
    true
}

/// Flips one byte of `seg` on the mirror, away from every range the
/// crashed node had declared (recovery may legitimately rewrite those).
fn flip_mirror_byte<M: RemoteMemory>(
    mut mirror: M,
    seg: RemoteSegment,
    region: usize,
    declared: &[(usize, usize, usize)],
) -> Result<(), String> {
    const MARGIN: usize = 256;
    let mut offset = seg.len / 2;
    while declared
        .iter()
        .any(|&(r, o, l)| r == region && offset + MARGIN > o && offset < o + l + MARGIN)
    {
        offset = (offset + 4099) % seg.len;
    }
    let mut byte = [0u8];
    mirror
        .remote_read(seg.id, offset, &mut byte)
        .and_then(|()| mirror.remote_write(seg.id, offset, &[!byte[0]]))
        .and_then(|()| mirror.flush().map(drop))
        .map_err(|e| format!("cannot sabotage the mirror: {e}"))
}

/// Runs one workload start to finish.
pub fn run(a: &RunArgs) -> Result<Measured, String> {
    match a.spec.substrate {
        Substrate::Sim => run_on::<SimSite>(a),
        Substrate::Tcp => run_on::<TcpSite>(a),
    }
}

fn run_on<S: Site>(a: &RunArgs) -> Result<Measured, String> {
    let spec = a.spec;
    let cfg: PerseasConfig = spec.config();
    let mut m = Measured::default();
    let mut problems = Vec::new();
    trace::set_enabled(false);
    drop(trace::take_spans());

    // Set-ups: each brings a complete instance up from nothing; the
    // previous one is torn down first so two databases never coexist.
    let mut live: Option<Driver<S>> = None;
    for _ in 0..a.setups {
        drop(live.take());
        warm_pages()?;
        trace::set_enabled(a.trace);
        let t0 = Instant::now();
        let d = Driver::<S>::set_up(spec, a.seed, &a.cli);
        m.setup_s.push(t0.elapsed().as_secs_f64());
        trace::set_enabled(false);
        live = Some(d?);
    }
    let mut d = live.expect("at least one set-up");
    if a.sabotage == Sabotage::DropOracleCommit {
        d.tm.keep_last_commit = true;
    }

    // Timed pass: one discarded warm-up epoch, then fixed-work epochs.
    d.run_txns(spec.epoch_txns);
    d.tm.latency_ns
        .reserve((a.epochs * spec.epoch_txns) as usize);
    d.tm.record_latency = true;
    let pid = d.site.server_pid();
    let client0 = ProcSample::of_self();
    let server0 = pid.and_then(ProcSample::of).unwrap_or_default();
    let remote0 = d.tm.mirror().counts;
    let wire0 = procfs::loopback_rx_bytes();
    let pass = Instant::now();
    for _ in 0..a.epochs {
        let t0 = Instant::now();
        d.run_txns(spec.epoch_txns);
        m.epoch_s.push(t0.elapsed().as_secs_f64());
        if pass.elapsed() > a.time_cap {
            break;
        }
    }
    m.client = ProcSample::of_self().since(&client0);
    m.server = pid
        .and_then(ProcSample::of)
        .unwrap_or_default()
        .since(&server0);
    m.timed_remote = d.tm.mirror().counts.since(&remote0);
    m.timed_wire_bytes = procfs::loopback_rx_bytes().saturating_sub(wire0);
    d.tm.record_latency = false;
    m.epoch_txns = spec.epoch_txns;
    m.timed_txns = m.epoch_s.len() as u64 * spec.epoch_txns;
    m.latency_ns = std::mem::take(&mut d.tm.latency_ns);
    d.verify("after the timed pass", &mut problems);

    // Traced pass: untraced and traced slices alternate, so the cost of
    // watching is measured inside the run that pays it.
    if a.trace {
        for _ in 0..SLICE_PAIRS {
            for on in [false, true] {
                trace::set_enabled(on);
                d.tm.trace_every = if on { spec.trace_every } else { 0 };
                let t0 = Instant::now();
                d.run_txns(spec.slice_txns);
                let per_txn = t0.elapsed().as_secs_f64() / spec.slice_txns as f64;
                if on {
                    m.traced_slice_s.push(per_txn);
                } else {
                    m.plain_slice_s.push(per_txn);
                }
            }
        }
        d.tm.trace_every = 0;
        trace::set_enabled(false);
        m.frame_shape = d.tm.mirror().frame_shape.clone();
        m.set_range_4k_us = d.set_range_4k();
    }

    // Crash and recovery cycles.
    let db_region = {
        let lens = d.tm.oracle.region_lens();
        (0..lens.len()).max_by_key(|&i| lens[i]).unwrap_or(0)
    };
    for cycle in 0..a.recoveries {
        d.tm.declared_log = Some(Vec::new());
        if spec.redo {
            d.snapshot();
            d.run_txns(REDO_CRASH_TAIL);
        }
        // The crash point: a transaction with its ranges declared and
        // its writes made, stopped at the door of `commit_transaction`.
        d.tm.crash_at_commit = true;
        if d.wl.run_txn(&mut d.tm).is_ok() || !d.tm.in_transaction() {
            return Err("the crash transaction did not stay open".into());
        }
        let declared = d.tm.declared_log.take().unwrap_or_default();
        let db_segment = d.tm.mirror().largest_segment;
        if cycle == 0 && a.sabotage == Sabotage::DropOracleCommit {
            d.tm.oracle.drop_last_commit();
        }
        d.tm.crash();
        if cycle == 0 && a.sabotage == Sabotage::FlipMirrorByte {
            let seg = db_segment.ok_or("no database segment seen on the mirror")?;
            flip_mirror_byte(d.site.connect()?, seg, db_region, &declared)?;
        }

        warm_pages()?;
        trace::set_enabled(a.trace);
        let mirror = Traced::new(d.site.connect()?);
        let t0 = Instant::now();
        let recovered = trace::span(Name::Recover, || sut::recover(mirror, cfg));
        m.recover_s.push(t0.elapsed().as_secs_f64());
        trace::set_enabled(false);
        d.tm.adopt(recovered.map_err(|e| format!("recovery failed: {e}"))?);
        let reads = d.tm.mirror().counts;
        m.recover_reads = reads.read_ops;
        m.recover_read_bytes = reads.read_bytes;
        m.recover_read_bytes_total += reads.read_bytes;

        d.verify(&format!("after recovery {}", cycle + 1), &mut problems);
        d.run_txns(spec.post_recover_txns);
    }
    d.verify("at the end", &mut problems);

    m.attempted = d.tm.attempted;
    m.failed = d.errors + d.unverifiable;
    if d.errors > 0 {
        problems.push(format!("{} transactions returned an error", d.errors));
    }
    m.server_rss_mb = pid.and_then(procfs::peak_rss_mb).unwrap_or(0.0);
    drop(d);
    m.spans = trace::take_spans();

    // Counted pass, twice: whatever differs between the two is a bug in
    // the benchmark or nondeterminism in the system, and either way the
    // "exact" numbers would not be.
    let first = counted(spec, a.seed)?;
    let second = counted(spec, a.seed)?;
    if first != second {
        problems.push(format!(
            "counted pass does not repeat: {first:?} then {second:?}"
        ));
    }
    if first.errors > 0 {
        problems.push(format!("counted pass: {} errors", first.errors));
        m.failed += first.errors;
    }
    m.counted = Some(first);

    m.client_rss_mb = procfs::peak_rss_mb(std::process::id()).unwrap_or(0.0);
    m.correct = problems.is_empty();
    m.problems = problems;
    Ok(m)
}

/// The counted pass: the same seeded stream and engine configuration for
/// a fixed number of transactions on an in-process simulated mirror.
fn counted(spec: &'static Spec, seed: u64) -> Result<Counted, String> {
    let mut d = Driver::<SimSite>::set_up(spec, seed, Path::new(""))?;
    let remote0 = d.tm.mirror().counts;
    let link0 = d.site.link_stats();
    let stats0: TxnStats = d.tm.stats();
    let declared0 = d.tm.declared_bytes;
    let vt0 = d.tm.clock().now();
    d.run_txns(spec.counted_txns);
    let vt_ns = d.tm.clock().now().duration_since(vt0).as_nanos();
    let link = d.site.link_stats();
    let stats = d.tm.stats().since(&stats0);
    Ok(Counted {
        txns: spec.counted_txns,
        errors: d.errors,
        vt_ns,
        remote: d.tm.mirror().counts.since(&remote0),
        declared_bytes: d.tm.declared_bytes - declared0,
        local_copy_bytes: stats.local_copy_bytes,
        snapshot_bytes: d.snapshot_bytes,
        link_writes: link.writes - link0.writes,
        link_packets64: link.packets64 - link0.packets64,
        link_packets16: link.packets16 - link0.packets16,
        link_bytes: link.bytes_written - link0.bytes_written,
    })
}

impl Measured {
    /// The eight end-to-end metrics, in the order of
    /// [`crate::spec::END_TO_END`].
    pub fn end_to_end(&mut self) -> Vec<f64> {
        let c = self.counted.expect("counted pass ran");
        let txns = self.timed_txns.max(1) as f64;
        let epoch = stats::median(&mut self.epoch_s.clone());
        self.latency_ns.sort_unstable();
        let p50 = stats::quantile_sorted(&self.latency_ns, 0.5) / 1e3;
        vec![
            stats::median(&mut self.setup_s.clone()),
            self.epoch_txns as f64 / epoch,
            p50,
            (self.client.cpu_s + self.server.cpu_s) * 1e6 / txns,
            c.vt_ns as f64 / 1e3 / c.txns as f64,
            c.remote.write_bytes as f64 / c.declared_bytes as f64,
            stats::median(&mut self.recover_s.clone()) * 1e3,
            self.client_rss_mb + self.server_rss_mb,
        ]
    }
}
