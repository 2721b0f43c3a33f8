//! Mirror failover: degraded commits while a mirror is down, epoch
//! fencing of its stale image, backoff-paced reconnect probing, and
//! online re-mirroring back to full redundancy — including exhaustive
//! crash sweeps over the degraded-commit and resync paths.

use perseas_core::{
    FaultPlan, MetaHeader, MirrorHealth, Perseas, PerseasConfig, ReadReplica, RecordingTracer,
    RegionId, TraceEvent, TxnError, OFF_COMMIT, OFF_EPOCH,
};
use perseas_integration::reopen;
use perseas_rnram::{RemoteMemory, RemoteSegment, RnError, SimRemote};
use perseas_sci::{NodeMemory, SciLink, SciParams, SegmentId};
use perseas_simtime::SimClock;

fn setup2_with(
    cfg: PerseasConfig,
) -> (
    Perseas<SimRemote>,
    RegionId,
    NodeMemory,
    NodeMemory,
    SciLink,
) {
    let clock = SimClock::new();
    let a = SimRemote::with_parts(
        clock.clone(),
        NodeMemory::new("a"),
        SciParams::dolphin_1998(),
    );
    let b = SimRemote::with_parts(
        clock.clone(),
        NodeMemory::new("b"),
        SciParams::dolphin_1998(),
    );
    let (na, nb, lb) = (a.node().clone(), b.node().clone(), b.link().clone());
    let mut db = Perseas::init_with_clock(vec![a, b], cfg, clock).unwrap();
    let r = db.malloc(64).unwrap();
    db.init_remote_db().unwrap();
    (db, r, na, nb, lb)
}

fn setup2() -> (
    Perseas<SimRemote>,
    RegionId,
    NodeMemory,
    NodeMemory,
    SciLink,
) {
    setup2_with(PerseasConfig::default())
}

fn commit_fill<M: perseas_rnram::RemoteMemory>(
    db: &mut Perseas<M>,
    r: RegionId,
    at: usize,
    byte: u8,
) -> Result<(), TxnError> {
    db.begin_transaction()?;
    db.set_range(r, at, 8)?;
    db.write(r, at, &[byte; 8])?;
    db.commit_transaction()
}

/// Reads a mirror's metadata header and full region images straight off
/// its node memory, for byte-level comparisons between mirrors.
fn mirror_image(node: &NodeMemory) -> (MetaHeader, Vec<Vec<u8>>) {
    let mut backend = reopen(node);
    let meta = backend.connect_segment(perseas_core::META_TAG).unwrap();
    let mut image = vec![0u8; meta.len];
    backend.remote_read(meta.id, 0, &mut image).unwrap();
    let header = MetaHeader::decode(&image).unwrap();
    let mut regions = Vec::new();
    for i in 0..header.region_count as usize {
        let (seg_id, len) = perseas_core::decode_region_entry(&image, i).unwrap();
        let mut data = vec![0u8; len as usize];
        backend
            .remote_read(SegmentId::from_raw(seg_id), 0, &mut data)
            .unwrap();
        regions.push(data);
    }
    (header, regions)
}

#[test]
fn degraded_commit_survives_mirror_loss() {
    let (mut db, r, na, _nb, lb) = setup2();
    let tracer = RecordingTracer::new();
    db.set_tracer(Box::new(tracer.clone()));
    commit_fill(&mut db, r, 0, 1).unwrap();

    // Mirror b's link dies; the next transaction still commits.
    lb.cut_after_packets(0);
    commit_fill(&mut db, r, 8, 2).unwrap();
    assert_eq!(db.last_committed(), 2);
    assert_eq!(db.mirror_count(), 2);
    assert_eq!(db.healthy_mirror_count(), 1);
    assert_eq!(db.current_epoch(), 2, "one fence bumps the epoch once");

    // mirror_status reports the dead mirror.
    let status = db.mirror_status();
    assert_eq!(status[0].health, MirrorHealth::Healthy);
    assert_eq!(status[1].health, MirrorHealth::Down);
    assert_eq!(status[1].node, "b");
    assert_eq!(status[1].index, 1);

    // The failover is traced.
    let events = tracer.events();
    assert!(events
        .iter()
        .any(|e| matches!(e, TraceEvent::MirrorDown { index: 1, .. })));
    assert!(events.contains(&TraceEvent::EpochBump { epoch: 2 }));
    assert!(events.contains(&TraceEvent::DegradedCommit {
        id: 2,
        healthy: 1,
        mirrors: 2
    }));

    // The degraded commit is durable on the survivor.
    db.crash();
    let (db2, report) = Perseas::recover(reopen(&na), PerseasConfig::default()).unwrap();
    assert_eq!(report.last_committed, 2);
    assert_eq!(report.epoch, 2);
    assert_eq!(&db2.region_snapshot(r).unwrap()[8..16], &[2; 8]);
}

#[test]
fn stale_epoch_mirror_is_fenced_out() {
    let (mut db, r, na, nb, lb) = setup2();
    commit_fill(&mut db, r, 0, 1).unwrap();
    lb.cut_after_packets(0);
    commit_fill(&mut db, r, 8, 2).unwrap();
    let fence_epoch = db.current_epoch();
    lb.heal(); // b is reachable again but holds a stale, fenced image

    // recover: the fenced mirror is refused at the survivor's epoch.
    let err = Perseas::recover(
        reopen(&nb),
        PerseasConfig::default().with_min_epoch(fence_epoch),
    )
    .unwrap_err();
    assert!(
        matches!(err, TxnError::FencedMirror { epoch: 1, required, .. } if required == fence_epoch),
        "got {err:?}"
    );

    // ReadReplica::attach: same refusal, clearly typed.
    let err = ReadReplica::attach(
        reopen(&nb),
        PerseasConfig::default().with_min_epoch(fence_epoch),
    )
    .unwrap_err();
    assert!(
        matches!(err, TxnError::FencedMirror { epoch: 1, .. }),
        "got {err:?}"
    );

    // The survivor passes the same admission bar.
    let (_, report) = Perseas::recover(
        reopen(&na),
        PerseasConfig::default().with_min_epoch(fence_epoch),
    )
    .unwrap();
    assert_eq!(report.last_committed, 2);

    // recover_best ranks by epoch first, so the fenced image loses even
    // without an explicit min_epoch.
    db.crash();
    let (best, report) = Perseas::recover_best(
        vec![reopen(&na), reopen(&nb)],
        PerseasConfig::default(),
        SimClock::new(),
    )
    .unwrap();
    assert_eq!(report.last_committed, 2);
    assert_eq!(&best.region_snapshot(r).unwrap()[8..16], &[2; 8]);
}

#[test]
fn probing_is_bounded_and_promotes_reachable_mirrors() {
    let (mut db, r, _na, nb, _lb) = setup2();
    commit_fill(&mut db, r, 0, 1).unwrap();
    nb.crash();
    commit_fill(&mut db, r, 8, 2).unwrap();
    assert_eq!(db.mirror_status()[1].health, MirrorHealth::Down);

    // While the node stays dead, probes keep failing and the attempt
    // counter climbs (pacing the exponential backoff); time for the
    // waits is charged to the shared virtual clock.
    let before = db.clock().now();
    assert_eq!(db.probe_down_mirrors(), Vec::<usize>::new());
    assert_eq!(db.probe_down_mirrors(), Vec::<usize>::new());
    assert_eq!(db.mirror_status()[1].probes, 2);
    assert!(db.clock().now() > before, "probe delays are charged");

    // The node reboots (empty memory). The next probe gets a real answer
    // and promotes the mirror to Suspect — reachable, but stale until it
    // is resynced.
    nb.restart();
    assert_eq!(db.probe_down_mirrors(), vec![1]);
    assert_eq!(db.mirror_status()[1].health, MirrorHealth::Suspect);
    assert_eq!(db.mirror_status()[1].probes, 0);
    // A Suspect mirror still gets no writes.
    commit_fill(&mut db, r, 16, 3).unwrap();
    assert_eq!(db.healthy_mirror_count(), 1);
}

#[test]
fn rejoin_restores_byte_identical_redundancy() {
    let (mut db, r, na, nb, _lb) = setup2();
    let tracer = RecordingTracer::new();
    db.set_tracer(Box::new(tracer.clone()));
    commit_fill(&mut db, r, 0, 1).unwrap();
    nb.crash();
    commit_fill(&mut db, r, 8, 2).unwrap();
    nb.restart();
    assert_eq!(db.probe_down_mirrors(), vec![1]);

    db.rejoin_mirror(1).unwrap();
    assert_eq!(db.mirror_status()[1].health, MirrorHealth::Healthy);
    assert_eq!(db.healthy_mirror_count(), 2);
    let epoch = db.current_epoch();
    assert!(tracer
        .events()
        .contains(&TraceEvent::MirrorRejoined { index: 1, epoch }));

    // Byte-identical redundancy: both mirrors carry the same epoch, the
    // same commit record, and the same region bytes.
    let (ha, ra) = mirror_image(&na);
    let (hb, rb) = mirror_image(&nb);
    assert_eq!(ha.epoch, epoch);
    assert_eq!(hb.epoch, epoch);
    assert_eq!(ha.last_committed, hb.last_committed);
    assert_eq!(ra, rb, "region images must match byte for byte");

    // The rejoined mirror serves writes again and alone sustains a later
    // recovery.
    commit_fill(&mut db, r, 16, 3).unwrap();
    db.crash();
    let (db2, report) = Perseas::recover(reopen(&nb), PerseasConfig::default()).unwrap();
    assert_eq!(report.last_committed, 3);
    let snap = db2.region_snapshot(r).unwrap();
    assert_eq!(&snap[0..8], &[1; 8]);
    assert_eq!(&snap[8..16], &[2; 8]);
    assert_eq!(&snap[16..24], &[3; 8]);
}

#[test]
fn rejoin_refuses_healthy_mirrors_and_bad_indices() {
    let (mut db, _r, _na, _nb, _lb) = setup2();
    assert!(matches!(db.rejoin_mirror(0), Err(TxnError::Unavailable(_))));
    assert!(matches!(db.rejoin_mirror(9), Err(TxnError::Unavailable(_))));
}

#[test]
fn every_crash_point_mid_degraded_commit_is_recoverable() {
    // Baseline run to count the degraded transaction's protocol steps.
    let (mut db, r, _na, nb, _lb) = setup2();
    commit_fill(&mut db, r, 0, 1).unwrap();
    nb.crash();
    db.set_fault_plan(FaultPlan::none()); // reset the step counter
    commit_fill(&mut db, r, 8, 2).unwrap();
    let total = db.steps_taken();
    assert!(total >= 3, "degraded txn still takes remote steps: {total}");

    let pre = |snap: &[u8]| snap[..8] == [1; 8] && snap[8..16] == [0; 8];
    let post = |snap: &[u8]| snap[..8] == [1; 8] && snap[8..16] == [2; 8];

    for crash_at in 0..=total {
        let (mut db, r, na, nb, _lb) = setup2();
        commit_fill(&mut db, r, 0, 1).unwrap();
        nb.crash();
        db.set_fault_plan(FaultPlan::crash_after(crash_at));
        let res = commit_fill(&mut db, r, 8, 2);

        // Only the survivor can serve recovery; it must hold exactly the
        // pre- or post-state, and the post-state if the commit was
        // reported durable.
        let (db2, report) = Perseas::recover(reopen(&na), PerseasConfig::default())
            .unwrap_or_else(|e| panic!("crash_at={crash_at}: survivor unrecoverable: {e}"));
        let snap = db2.region_snapshot(r).unwrap();
        assert!(
            pre(&snap) || post(&snap),
            "crash_at={crash_at}: survivor holds a partial state"
        );
        if res.is_ok() {
            assert!(post(&snap), "crash_at={crash_at}: durable txn lost");
            assert_eq!(report.last_committed, 2);
        }
    }
}

#[test]
fn every_crash_point_mid_resync_is_recoverable() {
    // Scenario: txn 1 on both mirrors, mirror b dies and loses its
    // memory, txn 2 commits degraded, b reboots empty, b rejoins.
    let build = || {
        let (mut db, r, na, nb, lb) = setup2();
        commit_fill(&mut db, r, 0, 1).unwrap();
        nb.crash();
        commit_fill(&mut db, r, 8, 2).unwrap();
        nb.restart();
        assert_eq!(db.probe_down_mirrors(), vec![1]);
        (db, r, na, nb, lb)
    };

    let (mut db, _r, _na, _nb, _lb) = build();
    db.set_fault_plan(FaultPlan::none()); // reset the step counter
    db.rejoin_mirror(1).unwrap();
    let total = db.steps_taken();
    assert!(
        total >= 5,
        "resync streams meta, undo, and regions: {total}"
    );

    for crash_at in 0..total {
        let (mut db, r, na, nb, _lb) = build();
        db.set_fault_plan(FaultPlan::crash_after(crash_at));
        let res = db.rejoin_mirror(1);
        assert!(res.is_err(), "crash_at={crash_at}: plan must fire");

        // Whatever half-state the crash left on the rejoiner, recovery
        // from the pair must converge on the degraded-committed state —
        // the half-resynced image can never outrank the survivor.
        let (db2, report) = Perseas::recover_best(
            vec![reopen(&na), reopen(&nb)],
            PerseasConfig::default(),
            SimClock::new(),
        )
        .unwrap_or_else(|e| panic!("crash_at={crash_at}: unrecoverable: {e}"));
        assert_eq!(report.last_committed, 2, "crash_at={crash_at}");
        let snap = db2.region_snapshot(r).unwrap();
        assert_eq!(&snap[0..8], &[1; 8], "crash_at={crash_at}");
        assert_eq!(&snap[8..16], &[2; 8], "crash_at={crash_at}");
    }
}

#[test]
fn replica_attached_to_survivor_sees_degraded_commits() {
    let (mut db, r, na, _nb, lb) = setup2();
    commit_fill(&mut db, r, 0, 1).unwrap();
    lb.cut_after_packets(0);
    commit_fill(&mut db, r, 8, 2).unwrap();

    // Attach mid-failover: the replica follows the surviving mirror.
    let mut replica = ReadReplica::attach(reopen(&na), PerseasConfig::default()).unwrap();
    assert_eq!(replica.last_committed(), 2);
    assert_eq!(replica.epoch(), db.current_epoch());
    let mut buf = [0u8; 8];
    replica.read(r, 8, &mut buf).unwrap();
    assert_eq!(buf, [2; 8]);

    // Further degraded commits become visible on refresh.
    commit_fill(&mut db, r, 16, 3).unwrap();
    assert_eq!(replica.refresh().unwrap(), 3);
    replica.read(r, 16, &mut buf).unwrap();
    assert_eq!(buf, [3; 8]);
}

/// Delegating backend that moves the mirror's commit record forward on
/// every commit-record read, so a replica's snapshot never settles:
/// perpetual snapshot contention without any transport failure.
#[derive(Debug)]
struct ContentiousRemote {
    inner: SimRemote,
    node: NodeMemory,
    meta: Option<SegmentId>,
}

impl RemoteMemory for ContentiousRemote {
    fn remote_malloc(&mut self, len: usize, tag: u64) -> Result<RemoteSegment, RnError> {
        self.inner.remote_malloc(len, tag)
    }
    fn remote_free(&mut self, seg: SegmentId) -> Result<(), RnError> {
        self.inner.remote_free(seg)
    }
    fn remote_write(&mut self, seg: SegmentId, offset: usize, data: &[u8]) -> Result<(), RnError> {
        self.inner.remote_write(seg, offset, data)
    }
    fn remote_read(
        &mut self,
        seg: SegmentId,
        offset: usize,
        buf: &mut [u8],
    ) -> Result<(), RnError> {
        if self.meta == Some(seg) && offset == OFF_COMMIT && buf.len() == 8 {
            let mut current = [0u8; 8];
            self.node.read(seg, OFF_COMMIT, &mut current).unwrap();
            let next = u64::from_le_bytes(current) + 1;
            self.node
                .write(seg, OFF_COMMIT, &next.to_le_bytes())
                .unwrap();
        }
        self.inner.remote_read(seg, offset, buf)
    }
    fn connect_segment(&mut self, tag: u64) -> Result<RemoteSegment, RnError> {
        let seg = self.inner.connect_segment(tag)?;
        self.meta = Some(seg.id);
        Ok(seg)
    }
    fn segment_info(&mut self, seg: SegmentId) -> Result<RemoteSegment, RnError> {
        self.inner.segment_info(seg)
    }
    fn node_name(&self) -> String {
        self.inner.node_name()
    }
}

#[test]
fn tcp_mirror_failover_and_rejoin() {
    use perseas_rnram::server::Server;
    use perseas_rnram::{BackoffPolicy, ReconnectingRemote, TcpRemote};

    let sa = Server::bind("ta", "127.0.0.1:0").unwrap().start();
    let sb = Server::bind("tb", "127.0.0.1:0").unwrap().start();
    let addr_b = sb.addr();
    let node_b = sb.node().clone();

    // Reconnecting backends so the rejoin can find the restarted server;
    // no backoff sleeps to keep the test fast.
    let a = ReconnectingRemote::with_backoff(sa.addr(), 2, BackoffPolicy::none()).unwrap();
    let b = ReconnectingRemote::with_backoff(addr_b, 2, BackoffPolicy::none()).unwrap();
    let cfg = PerseasConfig::default().with_probe_backoff(BackoffPolicy::none());
    let mut db = Perseas::init(vec![a, b], cfg).unwrap();
    let r = db.malloc(64).unwrap();
    db.init_remote_db().unwrap();
    commit_fill(&mut db, r, 0, 1).unwrap();

    // Kill mirror b: the database keeps committing, degraded.
    sb.shutdown();
    commit_fill(&mut db, r, 8, 2).unwrap();
    assert_eq!(db.last_committed(), 2);
    assert_eq!(db.mirror_status()[1].health, MirrorHealth::Down);
    assert_eq!(db.healthy_mirror_count(), 1);

    // While the server is down, probes fail and count up.
    assert_eq!(db.probe_down_mirrors(), Vec::<usize>::new());
    assert!(db.mirror_status()[1].probes >= 1);

    // The server restarts on the same address with its memory intact
    // (UPS-backed node, software-only restart): probe, then resync.
    let sb2 = Server::with_node(node_b, addr_b).unwrap().start();
    assert_eq!(db.probe_down_mirrors(), vec![1]);
    assert_eq!(db.mirror_status()[1].health, MirrorHealth::Suspect);
    db.rejoin_mirror(1).unwrap();
    assert_eq!(db.healthy_mirror_count(), 2);

    // Full redundancy: a fresh connection to the rejoined mirror alone
    // recovers everything, including a post-rejoin commit.
    commit_fill(&mut db, r, 16, 3).unwrap();
    drop(db);
    let fresh = TcpRemote::connect(sb2.addr()).unwrap();
    let (db2, report) = Perseas::recover(fresh, PerseasConfig::default()).unwrap();
    assert_eq!(report.last_committed, 3);
    let snap = db2.region_snapshot(r).unwrap();
    assert_eq!(&snap[0..8], &[1; 8]);
    assert_eq!(&snap[8..16], &[2; 8]);
    assert_eq!(&snap[16..24], &[3; 8]);
    sb2.shutdown();
    sa.shutdown();
}

#[test]
fn failed_commit_leaves_the_transaction_abortable() {
    // Strict quorum, so losing one of two mirrors mid-commit fails the
    // transaction *before* the durability point.
    let (mut db, r, na, nb, _lb) = setup2_with(PerseasConfig::default().with_commit_quorum(2));
    commit_fill(&mut db, r, 0, 1).unwrap();
    let (_, before) = mirror_image(&na);

    db.begin_transaction().unwrap();
    db.set_range(r, 8, 8).unwrap();
    db.write(r, 8, &[2; 8]).unwrap();
    nb.crash(); // dies between the undo push and the commit
    let err = db.commit_transaction().unwrap_err();
    assert!(matches!(err, TxnError::Unavailable(_)), "got {err:?}");

    // The failed commit leaves the transaction open — the instance must
    // not be wedged with the phase still InTxn but the state gone.
    assert!(db.in_transaction());
    db.abort_transaction().unwrap();
    assert!(!db.in_transaction());
    assert_eq!(&db.region_snapshot(r).unwrap()[8..16], &[0; 8]);

    // The surviving mirror had already received the aborted bytes; the
    // abort must push the before-images back, or the next degraded
    // commit would bake them in as committed state.
    let (_, after) = mirror_image(&na);
    assert_eq!(before, after, "aborted bytes left on the survivor");
}

/// Delegating backend that refuses the packet-atomic commit-record write
/// once armed: a mirror dying exactly at the durability point, after
/// every earlier commit phase succeeded.
#[derive(Debug)]
struct CommitRecordFirewall {
    inner: SimRemote,
    meta: Option<SegmentId>,
    armed: std::sync::Arc<std::sync::atomic::AtomicBool>,
}

impl CommitRecordFirewall {
    fn new(name: &str, clock: SimClock) -> Self {
        CommitRecordFirewall {
            inner: SimRemote::with_parts(clock, NodeMemory::new(name), SciParams::dolphin_1998()),
            meta: None,
            armed: std::sync::Arc::default(),
        }
    }
}

impl RemoteMemory for CommitRecordFirewall {
    fn remote_malloc(&mut self, len: usize, tag: u64) -> Result<RemoteSegment, RnError> {
        let seg = self.inner.remote_malloc(len, tag)?;
        if tag == perseas_core::META_TAG {
            self.meta = Some(seg.id);
        }
        Ok(seg)
    }
    fn remote_free(&mut self, seg: SegmentId) -> Result<(), RnError> {
        self.inner.remote_free(seg)
    }
    fn remote_write(&mut self, seg: SegmentId, offset: usize, data: &[u8]) -> Result<(), RnError> {
        if self.armed.load(std::sync::atomic::Ordering::Relaxed)
            && self.meta == Some(seg)
            && offset == OFF_COMMIT
        {
            return Err(RnError::Io(std::io::Error::other(
                "NIC died at the commit record",
            )));
        }
        self.inner.remote_write(seg, offset, data)
    }
    fn remote_read(
        &mut self,
        seg: SegmentId,
        offset: usize,
        buf: &mut [u8],
    ) -> Result<(), RnError> {
        self.inner.remote_read(seg, offset, buf)
    }
    fn connect_segment(&mut self, tag: u64) -> Result<RemoteSegment, RnError> {
        self.inner.connect_segment(tag)
    }
    fn segment_info(&mut self, seg: SegmentId) -> Result<RemoteSegment, RnError> {
        self.inner.segment_info(seg)
    }
    fn node_name(&self) -> String {
        self.inner.node_name()
    }
}

#[test]
fn durability_point_quorum_failure_is_commit_in_doubt() {
    // Strict quorum again, but this time the mirror fails the 8-byte
    // commit-record write itself. By then the record already reached
    // the survivor, so the transaction IS durable there — the library
    // must complete the commit and say so, not claim unavailability
    // (a client retry on "unavailable" would double-apply).
    let clock = SimClock::new();
    let a = CommitRecordFirewall::new("a", clock.clone());
    let b = CommitRecordFirewall::new("b", clock.clone());
    let na = a.inner.node().clone();
    let arm_b = b.armed.clone();
    let cfg = PerseasConfig::default().with_commit_quorum(2);
    let mut db = Perseas::init_with_clock(vec![a, b], cfg, clock).unwrap();
    let r = db.malloc(64).unwrap();
    db.init_remote_db().unwrap();
    commit_fill(&mut db, r, 0, 1).unwrap();

    arm_b.store(true, std::sync::atomic::Ordering::Relaxed);
    let err = commit_fill(&mut db, r, 8, 2).unwrap_err();
    assert!(
        matches!(
            err,
            TxnError::CommitInDoubt {
                id: 2,
                healthy: 1,
                quorum: 2
            }
        ),
        "got {err:?}"
    );
    assert!(err.to_string().contains("do not retry"), "{err}");

    // Committed locally: applied, counted, and the transaction closed.
    assert!(!db.in_transaction());
    assert_eq!(db.last_committed(), 2);
    assert_eq!(&db.region_snapshot(r).unwrap()[8..16], &[2; 8]);

    // And durable: the survivor replays it as committed.
    db.crash();
    let (db2, report) = Perseas::recover(reopen(&na), PerseasConfig::default()).unwrap();
    assert_eq!(report.last_committed, 2);
    assert_eq!(&db2.region_snapshot(r).unwrap()[8..16], &[2; 8]);
}

/// Delegating backend that refuses one write, plain or vectored, once
/// armed, the way a saturated server answers: the write is dropped
/// without being applied, and the next barrier reports
/// `RnError::Overloaded` — or, with `inline`, the write itself does, as on
/// a connection that confirms every write.
#[derive(Debug)]
struct RefusingMirror {
    inner: SimRemote,
    inline: bool,
    switch: RefusalSwitch,
    refusal_queued: bool,
}

/// The test's hold on a [`RefusingMirror`]: arms the refusal and counts
/// the writes posted.
#[derive(Debug, Clone, Default)]
struct RefusalSwitch {
    /// Writes to let through before the refused one; `None` while
    /// disarmed.
    refuse_after: std::sync::Arc<std::sync::Mutex<Option<usize>>>,
    posted: std::sync::Arc<std::sync::atomic::AtomicUsize>,
}

impl RefusalSwitch {
    fn arm(&self, writes_before: usize) {
        *self.refuse_after.lock().unwrap() = Some(writes_before);
    }

    fn posted(&self) -> usize {
        self.posted.load(std::sync::atomic::Ordering::Relaxed)
    }
}

impl RefusingMirror {
    /// Counts one posted write and refuses it if it is the armed one:
    /// then `Some` holds what the write returns, and it is not applied.
    fn refusal(&mut self) -> Option<Result<(), RnError>> {
        self.switch
            .posted
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut armed = self.switch.refuse_after.lock().unwrap();
        match *armed {
            Some(0) => {
                *armed = None;
                if self.inline {
                    return Some(Err(RnError::Overloaded));
                }
                self.refusal_queued = true;
                Some(Ok(()))
            }
            Some(n) => {
                *armed = Some(n - 1);
                None
            }
            None => None,
        }
    }
}

impl RemoteMemory for RefusingMirror {
    fn remote_malloc(&mut self, len: usize, tag: u64) -> Result<RemoteSegment, RnError> {
        self.inner.remote_malloc(len, tag)
    }
    fn remote_free(&mut self, seg: SegmentId) -> Result<(), RnError> {
        self.inner.remote_free(seg)
    }
    fn remote_write(&mut self, seg: SegmentId, offset: usize, data: &[u8]) -> Result<(), RnError> {
        self.refusal()
            .unwrap_or_else(|| self.inner.remote_write(seg, offset, data))
    }
    fn remote_write_v(&mut self, writes: &[(SegmentId, usize, &[u8])]) -> Result<(), RnError> {
        self.refusal()
            .unwrap_or_else(|| self.inner.remote_write_v(writes))
    }
    fn flush(&mut self) -> Result<perseas_rnram::FlushStats, RnError> {
        if std::mem::take(&mut self.refusal_queued) {
            return Err(RnError::Overloaded);
        }
        self.inner.flush()
    }
    fn virtual_clock(&self) -> Option<SimClock> {
        self.inner.virtual_clock()
    }
    fn remote_read(
        &mut self,
        seg: SegmentId,
        offset: usize,
        buf: &mut [u8],
    ) -> Result<(), RnError> {
        self.inner.remote_read(seg, offset, buf)
    }
    fn connect_segment(&mut self, tag: u64) -> Result<RemoteSegment, RnError> {
        self.inner.connect_segment(tag)
    }
    fn segment_info(&mut self, seg: SegmentId) -> Result<RemoteSegment, RnError> {
        self.inner.segment_info(seg)
    }
    fn node_name(&self) -> String {
        self.inner.node_name()
    }
}

/// A database under `cfg` over one refusing mirror per name, with
/// transaction 1 (`[1; 8]` at 0) committed: the database, its region,
/// and each mirror's node and switch.
fn refusing_setup(
    cfg: PerseasConfig,
    names: &[&str],
    inline: bool,
) -> (
    Perseas<RefusingMirror>,
    RegionId,
    Vec<(NodeMemory, RefusalSwitch)>,
) {
    let clock = SimClock::new();
    let mirrors: Vec<RefusingMirror> = names
        .iter()
        .map(|name| RefusingMirror {
            inner: SimRemote::with_parts(
                clock.clone(),
                NodeMemory::new(*name),
                SciParams::dolphin_1998(),
            ),
            inline,
            switch: RefusalSwitch::default(),
            refusal_queued: false,
        })
        .collect();
    let handles = mirrors
        .iter()
        .map(|m| (m.inner.node().clone(), m.switch.clone()))
        .collect();
    let mut db = Perseas::init_with_clock(mirrors, cfg, clock).unwrap();
    let r = db.malloc(64).unwrap();
    db.init_remote_db().unwrap();
    commit_fill(&mut db, r, 0, 1).unwrap();
    (db, r, handles)
}

/// The two single-transaction undo paths: the paper's per-range one and
/// the batched one.
fn refusing_configs() -> [(&'static str, PerseasConfig); 2] {
    [
        ("unbatched", PerseasConfig::default()),
        (
            "batched",
            PerseasConfig::default().with_batched_commit(true),
        ),
    ]
}

/// The writes one transaction of `commit_fill` posts to each mirror under
/// `cfg`; the last of them is the commit record.
fn writes_per_commit(cfg: PerseasConfig) -> usize {
    let (mut db, r, handles) = refusing_setup(cfg, &["m"], false);
    let before = handles[0].1.posted();
    commit_fill(&mut db, r, 8, 2).unwrap();
    handles[0].1.posted() - before
}

#[test]
fn a_refused_commit_is_never_in_doubt() {
    // The only mirror refuses one of the transaction's writes — each in
    // turn, at the barrier and inline. It holds no commit record, so
    // nothing is durable anywhere: the commit must fail plainly and leave
    // the transaction open, not report it committed-but-under-replicated.
    for (name, cfg) in refusing_configs() {
        let writes = writes_per_commit(cfg);
        assert!(writes >= 1);
        for inline in [false, true] {
            for k in 0..writes {
                let at = format!("{name} inline={inline} refused write {k} of {writes}");
                let (mut db, r, handles) = refusing_setup(cfg, &["m"], inline);
                handles[0].1.arm(k);
                let err = commit_fill(&mut db, r, 8, 2).unwrap_err();
                assert!(matches!(err, TxnError::Unavailable(_)), "{at}: {err:?}");
                assert!(db.in_transaction(), "{at}: the transaction must stay open");
                assert_eq!(db.mirror_status()[0].health, MirrorHealth::Healthy, "{at}");

                db.abort_transaction().unwrap();
                assert_eq!(
                    &db.region_snapshot(r).unwrap()[..16],
                    &[[1; 8], [0; 8]].concat()[..]
                );
                db.crash();
                let (db2, report) = Perseas::recover(reopen(&handles[0].0), cfg).unwrap();
                assert_eq!(report.last_committed, 1, "{at}");
                assert_eq!(
                    &db2.region_snapshot(r).unwrap()[..16],
                    &[[1; 8], [0; 8]].concat()[..],
                    "{at}: recovery must give the pre-transaction image"
                );
            }
        }
    }
}

#[test]
fn a_mirror_refusing_the_commit_is_condemned() {
    // Mirror b refuses one of the commit's writes; a applies them all.
    // b's image now lacks a transaction a holds, so b must go Down (and
    // be fenced) while the commit succeeds degraded on a. On the
    // unbatched path only the record write is swept: its earlier writes
    // are per-range steps, where a refusal stops the step and fails the
    // commit plainly, which the test above covers.
    for (name, cfg) in refusing_configs() {
        let writes = writes_per_commit(cfg);
        let first = if cfg.batched_commit { 0 } else { writes - 1 };
        for inline in [false, true] {
            for k in first..writes {
                let at = format!("{name} inline={inline} refused write {k} of {writes}");
                let (mut db, r, handles) = refusing_setup(cfg, &["a", "b"], inline);
                handles[1].1.arm(k);
                commit_fill(&mut db, r, 8, 2).unwrap_or_else(|e| panic!("{at}: {e:?}"));
                assert_eq!(db.mirror_status()[0].health, MirrorHealth::Healthy, "{at}");
                assert_eq!(db.mirror_status()[1].health, MirrorHealth::Down, "{at}");

                db.crash();
                let (db2, report) = Perseas::recover(reopen(&handles[0].0), cfg).unwrap();
                assert_eq!(report.last_committed, 2, "{at}");
                assert_eq!(&db2.region_snapshot(r).unwrap()[8..16], &[2; 8], "{at}");
                // The fence: a outranks b.
                let (ha, _) = mirror_image(&handles[0].0);
                let (hb, _) = mirror_image(&handles[1].0);
                assert!(ha.epoch > hb.epoch, "{at}: b was not fenced");
            }
        }
    }
}

#[test]
fn failed_add_mirrors_leak_no_segments_on_the_newcomer() {
    // Sweep a link cut across every packet of the stream that builds a
    // newcomer. A failed add must leave the mirror set as it was and free
    // every segment it allocated on the newcomer; a retry must then build
    // an exact copy of the survivor.
    let mut failures = 0;
    for cut in 0.. {
        let clock = SimClock::new();
        let mirror = |name| {
            SimRemote::with_parts(
                clock.clone(),
                NodeMemory::new(name),
                SciParams::dolphin_1998(),
            )
        };
        let (a, c) = (mirror("a"), mirror("c"));
        let (na, nc, lc) = (a.node().clone(), c.node().clone(), c.link().clone());
        let mut db =
            Perseas::init_with_clock(vec![a], PerseasConfig::default(), clock.clone()).unwrap();
        let r = db.malloc(4096).unwrap();
        db.init_remote_db().unwrap();
        commit_fill(&mut db, r, 0, 1).unwrap();

        lc.cut_after_packets(cut);
        let res = db.add_mirror(c);
        lc.heal();
        let Err(e) = res else {
            break;
        };
        failures += 1;
        assert!(matches!(e, TxnError::Unavailable(_)), "cut={cut}: {e:?}");
        assert_eq!(db.mirror_count(), 1, "cut={cut}");
        assert_eq!(nc.used_bytes(), 0, "cut={cut}: leaked segments");

        let again = SimRemote::with_parts(clock.clone(), nc.clone(), SciParams::dolphin_1998());
        db.add_mirror(again).unwrap();
        assert_eq!(db.healthy_mirror_count(), 2, "cut={cut}");
        assert_eq!(nc.used_bytes(), na.used_bytes(), "cut={cut}");
        let (ha, ra) = mirror_image(&na);
        let (hc, rc) = mirror_image(&nc);
        assert_eq!(ha.epoch, hc.epoch, "cut={cut}");
        assert_eq!(ha.last_committed, hc.last_committed, "cut={cut}");
        assert_eq!(ra, rc, "cut={cut}: region images diverge");
    }
    assert!(failures > 0);
}

#[test]
fn failed_rejoins_leak_no_segments_on_the_rejoiner() {
    // Control run: the footprint a clean resync leaves on the rejoiner.
    let expected = {
        let (mut db, r, _na, nb, _lb) = setup2();
        commit_fill(&mut db, r, 0, 1).unwrap();
        nb.crash();
        commit_fill(&mut db, r, 8, 2).unwrap();
        nb.restart();
        assert_eq!(db.probe_down_mirrors(), vec![1]);
        db.rejoin_mirror(1).unwrap();
        nb.used_bytes()
    };
    assert!(expected > 0);

    // Sweep a link cut across every packet of the resync stream: the
    // segments a failed attempt allocated must be reclaimed — directly,
    // or via the orphan list when the free itself raced the dead link —
    // so repeated failures never eat the rejoiner's memory.
    for cut in 0..24u64 {
        let (mut db, r, na, nb, lb) = setup2();
        commit_fill(&mut db, r, 0, 1).unwrap();
        nb.crash();
        commit_fill(&mut db, r, 8, 2).unwrap();
        nb.restart();
        assert_eq!(db.probe_down_mirrors(), vec![1]);

        lb.cut_after_packets(cut);
        let res = db.rejoin_mirror(1);
        lb.heal();
        if let Err(e) = res {
            assert!(matches!(e, TxnError::Unavailable(_)), "cut={cut}: {e:?}");
            assert_eq!(db.probe_down_mirrors(), vec![1], "cut={cut}");
            db.rejoin_mirror(1).unwrap();
        }
        assert_eq!(db.healthy_mirror_count(), 2, "cut={cut}");
        assert_eq!(nb.used_bytes(), expected, "cut={cut}: leaked segments");

        // The recovered redundancy is real, not just accounted for.
        let (ha, ra) = mirror_image(&na);
        let (hb, rb) = mirror_image(&nb);
        assert_eq!(ha.epoch, hb.epoch, "cut={cut}");
        assert_eq!(ha.last_committed, hb.last_committed, "cut={cut}");
        assert_eq!(ra, rb, "cut={cut}: region images diverge");
    }
}

#[test]
fn failed_undo_growths_leak_no_segments_on_the_rejoiner() {
    // A 1 KiB declaration outgrows the 64-byte undo log, so every mirror
    // allocates a larger segment, re-pushes the prefix and flips the
    // metadata's undo line. Sweep a link cut on mirror b across that
    // growth and the rest of the commit: a segment b allocated but never
    // published must still be reclaimed by the rejoin, so the rejoiner
    // ends up holding exactly what the survivor holds.
    for cut in 0..40u64 {
        let clock = SimClock::new();
        let mirror = |name| {
            SimRemote::with_parts(
                clock.clone(),
                NodeMemory::new(name),
                SciParams::dolphin_1998(),
            )
        };
        let (a, b) = (mirror("a"), mirror("b"));
        let (na, nb, lb) = (a.node().clone(), b.node().clone(), b.link().clone());
        let cfg = PerseasConfig::default().with_initial_undo_capacity(64);
        let mut db = Perseas::init_with_clock(vec![a, b], cfg, clock.clone()).unwrap();
        let r = db.malloc(4096).unwrap();
        db.init_remote_db().unwrap();

        lb.cut_after_packets(cut);
        db.begin_transaction().unwrap();
        db.set_range(r, 0, 1024).unwrap();
        db.write(r, 0, &[7; 1024]).unwrap();
        db.commit_transaction().unwrap();
        lb.heal();
        if db.healthy_mirror_count() < 2 {
            assert_eq!(db.probe_down_mirrors(), vec![1], "cut={cut}");
            db.rejoin_mirror(1).unwrap();
        }
        assert_eq!(db.healthy_mirror_count(), 2, "cut={cut}");
        assert_eq!(
            nb.used_bytes(),
            na.used_bytes(),
            "cut={cut}: leaked segments"
        );
    }
}

#[test]
fn remove_mirror_fences_survivors_before_the_membership_change() {
    let (mut db, r, _na, nb, _lb) = setup2();
    let tracer = RecordingTracer::new();
    db.set_tracer(Box::new(tracer.clone()));
    commit_fill(&mut db, r, 0, 1).unwrap();

    // Retire the (healthy) mirror b.
    let backend = db.remove_mirror(1).unwrap();
    assert_eq!(db.mirror_count(), 1);
    assert_eq!(db.current_epoch(), 2);

    // The survivors moved to the new epoch *before* the removal took
    // effect...
    let events = tracer.events();
    let bump = events
        .iter()
        .position(|e| matches!(e, TraceEvent::EpochBump { epoch: 2 }))
        .expect("epoch bump traced");
    let removed = events
        .iter()
        .position(|e| matches!(e, TraceEvent::MirrorRemoved { index: 1 }))
        .expect("removal traced");
    assert!(bump < removed, "fence must precede the membership change");

    // ...and the leaver was excluded from the fence: its image keeps the
    // old epoch, permanently outranked by the survivors.
    drop(backend);
    let (hb, _) = mirror_image(&nb);
    assert_eq!(hb.epoch, 1);

    // A crash during the fence leaves the membership unchanged — no
    // mirror silently dropped without the survivors being fenced.
    let (mut db, _r, _na, _nb, _lb) = setup2();
    let tracer = RecordingTracer::new();
    db.set_tracer(Box::new(tracer.clone()));
    db.set_fault_plan(FaultPlan::crash_after(0));
    let err = db.remove_mirror(1).unwrap_err();
    assert_eq!(err, TxnError::Crashed);
    assert_eq!(db.mirror_count(), 2);
    assert!(!tracer
        .events()
        .iter()
        .any(|e| matches!(e, TraceEvent::MirrorRemoved { .. })));
}

#[test]
fn snapshot_contention_is_a_distinct_error() {
    let (mut db, r, na, _nb, _lb) = setup2();
    commit_fill(&mut db, r, 0, 1).unwrap();

    let backend = ContentiousRemote {
        inner: reopen(&na),
        node: na.clone(),
        meta: None,
    };
    let err = ReadReplica::attach(backend, PerseasConfig::default().with_snapshot_retries(3))
        .unwrap_err();
    assert!(
        matches!(err, TxnError::SnapshotContention { attempts: 3 }),
        "contention must not be reported as a transport failure: {err:?}"
    );
    assert!(err.to_string().contains("retry"), "{err}");
}

/// Like [`ContentiousRemote`], but after `fence_at - 1` header reads it
/// lowers the mirror's epoch below the replica's admission floor: the
/// refresh burns retries on contention first, then hits the fence.
#[derive(Debug)]
struct ContentiousThenFencedRemote {
    inner: SimRemote,
    node: NodeMemory,
    meta: Option<SegmentId>,
    header_reads: usize,
    fence_at: usize,
}

impl RemoteMemory for ContentiousThenFencedRemote {
    fn remote_malloc(&mut self, len: usize, tag: u64) -> Result<RemoteSegment, RnError> {
        self.inner.remote_malloc(len, tag)
    }
    fn remote_free(&mut self, seg: SegmentId) -> Result<(), RnError> {
        self.inner.remote_free(seg)
    }
    fn remote_write(&mut self, seg: SegmentId, offset: usize, data: &[u8]) -> Result<(), RnError> {
        self.inner.remote_write(seg, offset, data)
    }
    fn remote_read(
        &mut self,
        seg: SegmentId,
        offset: usize,
        buf: &mut [u8],
    ) -> Result<(), RnError> {
        if self.meta == Some(seg) {
            if offset == 0 && buf.len() > 8 {
                // A full header read opens each refresh attempt.
                self.header_reads += 1;
                if self.header_reads >= self.fence_at {
                    self.node
                        .write(seg, OFF_EPOCH, &0u64.to_le_bytes())
                        .unwrap();
                }
            } else if offset == OFF_COMMIT && buf.len() == 8 {
                // The commit-record re-check closes it: bump the record so
                // the cut looks fuzzy. Also covers the vectored path, which
                // degrades to per-range `remote_read` calls here.
                let mut current = [0u8; 8];
                self.node.read(seg, OFF_COMMIT, &mut current).unwrap();
                let next = u64::from_le_bytes(current) + 1;
                self.node
                    .write(seg, OFF_COMMIT, &next.to_le_bytes())
                    .unwrap();
            }
        }
        self.inner.remote_read(seg, offset, buf)
    }
    fn connect_segment(&mut self, tag: u64) -> Result<RemoteSegment, RnError> {
        let seg = self.inner.connect_segment(tag)?;
        self.meta = Some(seg.id);
        Ok(seg)
    }
    fn segment_info(&mut self, seg: SegmentId) -> Result<RemoteSegment, RnError> {
        self.inner.segment_info(seg)
    }
    fn node_name(&self) -> String {
        self.inner.node_name()
    }
}

#[test]
fn fence_after_contention_reports_the_final_attempt_count() {
    let (mut db, r, na, _nb, _lb) = setup2();
    commit_fill(&mut db, r, 0, 1).unwrap();

    // Two attempts lose to contention; the third finds the mirror fenced.
    let backend = ContentiousThenFencedRemote {
        inner: reopen(&na),
        node: na.clone(),
        meta: None,
        header_reads: 0,
        fence_at: 3,
    };
    let cfg = PerseasConfig::default()
        .with_snapshot_retries(5)
        .with_min_epoch(1);
    let err = ReadReplica::attach(backend, cfg).unwrap_err();
    assert!(
        matches!(
            err,
            TxnError::FencedMirror {
                epoch: 0,
                required: 1,
                attempts: 3,
            }
        ),
        "a fence diagnosed after retries must carry the final attempt count, \
         not the first: {err:?}"
    );
}
