//! Host conformance suite: one generic test body per durable-host
//! behaviour, instantiated once per [`Transport`] by [`suite!`].
//!
//! This file is not a test target of its own. It is `#[path]`-included as
//! a `#[cfg(test)]` child module by `fab-runtime` (channels) and by
//! `fab-net`'s `server` module (TCP), because injecting a [`CommitStore`]
//! is a crate-private seam on both sides, not a public option.
//!
//! [`Transport`]: fab_runtime::host::Transport

use bytes::Bytes;
use fab_core::{
    ClientError, ClientOp, OpResult, PersistEvent, RegisterConfig, StripeId, StripeValue,
};
use fab_store::{CommitStore, StoreError, StripeState};
use fab_timestamp::ProcessId;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A held sync lets go on its own after this long, so a failing test
/// fails instead of deadlocking the brick thread it would join.
const HOLD_LIMIT: Duration = Duration::from_secs(20);
/// Bound on every "this must eventually happen" wait.
const EVENTUALLY: Duration = Duration::from_secs(10);
/// How long a "this must not happen" is observed before it counts.
const GRACE: Duration = Duration::from_millis(200);

#[derive(Default)]
struct CtlState {
    held: bool,
    failing: bool,
    /// Syncs entered / completed (batches with at least one record), and
    /// the records the entered ones carried.
    entered: u64,
    synced: u64,
    records: u64,
}

/// The test's handle on one brick's in-memory [`CommitStore`]: hold its
/// syncs, release them, make them fail, and observe how far they got.
#[derive(Clone, Default)]
pub(crate) struct StoreCtl(Arc<(Mutex<CtlState>, Condvar)>);

impl StoreCtl {
    fn update(&self, f: impl FnOnce(&mut CtlState)) {
        f(&mut self.0 .0.lock().unwrap());
        self.0 .1.notify_all();
    }

    fn held() -> Self {
        let ctl = StoreCtl::default();
        ctl.update(|s| s.held = true);
        ctl
    }

    fn release(&self) {
        self.update(|s| s.held = false);
    }

    fn fail(&self) {
        self.update(|s| s.failing = true);
    }

    fn wait_until(&self, what: &str, cond: impl Fn(&CtlState) -> bool) {
        let (lock, cv) = &*self.0;
        let timeout = cv
            .wait_timeout_while(lock.lock().unwrap(), EVENTUALLY, |s| !cond(s))
            .unwrap()
            .1;
        assert!(!timeout.timed_out(), "store never {what}");
    }

    /// The store behind this handle (moved onto the brick's thread).
    pub(crate) fn store(&self) -> TestStore {
        TestStore {
            ctl: self.clone(),
            stripes: BTreeMap::new(),
        }
    }
}

/// An in-memory [`CommitStore`] steered by a [`StoreCtl`].
pub(crate) struct TestStore {
    ctl: StoreCtl,
    stripes: BTreeMap<StripeId, StripeState>,
}

impl CommitStore for TestStore {
    fn append_batch(&mut self, records: &[(StripeId, PersistEvent)]) -> Result<(), StoreError> {
        if records.is_empty() {
            return Ok(()); // a pure barrier syncs nothing
        }
        let (lock, cv) = &*self.ctl.0;
        let mut st = lock.lock().unwrap();
        st.entered += 1;
        st.records += records.len() as u64;
        cv.notify_all();
        st = cv.wait_timeout_while(st, HOLD_LIMIT, |s| s.held).unwrap().0;
        if st.failing {
            return Err(StoreError::Io(std::io::Error::other(
                "injected sync failure",
            )));
        }
        for (stripe, event) in records {
            let state = self.stripes.entry(*stripe).or_default();
            match event {
                PersistEvent::OrdTs(ts) => state.ord_ts = state.ord_ts.max(*ts),
                PersistEvent::Entry(ts, value) => state.log.insert(*ts, value.clone()),
                PersistEvent::Gc(ts) => {
                    state.log.gc(*ts);
                }
            }
        }
        st.synced += 1;
        cv.notify_all();
        Ok(())
    }

    fn maybe_compact(&mut self, _threshold: u64) -> Result<bool, StoreError> {
        Ok(false)
    }

    fn states(&self) -> Vec<(StripeId, StripeState)> {
        self.stripes
            .iter()
            .map(|(s, st)| (*s, st.clone()))
            .collect()
    }
}

/// What the suite needs from a cluster of hosts over one transport.
pub(crate) trait Cluster: Sized + Sync {
    /// Names the transport in scratch paths.
    const NAME: &'static str;
    /// A rotating client that fails over between bricks.
    type Client;

    /// `cfg.n()` durable bricks over real logs under `dir`.
    fn on_disk(cfg: RegisterConfig, dir: &Path) -> Self;
    /// `cfg.n()` durable bricks, brick `i` over `ctls[i].store()`.
    fn on_stores(cfg: RegisterConfig, ctls: &[StoreCtl]) -> Self;
    fn client(&self) -> Self::Client;
    fn invoke(client: &mut Self::Client, op: ClientOp) -> Result<OpResult, String>;
    /// One request to brick `pid` alone, no failover: that brick's own
    /// answer, or `None` if it gives none within `wait`.
    fn ask(
        &self,
        pid: ProcessId,
        op: ClientOp,
        wait: Duration,
    ) -> Option<Result<OpResult, ClientError>>;
    /// Emulated crash (a durable brick loses all memory) and recovery.
    fn crash(&self, pid: ProcessId);
    fn recover(&self, pid: ProcessId);
    fn shutdown(self);
}

const STRIPE: StripeId = StripeId(0);

/// 2-of-4: quorums of 3, one tolerated fault.
fn cfg() -> RegisterConfig {
    RegisterConfig::new(2, 4, 16).unwrap()
}

fn blocks(seed: u8) -> Vec<Bytes> {
    (0..2).map(|j| Bytes::from(vec![seed + j; 16])).collect()
}

fn write(seed: u8) -> ClientOp {
    write_to(STRIPE, seed)
}

fn write_to(stripe: StripeId, seed: u8) -> ClientOp {
    let blocks = blocks(seed);
    ClientOp::WriteStripe { stripe, blocks }
}

const READ: ClientOp = ClientOp::ReadStripe { stripe: STRIPE };

fn data(seed: u8) -> OpResult {
    OpResult::Stripe(StripeValue::Data(blocks(seed)))
}

/// Runs `attempt` the way every client of this register does: an abort
/// (`⊥`, legal whenever operations overlap or coordinator clocks disagree)
/// is retried.
fn retrying<R>(mut attempt: impl FnMut() -> R, aborted: impl Fn(&R) -> bool) -> R {
    let mut result = attempt();
    for _ in 0..8 {
        if !aborted(&result) {
            break;
        }
        result = attempt();
    }
    result
}

/// One operation through a rotating client, aborts retried.
fn invoke<C: Cluster>(client: &mut C::Client, op: &ClientOp) -> Result<OpResult, String> {
    retrying(
        || C::invoke(client, op.clone()),
        |r| matches!(r, Ok(OpResult::Aborted(_))),
    )
}

fn pids() -> impl Iterator<Item = ProcessId> {
    (0..4).map(ProcessId::new)
}

fn scratch<C: Cluster>(case: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "fab-host-conformance-{}-{}-{case}",
        std::process::id(),
        C::NAME
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// (a) A brand-new cluster over the same logs serves what the old one
/// acknowledged.
pub(crate) fn restart_recovers_from_the_log<C: Cluster>() {
    let dir = scratch::<C>("restart");
    let cluster = C::on_disk(cfg(), &dir);
    assert_eq!(
        invoke::<C>(&mut cluster.client(), &write(5)),
        Ok(OpResult::Written)
    );
    cluster.shutdown();

    let cluster = C::on_disk(cfg(), &dir);
    assert_eq!(invoke::<C>(&mut cluster.client(), &READ), Ok(data(5)));
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// (b) Every brick crashes, losing all memory; what they recover can only
/// have come from their logs.
pub(crate) fn crash_loses_memory_and_recovery_replays_the_log<C: Cluster>() {
    let dir = scratch::<C>("crash");
    let cluster = C::on_disk(cfg(), &dir);
    let mut client = cluster.client();
    assert_eq!(invoke::<C>(&mut client, &write(11)), Ok(OpResult::Written));

    pids().for_each(|p| cluster.crash(p));
    for p in pids() {
        assert_eq!(
            cluster.ask(p, READ, EVENTUALLY),
            Some(Err(ClientError::Unavailable)),
            "a crashed brick refuses clients"
        );
    }
    pids().for_each(|p| cluster.recover(p));
    assert_eq!(invoke::<C>(&mut client, &READ), Ok(data(11)));
    assert_eq!(invoke::<C>(&mut client, &write(13)), Ok(OpResult::Written));
    assert_eq!(invoke::<C>(&mut client, &READ), Ok(data(13)));
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// (c) No replica reply leaves before the sync covering its records: with
/// every sync held and then all but one short of a quorum released, the
/// coordinator still lacks a quorum — unless a held brick leaked a reply.
pub(crate) fn no_reply_leaves_before_its_covering_sync<C: Cluster>() {
    let ctls: Vec<StoreCtl> = pids().map(|_| StoreCtl::held()).collect();
    let cluster = C::on_stores(cfg(), &ctls);
    let quorum = cfg().quorum().quorum_size();
    std::thread::scope(|s| {
        let op = s.spawn(|| cluster.ask(ProcessId::new(0), write(7), HOLD_LIMIT));
        for ctl in &ctls {
            ctl.wait_until("entered its first sync", |st| st.entered >= 1);
        }
        let (released, held) = ctls.split_at(quorum - 1);
        for ctl in released {
            ctl.release();
            ctl.wait_until("finished its first sync", |st| st.synced >= 1);
        }
        std::thread::sleep(GRACE);
        assert!(
            !op.is_finished(),
            "the write completed while {} of {} bricks still held their syncs",
            held.len(),
            ctls.len()
        );
        held.iter().for_each(StoreCtl::release);
        assert_eq!(op.join().unwrap(), Some(Ok(OpResult::Written)));
    });
    cluster.shutdown();
}

/// (d) A failed commit fences the brick: it refuses clients with a typed
/// error, clients fail over past it, and it is silent to its peers.
pub(crate) fn commit_failure_fences_the_brick<C: Cluster>() {
    let ctls: Vec<StoreCtl> = pids().map(|_| StoreCtl::default()).collect();
    let cluster = C::on_stores(cfg(), &ctls);
    let mut client = cluster.client();
    assert_eq!(invoke::<C>(&mut client, &write(1)), Ok(OpResult::Written));

    // Brick 1's next sync fails; the other three still form a quorum.
    let fenced = ProcessId::new(1);
    ctls[1].fail();
    assert_eq!(invoke::<C>(&mut client, &write(2)), Ok(OpResult::Written));
    let deadline = Instant::now() + EVENTUALLY;
    while cluster.ask(fenced, READ, EVENTUALLY) != Some(Err(ClientError::Unavailable)) {
        assert!(Instant::now() < deadline, "brick 1 never fenced");
        std::thread::sleep(Duration::from_millis(10));
    }

    // One tolerated fault stays invisible to a rotating client (every
    // brick, the fenced one included, gets its turn as coordinator).
    for _ in pids() {
        assert_eq!(invoke::<C>(&mut client, &READ), Ok(data(2)));
    }

    // Silent to peers: with a second brick gone only two healthy bricks
    // remain, one short of a quorum. The read can complete only if the
    // fenced brick answers its peers — which it must never do.
    let crashed = ProcessId::new(2);
    cluster.crash(crashed);
    assert_eq!(
        cluster.ask(ProcessId::new(0), READ, GRACE),
        None,
        "a quorum formed: the fenced brick answered from volatile state"
    );
    cluster.recover(crashed);
    let answer = retrying(
        || cluster.ask(ProcessId::new(0), READ, EVENTUALLY),
        |r| matches!(r, Some(Ok(OpResult::Aborted(_)))),
    );
    assert_eq!(answer, Some(Ok(data(2))));
    cluster.shutdown();
}

/// (e) Fenced is for good: `recover` is for crashed bricks and does not
/// resurrect one whose store failed.
pub(crate) fn recover_does_not_resurrect_a_fenced_brick<C: Cluster>() {
    let ctls: Vec<StoreCtl> = pids().map(|_| StoreCtl::default()).collect();
    let cluster = C::on_stores(cfg(), &ctls);
    let fenced = ProcessId::new(1);
    ctls[1].fail();
    assert_eq!(
        invoke::<C>(&mut cluster.client(), &write(3)),
        Ok(OpResult::Written)
    );
    ctls[1].wait_until("entered the failing sync", |st| st.entered >= 1);

    cluster.recover(fenced);
    assert_eq!(
        cluster.ask(fenced, READ, EVENTUALLY),
        Some(Err(ClientError::Unavailable)),
        "recover brought a fenced brick back"
    );
    // Still silent to peers: it cannot stand in for a crashed brick.
    cluster.crash(ProcessId::new(2));
    assert_eq!(
        cluster.ask(ProcessId::new(0), READ, GRACE),
        None,
        "a quorum formed: the fenced brick answered after recover"
    );
    cluster.shutdown();
}

/// (f) Group commit by drain: the requests that queue while one sync runs
/// share the next one. Brick 3's first sync is held while the other three
/// complete every write; released, it has one turn's worth of records to
/// sync, not one sync per record.
pub(crate) fn requests_queued_during_a_sync_share_the_next<C: Cluster>() {
    const WRITES: u8 = 8;
    let mut ctls: Vec<StoreCtl> = pids().map(|_| StoreCtl::default()).collect();
    ctls[3] = StoreCtl::held();
    let slow = &ctls[3];
    let cluster = C::on_stores(cfg(), &ctls);
    std::thread::scope(|s| {
        let writes: Vec<_> = (0..WRITES)
            .map(|k| {
                let cluster = &cluster;
                s.spawn(move || {
                    let coordinator = ProcessId::new(u32::from(k % 3));
                    let op = write_to(StripeId(u64::from(k)), k);
                    retrying(
                        || cluster.ask(coordinator, op.clone(), EVENTUALLY),
                        |r| matches!(r, Some(Ok(OpResult::Aborted(_)))),
                    )
                })
            })
            .collect();
        for w in writes {
            assert_eq!(w.join().unwrap(), Some(Ok(OpResult::Written)));
        }
    });
    slow.wait_until("entered its first sync", |st| st.entered >= 1);
    std::thread::sleep(GRACE); // requests still on a socket reach the inbox
    slow.release();
    slow.wait_until("finished its second sync", |st| st.synced >= 2);
    let st = slow.0 .0.lock().unwrap();
    assert!(
        st.entered < st.records && st.records >= u64::from(WRITES),
        "{} syncs for {} records: queued requests did not share a sync",
        st.entered,
        st.records
    );
    drop(st);
    cluster.shutdown();
}

/// Instantiates the suite for one [`Cluster`]; expects this module in
/// scope as `host_conformance`.
macro_rules! suite {
    ($cluster:ty) => {
        #[test]
        fn restart_recovers_from_the_log() {
            host_conformance::restart_recovers_from_the_log::<$cluster>();
        }
        #[test]
        fn crash_loses_memory_and_recovery_replays_the_log() {
            host_conformance::crash_loses_memory_and_recovery_replays_the_log::<$cluster>();
        }
        #[test]
        fn no_reply_leaves_before_its_covering_sync() {
            host_conformance::no_reply_leaves_before_its_covering_sync::<$cluster>();
        }
        #[test]
        fn commit_failure_fences_the_brick() {
            host_conformance::commit_failure_fences_the_brick::<$cluster>();
        }
        #[test]
        fn recover_does_not_resurrect_a_fenced_brick() {
            host_conformance::recover_does_not_resurrect_a_fenced_brick::<$cluster>();
        }
        #[test]
        fn requests_queued_during_a_sync_share_the_next() {
            host_conformance::requests_queued_during_a_sync_share_the_next::<$cluster>();
        }
    };
}
pub(crate) use suite;
