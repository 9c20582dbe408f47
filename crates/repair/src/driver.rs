//! The repair driver: runs a [`RepairPlan`] as a paced sequence of
//! scrubs, surviving aborts (retry with capped-exponential backoff),
//! throttling against foreground traffic (token buckets on stripes/sec
//! and bytes/sec), and prioritizing stripes the workload is actually
//! reading degraded ([`HealthMap`]).
//!
//! The core is sans-io, like the protocol `Coordinator` it drives: the
//! driver never scrubs, sleeps, or reads a clock itself. Callers poll
//! it with the current time and get back an [`Action`] — issue this
//! scrub, wait until then, or done. The same state machine therefore
//! runs identically under the deterministic simulator (torture
//! campaigns drive it on simulated time) and behind the blocking
//! wrapper in [`crate::inproc`] on wall-clock time over real sockets.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use fab_core::{ClientError, OpResult, StripeId, StripeValue};
use fab_simnet::fault::Backoff;

use crate::health::HealthMap;
use crate::planner::RepairPlan;
use crate::stats::{RepairCounters, RepairStats};

/// Pacing and retry policy for one repair run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriverConfig {
    /// Scrub-rate ceiling in stripes per second; 0 = unthrottled.
    pub stripes_per_sec: u64,
    /// Reconstruction-rate ceiling in bytes per second; 0 = unthrottled.
    pub bytes_per_sec: u64,
    /// Maximum scrubs outstanding at once.
    pub max_inflight: usize,
    /// Attempts per stripe before giving up (aborts only; an abort under
    /// foreground write contention is expected and transient).
    pub max_attempts: u32,
    /// Delay schedule between retries of one stripe.
    pub backoff: Backoff,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            stripes_per_sec: 0,
            bytes_per_sec: 0,
            max_inflight: 4,
            max_attempts: 8,
            backoff: Backoff::default(),
        }
    }
}

/// What the caller should do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Issue a scrub of this stripe (report back via
    /// [`RepairDriver::on_scrub_result`]).
    Scrub(StripeId),
    /// Nothing can be issued before this time (throttle or retry
    /// backoff). Poll again at `until_micros` — or earlier if a result
    /// arrives.
    Wait {
        /// Absolute time (same clock as `poll`'s `now`), microseconds.
        until_micros: u64,
    },
    /// In-flight scrubs are outstanding and nothing else can be issued;
    /// wait for a result.
    Idle,
    /// Every plan entry is terminal and nothing is in flight.
    Done,
}

/// Lifecycle of one plan entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryState {
    /// Not yet issued (or awaiting a retry slot).
    Pending,
    /// A scrub is outstanding.
    Inflight,
    /// Reconstructed and re-stored.
    Repaired,
    /// Never written — scrub was a clean no-op.
    Skipped,
    /// Retry budget exhausted (outside the fault model).
    Failed,
    /// Covered by the durable cursor of a previous run.
    Resumed,
}

impl EntryState {
    fn is_terminal(self) -> bool {
        !matches!(self, EntryState::Pending | EntryState::Inflight)
    }

    /// Terminal states the durable watermark may advance over. `Failed`
    /// deliberately blocks the watermark so a restarted driver retries
    /// the stripe rather than recording it as done.
    fn advances_watermark(self) -> bool {
        matches!(
            self,
            EntryState::Repaired | EntryState::Skipped | EntryState::Resumed
        )
    }
}

/// Deterministic integer token bucket. Tokens are tracked in millionths
/// (unit-micros) so refill at `rate` units/sec over a microsecond clock
/// needs no division: `elapsed_micros * rate` IS the refill in
/// unit-micros.
#[derive(Debug, Clone, Copy)]
struct TokenBucket {
    /// Units per second; 0 disables the bucket.
    rate: u64,
    /// Burst bound, in unit-micros.
    capacity_e6: u128,
    /// Current balance, in unit-micros.
    tokens_e6: u128,
    /// Last refill time.
    last_micros: u64,
}

impl TokenBucket {
    fn new(rate: u64, burst_units: u64) -> Self {
        let capacity_e6 = u128::from(burst_units) * 1_000_000;
        TokenBucket {
            rate,
            capacity_e6,
            tokens_e6: capacity_e6,
            last_micros: 0,
        }
    }

    fn refill(&mut self, now: u64) {
        if self.rate == 0 {
            return;
        }
        let elapsed = now.saturating_sub(self.last_micros);
        self.last_micros = self.last_micros.max(now);
        self.tokens_e6 = self
            .tokens_e6
            .saturating_add(u128::from(elapsed) * u128::from(self.rate))
            .min(self.capacity_e6);
    }

    /// Whether `cost` units are available right now (after refilling).
    fn ready(&mut self, now: u64, cost: u64) -> bool {
        if self.rate == 0 {
            return true;
        }
        self.refill(now);
        self.tokens_e6 >= u128::from(cost) * 1_000_000
    }

    fn take(&mut self, cost: u64) {
        if self.rate == 0 {
            return;
        }
        self.tokens_e6 = self
            .tokens_e6
            .saturating_sub(u128::from(cost) * 1_000_000);
    }

    /// Earliest time `cost` units will be available, assuming no other
    /// takers.
    fn ready_at(&self, now: u64, cost: u64) -> u64 {
        if self.rate == 0 {
            return now;
        }
        let need = (u128::from(cost) * 1_000_000).saturating_sub(self.tokens_e6);
        if need == 0 {
            return now;
        }
        let micros = need.div_ceil(u128::from(self.rate));
        now.saturating_add(u64::try_from(micros).unwrap_or(u64::MAX))
    }
}

/// A scheduled retry of one plan entry. The attempt count lives in
/// `RepairDriver::attempts` (it must survive the retry being promoted
/// back into the run queue).
#[derive(Debug, Clone, Copy)]
struct Retry {
    not_before: u64,
}

/// Terminal summary of a driver run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairOutcome {
    /// Counter snapshot at the end of the run.
    pub stats: RepairStats,
    /// Stripes whose retry budget ran out (empty under the fault model).
    pub failed: Vec<StripeId>,
    /// Whether every plan entry reached `Repaired`/`Skipped`/`Resumed`.
    pub complete: bool,
}

/// The sans-io repair state machine. See the module docs for the
/// poll/on_scrub_result contract.
#[derive(Debug)]
pub struct RepairDriver {
    plan: RepairPlan,
    cfg: DriverConfig,
    idx_of: BTreeMap<StripeId, usize>,
    state: Vec<EntryState>,
    /// First plan index never yet promoted into the queue.
    next_idx: usize,
    /// Promoted work, front = highest priority (due retries, then hot
    /// degraded stripes).
    priority: VecDeque<usize>,
    /// Indexes currently sitting in `priority` (dedup guard).
    queued: BTreeSet<usize>,
    /// Pending retries by plan index.
    retries: BTreeMap<usize, Retry>,
    /// Scrub attempts so far by plan index (absent = none yet).
    attempts: BTreeMap<usize, u32>,
    inflight: usize,
    terminal: usize,
    watermark: usize,
    stripe_bucket: TokenBucket,
    byte_bucket: TokenBucket,
    counters: Arc<RepairCounters>,
    health: Option<HealthMap>,
    aborted: bool,
}

impl RepairDriver {
    /// A driver over `plan` with fresh counters.
    pub fn new(plan: RepairPlan, cfg: DriverConfig) -> Self {
        RepairDriver::with_counters(plan, cfg, Arc::new(RepairCounters::new()))
    }

    /// A driver publishing into caller-owned counters (shared with a
    /// status endpoint).
    pub fn with_counters(plan: RepairPlan, cfg: DriverConfig, counters: Arc<RepairCounters>) -> Self {
        let idx_of = plan
            .stripes
            .iter()
            .enumerate()
            .map(|(i, &s)| (s, i))
            .collect();
        let n = plan.stripes.len();
        counters.planned.set(n as u64);
        let stripe_bucket = TokenBucket::new(cfg.stripes_per_sec, cfg.stripes_per_sec.max(1));
        let byte_bucket = TokenBucket::new(
            cfg.bytes_per_sec,
            cfg.bytes_per_sec.max(plan.bytes_per_stripe),
        );
        RepairDriver {
            idx_of,
            state: vec![EntryState::Pending; n],
            next_idx: 0,
            priority: VecDeque::new(),
            queued: BTreeSet::new(),
            retries: BTreeMap::new(),
            attempts: BTreeMap::new(),
            inflight: 0,
            terminal: 0,
            watermark: 0,
            stripe_bucket,
            byte_bucket,
            counters,
            health: None,
            aborted: false,
            plan,
            cfg,
        }
    }

    /// Attaches a degraded-stripe feed: on every poll, freshly reported
    /// stripes jump the queue (hottest first).
    #[must_use]
    pub fn with_health(mut self, health: HealthMap) -> Self {
        self.health = Some(health);
        self
    }

    /// Marks the first `watermark` plan entries as already repaired by a
    /// previous run (from [`crate::cursor::RepairCursor::watermark`]).
    /// Entries past the watermark are re-scrubbed even if the previous
    /// run had repaired them out of order — re-repair is idempotent, a
    /// missed stripe is not.
    #[must_use]
    pub fn resume_from(mut self, watermark: u64) -> Self {
        let mark = usize::try_from(watermark)
            .unwrap_or(usize::MAX)
            .min(self.state.len());
        for s in self.state.iter_mut().take(mark) {
            *s = EntryState::Resumed;
        }
        self.terminal = mark;
        self.watermark = mark;
        self.next_idx = mark;
        self.counters.watermark.set(mark as u64);
        self
    }

    /// The plan being executed.
    pub fn plan(&self) -> &RepairPlan {
        &self.plan
    }

    /// The shared counters.
    pub fn counters(&self) -> Arc<RepairCounters> {
        Arc::clone(&self.counters)
    }

    /// Contiguous-prefix progress: every plan entry before this index is
    /// repaired/skipped. This is what gets checkpointed durably.
    pub fn watermark(&self) -> u64 {
        self.watermark as u64
    }

    /// Whether every entry is terminal and nothing is in flight.
    pub fn is_done(&self) -> bool {
        (self.terminal == self.state.len() && self.inflight == 0) || self.aborted
    }

    /// Stops issuing new scrubs; outstanding results are still absorbed.
    pub fn abort(&mut self) {
        self.aborted = true;
    }

    /// Terminal summary (meaningful once [`RepairDriver::is_done`]).
    pub fn outcome(&self) -> RepairOutcome {
        let failed: Vec<StripeId> = self
            .state
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == EntryState::Failed)
            .filter_map(|(i, _)| self.plan.stripes.get(i).copied())
            .collect();
        RepairOutcome {
            stats: self.counters.snapshot(),
            complete: !self.aborted && self.terminal == self.state.len() && failed.is_empty(),
            failed,
        }
    }

    /// Decides the next action as of `now` (microseconds, any monotonic
    /// origin — simulated or wall clock).
    pub fn poll(&mut self, now: u64) -> Action {
        if self.aborted {
            return Action::Done;
        }
        self.promote_health();
        self.promote_due_retries(now);
        if self.inflight >= self.cfg.max_inflight.max(1) {
            return Action::Idle;
        }
        let Some(idx) = self.next_candidate() else {
            if self.inflight > 0 {
                return Action::Idle;
            }
            // Nothing runnable: either a retry is cooling down, or the
            // plan is exhausted.
            if let Some(until) = self.earliest_retry() {
                return Action::Wait {
                    until_micros: until,
                };
            }
            return Action::Done;
        };
        // Both buckets must clear before the scrub is issued; otherwise
        // requeue the candidate at the front and report when to retry.
        let cost = self.plan.bytes_per_stripe;
        let stripe_ok = self.stripe_bucket.ready(now, 1);
        let bytes_ok = self.byte_bucket.ready(now, cost);
        if !(stripe_ok && bytes_ok) {
            let until = self
                .stripe_bucket
                .ready_at(now, 1)
                .max(self.byte_bucket.ready_at(now, cost));
            self.priority.push_front(idx);
            self.queued.insert(idx);
            self.counters.throttle_waits.inc();
            return Action::Wait {
                until_micros: until,
            };
        }
        let Some(&stripe) = self.plan.stripes.get(idx) else {
            // Unreachable: every queued index came from the plan.
            return Action::Idle;
        };
        self.stripe_bucket.take(1);
        self.byte_bucket.take(cost);
        if let Some(s) = self.state.get_mut(idx) {
            *s = EntryState::Inflight;
        }
        self.inflight += 1;
        Action::Scrub(stripe)
    }

    /// Feeds back the outcome of a scrub issued by [`RepairDriver::poll`]:
    /// the coordinator's answer, or the client's failure to get one (one
    /// more failed attempt of the stripe, retried and finally counted as
    /// `failed` exactly like an aborted scrub). Results for stripes
    /// outside the plan, or not in flight, are ignored (stale completions
    /// after an abort).
    pub fn on_scrub_result(
        &mut self,
        stripe: StripeId,
        result: Result<&OpResult, &ClientError>,
        now: u64,
    ) {
        let Some(&idx) = self.idx_of.get(&stripe) else {
            return;
        };
        if self.state.get(idx) != Some(&EntryState::Inflight) {
            return;
        }
        self.inflight = self.inflight.saturating_sub(1);
        let next = match result {
            Ok(OpResult::Stripe(StripeValue::Nil)) => {
                self.counters.skipped.inc();
                EntryState::Skipped
            }
            Ok(r) if r.is_ok() => {
                self.counters.repaired.inc();
                self.counters
                    .bytes_reconstructed
                    .add(self.plan.bytes_per_stripe);
                EntryState::Repaired
            }
            // Aborted by the protocol, or never answered at all.
            Ok(_) | Err(_) => {
                let attempts = self.attempts.get(&idx).copied().unwrap_or(0) + 1;
                self.attempts.insert(idx, attempts);
                if attempts >= self.cfg.max_attempts.max(1) {
                    self.retries.remove(&idx);
                    self.counters.failed.inc();
                    EntryState::Failed
                } else {
                    self.counters.retried.inc();
                    let delay = self.cfg.backoff.delay_micros(attempts.saturating_sub(1));
                    self.retries.insert(
                        idx,
                        Retry {
                            not_before: now.saturating_add(delay),
                        },
                    );
                    EntryState::Pending
                }
            }
        };
        if let Some(s) = self.state.get_mut(idx) {
            *s = next;
        }
        if next.is_terminal() {
            self.terminal += 1;
            self.advance_watermark();
        }
    }

    fn advance_watermark(&mut self) {
        while self
            .state
            .get(self.watermark)
            .is_some_and(|s| s.advances_watermark())
        {
            self.watermark += 1;
        }
        self.counters
            .watermark
            .set(self.watermark as u64);
    }

    /// Pulls freshly reported degraded stripes to the queue front.
    fn promote_health(&mut self) {
        let Some(health) = &self.health else {
            return;
        };
        if health.degraded_count() == 0 {
            return;
        }
        let hot = health.drain_hot();
        // push_front in reverse so the hottest ends up at the very front.
        for stripe in hot.iter().rev() {
            let Some(&idx) = self.idx_of.get(stripe) else {
                continue;
            };
            if self.state.get(idx) != Some(&EntryState::Pending)
                || self.queued.contains(&idx)
                || self.retries.contains_key(&idx)
            {
                continue;
            }
            self.priority.push_front(idx);
            self.queued.insert(idx);
        }
    }

    /// Moves retries whose backoff has elapsed to the queue front.
    fn promote_due_retries(&mut self, now: u64) {
        let due: Vec<usize> = self
            .retries
            .iter()
            .filter(|(_, r)| r.not_before <= now)
            .map(|(&i, _)| i)
            .collect();
        for idx in due {
            self.retries.remove(&idx);
            if self.queued.insert(idx) {
                self.priority.push_front(idx);
            }
        }
    }

    fn next_candidate(&mut self) -> Option<usize> {
        while let Some(idx) = self.priority.pop_front() {
            self.queued.remove(&idx);
            if self.state.get(idx) == Some(&EntryState::Pending) {
                return Some(idx);
            }
        }
        while self.next_idx < self.state.len() {
            let idx = self.next_idx;
            self.next_idx += 1;
            if self.state.get(idx) == Some(&EntryState::Pending) && !self.retries.contains_key(&idx)
            {
                return Some(idx);
            }
        }
        None
    }

    fn earliest_retry(&self) -> Option<u64> {
        self.retries.values().map(|r| r.not_before).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::RepairPlan;
    use fab_core::AbortReason;

    fn plan(n: u64) -> RepairPlan {
        RepairPlan {
            stripes: (0..n).map(StripeId).collect(),
            bytes_per_stripe: 192,
            hash: 0xABCD,
        }
    }

    fn data() -> OpResult {
        OpResult::Stripe(StripeValue::Data(vec![bytes::Bytes::from_static(&[1; 4])]))
    }

    #[test]
    fn runs_plan_to_completion_and_advances_watermark() {
        let mut d = RepairDriver::new(plan(5), DriverConfig::default());
        let mut repaired = Vec::new();
        let mut now = 0;
        loop {
            match d.poll(now) {
                Action::Scrub(s) => {
                    repaired.push(s);
                    d.on_scrub_result(s, Ok(&data()), now);
                }
                Action::Wait { until_micros } => now = until_micros,
                Action::Idle => unreachable!("results are fed synchronously"),
                Action::Done => break,
            }
        }
        assert_eq!(repaired, (0..5).map(StripeId).collect::<Vec<_>>());
        assert_eq!(d.watermark(), 5);
        let out = d.outcome();
        assert!(out.complete);
        assert_eq!(out.stats.repaired, 5);
        assert_eq!(out.stats.bytes_reconstructed, 5 * 192);
    }

    #[test]
    fn nil_scrubs_count_as_skipped_not_repaired() {
        let mut d = RepairDriver::new(plan(3), DriverConfig::default());
        while let Action::Scrub(s) = d.poll(0) {
            d.on_scrub_result(s, Ok(&OpResult::Stripe(StripeValue::Nil)), 0);
        }
        assert!(d.is_done());
        let out = d.outcome();
        assert!(out.complete);
        assert_eq!(out.stats.skipped, 3);
        assert_eq!(out.stats.repaired, 0);
        assert_eq!(out.stats.bytes_reconstructed, 0);
        assert_eq!(d.watermark(), 3, "skipped stripes advance the watermark");
    }

    #[test]
    fn bounded_inflight() {
        let cfg = DriverConfig {
            max_inflight: 2,
            ..DriverConfig::default()
        };
        let mut d = RepairDriver::new(plan(5), cfg);
        let Action::Scrub(a) = d.poll(0) else { panic!() };
        let Action::Scrub(b) = d.poll(0) else { panic!() };
        assert_eq!(d.poll(0), Action::Idle, "third scrub held back");
        d.on_scrub_result(a, Ok(&data()), 0);
        assert!(matches!(d.poll(0), Action::Scrub(_)));
        d.on_scrub_result(b, Ok(&data()), 0);
    }

    #[test]
    fn aborts_retry_with_backoff_then_fail_terminally() {
        let cfg = DriverConfig {
            max_attempts: 3,
            ..DriverConfig::default()
        };
        let backoff = cfg.backoff;
        let mut d = RepairDriver::new(plan(1), cfg);
        let mut now = 0u64;
        for attempt in 0..3u32 {
            let action = d.poll(now);
            let Action::Scrub(s) = action else {
                panic!("attempt {attempt}: {action:?}");
            };
            d.on_scrub_result(s, Ok(&OpResult::Aborted(AbortReason::Conflict)), now);
            if attempt < 2 {
                // Cooling down: the driver asks us to wait out the backoff.
                let Action::Wait { until_micros } = d.poll(now) else {
                    panic!("expected backoff wait after attempt {attempt}");
                };
                assert_eq!(until_micros, now + backoff.delay_micros(attempt));
                now = until_micros;
            }
        }
        assert!(d.is_done());
        let out = d.outcome();
        assert!(!out.complete);
        assert_eq!(out.failed, vec![StripeId(0)]);
        assert_eq!(out.stats.retried, 2);
        assert_eq!(out.stats.failed, 1);
        assert_eq!(d.watermark(), 0, "failed stripe blocks the watermark");
    }

    #[test]
    fn stripe_throttle_paces_issues() {
        let cfg = DriverConfig {
            stripes_per_sec: 1,
            max_inflight: 8,
            ..DriverConfig::default()
        };
        let mut d = RepairDriver::new(plan(3), cfg);
        // Burst capacity is one stripe: first scrub immediate.
        let Action::Scrub(a) = d.poll(0) else { panic!() };
        d.on_scrub_result(a, Ok(&data()), 0);
        // Second must wait out the 1/sec refill.
        let Action::Wait { until_micros } = d.poll(0) else {
            panic!()
        };
        assert_eq!(until_micros, 1_000_000);
        assert!(matches!(d.poll(until_micros), Action::Scrub(_)));
        assert!(d.counters().snapshot().throttle_waits >= 1);
    }

    #[test]
    fn byte_throttle_paces_issues() {
        let cfg = DriverConfig {
            bytes_per_sec: 192, // exactly one stripe per second
            max_inflight: 8,
            ..DriverConfig::default()
        };
        let mut d = RepairDriver::new(plan(2), cfg);
        let Action::Scrub(a) = d.poll(0) else { panic!() };
        d.on_scrub_result(a, Ok(&data()), 0);
        let Action::Wait { until_micros } = d.poll(0) else {
            panic!()
        };
        assert_eq!(until_micros, 1_000_000);
    }

    #[test]
    fn health_reports_jump_the_queue() {
        let health = HealthMap::new();
        let mut d = RepairDriver::new(plan(10), DriverConfig::default()).with_health(health.clone());
        health.report(StripeId(7));
        health.report(StripeId(7));
        health.report(StripeId(4));
        let Action::Scrub(first) = d.poll(0) else { panic!() };
        let Action::Scrub(second) = d.poll(0) else { panic!() };
        let Action::Scrub(third) = d.poll(0) else { panic!() };
        assert_eq!(first, StripeId(7), "hottest degraded stripe first");
        assert_eq!(second, StripeId(4));
        assert_eq!(third, StripeId(0), "then plan order");
        // A report for an already-issued stripe is not re-queued.
        health.report(StripeId(7));
        let Action::Scrub(fourth) = d.poll(0) else { panic!() };
        assert_eq!(fourth, StripeId(1));
    }

    #[test]
    fn resume_skips_the_durable_prefix_exactly() {
        let mut d = RepairDriver::new(plan(6), DriverConfig::default()).resume_from(4);
        assert_eq!(d.watermark(), 4);
        let mut issued = Vec::new();
        while let Action::Scrub(s) = d.poll(0) {
            issued.push(s);
            d.on_scrub_result(s, Ok(&data()), 0);
        }
        assert_eq!(issued, vec![StripeId(4), StripeId(5)]);
        assert!(d.is_done());
        assert!(d.outcome().complete);
        assert_eq!(d.watermark(), 6);
    }

    #[test]
    fn stale_results_are_ignored() {
        let mut d = RepairDriver::new(plan(2), DriverConfig::default());
        // Result for a stripe never issued, and one outside the plan.
        d.on_scrub_result(StripeId(1), Ok(&data()), 0);
        d.on_scrub_result(StripeId(99), Ok(&data()), 0);
        assert_eq!(d.counters().snapshot().repaired, 0);
        assert_eq!(d.watermark(), 0);
    }

    #[test]
    fn abort_stops_issuing() {
        let mut d = RepairDriver::new(plan(5), DriverConfig::default());
        let Action::Scrub(s) = d.poll(0) else { panic!() };
        d.abort();
        assert_eq!(d.poll(0), Action::Done);
        // A straggler result is still absorbed without panicking.
        d.on_scrub_result(s, Ok(&data()), 0);
        assert!(!d.outcome().complete);
    }

    #[test]
    fn watermark_is_contiguous_despite_out_of_order_completion() {
        let cfg = DriverConfig {
            max_inflight: 3,
            ..DriverConfig::default()
        };
        let mut d = RepairDriver::new(plan(3), cfg);
        let Action::Scrub(s0) = d.poll(0) else { panic!() };
        let Action::Scrub(s1) = d.poll(0) else { panic!() };
        let Action::Scrub(s2) = d.poll(0) else { panic!() };
        d.on_scrub_result(s2, Ok(&data()), 0);
        assert_eq!(d.watermark(), 0, "stripe 0 still outstanding");
        d.on_scrub_result(s0, Ok(&data()), 0);
        assert_eq!(d.watermark(), 1);
        d.on_scrub_result(s1, Ok(&data()), 0);
        assert_eq!(d.watermark(), 3, "contiguous prefix catches up");
    }
}
