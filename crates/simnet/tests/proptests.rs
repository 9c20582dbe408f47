//! Property tests for the simulator itself: determinism over arbitrary
//! schedules, fair-loss delivery under retransmission, and fault-event
//! consistency.

use fab_simnet::{Actor, Context, SimConfig, Simulation, TimerId, WireSize};
use fab_timestamp::ProcessId;
use propcheck::ensure_eq;

/// A tiny wire message: (is_ack, sequence number).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Msg(bool, u64);

impl WireSize for Msg {
    fn wire_size(&self) -> usize {
        9
    }
}

/// An actor that retransmits queued numbered messages until each is
/// acknowledged — the minimal fair-loss stop-and-wait client.
struct Retx {
    target: ProcessId,
    queue: std::collections::VecDeque<u64>,
    acked: Vec<u64>,
    received: Vec<u64>,
}

impl Retx {
    fn new(target: ProcessId) -> Self {
        Retx {
            target,
            queue: std::collections::VecDeque::new(),
            acked: Vec::new(),
            received: Vec::new(),
        }
    }

    /// Enqueues `seq` and (re)arms transmission.
    fn submit(&mut self, ctx: &mut Context<'_, Msg>, seq: u64) {
        self.queue.push_back(seq);
        if self.queue.len() == 1 {
            ctx.send(self.target, Msg(false, seq));
            ctx.set_timer(50);
        }
    }
}

impl Actor for Retx {
    type Msg = Msg;

    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: ProcessId, msg: Msg) {
        let Msg(is_ack, seq) = msg;
        if is_ack {
            if self.queue.front() == Some(&seq) {
                self.queue.pop_front();
                self.acked.push(seq);
                if let Some(&next) = self.queue.front() {
                    ctx.send(self.target, Msg(false, next));
                    ctx.set_timer(50);
                }
            }
        } else {
            self.received.push(seq);
            ctx.send(from, Msg(true, seq));
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _t: TimerId) {
        if let Some(&seq) = self.queue.front() {
            ctx.send(self.target, Msg(false, seq));
            ctx.set_timer(50);
        }
    }
}

/// A two-brick simulation whose brick 0 submits `count` messages,
/// `spacing` ticks apart, to brick 1.
fn stop_and_wait(cfg: SimConfig, count: u64, spacing: u64) -> Simulation<Retx> {
    let mut sim = Simulation::new(
        cfg,
        vec![Retx::new(ProcessId::new(1)), Retx::new(ProcessId::new(0))],
    );
    for seq in 0..count {
        sim.schedule_call(seq * spacing, ProcessId::new(0), move |a, ctx| {
            a.submit(ctx, seq);
        });
    }
    sim
}

/// Fair loss + retransmission: every message is eventually delivered and
/// acknowledged, for any drop rate < 1 and any delay spread.
fn retransmission_beats_lossy_channel(
    seed: u64,
    drop_pct: u32,
    max_delay: u64,
    count: u64,
) -> Result<(), String> {
    let cfg = SimConfig::ideal(seed)
        .delays(1, max_delay)
        .drop_probability(f64::from(drop_pct) / 100.0);
    let mut sim = stop_and_wait(cfg, count, 1_000);
    sim.run_until_idle();
    let sender = sim.actor(ProcessId::new(0));
    ensure_eq!(sender.acked.len() as u64, count, "all acked");
    let receiver = sim.actor(ProcessId::new(1));
    let mut distinct = receiver.received.clone();
    distinct.sort_unstable();
    distinct.dedup();
    ensure_eq!(distinct.len() as u64, count, "all delivered");
    Ok(())
}

/// Crash/recovery scheduling is consistent: messages to a crashed
/// process are suppressed, and the suppressed + dropped + delivered
/// counts account for every send (minus in-flight none at idle).
fn metric_conservation_holds(seed: u64, crash_at: u64, up_after: u64) -> Result<(), String> {
    let cfg = SimConfig::ideal(seed).delays(1, 5).drop_probability(0.2);
    let mut sim = stop_and_wait(cfg, 6, 120);
    sim.schedule_crash(crash_at, ProcessId::new(1));
    sim.schedule_recovery(crash_at + up_after, ProcessId::new(1));
    sim.run_until_idle();
    let m = sim.metrics();
    ensure_eq!(
        m.messages_sent + m.messages_duplicated,
        m.messages_delivered + m.messages_dropped + m.messages_suppressed,
        "{m:?}"
    );
    // Liveness: once the receiver is back, everything completes.
    ensure_eq!(sim.actor(ProcessId::new(0)).acked.len(), 6);
    Ok(())
}

propcheck::properties! {
    cases: 24;

    fn retransmission_beats_any_lossy_channel(g) {
        let (drop_pct, max_delay, count) = (g.range(0u32..90), g.range(1u64..30), g.range(1u64..12));
        retransmission_beats_lossy_channel(g.u64(), drop_pct, max_delay, count)?;
    }

    /// Determinism: identical seeds and schedules yield identical
    /// fingerprints and metrics; different seeds (almost surely) diverge
    /// when randomness matters.
    fn runs_are_reproducible(g) {
        let (seed, drop_pct) = (g.u64(), g.range(5u32..50));
        let run = || {
            let cfg = SimConfig::ideal(seed)
                .delays(1, 20)
                .drop_probability(f64::from(drop_pct) / 100.0);
            let mut sim = stop_and_wait(cfg, 5, 100);
            sim.run_until_idle();
            (sim.fingerprint(), sim.metrics(), sim.now())
        };
        ensure_eq!(run(), run());
    }

    fn metric_conservation(g) {
        let (crash_at, up_after) = (g.range(50u64..500), g.range(1u64..200));
        metric_conservation_holds(g.u64(), crash_at, up_after)?;
    }
}

/// A case the suite this one replaced had recorded as a regression
/// (`seed = 0, drop_pct = 63, max_delay = 7, count = 6`).
#[test]
fn retransmission_regression_seed_0_drop_63() {
    retransmission_beats_lossy_channel(0, 63, 7, 6).unwrap();
}

/// The other recorded case (`seed = 1985066491072815364, crash_at = 50,
/// up_after = 72`).
#[test]
fn metric_conservation_regression_crash_at_50() {
    metric_conservation_holds(1_985_066_491_072_815_364, 50, 72).unwrap();
}
