//! End-to-end rebuild proof on the deterministic simulator (n=5, m=3):
//! wipe one brick's entire replica state (replaced disk), run the
//! repair driver over the live cluster with foreground writes
//! interleaved, and verify that afterwards every previously written
//! stripe reads via the fast path — including through the replaced
//! brick — and that a mid-repair crash resumes from the durable cursor
//! without missing a stripe.

use std::collections::BTreeMap;

use bytes::Bytes;
use fab_core::{ClientOp, OpResult, RegisterConfig, SimCluster, StripeId, StripeValue};
use fab_repair::{
    plan_brick_rebuild, Action, DriverConfig, RepairCursor, RepairDriver, SegmentMap,
};
use fab_simnet::SimConfig;
use fab_timestamp::ProcessId;
use fab_volume::{Layout, VolumeGeometry};

const N: usize = 5;
const M: usize = 3;
const BLOCK: usize = 16;
const STRIPES: u64 = 24;

fn pid(i: u32) -> ProcessId {
    ProcessId::new(i)
}

fn blocks(seed: u8) -> Vec<Bytes> {
    (0..M)
        .map(|i| Bytes::from(vec![seed.wrapping_add(i as u8); BLOCK]))
        .collect()
}

fn cluster(seed: u64) -> SimCluster {
    SimCluster::new(
        RegisterConfig::new(M, N, BLOCK).unwrap(),
        SimConfig::ideal(seed),
    )
}

fn geometry() -> VolumeGeometry {
    VolumeGeometry::new(STRIPES, M, BLOCK, Layout::Interleaved)
}

/// Drives the sans-io driver over the simulated cluster, scrubbing via
/// rotating live coordinators. `crash_after` stops the driver (as if
/// the process died) after that many scrub completions; `cursor` is
/// checkpointed on every watermark advance so the crash is as harsh as
/// possible for the resume logic. Interleaves a foreground write every
/// `fg_every` scrubs, recording it in `expected`.
#[allow(clippy::too_many_arguments)]
fn drive(
    cluster: &mut SimCluster,
    driver: &mut RepairDriver,
    cursor: Option<&mut RepairCursor>,
    crash_after: Option<u64>,
    fg_every: u64,
    expected: &mut BTreeMap<StripeId, u8>,
    next_seed: &mut u8,
) {
    let mut scrubbed = 0u64;
    let mut coord = 0u32;
    let mut cursor = cursor;
    loop {
        let now = cluster.sim().now();
        match driver.poll(now) {
            Action::Scrub(stripe) => {
                coord = (coord + 1) % N as u32;
                let result = cluster.scrub(pid(coord), stripe);
                driver.on_scrub_result(stripe, Ok(&result), cluster.sim().now());
                if let Some(c) = cursor.as_mut() {
                    c.checkpoint(driver.watermark()).unwrap();
                }
                scrubbed += 1;
                if scrubbed.is_multiple_of(fg_every) {
                    // Foreground traffic keeps flowing mid-rebuild.
                    let stripe = StripeId(scrubbed % STRIPES);
                    let seed = *next_seed;
                    *next_seed = next_seed.wrapping_add(1);
                    if cluster.write_stripe(pid(coord), stripe, blocks(seed)) == OpResult::Written {
                        expected.insert(stripe, seed);
                    }
                }
                if Some(scrubbed) == crash_after {
                    return; // simulated driver crash: no epilogue at all
                }
            }
            Action::Wait { until_micros } => {
                let now = cluster.sim().now();
                cluster.sim_mut().run_until(until_micros.max(now + 1));
            }
            Action::Idle => unreachable!("synchronous scrubs never stay in flight"),
            Action::Done => return,
        }
    }
}

/// Writes a workload, wipes a brick, and returns the expected contents.
fn written_cluster(seed: u64) -> (SimCluster, BTreeMap<StripeId, u8>) {
    let mut c = cluster(seed);
    let mut expected = BTreeMap::new();
    // Write 2/3 of the stripes; the rest stay never-written.
    for i in 0..STRIPES {
        if i % 3 == 2 {
            continue;
        }
        let seed = 10 + i as u8;
        assert_eq!(
            c.write_stripe(pid((i % N as u64) as u32), StripeId(i), blocks(seed)),
            OpResult::Written
        );
        expected.insert(StripeId(i), seed);
    }
    (c, expected)
}

fn assert_fast_path_reads(c: &mut SimCluster, victim: ProcessId, expected: &BTreeMap<StripeId, u8>) {
    for (&stripe, &seed) in expected {
        let done = c.complete(victim, ClientOp::read_stripe(stripe)).unwrap();
        assert!(
            !done.recovered,
            "post-repair read of {stripe:?} took the recovery path"
        );
        assert_eq!(
            done.result,
            OpResult::Stripe(StripeValue::Data(blocks(seed))),
            "post-repair contents of {stripe:?}"
        );
    }
}

#[test]
fn wiped_brick_rebuilds_under_foreground_load() {
    let (mut c, mut expected) = written_cluster(7);
    let victim = pid(4);
    c.wipe(victim);

    let plan = plan_brick_rebuild(&geometry(), &SegmentMap::full(N as u32).unwrap(), 4).unwrap();
    assert_eq!(plan.stripes.len() as u64, STRIPES);
    let mut driver = RepairDriver::new(plan, DriverConfig::default());
    let mut seed = 100u8;
    drive(&mut c, &mut driver, None, None, 5, &mut expected, &mut seed);

    assert!(driver.is_done());
    let out = driver.outcome();
    assert!(out.complete, "failed stripes: {:?}", out.failed);
    let written = expected.len() as u64;
    assert_eq!(out.stats.repaired + out.stats.skipped, STRIPES);
    assert!(out.stats.repaired >= written.min(STRIPES));
    assert_eq!(driver.watermark(), STRIPES);

    // Every written stripe now reads fast-path through the replaced brick.
    assert_fast_path_reads(&mut c, victim, &expected);
    // Never-written stripes are still Nil (the scrub no-op satellite).
    for i in 0..STRIPES {
        if !expected.contains_key(&StripeId(i)) {
            assert_eq!(
                c.read_stripe(pid(0), StripeId(i)),
                OpResult::Stripe(StripeValue::Nil)
            );
        }
    }
}

#[test]
fn mid_repair_crash_resumes_from_cursor_without_missing_stripes() {
    let dir = std::env::temp_dir().join(format!("fab-repair-sim-{}", std::process::id()));
    let _ = std::fs::remove_file(&dir);
    let (mut c, mut expected) = written_cluster(11);
    let victim = pid(4);
    c.wipe(victim);

    let plan = plan_brick_rebuild(&geometry(), &SegmentMap::full(N as u32).unwrap(), 4).unwrap();
    let hash = plan.hash;
    let mut seed = 100u8;

    // First driver run crashes mid-plan.
    let mut cursor = RepairCursor::open(&dir, hash).unwrap();
    let mut driver = RepairDriver::new(plan.clone(), DriverConfig::default());
    drive(
        &mut c,
        &mut driver,
        Some(&mut cursor),
        Some(9),
        4,
        &mut expected,
        &mut seed,
    );
    assert!(!driver.is_done(), "crash landed mid-plan");
    let durable = cursor.watermark();
    assert!(durable > 0 && durable < STRIPES);
    drop(cursor);
    drop(driver);

    // Restart: a fresh driver resumes from the durable watermark and
    // re-repairs anything uncheckpointed (idempotent).
    let mut cursor = RepairCursor::open(&dir, hash).unwrap();
    assert_eq!(cursor.watermark(), durable);
    let mut driver =
        RepairDriver::new(plan, DriverConfig::default()).resume_from(cursor.watermark());
    drive(
        &mut c,
        &mut driver,
        Some(&mut cursor),
        None,
        6,
        &mut expected,
        &mut seed,
    );
    assert!(driver.is_done());
    let out = driver.outcome();
    assert!(out.complete, "failed stripes: {:?}", out.failed);
    assert_eq!(
        out.stats.repaired + out.stats.skipped,
        STRIPES - durable,
        "second run covers exactly the un-checkpointed suffix"
    );

    // No stripe was missed: every written stripe reads fast-path via the
    // replaced brick, with the right contents.
    assert_fast_path_reads(&mut c, victim, &expected);
    std::fs::remove_file(&dir).unwrap();
}

#[test]
fn rescrubbing_a_repaired_stripe_is_idempotent() {
    let (mut c, expected) = written_cluster(13);
    let victim = pid(4);
    c.wipe(victim);
    let stripe = *expected.keys().next().unwrap();
    let first = c.scrub(pid(0), stripe);
    let again = c.scrub(pid(1), stripe);
    assert_eq!(first, again, "re-repair returns the same recovered value");
    let seed = expected[&stripe];
    assert_eq!(
        first,
        OpResult::Stripe(StripeValue::Data(blocks(seed)))
    );
    let done = c.complete(victim, ClientOp::read_stripe(stripe)).unwrap();
    assert!(!done.recovered);
}

#[test]
fn throttled_rebuild_waits_on_simulated_time() {
    let (mut c, mut expected) = written_cluster(17);
    c.wipe(pid(4));
    let plan = plan_brick_rebuild(&geometry(), &SegmentMap::full(N as u32).unwrap(), 4).unwrap();
    let cfg = DriverConfig {
        stripes_per_sec: 2,
        ..DriverConfig::default()
    };
    let mut driver = RepairDriver::new(plan, cfg);
    let start = c.sim().now();
    let mut seed = 200u8;
    drive(&mut c, &mut driver, None, None, 999, &mut expected, &mut seed);
    assert!(driver.is_done());
    let elapsed = c.sim().now() - start;
    // 24 stripes at 2/sec with a 2-stripe burst: at least ~11 seconds of
    // simulated time must have passed.
    assert!(
        elapsed >= 10_000_000,
        "throttle must pace the rebuild (elapsed {elapsed} us)"
    );
    assert!(driver.counters().snapshot().throttle_waits > 0);
}
