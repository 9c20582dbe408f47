//! Campaign plans: a deterministic, seed-derived description of one
//! torture run — cluster shape, network model, workload, and fault
//! schedule — plus a line-based text format so failing plans can be
//! written to disk as replayable `.seed` artifacts and shrunk offline.
//!
//! Everything here is a pure function of the seed: no ambient randomness.
//! The generator draws from [`fab_simnet::Rng64`], the same splitmix64
//! stream the simulator runs the plan on.

use crate::value::{stripe_blocks, tagged_block};
use fab_core::{ClientOp, StripeId};
use fab_simnet::Rng64;
use std::fmt::Write as _;

/// Network model of one campaign (maps onto [`fab_simnet::SimConfig`]).
/// Probabilities are in parts-per-million so plans are integer-exact in
/// the text format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetModel {
    /// Minimum one-way delay in ticks.
    pub min_delay: u64,
    /// Maximum one-way delay in ticks (inclusive).
    pub max_delay: u64,
    /// Drop probability in parts-per-million.
    pub drop_ppm: u32,
    /// Duplicate probability in parts-per-million.
    pub dup_ppm: u32,
}

/// One workload operation. Register values carry a unique non-zero id
/// embedded in the first 8 bytes of block 0, which is what the
/// strict-linearizability checker reasons about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `read-stripe`.
    ReadStripe,
    /// `write-stripe` of the value identified by `id`.
    WriteStripe {
        /// Unique non-zero value id.
        id: u64,
    },
    /// `read-block` of block 0 (the tagged block).
    ReadBlock0,
    /// `write-block` of block 0 with the value identified by `id`.
    WriteBlock0 {
        /// Unique non-zero value id.
        id: u64,
    },
    /// Maintenance scrub (recover + write back); observationally a read.
    Scrub,
}

impl OpKind {
    /// The value id a write introduces, if this is a write.
    #[must_use]
    pub fn write_id(&self) -> Option<u64> {
        match self {
            OpKind::WriteStripe { id } | OpKind::WriteBlock0 { id } => Some(*id),
            _ => None,
        }
    }

    /// `true` for operations recorded as reads in the history.
    #[must_use]
    pub fn is_read(&self) -> bool {
        matches!(self, OpKind::ReadStripe | OpKind::ReadBlock0 | OpKind::Scrub)
    }

    /// The register operation this step issues on `stripe`, on either
    /// substrate; writes carry `m` blocks of `block_size` bytes derived
    /// from the value id.
    #[must_use]
    pub fn client_op(self, stripe: StripeId, m: usize, block_size: usize) -> ClientOp {
        match self {
            OpKind::ReadStripe => ClientOp::read_stripe(stripe),
            OpKind::ReadBlock0 => ClientOp::read_block(stripe, 0),
            OpKind::Scrub => ClientOp::scrub(stripe),
            OpKind::WriteStripe { id } => {
                ClientOp::write_stripe(stripe, stripe_blocks(id, m, block_size))
            }
            OpKind::WriteBlock0 { id } => {
                ClientOp::write_block(stripe, 0, tagged_block(id, block_size))
            }
        }
    }
}

/// A scheduled workload invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedOp {
    /// Virtual time of the invocation (unique across the plan).
    pub at: u64,
    /// Coordinating brick.
    pub coordinator: u32,
    /// Target stripe register.
    pub stripe: u64,
    /// What to do.
    pub kind: OpKind,
}

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// Crash a brick (volatile state lost, persistent state kept).
    Crash(u32),
    /// Recover a brick.
    Recover(u32),
    /// Partition the cluster into the given groups (unlisted bricks are
    /// isolated).
    Partition(Vec<Vec<u32>>),
    /// Heal all partitions.
    Heal,
}

/// A fault scheduled at a virtual time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// Virtual time of injection.
    pub at: u64,
    /// The fault.
    pub kind: FaultKind,
}

/// An optional brick-replacement phase: at `at`, `brick` is crashed, its
/// persistent state wiped (a replaced disk), and the brick restarted
/// empty; the next brick then runs the [`fab_repair::RepairDriver`] to
/// completion mid-workload, after which the engine probes that reads of
/// repaired stripes take the fast path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairPhase {
    /// Virtual time of the crash-wipe.
    pub at: u64,
    /// The brick whose disk is replaced.
    pub brick: u32,
}

/// A complete, self-contained torture run description.
///
/// The engine additionally applies a *stabilization epilogue* that is not
/// part of the plan and never shrunk: at `horizon`, every brick recovers
/// and all partitions heal, so every surviving operation can finish and
/// the run terminates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignPlan {
    /// The generating seed (also the simulation seed).
    pub seed: u64,
    /// Data blocks per stripe.
    pub m: usize,
    /// Bricks in the cluster.
    pub n: usize,
    /// Block size in bytes (≥ 8 for the value tag).
    pub block_size: usize,
    /// Number of independent stripe registers exercised.
    pub stripes: u64,
    /// Time of the stabilization epilogue; all ops and faults are < this.
    pub horizon: u64,
    /// Per-brick coordinator clock skews (ticks; index = pid).
    pub skews: Vec<i64>,
    /// Network model.
    pub net: NetModel,
    /// Workload, sorted by time, times unique.
    pub ops: Vec<PlannedOp>,
    /// Fault schedule, sorted by time.
    pub faults: Vec<FaultEvent>,
    /// Optional brick-replacement + background-rebuild phase.
    pub repair: Option<RepairPhase>,
}

/// Cluster shapes the generator rotates through, mid-size shapes twice as
/// likely (they exercise both erasure coding and quorum slack).
const SHAPES: &[(usize, usize)] = &[(1, 3), (2, 4), (2, 4), (3, 5), (3, 5), (5, 8)];

/// Deterministically derives the campaign for `seed`.
#[must_use]
pub fn generate(seed: u64) -> CampaignPlan {
    let mut rng = Rng64::new(seed);
    let (m, n) = SHAPES[rng.below(SHAPES.len() as u64) as usize];
    let block_size = 16;
    let stripes = rng.range(1, 3);
    let horizon = rng.range(3, 8) * 1000;

    // Clock skews make cross-coordinator timestamp races common (§3's
    // abort-rate experiments); one third of campaigns run skew-free.
    let skews: Vec<i64> = if rng.chance(2, 3) {
        (0..n).map(|_| rng.range(0, 16) as i64 - 8).collect()
    } else {
        vec![0; n]
    };

    let net = NetModel {
        min_delay: 1,
        max_delay: rng.range(1, 50),
        drop_ppm: [0u32, 20_000, 60_000, 120_000][rng.below(4) as usize],
        dup_ppm: [0u32, 10_000, 50_000][rng.below(3) as usize],
    };

    // Workload: mixed reads/writes/scrubs across stripes and coordinators.
    let op_count = rng.range(6, 18);
    let mut next_id = 1u64;
    let mut ops: Vec<PlannedOp> = (0..op_count)
        .map(|_| {
            let at = rng.range(10, horizon - 500);
            let coordinator = rng.below(n as u64) as u32;
            let stripe = rng.below(stripes);
            let kind = match rng.below(100) {
                0..=34 => {
                    let id = next_id;
                    next_id += 1;
                    OpKind::WriteStripe { id }
                }
                35..=64 => OpKind::ReadStripe,
                65..=79 => {
                    let id = next_id;
                    next_id += 1;
                    OpKind::WriteBlock0 { id }
                }
                80..=89 => OpKind::ReadBlock0,
                _ => OpKind::Scrub,
            };
            PlannedOp {
                at,
                coordinator,
                stripe,
                kind,
            }
        })
        .collect();
    ops.sort_by_key(|o| o.at);
    // Unique invocation times: (pid, invoked_at) is the journal's
    // completion-matching key.
    for i in 1..ops.len() {
        if ops[i].at <= ops[i - 1].at {
            ops[i].at = ops[i - 1].at + 1;
        }
    }

    // Fault schedule: crashes, recoveries at arbitrary points, partitions,
    // heals. More faults than ops on some seeds — that is the point.
    let fault_count = rng.below(8);
    let mut faults: Vec<FaultEvent> = (0..fault_count)
        .map(|_| {
            let at = rng.range(5, horizon - 100);
            let kind = match rng.below(100) {
                0..=39 => FaultKind::Crash(rng.below(n as u64) as u32),
                40..=69 => FaultKind::Recover(rng.below(n as u64) as u32),
                70..=89 => {
                    // Random two-way split, both sides non-empty.
                    let mut a = vec![0u32];
                    let mut b = vec![(n - 1) as u32];
                    for p in 1..n - 1 {
                        if rng.chance(1, 2) {
                            a.push(p as u32);
                        } else {
                            b.push(p as u32);
                        }
                    }
                    FaultKind::Partition(vec![a, b])
                }
                _ => FaultKind::Heal,
            };
            FaultEvent { at, kind }
        })
        .collect();
    faults.sort_by_key(|f| f.at);

    // One third of campaigns replace a brick mid-workload and rebuild it
    // with the repair driver. The phase starts in the first half of the
    // run so the rebuild races real foreground traffic and later faults.
    let repair = if rng.chance(1, 3) {
        Some(RepairPhase {
            at: rng.range(10, horizon / 2),
            brick: rng.below(n as u64) as u32,
        })
    } else {
        None
    };

    CampaignPlan {
        seed,
        m,
        n,
        block_size,
        stripes,
        horizon,
        skews,
        net,
        ops,
        faults,
        repair,
    }
}

// ---------------------------------------------------------------------
// Text format (`.seed` artifacts)
// ---------------------------------------------------------------------

const HEADER: &str = "fab-torture-plan v1";

impl CampaignPlan {
    /// Serializes the plan to the replayable `.seed` text format.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        // Writing to a String cannot fail.
        let _ = writeln!(s, "{HEADER}");
        let _ = writeln!(s, "seed {}", self.seed);
        let _ = writeln!(s, "shape {} {} {}", self.m, self.n, self.block_size);
        let _ = writeln!(s, "stripes {}", self.stripes);
        let _ = writeln!(s, "horizon {}", self.horizon);
        let skews: Vec<String> = self.skews.iter().map(ToString::to_string).collect();
        let _ = writeln!(s, "skews {}", skews.join(" "));
        let _ = writeln!(
            s,
            "net {} {} {} {}",
            self.net.min_delay, self.net.max_delay, self.net.drop_ppm, self.net.dup_ppm
        );
        if let Some(r) = self.repair {
            let _ = writeln!(s, "repair {} {}", r.at, r.brick);
        }
        for op in &self.ops {
            let kind = match op.kind {
                OpKind::ReadStripe => "read-stripe".to_string(),
                OpKind::WriteStripe { id } => format!("write-stripe {id}"),
                OpKind::ReadBlock0 => "read-block0".to_string(),
                OpKind::WriteBlock0 { id } => format!("write-block0 {id}"),
                OpKind::Scrub => "scrub".to_string(),
            };
            let _ = writeln!(s, "op {} {} {} {kind}", op.at, op.coordinator, op.stripe);
        }
        for f in &self.faults {
            match &f.kind {
                FaultKind::Crash(p) => {
                    let _ = writeln!(s, "fault {} crash {p}", f.at);
                }
                FaultKind::Recover(p) => {
                    let _ = writeln!(s, "fault {} recover {p}", f.at);
                }
                FaultKind::Heal => {
                    let _ = writeln!(s, "fault {} heal", f.at);
                }
                FaultKind::Partition(groups) => {
                    let rendered: Vec<String> = groups
                        .iter()
                        .map(|g| {
                            g.iter()
                                .map(ToString::to_string)
                                .collect::<Vec<_>>()
                                .join(",")
                        })
                        .collect();
                    let _ = writeln!(s, "fault {} partition {}", f.at, rendered.join("|"));
                }
            }
        }
        s
    }

    /// Parses the `.seed` text format.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first malformed line.
    pub fn parse(text: &str) -> Result<CampaignPlan, String> {
        let mut lines = text.lines().enumerate();
        let (_, header) = lines.next().ok_or("empty plan file")?;
        if header.trim() != HEADER {
            return Err(format!("bad header {header:?}, expected {HEADER:?}"));
        }
        let mut plan = CampaignPlan {
            seed: 0,
            m: 0,
            n: 0,
            block_size: 0,
            stripes: 0,
            horizon: 0,
            skews: Vec::new(),
            net: NetModel {
                min_delay: 1,
                max_delay: 1,
                drop_ppm: 0,
                dup_ppm: 0,
            },
            ops: Vec::new(),
            faults: Vec::new(),
            repair: None,
        };
        for (idx, raw) in lines {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |what: &str| format!("line {}: {what}: {line:?}", idx + 1);
            let mut parts = line.split_whitespace();
            let tag = parts.next().unwrap_or_default();
            let rest: Vec<&str> = parts.collect();
            match tag {
                "seed" => {
                    plan.seed = parse_one(&rest).ok_or_else(|| err("want `seed <u64>`"))?;
                }
                "stripes" => {
                    plan.stripes = parse_one(&rest).ok_or_else(|| err("want `stripes <u64>`"))?;
                }
                "horizon" => {
                    plan.horizon = parse_one(&rest).ok_or_else(|| err("want `horizon <u64>`"))?;
                }
                "shape" => {
                    if rest.len() != 3 {
                        return Err(err("want `shape <m> <n> <block_size>`"));
                    }
                    plan.m = rest[0].parse().map_err(|_| err("bad m"))?;
                    plan.n = rest[1].parse().map_err(|_| err("bad n"))?;
                    plan.block_size = rest[2].parse().map_err(|_| err("bad block_size"))?;
                }
                "skews" => {
                    plan.skews = rest
                        .iter()
                        .map(|t| t.parse::<i64>())
                        .collect::<Result<_, _>>()
                        .map_err(|_| err("bad skew"))?;
                }
                "net" => {
                    if rest.len() != 4 {
                        return Err(err("want `net <min> <max> <drop_ppm> <dup_ppm>`"));
                    }
                    plan.net = NetModel {
                        min_delay: rest[0].parse().map_err(|_| err("bad min_delay"))?,
                        max_delay: rest[1].parse().map_err(|_| err("bad max_delay"))?,
                        drop_ppm: rest[2].parse().map_err(|_| err("bad drop_ppm"))?,
                        dup_ppm: rest[3].parse().map_err(|_| err("bad dup_ppm"))?,
                    };
                }
                "repair" => {
                    if rest.len() != 2 {
                        return Err(err("want `repair <at> <brick>`"));
                    }
                    plan.repair = Some(RepairPhase {
                        at: rest[0].parse().map_err(|_| err("bad at"))?,
                        brick: rest[1].parse().map_err(|_| err("bad brick"))?,
                    });
                }
                "op" => {
                    if rest.len() < 4 {
                        return Err(err("want `op <at> <coord> <stripe> <kind> [id]`"));
                    }
                    let at = rest[0].parse().map_err(|_| err("bad at"))?;
                    let coordinator = rest[1].parse().map_err(|_| err("bad coordinator"))?;
                    let stripe = rest[2].parse().map_err(|_| err("bad stripe"))?;
                    let id = |i: usize| -> Result<u64, String> {
                        rest.get(i)
                            .ok_or_else(|| err("missing value id"))?
                            .parse()
                            .map_err(|_| err("bad value id"))
                    };
                    let kind = match rest[3] {
                        "read-stripe" => OpKind::ReadStripe,
                        "read-block0" => OpKind::ReadBlock0,
                        "scrub" => OpKind::Scrub,
                        "write-stripe" => OpKind::WriteStripe { id: id(4)? },
                        "write-block0" => OpKind::WriteBlock0 { id: id(4)? },
                        other => return Err(err(&format!("unknown op kind {other:?}"))),
                    };
                    plan.ops.push(PlannedOp {
                        at,
                        coordinator,
                        stripe,
                        kind,
                    });
                }
                "fault" => {
                    if rest.len() < 2 {
                        return Err(err("want `fault <at> <kind> ...`"));
                    }
                    let at = rest[0].parse().map_err(|_| err("bad at"))?;
                    let kind = match rest[1] {
                        "heal" => FaultKind::Heal,
                        "crash" => FaultKind::Crash(
                            parse_one(&rest[2..]).ok_or_else(|| err("want `crash <pid>`"))?,
                        ),
                        "recover" => FaultKind::Recover(
                            parse_one(&rest[2..]).ok_or_else(|| err("want `recover <pid>`"))?,
                        ),
                        "partition" => {
                            let spec = rest.get(2).ok_or_else(|| err("missing groups"))?;
                            let groups: Result<Vec<Vec<u32>>, String> = spec
                                .split('|')
                                .map(|g| {
                                    g.split(',')
                                        .filter(|t| !t.is_empty())
                                        .map(|t| t.parse().map_err(|_| err("bad pid")))
                                        .collect()
                                })
                                .collect();
                            FaultKind::Partition(groups?)
                        }
                        other => return Err(err(&format!("unknown fault kind {other:?}"))),
                    };
                    plan.faults.push(FaultEvent { at, kind });
                }
                other => return Err(err(&format!("unknown directive {other:?}"))),
            }
        }
        if plan.m == 0 || plan.n == 0 || plan.block_size < 8 {
            return Err("plan missing a valid `shape` line (block_size ≥ 8)".to_string());
        }
        if plan.skews.len() != plan.n {
            return Err(format!(
                "skews has {} entries, want n = {}",
                plan.skews.len(),
                plan.n
            ));
        }
        if plan.horizon == 0 {
            return Err("plan missing `horizon`".to_string());
        }
        plan.check_ranges()?;
        Ok(plan)
    }

    /// Checks that every brick and stripe the plan names exists: the
    /// engine indexes its `n` actors by these, and a hand-edited `.seed`
    /// must be refused, not panic.
    ///
    /// # Errors
    ///
    /// `plan-config: <what> <index> out of range (<limit>)` for the first
    /// offender.
    pub fn check_ranges(&self) -> Result<(), String> {
        let below = |what: &str, v: u64, limit: u64, name: &str| {
            if v < limit {
                return Ok(());
            }
            Err(format!(
                "plan-config: {what} {v} out of range ({name} = {limit})"
            ))
        };
        let brick = |what: &str, pid: u32| below(what, pid.into(), self.n as u64, "n");
        for op in &self.ops {
            brick("coordinator brick", op.coordinator)?;
            below("op stripe", op.stripe, self.stripes, "stripes")?;
        }
        for f in &self.faults {
            match &f.kind {
                FaultKind::Crash(p) => brick("crash brick", *p)?,
                FaultKind::Recover(p) => brick("recover brick", *p)?,
                FaultKind::Partition(groups) => {
                    for p in groups.iter().flatten() {
                        brick("partition brick", *p)?;
                    }
                }
                FaultKind::Heal => {}
            }
        }
        match self.repair {
            Some(r) => brick("repair brick", r.brick),
            None => Ok(()),
        }
    }
}

fn parse_one<T: std::str::FromStr>(rest: &[&str]) -> Option<T> {
    match rest {
        [one] => one.parse().ok(),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in 0..32 {
            assert_eq!(generate(seed), generate(seed));
        }
        assert_ne!(generate(1), generate(2));
    }

    #[test]
    fn generated_plans_are_well_formed() {
        for seed in 0..256 {
            let p = generate(seed);
            assert!(p.block_size >= 8);
            assert!(p.m < p.n);
            assert_eq!(p.skews.len(), p.n);
            assert!(p.stripes >= 1);
            assert_eq!(p.check_ranges(), Ok(()), "seed {seed}");
            // Op times strictly increasing (completion-matching key).
            for w in p.ops.windows(2) {
                assert!(w[0].at < w[1].at, "seed {seed}: duplicate op time");
            }
            // Everything happens before the stabilization epilogue.
            for op in &p.ops {
                assert!(op.at < p.horizon);
            }
            for f in &p.faults {
                assert!(f.at < p.horizon);
            }
            if let Some(r) = p.repair {
                assert!(r.at < p.horizon, "seed {seed}: repair after epilogue");
            }
            // Write ids are unique and non-zero.
            let ids: Vec<u64> = p.ops.iter().filter_map(|o| o.kind.write_id()).collect();
            let mut dedup = ids.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(ids.len(), dedup.len(), "seed {seed}: duplicate write id");
            assert!(!ids.contains(&0));
        }
    }

    #[test]
    fn text_round_trip() {
        for seed in 0..128 {
            let p = generate(seed);
            let text = p.to_text();
            let back = CampaignPlan::parse(&text).expect("round-trip parse");
            assert_eq!(p, back, "seed {seed}");
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(CampaignPlan::parse("").is_err());
        assert!(CampaignPlan::parse("not a plan").is_err());
        let p = generate(3);
        let mut text = p.to_text();
        text.push_str("wat 1 2 3\n");
        assert!(CampaignPlan::parse(&text).is_err());
        // Missing shape.
        assert!(CampaignPlan::parse("fab-torture-plan v1\nseed 1\n").is_err());
    }

    #[test]
    fn repair_phase_round_trips_and_rejects_garbage() {
        // Some generated seed carries a repair phase; it must survive the
        // text format (also exercised by `text_round_trip` above).
        let plan = (0..64)
            .map(generate)
            .find(|p| p.repair.is_some())
            .expect("some seed has a repair phase");
        let back = CampaignPlan::parse(&plan.to_text()).expect("round-trip parse");
        assert_eq!(plan.repair, back.repair);

        let mut text = generate(3).to_text();
        text.push_str("repair 100\n");
        assert!(CampaignPlan::parse(&text).is_err());
        let mut text = generate(3).to_text();
        text.push_str("repair 100 banana\n");
        assert!(CampaignPlan::parse(&text).is_err());
    }

    #[test]
    fn parse_refuses_out_of_range_bricks_and_stripes() {
        let base = "fab-torture-plan v1\nshape 2 4 16\nstripes 2\nhorizon 4000\nskews 0 0 0 0\n";
        for (line, want) in [
            (
                "op 748 9 0 read-block0",
                "coordinator brick 9 out of range (n = 4)",
            ),
            (
                "op 748 0 2 read-stripe",
                "op stripe 2 out of range (stripes = 2)",
            ),
            ("fault 84 crash 9", "crash brick 9 out of range (n = 4)"),
            ("fault 84 recover 4", "recover brick 4 out of range (n = 4)"),
            (
                "fault 84 partition 0,1|2,9",
                "partition brick 9 out of range (n = 4)",
            ),
            ("repair 100 9", "repair brick 9 out of range (n = 4)"),
        ] {
            let err = CampaignPlan::parse(&format!("{base}{line}\n")).unwrap_err();
            assert_eq!(err, format!("plan-config: {want}"), "{line}");
        }
    }

    #[test]
    fn corpus_plans_parse() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus");
        for entry in std::fs::read_dir(dir).expect("crates/torture/corpus") {
            let path = entry.expect("corpus entry").path();
            let text = std::fs::read_to_string(&path).expect("corpus file");
            CampaignPlan::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        }
    }

    #[test]
    fn parse_reports_line_numbers() {
        let text = "fab-torture-plan v1\nseed 1\nop nope\n";
        let err = CampaignPlan::parse(text).unwrap_err();
        assert!(err.contains("line 3"), "{err}");
    }
}
