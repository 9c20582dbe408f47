//! `fab-torture`: seed-driven fault-campaign runner.
//!
//! ```text
//! fab-torture [--runs N] [--seed-base <u64|fixed>] [--check-determinism]
//!             [--expect-violation] [--differential N] [--replay FILE]
//!             [--artifact-dir DIR] [--bench-out FILE] [--shrink-budget N]
//! ```
//!
//! Exit status: 0 on a clean campaign (or, under `--expect-violation`,
//! when a violation WAS found); 1 when a violation is found (or, under
//! `--expect-violation`, when none was); 2 on usage/environment errors.

use fab_torture::plan::{CampaignPlan, FaultKind};
use fab_torture::{generate, run_differential, run_plan, shrink, RunReport};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Default seed base: `--seed-base fixed`.
const FIXED_SEED_BASE: u64 = 0xFAB;

#[derive(Debug, Clone, PartialEq, Eq)]
struct Options {
    runs: u64,
    seed_base: u64,
    check_determinism: bool,
    expect_violation: bool,
    differential: u64,
    replay: Option<PathBuf>,
    artifact_dir: PathBuf,
    bench_out: PathBuf,
    shrink_budget: u32,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            runs: 1000,
            seed_base: FIXED_SEED_BASE,
            check_determinism: false,
            expect_violation: false,
            differential: 0,
            replay: None,
            artifact_dir: PathBuf::from("target/torture"),
            bench_out: PathBuf::from("target/torture/BENCH_torture.json"),
            shrink_budget: 4000,
        }
    }
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.iter();
    let value = |flag: &str, v: Option<&String>| -> Result<String, String> {
        v.cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--runs" => {
                opts.runs = value(arg, it.next())?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
            }
            "--seed-base" => {
                let v = value(arg, it.next())?;
                opts.seed_base = if v == "fixed" {
                    FIXED_SEED_BASE
                } else if v == "time" {
                    std::time::SystemTime::now()
                        .duration_since(std::time::UNIX_EPOCH)
                        .map_or(FIXED_SEED_BASE, |d| d.as_nanos() as u64)
                } else {
                    v.parse().map_err(|e| format!("--seed-base: {e}"))?
                };
            }
            "--check-determinism" => opts.check_determinism = true,
            "--expect-violation" => opts.expect_violation = true,
            "--differential" => {
                opts.differential = value(arg, it.next())?
                    .parse()
                    .map_err(|e| format!("--differential: {e}"))?;
            }
            "--replay" => opts.replay = Some(PathBuf::from(value(arg, it.next())?)),
            "--artifact-dir" => opts.artifact_dir = PathBuf::from(value(arg, it.next())?),
            "--bench-out" => opts.bench_out = PathBuf::from(value(arg, it.next())?),
            "--shrink-budget" => {
                opts.shrink_budget = value(arg, it.next())?
                    .parse()
                    .map_err(|e| format!("--shrink-budget: {e}"))?;
            }
            "--help" | "-h" => return Err("help".into()),
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(opts)
}

const USAGE: &str = "\
usage: fab-torture [options]
  --runs N              campaigns to run (default 1000)
  --seed-base V         u64, or 'fixed' (0xFAB), or 'time' (default fixed)
  --check-determinism   run every seed twice, compare stats + violation kinds
  --expect-violation    mutation smoke: succeed when a violation IS found
  --differential N      also replay the first N plans on a TCP loopback cluster
  --replay FILE         run a single .seed artifact instead of generating plans
  --artifact-dir DIR    where failing seeds are written (default target/torture)
  --bench-out FILE      campaign summary JSON (default target/torture/BENCH_torture.json)
  --shrink-budget N     max candidate runs while minimizing (default 4000)";

/// Aggregate campaign counters for the benchmark artifact.
#[derive(Debug, Default)]
struct Totals {
    runs: u64,
    ops_invoked: u64,
    ops_completed: u64,
    ops_committed: u64,
    ops_aborted: u64,
    crashes: u64,
    recoveries: u64,
    partitions: u64,
    heals: u64,
    histories_checked: u64,
    events: u64,
    requests_probed: u64,
    wipes: u64,
    repairs_completed: u64,
    repair_stripes_repaired: u64,
    repair_stripes_skipped: u64,
    fastpath_probes: u64,
    /// XOR-fold of per-run fingerprints: order-independent digest of
    /// the whole campaign, stable across reruns of the same seed base.
    fingerprint: u64,
    violations: u64,
    determinism_mismatches: u64,
    shrink_runs: u64,
    shrink_removed: u64,
    diff_runs: u64,
    diff_ops: u64,
    diff_faults: u64,
    diff_violations: u64,
}

impl Totals {
    fn absorb(&mut self, report: &RunReport) {
        let s = &report.stats;
        self.runs += 1;
        self.ops_invoked += s.ops_invoked;
        self.ops_completed += s.ops_completed;
        self.ops_committed += s.ops_committed;
        self.ops_aborted += s.ops_aborted;
        self.crashes += s.crashes;
        self.recoveries += s.recoveries;
        self.partitions += s.partitions;
        self.heals += s.heals;
        self.histories_checked += s.histories_checked;
        self.events += s.events;
        self.requests_probed += s.requests_probed;
        self.wipes += s.wipes;
        self.repairs_completed += u64::from(s.repair_completed);
        self.repair_stripes_repaired += s.repair_repaired;
        self.repair_stripes_skipped += s.repair_skipped;
        self.fastpath_probes += s.fastpath_probes;
        self.fingerprint ^= s.fingerprint.rotate_left((self.runs % 63) as u32);
        self.violations += report.violations.len() as u64;
    }
}

fn faults_by_kind(plan: &CampaignPlan) -> BTreeMap<&'static str, u64> {
    let mut m = BTreeMap::new();
    for f in &plan.faults {
        let k = match f.kind {
            FaultKind::Crash(_) => "crash",
            FaultKind::Recover(_) => "recover",
            FaultKind::Partition(_) => "partition",
            FaultKind::Heal => "heal",
        };
        *m.entry(k).or_insert(0) += 1;
    }
    m
}

fn write_artifact(dir: &Path, plan: &CampaignPlan, suffix: &str) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("seed-{}{suffix}.seed", plan.seed));
    std::fs::write(&path, plan.to_text())?;
    Ok(path)
}

/// Handles one violating plan: report, shrink, write artifacts.
fn handle_violation(plan: &CampaignPlan, report: &RunReport, opts: &Options, totals: &mut Totals) {
    eprintln!("seed {}: {} violation(s):", plan.seed, report.violations.len());
    for v in &report.violations {
        eprintln!("  {v}");
    }
    match write_artifact(&opts.artifact_dir, plan, "") {
        Ok(p) => eprintln!("  full plan: {}", p.display()),
        Err(e) => eprintln!("  (could not write artifact: {e})"),
    }
    let (small, sstats) = shrink(plan, opts.shrink_budget);
    totals.shrink_runs += u64::from(sstats.runs);
    totals.shrink_removed += (sstats.removed_faults + sstats.removed_ops) as u64;
    eprintln!(
        "  shrunk: {} faults + {} ops removed in {} runs ({} ops, {} faults remain)",
        sstats.removed_faults,
        sstats.removed_ops,
        sstats.runs,
        small.ops.len(),
        small.faults.len()
    );
    match write_artifact(&opts.artifact_dir, &small, "-min") {
        Ok(p) => eprintln!(
            "  minimized plan: {}\n  replay with: cargo run -p fab-torture -- --replay {}",
            p.display(),
            p.display()
        ),
        Err(e) => eprintln!("  (could not write minimized artifact: {e})"),
    }
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

fn write_bench(path: &Path, opts: &Options, totals: &Totals, fault_kinds: &BTreeMap<&str, u64>, elapsed_s: f64) -> std::io::Result<()> {
    let mut s = String::from("{\n");
    s.push_str("  \"bench\": \"torture\",\n");
    s.push_str(&format!("  \"seed_base\": {},\n", opts.seed_base));
    s.push_str(&format!("  \"runs\": {},\n", totals.runs));
    s.push_str(&format!("  \"elapsed_s\": {elapsed_s:.3},\n"));
    s.push_str(&format!(
        "  \"runs_per_s\": {:.1},\n",
        if elapsed_s > 0.0 { totals.runs as f64 / elapsed_s } else { 0.0 }
    ));
    s.push_str(&format!("  \"ops_invoked\": {},\n", totals.ops_invoked));
    s.push_str(&format!("  \"ops_completed\": {},\n", totals.ops_completed));
    s.push_str(&format!("  \"ops_committed\": {},\n", totals.ops_committed));
    s.push_str(&format!("  \"ops_aborted\": {},\n", totals.ops_aborted));
    s.push_str("  \"faults_injected\": {\n");
    s.push_str(&format!("    \"crash\": {},\n", totals.crashes));
    s.push_str(&format!("    \"recover\": {},\n", totals.recoveries));
    s.push_str(&format!("    \"partition\": {},\n", totals.partitions));
    s.push_str(&format!("    \"heal\": {}\n", totals.heals));
    s.push_str("  },\n");
    s.push_str("  \"planned_faults_by_kind\": {");
    let mut first = true;
    for (k, v) in fault_kinds {
        if !first {
            s.push(',');
        }
        first = false;
        s.push_str(&format!("\n    \"{}\": {v}", json_escape(k)));
    }
    s.push_str("\n  },\n");
    s.push_str("  \"repair\": {\n");
    s.push_str(&format!("    \"wipes\": {},\n", totals.wipes));
    s.push_str(&format!("    \"completed\": {},\n", totals.repairs_completed));
    s.push_str(&format!(
        "    \"stripes_repaired\": {},\n",
        totals.repair_stripes_repaired
    ));
    s.push_str(&format!(
        "    \"stripes_skipped\": {},\n",
        totals.repair_stripes_skipped
    ));
    s.push_str(&format!("    \"fastpath_probes\": {}\n", totals.fastpath_probes));
    s.push_str("  },\n");
    s.push_str(&format!("  \"histories_checked\": {},\n", totals.histories_checked));
    s.push_str(&format!("  \"sim_events\": {},\n", totals.events));
    s.push_str(&format!("  \"requests_probed\": {},\n", totals.requests_probed));
    s.push_str(&format!("  \"violations\": {},\n", totals.violations));
    s.push_str(&format!(
        "  \"determinism_mismatches\": {},\n",
        totals.determinism_mismatches
    ));
    s.push_str("  \"shrink\": {\n");
    s.push_str(&format!("    \"candidate_runs\": {},\n", totals.shrink_runs));
    s.push_str(&format!("    \"events_removed\": {}\n", totals.shrink_removed));
    s.push_str("  },\n");
    s.push_str("  \"differential\": {\n");
    s.push_str(&format!("    \"runs\": {},\n", totals.diff_runs));
    s.push_str(&format!("    \"ops_issued\": {},\n", totals.diff_ops));
    s.push_str(&format!("    \"faults_applied\": {},\n", totals.diff_faults));
    s.push_str(&format!("    \"violations\": {}\n", totals.diff_violations));
    s.push_str("  },\n");
    s.push_str(&format!("  \"fingerprint\": \"{:016x}\"\n", totals.fingerprint));
    s.push_str("}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, s)
}

fn run_replay(path: &Path, opts: &Options) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("fab-torture: cannot read {}: {e}", path.display());
            return ExitCode::from(2);
        }
    };
    let plan = match CampaignPlan::parse(&text) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("fab-torture: cannot parse {}: {e}", path.display());
            return ExitCode::from(2);
        }
    };
    let report = run_plan(&plan);
    println!(
        "replay seed {}: {} ops invoked, {} completed, fingerprint {:016x}",
        plan.seed, report.stats.ops_invoked, report.stats.ops_completed, report.stats.fingerprint
    );
    if report.is_clean() {
        println!("clean: no violations");
        if opts.expect_violation {
            eprintln!("fab-torture: --expect-violation, but the replay was clean");
            return ExitCode::FAILURE;
        }
        ExitCode::SUCCESS
    } else {
        for v in &report.violations {
            println!("violation: {v}");
        }
        if opts.expect_violation {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

#[allow(clippy::too_many_lines)]
fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_options(&args) {
        Ok(o) => o,
        Err(e) => {
            if e == "help" {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("fab-torture: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &opts.replay {
        return run_replay(path, &opts);
    }

    let started = Instant::now();
    let mut totals = Totals::default();
    let mut fault_kinds: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut first_violation_at: Option<u64> = None;

    for i in 0..opts.runs {
        let seed = opts.seed_base.wrapping_add(i);
        let plan = generate(seed);
        for (k, v) in faults_by_kind(&plan) {
            *fault_kinds.entry(k).or_insert(0) += v;
        }
        let report = run_plan(&plan);
        totals.absorb(&report);

        if opts.check_determinism {
            let again = run_plan(&plan);
            if again.stats != report.stats
                || again.violation_kinds() != report.violation_kinds()
            {
                totals.determinism_mismatches += 1;
                eprintln!(
                    "seed {seed}: NON-DETERMINISTIC (fingerprints {:016x} vs {:016x})",
                    report.stats.fingerprint, again.stats.fingerprint
                );
            }
        }

        if !report.is_clean() {
            first_violation_at.get_or_insert(i + 1);
            if opts.expect_violation {
                // Mutation smoke: one caught violation is the goal —
                // report how many seeds it took and stop.
                println!(
                    "violation detected after {} seed(s) (seed {seed}): {}",
                    i + 1,
                    report.violations.first().map_or("", |v| v.as_str())
                );
                let elapsed = started.elapsed().as_secs_f64();
                let _ = write_bench(&opts.bench_out, &opts, &totals, &fault_kinds, elapsed);
                return ExitCode::SUCCESS;
            }
            handle_violation(&plan, &report, &opts, &mut totals);
        }

        if i < opts.differential {
            match run_differential(&plan) {
                Ok(diff) => {
                    totals.diff_runs += 1;
                    totals.diff_ops += diff.ops_issued;
                    totals.diff_faults += diff.faults_applied;
                    totals.diff_violations += diff.violations.len() as u64;
                    if !diff.is_clean() {
                        eprintln!("seed {seed}: socket differential violations:");
                        for v in &diff.violations {
                            eprintln!("  {v}");
                        }
                    }
                }
                Err(e) => eprintln!("seed {seed}: differential skipped: {e}"),
            }
        }

        if (i + 1) % 1000 == 0 {
            eprintln!(
                "[{}/{}] {} events, {} ops, {} violations, fingerprint {:016x}",
                i + 1,
                opts.runs,
                totals.events,
                totals.ops_invoked,
                totals.violations,
                totals.fingerprint
            );
        }
    }

    let elapsed = started.elapsed().as_secs_f64();
    if let Err(e) = write_bench(&opts.bench_out, &opts, &totals, &fault_kinds, elapsed) {
        eprintln!("fab-torture: cannot write {}: {e}", opts.bench_out.display());
    }
    println!(
        "{} runs in {elapsed:.2}s: {} ops invoked, {} completed ({} committed), {} faults, {} histories checked, {} requests probed, fingerprint {:016x}",
        totals.runs,
        totals.ops_invoked,
        totals.ops_completed,
        totals.ops_committed,
        totals.crashes + totals.recoveries + totals.partitions + totals.heals,
        totals.histories_checked,
        totals.requests_probed,
        totals.fingerprint
    );

    if opts.expect_violation {
        eprintln!(
            "fab-torture: --expect-violation, but {} seed(s) all ran clean",
            opts.runs
        );
        return ExitCode::FAILURE;
    }
    if totals.violations > 0 || totals.determinism_mismatches > 0 {
        eprintln!(
            "fab-torture: {} violation(s), {} determinism mismatch(es)",
            totals.violations, totals.determinism_mismatches
        );
        return ExitCode::FAILURE;
    }
    println!("clean: strict linearizability and all invariant probes held");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn default_options() {
        let o = parse_options(&[]).unwrap();
        assert_eq!(o.runs, 1000);
        assert_eq!(o.seed_base, FIXED_SEED_BASE);
        assert!(!o.check_determinism);
    }

    #[test]
    fn parses_flags() {
        let o = parse_options(&sv(&[
            "--runs", "42", "--seed-base", "7", "--check-determinism",
            "--expect-violation", "--differential", "3",
            "--artifact-dir", "/tmp/x", "--shrink-budget", "10",
        ]))
        .unwrap();
        assert_eq!(o.runs, 42);
        assert_eq!(o.seed_base, 7);
        assert!(o.check_determinism);
        assert!(o.expect_violation);
        assert_eq!(o.differential, 3);
        assert_eq!(o.artifact_dir, PathBuf::from("/tmp/x"));
        assert_eq!(o.shrink_budget, 10);
    }

    #[test]
    fn fixed_seed_base_keyword() {
        let o = parse_options(&sv(&["--seed-base", "fixed"])).unwrap();
        assert_eq!(o.seed_base, FIXED_SEED_BASE);
    }

    #[test]
    fn rejects_unknown_flags_and_missing_values() {
        assert!(parse_options(&sv(&["--bogus"])).is_err());
        assert!(parse_options(&sv(&["--runs"])).is_err());
        assert!(parse_options(&sv(&["--runs", "xyz"])).is_err());
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
