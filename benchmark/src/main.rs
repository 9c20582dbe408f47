//! The repository benchmark: four loopback-cluster workloads measured from
//! outside the crates. See `README.md` beside this package.
//!
//! ```text
//! fab-benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1>   one pass (the driver's form)
//! fab-benchmark --seed <u64> [--traced] [--out <file>]                      all four workloads
//! fab-benchmark --smoke                                                     every code path, under a minute
//! fab-benchmark --compare <a.json> <b.json>                                 two result files against the bounds
//! ```

mod cluster;
mod gen;
mod host;
mod json;
mod layers;
mod report;
mod run;
mod span;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use json::Json;
use report::Report;
use run::Options;

/// `run_seconds` in `BENCHMARK.json`: the timed window of one run.
pub const DEFAULT_SECONDS: u64 = 12;
/// Untimed warm-up before the window (connections, buffer pools, log files).
const WARMUP: Duration = Duration::from_secs(1);
/// The window is cut into three slices; rates and medians are the median
/// of the three and their min–max is the within-run spread.
const SLICES: usize = 3;
/// Set-up runs five times per run; `setup_s` is the median.
const SETUPS: usize = 5;
/// A steady workload ends with three rounds of sweep and idle rebuild.
const IDLE_REBUILDS: usize = 3;
/// Ops the layer walk replays.
const WALK_OPS: usize = 400;

const DEFAULT_STORE_ROOT: &str = "benchmark/target/store";
const OUT_DIR: &str = "benchmark/out";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    traced: bool,
    smoke: bool,
    out: Option<PathBuf>,
    store_root: PathBuf,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: false,
        smoke: false,
        out: None,
        store_root: PathBuf::from(DEFAULT_STORE_ROOT),
        compare: None,
    };
    let mut it = argv.iter();
    let value = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(&mut it, flag)?),
            "--seed" => {
                args.seed = value(&mut it, flag)?
                    .parse()
                    .map_err(|_| "--seed takes a u64".to_string())?;
            }
            "--seconds" => {
                args.seconds = value(&mut it, flag)?
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or("--seconds takes a whole number from 1 to 600")?;
            }
            "--trace" => {
                args.traced = match value(&mut it, flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                };
            }
            "--traced" => args.traced = true,
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(PathBuf::from(value(&mut it, flag)?)),
            "--store-root" => args.store_root = PathBuf::from(value(&mut it, flag)?),
            "--compare" => {
                let a = PathBuf::from(value(&mut it, flag)?);
                let b = PathBuf::from(value(&mut it, flag)?);
                args.compare = Some((a, b));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn options(args: &Args, workload: &str) -> Options {
    let (warmup, window, walk_ops) = if args.smoke {
        (
            Duration::from_millis(500),
            Duration::from_secs(SLICES as u64),
            50,
        )
    } else {
        (WARMUP, Duration::from_secs(args.seconds), WALK_OPS)
    };
    Options {
        seed: args.seed,
        warmup,
        window,
        slices: SLICES,
        setups: if args.smoke { 1 } else { SETUPS },
        idle_rebuilds: if args.smoke { 1 } else { IDLE_REBUILDS },
        walk_ops,
        // A directory of its own per run, so two runs never share a log.
        store_root: args
            .store_root
            .join(format!("{workload}-{}", std::process::id())),
        out_dir: PathBuf::from(OUT_DIR),
    }
}

/// `--smoke` shrinks every volume to 512 stripes (a 512-stripe rebuild).
fn spec_for(args: &Args, name: &str) -> Result<workload::Spec, String> {
    let spec = workload::find(name).ok_or_else(|| {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload {name}; the workloads are {}",
            names.join(", ")
        )
    })?;
    let mut spec = *spec;
    if args.smoke {
        spec.stripes = spec.stripes.min(512);
        spec.sweep_passes = 1;
    }
    Ok(spec)
}

fn run_pass(args: &Args, name: &str, traced: bool) -> Result<Report, String> {
    let spec = spec_for(args, name)?;
    let opts = options(args, name);
    let outcome = if traced {
        run::traced(&spec, &opts)
    } else {
        run::untraced(&spec, &opts)
    };
    let _ = std::fs::remove_dir_all(&opts.store_root);
    let report = outcome?;
    let errors = report.vocabulary_errors();
    if !errors.is_empty() {
        return Err(errors.join("; "));
    }
    Ok(report)
}

fn result_doc(args: &Args, reports: &[Report]) -> Result<Json, String> {
    std::fs::create_dir_all(&args.store_root).map_err(|e| format!("store root: {e}"))?;
    let fsync = host::fsync_us(&args.store_root).map_err(|e| format!("fsync probe: {e}"))?;
    let run = Json::obj([
        ("seed", Json::Num(args.seed as f64)),
        ("clients", Json::Num(gen::CLIENTS as f64)),
        (
            "window_s",
            Json::Num(if args.smoke {
                SLICES as f64
            } else {
                args.seconds as f64
            }),
        ),
        ("slices", Json::Num(SLICES as f64)),
        (
            "warmup_s",
            Json::Num(if args.smoke {
                0.5
            } else {
                WARMUP.as_secs_f64()
            }),
        ),
        (
            "setups",
            Json::Num(if args.smoke { 1.0 } else { SETUPS as f64 }),
        ),
        ("smoke", Json::Bool(args.smoke)),
    ]);
    Ok(report::result_file(
        host::describe(&args.store_root, fsync),
        run,
        reports,
    ))
}

fn write_out(args: &Args, path: &PathBuf, reports: &[Report]) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let doc = result_doc(args, reports)?;
    std::fs::write(path, doc.render_pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

/// One workload, one pass: the form the driver runs. The last line of
/// stdout is the contract's JSON object.
fn single(args: &Args, name: &str) -> Result<bool, String> {
    let report = run_pass(args, name, args.traced)?;
    if let Some(spec) = workload::find(name) {
        println!("{}: {}", spec.name, spec.why);
    }
    print!("{}", report.render_table());
    if let Some(path) = &args.out {
        write_out(args, path, std::slice::from_ref(&report))?;
        println!("wrote {}", path.display());
    }
    println!("{}", report.contract_line());
    Ok(report.correct)
}

/// Every workload, each pass in a process of its own (peak RSS and CPU
/// time are per process). Each child writes a result file of its own; the
/// parts are merged into one.
fn all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let parts_dir = PathBuf::from(OUT_DIR).join("parts");
    let mut merged: Option<Json> = None;
    let mut all_correct = true;
    for w in &workload::WORKLOADS {
        for traced in [false, true] {
            if traced && !(args.traced || args.smoke) {
                continue;
            }
            let part = parts_dir.join(format!("{}.trace{}.json", w.name, u8::from(traced)));
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", w.name, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--store-root")
                .arg(&args.store_root)
                .arg("--out")
                .arg(&part);
            if args.smoke {
                cmd.arg("--smoke");
            }
            // `status` waits for the child; it prints its own table.
            let status = cmd
                .status()
                .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            all_correct &= status.success();
            let text = std::fs::read_to_string(&part).map_err(|e| {
                format!(
                    "{} (trace {}) left no result file ({status}): {e}",
                    w.name,
                    u8::from(traced)
                )
            })?;
            let doc = json::parse(&text).map_err(|e| format!("{}: {e}", part.display()))?;
            merged = Some(match merged {
                None => doc,
                Some(into) => report::merge_result_files(into, &doc),
            });
        }
    }
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from(OUT_DIR).join("results.json"));
    let merged = merged.ok_or("no workload ran")?;
    std::fs::write(&path, merged.render_pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let _ = std::fs::remove_dir_all(&parts_dir);
    println!("wrote {}", path.display());
    Ok(all_correct)
}

fn compare(a: &PathBuf, b: &PathBuf) -> Result<bool, String> {
    let load = |p: &PathBuf| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let rows = report::compare(&load(a)?, &load(b)?)?;
    print!("{}", report::render_comparison(&rows));
    let exceeded = rows.iter().filter(|r| !r.within_bound()).count();
    println!(
        "{} of {} pairings exceed their bound (b against a = {})",
        exceeded,
        rows.len(),
        a.display()
    );
    Ok(exceeded == 0)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| {
        if let Some((a, b)) = &args.compare {
            compare(a, b)
        } else if let Some(name) = &args.workload {
            single(&args, name)
        } else {
            all(&args)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!(
                "fab-benchmark: outputs were wrong, operations failed, or a bound was exceeded"
            );
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("fab-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
