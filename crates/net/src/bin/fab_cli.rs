//! `fab-cli` — command-line client for a FAB brick cluster.
//!
//! ```text
//! fab-cli --cluster HOST:PORT,... --m M --block-size BYTES COMMAND ...
//!
//! commands:
//!   write-stripe STRIPE TEXT     write TEXT (zero-padded) across the stripe
//!   read-stripe  STRIPE          read and print the whole stripe
//!   write-block  STRIPE J TEXT   write TEXT (zero-padded) into block J
//!   read-block   STRIPE J        read and print block J
//!   scrub        STRIPE          recover + rewrite the stripe everywhere
//!   repair BRICK --stripes N     rebuild a replaced brick's stripes
//!   repair --all --stripes N     full-volume scrub
//!   repair-status                progress of the running repair
//!   repair-abort                 stop the running repair
//!   stats                        one node's metrics registry dump
//! ```
//!
//! Repair verbs accept `--stripes-per-sec R`, `--bytes-per-sec B`, and
//! `--max-inflight K` throttles, and `--node I` to pick the brick that
//! orchestrates (default 0). `repair-status`/`repair-abort` must target
//! the same node the repair was started on.
//!
//! `stats [--node I] [--watch]` dumps the target brick's metrics
//! registry in a text exposition format (one `counter|gauge|histogram
//! name value...` line per instrument); `--watch` re-polls every two
//! seconds until interrupted.
//!
//! `--cluster`, `--m`, and `--block-size` must match the running `fabd`
//! processes. Any brick can coordinate any operation; the client rotates
//! and fails over automatically.
//!
//! Argument parsing ([`parse_args`]) is a pure function, separated from
//! execution so the error paths are unit-testable without sockets.

use bytes::Bytes;
use fab_core::{
    BlockValue, ClientOp, OpResult, RegisterClient, RegisterConfig, StripeId, StripeValue,
};
use fab_net::NetClient;
use fab_wire::{AdminOp, AdminResponse, RepairProgress};
use std::net::SocketAddr;
use std::process::ExitCode;

const USAGE: &str = "usage: fab-cli --cluster HOST:PORT,... --m M --block-size BYTES COMMAND ...
commands:
  write-stripe STRIPE TEXT
  read-stripe  STRIPE
  write-block  STRIPE J TEXT
  read-block   STRIPE J
  scrub        STRIPE
  repair BRICK --stripes N [--stripes-per-sec R] [--bytes-per-sec B] [--max-inflight K] [--node I]
  repair --all --stripes N [throttles...] [--node I]
  repair-status [--node I]
  repair-abort  [--node I]
  stats [--node I] [--watch]";

/// A parsed invocation: connection parameters plus one command.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Cli {
    cluster: Vec<SocketAddr>,
    m: usize,
    block_size: usize,
    command: Command,
}

/// What a repair rebuilds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RepairTarget {
    /// The stripes hosted by one replaced/wiped brick.
    Brick(u32),
    /// Every stripe of the volume (`--all`).
    All,
}

/// The operation to run against the cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Command {
    /// A register operation, payloads already padded to the block size.
    Data(ClientOp),
    Repair {
        target: RepairTarget,
        stripes: u64,
        stripes_per_sec: u64,
        bytes_per_sec: u64,
        max_inflight: u32,
        node: usize,
    },
    RepairStatus { node: usize },
    RepairAbort { node: usize },
    Stats { node: usize, watch: bool },
}

fn pad(text: &str, len: usize) -> Bytes {
    let mut buf = text.as_bytes().to_vec();
    buf.resize(len, 0);
    Bytes::from(buf)
}

/// `text` zero-padded and spread across a stripe's m·block_size bytes.
fn stripe_text(text: &str, m: usize, block_size: usize) -> Vec<Bytes> {
    let full = pad(text, m * block_size);
    (0..m)
        .map(|j| full.slice(j * block_size..(j + 1) * block_size))
        .collect()
}

fn print_block(j: usize, v: &BlockValue) {
    match v {
        BlockValue::Bottom => println!("block {j}: (bottom)"),
        BlockValue::Nil => println!("block {j}: (nil)"),
        BlockValue::Data(b) => {
            let text = String::from_utf8_lossy(b);
            println!("block {j}: {:?}", text.trim_end_matches('\0'));
        }
    }
}

fn print_result(result: &OpResult) {
    match result {
        OpResult::Written => println!("ok: written"),
        OpResult::Stripe(StripeValue::Nil) => println!("stripe: (nil — never written)"),
        OpResult::Stripe(StripeValue::Data(blocks)) => {
            for (j, b) in blocks.iter().enumerate() {
                print_block(j, &BlockValue::Data(b.clone()));
            }
        }
        OpResult::Block(v) => print_block(0, v),
        OpResult::Blocks(vs) => {
            for (j, v) in vs.iter().enumerate() {
                print_block(j, v);
            }
        }
        other => println!("result: {other:?}"),
    }
}

fn stripe_arg(s: &str) -> Result<StripeId, String> {
    s.parse::<u64>()
        .map(StripeId)
        .map_err(|e| format!("stripe id: {e}"))
}

fn index_arg(s: &str) -> Result<usize, String> {
    s.parse::<usize>().map_err(|e| format!("block index: {e}"))
}

/// Parses `argv` (program name already stripped) into a [`Cli`]. Pure:
/// no sockets are touched and no I/O happens; errors are human-readable
/// one-liners later paired with [`USAGE`].
fn parse_args(argv: &[String]) -> Result<Cli, String> {
    let mut cluster: Option<Vec<SocketAddr>> = None;
    let mut m = None;
    let mut block_size = None;
    let mut stripes: Option<u64> = None;
    let mut stripes_per_sec = 0u64;
    let mut bytes_per_sec = 0u64;
    let mut max_inflight = 4u32;
    let mut all = false;
    let mut watch = false;
    let mut node = 0usize;
    let mut rest: Vec<&String> = Vec::new();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--cluster" => {
                let addrs: Result<Vec<SocketAddr>, _> = it
                    .next()
                    .ok_or("--cluster needs an address list")?
                    .split(',')
                    .map(str::parse)
                    .collect();
                cluster = Some(addrs.map_err(|e| format!("--cluster: {e}"))?);
            }
            "--m" => {
                m = Some(
                    it.next()
                        .ok_or("--m needs a stripe width")?
                        .parse::<usize>()
                        .map_err(|e| format!("--m: {e}"))?,
                );
            }
            "--block-size" => {
                block_size = Some(
                    it.next()
                        .ok_or("--block-size needs a byte count")?
                        .parse::<usize>()
                        .map_err(|e| format!("--block-size: {e}"))?,
                );
            }
            "--stripes" => {
                stripes = Some(
                    it.next()
                        .ok_or("--stripes needs a stripe count")?
                        .parse::<u64>()
                        .map_err(|e| format!("--stripes: {e}"))?,
                );
            }
            "--stripes-per-sec" => {
                stripes_per_sec = it
                    .next()
                    .ok_or("--stripes-per-sec needs a rate")?
                    .parse::<u64>()
                    .map_err(|e| format!("--stripes-per-sec: {e}"))?;
            }
            "--bytes-per-sec" => {
                bytes_per_sec = it
                    .next()
                    .ok_or("--bytes-per-sec needs a rate")?
                    .parse::<u64>()
                    .map_err(|e| format!("--bytes-per-sec: {e}"))?;
            }
            "--max-inflight" => {
                max_inflight = it
                    .next()
                    .ok_or("--max-inflight needs a count")?
                    .parse::<u32>()
                    .map_err(|e| format!("--max-inflight: {e}"))?;
            }
            "--all" => all = true,
            "--watch" => watch = true,
            "--node" => {
                node = it
                    .next()
                    .ok_or("--node needs a brick index")?
                    .parse::<usize>()
                    .map_err(|e| format!("--node: {e}"))?;
            }
            _ => rest.push(arg),
        }
    }
    let cluster = cluster.ok_or("--cluster is required")?;
    let m = m.ok_or("--m is required")?;
    let block_size = block_size.ok_or("--block-size is required")?;
    if node >= cluster.len() {
        return Err(format!(
            "--node {node} is out of range for a {}-brick cluster",
            cluster.len()
        ));
    }

    // A closure, not computed eagerly: only the repair verbs need it.
    let repair_command = |target: RepairTarget| -> Result<Command, String> {
        let stripes =
            stripes.ok_or("--stripes is required for repair (the volume's stripe count)")?;
        Ok(Command::Repair {
            target,
            stripes,
            stripes_per_sec,
            bytes_per_sec,
            max_inflight,
            node,
        })
    };

    let command = match rest.as_slice() {
        [cmd, brick] if cmd.as_str() == "repair" => {
            if all {
                return Err(
                    "conflicting arguments: give a BRICK operand or --all, not both".to_string()
                );
            }
            let brick = brick
                .parse::<u32>()
                .map_err(|e| format!("brick id: {e}"))?;
            repair_command(RepairTarget::Brick(brick))?
        }
        [cmd] if cmd.as_str() == "repair" => {
            if !all {
                return Err("repair needs a BRICK operand or --all".to_string());
            }
            repair_command(RepairTarget::All)?
        }
        [cmd] if cmd.as_str() == "repair-status" => Command::RepairStatus { node },
        [cmd] if cmd.as_str() == "repair-abort" => Command::RepairAbort { node },
        [cmd] if cmd.as_str() == "stats" => Command::Stats { node, watch },
        [cmd, stripe, text] if cmd.as_str() == "write-stripe" => Command::Data(
            ClientOp::write_stripe(stripe_arg(stripe)?, stripe_text(text, m, block_size)),
        ),
        [cmd, stripe] if cmd.as_str() == "read-stripe" => {
            Command::Data(ClientOp::read_stripe(stripe_arg(stripe)?))
        }
        [cmd, stripe, j, text] if cmd.as_str() == "write-block" => Command::Data(
            ClientOp::write_block(stripe_arg(stripe)?, index_arg(j)?, pad(text, block_size)),
        ),
        [cmd, stripe, j] if cmd.as_str() == "read-block" => {
            Command::Data(ClientOp::read_block(stripe_arg(stripe)?, index_arg(j)?))
        }
        [cmd, stripe] if cmd.as_str() == "scrub" => {
            Command::Data(ClientOp::scrub(stripe_arg(stripe)?))
        }
        [] => return Err("a command is required".to_string()),
        _ => return Err("unknown or malformed command".to_string()),
    };
    Ok(Cli {
        cluster,
        m,
        block_size,
        command,
    })
}

fn print_progress(p: &RepairProgress) {
    let state = if p.running {
        "running"
    } else if p.complete {
        "complete"
    } else if p.planned > 0 {
        "stopped (incomplete)"
    } else {
        "idle (no repair started)"
    };
    println!("repair: {state}");
    println!(
        "  stripes: {} planned, {} repaired, {} skipped, {} failed ({} retries)",
        p.planned, p.repaired, p.skipped, p.failed, p.retried
    );
    println!(
        "  watermark {} / bytes reconstructed {} / throttle waits {}",
        p.watermark, p.bytes_reconstructed, p.throttle_waits
    );
    println!(
        "  scrub latency: p50 {}us, p99 {}us",
        p.scrub_p50_micros, p.scrub_p99_micros
    );
}

/// Renders a [`StatsReport`] in the same text exposition format as
/// `fab_obs::Snapshot::render`, prefixed with the answering node.
fn print_stats(report: &fab_wire::StatsReport) {
    println!("node {}", report.node);
    for e in &report.counters {
        println!("counter {} {}", e.name, e.value);
    }
    for e in &report.gauges {
        println!("gauge {} {}", e.name, e.value);
    }
    for h in &report.histograms {
        println!(
            "histogram {} count={} p50={} p95={} p99={}",
            h.name, h.count, h.p50, h.p95, h.p99
        );
    }
}

fn run(argv: &[String]) -> Result<(), String> {
    let cli = parse_args(argv)?;
    let Cli {
        cluster,
        m,
        block_size,
        command,
    } = cli;
    let cfg = RegisterConfig::new(m, cluster.len(), block_size)
        .map_err(|e| format!("invalid configuration: {e}"))?;
    let mut client = NetClient::connect(cluster, cfg);

    // Admin verbs talk to one specific node and print their own replies;
    // a data verb is one `invoke` whose OpResult is printed.
    match command {
        Command::Data(op) => {
            let result = client.invoke(op).map_err(|e| e.to_string())?;
            print_result(&result);
            Ok(())
        }
        Command::Repair {
            target,
            stripes,
            stripes_per_sec,
            bytes_per_sec,
            max_inflight,
            node,
        } => {
            let (brick, scrub_all) = match target {
                RepairTarget::Brick(b) => (b, false),
                RepairTarget::All => (0, true),
            };
            let op = AdminOp::RepairStart {
                brick,
                stripe_count: stripes,
                stripes_per_sec,
                bytes_per_sec,
                max_inflight,
                scrub_all,
            };
            match client.try_admin(node, &op) {
                Ok(AdminResponse::Started) => {
                    println!("ok: repair started on node {node}");
                    Ok(())
                }
                Ok(other) => Err(format!("unexpected reply: {other:?}")),
                Err(e) => Err(e.to_string()),
            }
        }
        Command::RepairStatus { node } => match client.try_admin(node, &AdminOp::RepairStatus) {
            Ok(AdminResponse::Status(p)) => {
                print_progress(&p);
                Ok(())
            }
            Ok(other) => Err(format!("unexpected reply: {other:?}")),
            Err(e) => Err(e.to_string()),
        },
        Command::RepairAbort { node } => match client.try_admin(node, &AdminOp::RepairAbort) {
            Ok(AdminResponse::Aborted) => {
                println!("ok: repair aborted on node {node}");
                Ok(())
            }
            Ok(other) => Err(format!("unexpected reply: {other:?}")),
            Err(e) => Err(e.to_string()),
        },
        Command::Stats { node, watch } => loop {
            match client.try_admin(node, &AdminOp::StatsSnapshot) {
                Ok(AdminResponse::Stats(report)) => print_stats(&report),
                Ok(other) => return Err(format!("unexpected reply: {other:?}")),
                Err(e) => return Err(e.to_string()),
            }
            if !watch {
                return Ok(());
            }
            println!();
            std::thread::sleep(std::time::Duration::from_secs(2));
        },
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fab-cli: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_string()).collect()
    }

    const BASE: &[&str] = &[
        "--cluster",
        "127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003",
        "--m",
        "2",
        "--block-size",
        "64",
    ];

    fn with_base(extra: &[&str]) -> Vec<String> {
        let mut v = sv(BASE);
        v.extend(sv(extra));
        v
    }

    #[test]
    fn parses_every_command() {
        let cases: &[(&[&str], Command)] = &[
            (
                &["write-stripe", "3", "hello"],
                Command::Data(ClientOp::write_stripe(
                    StripeId(3),
                    stripe_text("hello", 2, 64),
                )),
            ),
            (
                &["read-stripe", "9"],
                Command::Data(ClientOp::read_stripe(StripeId(9))),
            ),
            (
                &["write-block", "1", "0", "x"],
                Command::Data(ClientOp::write_block(StripeId(1), 0, pad("x", 64))),
            ),
            (
                &["read-block", "4", "1"],
                Command::Data(ClientOp::read_block(StripeId(4), 1)),
            ),
            (&["scrub", "0"], Command::Data(ClientOp::scrub(StripeId(0)))),
        ];
        for (args, want) in cases {
            let cli = parse_args(&with_base(args)).expect("parse");
            assert_eq!(&cli.command, want);
            assert_eq!(cli.cluster.len(), 3);
            assert_eq!(cli.m, 2);
            assert_eq!(cli.block_size, 64);
        }
    }

    #[test]
    fn flags_may_follow_the_command() {
        let cli = parse_args(&sv(&[
            "read-stripe", "7", "--cluster", "10.0.0.1:9000", "--m", "1",
            "--block-size", "16",
        ]))
        .expect("parse");
        assert_eq!(
            cli.command,
            Command::Data(ClientOp::read_stripe(StripeId(7)))
        );
        assert_eq!(cli.cluster.len(), 1);
    }

    #[test]
    fn missing_required_flags_are_reported_by_name() {
        let err = parse_args(&sv(&["read-stripe", "1"])).unwrap_err();
        assert!(err.contains("--cluster"), "{err}");
        let err = parse_args(&sv(&[
            "--cluster", "127.0.0.1:7001", "read-stripe", "1",
        ]))
        .unwrap_err();
        assert!(err.contains("--m"), "{err}");
        let err = parse_args(&sv(&[
            "--cluster", "127.0.0.1:7001", "--m", "1", "read-stripe", "1",
        ]))
        .unwrap_err();
        assert!(err.contains("--block-size"), "{err}");
    }

    #[test]
    fn flag_values_must_parse() {
        let err = parse_args(&with_base(&[])).unwrap_err(); // no command
        assert!(err.contains("command"), "{err}");
        let err = parse_args(&sv(&["--cluster", "not-an-addr"])).unwrap_err();
        assert!(err.starts_with("--cluster"), "{err}");
        let err = parse_args(&sv(&[
            "--cluster", "127.0.0.1:7001,also-bad", "--m", "1", "--block-size", "8",
            "scrub", "0",
        ]))
        .unwrap_err();
        assert!(err.starts_with("--cluster"), "{err}");
        let err = parse_args(&sv(&["--m", "two"])).unwrap_err();
        assert!(err.starts_with("--m"), "{err}");
        let err = parse_args(&sv(&["--block-size", "-1"])).unwrap_err();
        assert!(err.starts_with("--block-size"), "{err}");
    }

    #[test]
    fn dangling_flags_need_values() {
        for flag in ["--cluster", "--m", "--block-size"] {
            let err = parse_args(&sv(&[flag])).unwrap_err();
            assert!(err.contains(flag), "{err}");
        }
    }

    #[test]
    fn malformed_commands_are_rejected() {
        for bad in [
            &["frobnicate", "1"][..],
            &["write-stripe", "1"],          // missing TEXT
            &["read-stripe"],                // missing STRIPE
            &["read-block", "1"],            // missing J
            &["write-block", "1", "0"],      // missing TEXT
            &["scrub", "1", "extra"],        // trailing operand
        ] {
            let err = parse_args(&with_base(bad)).unwrap_err();
            assert!(
                err.contains("command"),
                "args {bad:?} gave unexpected error: {err}"
            );
        }
    }

    #[test]
    fn operand_parse_errors_name_the_operand() {
        let err = parse_args(&with_base(&["read-stripe", "xyz"])).unwrap_err();
        assert!(err.contains("stripe id"), "{err}");
        let err = parse_args(&with_base(&["read-block", "1", "q"])).unwrap_err();
        assert!(err.contains("block index"), "{err}");
    }

    #[test]
    fn padding_is_zero_filled_and_sized() {
        let b = pad("hi", 8);
        assert_eq!(&b[..], b"hi\0\0\0\0\0\0");
    }

    #[test]
    fn parses_repair_verbs() {
        let cli = parse_args(&with_base(&[
            "repair", "2", "--stripes", "1024", "--stripes-per-sec", "50",
            "--bytes-per-sec", "1048576", "--max-inflight", "8", "--node", "1",
        ]))
        .expect("parse");
        assert_eq!(
            cli.command,
            Command::Repair {
                target: RepairTarget::Brick(2),
                stripes: 1024,
                stripes_per_sec: 50,
                bytes_per_sec: 1_048_576,
                max_inflight: 8,
                node: 1,
            }
        );

        let cli = parse_args(&with_base(&["repair", "--all", "--stripes", "64"])).expect("parse");
        assert_eq!(
            cli.command,
            Command::Repair {
                target: RepairTarget::All,
                stripes: 64,
                stripes_per_sec: 0,
                bytes_per_sec: 0,
                max_inflight: 4,
                node: 0,
            }
        );

        let cli = parse_args(&with_base(&["repair-status", "--node", "2"])).expect("parse");
        assert_eq!(cli.command, Command::RepairStatus { node: 2 });
        let cli = parse_args(&with_base(&["repair-abort"])).expect("parse");
        assert_eq!(cli.command, Command::RepairAbort { node: 0 });
    }

    #[test]
    fn parses_stats_verb() {
        let cli = parse_args(&with_base(&["stats"])).expect("parse");
        assert_eq!(
            cli.command,
            Command::Stats {
                node: 0,
                watch: false
            }
        );
        let cli = parse_args(&with_base(&["stats", "--node", "2", "--watch"])).expect("parse");
        assert_eq!(
            cli.command,
            Command::Stats {
                node: 2,
                watch: true
            }
        );
        // The node bound applies to stats like every admin verb.
        let err = parse_args(&with_base(&["stats", "--node", "9"])).unwrap_err();
        assert!(err.contains("--node"), "{err}");
        // Trailing operands are malformed.
        let err = parse_args(&with_base(&["stats", "extra"])).unwrap_err();
        assert!(err.contains("command"), "{err}");
    }

    #[test]
    fn repair_rejects_a_bad_brick_id() {
        let err = parse_args(&with_base(&["repair", "banana", "--stripes", "8"])).unwrap_err();
        assert!(err.contains("brick id"), "{err}");
        let err = parse_args(&with_base(&["repair", "-1", "--stripes", "8"])).unwrap_err();
        assert!(err.contains("brick id"), "{err}");
    }

    #[test]
    fn repair_requires_the_volume_size() {
        let err = parse_args(&with_base(&["repair", "2"])).unwrap_err();
        assert!(err.contains("--stripes"), "{err}");
        let err = parse_args(&with_base(&["repair", "--all"])).unwrap_err();
        assert!(err.contains("--stripes"), "{err}");
    }

    #[test]
    fn repair_rejects_conflicting_target_flags() {
        let err =
            parse_args(&with_base(&["repair", "2", "--all", "--stripes", "8"])).unwrap_err();
        assert!(err.contains("conflicting"), "{err}");
        // A bare `repair` names neither target.
        let err = parse_args(&with_base(&["repair"])).unwrap_err();
        assert!(err.contains("BRICK") && err.contains("--all"), "{err}");
    }

    #[test]
    fn repair_node_must_be_in_the_cluster() {
        let err = parse_args(&with_base(&["repair-status", "--node", "9"])).unwrap_err();
        assert!(err.contains("--node"), "{err}");
        let err = parse_args(&with_base(&["repair-status", "--node", "x"])).unwrap_err();
        assert!(err.contains("--node"), "{err}");
    }
}
