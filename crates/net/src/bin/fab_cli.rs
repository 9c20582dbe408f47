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
use std::io::{self, Write};
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

fn write_block(out: &mut impl Write, j: u32, v: &BlockValue) -> io::Result<()> {
    match v {
        BlockValue::Bottom => writeln!(out, "block {j}: (bottom)"),
        BlockValue::Nil => writeln!(out, "block {j}: (nil)"),
        BlockValue::Data(b) => {
            let text = String::from_utf8_lossy(b);
            writeln!(out, "block {j}: {:?}", text.trim_end_matches('\0'))
        }
    }
}

/// Prints `op`'s result, labelling each block with the index `op` asked
/// for.
fn write_result(out: &mut impl Write, op: &ClientOp, result: &OpResult) -> io::Result<()> {
    match (op, result) {
        (_, OpResult::Written) => writeln!(out, "ok: written"),
        (_, OpResult::Stripe(StripeValue::Nil)) => writeln!(out, "stripe: (nil — never written)"),
        (_, OpResult::Stripe(StripeValue::Data(blocks))) => (0u32..)
            .zip(blocks)
            .try_for_each(|(j, b)| write_block(out, j, &BlockValue::Data(b.clone()))),
        (ClientOp::ReadBlock { j, .. }, OpResult::Block(v)) => write_block(out, *j, v),
        (ClientOp::ReadBlocks { js, .. }, OpResult::Blocks(vs)) => js
            .iter()
            .zip(vs)
            .try_for_each(|(j, v)| write_block(out, *j, v)),
        (_, other) => writeln!(out, "result: {other:?}"),
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

/// The parsed operand of `flag`; both ways to fail name the flag.
fn value<T: std::str::FromStr<Err: std::fmt::Display>>(
    it: &mut std::slice::Iter<'_, String>,
    flag: &str,
    what: &str,
) -> Result<T, String> {
    let operand = it.next().ok_or(format!("{flag} needs {what}"))?;
    operand.parse().map_err(|e| format!("{flag}: {e}"))
}

/// Parses `argv` (program name already stripped) into a [`Cli`]. Pure:
/// no sockets are touched and no I/O happens; errors are human-readable
/// one-liners later paired with [`USAGE`].
fn parse_args(argv: &[String]) -> Result<Cli, String> {
    let mut cluster: Option<Vec<SocketAddr>> = None;
    let mut m: Option<usize> = None;
    let mut block_size: Option<usize> = None;
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
            "--m" => m = Some(value(&mut it, arg, "a stripe width")?),
            "--block-size" => block_size = Some(value(&mut it, arg, "a byte count")?),
            "--stripes" => stripes = Some(value(&mut it, arg, "a stripe count")?),
            "--stripes-per-sec" => stripes_per_sec = value(&mut it, arg, "a rate")?,
            "--bytes-per-sec" => bytes_per_sec = value(&mut it, arg, "a rate")?,
            "--max-inflight" => max_inflight = value(&mut it, arg, "a count")?,
            "--node" => node = value(&mut it, arg, "a brick index")?,
            "--all" => all = true,
            "--watch" => watch = true,
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

fn write_progress(out: &mut impl Write, p: &RepairProgress) -> io::Result<()> {
    let state = if p.running {
        "running"
    } else if p.complete {
        "complete"
    } else if p.planned > 0 {
        "stopped (incomplete)"
    } else {
        "idle (no repair started)"
    };
    writeln!(out, "repair: {state}")?;
    writeln!(
        out,
        "  stripes: {} planned, {} repaired, {} skipped, {} failed ({} retries)",
        p.planned, p.repaired, p.skipped, p.failed, p.retried
    )?;
    writeln!(
        out,
        "  watermark {} / bytes reconstructed {} / throttle waits {}",
        p.watermark, p.bytes_reconstructed, p.throttle_waits
    )?;
    writeln!(
        out,
        "  scrub latency: p50 {}us, p99 {}us",
        p.scrub_p50_micros, p.scrub_p99_micros
    )
}

/// Renders a [`StatsReport`] in the same text exposition format as
/// `fab_obs::Snapshot::render`, prefixed with the answering node.
fn write_stats(out: &mut impl Write, report: &fab_wire::StatsReport) -> io::Result<()> {
    writeln!(out, "node {}", report.node)?;
    for e in &report.counters {
        writeln!(out, "counter {} {}", e.name, e.value)?;
    }
    for e in &report.gauges {
        writeln!(out, "gauge {} {}", e.name, e.value)?;
    }
    for h in &report.histograms {
        writeln!(
            out,
            "histogram {} count={} p50={} p95={} p99={}",
            h.name, h.count, h.p50, h.p95, h.p99
        )?;
    }
    Ok(())
}

/// Why a run did not finish: a usage or cluster error to report, or the
/// output stream failing under us.
#[derive(Debug)]
enum Failure {
    Cli(String),
    Output(io::Error),
}

impl From<String> for Failure {
    fn from(message: String) -> Self {
        Failure::Cli(message)
    }
}

impl From<io::Error> for Failure {
    fn from(e: io::Error) -> Self {
        Failure::Output(e)
    }
}

/// One admin exchange with `node`; a refusal or an unreachable brick is
/// the run's error message.
fn admin(client: &mut NetClient, node: usize, op: &AdminOp) -> Result<AdminResponse, Failure> {
    Ok(client.try_admin(node, op).map_err(|e| e.to_string())?)
}

fn unexpected(reply: &AdminResponse) -> Failure {
    Failure::Cli(format!("unexpected reply: {reply:?}"))
}

fn run(argv: &[String], out: &mut impl Write) -> Result<(), Failure> {
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
            let result = client.invoke(op.clone()).map_err(|e| e.to_string())?;
            write_result(out, &op, &result)?;
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
            match admin(&mut client, node, &op)? {
                AdminResponse::Started => writeln!(out, "ok: repair started on node {node}")?,
                other => return Err(unexpected(&other)),
            }
        }
        Command::RepairStatus { node } => match admin(&mut client, node, &AdminOp::RepairStatus)? {
            AdminResponse::Status(p) => write_progress(out, &p)?,
            other => return Err(unexpected(&other)),
        },
        Command::RepairAbort { node } => match admin(&mut client, node, &AdminOp::RepairAbort)? {
            AdminResponse::Aborted => writeln!(out, "ok: repair aborted on node {node}")?,
            other => return Err(unexpected(&other)),
        },
        Command::Stats { node, watch } => loop {
            match admin(&mut client, node, &AdminOp::StatsSnapshot)? {
                AdminResponse::Stats(report) => write_stats(out, &report)?,
                other => return Err(unexpected(&other)),
            }
            if !watch {
                break;
            }
            writeln!(out)?;
            std::thread::sleep(std::time::Duration::from_secs(2));
        },
    }
    Ok(())
}

/// The process's exit status: 0 when the run finished — or when its
/// reader went away first (`fab-cli … | head -1`), since nobody is left to
/// tell — and 2, after a message on stderr, otherwise.
fn exit_code(outcome: Result<(), Failure>) -> u8 {
    match outcome {
        Ok(()) => 0,
        Err(Failure::Output(e)) if e.kind() == io::ErrorKind::BrokenPipe => 0,
        Err(Failure::Output(e)) => {
            eprintln!("fab-cli: stdout: {e}");
            2
        }
        Err(Failure::Cli(e)) => {
            eprintln!("fab-cli: {e}\n{USAGE}");
            2
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = run(&argv, &mut io::stdout().lock());
    ExitCode::from(exit_code(outcome))
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

    #[test]
    fn blocks_are_labelled_with_the_requested_indices() {
        let printed = |op: &ClientOp, result: &OpResult| {
            let mut out = Vec::new();
            write_result(&mut out, op, result).unwrap();
            String::from_utf8(out).unwrap()
        };
        let block = |text: &str| BlockValue::Data(pad(text, 8));
        assert_eq!(
            printed(&ClientOp::read_block(StripeId(7), 2), &OpResult::Block(block("two"))),
            "block 2: \"two\"\n"
        );
        assert_eq!(
            printed(
                &ClientOp::read_blocks(StripeId(7), vec![1, 3]),
                &OpResult::Blocks(vec![block("one"), BlockValue::Nil]),
            ),
            "block 1: \"one\"\nblock 3: (nil)\n"
        );
        // A whole stripe is still numbered from its first block.
        assert_eq!(
            printed(
                &ClientOp::read_stripe(StripeId(7)),
                &OpResult::Stripe(StripeValue::Data(vec![pad("a", 8), pad("b", 8)])),
            ),
            "block 0: \"a\"\nblock 1: \"b\"\n"
        );
    }

    /// A stdout whose reader has gone (`fab-cli … | head -1`).
    struct ClosedPipe;

    impl Write for ClosedPipe {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(io::ErrorKind::BrokenPipe.into())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_closed_stdout_ends_the_run_quietly_with_exit_0() {
        let op = ClientOp::read_block(StripeId(0), 0);
        let outcome = write_result(&mut ClosedPipe, &op, &OpResult::Written).map_err(Failure::from);
        assert!(matches!(&outcome, Err(Failure::Output(e)) if e.kind() == io::ErrorKind::BrokenPipe));
        assert_eq!(exit_code(outcome), 0);
        // Any other failure of the stream, or of the run, is exit 2.
        assert_eq!(exit_code(Err(io::Error::other("disk full").into())), 2);
        assert_eq!(exit_code(run(&sv(&["read-stripe", "1"]), &mut ClosedPipe)), 2);
        assert_eq!(exit_code(Ok(())), 0);
    }
}
