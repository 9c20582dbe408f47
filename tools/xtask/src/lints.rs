//! The protocol-aware lints.
//!
//! Rule-ID map (see DESIGN.md "Static analysis & invariant enforcement"):
//!
//! | ID  | lint name                  | invariant                                          |
//! |-----|----------------------------|----------------------------------------------------|
//! | L1  | `no-panic`                 | protocol paths never panic                          |
//! | L1b | `no-untrusted-index`       | handler code never `[]`-indexes untrusted lengths   |
//! | L2  | `determinism`              | simnet-driven crates are bit-for-bit deterministic  |
//! | L3  | `unsafe-audit`             | `unsafe` confined to the erasure kernel + SAFETY    |
//! | L4  | `timestamp-discipline`     | timestamps compared only as whole values            |
//! | L5  | `no-as-truncation`         | no `as` integer casts in quorum/timestamp math      |
//! | L6  | `log-before-send`          | replies leave a persistence trace before sending    |
//! | L7  | `lock-order`               | nested lock acquisitions follow the canonical order |
//! | L8  | `no-blocking-on-event-loop`| nothing reachable from an event-loop entry blocks   |
//! | L9  | `untrusted-length-taint`   | wire lengths are guarded before sizing allocations  |
//!
//! L1–L6 and L9 are per-file passes; L7 and L8 run over the whole-workspace
//! call graph ([`crate::graph::Workspace`]). Every lint honours
//! `// xtask-allow(<name>): <reason>` on the flagged line or the line above
//! (recorded as a *suppressed* diagnostic, which feeds stale-allow
//! detection), and skips `#[cfg(test)]` modules entirely.

use crate::graph::Workspace;
use crate::lexer::{is_ident_byte, word_occurrences};
use crate::model::{LockClass, SourceFile};

/// One reported violation. `suppressed` diagnostics matched an
/// `xtask-allow` directive: they don't fail the run, but they are kept so
/// `--json` can expose them and so an allow that suppresses *nothing* can
/// be detected as stale.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub path: String,
    pub line: usize,
    pub lint: &'static str,
    pub msg: String,
    pub suppressed: bool,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.lint, self.msg)
    }
}

/// A lint is either a per-file pass or a whole-workspace pass over the
/// call graph.
pub enum Check {
    File(fn(&SourceFile, &mut Vec<Diagnostic>)),
    Workspace(fn(&Workspace, &mut Vec<Diagnostic>)),
}

pub struct Lint {
    pub id: &'static str,
    pub rule: &'static str,
    pub desc: &'static str,
    pub check: Check,
}

pub fn registry() -> Vec<Lint> {
    vec![
        Lint {
            id: "no-panic",
            rule: "L1",
            desc: "no unwrap/expect/panic!/unreachable!/todo! in fab-core/fab-simnet protocol code, \
                   fab-wire decode paths, fab-net reader/server threads, or fab-obs instruments",
            check: Check::File(no_panic),
        },
        Lint {
            id: "no-untrusted-index",
            rule: "L1b",
            desc: "no non-literal [] indexing inside message/state-machine handler or wire-decode functions",
            check: Check::File(no_untrusted_index),
        },
        Lint {
            id: "determinism",
            rule: "L2",
            desc: "no wall clocks, OS entropy, threads, or hash-order iteration in simnet-driven crates",
            check: Check::File(determinism),
        },
        Lint {
            id: "unsafe-audit",
            rule: "L3",
            desc: "unsafe only in fab-erasure kernel modules, each block with a SAFETY: comment",
            check: Check::File(unsafe_audit),
        },
        Lint {
            id: "timestamp-discipline",
            rule: "L4",
            desc: "no field-wise timestamp comparison outside fab-timestamp (whole-value Ord only)",
            check: Check::File(timestamp_discipline),
        },
        Lint {
            id: "no-as-truncation",
            rule: "L5",
            desc: "no `as` integer casts in quorum/timestamp arithmetic (use From/TryFrom)",
            check: Check::File(no_as_truncation),
        },
        Lint {
            id: "log-before-send",
            rule: "L6",
            desc: "fab-core sends must be preceded by a persistence/log call in the same function",
            check: Check::File(log_before_send),
        },
        Lint {
            id: "lock-order",
            rule: "L7",
            desc: "nested lock acquisitions follow the canonical rank order declared in model.rs",
            check: Check::Workspace(lock_order),
        },
        Lint {
            id: "no-blocking-on-event-loop",
            rule: "L8",
            desc: "no fsync/channel-wait/lock-wait reachable from the brick host's event-loop entries",
            check: Check::Workspace(no_blocking_on_event_loop),
        },
        Lint {
            id: "untrusted-length-taint",
            rule: "L9",
            desc: "wire-decoded lengths guarded before Vec::with_capacity/vec!/slice-range sinks",
            check: Check::File(untrusted_length_taint),
        },
    ]
}

/// Run every per-file lint (plus allow-directive hygiene) over one file.
pub fn check_file(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for line in &file.malformed_allows {
        out.push(Diagnostic {
            path: file.path.clone(),
            line: *line,
            lint: "malformed-allow",
            msg: "xtask-allow directive must be `xtask-allow(<lint>): <reason>` with a non-empty reason".into(),
            suppressed: false,
        });
    }
    for lint in registry() {
        if let Check::File(check) = lint.check {
            check(file, out);
        }
    }
}

/// Run every workspace lint over the call graph.
pub fn check_workspace(w: &Workspace, out: &mut Vec<Diagnostic>) {
    for lint in registry() {
        if let Check::Workspace(check) = lint.check {
            check(w, out);
        }
    }
}

/// Satellite: detect `xtask-allow` directives that no longer suppress any
/// diagnostic (including currently-suppressed ones), so suppressions can't
/// rot after refactors. Allows inside `#[cfg(test)]` modules are skipped —
/// test code is outside lint scope, so nothing there can match. Call after
/// *all* lints (file + workspace) have run over `file`.
pub fn stale_allows(file: &SourceFile, diags: &[Diagnostic], out: &mut Vec<Diagnostic>) {
    for a in &file.allows {
        if file.line_in_test(a.line) {
            continue;
        }
        let used = diags.iter().any(|d| {
            d.path == file.path && d.lint == a.lint && (d.line == a.line || d.line == a.line + 1)
        });
        if !used {
            out.push(Diagnostic {
                path: file.path.clone(),
                line: a.line,
                lint: "stale-allow",
                msg: format!(
                    "xtask-allow({}) suppresses nothing (reason was: {}); remove it or fix the rule id",
                    a.lint, a.reason
                ),
                suppressed: false,
            });
        }
    }
}

// ---------------------------------------------------------------- scoping --

fn in_core(p: &str) -> bool {
    p.starts_with("crates/core/src/")
}

fn in_simnet(p: &str) -> bool {
    p.starts_with("crates/simnet/src/")
}

/// Crates whose execution is driven by the deterministic simulator and must
/// therefore replay bit-for-bit from a seed.
fn simnet_driven(p: &str) -> bool {
    in_core(p) || in_simnet(p) || p.starts_with("crates/quorum/src/")
}

fn kernel_file(p: &str) -> bool {
    p == "crates/erasure/src/kernel.rs" || p.starts_with("crates/erasure/src/kernel/")
}

/// Untrusted-input surfaces added by the TCP transport: the whole wire
/// codec (every byte it reads came off a socket), the fab-net threads
/// that sit between sockets and the protocol, and the brick host whose
/// event loop they feed (a panic there kills a brick, which the fault
/// model only tolerates as a *counted* crash).
fn untrusted_input(p: &str) -> bool {
    p.starts_with("crates/wire/src/")
        || p == "crates/net/src/transport.rs"
        || p == "crates/net/src/server.rs"
        || p == "crates/runtime/src/host.rs"
}

/// The commit path runs on the brick's event loop and holds the only
/// handle to its durable log; a panic there kills the brick. The host
/// fences on failure, but the discipline is the same as for protocol code:
/// typed errors, never panics.
fn commit_path(p: &str) -> bool {
    p == "crates/store/src/commit.rs"
}

/// The repair subsystem: a panic in the planner, driver, or cursor kills a
/// rebuild mid-flight and strands the degraded stripe set, so it is held
/// to the protocol bar (typed errors, never panics).
fn in_repair(p: &str) -> bool {
    p.starts_with("crates/repair/src/")
}

/// The sans-io slice of fab-repair (everything but the threaded in-process
/// harness, which legitimately reads wall clocks): the torture engine
/// replays the driver on simulated time, so it must stay deterministic.
fn repair_sans_io(p: &str) -> bool {
    in_repair(p) && p != "crates/repair/src/inproc.rs"
}

/// The observability substrate: instruments are recorded from protocol hot
/// paths (a panic in `Counter::inc` kills a coordinator mid-op) and from
/// the deterministic torture engine (a wall-clock or hash-order read would
/// break seed replay), so fab-obs is held to both bars.
fn in_obs(p: &str) -> bool {
    p.starts_with("crates/obs/src/")
}

// ---------------------------------------------------------------- helpers --

fn push(
    file: &SourceFile,
    out: &mut Vec<Diagnostic>,
    lint: &'static str,
    off: usize,
    msg: String,
) {
    let line = file.line_of(off);
    if file.in_test(off) {
        return;
    }
    out.push(Diagnostic {
        path: file.path.clone(),
        line,
        lint,
        msg,
        suppressed: file.allowed(lint, line),
    });
}

/// Occurrences of `.word` (method-call position) in the masked text.
fn method_occurrences(file: &SourceFile, word: &str) -> Vec<usize> {
    let b = file.masked.as_bytes();
    word_occurrences(&file.masked, word)
        .into_iter()
        .filter(|&off| off > 0 && b[off - 1] == b'.')
        .collect()
}

/// First non-whitespace byte at or after `off`, with its offset.
fn next_token_byte(text: &str, mut off: usize) -> Option<(usize, u8)> {
    let b = text.as_bytes();
    while off < b.len() {
        if !(b[off] as char).is_whitespace() {
            return Some((off, b[off]));
        }
        off += 1;
    }
    None
}

// ---------------------------------------------------------------- L1 -------

fn no_panic(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !(in_core(&file.path)
        || in_simnet(&file.path)
        || untrusted_input(&file.path)
        || commit_path(&file.path)
        || in_repair(&file.path)
        || in_obs(&file.path))
    {
        return;
    }
    for mac in ["panic", "unreachable", "todo", "unimplemented"] {
        for off in word_occurrences(&file.masked, mac) {
            let b = file.masked.as_bytes();
            let after = off + mac.len();
            if after < b.len() && b[after] == b'!' {
                push(
                    file,
                    out,
                    "no-panic",
                    off,
                    format!("`{mac}!` in protocol code; return a typed error instead"),
                );
            }
        }
    }
    for meth in ["unwrap", "expect"] {
        for off in method_occurrences(file, meth) {
            push(
                file,
                out,
                "no-panic",
                off,
                format!("`.{meth}()` in protocol code; use `?`, `unwrap_or`, or a typed error"),
            );
        }
    }
}

// ---------------------------------------------------------------- L1b ------

/// Handler functions: the message/state-machine entry points named by the
/// protocol (`on_*`, `handle*`, `progress_*`, `invoke`, `start_*`) in fab-core's
/// coordinator/replica/brick and fab-simnet's event loop, plus the
/// wire-format decoders (`decode*`, `get_*`, `read_*`) whose every input
/// byte is attacker-controlled.
fn handler_fn(name: &str) -> bool {
    name.starts_with("on_")
        || name.starts_with("handle")
        || name.starts_with("progress_")
        || name == "invoke"
        || name.starts_with("start_")
        || name.starts_with("decode")
        || name.starts_with("get_")
        || name.starts_with("read_")
}

fn no_untrusted_index(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let scoped = matches!(
        file.path.as_str(),
        "crates/core/src/coordinator.rs"
            | "crates/core/src/replica.rs"
            | "crates/core/src/brick.rs"
            | "crates/simnet/src/sim.rs"
            | "crates/wire/src/codec.rs"
            | "crates/wire/src/frame.rs"
            | "crates/net/src/transport.rs"
            | "crates/net/src/server.rs"
            | "crates/runtime/src/host.rs"
            | "crates/store/src/commit.rs"
            | "crates/repair/src/planner.rs"
            | "crates/repair/src/driver.rs"
            | "crates/repair/src/cursor.rs"
    );
    if !scoped {
        return;
    }
    let b = file.masked.as_bytes();
    for f in &file.fns {
        if !handler_fn(&f.name) || f.body.is_empty() {
            continue;
        }
        let body = &file.masked[f.body.clone()];
        let base = f.body.start;
        let bytes = body.as_bytes();
        let mut i = 0usize;
        while i < bytes.len() {
            if bytes[i] == b'[' {
                let prev = base + i;
                // Indexing requires an expression before `[`: ident, `)`, `]`.
                let is_index = prev > 0
                    && (is_ident_byte(b[prev - 1]) || b[prev - 1] == b')' || b[prev - 1] == b']');
                if is_index {
                    // Find matching `]` at depth 1.
                    let mut depth = 1usize;
                    let mut j = i + 1;
                    while j < bytes.len() && depth > 0 {
                        match bytes[j] {
                            b'[' => depth += 1,
                            b']' => depth -= 1,
                            _ => {}
                        }
                        j += 1;
                    }
                    let inner = body[i + 1..j.saturating_sub(1)].trim();
                    let literal = !inner.is_empty() && inner.bytes().all(|c| c.is_ascii_digit());
                    let range = inner.contains("..");
                    if !literal && !range {
                        push(
                            file,
                            out,
                            "no-untrusted-index",
                            prev,
                            format!(
                                "non-literal index `[{inner}]` in handler `{}`; use .get()/.get_mut() and refuse malformed input",
                                f.name
                            ),
                        );
                    }
                    i = j;
                    continue;
                }
            }
            i += 1;
        }
    }
}

// ---------------------------------------------------------------- L2 -------

fn determinism(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !(simnet_driven(&file.path) || repair_sans_io(&file.path) || in_obs(&file.path)) {
        return;
    }
    let cases: &[(&str, &str)] = &[
        ("Instant", "wall-clock time; use Effects::now() / simulated time"),
        ("SystemTime", "wall-clock time; use Effects::now() / simulated time"),
        ("thread_rng", "OS entropy; use the seeded Effects::rand_u64()"),
        ("HashMap", "hash-order iteration is nondeterministic; use BTreeMap"),
        ("HashSet", "hash-order iteration is nondeterministic; use BTreeSet"),
    ];
    for (word, why) in cases {
        for off in word_occurrences(&file.masked, word) {
            push(
                file,
                out,
                "determinism",
                off,
                format!("`{word}` in simnet-driven crate: {why}"),
            );
        }
    }
    // thread::spawn / std::thread
    for off in word_occurrences(&file.masked, "spawn") {
        let before = &file.masked[..off];
        if before.ends_with("thread::") {
            push(
                file,
                out,
                "determinism",
                off,
                "OS threads in simnet-driven crate break deterministic replay".to_string(),
            );
        }
    }
}

// ---------------------------------------------------------------- L3 -------

fn unsafe_audit(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for off in word_occurrences(&file.masked, "unsafe") {
        // `unsafe_code` / `unsafe_op_in_unsafe_fn` lint names are excluded by
        // word boundaries already; attribute text like `deny(unsafe_code)`
        // never contains the bare word.
        let line = file.line_of(off);
        if !kernel_file(&file.path) {
            push(
                file,
                out,
                "unsafe-audit",
                off,
                "`unsafe` outside crates/erasure kernel modules".to_string(),
            );
        } else {
            // An `unsafe fn` declaration states its caller contract in a
            // `# Safety` doc section, which may sit above the 3-line window
            // that suffices for `unsafe { .. }` blocks.
            let after = file.masked.get(off + 6..).unwrap_or("").trim_start();
            let is_decl = after.starts_with("fn")
                && !after.as_bytes().get(2).copied().is_some_and(is_ident_byte);
            if is_decl && file.fn_has_safety_doc(line) {
                continue;
            }
            if !file.has_safety_comment(line) {
                push(
                    file,
                    out,
                    "unsafe-audit",
                    off,
                    "`unsafe` without a `// SAFETY:` comment in the preceding 3 lines \
                     (or a `# Safety` doc section for an `unsafe fn`)"
                        .to_string(),
                );
            }
        }
    }
}

// ---------------------------------------------------------------- L4 -------

fn timestamp_discipline(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if file.path.starts_with("crates/timestamp/src/") {
        return;
    }
    for meth in ["ticks", "pid"] {
        for off in method_occurrences(file, meth) {
            // Only flag when the component value flows straight into a
            // comparison: `.ticks() <`, `.pid() ==`, `.ticks().cmp(`, etc.
            let b = file.masked.as_bytes();
            let mut call_end = off + meth.len();
            // skip `()`
            if let Some((p, b'(')) = next_token_byte(&file.masked, call_end) {
                let mut depth = 0usize;
                let mut j = p;
                while j < b.len() {
                    match b[j] {
                        b'(' => depth += 1,
                        b')' => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                call_end = j + 1;
            } else {
                continue; // field access or different method — not ours
            }
            let tail = file.masked[call_end.min(file.masked.len())..].trim_start();
            let compared = tail.starts_with("==")
                || tail.starts_with("!=")
                || tail.starts_with("<=")
                || tail.starts_with(">=")
                || (tail.starts_with('<') && !tail.starts_with("<<"))
                || (tail.starts_with('>') && !tail.starts_with(">>"))
                || tail.starts_with(".cmp(")
                || tail.starts_with(".min(")
                || tail.starts_with(".max(");
            if compared {
                push(
                    file,
                    out,
                    "timestamp-discipline",
                    off,
                    format!(
                        "comparison on `.{meth}()` component; compare whole `Timestamp` values (derived lexicographic Ord)"
                    ),
                );
            }
        }
    }
}

// ---------------------------------------------------------------- L5 -------

const INT_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

fn no_as_truncation(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let scoped = file.path.starts_with("crates/quorum/src/")
        || file.path.starts_with("crates/timestamp/src/");
    if !scoped {
        return;
    }
    for off in word_occurrences(&file.masked, "as") {
        let after = &file.masked[off + 2..];
        let trimmed = after.trim_start();
        let Some(ty) = INT_TYPES.iter().find(|t| {
            trimmed.starts_with(**t)
                && trimmed[t.len()..]
                    .bytes()
                    .next()
                    .is_none_or(|b| !is_ident_byte(b))
        }) else {
            continue;
        };
        push(
            file,
            out,
            "no-as-truncation",
            off,
            format!("`as {ty}` cast in quorum/timestamp arithmetic; use From/TryFrom (or justify with xtask-allow)"),
        );
    }
}

// ---------------------------------------------------------------- L6 -------

/// Tokens that count as "a persistence/log action happened" before a send.
/// This is intentionally a heuristic (documented in DESIGN.md): the protocol
/// invariant is that a replica's reply must not leave the brick before the
/// corresponding `PersistEvent` is durably recorded (paper §4, crash
/// recovery), and the replica funnels every state change through
/// `Replica::handle` / the log/persist APIs.
const PERSIST_MARKERS: &[&str] = &["persist", "log", "store", "record", "handle"];

fn log_before_send(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !in_core(&file.path) {
        return;
    }
    for f in &file.fns {
        if f.body.is_empty() {
            continue;
        }
        let sends: Vec<usize> = method_occurrences(file, "send")
            .into_iter()
            .filter(|off| f.body.contains(off))
            .filter(|off| file.enclosing_fn(*off).map(|e| e.start) == Some(f.start))
            .collect();
        let Some(&first_send) = sends.first() else {
            continue;
        };
        let prefix = &file.masked[f.body.start..first_send];
        let persisted = PERSIST_MARKERS
            .iter()
            .any(|m| !word_occurrences(prefix, m).is_empty());
        if !persisted {
            push(
                file,
                out,
                "log-before-send",
                first_send,
                format!(
                    "`send` in `{}` with no preceding persistence/log call in the same function",
                    f.name
                ),
            );
        }
    }
}

// ---------------------------------------------------------------- L7 -------

use std::collections::BTreeMap;

fn class_of(path: &str, receiver: &str) -> Option<&'static LockClass> {
    crate::model::LOCK_CLASSES
        .iter()
        .find(|c| c.receiver == receiver && path.starts_with(c.file_prefix))
}

fn rank_of(class_key: &str) -> Option<u32> {
    crate::model::LOCK_CLASSES
        .iter()
        .find(|c| c.class == class_key)
        .map(|c| c.rank)
}

/// Lock-class keys (class name, or `?receiver` for undeclared receivers)
/// transitively acquired by each workspace fn, each with a human witness
/// string. Cycle-safe DFS with memoization.
fn acquired_classes(w: &Workspace) -> Vec<BTreeMap<String, String>> {
    fn visit(
        w: &Workspace,
        i: usize,
        memo: &mut Vec<Option<BTreeMap<String, String>>>,
        on_stack: &mut Vec<bool>,
    ) -> BTreeMap<String, String> {
        if let Some(done) = &memo[i] {
            return done.clone();
        }
        if on_stack[i] {
            return BTreeMap::new(); // cycle: resolved by the other frames
        }
        on_stack[i] = true;
        let f = &w.fns[i];
        let file = &w.files[f.file];
        let mut acc = BTreeMap::new();
        for l in &f.locks {
            let key = match class_of(&file.path, &l.receiver) {
                Some(c) => c.class.to_string(),
                None => format!("?{}", l.receiver),
            };
            acc.entry(key).or_insert_with(|| {
                format!(
                    "`{}` locked in `{}` ({}:{})",
                    l.receiver,
                    f.qual,
                    file.path,
                    file.line_of(l.offset)
                )
            });
        }
        for c in &f.calls {
            for t in w.resolve(i, c) {
                for (key, witness) in visit(w, t, memo, on_stack) {
                    acc.entry(key)
                        .or_insert_with(|| format!("{} → {witness}", w.fns[t].qual));
                }
            }
        }
        on_stack[i] = false;
        memo[i] = Some(acc.clone());
        acc
    }
    let mut memo = vec![None; w.fns.len()];
    let mut on_stack = vec![false; w.fns.len()];
    (0..w.fns.len())
        .map(|i| visit(w, i, &mut memo, &mut on_stack))
        .collect()
}

/// L7: every *nested* acquisition (a lock taken — directly or via any
/// resolvable call — while another guard is live) must move strictly
/// *down* the canonical rank order in `model.rs`. Rank violations and
/// same-class re-entry are flagged; since the declared order is total,
/// any cycle in the acquired-under graph necessarily contains a flagged
/// edge. Undeclared receivers are flagged only when they participate in
/// nesting — a standalone lock of a local mutex is not an ordering hazard.
fn lock_order(w: &Workspace, out: &mut Vec<Diagnostic>) {
    let acquired = acquired_classes(w);
    let mut local = Vec::new();
    for (fi, f) in w.fns.iter().enumerate() {
        let file = &w.files[f.file];
        for l in &f.locks {
            let outer = class_of(&file.path, &l.receiver);
            let outer_key = match outer {
                Some(c) => c.class.to_string(),
                None => format!("?{}", l.receiver),
            };
            let mut inner_sites: Vec<(usize, String, String)> = Vec::new(); // (offset, key, how)
            for l2 in &f.locks {
                if l2.offset > l.offset && l.scope.contains(&l2.offset) {
                    let key = match class_of(&file.path, &l2.receiver) {
                        Some(c) => c.class.to_string(),
                        None => format!("?{}", l2.receiver),
                    };
                    inner_sites.push((l2.offset, key, format!("`{}.lock()`", l2.receiver)));
                }
            }
            for c in &f.calls {
                if c.offset > l.offset && l.scope.contains(&c.offset) {
                    for t in w.resolve(fi, c) {
                        for (key, witness) in &acquired[t] {
                            inner_sites.push((
                                c.offset,
                                key.clone(),
                                format!("call `{}` → {witness}", c.callee),
                            ));
                        }
                    }
                }
            }
            for (off, inner_key, how) in inner_sites {
                let msg = match (rank_of(&outer_key), rank_of(&inner_key)) {
                    (None, _) => format!(
                        "undeclared lock class `{}` held in `{}` while acquiring `{inner_key}` ({how}); \
                         declare it in LOCK_CLASSES (tools/xtask/src/model.rs)",
                        l.receiver, f.qual
                    ),
                    (_, None) => format!(
                        "undeclared lock class acquired under `{outer_key}` in `{}` ({how}); \
                         declare it in LOCK_CLASSES (tools/xtask/src/model.rs)",
                        f.qual
                    ),
                    (Some(ro), Some(ri)) if ri <= ro => format!(
                        "lock order violation in `{}`: `{inner_key}` (rank {ri}) acquired while \
                         holding `{outer_key}` (rank {ro}) via {how}; the canonical order requires \
                         strictly increasing rank",
                        f.qual
                    ),
                    _ => continue,
                };
                push(file, &mut local, "lock-order", off, msg);
            }
        }
    }
    local.sort_by(|a, b| (&a.path, a.line, &a.msg).cmp(&(&b.path, b.line, &b.msg)));
    local.dedup();
    out.append(&mut local);
}

// ---------------------------------------------------------------- L8 -------

/// Witness of the first blocking operation transitively reachable from
/// each fn (`None` = provably non-blocking under the model). Locks on
/// classes declared `bounded` do not count.
fn blocking_witnesses(w: &Workspace) -> Vec<Option<String>> {
    fn visit(
        w: &Workspace,
        i: usize,
        memo: &mut Vec<Option<Option<String>>>,
        on_stack: &mut Vec<bool>,
    ) -> Option<String> {
        if let Some(done) = &memo[i] {
            return done.clone();
        }
        if on_stack[i] {
            return None;
        }
        on_stack[i] = true;
        let f = &w.fns[i];
        let file = &w.files[f.file];
        let mut res: Option<String> = f.blocking.first().map(|b| {
            format!("`{}` ({}:{})", b.what, file.path, file.line_of(b.offset))
        });
        if res.is_none() {
            res = f
                .locks
                .iter()
                .find(|l| !class_of(&file.path, &l.receiver).is_some_and(|c| c.bounded))
                .map(|l| {
                    format!(
                        "lock-wait on `{}` ({}:{})",
                        l.receiver,
                        file.path,
                        file.line_of(l.offset)
                    )
                });
        }
        if res.is_none() {
            'calls: for c in &f.calls {
                for t in w.resolve(i, c) {
                    if let Some(inner) = visit(w, t, memo, on_stack) {
                        res = Some(format!("{} → {inner}", w.fns[t].qual));
                        break 'calls;
                    }
                }
            }
        }
        on_stack[i] = false;
        memo[i] = Some(res.clone());
        res
    }
    let mut memo = vec![None; w.fns.len()];
    let mut on_stack = vec![false; w.fns.len()];
    (0..w.fns.len())
        .map(|i| visit(w, i, &mut memo, &mut on_stack))
        .collect()
}

/// L8: nothing blocking — fsync, channel wait, unbounded lock-wait, sleep,
/// thread join — may be reachable from a declared event-loop entry point.
/// (The host's one wait on the disk, `Host::commit_turn`, is under `run`.)
/// Diagnostics anchor at the offending site inside the entry itself (so an
/// `xtask-allow` goes next to the decision), with the witness chain.
fn no_blocking_on_event_loop(w: &Workspace, out: &mut Vec<Diagnostic>) {
    let witnesses = blocking_witnesses(w);
    let mut local = Vec::new();
    for (path, qual) in crate::model::EVENT_LOOP_ENTRIES {
        let Some(e) = w.fn_by_qual(path, qual) else {
            continue;
        };
        let f = &w.fns[e];
        let file = &w.files[f.file];
        for b in &f.blocking {
            push(
                file,
                &mut local,
                "no-blocking-on-event-loop",
                b.offset,
                format!(
                    "`{}` blocks event-loop entry `{}`; leave it to the end-of-turn commit or a writer thread",
                    b.what, f.qual
                ),
            );
        }
        for l in &f.locks {
            if class_of(&file.path, &l.receiver).is_some_and(|c| c.bounded) {
                continue;
            }
            push(
                file,
                &mut local,
                "no-blocking-on-event-loop",
                l.offset,
                format!(
                    "lock-wait on `{}` (not a declared bounded class) in event-loop entry `{}`",
                    l.receiver, f.qual
                ),
            );
        }
        for c in &f.calls {
            for t in w.resolve(e, c) {
                if let Some(chain) = &witnesses[t] {
                    push(
                        file,
                        &mut local,
                        "no-blocking-on-event-loop",
                        c.offset,
                        format!(
                            "call to `{}` from event-loop entry `{}` reaches blocking {} → {chain}",
                            c.callee, f.qual, w.fns[t].qual
                        ),
                    );
                    break;
                }
            }
        }
    }
    local.sort_by(|a, b| (&a.path, a.line, &a.msg).cmp(&(&b.path, b.line, &b.msg)));
    local.dedup();
    out.append(&mut local);
}

// ---------------------------------------------------------------- L9 -------

/// Does `text` contain an untrusted-length source expression: a reader
/// method call (`.u32(`), a wire-length field read (`.body_len`), or an
/// integer-from-bytes reconstruction?
fn has_source_expr(text: &str) -> bool {
    let b = text.as_bytes();
    for m in crate::model::TAINT_METHOD_SOURCES {
        for off in word_occurrences(text, m) {
            if off > 0 && b[off - 1] == b'.' {
                let after = off + m.len();
                if next_token_byte(text, after).is_some_and(|(_, c)| c == b'(') {
                    return true;
                }
            }
        }
    }
    for fsrc in crate::model::TAINT_FIELD_SOURCES {
        for off in word_occurrences(text, fsrc) {
            if off > 0 && b[off - 1] == b'.' {
                let after = off + fsrc.len();
                if next_token_byte(text, after).is_none_or(|(_, c)| c != b'(') {
                    return true;
                }
            }
        }
    }
    for wsrc in crate::model::TAINT_WORD_SOURCES {
        if !word_occurrences(text, wsrc).is_empty() {
            return true;
        }
    }
    false
}

/// The single statement around byte `off` of `body` (between the nearest
/// `;`/`{`/`}` boundaries). Coarse, but statements are where guards live.
fn statement_around(body: &str, off: usize) -> &str {
    let b = body.as_bytes();
    let start = (0..off)
        .rev()
        .find(|&i| matches!(b[i], b';' | b'{' | b'}'))
        .map_or(0, |i| i + 1);
    let end = (off..b.len())
        .find(|&i| matches!(b[i], b';' | b'{'))
        .unwrap_or(b.len());
    &body[start..end]
}

/// Does the statement contain a comparison operator? `->`, `=>`, shifts
/// and generic angle brackets are excluded: a bare `<`/`>` only counts
/// when preceded by a space (rustfmt guarantees binary operators are
/// spaced; `Vec<u8>` and `::<` are not).
fn has_comparison(s: &str) -> bool {
    let b = s.as_bytes();
    for i in 0..b.len() {
        match b[i] {
            b'=' | b'!' if i + 1 < b.len() && b[i + 1] == b'=' => return true,
            b'<' | b'>' => {
                if i + 1 < b.len() && b[i + 1] == b'=' {
                    return true;
                }
                let spaced = i > 0 && b[i - 1] == b' ';
                let doubled = i + 1 < b.len() && b[i + 1] == b[i];
                if spaced && !doubled {
                    return true;
                }
            }
            _ => {}
        }
    }
    false
}

/// Does the statement invoke a sanitizing call (`min`, `count`, `take`,
/// `get`, `clamp`, or any `check*`/`ensure*`/`validate*`/`guard*`)?
fn has_guard_call(s: &str) -> bool {
    let b = s.as_bytes();
    let mut i = 0usize;
    while i < b.len() {
        if !is_ident_byte(b[i]) || b[i].is_ascii_digit() {
            i += 1;
            continue;
        }
        let start = i;
        while i < b.len() && is_ident_byte(b[i]) {
            i += 1;
        }
        let name = &s[start..i];
        let guard = crate::model::TAINT_GUARD_CALLS.contains(&name)
            || ["check", "ensure", "validate", "guard"]
                .iter()
                .any(|p| name.starts_with(p));
        if guard && next_token_byte(s, i).is_some_and(|(_, c)| c == b'(') {
            return true;
        }
    }
    false
}

/// Offset one past the bracket matching `open` (`(`/`[`), or `len`.
fn match_bracket(text: &str, open: usize) -> usize {
    let b = text.as_bytes();
    let (o, c) = match b[open] {
        b'(' => (b'(', b')'),
        _ => (b'[', b']'),
    };
    let mut depth = 0usize;
    let mut i = open;
    while i < b.len() {
        if b[i] == o {
            depth += 1;
        } else if b[i] == c {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    b.len()
}

/// L9: in the wire-facing files, a value derived from an untrusted wire
/// length must see a bounds guard (comparison or sanitizing call) before
/// it sizes an allocation (`Vec::with_capacity`, `reserve`, `vec![_; n]`)
/// or slice-range math. This closes the gap L1b leaves open by exempting
/// ranges. Function-local forward pass: `let` bindings whose initializer
/// mentions a source (or an already-tainted variable) become tainted; any
/// statement mentioning the variable alongside a comparison or guard call
/// sanitizes it.
fn untrusted_length_taint(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !crate::model::TAINT_FILES.contains(&file.path.as_str()) {
        return;
    }
    let b_all = file.masked.as_bytes();
    for f in &file.fns {
        if f.body.is_empty() {
            continue;
        }
        let body = &file.masked[f.body.clone()];
        let base = f.body.start;
        let bb = body.as_bytes();

        // Pass 1: tainted `let` bindings, in order, with forward propagation.
        let mut tainted: Vec<String> = Vec::new();
        for off in word_occurrences(body, "let") {
            let mut i = off + 3;
            while i < bb.len() && (bb[i] as char).is_whitespace() {
                i += 1;
            }
            if body[i..].starts_with("mut") && !is_ident_byte(*bb.get(i + 3).unwrap_or(&b'_')) {
                i += 3;
                while i < bb.len() && (bb[i] as char).is_whitespace() {
                    i += 1;
                }
            }
            let name_start = i;
            while i < bb.len() && is_ident_byte(bb[i]) {
                i += 1;
            }
            let name = &body[name_start..i];
            if name.is_empty() || KEYWORD_PATTERNS.contains(&name) {
                continue; // destructuring or non-binding `let`
            }
            // Initializer: from the depth-0 `=` to the depth-0 `;`.
            let mut depth = 0i32;
            let mut eq = None;
            let mut j = i;
            while j < bb.len() {
                match bb[j] {
                    b'(' | b'[' | b'<' => depth += 1,
                    b'>' if j > 0 && bb[j - 1] == b'-' => {}
                    b')' | b']' | b'>' => depth -= 1,
                    b'=' if depth == 0 => {
                        eq = Some(j + 1);
                        break;
                    }
                    b';' | b'{' if depth == 0 => break,
                    _ => {}
                }
                j += 1;
            }
            let Some(rhs_start) = eq else { continue };
            let mut depth = 0i32;
            let mut k = rhs_start;
            while k < bb.len() {
                match bb[k] {
                    b'(' | b'[' | b'{' => depth += 1,
                    b')' | b']' | b'}' => depth -= 1,
                    b';' if depth == 0 => break,
                    _ => {}
                }
                k += 1;
            }
            let rhs = &body[rhs_start..k];
            let from_var = tainted
                .iter()
                .any(|v| !word_occurrences(rhs, v).is_empty());
            if (has_source_expr(rhs) || from_var) && !tainted.iter().any(|v| v == name) {
                tainted.push(name.to_string());
            }
        }

        // Pass 2: drop sanitized variables.
        let live: Vec<String> = tainted
            .into_iter()
            .filter(|v| {
                !word_occurrences(body, v).iter().any(|&off| {
                    let stmt = statement_around(body, off);
                    has_comparison(stmt) || has_guard_call(stmt)
                })
            })
            .collect();

        let flag_args = |args: &str| -> Option<String> {
            if let Some(v) = live.iter().find(|v| !word_occurrences(args, v).is_empty()) {
                return Some(format!("`{v}`"));
            }
            has_source_expr(args).then(|| "(read directly off the wire)".to_string())
        };

        // Pass 3: sinks.
        for sink in crate::model::TAINT_SINK_METHODS {
            for off in word_occurrences(body, sink) {
                let Some((p, b'(')) = next_token_byte(body, off + sink.len()) else {
                    continue;
                };
                let args = &body[p + 1..match_bracket(body, p).saturating_sub(1)];
                if let Some(what) = flag_args(args) {
                    push(
                        file,
                        out,
                        "untrusted-length-taint",
                        base + off,
                        format!(
                            "`{sink}` in `{}` sized by unguarded wire-derived length {what}; \
                             bound it first (compare against a MAX_*, or go through Reader::count/take)",
                            f.name
                        ),
                    );
                }
            }
        }
        for off in word_occurrences(body, "vec") {
            if bb.get(off + 3) != Some(&b'!') {
                continue;
            }
            let Some((p, c)) = next_token_byte(body, off + 4) else {
                continue;
            };
            if c != b'[' && c != b'(' {
                continue;
            }
            let args = &body[p + 1..match_bracket(body, p).saturating_sub(1)];
            if let Some(what) = flag_args(args) {
                push(
                    file,
                    out,
                    "untrusted-length-taint",
                    base + off,
                    format!(
                        "`vec![..]` in `{}` sized by unguarded wire-derived length {what}; \
                         bound it first (compare against a MAX_*, or go through Reader::count/take)",
                        f.name
                    ),
                );
            }
        }
        // Slice-range math: `buf[a..b]` where the range mentions a tainted
        // variable (the range form is exactly what L1b exempts).
        let mut i = 0usize;
        while i < bb.len() {
            if bb[i] == b'[' {
                let abs = base + i;
                let is_index = abs > 0
                    && (is_ident_byte(b_all[abs - 1])
                        || b_all[abs - 1] == b')'
                        || b_all[abs - 1] == b']');
                if is_index {
                    let end = match_bracket(body, i);
                    let inner = &body[i + 1..end.saturating_sub(1)];
                    if inner.contains("..") {
                        if let Some(v) =
                            live.iter().find(|v| !word_occurrences(inner, v).is_empty())
                        {
                            push(
                                file,
                                out,
                                "untrusted-length-taint",
                                abs,
                                format!(
                                    "slice range in `{}` uses unguarded wire-derived length `{v}`; \
                                     bound it first or use .get(..)",
                                    f.name
                                ),
                            );
                        }
                    }
                    i = end;
                    continue;
                }
            }
            i += 1;
        }
    }
}

/// Names that can follow `let` without being a binding we track.
const KEYWORD_PATTERNS: &[&str] = &["else", "_"];

// ---------------------------------------------------------------- tests ----

#[cfg(test)]
mod tests {
    use super::*;

    /// Run one per-file lint; returns only unsuppressed diagnostics (the
    /// historical semantics the fixtures assert against).
    fn run_lint(id: &str, path: &str, src: &str) -> Vec<Diagnostic> {
        run_lint_all(id, path, src)
            .into_iter()
            .filter(|d| !d.suppressed)
            .collect()
    }

    /// Same, but suppressed diagnostics included.
    fn run_lint_all(id: &str, path: &str, src: &str) -> Vec<Diagnostic> {
        let file = SourceFile::parse(path, src);
        let lint = registry()
            .into_iter()
            .find(|l| l.id == id)
            .expect("known lint id");
        let mut out = Vec::new();
        match lint.check {
            Check::File(check) => check(&file, &mut out),
            Check::Workspace(_) => panic!("use run_workspace_lint for {id}"),
        }
        out
    }

    /// Run one workspace lint over a set of (path, source) fixtures;
    /// returns only unsuppressed diagnostics.
    fn run_workspace_lint(id: &str, files: &[(&str, &str)]) -> Vec<Diagnostic> {
        let w = Workspace::build(
            files
                .iter()
                .map(|(p, s)| SourceFile::parse(p, s))
                .collect(),
        );
        let lint = registry()
            .into_iter()
            .find(|l| l.id == id)
            .expect("known lint id");
        let mut out = Vec::new();
        match lint.check {
            Check::Workspace(check) => check(&w, &mut out),
            Check::File(_) => panic!("use run_lint for {id}"),
        }
        out.into_iter().filter(|d| !d.suppressed).collect()
    }

    const CORE: &str = "crates/core/src/coordinator.rs";

    // ------------------------------------------------------------ L1 -------

    #[test]
    fn l1_fires_on_seeded_violations() {
        let src = "\
fn on_reply(&mut self) {
    let op = self.ops.get(&id).expect(\"live op\");
    let ts = op.ts.unwrap();
    match phase {
        Phase::Done => unreachable!(\"no progress after completion\"),
        _ => panic!(\"bad phase\"),
    }
}
";
        let d = run_lint("no-panic", CORE, src);
        assert_eq!(d.len(), 4, "expect/unwrap/unreachable!/panic! all fire: {d:?}");
        assert!(d.iter().all(|x| x.lint == "no-panic"));
        assert_eq!(d[0].path, CORE);
    }

    #[test]
    fn l1_silent_on_clean_code_and_out_of_scope() {
        let clean = "\
fn on_reply(&mut self) -> Result<(), ProtocolError> {
    let op = self.ops.get(&id).ok_or(ProtocolError::UnknownOp(id))?;
    let ts = op.ts.unwrap_or_default();
    Ok(())
}
";
        assert!(run_lint("no-panic", CORE, clean).is_empty());
        // Same panicky source in an unscoped crate: silent.
        let src = "fn f() { x.unwrap(); panic!(\"boom\"); }";
        assert!(run_lint("no-panic", "crates/erasure/src/gf256.rs", src).is_empty());
    }

    #[test]
    fn l1_skips_tests_and_honours_allow() {
        let src = "\
#[cfg(test)]
mod tests {
    fn t() { x.unwrap(); }
}
fn on_timer() {
    // xtask-allow(no-panic): timer ids are minted by this map two lines up
    let t = self.timers.remove(&id).unwrap();
}
";
        assert!(run_lint("no-panic", CORE, src).is_empty());
    }

    #[test]
    fn l1_not_fooled_by_strings_or_comments() {
        let src = "\
fn on_read() {
    // a comment that says panic!(\"nope\") and .unwrap()
    let msg = \"do not panic!(this) or .unwrap() me\";
    let ok = value.unwrap_or(0); // unwrap_or is fine
}
";
        assert!(run_lint("no-panic", CORE, src).is_empty());
    }

    #[test]
    fn l1_covers_wire_decode_and_net_threads() {
        // A decoder that panics on hostile bytes is a remote crash: the wire
        // crate, the fab-net socket threads and the brick host they feed
        // are in L1 scope.
        let src = "\
fn decode_frame(buf: &[u8]) -> Message {
    let kind = FrameKind::decode(tag).unwrap();
    if buf.len() < HEADER_LEN { panic!(\"short frame\"); }
    parse(buf).expect(\"valid body\")
}
";
        // The commit path is held to the same bar: it runs on the event
        // loop, so a panic there kills the brick.
        for path in [
            "crates/wire/src/frame.rs",
            "crates/net/src/transport.rs",
            "crates/net/src/server.rs",
            "crates/runtime/src/host.rs",
            "crates/store/src/commit.rs",
        ] {
            let d = run_lint("no-panic", path, src);
            assert_eq!(d.len(), 3, "{path}: {d:?}");
        }
        // fab-net's client and binaries stay out of scope (operator-facing,
        // allowed to abort on local misconfiguration).
        assert!(run_lint("no-panic", "crates/net/src/client.rs", src).is_empty());
        assert!(run_lint("no-panic", "crates/net/src/bin/fabd.rs", src).is_empty());
    }

    #[test]
    fn l1_covers_repair_subsystem() {
        // A panic in the rebuild path strands the degraded stripe set; the
        // whole crate (threaded harness included) is held to the protocol bar.
        let src = "\
fn on_scrub_result(&mut self, stripe: StripeId) {
    let entry = self.entries.get_mut(&stripe).unwrap();
    if entry.attempts > self.cfg.max_attempts { panic!(\"retry overflow\"); }
}
";
        for path in [
            "crates/repair/src/driver.rs",
            "crates/repair/src/planner.rs",
            "crates/repair/src/cursor.rs",
            "crates/repair/src/inproc.rs",
        ] {
            let d = run_lint("no-panic", path, src);
            assert_eq!(d.len(), 2, "{path}: {d:?}");
        }
    }

    // ------------------------------------------------------------ L1b ------

    #[test]
    fn l1b_fires_on_untrusted_index_in_handler() {
        let src = "\
fn on_write(&mut self, idx: usize) {
    let b = self.blocks[idx];
}
";
        let d = run_lint("no-untrusted-index", CORE, src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].msg.contains("on_write"));
    }

    #[test]
    fn l1b_fires_on_untrusted_index_in_wire_decoder() {
        // The classic decode bug: indexing the body with a length that came
        // off the wire. Must be flagged in the codec, silent elsewhere.
        let src = "\
fn decode_peer_body(body: &[u8]) -> Result<Envelope, WireError> {
    let n = read_u32(body)? as usize;
    let tag = body[n];
    Ok(parse(tag))
}
";
        let d = run_lint("no-untrusted-index", "crates/wire/src/codec.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].msg.contains("decode_peer_body"));
        assert!(run_lint("no-untrusted-index", "crates/wire/src/error.rs", src).is_empty());

        // The commit path carries the indexing discipline too.
        let d = run_lint("no-untrusted-index", "crates/store/src/commit.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");

        // `read_*` socket paths in fab-net are decoders too.
        let net = "\
fn read_frame(stream: &mut TcpStream) -> Result<Message, RecvError> {
    let len = header.body_len as usize;
    let crc = buf[len];
    Ok(decode(crc))
}
";
        let d = run_lint("no-untrusted-index", "crates/net/src/transport.rs", net);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].msg.contains("read_frame"));

        // The brick host's `on_*` handlers consume what those decoders
        // produce: a process id off the wire must not index a table.
        let host = "\
impl<T: Transport, S: CommitStore> Host<T, S> {
    fn on_net(&mut self, from: ProcessId, env: &Envelope) {
        let peer = self.peers[from.index()];
    }
}
";
        let d = run_lint("no-untrusted-index", "crates/runtime/src/host.rs", host);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].msg.contains("on_net"));
    }

    #[test]
    fn l1b_covers_repair_protocol_files() {
        // The cursor decoder replays bytes from disk (possibly torn), and
        // the driver's result handler consumes scrub outcomes: both carry
        // the no-raw-indexing discipline. The stats module does not.
        let src = "\
fn read_record(buf: &[u8]) -> Result<Checkpoint, CursorError> {
    let n = buf.len() - TRAILER_LEN;
    let crc = buf[n];
    Ok(parse(crc))
}
";
        for path in [
            "crates/repair/src/cursor.rs",
            "crates/repair/src/driver.rs",
            "crates/repair/src/planner.rs",
        ] {
            let d = run_lint("no-untrusted-index", path, src);
            assert_eq!(d.len(), 1, "{path}: {d:?}");
            assert!(d[0].msg.contains("read_record"));
        }
        assert!(run_lint("no-untrusted-index", "crates/repair/src/stats.rs", src).is_empty());
    }

    #[test]
    fn l1b_allows_literals_ranges_and_non_handlers() {
        let src = "\
fn on_write(&mut self) {
    let a = pair[0];
    let s = &buf[start..end];
    let arr: [u8; 4] = [0; 4];
}
fn helper(&mut self, idx: usize) {
    let b = self.blocks[idx]; // non-handler fn: out of scope
}
";
        assert!(run_lint("no-untrusted-index", CORE, src).is_empty());
    }

    // ------------------------------------------------------------ L2 -------

    #[test]
    fn l2_fires_on_nondeterminism_sources() {
        let src = "\
use std::collections::{HashMap, HashSet};
fn f() {
    let t = std::time::Instant::now();
    let r = rand::thread_rng();
    std::thread::spawn(|| {});
}
";
        let d = run_lint("determinism", "crates/simnet/src/sim.rs", src);
        // HashMap + HashSet (use) + Instant + thread_rng + spawn = 5
        assert_eq!(d.len(), 5, "{d:?}");
    }

    #[test]
    fn l2_silent_on_btree_and_unscoped_crates() {
        let src = "use std::collections::BTreeMap;\nfn f() { let m: BTreeMap<u32, u32> = BTreeMap::new(); }\n";
        assert!(run_lint("determinism", "crates/core/src/brick.rs", src).is_empty());
        let src2 = "fn f() { let m = std::collections::HashMap::<u32, u32>::new(); }";
        assert!(
            run_lint("determinism", "crates/runtime/src/host.rs", src2).is_empty(),
            "the wall-clock brick host may use real clocks/maps"
        );
    }

    #[test]
    fn l2_covers_sans_io_repair_but_not_the_threaded_harness() {
        // The torture engine replays the repair driver on simulated time, so
        // the sans-io files must be deterministic; the in-process harness
        // runs on real threads and may read wall clocks.
        let src = "fn f() { let t = std::time::Instant::now(); }";
        let d = run_lint("determinism", "crates/repair/src/driver.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(run_lint("determinism", "crates/repair/src/inproc.rs", src).is_empty());
    }

    #[test]
    fn l1_and_l2_cover_the_obs_substrate() {
        // Instruments are recorded from protocol hot paths and replayed by
        // the deterministic torture engine, so fab-obs is in both scopes.
        let panicky = "fn record(&self) { self.cell.get().unwrap(); panic!(\"boom\"); }";
        let d = run_lint("no-panic", "crates/obs/src/lib.rs", panicky);
        assert_eq!(d.len(), 2, "{d:?}");
        let clocky = "fn f() { let t = std::time::Instant::now(); }";
        let d = run_lint("determinism", "crates/obs/src/lib.rs", clocky);
        assert_eq!(d.len(), 1, "{d:?}");
    }

    // ------------------------------------------------------------ L3 -------

    #[test]
    fn l3_confines_unsafe_to_kernel() {
        let src = "fn f(p: *const u8) { unsafe { p.read() }; }";
        let d = run_lint("unsafe-audit", "crates/core/src/replica.rs", src);
        assert_eq!(d.len(), 1);
        assert!(d[0].msg.contains("outside"));
    }

    #[test]
    fn l3_requires_safety_comment_in_kernel() {
        let bare = "fn f(p: *const u8) { unsafe { p.read() }; }";
        let d = run_lint("unsafe-audit", "crates/erasure/src/kernel.rs", bare);
        assert_eq!(d.len(), 1);
        assert!(d[0].msg.contains("SAFETY"));

        let documented = "\
fn f(p: *const u8) {
    // SAFETY: caller guarantees `p` is valid for one byte.
    unsafe { p.read() };
}
";
        assert!(run_lint("unsafe-audit", "crates/erasure/src/kernel.rs", documented).is_empty());
    }

    #[test]
    fn l3_accepts_safety_doc_section_on_unsafe_fn() {
        // The `# Safety` header may sit well above the `fn` line when the
        // contract text is long; the contiguous doc/attribute block counts.
        let documented = "\
/// Multiplies in place.
///
/// # Safety
///
/// Caller must ensure the feature is available, lengths match,
/// and the length is a multiple of 16.
#[target_feature(enable = \"ssse3\")]
pub(super) unsafe fn mul(acc: &mut [u8]) { todo!() }
";
        assert!(
            run_lint("unsafe-audit", "crates/erasure/src/kernel.rs", documented).is_empty()
        );

        // No `# Safety` section anywhere in the doc block: still flagged.
        let undocumented = "\
/// Multiplies in place, trust me.
#[inline]
pub(super) unsafe fn mul(acc: &mut [u8]) { todo!() }
";
        let d = run_lint("unsafe-audit", "crates/erasure/src/kernel.rs", undocumented);
        assert_eq!(d.len(), 1, "{d:?}");

        // The doc-block walk stops at the first code line: a `# Safety`
        // belonging to a *previous* item does not leak downward.
        let unrelated = "\
/// # Safety
/// For the other function.
unsafe fn a() { todo!() }

pub(super) unsafe fn b(acc: &mut [u8]) { todo!() }
";
        let d = run_lint("unsafe-audit", "crates/erasure/src/kernel.rs", unrelated);
        assert_eq!(d.len(), 1, "{d:?}");
    }

    // ------------------------------------------------------------ L4 -------

    #[test]
    fn l4_fires_on_component_comparison() {
        let src = "\
fn newer(a: Timestamp, b: Timestamp) -> bool {
    if a.ticks() > b.ticks() { return true; }
    a.pid() == b.pid()
}
";
        let d = run_lint("timestamp-discipline", CORE, src);
        assert_eq!(d.len(), 2, "{d:?}");
    }

    #[test]
    fn l4_allows_serialization_and_whole_value_ord() {
        let src = "\
fn encode(ts: Timestamp) -> [u8; 12] {
    let t = ts.ticks().to_le_bytes();
    let p = ts.pid().to_le_bytes();
    join(t, p)
}
fn newer(a: Timestamp, b: Timestamp) -> bool { a > b }
";
        assert!(run_lint("timestamp-discipline", "crates/store/src/lib.rs", src).is_empty());
        // Inside fab-timestamp itself, component access is the crate's job.
        let inside = "fn f(a: Timestamp, b: Timestamp) -> bool { a.ticks() > b.ticks() }";
        assert!(run_lint("timestamp-discipline", "crates/timestamp/src/lib.rs", inside).is_empty());
    }

    // ------------------------------------------------------------ L5 -------

    #[test]
    fn l5_fires_on_integer_casts_only_in_scope() {
        let src = "fn f(n: usize) -> u32 { n as u32 }";
        let d = run_lint("no-as-truncation", "crates/quorum/src/lib.rs", src);
        assert_eq!(d.len(), 1);
        assert!(d[0].msg.contains("as u32"));
        assert!(run_lint("no-as-truncation", "crates/erasure/src/gf256.rs", src).is_empty());
        // `as` for trait casts / f64 is untouched.
        let other = "fn g(x: u32) -> f64 { x as f64 }";
        assert!(run_lint("no-as-truncation", "crates/quorum/src/lib.rs", other).is_empty());
    }

    // ------------------------------------------------------------ L6 -------

    #[test]
    fn l6_fires_on_send_without_persist() {
        let src = "\
fn on_message(&mut self, ctx: &mut Context) {
    let reply = compute();
    ctx.send(peer, reply);
}
";
        let d = run_lint("log-before-send", "crates/core/src/brick.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].msg.contains("on_message"));
    }

    #[test]
    fn l6_silent_when_persistence_precedes_send() {
        let src = "\
fn on_message(&mut self, ctx: &mut Context) {
    let reply = self.replica.handle(&req);
    ctx.send(peer, reply);
}
";
        assert!(run_lint("log-before-send", "crates/core/src/brick.rs", src).is_empty());
    }

    // ------------------------------------------------------- suppression ---

    #[test]
    fn allow_suppresses_and_malformed_allow_reported() {
        let src = "\
fn on_message(&mut self, ctx: &mut Context) {
    // xtask-allow(log-before-send): coordinator state is volatile by design
    ctx.send(peer, env);
}
// xtask-allow(log-before-send)
fn on_other(&mut self, ctx: &mut Context) {
    let reply = self.replica.handle(&req);
    ctx.send(peer, reply);
}
";
        let file = SourceFile::parse("crates/core/src/brick.rs", src);
        let mut out = Vec::new();
        check_file(&file, &mut out);
        let l6: Vec<_> = out.iter().filter(|d| d.lint == "log-before-send").collect();
        assert_eq!(l6.len(), 1, "finding is kept but marked suppressed: {l6:?}");
        assert!(l6[0].suppressed);
        let malformed: Vec<_> = out.iter().filter(|d| d.lint == "malformed-allow").collect();
        assert_eq!(malformed.len(), 1, "reason-less allow is itself flagged");
    }

    #[test]
    fn stale_allow_detected_and_live_allow_spared() {
        let src = "\
fn on_message(&mut self, ctx: &mut Context) {
    // xtask-allow(log-before-send): coordinator state is volatile by design
    ctx.send(peer, env);
}
fn on_quiet(&mut self) {
    // xtask-allow(no-panic): nothing here panics any more after the refactor
    let x = compute();
}
#[cfg(test)]
mod tests {
    // xtask-allow(no-panic): test-module allows are out of lint scope
    fn t() {}
}
";
        let file = SourceFile::parse("crates/core/src/brick.rs", src);
        let mut diags = Vec::new();
        check_file(&file, &mut diags);
        let mut stale = Vec::new();
        stale_allows(&file, &diags, &mut stale);
        assert_eq!(stale.len(), 1, "{stale:?}");
        assert_eq!(stale[0].lint, "stale-allow");
        assert_eq!(stale[0].line, 6, "the no-panic allow that suppresses nothing");
        assert!(stale[0].msg.contains("no-panic"));
        assert!(!stale[0].suppressed, "stale allows always fail the run");
    }

    #[test]
    fn diagnostics_carry_file_line_and_rule_id() {
        let src = "fn on_reply(&mut self) {\n    let x = y.unwrap();\n}\n";
        let d = run_lint("no-panic", CORE, src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 2);
        assert_eq!(format!("{}", d[0]),
            format!("{CORE}:2: [no-panic] `.unwrap()` in protocol code; use `?`, `unwrap_or`, or a typed error"));
    }

    // ------------------------------------------------------------ L7 -------

    const NET: &str = "crates/net/src/transport.rs";

    #[test]
    fn l7_fires_on_rank_inversion_direct_and_via_call() {
        // Direct nesting: client-stream (rank 1) held while taking
        // conn-registry (rank 0) — inverted.
        let direct = "\
impl Hub {
    fn notify(&self) {
        let mut w = self.writer.lock().unwrap();
        let reg = self.registry.lock().unwrap();
        w.notify(reg.len());
    }
}
";
        let d = run_workspace_lint("lock-order", &[(NET, direct)]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 4, "anchored at the inner acquisition");
        assert!(d[0].msg.contains("rank 0"));
        assert!(d[0].msg.contains("rank 1"));

        // Interprocedural: cluster-handles (rank 2, crates/runtime) held
        // across a call into crates/net that takes conn-registry (rank 0).
        let runtime = "\
impl Cluster {
    fn shutdown(&self) {
        let h = self.handles.lock().unwrap();
        drop_all(h.len());
    }
}
";
        let net = "\
fn drop_all(n: usize) {
    let reg = GLOBAL.registry.lock().unwrap();
    reg.truncate(n);
}
";
        let d = run_workspace_lint(
            "lock-order",
            &[("crates/runtime/src/lib.rs", runtime), ("crates/net/src/server.rs", net)],
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].path, "crates/runtime/src/lib.rs");
        assert!(d[0].msg.contains("call `drop_all`"), "{}", d[0].msg);
    }

    #[test]
    fn l7_silent_on_canonical_order_and_disjoint_guards() {
        // conn-registry (0) then client-stream (1): strictly increasing.
        let ordered = "\
impl Hub {
    fn route(&self) {
        let reg = self.registry.lock().unwrap();
        let w = self.writer.lock().unwrap();
        w.notify(reg.len());
    }
}
";
        assert!(run_workspace_lint("lock-order", &[(NET, ordered)]).is_empty());

        // Inverted classes but in disjoint scopes: no nesting, no finding.
        let disjoint = "\
impl Hub {
    fn route(&self) {
        {
            let w = self.writer.lock().unwrap();
            w.flush();
        }
        let reg = self.registry.lock().unwrap();
        reg.clear();
    }
}
";
        assert!(run_workspace_lint("lock-order", &[(NET, disjoint)]).is_empty());
    }

    #[test]
    fn l7_undeclared_class_flagged_only_when_nested_and_allow_works() {
        // A standalone local mutex is not an ordering hazard.
        let standalone = "\
fn tally(counters: &Mutex<u32>) {
    let mut c = counters.lock().unwrap();
    *c += 1;
}
";
        assert!(run_workspace_lint("lock-order", &[(NET, standalone)]).is_empty());

        // The same receiver nested under a declared class is flagged…
        let nested = "\
impl Hub {
    fn route(&self) {
        let reg = self.registry.lock().unwrap();
        let c = self.counters.lock().unwrap();
    }
}
";
        let d = run_workspace_lint("lock-order", &[(NET, nested)]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].msg.contains("declare it in LOCK_CLASSES"), "{}", d[0].msg);

        // …and an xtask-allow on the inner acquisition suppresses it.
        let allowed = "\
impl Hub {
    fn route(&self) {
        let reg = self.registry.lock().unwrap();
        // xtask-allow(lock-order): counters is a leaf mutex never held across a call
        let c = self.counters.lock().unwrap();
    }
}
";
        assert!(run_workspace_lint("lock-order", &[(NET, allowed)]).is_empty());
    }

    // ------------------------------------------------------------ L8 -------

    const HOST: &str = "crates/runtime/src/host.rs";

    #[test]
    fn l8_silent_on_bounded_locks_and_non_entry_blocking() {
        let src = "\
impl Tcp {
    fn send_reply(&mut self, writer: &ClientWriter) {
        let w = writer.lock().unwrap();
        w.enqueue(&self.scratch);
    }
}
fn writer_loop(rx: &Receiver<Frame>) {
    while let Ok(f) = rx.recv() {
        stage(f);
    }
}
";
        // `writer` is a declared bounded class in crates/net; `writer_loop`
        // blocks but is not an event-loop entry and is not reachable from
        // one.
        let server = "crates/net/src/server.rs";
        assert!(run_workspace_lint("no-blocking-on-event-loop", &[(server, src)]).is_empty());
    }

    #[test]
    fn l8_lets_only_the_turn_commit_reach_the_disk() {
        let host = "\
impl<T: Transport, S: CommitStore> Host<T, S> {
    fn run(mut self) {
        self.on_net(self.inbox.recv());
        self.commit_turn();
    }
    fn commit_turn(&mut self) {
        self.store.append_batch(&self.records);
    }
    fn on_net(&mut self, msg: Message) {
        self.records.push(msg);
    }
}
";
        let store = "\
impl BrickStore {
    pub fn append_batch(&mut self, records: &[Record]) { self.file.sync_data() }
}
";
        // What a handler does with its records, and what L8 says.
        let cases = [
            ("self.records.push(msg)", None),
            ("self.file.sync_data()", Some("`sync_data` blocks event-loop entry `Host::on_net`")),
            ("self.store.append_batch(&[msg])", Some("call to `append_batch` from event-loop entry")),
            ("self.commit_turn()", Some("→ BrickStore::append_batch → `sync_data`")),
        ];
        for (handler, verdict) in cases {
            let host = host.replace("self.records.push(msg)", handler);
            let files = [(HOST, host.as_str()), ("crates/store/src/lib.rs", store)];
            let d = run_workspace_lint("no-blocking-on-event-loop", &files);
            assert_eq!(d.len(), usize::from(verdict.is_some()), "{handler}: {d:?}");
            assert!(d.iter().all(|d| d.msg.contains(verdict.unwrap_or(""))), "{handler}: {d:?}");
        }
    }

    // ------------------------------------------------------------ L9 -------

    const CODEC: &str = "crates/wire/src/codec.rs";

    #[test]
    fn l9_fires_on_unguarded_wire_lengths_at_sinks() {
        let src = "\
fn decode(r: &mut Reader) -> Result<Frame, WireError> {
    let n = r.u32()? as usize;
    let mut buf = Vec::with_capacity(n);
    let body = vec![0u8; n];
    Ok(Frame { buf, body })
}
";
        let d = run_lint("untrusted-length-taint", CODEC, src);
        assert_eq!(d.len(), 2, "{d:?}");
        assert_eq!(d[0].line, 3);
        assert!(d[0].msg.contains("with_capacity"), "{}", d[0].msg);
        assert_eq!(d[1].line, 4);
        assert!(d[1].msg.contains("vec!"), "{}", d[1].msg);
    }

    #[test]
    fn l9_silent_when_guarded_or_out_of_scope() {
        // A comparison against a bound sanitizes the variable.
        let guarded = "\
fn decode(r: &mut Reader) -> Result<Frame, WireError> {
    let n = r.u32()? as usize;
    if n > MAX_BODY_LEN {
        return Err(WireError::TooLarge);
    }
    let mut buf = Vec::with_capacity(n);
    Ok(Frame { buf })
}
";
        assert!(run_lint("untrusted-length-taint", CODEC, guarded).is_empty());

        // Same taint in a non-wire file: out of scope.
        let src = "\
fn rebuild(r: &mut Reader) {
    let n = r.u32() as usize;
    let v = Vec::with_capacity(n);
}
";
        assert!(run_lint("untrusted-length-taint", "crates/core/src/replica.rs", src).is_empty());
    }

    #[test]
    fn l9_honours_allow_and_keeps_suppressed_finding() {
        let src = "\
fn decode(r: &mut Reader) -> Result<Frame, WireError> {
    let n = r.u32()? as usize;
    // xtask-allow(untrusted-length-taint): n is re-bounded by the caller before any allocation
    let mut buf = Vec::with_capacity(n);
    Ok(Frame { buf })
}
";
        assert!(run_lint("untrusted-length-taint", CODEC, src).is_empty());
        let all = run_lint_all("untrusted-length-taint", CODEC, src);
        assert_eq!(all.len(), 1, "{all:?}");
        assert!(all[0].suppressed);
    }
}
