//! The protocol-aware lints that need to know the protocol.
//!
//! Rule-ID map (see DESIGN.md "Static analysis & invariant enforcement").
//! L1, L2, L3 and L5 are rules the toolchain can state itself, so they live
//! where the compiler reads them — `[workspace.lints]`, `clippy.toml` and one
//! `#![cfg_attr(not(test), deny(clippy::…))]` per scoped crate or module —
//! and `tools/ci.sh` stage 5 enforces them. L7 (`lock-order`) is retired: no
//! two locks are ever held together. What is left here:
//!
//! | ID  | lint name                  | invariant                                          |
//! |-----|----------------------------|----------------------------------------------------|
//! | L1b | `no-untrusted-index`       | handler code never `[]`-indexes untrusted lengths   |
//! | L4  | `timestamp-discipline`     | timestamps compared only as whole values            |
//! | L6  | `log-before-send`          | the host's turn sends nothing before its commit     |
//! | L8  | `no-blocking-on-event-loop`| nothing reachable from an event-loop entry blocks   |
//! | L9  | `untrusted-length-taint`   | wire lengths are guarded before sizing allocations  |
//!
//! L8 runs over the whole-workspace call graph ([`crate::graph::Workspace`]),
//! the rest are per-file passes. Every lint honours
//! `// xtask-allow(<name>): <reason>` on the flagged line or the line above
//! (recorded as a *suppressed* diagnostic, which feeds stale-allow
//! detection), and skips `#[cfg(test)]` modules entirely. The `mutation`
//! test at the bottom holds each rule to real code: one planted bug it must
//! catch, one harmless refactor it must let through.

use crate::graph::Workspace;
use crate::lexer::{is_ident_byte, word_occurrences};
use crate::model::SourceFile;

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
            id: "no-untrusted-index",
            rule: "L1b",
            desc: "no non-literal [] indexing inside message/state-machine handler or wire-decode functions",
            check: Check::File(no_untrusted_index),
        },
        Lint {
            id: "timestamp-discipline",
            rule: "L4",
            desc: "no field-wise timestamp comparison outside fab-timestamp (whole-value Ord only)",
            check: Check::File(timestamp_discipline),
        },
        Lint {
            id: "log-before-send",
            rule: "L6",
            desc: "a brick-host function that commits the turn's records sends nothing before that commit",
            check: Check::File(log_before_send),
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

/// Run every lint over `files` — the per-file passes, then the workspace
/// ones over the call graph built from them (which is handed back for
/// stale-allow detection).
pub fn check_all(files: Vec<SourceFile>) -> (Workspace, Vec<Diagnostic>) {
    let mut out = Vec::new();
    for file in &files {
        check_file(file, &mut out);
    }
    let w = Workspace::build(files);
    for lint in registry() {
        if let Check::Workspace(check) = lint.check {
            check(&w, &mut out);
        }
    }
    (w, out)
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

// ---------------------------------------------------------------- L6 -------

/// L6: the paper's replica answers only after `store(var)` (§4, crash
/// recovery). Since the event loop became the committer, that order lives in
/// one place — the end of a host turn, `commit` then the held replies — so
/// the rule is stated there: in the brick host, a function that commits the
/// turn's records lets nothing out (`send` to a peer, `reply` to a client)
/// before that call. Function-local on purpose: a reply released by a helper
/// that is *called* after the commit is fine, and the dynamic half
/// (conformance (c): no reply while the sync is held) covers what a
/// token-level rule cannot see.
fn log_before_send(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if file.path != crate::model::HOST_FILE {
        return;
    }
    for f in &file.fns {
        let inside = |off: &usize| f.body.contains(off);
        let Some(commit) = method_occurrences(file, "commit").into_iter().find(inside) else {
            continue;
        };
        for way_out in ["send", "reply"] {
            for off in method_occurrences(file, way_out).into_iter().filter(inside) {
                if off < commit {
                    push(
                        file,
                        out,
                        "log-before-send",
                        off,
                        format!(
                            "`{way_out}` in `{}` leaves before the turn's `commit`; an acknowledgement must not outrun its log record",
                            f.name
                        ),
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------- L8 -------

/// Witness of the first blocking operation transitively reachable from
/// each fn (`None` = provably non-blocking under the model).
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

/// L8: nothing blocking — fsync, channel wait, lock wait, sleep, thread
/// join — may be reachable from a declared event-loop entry point. (The
/// host's one wait on the disk, `Host::commit_turn`, is under `run`.)
/// Diagnostics anchor at the offending site inside the entry itself (so an
/// `xtask-allow` goes next to the decision), with the witness chain; a call
/// from one entry to another is the callee's to report.
fn no_blocking_on_event_loop(w: &Workspace, out: &mut Vec<Diagnostic>) {
    let witnesses = blocking_witnesses(w);
    let mut local = Vec::new();
    let entries: Vec<usize> = crate::model::EVENT_LOOP_ENTRIES
        .iter()
        .filter_map(|(path, qual)| w.fn_by_qual(path, qual))
        .collect();
    for &e in &entries {
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
        for c in &f.calls {
            for t in w.resolve(e, c) {
                if entries.contains(&t) {
                    continue;
                }
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

    // ------------------------------------------------------- suppression ---

    #[test]
    fn allow_suppresses_and_malformed_allow_reported() {
        let src = "\
fn on_write(&mut self, idx: usize) {
    // xtask-allow(no-untrusted-index): idx was range-checked by the caller
    let b = self.blocks[idx];
}
// xtask-allow(no-untrusted-index)
fn on_other(&mut self) {
    let b = self.blocks.get(0);
}
";
        let file = SourceFile::parse(CORE, src);
        let mut out = Vec::new();
        check_file(&file, &mut out);
        let l1b = "no-untrusted-index";
        let hits: Vec<_> = out.iter().filter(|d| d.lint == l1b).collect();
        assert_eq!(hits.len(), 1, "kept, marked suppressed: {hits:?}");
        assert!(hits[0].suppressed);
        let malformed: Vec<_> = out.iter().filter(|d| d.lint == "malformed-allow").collect();
        assert_eq!(malformed.len(), 1, "reason-less allow is itself flagged");
    }

    #[test]
    fn stale_allow_detected_and_live_allow_spared() {
        let src = "\
fn on_write(&mut self, idx: usize) {
    // xtask-allow(no-untrusted-index): idx was range-checked by the caller
    let b = self.blocks[idx];
}
fn on_quiet(&mut self) {
    // xtask-allow(timestamp-discipline): nothing here compares any more after the refactor
    let x = compute();
}
#[cfg(test)]
mod tests {
    // xtask-allow(timestamp-discipline): test-module allows are out of lint scope
    fn t() {}
}
";
        let file = SourceFile::parse(CORE, src);
        let mut diags = Vec::new();
        check_file(&file, &mut diags);
        let mut stale = Vec::new();
        stale_allows(&file, &diags, &mut stale);
        assert_eq!(stale.len(), 1, "{stale:?}");
        assert_eq!(stale[0].lint, "stale-allow");
        assert_eq!(stale[0].line, 6, "the allow that suppresses nothing");
        assert!(stale[0].msg.contains("timestamp-discipline"));
        assert!(!stale[0].suppressed, "stale allows always fail the run");
    }

    #[test]
    fn diagnostics_carry_file_line_and_rule_id() {
        let src = "fn on_reply(&mut self) {\n    let x = a.ticks() < b.ticks();\n}\n";
        let d = run_lint("timestamp-discipline", CORE, src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 2);
        assert!(format!("{}", d[0]).starts_with(&format!("{CORE}:2: [timestamp-discipline] ")));
    }

    // ------------------------------------------------------------ L8 -------

    use crate::model::HOST_FILE as HOST;

    #[test]
    fn l8_counts_a_lock_as_a_wait_and_reports_each_entry_once() {
        let src = "\
impl Tcp {
    fn control(&mut self, admin: Admin) {
        let result = self.handle_admin(&admin.op);
        self.send_reply(&admin.writer, result);
    }
    fn handle_admin(&mut self, op: &AdminOp) -> Reply {
        self.registry.lock()
    }
    fn send_reply(&mut self, writer: &ClientWriter, reply: Reply) {
        self.scratch.clear();
    }
}
fn writer_loop(rx: &Receiver<Frame>) {
    while let Ok(f) = rx.recv() {
        stage(f);
    }
}
";
        // `writer_loop` blocks, but it is neither an entry nor reachable
        // from one. The lock is, twice over — and is reported once, where
        // it is taken: `control`'s call into a fellow entry is not news.
        let server = "crates/net/src/server.rs";
        let d = run_workspace_lint("no-blocking-on-event-loop", &[(server, src)]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 7);
        let verdict = "`lock` blocks event-loop entry `Tcp::handle_admin`";
        assert!(d[0].msg.contains(verdict), "{}", d[0].msg);
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

    // ---------------------------------------------- mutation on real code --

    /// `rule`'s unsuppressed findings over the workspace as `cargo xtask
    /// analyze` reads it, with `from` in `path` replaced by `to` in memory.
    fn findings(rule: &str, path: &str, from: &str, to: &str) -> Vec<Diagnostic> {
        let root = crate::workspace_root();
        let files: Vec<SourceFile> = crate::default_targets(&root)
            .iter()
            .map(|f| {
                let rel = crate::rel_path(&root, f);
                let mut raw = std::fs::read_to_string(f).expect("readable source");
                if rel == path {
                    assert_eq!(raw.matches(from).count(), 1, "{path}: `{from}` moved");
                    raw = raw.replace(from, to);
                }
                SourceFile::parse(&rel, &raw)
            })
            .collect();
        let (_, mut out) = check_all(files);
        out.retain(|d| d.lint == rule && !d.suppressed);
        out
    }

    /// One rule held to real code: the tree as it stands is clean, `bug`
    /// in place of `from` is caught, `refactor` in place of `from` is not.
    struct Mutation {
        rule: &'static str,
        path: &'static str,
        from: &'static str,
        bug: &'static str,
        refactor: &'static str,
    }

    const COMMIT_THEN_SEND: &str = "\
        if stats.commit(store, &self.records).is_err() {
            // Never ack state that did not reach disk.
            return self.fence();
        }
        self.records.clear();
        for (to, env) in self.replies.drain(..) {
            self.io.transport.send(to, env);
        }
";
    /// ROADMAP 2(c)'s mutation: the same lines, the loop first.
    const SEND_THEN_COMMIT: &str = "\
        for (to, env) in self.replies.drain(..) {
            self.io.transport.send(to, env);
        }
        if stats.commit(store, &self.records).is_err() {
            // Never ack state that did not reach disk.
            return self.fence();
        }
        self.records.clear();
";
    const COMMIT_THEN_HELPER: &str = "\
        if stats.commit(store, &self.records).is_err() {
            // Never ack state that did not reach disk.
            return self.fence();
        }
        self.records.clear();
        self.release_held_replies();
";

    const MUTATIONS: &[Mutation] = &[
        // A peer id off the wire indexes the reply table.
        Mutation {
            rule: "no-untrusted-index",
            path: "crates/core/src/coordinator.rs",
            from: "op.replies.get_mut(from.index())",
            bug: "Some(&mut op.replies[from.index()])",
            refactor: "op.replies.iter_mut().nth(from.index())",
        },
        // The process-id tiebreak is lost.
        Mutation {
            rule: "timestamp-discipline",
            path: "crates/core/src/replica.rs",
            from: "let status = val_ts >= self.ord_ts;",
            bug: "let status = val_ts.ticks() >= self.ord_ts.ticks();",
            refactor: "let status = self.ord_ts <= val_ts;",
        },
        Mutation {
            rule: "log-before-send",
            path: HOST,
            from: COMMIT_THEN_SEND,
            bug: SEND_THEN_COMMIT,
            refactor: COMMIT_THEN_HELPER,
        },
        // A handler syncs for itself instead of leaving it to the turn.
        Mutation {
            rule: "no-blocking-on-event-loop",
            path: HOST,
            from: "let reply = replica.handle(req);",
            bug: "let reply = replica.handle(req);\n        self.commit_turn();",
            refactor: "let reply = replica.handle(req);\n        let _ = self.inbox.try_recv();",
        },
        // The bug this table found: `RepairStart` opened (and could fsync)
        // the repair cursor on the event loop.
        Mutation {
            rule: "no-blocking-on-event-loop",
            path: "crates/repair/src/inproc.rs",
            from: "let plan_hash = plan.hash;",
            bug: "let plan_hash = plan.hash;\n        let early = RepairCursor::open(&PathBuf::new(), plan_hash);",
            refactor: "let plan_hash = plan.hash;\n        let started = Instant::now();",
        },
        // The length check next to the allocation it protects goes away.
        Mutation {
            rule: "untrusted-length-taint",
            path: "crates/net/src/transport.rs",
            from: "if body_len > MAX_BODY_LEN {",
            bug: "if false {",
            refactor: "if MAX_BODY_LEN < body_len {",
        },
    ];

    #[test]
    fn every_rule_catches_its_bug_in_real_code_and_spares_the_refactor() {
        for rule in registry() {
            let id = rule.id;
            assert!(MUTATIONS.iter().any(|m| m.rule == id), "{id}: no mutation");
        }
        for m in MUTATIONS {
            let (rule, path) = (m.rule, m.path);
            let clean = findings(rule, path, m.from, m.from);
            assert!(clean.is_empty(), "{rule} on the clean tree: {clean:?}");
            let caught = findings(rule, path, m.from, m.bug);
            assert!(!caught.is_empty(), "{rule} missed `{}` in {path}", m.bug);
            let spared = findings(rule, path, m.from, m.refactor);
            assert!(spared.is_empty(), "{rule} on `{}`: {spared:?}", m.refactor);
        }
    }
}
