//! Per-file source model shared by all lints.
//!
//! Builds on [`crate::lexer::mask`] and adds the structural facts lints need:
//! line numbers, `#[cfg(test)]` module ranges (excluded from analysis), the
//! span of every `fn` body (for function-scoped lints like `log-before-send`),
//! and `xtask-allow` suppression directives.

use crate::lexer::{is_ident_byte, mask, Comment};
use std::ops::Range;

/// A `fn` item found in the masked source.
#[derive(Debug, Clone)]
pub struct FnSpan {
    pub name: String,
    /// Offset of the `fn` keyword.
    pub start: usize,
    /// Byte range of the body, including the outer braces. Empty for
    /// bodiless trait-method declarations.
    pub body: Range<usize>,
}

/// A parsed `// xtask-allow(<lint-id>): <reason>` directive.
#[derive(Debug, Clone)]
pub struct Allow {
    pub line: usize,
    pub lint: String,
    pub reason: String,
}

/// Everything the lints need to know about one source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators (e.g.
    /// `crates/core/src/replica.rs`). Lint scoping keys off this.
    pub path: String,
    pub masked: String,
    pub fns: Vec<FnSpan>,
    pub allows: Vec<Allow>,
    /// Allow directives missing the `: <reason>` part — reported as
    /// violations so suppressions always carry a justification.
    pub malformed_allows: Vec<usize>,
    line_starts: Vec<usize>,
    test_ranges: Vec<Range<usize>>,
}

impl SourceFile {
    pub fn parse(path: &str, raw: &str) -> SourceFile {
        let m = mask(raw);
        let line_starts = std::iter::once(0)
            .chain(raw.bytes().enumerate().filter_map(|(i, b)| (b == b'\n').then_some(i + 1)))
            .collect();
        let test_ranges = find_test_ranges(&m.text);
        let fns = find_fns(&m.text);
        let (allows, malformed_allows) = parse_allows(&m.comments);
        SourceFile {
            path: path.to_string(),
            masked: m.text,
            fns,
            allows,
            malformed_allows,
            line_starts,
            test_ranges,
        }
    }

    /// 1-based line containing byte `offset`.
    pub fn line_of(&self, offset: usize) -> usize {
        match self.line_starts.binary_search(&offset) {
            Ok(i) => i + 1,
            Err(i) => i,
        }
    }

    /// Is `offset` inside a `#[cfg(test)]` module?
    pub fn in_test(&self, offset: usize) -> bool {
        self.test_ranges.iter().any(|r| r.contains(&offset))
    }

    /// Is the start of 1-based `line` inside a `#[cfg(test)]` module?
    pub fn line_in_test(&self, line: usize) -> bool {
        self.line_starts
            .get(line.wrapping_sub(1))
            .is_some_and(|&off| self.in_test(off))
    }

    /// Is a diagnostic for `lint` at `line` suppressed by an
    /// `xtask-allow` directive on the same line or the line above?
    pub fn allowed(&self, lint: &str, line: usize) -> bool {
        self.allows
            .iter()
            .any(|a| a.lint == lint && (a.line == line || a.line + 1 == line))
    }

}

fn parse_allows(comments: &[Comment]) -> (Vec<Allow>, Vec<usize>) {
    let mut allows = Vec::new();
    let mut malformed = Vec::new();
    for c in comments {
        let Some(rest) = c.text.strip_prefix("xtask-allow(") else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            malformed.push(c.line);
            continue;
        };
        let lint = rest[..close].trim().to_string();
        let tail = rest[close + 1..].trim_start();
        let reason = tail.strip_prefix(':').map(str::trim).unwrap_or("");
        if lint.is_empty() || reason.is_empty() {
            malformed.push(c.line);
            continue;
        }
        allows.push(Allow {
            line: c.line,
            lint,
            reason: reason.to_string(),
        });
    }
    (allows, malformed)
}

/// Given masked text and the offset of a `{`, return the offset one past its
/// matching `}` (or `text.len()` if unbalanced).
pub(crate) fn match_brace(text: &str, open: usize) -> usize {
    let b = text.as_bytes();
    debug_assert_eq!(b[open], b'{');
    let mut depth = 0usize;
    let mut i = open;
    while i < b.len() {
        match b[i] {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    text.len()
}

/// Find byte ranges of modules annotated `#[cfg(test)]` (or any `#[cfg(...)]`
/// whose predicate mentions `test`). Content inside these ranges is exempt
/// from every lint: tests may unwrap, may use HashMap, may compare timestamp
/// components — the lints police *protocol* code only.
fn find_test_ranges(masked: &str) -> Vec<Range<usize>> {
    let b = masked.as_bytes();
    let mut ranges = Vec::new();
    for (off, _) in masked.match_indices("#[cfg(") {
        // Find the closing bracket of the attribute.
        let mut i = off + 2; // at `cfg(`…
        let mut depth = 0usize;
        let mut pred_start = 0usize;
        let mut pred = None;
        while i < b.len() {
            match b[i] {
                b'(' => {
                    if depth == 0 {
                        pred_start = i + 1;
                    }
                    depth += 1;
                }
                b')' => {
                    depth -= 1;
                    if depth == 0 {
                        pred = Some(&masked[pred_start..i]);
                    }
                }
                b']' if depth == 0 => break,
                _ => {}
            }
            i += 1;
        }
        let Some(pred) = pred else { continue };
        if crate::lexer::word_occurrences(pred, "test").is_empty() {
            continue;
        }
        // Skip whitespace and further attributes, then expect `(pub )?mod`.
        let mut j = i + 1;
        loop {
            while j < b.len() && (b[j] as char).is_whitespace() {
                j += 1;
            }
            if j + 1 < b.len() && b[j] == b'#' && b[j + 1] == b'[' {
                while j < b.len() && b[j] != b']' {
                    j += 1;
                }
                j += 1;
            } else {
                break;
            }
        }
        let tail = &masked[j.min(masked.len())..];
        let is_mod = tail.starts_with("mod ")
            || tail.starts_with("pub mod ")
            || tail.starts_with("pub(crate) mod ");
        if !is_mod {
            continue;
        }
        if let Some(open_rel) = tail.find('{') {
            let semi_rel = tail.find(';').unwrap_or(usize::MAX);
            if semi_rel < open_rel {
                continue; // `mod foo;` declaration, nothing inline to skip
            }
            let open = j + open_rel;
            ranges.push(off..match_brace(masked, open));
        }
    }
    ranges
}

/// Find every `fn` item and its body range in the masked text.
fn find_fns(masked: &str) -> Vec<FnSpan> {
    let b = masked.as_bytes();
    let mut fns = Vec::new();
    for off in crate::lexer::word_occurrences(masked, "fn") {
        // Name: next identifier after `fn`.
        let mut i = off + 2;
        while i < b.len() && (b[i] as char).is_whitespace() {
            i += 1;
        }
        let name_start = i;
        while i < b.len() && is_ident_byte(b[i]) {
            i += 1;
        }
        if i == name_start {
            continue; // `fn` in `impl Fn(..)` position or closure-like, skip
        }
        let name = masked[name_start..i].to_string();
        // Body: first `{` at paren/bracket depth 0 before any depth-0 `;`.
        let mut depth = 0isize;
        let mut body = 0..0;
        while i < b.len() {
            match b[i] {
                b'(' | b'[' => depth += 1,
                b')' | b']' => depth -= 1,
                b';' if depth == 0 => break,
                b'{' if depth == 0 => {
                    body = i..match_brace(masked, i);
                    break;
                }
                _ => {}
            }
            i += 1;
        }
        fns.push(FnSpan {
            name,
            start: off,
            body,
        });
    }
    fns
}

// ------------------------------------------------------------------------
// Workspace concurrency model — the declarations L8/L9 check against.
// These live here (not in the lint code) so the *policy* is one screen of
// reviewable facts while the engine in `graph.rs`/`lints.rs` stays generic.
// ------------------------------------------------------------------------

/// Crates that contribute nothing to the call graph: dev harnesses whose
/// helper names (`send`, `recv`, `lock`, …) would pollute bare-name
/// resolution, and client-side glue that never runs on a brick's event
/// loop. Files here are still linted by the per-file rules.
pub const GRAPH_EXCLUDED_PREFIXES: &[&str] = &[
    "crates/torture/", // fault-campaign harness
    "crates/bench/",   // benchmark drivers
    "crates/volume/",  // client-side volume glue (delegation wrappers over a Mutex)
];

/// The brick host: the one file whose functions L6 holds to
/// commit-before-send (`Host::commit_turn` is where that order lives).
pub const HOST_FILE: &str = "crates/runtime/src/host.rs";

/// Event-loop entry points for L8, as `(file, qualified fn)`. These are
/// the functions the single-threaded brick host (`fab-runtime::host`, run
/// by both the channel runtime and `fabd`) calls per event, plus what its
/// TCP transport runs on the same thread: the reply writer and the admin
/// front end (`Host::run` calls `Tcp::control` for every admin frame, and
/// `handle_admin` is listed beside it so a finding names the admin
/// operation that blocks, not the dispatcher above all four).
/// Anything blocking reachable from them stalls every client of the brick
/// once per event. `run` is not an entry: it blocks where blocking is the
/// point — its idle `recv`/`recv_timeout`, and `commit_turn`'s one fsync
/// for a whole turn.
pub const EVENT_LOOP_ENTRIES: &[(&str, &str)] = &[
    ("crates/runtime/src/host.rs", "Host::on_net"),
    ("crates/runtime/src/host.rs", "Host::on_client"),
    ("crates/runtime/src/host.rs", "Host::deliver_completions"),
    ("crates/runtime/src/host.rs", "Host::refuse_waiting"),
    ("crates/runtime/src/host.rs", "Host::fence"),
    ("crates/runtime/src/host.rs", "Host::load_from_store"),
    ("crates/net/src/server.rs", "Tcp::send_reply"),
    ("crates/net/src/server.rs", "Tcp::control"),
    ("crates/net/src/server.rs", "Tcp::handle_admin"),
];

/// Method calls that block the calling thread (L8 sinks). Channel `send`
/// is deliberately absent (all inter-thread channels here are unbounded,
/// or capacity-1 replies with a dedicated waiting receiver; the bounded
/// peer mailbox takes `try_send` only), as is
/// `write_all` (sockets carry explicit write timeouts). `try_recv` never
/// matches `recv` thanks to identifier-boundary matching. A mutex `lock`
/// is a wait like any other: the event loop takes none itself, and the one
/// it can reach carries an `xtask-allow` that states its bound.
pub const BLOCKING_METHODS: &[&str] = &[
    "lock",
    "recv",
    "recv_timeout",
    "recv_deadline",
    "wait",
    "wait_timeout",
    "sync_data",
    "sync_all",
];

/// Call-position names that block regardless of receiver syntax.
pub const BLOCKING_CALLS: &[&str] = &["sleep", "connect_timeout"];

/// Files whose functions L9 taint-checks: every length they read came off
/// a socket (wire codec + frame header) or out of an on-disk log replayed
/// through the same shapes.
pub const TAINT_FILES: &[&str] = &[
    "crates/wire/src/codec.rs",
    "crates/wire/src/frame.rs",
    "crates/net/src/transport.rs",
];

/// Reader-style methods whose return value is an untrusted wire integer.
pub const TAINT_METHOD_SOURCES: &[&str] =
    &["u16", "u32", "u64", "read_u16", "read_u32", "read_u64"];

/// Struct fields that carry a wire-declared length.
pub const TAINT_FIELD_SOURCES: &[&str] = &["body_len"];

/// Free/associated functions that reconstruct integers from raw bytes.
pub const TAINT_WORD_SOURCES: &[&str] = &["from_le_bytes", "from_be_bytes"];

/// Calls that count as sanitizing a tainted length when it appears in
/// their arguments: `Reader::count`/`take` validate against remaining
/// input, `min`/`clamp` bound it, `get` returns `Option` instead of
/// panicking or over-allocating. Names starting with `check`/`ensure`/
/// `validate`/`guard` also count (prefix match in the lint).
pub const TAINT_GUARD_CALLS: &[&str] = &["min", "clamp", "count", "take", "get"];

/// Allocation-sized sinks: a tainted length reaching one of these without
/// a prior guard is an allocation bomb (`vec![0; n]` and slice-range math
/// are handled structurally in the lint).
pub const TAINT_SINK_METHODS: &[&str] = &["with_capacity", "reserve", "reserve_exact"];

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
fn alpha(x: usize) -> usize {
    x + 1
}

#[cfg(test)]
mod tests {
    fn beta() {
        let v: Vec<u32> = vec![];
        v[0];
    }
}

fn gamma() {}
";

    #[test]
    fn line_numbers_and_fn_spans() {
        let f = SourceFile::parse("crates/x/src/lib.rs", SAMPLE);
        let names: Vec<_> = f.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["alpha", "beta", "gamma"]);
        let alpha = &f.fns[0];
        assert_eq!(f.line_of(alpha.start), 1);
        assert!(f.masked[alpha.body.clone()].contains("x + 1"));
    }

    #[test]
    fn cfg_test_module_ranges_cover_test_code() {
        let f = SourceFile::parse("crates/x/src/lib.rs", SAMPLE);
        let beta = f.fns.iter().find(|x| x.name == "beta").expect("beta");
        assert!(f.in_test(beta.start), "beta lives inside #[cfg(test)]");
        let gamma = f.fns.iter().find(|x| x.name == "gamma").expect("gamma");
        assert!(!f.in_test(gamma.start));
    }

    #[test]
    fn allow_parsing_and_matching() {
        let src = "\
// xtask-allow(no-untrusted-index): idx was bounds-checked by the caller
let x = blocks[idx];
let z = blocks[jdx]; // xtask-allow(no-untrusted-index): jdx < n by construction
// xtask-allow(timestamp-discipline)
let newer = a.ticks() > b.ticks();
";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert_eq!(f.allows.len(), 2);
        assert!(f.allowed("no-untrusted-index", 2), "allow on previous line applies");
        assert!(f.allowed("no-untrusted-index", 3), "same-line allow applies");
        assert!(!f.allowed("no-untrusted-index", 5));
        assert_eq!(
            f.malformed_allows,
            vec![4],
            "allow without a reason is malformed"
        );
    }
}
