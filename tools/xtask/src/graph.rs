//! Workspace semantic model: per-function facts and a resolved call graph.
//!
//! This is the layer L8 (nothing blocking reachable from the event loop)
//! stands on. It stays true to the zero-dependency philosophy of `lexer.rs`:
//! no `syn`, no AST — just the masked token stream plus enough structure to
//! answer three questions:
//!
//! 1. **Who calls whom?** Every `name(`, `.name(` and `Path::name(` site is
//!    recorded with its argument count and resolved against the workspace's
//!    `fn` items (exact `Type::name` match first, then bare name + arity).
//! 2. **What does each function do that blocks?** Channel and lock waits,
//!    fsyncs, 0-ary `join`, `sleep`, `connect_timeout`, … are per-function
//!    facts.
//! 3. **What is reachable?** A transitive closure over the call graph gives
//!    each function a witness chain to its first blocking operation, if any.
//!
//! Known approximations (all documented in DESIGN.md §9):
//!
//! * A bare-name method call resolves to **every** workspace `fn` with that
//!   name and arity (receiver types are not inferred). Exact-path calls
//!   (`Type::name`, `Self::name`) resolve exactly. This can only *add*
//!   spurious edges, never hide a real one.
//! * The arity filter trades a class of false cycles (std methods shadowing
//!   workspace names, e.g. `TcpStream::shutdown(how)` vs our 0-ary
//!   `shutdown(self)`) for missed edges on arity-mismatched true calls,
//!   which Rust's lack of overloading makes rare.
//! * A closure's facts belong to the function that contains it — except the
//!   closure handed to a `spawn(..)` call, which runs on the thread it
//!   starts: the spawner does not wait for it, so neither its calls nor its
//!   waits are the spawner's.

use crate::lexer::{is_ident_byte, word_occurrences};
use crate::model::{match_brace, SourceFile, GRAPH_EXCLUDED_PREFIXES};
use std::collections::BTreeMap;
use std::ops::Range;

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Bare callee name (last path segment).
    pub callee: String,
    /// `Type::name` when the call was path-qualified (`Self::` resolved to
    /// the impl type). `None` for plain and method calls.
    pub qual: Option<String>,
    /// Number of top-level arguments at the call site.
    pub args: usize,
    /// Byte offset of the callee name in the file's masked text.
    pub offset: usize,
}

/// One directly-blocking operation (channel wait, fsync, sleep, …).
#[derive(Debug, Clone)]
pub struct BlockingSite {
    pub what: String,
    pub offset: usize,
}

/// Per-function facts.
#[derive(Debug)]
pub struct FnInfo {
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// Bare function name.
    pub name: String,
    /// `Type::name` for fns inside an `impl` block, bare name otherwise.
    pub qual: String,
    /// Parameter count, `self` excluded.
    pub params: usize,
    pub calls: Vec<CallSite>,
    pub blocking: Vec<BlockingSite>,
}

/// The whole-workspace model.
pub struct Workspace {
    pub files: Vec<SourceFile>,
    pub fns: Vec<FnInfo>,
    by_name: BTreeMap<String, Vec<usize>>,
    by_qual: BTreeMap<String, Vec<usize>>,
}

const KEYWORDS: &[&str] = &[
    "if", "match", "while", "for", "loop", "return", "fn", "move", "unsafe", "else", "in", "as",
    "let", "mut", "ref", "pub", "where", "impl", "dyn", "box", "self", "Self", "super", "crate",
    "use", "mod", "struct", "enum", "trait", "type", "const", "static", "break", "continue",
    "async", "await", "true", "false",
];

impl Workspace {
    /// Build the model from already-parsed files. Files under the excluded
    /// prefixes (dev harnesses and client-side glue, see
    /// [`GRAPH_EXCLUDED_PREFIXES`]) contribute nothing to the graph so
    /// their `fn` names cannot pollute bare-name resolution.
    pub fn build(files: Vec<SourceFile>) -> Workspace {
        let mut fns = Vec::new();
        for (fi, file) in files.iter().enumerate() {
            if GRAPH_EXCLUDED_PREFIXES.iter().any(|p| file.path.starts_with(p)) {
                continue;
            }
            let impls = impl_blocks(&file.masked);
            for f in &file.fns {
                if f.body.is_empty() || file.in_test(f.start) {
                    continue;
                }
                let impl_ty = impls
                    .iter()
                    .filter(|(_, r)| r.contains(&f.start))
                    .min_by_key(|(_, r)| r.end - r.start)
                    .map(|(ty, _)| ty.as_str());
                let qual = match impl_ty {
                    Some(ty) => format!("{ty}::{}", f.name),
                    None => f.name.clone(),
                };
                let (params, has_self) = param_count(&file.masked, f.start);
                let body = &file.masked[f.body.clone()];
                let base = f.body.start;
                let spawned = spawned_closures(body);
                let here = |off: usize| !spawned.iter().any(|r| r.contains(&(off - base)));
                fns.push(FnInfo {
                    file: fi,
                    name: f.name.clone(),
                    qual,
                    params: if has_self { params.saturating_sub(1) } else { params },
                    calls: find_calls(body, base, impl_ty)
                        .into_iter()
                        .filter(|c| here(c.offset))
                        .collect(),
                    blocking: find_blocking(body, base)
                        .into_iter()
                        .filter(|b| here(b.offset))
                        .collect(),
                });
            }
        }
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut by_qual: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.name.clone()).or_default().push(i);
            by_qual.entry(f.qual.clone()).or_default().push(i);
        }
        Workspace { files, fns, by_name, by_qual }
    }

    /// Resolve one call site (made from function `caller`) to candidate
    /// function indices. Exact `Type::name` matches win; otherwise every
    /// workspace fn with the same bare name and arity is a candidate,
    /// excluding the caller itself (kills false self-recursion through
    /// delegation wrappers like `fn x(&self) { self.inner.x() }`).
    ///
    /// A call qualified with a CamelCase parent (`Box::new`, `Vec::from`)
    /// that does not match a workspace `Type::name` resolves to *nothing*:
    /// the caller explicitly named a type that isn't ours, and falling back
    /// to bare names would alias every std constructor onto workspace fns
    /// of the same name. Lowercase parents are module paths and do fall
    /// back (`codec::put_u32` and a `use`-imported `put_u32` are the same
    /// function).
    pub fn resolve(&self, caller: usize, call: &CallSite) -> Vec<usize> {
        if let Some(q) = &call.qual {
            if let Some(hits) = self.by_qual.get(q) {
                return hits.clone();
            }
            let parent_is_type = q
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_uppercase());
            if parent_is_type {
                return Vec::new();
            }
        }
        let Some(hits) = self.by_name.get(&call.callee) else {
            return Vec::new();
        };
        hits.iter()
            .copied()
            .filter(|&i| i != caller && self.fns[i].params == call.args)
            .collect()
    }

    /// Function index by qualified name within a specific file, if any.
    pub fn fn_by_qual(&self, path: &str, qual: &str) -> Option<usize> {
        self.by_qual
            .get(qual)?
            .iter()
            .copied()
            .find(|&i| self.files[self.fns[i].file].path == path)
    }
}

/// `impl` blocks in one file's masked text, as `(TypeName, body_range)`.
fn impl_blocks(masked: &str) -> Vec<(String, Range<usize>)> {
    let b = masked.as_bytes();
    let mut out = Vec::new();
    for off in word_occurrences(masked, "impl") {
        let mut i = off + 4;
        while i < b.len() && (b[i] as char).is_whitespace() {
            i += 1;
        }
        // Skip the generic parameter list, `->`-aware so `Fn() -> T` bounds
        // don't unbalance the angle depth.
        if i < b.len() && b[i] == b'<' {
            let mut depth = 0i32;
            while i < b.len() {
                match b[i] {
                    b'<' => depth += 1,
                    b'>' if i > 0 && b[i - 1] == b'-' => {}
                    b'>' => {
                        depth -= 1;
                        if depth == 0 {
                            i += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
        }
        // Header runs to the first `{` at bracket depth 0.
        let header_start = i;
        let mut depth = 0i32;
        let mut open = None;
        let mut j = i;
        while j < b.len() {
            match b[j] {
                b'<' | b'(' | b'[' => depth += 1,
                b'>' if j > 0 && b[j - 1] == b'-' => {}
                b'>' | b')' | b']' => depth -= 1,
                b'{' if depth <= 0 => {
                    open = Some(j);
                    break;
                }
                b';' if depth <= 0 => break,
                _ => {}
            }
            j += 1;
        }
        let Some(open) = open else { continue };
        let mut header = &masked[header_start..open];
        if let Some(&w) = word_occurrences(header, "where").first() {
            header = &header[..w];
        }
        // `impl Trait for Type` → the type is after the depth-0 `for`.
        let ty_text = match depth0_word(header, "for") {
            Some(f) => &header[f + 3..],
            None => header,
        };
        if let Some(name) = last_type_segment(ty_text) {
            out.push((name, open..match_brace(masked, open)));
        }
    }
    out
}

/// First occurrence of `word` in `text` at angle/paren/bracket depth 0.
fn depth0_word(text: &str, word: &str) -> Option<usize> {
    let b = text.as_bytes();
    let mut depth = 0i32;
    let mut idx = 0usize;
    let occ = word_occurrences(text, word);
    let mut oi = 0usize;
    while idx < b.len() && oi < occ.len() {
        match b[idx] {
            b'<' | b'(' | b'[' => depth += 1,
            b'>' if idx > 0 && b[idx - 1] == b'-' => {}
            b'>' | b')' | b']' => depth -= 1,
            _ => {}
        }
        if idx == occ[oi] {
            if depth == 0 {
                return Some(idx);
            }
            oi += 1;
        }
        idx += 1;
    }
    None
}

/// `&mut fmt::Formatter<'_>` → `Formatter`; `Host<T, S>` → `Host`;
/// `[u8; 4]` → `None` (unnameable, skipped).
fn last_type_segment(ty: &str) -> Option<String> {
    let head = ty.split('<').next().unwrap_or(ty);
    let seg = head.rsplit("::").next().unwrap_or(head);
    let name: String = seg
        .chars()
        .filter(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    let keep = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_');
    keep.then_some(name)
}

/// Parameter-list segment count for the fn starting at `fn_start`, plus
/// whether the first segment mentions `self`.
fn param_count(masked: &str, fn_start: usize) -> (usize, bool) {
    let b = masked.as_bytes();
    let mut i = fn_start;
    while i < b.len() && b[i] != b'(' {
        if b[i] == b'{' || b[i] == b';' {
            return (0, false);
        }
        i += 1;
    }
    if i >= b.len() {
        return (0, false);
    }
    let (segments, _end) = split_args(masked, i);
    let has_self = segments
        .first()
        .is_some_and(|s| !word_occurrences(s, "self").is_empty());
    (segments.len(), has_self)
}

/// Split the parenthesized list starting at `open` (a `(`) into top-level
/// comma segments, dropping empty (trailing-comma) segments. Returns the
/// segments and the offset one past the closing `)`.
fn split_args(masked: &str, open: usize) -> (Vec<String>, usize) {
    let b = masked.as_bytes();
    debug_assert_eq!(b[open], b'(');
    let mut depth = 0i32;
    let mut i = open;
    let mut seg_start = open + 1;
    let mut segments = Vec::new();
    while i < b.len() {
        match b[i] {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => {
                depth -= 1;
                if depth == 0 {
                    let seg = &masked[seg_start..i];
                    if !seg.trim().is_empty() {
                        segments.push(seg.to_string());
                    }
                    return (segments, i + 1);
                }
            }
            b',' if depth == 1 => {
                let seg = &masked[seg_start..i];
                if !seg.trim().is_empty() {
                    segments.push(seg.to_string());
                }
                seg_start = i + 1;
            }
            _ => {}
        }
        i += 1;
    }
    (segments, masked.len())
}

/// Every call site in `body` (masked, offsets rebased by `base`).
fn find_calls(body: &str, base: usize, impl_ty: Option<&str>) -> Vec<CallSite> {
    let b = body.as_bytes();
    let mut out = Vec::new();
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
        let name = &body[start..i];
        if start > 0 && is_ident_byte(b[start - 1]) {
            continue; // mid-identifier (can't happen given the scan, but safe)
        }
        if KEYWORDS.contains(&name) {
            continue;
        }
        // Skip whitespace, allow one turbofish `::<...>` between name and `(`.
        let mut j = i;
        while j < b.len() && (b[j] as char).is_whitespace() {
            j += 1;
        }
        if body[j..].starts_with("::<") {
            let mut depth = 0i32;
            let mut k = j + 2;
            while k < b.len() {
                match b[k] {
                    b'<' => depth += 1,
                    b'>' if k > 0 && b[k - 1] == b'-' => {}
                    b'>' => {
                        depth -= 1;
                        if depth == 0 {
                            k += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            j = k;
            while j < b.len() && (b[j] as char).is_whitespace() {
                j += 1;
            }
        }
        if j >= b.len() || b[j] != b'(' {
            continue;
        }
        if i < b.len() && b[i] == b'!' {
            continue; // macro invocation
        }
        // Classify by what precedes the name.
        let mut p = start;
        while p > 0 && (b[p - 1] as char).is_whitespace() {
            p -= 1;
        }
        let qual = if p >= 2 && &body[p - 2..p] == "::" {
            // Walk back one more segment for `Parent::name`.
            let mut q = p - 2;
            while q > 0 && is_ident_byte(b[q - 1]) {
                q -= 1;
            }
            let parent = &body[q..p - 2];
            let parent = if parent == "Self" {
                impl_ty.unwrap_or(parent)
            } else {
                parent
            };
            (!parent.is_empty()).then(|| format!("{parent}::{name}"))
        } else {
            None
        };
        let (args, _) = split_args(body, j);
        out.push(CallSite {
            callee: name.to_string(),
            qual,
            args: args.len(),
            offset: base + start,
        });
    }
    out
}

/// Byte ranges of `body` holding a closure passed straight to a `spawn(..)`
/// call (`thread::spawn(move || ..)`, `Builder::spawn(|| ..)`): code that
/// runs on the new thread, not on the spawner's.
fn spawned_closures(body: &str) -> Vec<Range<usize>> {
    word_occurrences(body, "spawn")
        .into_iter()
        .filter_map(|off| {
            let after = off + "spawn".len();
            let open = after + body[after..].find(|c: char| !c.is_whitespace())?;
            let arg = body[open..].strip_prefix('(')?.trim_start();
            let arg = arg.strip_prefix("move").map_or(arg, str::trim_start);
            arg.starts_with('|').then(|| open..split_args(body, open).1)
        })
        .collect()
}

/// Directly-blocking operations in `body`. Channel `send` and socket
/// `write_all` are deliberately absent: every inter-thread channel in this
/// workspace is unbounded (or capacity-1 with a dedicated waiting receiver)
/// and socket writes carry explicit write timeouts — see DESIGN.md §9.
fn find_blocking(body: &str, base: usize) -> Vec<BlockingSite> {
    let b = body.as_bytes();
    let mut out = Vec::new();
    for what in crate::model::BLOCKING_METHODS {
        for off in word_occurrences(body, what) {
            if off > 0 && b[off - 1] == b'.' {
                out.push(BlockingSite { what: (*what).to_string(), offset: base + off });
            }
        }
    }
    for what in crate::model::BLOCKING_CALLS {
        for off in word_occurrences(body, what) {
            let mut j = off + what.len();
            while j < b.len() && (b[j] as char).is_whitespace() {
                j += 1;
            }
            if j < b.len() && b[j] == b'(' {
                out.push(BlockingSite { what: (*what).to_string(), offset: base + off });
            }
        }
    }
    // `.join()` with zero arguments is a thread join; `path.join(seg)` is
    // not, which the arity check distinguishes.
    for off in word_occurrences(body, "join") {
        if off == 0 || b[off - 1] != b'.' {
            continue;
        }
        let mut j = off + 4;
        while j < b.len() && (b[j] as char).is_whitespace() {
            j += 1;
        }
        if j < b.len() && b[j] == b'(' {
            let (args, _) = split_args(body, j);
            if args.is_empty() {
                out.push(BlockingSite { what: "join".to_string(), offset: base + off });
            }
        }
    }
    out.sort_by_key(|s| s.offset);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::build(
            files
                .iter()
                .map(|(p, s)| SourceFile::parse(p, s))
                .collect(),
        )
    }

    #[test]
    fn impl_blocks_qualify_methods() {
        let w = ws(&[(
            "crates/x/src/lib.rs",
            "\
struct Pool;
impl Pool {
    fn take(&self) -> u32 { 0 }
}
impl std::fmt::Display for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { write!(f, \"\") }
}
impl<S: Store> Pipe<S> {
    fn submit(&self, n: u32, done: impl FnOnce() -> u32) {}
}
fn free_standing() {}
",
        )]);
        let quals: Vec<_> = w.fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(quals, ["Pool::take", "Pool::fmt", "Pipe::submit", "free_standing"]);
        assert_eq!(w.fns[2].params, 2, "self excluded from param count");
    }

    #[test]
    fn resolves_cross_module_chain_with_arity() {
        // A cross-crate chain: host::on_net -> store::append -> fsync'ish.
        let w = ws(&[
            (
                "crates/store/src/lib.rs",
                "\
impl Store {
    pub fn append(&mut self, stripe: u64, ev: &Event) -> Result<(), E> {
        self.file.sync_data()
    }
    pub fn shutdown(mut self) {}
}
",
            ),
            (
                "crates/runtime/src/host.rs",
                "\
impl<T: Transport, S: CommitStore> Host<T, S> {
    fn on_net(&mut self, stripe: u64) {
        self.store.append(stripe, &ev);
        self.sock.shutdown(Shutdown::Both);
    }
}
",
            ),
        ]);
        let on_net = w.fn_by_qual("crates/runtime/src/host.rs", "Host::on_net").unwrap();
        let append_call = w.fns[on_net]
            .calls
            .iter()
            .find(|c| c.callee == "append")
            .expect("append call recorded");
        let targets = w.resolve(on_net, append_call);
        assert_eq!(targets.len(), 1);
        assert_eq!(w.fns[targets[0]].qual, "Store::append");
        assert_eq!(w.fns[targets[0]].blocking[0].what, "sync_data");

        // `sock.shutdown(how)` must NOT resolve to the 0-ary Store::shutdown.
        let shut = w.fns[on_net]
            .calls
            .iter()
            .find(|c| c.callee == "shutdown")
            .expect("shutdown call recorded");
        assert!(w.resolve(on_net, shut).is_empty(), "arity filter rejects it");
    }

    #[test]
    fn blocking_facts_distinguish_thread_join_from_path_join() {
        let src = "\
fn f(h: JoinHandle<()>, p: &Path) {
    let _ = h.join();
    let q = p.join(\"sub\");
    rx.recv();
    rx.try_recv();
    std::thread::sleep(d);
}
";
        let w = ws(&[("crates/x/src/lib.rs", src)]);
        let whats: Vec<_> = w.fns[0].blocking.iter().map(|s| s.what.as_str()).collect();
        assert_eq!(whats, ["join", "recv", "sleep"], "path join and try_recv excluded");
    }

    #[test]
    fn a_spawned_closure_belongs_to_the_thread_it_starts() {
        let src = "\
fn start(rx: Receiver<u32>, path: PathBuf) -> JoinHandle<()> {
    prepare(path.clone());
    std::thread::Builder::new().spawn(move || {
        open(&path);
        rx.recv();
    })
}
";
        let w = ws(&[("crates/x/src/lib.rs", src)]);
        let calls: Vec<_> = w.fns[0].calls.iter().map(|c| c.callee.as_str()).collect();
        assert_eq!(calls, ["prepare", "clone", "new", "spawn"], "not `open`");
        assert!(w.fns[0].blocking.is_empty(), "so does the `recv`");
    }

    #[test]
    fn excluded_prefixes_and_tests_stay_out_of_the_graph() {
        let w = ws(&[
            ("crates/torture/src/lib.rs", "fn lock_everything() {}"),
            (
                "crates/x/src/lib.rs",
                "#[cfg(test)]\nmod tests { fn helper() {} }\nfn real() {}",
            ),
        ]);
        let names: Vec<_> = w.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["real"]);
    }
}
