//! `cargo xtask` — workspace automation for the FAB reproduction.
//!
//! Subcommands:
//!
//! * `analyze [--list] [--json] [PATH ...]` — run the protocol-aware
//!   static-analysis pass over the workspace sources: the rules that need
//!   to know the protocol (L1b, L4, L6, L8, L9; see `lints.rs`, `graph.rs`
//!   and DESIGN.md — L1, L2, L3 and L5 are clippy's, `tools/ci.sh` stage
//!   5). L8 (no blocking on the event loop) runs over a whole-workspace
//!   call graph, the rest are per-file passes. Exits non-zero if any
//!   unsuppressed violation — or any stale `xtask-allow` — is found. With
//!   explicit PATHs, analyzes only those files/directories (L8 then sees
//!   only that slice of the graph). `--json` emits deterministically-sorted
//!   machine-readable diagnostics, suppressed ones included.
//!
//! * `loc` — per-crate non-test line counts of `crates/*/src`, the figure
//!   simplicity PRs quote before and after: lines before a file's first
//!   top-level `#[cfg(test)]` that are neither blank nor comment-only
//!   (judged on the lexer's masked text, so doc comments do not count).
//!
//! The binary is dependency-free on purpose: it must build in hermetic CI
//! images with an empty cargo registry.

mod graph;
mod lexer;
mod lints;
mod model;

use lints::Diagnostic;
use model::SourceFile;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn workspace_root() -> PathBuf {
    // tools/xtask/ -> workspace root is two levels up from this manifest.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

/// Collect `.rs` files under `dir`, recursively, in sorted order.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Default analysis set: every crate's `src/` plus the facade `src/`.
/// Integration tests, benches and examples are intentionally out of scope —
/// the lints police protocol code, and test code is allowed to unwrap.
fn default_targets(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if let Ok(entries) = std::fs::read_dir(&crates_dir) {
        let mut dirs: Vec<_> = entries.flatten().map(|e| e.path()).collect();
        dirs.sort();
        for d in dirs {
            collect_rs(&d.join("src"), &mut files);
        }
    }
    collect_rs(&root.join("src"), &mut files);
    files
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

fn analyze(args: &[String]) -> ExitCode {
    let root = workspace_root();

    if args.iter().any(|a| a == "--list") {
        println!("{:<22} {:<5} description", "lint", "rule");
        for l in lints::registry() {
            println!("{:<22} {:<5} {}", l.id, l.rule, l.desc);
        }
        return ExitCode::SUCCESS;
    }

    let list_allows = args.iter().any(|a| a == "--allows");
    let json = args.iter().any(|a| a == "--json");
    let explicit: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let files: Vec<PathBuf> = if explicit.is_empty() {
        default_targets(&root)
    } else {
        let mut files = Vec::new();
        for arg in explicit {
            let p = {
                let direct = PathBuf::from(arg);
                if direct.exists() {
                    direct
                } else {
                    root.join(arg)
                }
            };
            if p.is_dir() {
                collect_rs(&p, &mut files);
            } else {
                files.push(p);
            }
        }
        files
    };

    let mut parsed: Vec<SourceFile> = Vec::new();
    for path in &files {
        let Ok(raw) = std::fs::read_to_string(path) else {
            eprintln!("xtask: warning: unreadable file {}", path.display());
            continue;
        };
        let rel = rel_path(&root, path);
        let file = SourceFile::parse(&rel, &raw);
        if list_allows {
            for a in &file.allows {
                println!("{rel}:{}: allow({}) — {}", a.line, a.lint, a.reason);
            }
        }
        parsed.push(file);
    }
    if list_allows {
        return ExitCode::SUCCESS;
    }
    let analyzed = parsed.len();

    // The workspace lint (L8) needs the whole call graph, then stale-allow
    // detection needs every diagnostic — suppressed ones included — so an
    // allow matching *any* finding counts as live.
    let (workspace, mut diags) = lints::check_all(parsed);
    let mut stale = Vec::new();
    for file in &workspace.files {
        lints::stale_allows(file, &diags, &mut stale);
    }
    diags.append(&mut stale);

    // Deterministic order for humans and machines alike.
    diags.sort_by(|a, b| {
        (&a.path, a.line, a.lint, &a.msg).cmp(&(&b.path, b.line, b.lint, &b.msg))
    });
    let unsuppressed = diags.iter().filter(|d| !d.suppressed).count();
    let suppressed = diags.len() - unsuppressed;

    if json {
        println!("{}", json_report(&diags));
        return if unsuppressed == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }

    for d in diags.iter().filter(|d| !d.suppressed) {
        println!("{d}");
    }
    if unsuppressed == 0 {
        println!(
            "xtask analyze: {analyzed} files clean (rules L1b L4 L6 L8 L9, 0 violations, {suppressed} suppressed)"
        );
        ExitCode::SUCCESS
    } else {
        println!(
            "xtask analyze: {unsuppressed} violation(s) in {analyzed} files ({suppressed} suppressed)"
        );
        println!("suppress a finding with `// xtask-allow(<lint>): <reason>` on or above the line");
        ExitCode::FAILURE
    }
}

/// Render diagnostics as a JSON array, sorted by the caller. Hand-rolled
/// (the binary is dependency-free); escaping covers everything our
/// messages can contain.
fn json_report(diags: &[Diagnostic]) -> String {
    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"msg\": \"{}\", \"suppressed\": {}}}",
            esc(&d.path),
            d.line,
            esc(d.lint),
            esc(&d.msg),
            d.suppressed
        ));
    }
    out.push_str("\n]");
    out
}

/// Non-test lines of one source file (see the module docs for the rule).
fn non_test_lines(raw: &str) -> usize {
    let masked = lexer::mask(raw).text;
    masked
        .lines()
        .take_while(|line| !line.starts_with("#[cfg(test)]"))
        .filter(|line| !line.trim().is_empty())
        .count()
}

/// `cargo xtask loc`: one row per crate under `crates/`, then the total.
fn loc() -> ExitCode {
    let crates_dir = workspace_root().join("crates");
    let Ok(entries) = std::fs::read_dir(&crates_dir) else {
        eprintln!("xtask loc: cannot read {}", crates_dir.display());
        return ExitCode::FAILURE;
    };
    let mut dirs: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    dirs.sort();
    let mut total = 0;
    for dir in dirs.iter().filter(|d| d.is_dir()) {
        let mut files = Vec::new();
        collect_rs(&dir.join("src"), &mut files);
        let lines: usize = files
            .iter()
            .filter_map(|f| std::fs::read_to_string(f).ok())
            .map(|raw| non_test_lines(&raw))
            .sum();
        let name = dir.file_name().unwrap_or_default().to_string_lossy();
        println!("{name:<14}{lines:>7}");
        total += lines;
    }
    println!("{:<14}{total:>7}", "total");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("analyze") => analyze(&args[1..]),
        Some("loc") => loc(),
        _ => {
            eprintln!("usage: cargo xtask <analyze|loc> [ARGS ...]");
            eprintln!();
            eprintln!("  analyze   run the protocol-aware lints (rules L1b L4 L6 L8 L9)");
            eprintln!("    --list    print the lint registry and exit");
            eprintln!("    --allows  audit every xtask-allow suppression and its reason");
            eprintln!("    --json    emit deterministically-sorted machine-readable diagnostics");
            eprintln!("  loc       per-crate non-test line counts of crates/*/src");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::non_test_lines;

    #[test]
    fn loc_counts_code_before_the_first_top_level_test_module() {
        let src = "//! docs\n\nuse a::b; // trailing\n/* block\n   comment */\n\
                   fn f() {\n    #[cfg(test)]\n    g();\n}\n\n\
                   #[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n";
        // `use`, `fn f() {`, the indented attribute, `g();`, `}`.
        assert_eq!(non_test_lines(src), 5);
        assert_eq!(non_test_lines(""), 0);
    }
}
