//! `devtools` — workspace development tooling, currently the
//! `netan-lint` static-analysis pass.
//!
//! Every engine in this repo promises byte-identical results across
//! serial/parallel/sharded/resumed runs. That discipline used to be
//! enforced only by tests after the fact; `netan-lint` checks the
//! statically detectable part of it at the source level:
//!
//! * numeric narrowing that can silently saturate (the `plan_measurement`
//!   `as u32` overflow class),
//! * hash-order collections inside the bit-identity crates,
//! * wall-clock time and ambient entropy outside this tool,
//! * `unsafe` without a written safety argument,
//! * panics in `netan` and `netan-serve` library paths (a flat ban).
//!
//! The scanner is a hand-rolled, dependency-free token lexer
//! ([`lexer`]) — the same offline-first move as the in-tree proptest
//! shim — and the rule registry lives in [`rules`].
//! Run it with `cargo run -p devtools --bin netan-lint -- --deny`; see
//! `crates/devtools/RULES.md` for the rule reference and suppression
//! syntax.
//!
//! ## Suppression directives
//!
//! A finding is suppressed by a comment directive naming the rule and
//! justifying the exception (the justification is mandatory):
//!
//! ```text
//! let ms = (secs * 1000.0) as i64; // netan-lint: allow(lossy-cast): render only; value bounded by validation above
//! ```
//!
//! A directive on its own line applies to the next code line. Unused
//! directives, unknown rule names, and missing justifications are
//! themselves findings, so suppressions cannot rot silently.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod rules;

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Which compilation-target family a file belongs to, derived from its
/// path (`src/` vs `tests/` vs `examples/`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    Lib,
    Test,
    Example,
    Other,
}

/// The scoping context of one file: which crate it belongs to and what
/// kind of target it is. Root-level `tests/` and `examples/` are targets
/// of the `netan` package, whose crate directory is `core`.
#[derive(Debug, Clone)]
pub struct FileCtx {
    pub crate_name: String,
    pub kind: FileKind,
}

/// Classifies a workspace-relative path (forward slashes).
pub fn classify(rel: &str) -> FileCtx {
    let parts: Vec<&str> = rel.split('/').collect();
    if parts.first() == Some(&"crates") && parts.len() >= 3 {
        let kind = match parts[2] {
            "src" => FileKind::Lib,
            "tests" => FileKind::Test,
            "examples" => FileKind::Example,
            _ => FileKind::Other,
        };
        return FileCtx {
            crate_name: parts[1].to_string(),
            kind,
        };
    }
    match parts.first() {
        Some(&"tests") => FileCtx {
            crate_name: "core".to_string(),
            kind: FileKind::Test,
        },
        Some(&"examples") => FileCtx {
            crate_name: "core".to_string(),
            kind: FileKind::Example,
        },
        _ => FileCtx {
            crate_name: String::new(),
            kind: FileKind::Other,
        },
    }
}

/// One lint finding: `file:line: rule: message`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    pub path: String,
    pub line: u32,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// A parsed `netan-lint: allow(<rule>)` directive.
#[derive(Debug)]
struct Directive {
    /// Line the directive comment starts on.
    line: u32,
    /// Code line the directive governs (same line for trailing comments,
    /// the next code line otherwise).
    target: Option<u32>,
    rule: String,
    justified: bool,
    known: bool,
    used: bool,
}

/// Extracts directives from a file's comments. A directive must start the
/// comment (after the `//`/`/*` introducer), so prose that merely
/// mentions the syntax is ignored.
fn parse_directives(lexed: &lexer::Lexed) -> Vec<Directive> {
    let mut out = Vec::new();
    for c in &lexed.comments {
        let body = c
            .text
            .trim_start_matches(['/', '*', '!'])
            .trim_start()
            .trim_end_matches("*/")
            .trim_end();
        let Some(rest) = body.strip_prefix("netan-lint:") else {
            continue;
        };
        let rest = rest.trim_start();
        let (rule, tail) = match rest.strip_prefix("allow(").and_then(|r| r.split_once(')')) {
            Some((rule, tail)) => (rule.trim().to_string(), tail),
            None => (String::new(), rest),
        };
        let justification = tail.trim_start_matches([':', '-', '—', ' ']).trim();
        let target = if c.trailing {
            Some(c.line)
        } else {
            lexed
                .tokens
                .iter()
                .find(|t| t.line > c.end_line)
                .map(|t| t.line)
        };
        out.push(Directive {
            line: c.line,
            target,
            known: rules::SUPPRESSIBLE.contains(&rule.as_str()),
            justified: justification.chars().count() >= 10,
            rule,
            used: false,
        });
    }
    out
}

/// Lints one file's source text under a pretend workspace-relative path
/// (which selects the crate/kind scoping). This is the whole per-file
/// pipeline: lex → rules → directive hygiene → suppression →
/// unused-directive check.
pub fn lint_source(rel_path: &str, source: &str) -> Vec<Diagnostic> {
    let ctx = classify(rel_path);
    let lexed = lexer::lex(source);
    let lines: Vec<&str> = source.lines().collect();
    let mut findings = rules::run_rules(&ctx, &lexed, &lines, rel_path);
    let mut directives = parse_directives(&lexed);

    let mut out = Vec::new();
    for d in &directives {
        if !d.known {
            out.push(Diagnostic {
                path: rel_path.to_string(),
                line: d.line,
                rule: rules::UNKNOWN_RULE,
                message: format!(
                    "directive names no suppressible rule (got `{}`); expected one of {}",
                    d.rule,
                    rules::SUPPRESSIBLE.join(", ")
                ),
            });
        } else if !d.justified {
            out.push(Diagnostic {
                path: rel_path.to_string(),
                line: d.line,
                rule: rules::MISSING_JUSTIFICATION,
                message: format!(
                    "suppression of `{}` needs a written justification: \
                     `netan-lint: allow({}): <why this is sound>`",
                    d.rule, d.rule
                ),
            });
        }
    }

    // Apply suppressions: a well-formed directive removes same-rule
    // findings on its target line. Malformed directives suppress nothing,
    // so the underlying finding stays visible alongside the hygiene one.
    findings.retain(|f| {
        for d in &mut directives {
            if d.known && d.justified && d.target == Some(f.line) && d.rule == f.rule {
                d.used = true;
                return false;
            }
        }
        true
    });

    for d in &directives {
        if d.known && d.justified && !d.used {
            out.push(Diagnostic {
                path: rel_path.to_string(),
                line: d.line,
                rule: rules::UNUSED_SUPPRESSION,
                message: format!(
                    "`allow({})` matches no finding on its target line; remove the stale \
                     directive",
                    d.rule
                ),
            });
        }
    }

    out.extend(findings);
    out.sort();
    out
}

/// Directory names the walker never descends into: build output, VCS
/// metadata, and lint-test fixture snippets (which violate rules on
/// purpose).
fn skip_dir(name: &str) -> bool {
    matches!(name, "target" | ".git" | "fixtures")
}

/// Every `.rs` file under `root`, workspace-relative with forward
/// slashes, in sorted (deterministic) order.
pub fn workspace_files(root: &Path) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    walk(root, root, &mut out)?;
    out.sort();
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !skip_dir(&name) {
                walk(root, &path, out)?;
            }
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    Ok(())
}

/// Lints the whole workspace rooted at `root`.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let files = workspace_files(root)?;
    lint_files(root, &files)
}

/// Lints an explicit set of files and/or directories (absolute or
/// root-relative paths), using the same scoping as a full workspace run.
pub fn lint_paths(root: &Path, paths: &[PathBuf]) -> io::Result<Vec<Diagnostic>> {
    let mut files = Vec::new();
    for p in paths {
        let abs = if p.is_absolute() {
            p.clone()
        } else {
            root.join(p)
        };
        if abs.is_dir() {
            walk(root, &abs, &mut files)?;
        } else if let Ok(rel) = abs.strip_prefix(root) {
            files.push(rel.to_string_lossy().replace('\\', "/"));
        }
    }
    files.sort();
    files.dedup();
    lint_files(root, &files)
}

fn lint_files(root: &Path, files: &[String]) -> io::Result<Vec<Diagnostic>> {
    let mut out = Vec::new();
    for rel in files {
        let source = fs::read_to_string(root.join(rel))?;
        out.extend(lint_source(rel, &source));
    }
    out.sort();
    Ok(out)
}

/// Walks upward from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_maps_paths_to_contexts() {
        let c = classify("crates/core/src/lot.rs");
        assert_eq!(c.crate_name, "core");
        assert_eq!(c.kind, FileKind::Lib);
        let c = classify("crates/mixsig/tests/properties.rs");
        assert_eq!(c.crate_name, "mixsig");
        assert_eq!(c.kind, FileKind::Test);
        // Root tests/examples are netan (crates/core) targets.
        let c = classify("tests/escalation.rs");
        assert_eq!(c.crate_name, "core");
        assert_eq!(c.kind, FileKind::Test);
        let c = classify("examples/quickstart.rs");
        assert_eq!(c.crate_name, "core");
        assert_eq!(c.kind, FileKind::Example);
    }

    #[test]
    fn directive_prose_in_docs_is_not_a_directive() {
        // The syntax quoted mid-sentence (not at comment start) must not
        // parse as a directive; only real leading directives do.
        let src =
            "/// Suppress with a trailing netan-lint: allow(lossy-cast): … comment.\nfn f() {}\n";
        let lexed = lexer::lex(src);
        assert_eq!(parse_directives(&lexed).len(), 0);
    }
}
