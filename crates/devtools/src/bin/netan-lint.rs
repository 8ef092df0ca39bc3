//! `netan-lint` — the workspace static-analysis pass.
//!
//! ```text
//! netan-lint [--deny] [--root <dir>] [paths…]
//! ```
//!
//! * no flags: lint the whole workspace, print findings, exit 0
//!   (advisory mode),
//! * `--deny`: same, but exit 1 when anything is found (the CI mode),
//! * `paths…`: restrict the scan to the given files/directories
//!   (workspace-relative or absolute),
//! * `--root <dir>`: workspace root override; by default the tool walks
//!   upward from the current directory to the `[workspace]` manifest.
//!
//! Diagnostics go to stdout as `file:line: rule: message`; the summary
//! goes to stderr so the finding list stays machine-readable.

use std::path::PathBuf;
use std::process::ExitCode;

use devtools::{find_workspace_root, lint_paths, lint_workspace};

fn main() -> ExitCode {
    let mut deny = false;
    let mut root_override: Option<PathBuf> = None;
    let mut paths: Vec<PathBuf> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny" => deny = true,
            "--root" => match args.next() {
                Some(dir) => root_override = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("netan-lint: --root requires a directory argument");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                eprintln!("usage: netan-lint [--deny] [--root <dir>] [paths...]");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("netan-lint: unknown flag `{other}`");
                return ExitCode::from(2);
            }
            other => paths.push(PathBuf::from(other)),
        }
    }

    let root = match root_override.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| find_workspace_root(&d))
    }) {
        Some(r) => r,
        None => {
            eprintln!("netan-lint: no `[workspace]` Cargo.toml found above the current directory");
            return ExitCode::from(2);
        }
    };

    let result = if paths.is_empty() {
        lint_workspace(&root)
    } else {
        lint_paths(&root, &paths)
    };
    let diagnostics = match result {
        Ok(d) => d,
        Err(e) => {
            eprintln!("netan-lint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };

    for d in &diagnostics {
        println!("{d}");
    }
    if diagnostics.is_empty() {
        eprintln!("netan-lint: clean");
        ExitCode::SUCCESS
    } else {
        eprintln!("netan-lint: {} finding(s)", diagnostics.len());
        if deny {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        }
    }
}
