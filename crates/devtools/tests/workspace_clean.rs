//! The workspace-level acceptance tests: the tree lints clean and the
//! lint lints itself.

use std::path::{Path, PathBuf};

use devtools::{find_workspace_root, lint_paths, lint_workspace};

fn root() -> PathBuf {
    find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("devtools must live inside the netan workspace")
}

fn render(diags: &[devtools::Diagnostic]) -> String {
    diags
        .iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn workspace_lints_clean() {
    let diags = lint_workspace(&root()).expect("workspace scan");
    assert!(diags.is_empty(), "netan-lint findings:\n{}", render(&diags));
}

#[test]
fn devtools_lints_itself_clean() {
    let diags = lint_paths(&root(), &[PathBuf::from("crates/devtools")]).expect("self scan");
    assert!(diags.is_empty(), "netan-lint findings:\n{}", render(&diags));
}
