//! Workspace file discovery (no external deps, deterministic order).

use std::fs;
use std::path::{Path, PathBuf};

/// Directories never scanned: build output, vendored dependency shims
/// (not first-party code — they mirror external crates' APIs), and VCS.
const SKIP_DIRS: [&str; 4] = ["target", "shims", ".git", "bench_results"];

/// Recursively collects `.rs` files under `root`, skipping `SKIP_DIRS`
/// and every subdirectory that is a Cargo workspace of its own (its
/// `Cargo.toml` declares `[workspace]`), sorted by path for stable output.
/// A nested workspace builds apart from this one, so this workspace's
/// rules do not govern it.
#[must_use]
pub fn rust_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !declares_workspace(&path) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// Does `dir/Cargo.toml` open a `[workspace]` table?
fn declares_workspace(dir: &Path) -> bool {
    fs::read_to_string(dir.join("Cargo.toml"))
        .is_ok_and(|toml| toml.lines().any(|line| line.trim() == "[workspace]"))
}

/// `path` relative to `root`, with forward slashes.
#[must_use]
pub fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_this_file_and_skips_shims() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let files = rust_files(&root);
        let rels: Vec<String> = files.iter().map(|p| rel(&root, p)).collect();
        assert!(rels.iter().any(|p| p == "crates/analyze/src/walk.rs"));
        assert!(rels.iter().any(|p| p == "crates/core/src/time.rs"));
        assert!(!rels.iter().any(|p| p.contains("shims")));
        assert!(!rels.iter().any(|p| p.contains("target/")));
        // The benchmark is a workspace of its own.
        assert!(!rels.iter().any(|p| p.starts_with("perfbench/")));
        // Deterministic order.
        let mut sorted = rels.clone();
        sorted.sort();
        assert_eq!(rels, sorted);
    }

    #[test]
    fn skips_nested_workspaces_but_not_members() {
        let root = std::env::temp_dir().join(format!("bshm-walk-{}", std::process::id()));
        let write = |rel: &str, text: &str| {
            let path = root.join(rel);
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(path, text).unwrap();
        };
        write("Cargo.toml", "[workspace]\nmembers = [\"member\"]\n");
        write("src/lib.rs", "");
        write("member/Cargo.toml", "[package]\nname = \"member\"\n");
        write("member/src/lib.rs", "");
        write(
            "apart/Cargo.toml",
            "[package]\nname = \"apart\"\n\n[workspace]\n",
        );
        write("apart/src/main.rs", "");
        write("apart/deep/src/x.rs", "");
        let rels: Vec<String> = rust_files(&root).iter().map(|p| rel(&root, p)).collect();
        fs::remove_dir_all(&root).unwrap();
        assert_eq!(rels, ["member/src/lib.rs", "src/lib.rs"]);
    }
}
