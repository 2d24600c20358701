//! Provenance of a run: host cores, commit, and source size per crate.
//!
//! Source lines are informational: they are printed with every run and
//! never gated.

use std::path::{Path, PathBuf};

/// The commit checked out at `root`, read from `.git` without running
/// git; `None` when `root` is not a git checkout.
pub fn commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(refname)) {
        return Some(sha.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (sha, name) = l.split_once(' ')?;
        (name == refname).then(|| sha.to_string())
    })
}

/// Every `.rs` file under `dir`, recursively, in sorted order.
pub(crate) fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            rs_files(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Lines of a source file before its first top-level `#[cfg(test)]`.
pub fn non_test_lines(src: &str) -> usize {
    src.lines()
        .take_while(|l| !l.starts_with("#[cfg(test)]"))
        .count()
}

/// `(crate, non-test source lines)` for every `crates/*/src` under
/// `root`, plus an FNV-1a digest over those sources (identifies the
/// measured code where no commit is available).
pub fn source_lines(root: &Path) -> (Vec<(String, usize)>, u64) {
    let mut crates: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .map(|it| it.flatten().map(|e| e.path()).collect())
        .unwrap_or_default();
    crates.sort();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut out = Vec::new();
    for c in crates {
        let mut files = Vec::new();
        rs_files(&c.join("src"), &mut files);
        if files.is_empty() {
            continue;
        }
        let mut lines = 0;
        for f in files {
            let text = std::fs::read_to_string(&f).unwrap_or_default();
            for b in text.bytes() {
                digest ^= b as u64;
                digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
            }
            lines += non_test_lines(&text);
        }
        let name = c.file_name().map(|n| n.to_string_lossy().into_owned());
        out.push((name.unwrap_or_default(), lines));
    }
    (out, digest)
}
