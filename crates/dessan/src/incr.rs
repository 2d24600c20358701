//! Incremental lint: memoized per-file findings.
//!
//! The per-file rule work (token rules plus the CFG-heavy units-flow and
//! protocol analyses) is a pure function of one file's content, the
//! `hot-fn` designations applying to it, and the rule set. This module
//! caches that function's result in a side file under
//! `target/dessan-cache/`, keyed by FNV-1a content hash, so a warm
//! workspace run re-lints only the files that changed.
//!
//! Scope is honest and narrow: **workspace-level analyses always
//! re-run** (cross-file taint, the effect pass with `hot-path-alloc`,
//! lock order, key coverage — their inputs are the whole file set), and
//! lexing re-runs too because those analyses need live token streams.
//! What the cache saves is the dominant per-file cost: CFG construction
//! and dataflow solving for every unchanged file.
//!
//! The side-file format is line-oriented and versioned; the header bakes
//! in a digest of the rule id list, so adding or renaming a rule
//! invalidates every entry at once. Any parse doubt discards the cache —
//! it is a memo, never a source of truth — and save errors are swallowed
//! (a read-only `target/` costs speed, not correctness).

use std::collections::BTreeMap;
use std::path::Path;

use crate::lint::{LintFinding, Rule};

/// FNV-1a 64-bit, local copy (dessan depends on no other crate).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest of the rule-id list: changes whenever a rule is added, removed,
/// renamed, or reordered.
fn rules_digest() -> u64 {
    let ids: Vec<&str> = Rule::ALL.iter().map(|r| r.id()).collect();
    fnv1a64(ids.join(",").as_bytes())
}

/// Content key for one file: source bytes plus the extra-hot designations
/// that change what the per-file rules see.
fn content_key(src: &str, extra_hot: &[String]) -> u64 {
    let mut h = fnv1a64(src.as_bytes());
    for hot in extra_hot {
        h ^= fnv1a64(hot.as_bytes()).rotate_left(17);
    }
    h
}

/// `\`/newline escaping so messages and chain entries stay one line each.
fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some(other) => out.push(other),
                None => break,
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// The memo: per-path entries of `(content key, findings)`.
pub struct IncrCache {
    entries: BTreeMap<String, (u64, Vec<LintFinding>)>,
    enabled: bool,
    dirty: bool,
}

/// Relative location of the side file under the workspace root.
const SIDE_FILE: &str = "target/dessan-cache/perfile.v1";

impl IncrCache {
    /// A cache that never hits and never saves (`--no-cache`).
    pub fn disabled() -> IncrCache {
        IncrCache {
            entries: BTreeMap::new(),
            enabled: false,
            dirty: false,
        }
    }

    /// Load the side file under `root`; any unreadable or stale content
    /// yields an empty (but enabled) cache.
    pub fn load(root: &Path) -> IncrCache {
        let mut cache = IncrCache {
            entries: BTreeMap::new(),
            enabled: true,
            dirty: false,
        };
        let Ok(text) = std::fs::read_to_string(root.join(SIDE_FILE)) else {
            return cache;
        };
        cache.entries = parse(&text).unwrap_or_default();
        cache
    }

    /// The cached findings for `path`, if its content (and hot-fn
    /// designations) are unchanged.
    pub fn lookup(&self, path: &str, src: &str, extra_hot: &[String]) -> Option<Vec<LintFinding>> {
        if !self.enabled {
            return None;
        }
        let (key, findings) = self.entries.get(path)?;
        (*key == content_key(src, extra_hot)).then(|| findings.clone())
    }

    /// Record freshly computed findings for `path`.
    pub fn store(&mut self, path: &str, src: &str, extra_hot: &[String], findings: &[LintFinding]) {
        if !self.enabled {
            return;
        }
        self.entries.insert(
            path.to_string(),
            (content_key(src, extra_hot), findings.to_vec()),
        );
        self.dirty = true;
    }

    /// Write the side file. Best-effort: failures are ignored (the next
    /// run just recomputes).
    pub fn save(&self, root: &Path) {
        if !self.enabled || !self.dirty {
            return;
        }
        let path = root.join(SIDE_FILE);
        if let Some(dir) = path.parent() {
            if std::fs::create_dir_all(dir).is_err() {
                return;
            }
        }
        let _ = std::fs::write(&path, render(&self.entries));
    }
}

fn render(entries: &BTreeMap<String, (u64, Vec<LintFinding>)>) -> String {
    let mut out = format!("dessan-cache v1 rules={:016x}\n", rules_digest());
    for (path, (key, findings)) in entries {
        out.push_str(&format!("file {path} {key:016x} {}\n", findings.len()));
        for f in findings {
            out.push_str(&format!(
                "f {} {} {}\n{}\n",
                f.rule.id(),
                f.line,
                f.chain.len(),
                escape(&f.message)
            ));
            for c in &f.chain {
                out.push_str(&escape(c));
                out.push('\n');
            }
        }
    }
    out
}

fn parse(text: &str) -> Option<BTreeMap<String, (u64, Vec<LintFinding>)>> {
    let mut lines = text.lines();
    let header = lines.next()?;
    if header != format!("dessan-cache v1 rules={:016x}", rules_digest()) {
        return None;
    }
    let mut entries = BTreeMap::new();
    let mut cur: Option<(String, u64, usize, Vec<LintFinding>)> = None;
    loop {
        // Flush a completed entry before starting the next / finishing.
        let line = lines.next();
        let is_file_line = line.is_some_and(|l| l.starts_with("file "));
        if is_file_line || line.is_none() {
            if let Some((path, key, want, findings)) = cur.take() {
                if findings.len() != want {
                    return None;
                }
                entries.insert(path, (key, findings));
            }
        }
        let Some(line) = line else { break };
        if is_file_line {
            let mut parts = line.split(' ');
            parts.next(); // "file"
            let path = parts.next()?.to_string();
            let key = u64::from_str_radix(parts.next()?, 16).ok()?;
            let want: usize = parts.next()?.parse().ok()?;
            cur = Some((path, key, want, Vec::new()));
        } else if let Some(rest) = line.strip_prefix("f ") {
            let mut parts = rest.split(' ');
            let rule = Rule::from_id(parts.next()?)?;
            let lineno: usize = parts.next()?.parse().ok()?;
            let chain_len: usize = parts.next()?.parse().ok()?;
            let message = unescape(lines.next()?);
            let mut chain = Vec::with_capacity(chain_len);
            for _ in 0..chain_len {
                chain.push(unescape(lines.next()?));
            }
            let path = cur.as_ref()?.0.clone();
            cur.as_mut()?.3.push(LintFinding {
                rule,
                path,
                line: lineno,
                message,
                chain,
            });
        } else if !line.is_empty() {
            return None;
        }
    }
    Some(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: Rule, line: usize, msg: &str, chain: &[&str]) -> LintFinding {
        LintFinding {
            rule,
            path: "crates/x/src/lib.rs".into(),
            line,
            message: msg.into(),
            chain: chain.iter().map(|s| s.to_string()).collect(),
        }
    }

    #[test]
    fn roundtrip_preserves_findings() {
        let mut cache = IncrCache::disabled();
        cache.enabled = true;
        let fs = vec![
            finding(Rule::WallClock, 3, "clock\nwith newline", &[]),
            finding(Rule::NondetTaint, 9, "taint", &["a", "b \\ c"]),
        ];
        cache.store("crates/x/src/lib.rs", "src text", &[], &fs);
        let text = render(&cache.entries);
        let parsed = parse(&text).expect("parses");
        assert_eq!(parsed.len(), 1);
        let (key, got) = &parsed["crates/x/src/lib.rs"];
        assert_eq!(*key, content_key("src text", &[]));
        assert_eq!(*got, fs);
    }

    #[test]
    fn lookup_misses_on_changed_content_or_hot_fns() {
        let mut cache = IncrCache::disabled();
        cache.enabled = true;
        cache.store("p", "v1", &[], &[]);
        assert!(cache.lookup("p", "v1", &[]).is_some());
        assert!(cache.lookup("p", "v2", &[]).is_none());
        assert!(cache.lookup("p", "v1", &["pump".to_string()]).is_none());
        assert!(cache.lookup("q", "v1", &[]).is_none());
    }

    #[test]
    fn stale_rules_digest_discards_everything() {
        let text = "dessan-cache v1 rules=0000000000000000\nfile p 0000000000000001 0\n";
        assert!(parse(text).is_none());
    }

    #[test]
    fn truncated_side_file_is_rejected() {
        let good = format!(
            "dessan-cache v1 rules={:016x}\nfile p 0000000000000001 1\n",
            rules_digest()
        );
        // Declares one finding but provides none.
        assert!(parse(&good).is_none());
    }

    #[test]
    fn disabled_cache_never_hits_or_saves() {
        let mut cache = IncrCache::disabled();
        cache.store("p", "v", &[], &[]);
        assert!(cache.lookup("p", "v", &[]).is_none());
        assert!(!cache.dirty);
    }

    #[test]
    fn load_store_save_cycle_through_disk() {
        let dir = std::env::temp_dir().join(format!("dessan-incr-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut cache = IncrCache::load(&dir);
        assert!(cache.lookup("p", "v", &[]).is_none());
        cache.store("p", "v", &[], &[finding(Rule::EnvRead, 1, "env", &[])]);
        cache.save(&dir);
        let warm = IncrCache::load(&dir);
        let hit = warm.lookup("p", "v", &[]).expect("warm hit");
        assert_eq!(hit.len(), 1);
        assert_eq!(hit[0].rule, Rule::EnvRead);
        std::fs::remove_dir_all(&dir).ok();
    }
}
