//! `lint`: dessan on a pinned input — the `crates/*/src` sources,
//! `dessan.toml` and the dessan fixture corpus of commit
//! [`PINNED_COMMIT`], unpacked from `pinned/` before the run. Pinning the
//! input makes `lint_s` measure the linter, not the growth of the code
//! it lints.

use std::path::{Path, PathBuf};
use std::time::Instant;

use doebench::dessan::lint::{self, Allowlist, LintReport, RunOpts};

use crate::stats::median;
use crate::{ms_since, Ctx, Outcome, Tally, Tracer};

/// The commit whose sources are the pinned input.
pub const PINNED_COMMIT: &str = "b6313f1";
/// `render(run_with(pinned))`, recorded when the input was pinned.
pub const EXPECTED: &str = include_str!("../pinned/lint-b6313f1.expected");

/// A lint report as comparable text: counts, every finding, and every
/// unused allowlist entry.
pub fn render(r: &LintReport) -> String {
    let mut out = format!(
        "files {}\nfindings {}\nallowed {}\n",
        r.files,
        r.findings.len(),
        r.allowed
    );
    for f in &r.findings {
        out.push_str(&format!("{f}\n"));
    }
    for (rule, path) in &r.unused_allows {
        out.push_str(&format!("unused-allow {rule} {path}\n"));
    }
    out
}

/// Check one report against the recorded reference.
pub fn check_report(tally: &mut Tally, got: &str, expected: &str) -> bool {
    tally.check(got == expected, || {
        format!("lint: report on the pinned tree differs from the reference:\n{got}")
    })
}

/// `(line, rule-id)` expectations from a fixture's `//~` markers.
pub fn markers(src: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (i, line) in src.lines().enumerate() {
        if let Some(pos) = line.find("//~") {
            for id in line[pos + 3..].split_whitespace() {
                out.push((i + 1, id.to_string()));
            }
        }
    }
    out
}

/// Check that every annotated fixture line is flagged with its rule.
/// Each marker is one checked operation.
pub fn check_fixtures(tally: &mut Tally, pinned: &Path) -> Result<(), String> {
    let dir = pinned.join("crates/dessan/tests/fixtures");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    files.sort();
    for path in files {
        let src = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
        let pretend = src
            .lines()
            .next()
            .and_then(|l| l.strip_prefix("//@ path:"))
            .map(str::trim)
            .ok_or_else(|| format!("{}: no `//@ path:` header", path.display()))?;
        let found: Vec<(usize, String)> = lint::lint_file(pretend, &src)
            .into_iter()
            .map(|f| (f.line, f.rule.id().to_string()))
            .collect();
        for m in markers(&src) {
            tally.check(found.contains(&m), || {
                format!("lint: {}:{} `{}` left unflagged", path.display(), m.0, m.1)
            });
        }
    }
    Ok(())
}

/// The pinned sources with their hot-function designations: what
/// `run_with` reads before any rule runs.
fn load(root: &Path) -> std::io::Result<Vec<(String, String, Vec<String>)>> {
    let toml = std::fs::read_to_string(root.join("dessan.toml"))?;
    let allow = Allowlist::parse(&toml)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    let mut files = Vec::new();
    let mut crates: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))?
        .flatten()
        .map(|e| e.path())
        .collect();
    crates.sort();
    for c in crates {
        let mut found = Vec::new();
        crate::prov::rs_files(&c.join("src"), &mut found);
        for p in found {
            let rel = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .to_string_lossy()
                .replace('\\', "/");
            let text = std::fs::read_to_string(&p)?;
            let hot = allow.hot_fns_for(&rel);
            files.push((rel, text, hot));
        }
    }
    Ok(files)
}

fn lint_run(root: &Path, use_cache: bool) -> Result<String, String> {
    lint::run_with(root, RunOpts { use_cache })
        .map(|r| render(&r))
        .map_err(|e| e.to_string())
}

/// Run the workload: whole-workspace lints of the pinned tree without
/// the incremental cache (the main operation) and with a warm cache
/// (the second), until the run's seconds are spent.
pub fn run(ctx: &Ctx, tr: &mut Tracer, min_ops: usize) -> Outcome {
    let mut out = Outcome::default();
    let root = ctx.pinned.as_path();
    // Set-up is sampled once per round, so its samples span the run.
    let setup = |out: &mut Outcome| {
        let t0 = Instant::now();
        let files = load(root);
        out.setup_s.push(t0.elapsed().as_secs_f64());
        files.unwrap_or_else(|e| {
            out.tally.fail(|| format!("lint: load pinned tree: {e}"));
            Vec::new()
        })
    };
    let files = setup(&mut out);
    if let Err(e) = check_fixtures(&mut out.tally, root) {
        out.tally.fail(|| format!("lint fixtures: {e}"));
    }
    // Prime the incremental cache for the warm runs.
    if let Err(e) = lint_run(root, true) {
        out.tally.fail(|| format!("lint: {e}"));
    }

    let deadline = ctx.deadline(1.0);
    let mut req = 0;
    while out.op_ms.len() < min_ops || Instant::now() < deadline {
        req += 1;
        setup(&mut out);
        for (cached, samples) in [(false, &mut out.op_ms), (true, &mut out.op2_ms)] {
            let name = if cached {
                "dessan.run_with_cached"
            } else {
                "dessan.run_with"
            };
            let t0 = Instant::now();
            let r = tr.span(name, req, || lint_run(root, cached));
            samples.push(ms_since(t0));
            match r {
                Ok(text) => {
                    check_report(&mut out.tally, &text, EXPECTED);
                }
                Err(e) => out.tally.fail(|| format!("lint: {e}")),
            }
        }
    }

    let lint_s = median(&out.op_ms) / 1e3;
    out.ops_per_s = files.len() as f64 / lint_s;
    out.summary = vec![
        format!(
            "lint_s {lint_s} s (median of {}, {} files, no cache)",
            out.op_ms.len(),
            files.len()
        ),
        format!(
            "lint_cached_s {} s (warm incremental cache)",
            median(&out.op2_ms) / 1e3
        ),
    ];
    out.provenance
        .push(("lint_pinned_commit".into(), PINNED_COMMIT.into()));

    if tr.enabled() {
        // Per-file rules alone, file by file.
        let mut per_file = Vec::new();
        for r in 0..3u64 {
            let t0 = Instant::now();
            for (i, (rel, text, hot)) in files.iter().enumerate() {
                let f = tr.span("dessan.lint_file", 1_000 * r + i as u64, || {
                    lint::lint_file_with_hot(rel, text, hot)
                });
                std::hint::black_box(f);
            }
            per_file.push(ms_since(t0));
        }
        let per_file_ms = median(&per_file);
        out.layers
            .insert("dessan.per_file_ms".into(), (per_file_ms, "ms"));
        out.layers.insert(
            "dessan.whole_program_ms".into(),
            (lint_s * 1e3 - per_file_ms, "ms"),
        );
        out.layers.insert("dessan.lint_s".into(), (lint_s, "s"));
    }
    out
}
