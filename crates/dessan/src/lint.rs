//! The source-level determinism lint.
//!
//! Since dessan v2 this is a syntax-aware scan: files are tokenized by the
//! hand-rolled lossless lexer ([`crate::lex`]), structured into fn/impl/
//! test-region items with line spans ([`crate::items`]), and linked into a
//! workspace call graph ([`crate::callgraph`]). Sixteen rule classes:
//!
//! | id                        | hazard                                              |
//! |---------------------------|-----------------------------------------------------|
//! | `wall-clock`              | `std::time::{Instant,SystemTime}` in simulated code |
//! | `ad-hoc-rng`              | `thread_rng` / `rand::random` outside `SimRng`      |
//! | `hash-order`              | `HashMap`/`HashSet` in report/table/render paths    |
//! | `env-read`                | `std::env::var` outside `config`/`cli` modules      |
//! | `unsafe-no-safety`        | `unsafe` without a nearby `// SAFETY:` comment      |
//! | `unwrap-in-sim`           | `unwrap()`/`expect()` in sim-crate non-test code    |
//! | `hot-path-alloc`          | allocation in, or reachable through the call graph from, a `doebench::hot` function ([`crate::effects`]) |
//! | `nondet-taint`            | nondeterministic value flows into an event time, table cell, or digest ([`crate::taint`]) |
//! | `units-flow`              | mixed-unit arithmetic/comparison in the sim crates ([`crate::unitsflow`]) |
//! | `protocol-send-wait`      | `send_nb` with no matching `recv`/wait on some path ([`crate::protocol`]) |
//! | `protocol-event-order`    | `stream_wait_event` on an event not yet recorded    |
//! | `protocol-buffer-annotate` | `memcpy_async` while launches have unannotated buffers |
//! | `protocol-queue-drain`    | `EventQueue` read after `drain_until` without reschedule |
//! | `effect-contract`         | a fn's call closure violates its `doebench::effects(...)` contract ([`crate::effects`]) |
//! | `lock-order`              | lock-order cycle, double-lock, or condvar protocol misuse ([`crate::locks`]) |
//! | `key-coverage`            | a spec/query struct field missing from the canonical cache key ([`crate::keycov`]) |
//!
//! The first four match the one source-pattern table
//! ([`crate::effects::SOURCES`]) that the taint and effect analyses also
//! read. `nondet-taint` through `protocol-queue-drain` run on the
//! dataflow layer ([`crate::cfg`] + [`crate::dataflow`]) rather than on
//! raw token sequences, so their findings are path-aware: a `send_nb`
//! answered on every control-flow path is clean, and a taint finding
//! carries its source→sink chain. `effect-contract` and `hot-path-alloc`
//! read the interprocedural effect summaries, `lock-order` is a
//! must-hold dataflow over guard bindings, and `key-coverage` a
//! structural proof over struct definitions and the canonical
//! serialization functions.
//!
//! Rules run as passes: per-file passes (`FILE_PASSES`, memoized by the
//! incremental cache) and workspace passes (`WS_PASSES`) over one call
//! graph built per run. Both lists also name the `--timings` phases.
//!
//! A function becomes hot by carrying a `doebench::hot` marker comment
//! before (or on) its `fn` line, or by a `hot-fn path fn-name` line in
//! `dessan.toml`. Inside a hot body, `Box::new`, `vec!`, `format!`,
//! `.to_string()`, `.to_owned()` and `.clone()` are flagged
//! (`.clone_from(...)` reuses its destination buffer and is fine), and so
//! is a call whose callee allocates any depth away
//! (`// doebench::cold-call` cuts an edge, `#[cold]` a callee).
//!
//! Justified sites are waived *in source*, next to the code they excuse:
//! `// dessan::allow(<rule>): <reason>` on the offending line or the line
//! above, or `//! dessan::allow(<rule>): <reason>` for a whole file. The
//! reason is mandatory. `dessan.toml` keeps only `hot-fn` designations;
//! any grandfather entry left unused there is a hard error, so the gate
//! only ratchets tighter.

use std::collections::BTreeSet;
use std::fmt;
use std::path::Path;
// dessan::allow(wall-clock): host-clock import feeds only the --timings scoreboard.
use std::time::{Duration, Instant};

use crate::callgraph::{ws_file, Workspace, WsFile};
use crate::effects::SOURCES;

/// The crates whose non-test code must be panic-free (`unwrap-in-sim`).
const SIM_CRATES: [&str; 7] = [
    "simtime", "gpurt", "mpisim", "netsim", "ompsim", "gpusim", "memmodel",
];

/// A lint rule class.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Rule {
    /// Wall-clock reads in simulated code.
    WallClock,
    /// Ad-hoc randomness outside the seeded `SimRng`.
    AdHocRng,
    /// Hash-ordered iteration in an output path.
    HashOrder,
    /// Environment reads outside configuration modules.
    EnvRead,
    /// `unsafe` without a `// SAFETY:` justification.
    UnsafeNoSafety,
    /// `unwrap()`/`expect()` in sim-crate non-test code.
    UnwrapInSim,
    /// Heap allocation inside a `doebench::hot` function, or reachable
    /// from one through the call graph.
    HotPathAlloc,
    /// A nondeterministic value reaches an event time, table cell, or
    /// FNV digest (dataflow taint, source→sink chain attached).
    NondetTaint,
    /// Mixed-unit arithmetic or comparison (µs vs ns, GB vs GiB, …).
    UnitsFlow,
    /// A `send_nb` that some path never answers with a recv/wait.
    ProtocolSendWait,
    /// `stream_wait_event` on an event with no prior `event_record`.
    ProtocolEventOrder,
    /// Instrumented `memcpy_async` while a launch's buffers are
    /// unannotated.
    ProtocolBufferAnnotate,
    /// `EventQueue` read after `drain_until` with no reschedule between.
    ProtocolQueueDrain,
    /// A function's transitive call closure exhibits an effect its
    /// declared `doebench::effects(...)` contract forbids.
    EffectContract,
    /// Lock-acquisition-order cycle, double-lock on one field, guard held
    /// across a foreign `Condvar::wait`, or `wait` outside a recheck loop.
    LockOrder,
    /// A named field of a key-bearing struct does not flow into the
    /// canonical cache-key derivation.
    KeyCoverage,
}

impl Rule {
    /// The stable identifier used in reports, waivers, and `dessan.toml`.
    pub fn id(self) -> &'static str {
        match self {
            Rule::WallClock => "wall-clock",
            Rule::AdHocRng => "ad-hoc-rng",
            Rule::HashOrder => "hash-order",
            Rule::EnvRead => "env-read",
            Rule::UnsafeNoSafety => "unsafe-no-safety",
            Rule::UnwrapInSim => "unwrap-in-sim",
            Rule::HotPathAlloc => "hot-path-alloc",
            Rule::NondetTaint => "nondet-taint",
            Rule::UnitsFlow => "units-flow",
            Rule::ProtocolSendWait => "protocol-send-wait",
            Rule::ProtocolEventOrder => "protocol-event-order",
            Rule::ProtocolBufferAnnotate => "protocol-buffer-annotate",
            Rule::ProtocolQueueDrain => "protocol-queue-drain",
            Rule::EffectContract => "effect-contract",
            Rule::LockOrder => "lock-order",
            Rule::KeyCoverage => "key-coverage",
        }
    }

    /// The rule with the given stable id, if any.
    pub fn from_id(id: &str) -> Option<Rule> {
        Rule::ALL.iter().copied().find(|r| r.id() == id)
    }

    /// Every rule, in report order.
    pub const ALL: [Rule; 16] = [
        Rule::WallClock,
        Rule::AdHocRng,
        Rule::HashOrder,
        Rule::EnvRead,
        Rule::UnsafeNoSafety,
        Rule::UnwrapInSim,
        Rule::HotPathAlloc,
        Rule::NondetTaint,
        Rule::UnitsFlow,
        Rule::ProtocolSendWait,
        Rule::ProtocolEventOrder,
        Rule::ProtocolBufferAnnotate,
        Rule::ProtocolQueueDrain,
        Rule::EffectContract,
        Rule::LockOrder,
        Rule::KeyCoverage,
    ];

    /// Position in [`Rule::ALL`], for stable report ordering.
    pub(crate) fn order(self) -> usize {
        Rule::ALL
            .iter()
            .position(|r| *r == self)
            .unwrap_or(usize::MAX)
    }
}

/// One lint violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LintFinding {
    /// Which rule fired.
    pub rule: Rule,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// What was found.
    pub message: String,
    /// Structured propagation chain for dataflow findings (source first,
    /// sink last); empty for the token-level rules. The human-readable
    /// message already narrates it — this field is for `--format json`.
    pub chain: Vec<String>,
}

impl fmt::Display for LintFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path,
            self.line,
            self.rule.id(),
            self.message
        )
    }
}

/// Replace comments and string/char literals with spaces, preserving line
/// structure. This is the legacy v1 scanner, kept verbatim as the
/// differential-testing oracle for [`crate::lex::blank_non_code`] — the
/// rules themselves no longer use it.
pub fn strip_comments_and_strings(src: &str) -> String {
    #[derive(PartialEq)]
    enum St {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(usize),
        Char,
    }
    let bytes: Vec<char> = src.chars().collect();
    let mut out = String::with_capacity(src.len());
    let mut st = St::Code;
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        let next = bytes.get(i + 1).copied();
        match st {
            St::Code => match c {
                '/' if next == Some('/') => {
                    st = St::LineComment;
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                    continue;
                }
                '/' if next == Some('*') => {
                    st = St::BlockComment(1);
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                    continue;
                }
                '"' => {
                    st = St::Str;
                    out.push(' ');
                }
                'r' if next == Some('"') || next == Some('#') => {
                    // Possible raw string: r"..." or r#"..."#.
                    let mut j = i + 1;
                    let mut hashes = 0;
                    while bytes.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if bytes.get(j) == Some(&'"') {
                        for _ in i..=j {
                            out.push(' ');
                        }
                        i = j + 1;
                        st = St::RawStr(hashes);
                        continue;
                    }
                    out.push(c);
                }
                '\'' => {
                    // Char literal vs lifetime: a literal closes with a
                    // quote after one (possibly escaped) character.
                    let is_char_lit = match next {
                        Some('\\') => true,
                        Some(_) => bytes.get(i + 2) == Some(&'\''),
                        None => false,
                    };
                    if is_char_lit {
                        st = St::Char;
                    }
                    out.push(' ');
                }
                _ => out.push(c),
            },
            St::LineComment => {
                if c == '\n' {
                    st = St::Code;
                    out.push('\n');
                } else {
                    out.push(' ');
                }
            }
            St::BlockComment(depth) => {
                if c == '\n' {
                    out.push('\n');
                } else {
                    out.push(' ');
                }
                if c == '/' && next == Some('*') {
                    st = St::BlockComment(depth + 1);
                    out.push(' ');
                    i += 2;
                    continue;
                }
                if c == '*' && next == Some('/') {
                    st = if depth == 1 {
                        St::Code
                    } else {
                        St::BlockComment(depth - 1)
                    };
                    out.push(' ');
                    i += 2;
                    continue;
                }
            }
            St::Str => {
                if c == '\n' {
                    out.push('\n');
                } else {
                    out.push(' ');
                }
                if c == '\\' {
                    if next == Some('\n') {
                        out.push('\n');
                    } else {
                        out.push(' ');
                    }
                    i += 2;
                    continue;
                }
                if c == '"' {
                    st = St::Code;
                }
            }
            St::RawStr(hashes) => {
                if c == '\n' {
                    out.push('\n');
                } else {
                    out.push(' ');
                }
                if c == '"' {
                    let mut j = i + 1;
                    let mut seen = 0;
                    while seen < hashes && bytes.get(j) == Some(&'#') {
                        seen += 1;
                        j += 1;
                    }
                    if seen == hashes {
                        for _ in i + 1..j {
                            out.push(' ');
                        }
                        i = j;
                        st = St::Code;
                        continue;
                    }
                }
            }
            St::Char => {
                out.push(' ');
                if c == '\\' {
                    out.push(' ');
                    i += 2;
                    continue;
                }
                if c == '\'' {
                    st = St::Code;
                }
            }
        }
        i += 1;
    }
    out
}

/// The crate a workspace-relative path belongs to (`crates/<name>/…`).
pub(crate) fn crate_of(path: &str) -> Option<&str> {
    let rest = path.strip_prefix("crates/")?;
    rest.split('/').next()
}

/// File stem of a path (`world.rs` → `world`).
fn stem_of(path: &str) -> &str {
    Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("")
}

/// Is this file part of a rendered-output path (tables, reports, charts)?
/// Hash-ordered iteration there can silently reorder rendered rows.
fn is_output_path(path: &str) -> bool {
    let stem = stem_of(path);
    stem.starts_with("table")
        || matches!(stem, "render" | "chart" | "compare" | "report" | "bundle")
        || crate_of(path) == Some("report")
}

/// A per-file pass and its `--timings` name.
type FilePass = (&'static str, fn(&WsFile) -> Vec<LintFinding>);

/// A workspace pass and its `--timings` name.
type WsPass = (&'static str, fn(&Workspace) -> Vec<LintFinding>);

/// The per-file passes, in run order. Each is a pure function of one
/// parsed file, so the incremental cache memoizes its findings.
const FILE_PASSES: [FilePass; 3] = [
    ("token", token_rules),
    ("units-flow", crate::unitsflow::findings),
    ("protocol", crate::protocol::findings),
];

/// The workspace passes, in run order. Each reads the whole call graph.
const WS_PASSES: [WsPass; 4] = [
    ("nondet-taint", crate::taint::findings),
    ("effects", crate::effects::findings),
    ("lock-order", crate::locks::findings),
    ("key-coverage", crate::keycov::findings),
];

fn file_findings(file: &WsFile) -> Vec<LintFinding> {
    FILE_PASSES
        .iter()
        .flat_map(|(_, pass)| pass(file))
        .collect()
}

/// Lint one file's source text. `path` must be workspace-relative
/// (`crates/<crate>/src/...`) so crate- and module-scoped rules resolve.
pub fn lint_file(path: &str, src: &str) -> Vec<LintFinding> {
    lint_file_with_hot(path, src, &[])
}

/// [`lint_file`] with extra hot-function designations for this file
/// (the `hot-fn` lines of `dessan.toml`, marker comments aside). Runs
/// every pass, the workspace passes over a one-file workspace: calls into
/// other files resolve only in [`run`].
pub fn lint_file_with_hot(path: &str, src: &str, extra_hot: &[String]) -> Vec<LintFinding> {
    let file = ws_file(path, src, extra_hot);
    let mut findings = file_findings(&file);
    let ws = Workspace::build(std::slice::from_ref(&file));
    findings.extend(WS_PASSES.iter().flat_map(|(_, pass)| pass(&ws)));
    findings.sort_by_key(|f| (f.line, f.rule.order()));
    findings
}

/// The token rules: the [`SOURCES`] patterns, `unsafe-no-safety` and
/// `unwrap-in-sim`.
fn token_rules(file: &WsFile) -> Vec<LintFinding> {
    let (path, src, tokens, its) = (&file.path, &file.src, &file.tokens, &file.items);
    let krate = crate_of(path).unwrap_or("");
    let stem = stem_of(path);
    let in_sim_crate = SIM_CRATES.contains(&krate);
    let env_exempt = krate == "cli" || matches!(stem, "config" | "env" | "cli");
    let output_path = is_output_path(path);
    let original_lines: Vec<&str> = src.lines().collect();

    // Code-token text/line streams for sequence matching.
    let code = file.code(0..tokens.len());
    let texts: Vec<&str> = code.iter().map(|&i| tokens[i].text(src)).collect();
    let tok_lines: Vec<usize> = code.iter().map(|&i| tokens[i].line).collect();
    // Lines where the code-token sequence `pattern` starts (`::` written
    // as two `:` entries — the lexer emits single-char punctuation).
    let seq_lines = |pattern: &[&str]| -> BTreeSet<usize> {
        let mut lines = BTreeSet::new();
        if texts.len() >= pattern.len() {
            for k in 0..=texts.len() - pattern.len() {
                if (0..pattern.len()).all(|j| texts[k + j] == pattern[j]) {
                    lines.insert(tok_lines[k]);
                }
            }
        }
        lines
    };
    let in_test = |line: usize| its.test_lines.get(line - 1).copied().unwrap_or(false);

    let mut findings = Vec::new();
    let mut push = |rule: Rule, line: usize, message: String| {
        if !its.waived(rule.id(), line) {
            findings.push(LintFinding {
                rule,
                path: path.to_string(),
                line,
                message,
                chain: Vec::new(),
            });
        }
    };

    // wall-clock, ad-hoc-rng, hash-order (output paths only) and env-read
    // (outside config/cli modules): one finding per rule and line, the
    // first pattern in table order wins.
    let mut claimed = BTreeSet::new();
    for s in &SOURCES {
        let message = match s.rule {
            Rule::WallClock => format!("wall-clock read `{}` breaks run-to-run determinism; use simulated time (`SimTime`) or waive native-measurement code with `// dessan::allow(wall-clock): <reason>`", s.text),
            Rule::AdHocRng => format!("unseeded randomness `{}`; derive a stream from `SimRng` instead", s.text),
            Rule::HashOrder if output_path => format!("`{}` in an output path; iteration order is unspecified — use `BTreeMap`/`BTreeSet` or sort explicitly", s.text),
            Rule::EnvRead if !env_exempt => "environment read outside a config/cli module makes behaviour depend on ambient state".to_string(),
            _ => continue,
        };
        for k in (0..texts.len()).filter(|&k| s.at(k, |i| texts.get(i).copied())) {
            if claimed.insert((s.rule.id(), tok_lines[k])) {
                push(s.rule, tok_lines[k], message.clone());
            }
        }
    }

    // unsafe-no-safety: every unsafe site needs a written justification
    // within the preceding 3 lines.
    for line in seq_lines(&["unsafe"]) {
        let idx = line - 1;
        let window_start = idx.saturating_sub(3);
        let justified = original_lines
            .get(window_start..=idx.min(original_lines.len().saturating_sub(1)))
            .unwrap_or(&[])
            .iter()
            .any(|l| l.contains("SAFETY:") || l.contains("# Safety"));
        if !justified {
            push(
                Rule::UnsafeNoSafety,
                line,
                "`unsafe` without a `// SAFETY:` comment within the preceding 3 lines".to_string(),
            );
        }
    }

    // unwrap-in-sim: sim-crate non-test code must propagate errors.
    if in_sim_crate {
        let mut claimed = BTreeSet::new();
        for (disp, pat) in [
            (".unwrap()", &[".", "unwrap", "("][..]),
            (".expect(", &[".", "expect", "("][..]),
        ] {
            for line in seq_lines(pat) {
                if !in_test(line) && claimed.insert(line) {
                    push(
                        Rule::UnwrapInSim,
                        line,
                        format!("`{disp}` in non-test code of a simulated runtime crate; return a typed error instead"),
                    );
                }
            }
        }
    }

    findings.sort_by_key(|f| (f.line, f.rule.order()));
    findings
}

/// The allowlist at `dessan.toml`: `hot-fn path fn-name` designation lines
/// plus (legacy) `rule path` grandfather pairs, `#` comments allowed.
///
/// Grandfather pairs still parse and apply so the ratchet can report them:
/// an entry that matches nothing is a hard error in the CLI, and new
/// waivers belong in source (`// dessan::allow(...)`), not here.
#[derive(Debug, Default)]
pub struct Allowlist {
    entries: Vec<(String, String)>,
    used: Vec<bool>,
    /// `(path, fn-name)` hot-function designations.
    hot_fns: Vec<(String, String)>,
}

impl Allowlist {
    /// Parse `dessan.toml` text. Unknown rule ids are an error so typos
    /// cannot silently allow everything.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut entries = Vec::new();
        let mut hot_fns = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() || line.starts_with('[') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let (Some(rule), Some(path)) = (parts.next(), parts.next()) else {
                return Err(format!(
                    "dessan.toml line {}: expected `rule path`, got `{raw}`",
                    i + 1
                ));
            };
            if rule == "hot-fn" {
                let Some(name) = parts.next() else {
                    return Err(format!(
                        "dessan.toml line {}: expected `hot-fn path fn-name`, got `{raw}`",
                        i + 1
                    ));
                };
                hot_fns.push((path.to_string(), name.to_string()));
                continue;
            }
            if !Rule::ALL.iter().any(|r| r.id() == rule) {
                return Err(format!(
                    "dessan.toml line {}: unknown rule `{rule}` (known: {})",
                    i + 1,
                    Rule::ALL.map(|r| r.id()).join(", ")
                ));
            }
            entries.push((rule.to_string(), path.to_string()));
        }
        let used = vec![false; entries.len()];
        Ok(Allowlist {
            entries,
            used,
            hot_fns,
        })
    }

    /// The `hot-fn` designations naming functions in `path`.
    pub fn hot_fns_for(&self, path: &str) -> Vec<String> {
        self.hot_fns
            .iter()
            .filter(|(p, _)| p == path)
            .map(|(_, f)| f.clone())
            .collect()
    }

    /// Is `finding` grandfathered? Marks the matching entry as used.
    pub fn permits(&mut self, finding: &LintFinding) -> bool {
        for (i, (rule, path)) in self.entries.iter().enumerate() {
            if rule == finding.rule.id() && path == &finding.path {
                self.used[i] = true;
                return true;
            }
        }
        false
    }

    /// Entries that never matched a finding — dead weight that must be
    /// deleted (the CLI fails on them), so the allowlist only shrinks.
    pub fn unused(&self) -> Vec<(String, String)> {
        self.entries
            .iter()
            .zip(&self.used)
            .filter(|(_, &u)| !u)
            .map(|(e, _)| e.clone())
            .collect()
    }
}

/// The outcome of a full lint run.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Violations not covered by the allowlist.
    pub findings: Vec<LintFinding>,
    /// Grandfathered violation count.
    pub allowed: usize,
    /// Files scanned.
    pub files: usize,
    /// Allowlist entries that matched nothing.
    pub unused_allows: Vec<(String, String)>,
    /// Per-phase wall time, in run order, for `--timings`.
    pub timings: Vec<(String, Duration)>,
    /// Files whose per-file findings came from the incremental cache.
    pub cache_hits: usize,
    /// Files whose per-file rules had to run (result stored for next time).
    pub cache_misses: usize,
}

impl LintReport {
    /// Zero exit code? (The CLI additionally fails on `unused_allows`.)
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Recursively collect `.rs` files under `dir`, sorted for determinism.
fn collect_rs_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            collect_rs_files(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Options for a full workspace lint run ([`run_with`]).
#[derive(Clone, Copy, Debug)]
pub struct RunOpts {
    /// Reuse per-file findings cached under `target/dessan-cache`, keyed
    /// by content hash (`--no-cache` clears this). Workspace-level
    /// analyses always run — only the per-file rule work is memoized.
    pub use_cache: bool,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts { use_cache: true }
    }
}

/// Read the host clock for the `--timings` scoreboard.
fn phase_clock() -> Instant {
    // dessan::allow(wall-clock): measures the linter's own phases, never simulated code.
    Instant::now()
}

/// Lint every `crates/*/src/**/*.rs` under `root` with default options:
/// the per-file passes, then the workspace passes over one call graph,
/// applying the allowlist at `root/dessan.toml` if present.
pub fn run(root: &Path) -> std::io::Result<LintReport> {
    run_with(root, RunOpts::default())
}

/// [`run`] with explicit [`RunOpts`].
pub fn run_with(root: &Path, opts: RunOpts) -> std::io::Result<LintReport> {
    let allow_text = match std::fs::read_to_string(root.join("dessan.toml")) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(e),
    };
    let mut allow = Allowlist::parse(&allow_text)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;

    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<_> = std::fs::read_dir(&crates_dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();

    let mut cache = if opts.use_cache {
        crate::incr::IncrCache::load(root)
    } else {
        crate::incr::IncrCache::disabled()
    };

    let mut report = LintReport::default();
    let mut files: Vec<WsFile> = Vec::new();
    let mut raw_findings = Vec::new();
    let mut t_parse = Duration::ZERO;
    let mut t_perfile = Duration::ZERO;
    for cd in crate_dirs {
        let src = cd.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut paths = Vec::new();
        collect_rs_files(&src, &mut paths)?;
        for f in paths {
            let rel = f
                .strip_prefix(root)
                .unwrap_or(&f)
                .to_string_lossy()
                .replace('\\', "/");
            let text = std::fs::read_to_string(&f)?;
            report.files += 1;
            let hot = allow.hot_fns_for(&rel);
            // Lex + parse always run: the workspace analyses below need
            // live token streams even on a cache hit.
            let t0 = phase_clock();
            let file = ws_file(&rel, &text, &hot);
            t_parse += t0.elapsed();
            let t0 = phase_clock();
            if let Some(cached) = cache.lookup(&rel, &text, &hot) {
                report.cache_hits += 1;
                raw_findings.extend(cached);
            } else {
                report.cache_misses += 1;
                let per = file_findings(&file);
                cache.store(&rel, &text, &hot, &per);
                raw_findings.extend(per);
            }
            t_perfile += t0.elapsed();
            files.push(file);
        }
    }
    let names: Vec<&str> = FILE_PASSES.iter().map(|(name, _)| *name).collect();
    report.timings.push(("lex+parse".to_string(), t_parse));
    report
        .timings
        .push((format!("per-file rules ({})", names.join(", ")), t_perfile));
    let t0 = phase_clock();
    let ws = Workspace::build(&files);
    report
        .timings
        .push(("call graph".to_string(), t0.elapsed()));
    for (name, pass) in WS_PASSES {
        let t0 = phase_clock();
        raw_findings.extend(pass(&ws));
        report.timings.push((name.to_string(), t0.elapsed()));
    }
    cache.save(root); // best-effort: a read-only target/ is not an error
    raw_findings
        .sort_by(|a, b| (&a.path, a.line, a.rule.order()).cmp(&(&b.path, b.line, b.rule.order())));
    for finding in raw_findings {
        if allow.permits(&finding) {
            report.allowed += 1;
        } else {
            report.findings.push(finding);
        }
    }
    report.unused_allows = allow.unused();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(path: &str, src: &str) -> Vec<Rule> {
        lint_file(path, src).into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn wall_clock_flagged() {
        let src = "use std::time::Instant;\nfn f() { let t = Instant::now(); }\n";
        let r = rules_of("crates/foo/src/lib.rs", src);
        assert_eq!(r, vec![Rule::WallClock, Rule::WallClock]);
    }

    #[test]
    fn ad_hoc_rng_flagged() {
        let src = "fn f() { let x: f64 = rand::random(); let mut r = thread_rng(); }\n";
        let r = rules_of("crates/foo/src/lib.rs", src);
        assert_eq!(r, vec![Rule::AdHocRng]);
    }

    #[test]
    fn hash_iteration_flagged_only_in_output_paths() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(
            rules_of("crates/report/src/lib.rs", src),
            vec![Rule::HashOrder]
        );
        assert_eq!(
            rules_of("crates/core/src/table4.rs", src),
            vec![Rule::HashOrder]
        );
        assert_eq!(rules_of("crates/topo/src/node.rs", src), vec![]);
    }

    #[test]
    fn env_read_flagged_outside_config_and_cli() {
        let src = "fn f() { let _ = std::env::var(\"X\"); }\n";
        assert_eq!(
            rules_of("crates/benchlib/src/par.rs", src),
            vec![Rule::EnvRead]
        );
        assert_eq!(rules_of("crates/cli/src/main.rs", src), vec![]);
        assert_eq!(rules_of("crates/osu/src/config.rs", src), vec![]);
        assert_eq!(rules_of("crates/ompsim/src/env.rs", src), vec![]);
    }

    #[test]
    fn unsafe_requires_safety_comment() {
        let bare = "fn f() { unsafe { work() } }\n";
        assert_eq!(
            rules_of("crates/foo/src/lib.rs", bare),
            vec![Rule::UnsafeNoSafety]
        );
        let justified =
            "// SAFETY: chunks are disjoint by construction.\nfn f() { unsafe { work() } }\n";
        assert_eq!(rules_of("crates/foo/src/lib.rs", justified), vec![]);
        let doc = "/// # Safety\n/// Caller must uphold X.\npub unsafe fn g() {}\n";
        assert_eq!(rules_of("crates/foo/src/lib.rs", doc), vec![]);
    }

    #[test]
    fn unwrap_flagged_in_sim_crates_only() {
        let src = "fn f() { x.unwrap(); y.expect(\"msg\"); }\n";
        assert_eq!(
            rules_of("crates/mpisim/src/world.rs", src),
            vec![Rule::UnwrapInSim]
        );
        assert_eq!(rules_of("crates/core/src/table4.rs", src), vec![]);
    }

    #[test]
    fn unwrap_unflagged_inside_cfg_test_module() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}\n";
        assert_eq!(rules_of("crates/gpurt/src/runtime.rs", src), vec![]);
    }

    #[test]
    fn code_after_test_module_is_scanned_again() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { Some(1).unwrap(); }\n}\nfn g(x: Option<u32>) { x.unwrap(); }\n";
        let f = lint_file("crates/gpurt/src/runtime.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 5);
    }

    #[test]
    fn comments_strings_and_doctests_do_not_trip_rules() {
        let src = "//! let t = Instant::now();\n// thread_rng in prose\nfn f() { let s = \"Instant::now\"; let _ = s; }\nfn g() { let c = 'x'; let _ = c; }\n";
        assert_eq!(rules_of("crates/foo/src/lib.rs", src), vec![]);
    }

    #[test]
    fn raw_strings_are_stripped() {
        let src = "fn f() { let s = r#\"std::time::Instant \"quoted\" \"#; let _ = s; }\n";
        assert_eq!(rules_of("crates/foo/src/lib.rs", src), vec![]);
    }

    #[test]
    fn lifetimes_do_not_confuse_the_scanner() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }\nfn g() { let t = std::time::Instant::now(); let _ = t; }\n";
        let r = rules_of("crates/foo/src/lib.rs", src);
        assert_eq!(r, vec![Rule::WallClock]);
    }

    #[test]
    fn unwrap_or_else_is_not_unwrap() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or_else(|| 0) }\n";
        assert_eq!(rules_of("crates/mpisim/src/world.rs", src), vec![]);
    }

    #[test]
    fn hot_marker_flags_allocations_in_the_next_fn_only() {
        let src = "\
// doebench::hot
fn fast(&mut self) {
    let x = data.clone();
    self.buf.clone_from(&data);
}
fn slow(&mut self) {
    let y = Box::new(1);
    let s = format!(\"x\");
}
";
        let f = lint_file("crates/simtime/src/event.rs", src);
        let hot: Vec<_> = f
            .iter()
            .filter(|f| f.rule == Rule::HotPathAlloc)
            .map(|f| f.line)
            .collect();
        // `.clone()` in the hot fn fires; `.clone_from` does not; the
        // unmarked fn is free to allocate.
        assert_eq!(hot, vec![3]);
    }

    #[test]
    fn hot_fn_designation_from_allowlist_flags_named_fn() {
        let src = "fn pump(&mut self) { let v = vec![0u8; 8]; }\nfn other() { let v = vec![1]; }\n";
        let f = lint_file_with_hot("crates/foo/src/lib.rs", src, &["pump".to_string()]);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::HotPathAlloc);
        assert_eq!(f[0].line, 1);
        // A prefix of the name must not match.
        let f = lint_file_with_hot("crates/foo/src/lib.rs", src, &["pum".to_string()]);
        assert!(f.is_empty());
    }

    #[test]
    fn hot_marker_in_test_region_is_ignored() {
        let src =
            "#[cfg(test)]\nmod tests {\n    // doebench::hot\n    fn t() { let x = vec![1]; }\n}\n";
        assert_eq!(rules_of("crates/foo/src/lib.rs", src), vec![]);
    }

    // Regression tests for the v1 `hot_region_lines` latch bug class: the
    // old brace-counting latch lost track of one-line bodies and of `fn`
    // keywords that only existed inside literals.

    #[test]
    fn one_line_hot_fn_is_flagged() {
        let src = "// doebench::hot\nfn fast() -> Vec<u8> { vec![0u8; 8] }\n";
        let f = lint_file("crates/foo/src/lib.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::HotPathAlloc);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn nested_closures_inside_hot_fn_stay_hot() {
        let src = "\
// doebench::hot
fn pump(xs: &[u32]) {
    xs.iter().for_each(|x| {
        let label = format!(\"{x}\");
        let _ = label;
    });
}
";
        let f = lint_file("crates/foo/src/lib.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::HotPathAlloc);
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn fn_keyword_in_string_does_not_end_hot_region() {
        let src = "\
// doebench::hot
fn fast() {
    let s = \"} fn decoy() {\";
    let v = vec![1];
    let _ = (s, v);
}
fn cool() {
    let v = vec![2];
    let _ = v;
}
";
        let f = lint_file("crates/foo/src/lib.rs", src);
        // Only the real hot body's allocation fires; the decoy string
        // neither ends the hot region nor starts a new fn.
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn fn_keyword_in_comment_tail_does_not_open_an_item() {
        let src = "\
// doebench::hot
fn fast() { // closes like fn ghost() {
    let v = vec![1];
    let _ = v;
}
";
        let f = lint_file("crates/foo/src/lib.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn in_source_waiver_suppresses_with_reason_only() {
        let with_reason = "// dessan::allow(wall-clock): native backend measures real elapsed time.\nfn f() { let t = std::time::Instant::now(); let _ = t; }\n";
        assert_eq!(rules_of("crates/foo/src/lib.rs", with_reason), vec![]);
        let reasonless = "// dessan::allow(wall-clock):\nfn f() { let t = std::time::Instant::now(); let _ = t; }\n";
        assert_eq!(
            rules_of("crates/foo/src/lib.rs", reasonless),
            vec![Rule::WallClock]
        );
    }

    #[test]
    fn file_level_waiver_covers_every_site() {
        let src = "//! dessan::allow(unwrap-in-sim): panics are this module's documented contract.\nfn f(x: Option<u32>) { x.unwrap(); }\nfn g(y: Option<u32>) { y.unwrap(); }\n";
        assert_eq!(rules_of("crates/simtime/src/time.rs", src), vec![]);
    }

    #[test]
    fn allowlist_parses_hot_fn_lines() {
        let allow =
            Allowlist::parse("hot-fn crates/foo/src/lib.rs pump\nwall-clock crates/bar/src/x.rs\n")
                .unwrap();
        assert_eq!(allow.hot_fns_for("crates/foo/src/lib.rs"), vec!["pump"]);
        assert!(allow.hot_fns_for("crates/bar/src/x.rs").is_empty());
        // hot-fn demands a function name.
        assert!(Allowlist::parse("hot-fn crates/foo/src/lib.rs").is_err());
    }

    #[test]
    fn allowlist_permits_and_tracks_usage() {
        let mut allow = Allowlist::parse(
            "# comment\nwall-clock crates/foo/src/lib.rs\nenv-read crates/bar/src/x.rs\n",
        )
        .unwrap();
        let f = LintFinding {
            rule: Rule::WallClock,
            path: "crates/foo/src/lib.rs".into(),
            line: 1,
            message: String::new(),
            chain: Vec::new(),
        };
        assert!(allow.permits(&f));
        assert!(!allow.permits(&LintFinding {
            rule: Rule::AdHocRng,
            ..f.clone()
        }));
        assert_eq!(allow.unused().len(), 1);
        assert_eq!(allow.unused()[0].0, "env-read");
    }

    #[test]
    fn allowlist_rejects_unknown_rules() {
        assert!(Allowlist::parse("definitely-not-a-rule crates/x/src/y.rs").is_err());
        assert!(Allowlist::parse("wall-clock").is_err());
    }

    #[test]
    fn allowlist_rejects_the_retired_transitive_rule_id() {
        // `hot-path-alloc` owns call-graph reachability; its old
        // `-transitive` twin is no longer a rule id.
        let retired = format!("{}-transitive", Rule::HotPathAlloc.id());
        let err = Allowlist::parse(&format!("{retired} crates/x/src/y.rs")).unwrap_err();
        assert!(err.contains("unknown rule"), "{err}");
    }

    #[test]
    fn run_flags_a_seeded_fixture_and_accepts_a_clean_tree() {
        let dir = std::env::temp_dir().join(format!("dessan-lint-fixture-{}", std::process::id()));
        let src = dir.join("crates/fix/src");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::write(
            src.join("lib.rs"),
            "use std::time::Instant;\nfn f() { let _ = std::env::var(\"HOME\"); }\n",
        )
        .unwrap();
        let report = run(&dir).unwrap();
        assert!(!report.is_clean());
        assert_eq!(report.findings.len(), 2);
        assert_eq!(report.files, 1);

        // Grandfathering both sites makes the same tree clean.
        std::fs::write(
            dir.join("dessan.toml"),
            "wall-clock crates/fix/src/lib.rs\nenv-read crates/fix/src/lib.rs\n",
        )
        .unwrap();
        let report = run(&dir).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.allowed, 2);
        assert!(report.unused_allows.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_reports_hot_path_alloc_reached_across_files() {
        let dir =
            std::env::temp_dir().join(format!("dessan-hot-reach-fixture-{}", std::process::id()));
        let src = dir.join("crates/fix/src");
        std::fs::create_dir_all(&src).unwrap();
        // Hot fn -> helper -> allocating helper in another file.
        std::fs::write(
            src.join("lib.rs"),
            "mod helpers;\n// doebench::hot\nfn pump() {\n    step();\n}\nfn step() {\n    crate::helpers::grow();\n}\n",
        )
        .unwrap();
        std::fs::write(
            src.join("helpers.rs"),
            "pub fn grow() {\n    let v = vec![0u8; 64];\n    let _ = v;\n}\n",
        )
        .unwrap();
        let report = run(&dir).unwrap();
        let sites: Vec<_> = report
            .findings
            .iter()
            .map(|f| (f.rule, f.path.as_str(), f.line))
            .collect();
        // Reported once, at the hot fn's call line, not at the site.
        assert_eq!(
            sites,
            [(Rule::HotPathAlloc, "crates/fix/src/lib.rs", 4)],
            "{:?}",
            report.findings
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
