//! Interprocedural effect summaries: declared effect contracts and the
//! `hot-path-alloc` rule.
//!
//! The workspace's one summary engine ([`Workspace::fixpoint`]) computes,
//! bottom-up over the call graph ([`crate::callgraph`]), for every
//! function the set of *observable effects* its transitive call closure
//! can exhibit:
//!
//! | effect        | detected from                                           |
//! |---------------|---------------------------------------------------------|
//! | `alloc`       | the hot-path-alloc vocabulary (`Box::new`, `vec!`, …)   |
//! | `wall-clock`  | the wall-clock reads of [`SOURCES`]                     |
//! | `rng`         | the unseeded-RNG reads of [`SOURCES`]                   |
//! | `env-read`    | the environment reads of [`SOURCES`]                    |
//! | `hash-iter`   | iteration methods in a fn that names `HashMap`/`HashSet` |
//! | `locks`       | `.lock(` — mutex acquisition                            |
//! | `blocks`      | `Condvar::wait` on a lock guard, `.join()`, `.recv()`, `thread::sleep` |
//! | `io`          | `fs::` / `Command::` / socket and stdio handles         |
//!
//! [`SOURCES`] is the one table of nondeterminism source patterns: the
//! token rules of [`crate::lint`] and the taint sources of
//! [`crate::taint`] match against it too. Detection is token-level and
//! deliberately conservative; resolution reuses the call graph's
//! under-approximate name resolution, and a `// doebench::cold-call`
//! marker cuts the walk at a call site (the marked call is off the
//! measured path), as `#[cold]` cuts it at a callee.
//!
//! The summaries serve two checks:
//!
//! * **Declared contracts.** A `// doebench::effects(pure)` marker before
//!   a `fn` forbids every effect except allocation in the fn's whole call
//!   closure (allocation is deterministic — it cannot change a result,
//!   only its cost, which `hot-path-alloc` polices), and
//!   `// doebench::effects(no-block)` forbids OS-level blocking
//!   (`blocks`) — the contract the shard-engine lane bodies and the query
//!   cells rely on. A violation reports the full call chain from the
//!   contract fn to the effect site and is waived with
//!   `// dessan::allow(effect-contract): <reason>` at the contract fn.
//! * **`hot-path-alloc`.** Every allocating line inside a
//!   `// doebench::hot` body is reported, and so is every call line of a
//!   hot body whose callee's summary holds `alloc`, with the
//!   `root -> … -> site` chain. A hot fn's own allocations stay out of
//!   its summary: they are reported inside it, once, not again at each
//!   caller.
//!
//! The `blocks` effect discriminates a `Condvar::wait(guard)` from the
//! simulated `world.wait(req)` of the MPI runtime by requiring the
//! argument to be a guard variable bound from a `.lock()` in the same
//! body — simulated waits advance virtual time and are exactly what
//! `no-block` code is supposed to do instead of parking the OS thread.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{body_allocs, Node, Workspace, WsFile};
use crate::items::FnItem;
use crate::lex::TokKind;
use crate::lint::{LintFinding, Rule};

/// One observable effect class.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Effect {
    /// Heap allocation (permitted under `pure`; `hot-path-alloc` owns it).
    Alloc,
    /// Host wall-clock read.
    WallClock,
    /// Unseeded randomness.
    Rng,
    /// Environment-variable read.
    EnvRead,
    /// Iteration in unspecified hash order.
    HashIter,
    /// Mutex acquisition.
    Locks,
    /// OS-level blocking: condvar wait, thread join, channel recv, sleep.
    Blocks,
    /// Filesystem / process / socket / stdio I/O.
    Io,
}

impl Effect {
    /// Human-readable effect name used in messages.
    pub fn name(self) -> &'static str {
        match self {
            Effect::Alloc => "allocation",
            Effect::WallClock => "wall-clock read",
            Effect::Rng => "unseeded randomness",
            Effect::EnvRead => "environment read",
            Effect::HashIter => "hash-order iteration",
            Effect::Locks => "lock acquisition",
            Effect::Blocks => "OS-level blocking",
            Effect::Io => "I/O",
        }
    }
}

/// One nondeterminism source pattern.
pub struct Source {
    /// The token rule that flags every occurrence; its id is also the
    /// taint origin class.
    pub rule: Rule,
    /// Is the pattern itself a read, not a name that only marks the
    /// hazard (an import path, a hash container type)?
    pub read: bool,
    /// The path as findings spell it. Its code tokens are the pattern
    /// (`::` lexes as two `:` tokens).
    pub text: &'static str,
}

const fn source(rule: Rule, read: bool, text: &'static str) -> Source {
    Source { rule, read, text }
}

/// The nondeterminism source patterns, in report priority order.
pub const SOURCES: [Source; 10] = [
    source(Rule::WallClock, false, "std::time::Instant"),
    source(Rule::WallClock, false, "std::time::SystemTime"),
    source(Rule::WallClock, true, "Instant::now"),
    source(Rule::WallClock, true, "SystemTime::now"),
    source(Rule::AdHocRng, true, "thread_rng"),
    source(Rule::AdHocRng, true, "rand::random"),
    source(Rule::EnvRead, true, "env::var"),
    source(Rule::EnvRead, true, "env::vars"),
    source(Rule::HashOrder, false, "HashMap"),
    source(Rule::HashOrder, false, "HashSet"),
];

impl Source {
    /// Does the pattern start at code token `k`, reading code-token texts
    /// through `text`?
    pub fn at<'t>(&self, k: usize, text: impl Fn(usize) -> Option<&'t str>) -> bool {
        // Cheap reject first: token `k` must be the whole first segment.
        let head = |t: &str| {
            let end = self.text.as_bytes().get(t.len());
            end.is_none_or(|&b| b == b':') && self.text.starts_with(t)
        };
        text(k).is_some_and(head)
            && self.text.split("::").enumerate().all(|(n, seg)| {
                let i = k + 3 * n;
                (n == 0 || (text(i - 2), text(i - 1)) == (Some(":"), Some(":")))
                    && text(i) == Some(seg)
            })
    }

    /// The effect of a read; `None` for a name.
    pub fn effect(&self) -> Option<Effect> {
        match self.rule {
            _ if !self.read => None,
            Rule::WallClock => Some(Effect::WallClock),
            Rule::AdHocRng => Some(Effect::Rng),
            _ => Some(Effect::EnvRead),
        }
    }
}

/// Does `text` name a hash container (`HashMap`/`HashSet`)?
pub(crate) fn is_hash_container(text: &str) -> bool {
    SOURCES
        .iter()
        .any(|s| s.rule == Rule::HashOrder && s.text == text)
}

/// Methods whose call on a hash container iterates in hash order.
pub(crate) const HASH_ITER_METHODS: [&str; 7] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "drain",
];

/// Where an effect in a summary comes from: a description of the concrete
/// site and the call chain from the summary's owner down to it.
#[derive(Clone, Debug)]
pub struct Origin {
    /// The concrete site, e.g. "`Instant::now` at crates/x/src/y.rs:12".
    pub desc: String,
    /// Function names from the summary owner down to the effect site.
    /// Capped at [`CHAIN_CAP`] entries.
    pub chain: Vec<String>,
}

/// Longest chain kept in an [`Origin`]; deeper chains are truncated with
/// the site description still exact.
pub const CHAIN_CAP: usize = 12;

impl Origin {
    /// The same site seen from `caller`, one call above the chain's head.
    fn called_from(&self, caller: &str) -> Origin {
        let mut chain = vec![caller.to_string()];
        chain.extend(self.chain.iter().take(CHAIN_CAP - 1).cloned());
        Origin {
            desc: self.desc.clone(),
            chain,
        }
    }
}

/// A function's effect summary: each effect present maps to the first
/// (deterministically chosen) origin that introduced it.
pub type EffectSet = BTreeMap<Effect, Origin>;

/// Guard variables bound from a `.lock(` in one body's code-token stream:
/// every `X` in `let [mut] X = … .lock( …` up to the statement's `;`.
/// Shared with [`crate::locks`], which uses the same discrimination.
pub(crate) fn guard_vars(texts: &[&str], kinds: &[TokKind]) -> Vec<String> {
    let mut out = Vec::new();
    let mut k = 0usize;
    while k < texts.len() {
        if texts[k] == "let" {
            let mut n = k + 1;
            if texts.get(n).copied() == Some("mut") {
                n += 1;
            }
            if n + 1 < texts.len()
                && matches!(kinds[n], TokKind::Ident | TokKind::RawIdent)
                && texts[n + 1] == "="
            {
                let name = texts[n];
                let mut j = n + 2;
                while j < texts.len() && texts[j] != ";" {
                    if texts[j] == "."
                        && texts.get(j + 1).copied() == Some("lock")
                        && texts.get(j + 2).copied() == Some("(")
                    {
                        out.push(name.to_string());
                        break;
                    }
                    j += 1;
                }
                k = n + 1;
                continue;
            }
        }
        k += 1;
    }
    out
}

/// The effects a single fn's body exhibits directly, with their sites.
/// A hot fn's own allocations are left out (see the module docs). The
/// hash-container name scan also covers the signature, where the
/// container type usually appears (`m: &HashMap<..>`).
fn direct_effects(file: &WsFile, f: &FnItem) -> Vec<(Effect, String)> {
    let src = &file.src;
    let tokens = &file.tokens;
    let body = f.body_tokens.clone();
    let code = file.code(body.clone());
    let texts: Vec<&str> = code.iter().map(|&i| tokens[i].text(src)).collect();
    let kinds: Vec<TokKind> = code.iter().map(|&i| tokens[i].kind).collect();
    let line_of = |k: usize| tokens[code[k]].line;
    let seq_at = |k: usize, pat: &[&str]| {
        k + pat.len() <= texts.len() && (0..pat.len()).all(|j| texts[k + j] == pat[j])
    };
    let mut out: Vec<(Effect, String)> = Vec::new();
    let mut push = |eff: Effect, what: &str, line: usize| {
        // First site per effect wins; later duplicates add nothing.
        if !out.iter().any(|(e, _)| *e == eff) {
            out.push((eff, format!("`{what}` at {}:{line}", file.path)));
        }
    };

    if !f.hot {
        if let Some(a) = body_allocs(src, tokens, body.clone()).first() {
            push(Effect::Alloc, a.token, a.line);
        }
    }
    let guards = guard_vars(&texts, &kinds);
    let sig_start = tokens.partition_point(|t| t.line < f.sig_line);
    let has_hash = tokens[sig_start.min(body.end)..body.end]
        .iter()
        .any(|t| t.kind == TokKind::Ident && is_hash_container(t.text(src)));

    for k in 0..texts.len() {
        let line = line_of(k);
        // wall-clock, rng, env-read
        for s in SOURCES
            .iter()
            .filter(|s| s.at(k, |i| texts.get(i).copied()))
        {
            if let Some(eff) = s.effect() {
                push(eff, s.text, line);
            }
        }
        // hash-iter: iteration methods only count in a fn that names a
        // hash container at all — cheap and quiet on BTree-only code.
        if has_hash
            && texts[k] == "."
            && texts.get(k + 2).copied() == Some("(")
            && texts
                .get(k + 1)
                .is_some_and(|m| HASH_ITER_METHODS.contains(m))
        {
            push(
                Effect::HashIter,
                &format!(".{}( over a hash container", texts[k + 1]),
                line,
            );
        }
        // locks
        if seq_at(k, &[".", "lock", "("]) {
            push(Effect::Locks, ".lock(", line);
        }
        // blocks
        if texts[k] == "."
            && matches!(
                texts.get(k + 1).copied(),
                Some("wait" | "wait_timeout" | "wait_while")
            )
            && texts.get(k + 2).copied() == Some("(")
        {
            if let Some(arg) = texts.get(k + 3) {
                if guards.iter().any(|g| g == arg) {
                    push(Effect::Blocks, &format!("Condvar::{}", texts[k + 1]), line);
                }
            }
        }
        // The code-token stream drops literals, so `ids.join(",")` would
        // read as `.join()` here; demand the parens be literally adjacent
        // (trivia only between them) in the raw token stream.
        let empty_parens = |k: usize| {
            seq_at(k, &["(", ")"])
                && tokens[code[k] + 1..code[k + 1]].iter().all(|t| {
                    matches!(
                        t.kind,
                        TokKind::Whitespace | TokKind::LineComment | TokKind::BlockComment
                    )
                })
        };
        if seq_at(k, &[".", "join"]) && empty_parens(k + 2) {
            push(Effect::Blocks, ".join()", line);
        }
        if (seq_at(k, &[".", "recv"]) && empty_parens(k + 2))
            || seq_at(k, &[".", "recv_timeout", "("])
        {
            push(Effect::Blocks, ".recv()", line);
        }
        if seq_at(k, &["thread", ":", ":", "sleep"]) {
            push(Effect::Blocks, "thread::sleep", line);
        }
        // io
        if seq_at(k, &["fs", ":", ":"]) {
            push(Effect::Io, "fs::", line);
        }
        if seq_at(k, &["Command", ":", ":"]) {
            push(Effect::Io, "Command::", line);
        }
        if matches!(texts[k], "File" | "TcpListener" | "TcpStream" | "UdpSocket") {
            push(Effect::Io, texts[k], line);
        }
        if matches!(texts[k], "stdin" | "stdout" | "stderr")
            && texts.get(k + 1).copied() == Some("(")
        {
            push(Effect::Io, &format!("{}(", texts[k]), line);
        }
    }
    out
}

/// Compute the effect summary of every non-test function with a body:
/// its direct effects, then its non-cold callees' summaries joined in on
/// the workspace's summary engine ([`Workspace::fixpoint`]; effect sets
/// only grow, over a finite domain). Deterministic: callees are read in
/// call-site order and the first origin recorded for an effect is kept.
/// A hot fn's own allocations are not in its summary (see the module
/// docs).
pub fn summaries(ws: &Workspace) -> BTreeMap<Node, EffectSet> {
    let files = ws.files;
    let direct = ws
        .fns()
        .map(|(node, f)| {
            let set = direct_effects(&files[node.0], f)
                .into_iter()
                .map(|(eff, desc)| {
                    let chain = vec![f.name.clone()];
                    (eff, Origin { desc, chain })
                })
                .collect();
            (node, set)
        })
        .collect();
    ws.fixpoint(direct, |node, sums: &BTreeMap<Node, EffectSet>| {
        let caller = &files[node.0].items.fns[node.1].name;
        let mut grown: Option<EffectSet> = None;
        let callees = ws.sites(node).iter().filter(|s| !s.cold);
        for callee in callees.flat_map(|s| &s.targets).filter(|&&t| t != node) {
            for (&eff, origin) in &sums[callee] {
                if !sums[&node].contains_key(&eff) {
                    grown
                        .get_or_insert_with(|| sums[&node].clone())
                        .entry(eff)
                        .or_insert_with(|| origin.called_from(caller));
                }
            }
        }
        grown
    })
}

/// Effects a contract forbids.
fn forbidden(contract: &str) -> &'static [Effect] {
    match contract {
        "pure" => &[
            Effect::WallClock,
            Effect::Rng,
            Effect::EnvRead,
            Effect::HashIter,
            Effect::Locks,
            Effect::Blocks,
            Effect::Io,
        ],
        "no-block" => &[Effect::Blocks],
        _ => &[],
    }
}

/// The effect pass: every declared `doebench::effects(...)` contract
/// checked against the summaries (reported at the contract fn's
/// signature line with the full call chain to the offending site), and
/// every `hot-path-alloc` finding.
pub fn findings(ws: &Workspace) -> Vec<LintFinding> {
    let sums = summaries(ws);
    let mut out = Vec::new();
    for (node, f) in ws.fns() {
        let file = &ws.files[node.0];
        let Some(contract) = &f.effects else {
            continue;
        };
        if file.items.waived(Rule::EffectContract.id(), f.sig_line) {
            continue;
        }
        for &eff in forbidden(contract) {
            let Some(origin) = sums[&node].get(&eff) else {
                continue;
            };
            let via = if origin.chain.len() > 1 {
                format!(" via {}", origin.chain.join(" -> "))
            } else {
                String::new()
            };
            out.push(LintFinding {
                rule: Rule::EffectContract,
                path: file.path.clone(),
                line: f.sig_line,
                message: format!(
                    "fn `{}` declares `doebench::effects({contract})` but its call closure has {}: {}{via}",
                    f.name,
                    eff.name(),
                    origin.desc,
                ),
                chain: origin.chain.clone(),
            });
        }
    }
    out.extend(hot_path_alloc(ws, &sums));
    out.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    out
}

/// `hot-path-alloc`: each hot fn's own allocating lines, then each of its
/// call lines whose callee's summary allocates. One finding per line.
fn hot_path_alloc(ws: &Workspace, sums: &BTreeMap<Node, EffectSet>) -> Vec<LintFinding> {
    let mut out = Vec::new();
    let mut claimed = BTreeSet::new();
    for (root, f) in ws.fns().filter(|(_, f)| f.hot) {
        let file = &ws.files[root.0];
        let mut push = |line: usize, message: String, chain: Vec<String>| {
            if claimed.insert((root.0, line)) && !file.items.waived(Rule::HotPathAlloc.id(), line) {
                out.push(LintFinding {
                    rule: Rule::HotPathAlloc,
                    path: file.path.clone(),
                    line,
                    message,
                    chain,
                });
            }
        };
        for a in body_allocs(&file.src, &file.tokens, f.body_tokens.clone()) {
            push(
                a.line,
                format!("`{}` allocates per call inside a `doebench::hot` function; hoist it into an arena/pool/scratch buffer or a `#[cold]` helper", a.token),
                Vec::new(),
            );
        }
        for site in ws.sites(root).iter().filter(|s| !s.cold) {
            let reached = site
                .targets
                .iter()
                .filter(|&&t| t != root)
                .find_map(|t| sums[t].get(&Effect::Alloc));
            if let Some(Origin { desc, chain }) = reached.map(|o| o.called_from(&f.name)) {
                push(
                    site.call.line,
                    format!(
                        "hot fn `{}` reaches {} via {}; hoist the allocation or mark the call `// doebench::cold-call`",
                        f.name,
                        desc,
                        chain.join(" -> "),
                    ),
                    chain,
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::ws_file;

    fn single(src: &str) -> Vec<LintFinding> {
        findings(&Workspace::build(&[ws_file(
            "crates/x/src/lib.rs",
            src,
            &[],
        )]))
    }

    #[test]
    fn direct_blocking_violates_no_block() {
        let src = "\
// doebench::effects(no-block)
fn lane() {
    std::thread::sleep(std::time::Duration::from_millis(1));
}
";
        let f = single(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::EffectContract);
        assert_eq!(f[0].line, 2);
        assert!(f[0].message.contains("thread::sleep"), "{}", f[0].message);
    }

    #[test]
    fn two_hop_chain_is_reported() {
        let src = "\
// doebench::effects(no-block)
fn entry() {
    step();
}
fn step() {
    park();
}
fn park(h: std::thread::JoinHandle<()>) {
    h.join();
}
";
        let f = single(src);
        assert_eq!(f.len(), 1);
        assert!(
            f[0].message.contains("entry -> step -> park"),
            "{}",
            f[0].message
        );
        assert_eq!(f[0].chain, vec!["entry", "step", "park"]);
    }

    #[test]
    fn staged_rounds_keep_the_shortest_chain() {
        // Declared callee-first, with the long path called first: a pass
        // that updated summaries in place would report
        // `entry -> far -> farther -> park`.
        let src = "\
fn park(h: std::thread::JoinHandle<()>) {
    h.join();
}
fn farther() {
    park();
}
fn far() {
    farther();
}
fn near(rx: std::sync::mpsc::Receiver<u32>) {
    rx.recv();
}
// doebench::effects(no-block)
fn entry() {
    far();
    near();
}
";
        let f = single(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].chain, ["entry", "near"]);
    }

    #[test]
    fn pure_permits_alloc_but_not_io_or_clock() {
        let clean = "\
// doebench::effects(pure)
fn digest(s: &str) -> String {
    format!(\"{s}\")
}
";
        assert!(single(clean).is_empty());
        let dirty = "\
// doebench::effects(pure)
fn digest(s: &str) -> u64 {
    let t = Instant::now();
    0
}
";
        let f = single(dirty);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("wall-clock"), "{}", f[0].message);
    }

    #[test]
    fn condvar_wait_needs_a_guard_argument() {
        // A guard-typed wait blocks; a simulated wait on a request does not.
        let real = "\
// doebench::effects(no-block)
fn w(&self) {
    let mut st = self.state.lock().unwrap();
    st = self.done.wait(st).unwrap();
}
";
        let f = single(real);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("Condvar::wait"), "{}", f[0].message);
        let simulated = "\
// doebench::effects(no-block)
fn w(world: &mut World, req: Req) {
    world.wait(req);
}
";
        assert!(single(simulated).is_empty());
    }

    #[test]
    fn cold_call_cuts_the_effect_walk() {
        let src = "\
// doebench::effects(no-block)
fn entry() {
    // doebench::cold-call
    diagnostics();
}
fn diagnostics(h: std::thread::JoinHandle<()>) {
    h.join();
}
";
        assert!(single(src).is_empty());
    }

    #[test]
    fn waiver_at_the_contract_fn_suppresses() {
        let src = "\
// doebench::effects(no-block)
// dessan::allow(effect-contract): startup-only path, measured region excluded.
fn entry(h: std::thread::JoinHandle<()>) {
    h.join();
}
";
        assert!(single(src).is_empty());
    }

    #[test]
    fn recursion_terminates_and_keeps_effects() {
        let src = "\
// doebench::effects(no-block)
fn a() { b(); }
fn b(rx: std::sync::mpsc::Receiver<u32>) { a(); rx.recv(); }
";
        let f = single(src);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains(".recv()"), "{}", f[0].message);
    }

    #[test]
    fn hash_iter_only_with_hash_container_in_body() {
        let pure_btree = "\
// doebench::effects(pure)
fn render(m: &std::collections::BTreeMap<u32, u32>) -> u32 {
    m.values().sum()
}
";
        assert!(single(pure_btree).is_empty());
        let hashy = "\
// doebench::effects(pure)
fn render(m: &HashMap<u32, u32>) -> u32 {
    m.values().sum()
}
";
        let f = single(hashy);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("hash-order"), "{}", f[0].message);
    }
}
