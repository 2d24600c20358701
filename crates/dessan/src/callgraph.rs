//! The workspace call graph: parsed files, a heuristically name-resolved
//! call index, and every fn's call sites resolved once per lint run
//! ([`Workspace`]). The workspace passes (taint, effects, locks, key
//! coverage) all read this one graph, and the interprocedural summaries
//! (effect sets, taint's return-value summaries) all run on its one
//! engine, [`Workspace::fixpoint`]. Each [`WsFile`] owns its fns' CFGs,
//! built on first use and shared by every pass ([`WsFile::cfg`]).
//!
//! Resolution is deliberately conservative — the goal is a useful gate
//! with near-zero false positives, not a compiler:
//!
//! * `self.m(...)` resolves within the caller's own impl (same file
//!   first, then same-named impls elsewhere).
//! * `Type::f(...)` (including `Self::f`) resolves to fns in `impl Type`
//!   blocks anywhere in the workspace.
//! * bare `f(...)` resolves to free functions: same file, then same
//!   crate, then a workspace-unique name.
//! * `expr.m(...)` with an unknown receiver resolves only when exactly
//!   one workspace fn bears the name and the name is not a common std
//!   method (`push`, `get`, `iter`, ...).
//!
//! Unresolved calls produce no edge, and no edge enters a `#[cold]` or
//! test function. A `// doebench::cold-call` marker at the call site
//! flags the edge as cold; the effect walk ([`crate::effects`]) skips it.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

use crate::cfg::{self, Cfg, LoopShape};
use crate::items::{FileItems, FnItem};
use crate::lex::{TokKind, Token};
use crate::lint::crate_of;

/// One allocation site inside a function body.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Alloc {
    /// The offending token, as findings spell it (`vec!`, `.clone()`, …).
    pub token: &'static str,
    /// 1-based line.
    pub line: usize,
}

/// How a call site names its callee.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Recv {
    /// `f(...)`
    Bare,
    /// `self.f(...)`
    SelfDot,
    /// `expr.f(...)` with any other receiver.
    OtherDot,
}

/// One call site inside a function body.
#[derive(Clone, Debug)]
pub struct Call {
    /// Callee name as written.
    pub name: String,
    /// `Type` of a `Type::name(...)` path call (`Self` not yet resolved).
    pub qual: Option<String>,
    /// Receiver shape.
    pub recv: Recv,
    /// 1-based line of the callee name.
    pub line: usize,
}

/// Common std/core method names that the unique-name fallback must never
/// resolve to a workspace fn: `q.push(x)` is a Vec, not our `push`.
const STD_METHODS: [&str; 64] = [
    "abs",
    "all",
    "and_then",
    "any",
    "as_mut",
    "as_ref",
    "as_str",
    "borrow",
    "borrow_mut",
    "ceil",
    "chain",
    "clear",
    "clone",
    "clone_from",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "count",
    "drain",
    "entry",
    "enumerate",
    "eq",
    "extend",
    "filter",
    "find",
    "first",
    "floor",
    "fold",
    "for_each",
    "fract",
    "get",
    "get_mut",
    "hash",
    "insert",
    "into_iter",
    "is_empty",
    "iter",
    "iter_mut",
    "join",
    "last",
    "len",
    "map",
    "max",
    "min",
    "next",
    "parse",
    "pop",
    "position",
    "powf",
    "powi",
    "push",
    "remove",
    "resize",
    "rev",
    "round",
    "skip",
    "sort",
    "split",
    "sqrt",
    "sum",
    "take",
    "to_vec",
    "zip",
];

/// Path qualifiers that name std/core modules: `mem::swap(..)` must not
/// resolve to a workspace fn that happens to be called `swap`.
const STD_MODULES: [&str; 22] = [
    "std",
    "core",
    "alloc",
    "mem",
    "ptr",
    "slice",
    "str",
    "cmp",
    "fmt",
    "iter",
    "process",
    "thread",
    "fs",
    "io",
    "env",
    "time",
    "collections",
    "hint",
    "f32",
    "f64",
    "char",
    "array",
];

/// Keywords and constructors that look like `name(...)` but are not calls
/// worth an edge.
const NON_CALLEES: [&str; 36] = [
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "let", "fn",
    "impl", "mod", "use", "pub", "struct", "enum", "trait", "type", "const", "static", "unsafe",
    "move", "ref", "mut", "in", "as", "where", "dyn", "extern", "Some", "Ok", "Err", "None",
    "true", "false",
];

/// Scan a body's token range for per-call allocation sites: the
/// `hot-path-alloc` vocabulary and the `alloc` effect.
pub fn body_allocs(src: &str, tokens: &[Token], range: std::ops::Range<usize>) -> Vec<Alloc> {
    let code: Vec<usize> = range.filter(|&i| tokens[i].kind.is_code()).collect();
    let tk = |k: usize| -> (&TokKind, &str) { (&tokens[code[k]].kind, tokens[code[k]].text(src)) };
    let mut out = Vec::new();
    for k in 0..code.len() {
        let (kind, txt) = tk(k);
        let line = tokens[code[k]].line;
        match (kind, txt) {
            (TokKind::Ident, "Box")
                if k + 3 < code.len()
                    && tk(k + 1).1 == ":"
                    && tk(k + 2).1 == ":"
                    && tk(k + 3).1 == "new" =>
            {
                out.push(Alloc {
                    token: "Box::new",
                    line,
                });
            }
            (TokKind::Ident, "vec") if k + 1 < code.len() && tk(k + 1).1 == "!" => {
                out.push(Alloc {
                    token: "vec!",
                    line,
                });
            }
            (TokKind::Ident, "format") if k + 1 < code.len() && tk(k + 1).1 == "!" => {
                out.push(Alloc {
                    token: "format!",
                    line,
                });
            }
            (TokKind::Punct, ".") if k + 3 < code.len() && tk(k + 2).1 == "(" => {
                let (nk, name) = tk(k + 1);
                if *nk == TokKind::Ident && tk(k + 3).1 == ")" {
                    let token = match name {
                        "to_string" => Some(".to_string()"),
                        "to_owned" => Some(".to_owned()"),
                        "clone" => Some(".clone()"),
                        _ => None,
                    };
                    if let Some(token) = token {
                        out.push(Alloc { token, line });
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// Scan a body's token range for call sites.
pub fn body_calls(src: &str, tokens: &[Token], range: std::ops::Range<usize>) -> Vec<Call> {
    let code: Vec<usize> = range.filter(|&i| tokens[i].kind.is_code()).collect();
    let txt = |k: usize| tokens[code[k]].text(src);
    let kind = |k: usize| tokens[code[k]].kind;
    let mut out = Vec::new();
    for k in 0..code.len() {
        if !matches!(kind(k), TokKind::Ident | TokKind::RawIdent) {
            continue;
        }
        let name = txt(k).strip_prefix("r#").unwrap_or(txt(k));
        if NON_CALLEES.contains(&name) {
            continue;
        }
        // Callee names are directly followed by `(`; a following `!` is a
        // macro, a following `::` a longer path (its last segment will be
        // visited in its own turn).
        if k + 1 >= code.len() || txt(k + 1) != "(" {
            continue;
        }
        let (recv, qual) = if k >= 1 && txt(k - 1) == "." {
            if k >= 2 && kind(k - 2) == TokKind::Ident && txt(k - 2) == "self" {
                (Recv::SelfDot, None)
            } else {
                (Recv::OtherDot, None)
            }
        } else if k >= 2 && txt(k - 1) == ":" && txt(k - 2) == ":" {
            let qual =
                (k >= 3 && matches!(kind(k - 3), TokKind::Ident | TokKind::RawIdent)).then(|| {
                    txt(k - 3)
                        .strip_prefix("r#")
                        .unwrap_or(txt(k - 3))
                        .to_string()
                });
            (Recv::Bare, qual)
        } else {
            (Recv::Bare, None)
        };
        out.push(Call {
            name: name.to_string(),
            qual,
            recv,
            line: tokens[code[k]].line,
        });
    }
    out
}

/// One analyzed file of the workspace.
pub struct WsFile {
    /// Workspace-relative path (`crates/<crate>/src/...`).
    pub path: String,
    /// Source text.
    pub src: String,
    /// Its token stream.
    pub tokens: Vec<Token>,
    /// Its parsed items.
    pub items: FileItems,
    /// Per fn of `items.fns`, one CFG slot per [`LoopShape`].
    cfgs: Vec<[OnceLock<Cfg>; 2]>,
}

impl WsFile {
    /// The text of token `tok`.
    pub fn text(&self, tok: usize) -> &str {
        self.tokens[tok].text(&self.src)
    }

    /// The 1-based line of token `tok`.
    pub fn line(&self, tok: usize) -> usize {
        self.tokens[tok].line
    }

    /// The code tokens of `range`: comments and whitespace dropped.
    pub fn code(&self, range: std::ops::Range<usize>) -> Vec<usize> {
        range.filter(|&i| self.tokens[i].kind.is_code()).collect()
    }

    /// Is token `tok` an identifier (raw or not)?
    pub fn is_ident(&self, tok: usize) -> bool {
        matches!(self.tokens[tok].kind, TokKind::Ident | TokKind::RawIdent)
    }

    /// The CFG of fn `f` (an index into `items.fns`) with loops lowered
    /// as `shape`. Built on first use and kept with the file, so every
    /// pass of a run reads the same one.
    pub fn cfg(&self, f: usize, shape: LoopShape) -> &Cfg {
        self.cfgs[f][shape as usize].get_or_init(|| {
            let body = self.items.fns[f].body_tokens.clone();
            cfg::build(&self.src, &self.tokens, body, shape)
        })
    }
}

/// `(file index, fn index)` node id.
pub type Node = (usize, usize);

/// Every non-test fn with a body in `files`, in `(file, fn)` order.
fn fns(files: &[WsFile]) -> impl Iterator<Item = (Node, &FnItem)> {
    files.iter().enumerate().flat_map(|(fi, file)| {
        file.items
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| !f.in_test && !f.body_tokens.is_empty())
            .map(move |(gi, f)| ((fi, gi), f))
    })
}

/// Name indices over a workspace's non-test, non-cold fns with bodies.
/// Deliberately under-approximate: a call that cannot be resolved
/// confidently resolves to nothing.
struct CallIndex<'a> {
    by_name: BTreeMap<&'a str, Vec<Node>>,
    by_qual: BTreeMap<(&'a str, &'a str), Vec<Node>>,
}

impl<'a> CallIndex<'a> {
    /// Index every candidate callee in `files`.
    fn build(files: &'a [WsFile]) -> Self {
        let mut by_name: BTreeMap<&str, Vec<Node>> = BTreeMap::new();
        let mut by_qual: BTreeMap<(&str, &str), Vec<Node>> = BTreeMap::new();
        for (node, f) in fns(files).filter(|(_, f)| !f.cold) {
            by_name.entry(&f.name).or_default().push(node);
            if let Some(q) = &f.qual {
                by_qual.entry((q, &f.name)).or_default().push(node);
            }
        }
        CallIndex { by_name, by_qual }
    }
}

/// One call site of a workspace fn, resolved.
#[derive(Clone, Debug)]
pub struct Site {
    /// The call as written.
    pub call: Call,
    /// Candidate callees, possibly empty (the caller itself included when
    /// it recurses).
    pub targets: Vec<Node>,
    /// A `// doebench::cold-call` marker cuts this edge.
    pub cold: bool,
}

/// The analyzed workspace: its files, the name index over their fns, and
/// every analyzable fn's call sites, resolved once. Built once per lint
/// run and read by every workspace pass.
pub struct Workspace<'a> {
    /// The files; a [`Node`]'s first index points into this slice.
    pub files: &'a [WsFile],
    index: CallIndex<'a>,
    sites: BTreeMap<Node, Vec<Site>>,
}

impl<'a> Workspace<'a> {
    /// Index `files` and resolve the call sites of every fn in [`Self::fns`].
    pub fn build(files: &'a [WsFile]) -> Self {
        let mut ws = Workspace {
            files,
            index: CallIndex::build(files),
            sites: BTreeMap::new(),
        };
        ws.sites = ws
            .fns()
            .map(|(node, f)| {
                let file = &files[node.0];
                let calls = body_calls(&file.src, &file.tokens, f.body_tokens.clone());
                let sites = calls.into_iter().map(|call| Site {
                    targets: ws.resolve(&call, node),
                    cold: file.items.cold_call_at(call.line),
                    call,
                });
                (node, sites.collect())
            })
            .collect();
        ws
    }

    /// Every non-test fn with a body, in `(file, fn)` order: the nodes
    /// the workspace passes analyze.
    pub fn fns(&self) -> impl Iterator<Item = (Node, &'a FnItem)> + 'a {
        fns(self.files)
    }

    /// The call sites of `node` in source order (empty for fns outside
    /// [`Self::fns`]).
    pub fn sites(&self, node: Node) -> &[Site] {
        self.sites.get(&node).map_or(&[], Vec::as_slice)
    }

    /// The interprocedural summary engine: start from `sums` and run
    /// `update(node, &sums)` in rounds until no summary changes. Round
    /// one visits every fn of [`Self::fns`]; later rounds visit only the
    /// callers (through any resolved call site) of the fns whose summary
    /// changed in the round before. `update` returns a node's new summary,
    /// or `None` when it is unchanged. Updates are staged: a round reads
    /// the summaries of the round before, so a summary that needs `d`
    /// calls to arise arises in round `d` and keeps a shortest chain.
    /// There is no round cap: `update` must only ever grow a summary
    /// within a finite domain, which bounds the rounds.
    pub fn fixpoint<S>(
        &self,
        mut sums: BTreeMap<Node, S>,
        mut update: impl FnMut(Node, &BTreeMap<Node, S>) -> Option<S>,
    ) -> BTreeMap<Node, S> {
        let mut callers: BTreeMap<Node, Vec<Node>> = BTreeMap::new();
        for (&caller, sites) in &self.sites {
            for &callee in sites.iter().flat_map(|s| &s.targets) {
                callers.entry(callee).or_default().push(caller);
            }
        }
        let mut dirty: BTreeSet<Node> = self.sites.keys().copied().collect();
        while !dirty.is_empty() {
            let changed: Vec<(Node, S)> = dirty
                .iter()
                .filter_map(|&node| Some((node, update(node, &sums)?)))
                .collect();
            dirty = changed
                .iter()
                .flat_map(|(node, _)| callers.get(node).into_iter().flatten().copied())
                .collect();
            sums.extend(changed);
        }
        sums
    }

    /// Resolve one call site to candidate workspace fns (possibly empty).
    fn resolve(&self, call: &Call, caller: Node) -> Vec<Node> {
        let files = self.files;
        let (by_name, by_qual) = (&self.index.by_name, &self.index.by_qual);
        let caller_fn = &files[caller.0].items.fns[caller.1];
        match (&call.qual, call.recv) {
            (Some(q), _) => {
                let q = if q == "Self" {
                    match &caller_fn.qual {
                        Some(t) => t.as_str(),
                        None => return Vec::new(),
                    }
                } else {
                    q.as_str()
                };
                let typed = by_qual
                    .get(&(q, call.name.as_str()))
                    .cloned()
                    .unwrap_or_default();
                if !typed.is_empty() {
                    return typed;
                }
                // A module-style path (`helpers::grow(...)`): fall back to
                // free fns, same crate first, unless the qualifier is a std
                // module (then the callee lives outside the workspace).
                if STD_MODULES.contains(&q) {
                    return Vec::new();
                }
                self.free_fns(&call.name, caller, false)
            }
            (None, Recv::SelfDot) => {
                let Some(q) = &caller_fn.qual else {
                    return Vec::new();
                };
                let all = by_qual
                    .get(&(q.as_str(), call.name.as_str()))
                    .cloned()
                    .unwrap_or_default();
                let same_file: Vec<Node> =
                    all.iter().copied().filter(|n| n.0 == caller.0).collect();
                if same_file.is_empty() {
                    all
                } else {
                    same_file
                }
            }
            (None, Recv::Bare) => self.free_fns(&call.name, caller, true),
            (None, Recv::OtherDot) => {
                if STD_METHODS.contains(&call.name.as_str()) {
                    return Vec::new();
                }
                let all = by_name.get(call.name.as_str()).cloned().unwrap_or_default();
                if all.len() == 1 {
                    all
                } else {
                    Vec::new()
                }
            }
        }
    }

    /// The free fns named `name` a call from `caller` resolves to: those
    /// in the caller's file (when `file_first`), else those in its crate,
    /// else the workspace's only one unless `name` is a std method.
    fn free_fns(&self, name: &str, caller: Node, file_first: bool) -> Vec<Node> {
        let files = self.files;
        let by_name = self.index.by_name.get(name).into_iter().flatten();
        let free: Vec<Node> = by_name
            .copied()
            .filter(|&(fi, gi)| files[fi].items.fns[gi].qual.is_none())
            .collect();
        let caller_crate = crate_of(&files[caller.0].path);
        let pick = |near: &dyn Fn(Node) -> bool| -> Vec<Node> {
            free.iter().copied().filter(|&n| near(n)).collect()
        };
        let same_file = pick(&|n| file_first && n.0 == caller.0);
        if !same_file.is_empty() {
            return same_file;
        }
        let same_crate = pick(&|n| crate_of(&files[n.0].path) == caller_crate);
        if !same_crate.is_empty() {
            return same_crate;
        }
        if free.len() == 1 && !STD_METHODS.contains(&name) {
            return free;
        }
        Vec::new()
    }
}

/// Build a [`WsFile`] from a path and source text.
pub fn ws_file(path: &str, src: &str, extra_hot: &[String]) -> WsFile {
    let (tokens, items) = crate::items::parse_source(src, extra_hot);
    WsFile {
        path: path.to_string(),
        src: src.to_string(),
        tokens,
        cfgs: items.fns.iter().map(|_| Default::default()).collect(),
        items,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::{LintFinding, Rule};

    // Call-graph reachability for `hot-path-alloc`: an allocation any
    // depth below a hot fn is reported at the hot fn's own call line.

    fn hot_allocs(files: &[WsFile]) -> Vec<LintFinding> {
        crate::effects::findings(&Workspace::build(files))
            .into_iter()
            .filter(|f| f.rule == Rule::HotPathAlloc)
            .collect()
    }

    fn single(path: &str, src: &str) -> Vec<LintFinding> {
        hot_allocs(&[ws_file(path, src, &[])])
    }

    fn sites(f: &[LintFinding]) -> Vec<(&str, usize)> {
        f.iter().map(|f| (f.path.as_str(), f.line)).collect()
    }

    #[test]
    fn fixpoint_is_uncapped_and_revisits_only_callers_of_changes() {
        // f0 -> f1 -> … -> f29, declared caller-first, plus an unrelated
        // fn. The summary is the call depth down to f29.
        let mut src: String = (0..29)
            .map(|i| format!("fn f{i}() {{\n    f{}();\n}}\n", i + 1))
            .collect();
        src.push_str("fn f29() {}\nfn lone() {}\n");
        let files = [ws_file("crates/x/src/lib.rs", &src, &[])];
        let ws = Workspace::build(&files);
        let name = |n: Node| files[n.0].items.fns[n.1].name.as_str();
        let bottom = ws.fns().find(|(_, f)| f.name == "f29").unwrap().0;
        let mut visits: BTreeMap<&str, usize> = BTreeMap::new();
        let sums = ws.fixpoint(BTreeMap::from([(bottom, 0)]), |node, sums| {
            *visits.entry(name(node)).or_default() += 1;
            let below = ws.sites(node).iter().flat_map(|s| &s.targets);
            let depth = below.filter_map(|t| sums.get(t)).min()? + 1;
            (!sums.contains_key(&node)).then_some(depth)
        });
        let depth_of_f0 = sums.iter().find(|(&n, _)| name(n) == "f0");
        assert_eq!(depth_of_f0.map(|(_, &d)| d), Some(29));
        // Round one visits all 31 fns; each later round only the caller
        // of the fn that changed in the round before.
        assert_eq!(visits["lone"], 1);
        assert_eq!(visits["f29"], 1);
        assert_eq!(visits["f0"], 2);
        assert_eq!(visits.values().sum::<usize>(), 31 + 28);
    }

    #[test]
    fn allocs_detected_with_clone_from_exempt() {
        let src = "fn f() {\n    let a = x.clone();\n    b.clone_from(&x);\n    let v = vec![1];\n    let s = format!(\"x\");\n    let bx = Box::new(1);\n    let t = y.to_string();\n}\n";
        let (tokens, items) = crate::items::parse_source(src, &[]);
        let allocs = body_allocs(src, &tokens, items.fns[0].body_tokens.clone());
        let toks: Vec<_> = allocs.iter().map(|a| a.token).collect();
        assert_eq!(
            toks,
            vec![".clone()", "vec!", "format!", "Box::new", ".to_string()"]
        );
    }

    #[test]
    fn two_level_transitive_alloc_is_caught() {
        let src = "\
// doebench::hot
fn pump() {
    step();
}
fn step() {
    grow();
}
fn grow() {
    let v = vec![0u8; 64];
    let _ = v;
}
";
        // Reported at the hot fn's call line, two levels above the site.
        let f = single("crates/x/src/lib.rs", src);
        assert_eq!(sites(&f), [("crates/x/src/lib.rs", 3)]);
        assert!(
            f[0].message.contains("pump -> step -> grow"),
            "{}",
            f[0].message
        );
        assert_eq!(f[0].chain, ["pump", "step", "grow"]);
    }

    #[test]
    fn cold_call_marker_cuts_the_edge() {
        let src = "\
// doebench::hot
fn pump() {
    // doebench::cold-call
    slow_path();
}
fn slow_path() {
    let v = vec![0u8; 64];
    let _ = v;
}
";
        assert!(single("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn cold_attribute_cuts_the_node() {
        let src = "\
// doebench::hot
fn pump() {
    slow_path();
}
#[cold]
fn slow_path() {
    let v = vec![0u8; 64];
    let _ = v;
}
";
        assert!(single("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn self_method_calls_resolve_within_the_impl() {
        let src = "\
struct Q;
impl Q {
    // doebench::hot
    fn pump(&mut self) {
        self.refill();
    }
    fn refill(&mut self) {
        let s = String::new();
        let owned = s.to_owned();
        let _ = owned;
    }
}
";
        let f = single("crates/x/src/lib.rs", src);
        assert_eq!(sites(&f), [("crates/x/src/lib.rs", 5)]);
        assert!(f[0].message.contains("pump -> refill"), "{}", f[0].message);
    }

    #[test]
    fn qualified_calls_resolve_across_files() {
        let a = "// doebench::hot\nfn pump() {\n    Pool::acquire();\n}\n";
        let b = "struct Pool;\nimpl Pool {\n    fn acquire() {\n        let v = vec![1];\n        let _ = v;\n    }\n}\n";
        let files = [
            ws_file("crates/x/src/a.rs", a, &[]),
            ws_file("crates/y/src/b.rs", b, &[]),
        ];
        assert_eq!(sites(&hot_allocs(&files)), [("crates/x/src/a.rs", 3)]);
    }

    #[test]
    fn std_method_names_do_not_resolve_to_workspace_fns() {
        let src = "\
// doebench::hot
fn pump(q: &mut Vec<u8>) {
    q.push(1);
}
fn push() {
    let v = vec![1];
    let _ = v;
}
";
        assert!(single("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn allocs_in_test_fns_are_not_roots_or_targets() {
        let src = "\
#[cfg(test)]
mod tests {
    // doebench::hot
    fn pump() {
        grow();
    }
    fn grow() {
        let v = vec![1];
        let _ = v;
    }
}
";
        assert!(single("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn waiver_at_call_site_suppresses_finding() {
        let src = "\
// doebench::hot
fn pump() {
    // dessan::allow(hot-path-alloc): warmup only, measured region excluded.
    grow();
}
fn grow() {
    let v = vec![1];
    let _ = v;
}
";
        assert!(single("crates/x/src/lib.rs", src).is_empty());
    }
}
