//! Conservative name-based call-graph over [`crate::symbols`]: the
//! resolution a linker would do, minus types.
//!
//! Resolution policy (deliberately over-approximate — a false edge costs
//! a human a glance, a missed edge hides a panic):
//!
//! - **Free calls** resolve to free fns with that name — same-file
//!   definitions win, then a module qualifier (`codec::take_u32`) filters
//!   by file stem/directory, then every free fn with the name fans out.
//!   A path rooted in `std`, `core` or `alloc` (`std::path::absolute`)
//!   names a std fn and stays unresolved.
//! - **Method calls** resolve by name to every `impl` method with that
//!   name (fan-out); a literal `self.` receiver or a `Self::`/`Type::`
//!   qualifier narrows to the impl type when it matches anything. Names
//!   that collide with ubiquitous std methods ([`STD_COLLIDING_METHODS`]
//!   — `push`, `load`, `insert`, ...) never fan out blind: without a
//!   narrowed receiver they are unresolved, because `out.push(b)` on a
//!   `Vec<u8>` resolving to some workspace type's `push` is how a
//!   name-only resolver drowns itself in false chains.
//! - **Unresolved** calls (std/vendored targets, or fan-out beyond
//!   [`FAN_OUT_CAP`]) are assumed clean but *counted* — CI fails when the
//!   unresolved ratio regresses, so resolver rot is loud, not silent.
//!
//! Vendored code never enters the index (the engine's walk skips
//! `vendor/`), so edges into `std` or stand-in crates are exactly the
//! unresolved ones.

use std::collections::BTreeMap;

use crate::source::SourceFile;
use crate::symbols::{index_fns, CallSite, FnSym, PanicSite};

/// A method/free call whose candidate set exceeds this is recorded as
/// unresolved rather than fanned out: beyond it the "edges" are noise
/// that would drown real chains (think `.get(` / `.len(`).
pub const FAN_OUT_CAP: usize = 8;

/// Method names shared with std's pervasive types (`Vec`, maps, atomics,
/// channels, iterators, `io`). A method call with one of these names and
/// no `self.`/`Self::`/`Type::` narrowing is recorded unresolved instead
/// of fanned out: on a name-only resolver, `out.push(OP_HELLO)` must not
/// become an edge into `SparseMatrix::push`, nor `flag.load(SeqCst)` into
/// some workspace type's `load`.
pub const STD_COLLIDING_METHODS: [&str; 44] = [
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "get_mut",
    "load",
    "store",
    "send",
    "recv",
    "clone",
    "len",
    "is_empty",
    "contains",
    "contains_key",
    "keys",
    "values",
    "entry",
    "iter",
    "into_iter",
    "extend",
    "drain",
    "clear",
    "take",
    "replace",
    "swap",
    "join",
    "append",
    "split_off",
    "next",
    "flush",
    "min",
    "max",
    "clamp",
    "abs",
    "sqrt",
    "find",
    "map",
    "filter",
    "collect",
    "sort",
    "retain",
    "write",
    "read",
];

/// One indexed fn with everything the workspace rules need.
#[derive(Clone, Debug)]
pub struct Node {
    /// Index into [`Workspace::files`].
    pub file_idx: usize,
    /// Workspace-relative path (denormalized for messages).
    pub file: String,
    pub name: String,
    pub impl_type: Option<String>,
    pub line: usize,
    /// Inclusive token span in the owning file.
    pub start: usize,
    pub end: usize,
    pub calls: Vec<CallSite>,
    pub panics: Vec<PanicSite>,
}

impl Node {
    /// `Type::name` or `name`, for messages.
    pub fn display_name(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One resolved call edge.
#[derive(Clone, Debug)]
pub struct Edge {
    pub to: usize,
    /// Line of the call site in the caller's file.
    pub line: usize,
    /// Token index of the call site in the caller's file (guard-liveness
    /// range tests in the lock-order rule).
    pub tok: usize,
}

/// Resolver health counters (the CI artifact).
#[derive(Clone, Copy, Debug, Default)]
pub struct CallGraphStats {
    /// Indexed non-test fns.
    pub functions: usize,
    /// Syntactic call sites seen.
    pub calls: usize,
    /// Resolved caller→callee pairs (deduplicated).
    pub edges: usize,
    /// Call sites with no in-workspace candidate (or capped fan-out).
    pub unresolved_calls: usize,
}

impl CallGraphStats {
    pub fn unresolved_ratio(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.unresolved_calls as f64 / self.calls as f64
        }
    }

    pub fn render_json(&self) -> String {
        format!(
            "{{\"functions\":{},\"calls\":{},\"edges\":{},\"unresolved_calls\":{},\
             \"unresolved_ratio\":{:.4}}}",
            self.functions,
            self.calls,
            self.edges,
            self.unresolved_calls,
            self.unresolved_ratio()
        )
    }
}

/// A panic reachable from an entry fn through resolved call edges.
#[derive(Clone, Debug)]
pub struct PanicChain {
    /// Node ids, entry first, panicking fn last (≥ 2 entries).
    pub nodes: Vec<usize>,
    /// Call-site line for each hop (`lines[0]` is in the entry's file).
    pub lines: Vec<usize>,
    /// What panics (`unwrap`, `assert_eq!`, ...).
    pub what: String,
    /// Line of the panic site in the last node's file.
    pub panic_line: usize,
}

/// The whole-workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    pub nodes: Vec<Node>,
    /// `edges[i]` — resolved out-edges of node `i`, in call-site order.
    pub edges: Vec<Vec<Edge>>,
    pub stats: CallGraphStats,
}

impl CallGraph {
    pub fn build(files: &[SourceFile]) -> CallGraph {
        let mut nodes: Vec<Node> = Vec::new();
        for (file_idx, file) in files.iter().enumerate() {
            for sym in index_fns(file) {
                let FnSym {
                    name,
                    impl_type,
                    line,
                    start,
                    end,
                    is_test,
                    calls,
                    panics,
                } = sym;
                if is_test {
                    continue;
                }
                nodes.push(Node {
                    file_idx,
                    file: file.rel_path.clone(),
                    name,
                    impl_type,
                    line,
                    start,
                    end,
                    calls,
                    panics,
                });
            }
        }

        let mut free_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut methods_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, n) in nodes.iter().enumerate() {
            if n.impl_type.is_some() {
                methods_by_name.entry(&n.name).or_default().push(i);
            } else {
                free_by_name.entry(&n.name).or_default().push(i);
            }
        }

        let mut edges: Vec<Vec<Edge>> = vec![Vec::new(); nodes.len()];
        let mut stats = CallGraphStats {
            functions: nodes.len(),
            ..CallGraphStats::default()
        };
        for i in 0..nodes.len() {
            for c in 0..nodes[i].calls.len() {
                stats.calls += 1;
                let call = &nodes[i].calls[c];
                match resolve(&nodes, &free_by_name, &methods_by_name, i, call) {
                    Some(targets) => {
                        for t in targets {
                            edges[i].push(Edge {
                                to: t,
                                line: call.line,
                                tok: call.tok,
                            });
                        }
                    }
                    None => stats.unresolved_calls += 1,
                }
            }
        }
        for (i, outs) in edges.iter().enumerate() {
            let mut seen: Vec<usize> = outs.iter().map(|e| e.to).collect();
            seen.sort_unstable();
            seen.dedup();
            seen.retain(|&t| t != i); // self-recursion is not an "edge" stat
            stats.edges += seen.len();
        }

        CallGraph {
            nodes,
            edges,
            stats,
        }
    }

    /// Panics reachable from `entry` in 1..=`max_depth` call edges. BFS
    /// with a visited set, so recursion and cycles terminate; the chain
    /// reported per panic site is a shortest one.
    pub fn panic_chains(&self, entry: usize, max_depth: usize) -> Vec<PanicChain> {
        let mut out = Vec::new();
        let mut visited = vec![false; self.nodes.len()];
        // parent[n] = (caller node, call line) on the BFS tree.
        let mut parent: Vec<Option<(usize, usize)>> = vec![None; self.nodes.len()];
        visited[entry] = true;
        let mut frontier = vec![entry];
        for _depth in 0..max_depth {
            let mut next = Vec::new();
            for &n in &frontier {
                for e in &self.edges[n] {
                    if visited[e.to] {
                        continue;
                    }
                    visited[e.to] = true;
                    parent[e.to] = Some((n, e.line));
                    next.push(e.to);
                }
            }
            for &n in &next {
                for p in &self.nodes[n].panics {
                    let mut rev_nodes = vec![n];
                    let mut rev_lines = Vec::new();
                    let mut cur = n;
                    while let Some((up, line)) = parent[cur] {
                        rev_lines.push(line);
                        rev_nodes.push(up);
                        cur = up;
                    }
                    rev_nodes.reverse();
                    rev_lines.reverse();
                    out.push(PanicChain {
                        nodes: rev_nodes,
                        lines: rev_lines,
                        what: p.what.clone(),
                        panic_line: p.line,
                    });
                }
            }
            frontier = next;
        }
        out
    }

    /// Whether a node's body directly contains a lock acquisition
    /// (`.lock()` / zero-arg `.read()` / `.write()`); used by the
    /// lock-order rule's held-across-call check.
    pub fn node_acquires_lock(&self, files: &[SourceFile], idx: usize) -> bool {
        let n = &self.nodes[idx];
        let toks = &files[n.file_idx].tokens;
        (n.start..=n.end.min(toks.len().saturating_sub(1))).any(|i| is_lock_acquisition(toks, i))
    }
}

/// Token `i` is the method name of `.lock()` / `.read()` / `.write()`
/// with *no arguments* — the zero-arg requirement is what separates
/// `RwLock::read`/`write` from `io::Read::read(&mut buf)` and
/// `io::Write::write(&buf)`.
pub fn is_lock_acquisition(toks: &[crate::lexer::Token], i: usize) -> bool {
    let t = &toks[i];
    (t.is_ident("lock") || t.is_ident("read") || t.is_ident("write"))
        && i >= 1
        && toks[i - 1].is_punct(".")
        && matches!(toks.get(i + 1), Some(n) if n.is_punct("("))
        && matches!(toks.get(i + 2), Some(n) if n.is_punct(")"))
}

fn bounded(v: Vec<usize>) -> Option<Vec<usize>> {
    if v.is_empty() || v.len() > FAN_OUT_CAP {
        None
    } else {
        Some(v)
    }
}

/// True when `file` (a workspace-relative path) plausibly is module `q`:
/// its stem is `q` or a directory component is `q`.
fn file_matches_module(file: &str, q: &str) -> bool {
    let stem = file
        .rsplit('/')
        .next()
        .unwrap_or(file)
        .trim_end_matches(".rs");
    stem == q || file.split('/').any(|c| c == q)
}

fn resolve(
    nodes: &[Node],
    free_by_name: &BTreeMap<&str, Vec<usize>>,
    methods_by_name: &BTreeMap<&str, Vec<usize>>,
    caller: usize,
    call: &CallSite,
) -> Option<Vec<usize>> {
    let name = call.name.as_str();
    if call.is_method {
        let cands = methods_by_name.get(name)?;
        if call.receiver_is_self {
            if let Some(t) = &nodes[caller].impl_type {
                let own: Vec<usize> = cands
                    .iter()
                    .copied()
                    .filter(|&i| nodes[i].impl_type.as_deref() == Some(t))
                    .collect();
                if !own.is_empty() {
                    return Some(own);
                }
            }
        }
        if STD_COLLIDING_METHODS.contains(&name) {
            return None;
        }
        // A non-`self` receiver is (almost) never the caller itself:
        // method recursion spells `self.f()` / `Self::f()`, both handled
        // above, so keeping the caller in its own fan-out only fabricates
        // spurious cycles.
        return bounded(cands.iter().copied().filter(|&i| i != caller).collect());
    }
    if call.from_std {
        // `std::path::absolute(..)` is std's, never a same-named
        // workspace fn.
        return None;
    }
    match call.qualifier.as_deref() {
        Some("Self") => {
            let t = nodes[caller].impl_type.clone()?;
            let own: Vec<usize> = methods_by_name
                .get(name)?
                .iter()
                .copied()
                .filter(|&i| nodes[i].impl_type.as_deref() == Some(t.as_str()))
                .collect();
            bounded(own)
        }
        Some(q) if q.chars().next().is_some_and(|c| c.is_uppercase()) => {
            // `Type::assoc_fn(...)` — methods of that impl type only.
            let own: Vec<usize> = methods_by_name
                .get(name)?
                .iter()
                .copied()
                .filter(|&i| nodes[i].impl_type.as_deref() == Some(q))
                .collect();
            bounded(own)
        }
        Some(q) => {
            // `module::free_fn(...)` — filter free fns by file/module.
            let frees = free_by_name.get(name)?;
            let scoped: Vec<usize> = frees
                .iter()
                .copied()
                .filter(|&i| file_matches_module(&nodes[i].file, q))
                .collect();
            if !scoped.is_empty() {
                Some(scoped)
            } else {
                bounded(frees.clone())
            }
        }
        None => {
            let frees = free_by_name.get(name)?;
            let same_file: Vec<usize> = frees
                .iter()
                .copied()
                .filter(|&i| nodes[i].file_idx == nodes[caller].file_idx)
                .collect();
            if !same_file.is_empty() {
                Some(same_file)
            } else {
                bounded(frees.clone())
            }
        }
    }
}

/// Everything the workspace-level rules see: the parsed files plus the
/// call graph over them.
pub struct Workspace {
    pub files: Vec<SourceFile>,
    pub graph: CallGraph,
}

impl Workspace {
    pub fn build(files: Vec<SourceFile>) -> Workspace {
        let graph = CallGraph::build(&files);
        Workspace { files, graph }
    }

    /// Node ids in reporting order (file order, then position).
    pub fn node_ids(&self) -> std::ops::Range<usize> {
        0..self.graph.nodes.len()
    }
}
