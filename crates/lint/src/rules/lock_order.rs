//! `lock-order` — guard-liveness tracking over the token stream: a
//! second lock acquired while one is held must follow the single
//! workspace-wide acquisition order, guards must not be held across a
//! call edge that itself locks, and guards must not be held across
//! blocking socket/console IO.
//!
//! Guard liveness is modeled on Rust's temporary-scope rules, which are
//! exactly the trap this rule exists for:
//!
//! - a guard bound by `let g = m.lock();` lives to the end of the
//!   enclosing block (or an explicit `drop(g)`);
//! - a **match-scrutinee** temporary (`match m.lock().lease(..) { .. }`)
//!   lives to the end of the whole `match` — the classic surprise: every
//!   arm body runs with the lock held;
//! - a `for`-loop iterator temporary (`for x in m.lock().iter()`) lives
//!   for the whole loop body;
//! - an `if`/`while` **condition** temporary drops before the body runs;
//! - anything else (a chained `m.lock().push(x)` statement) drops at the
//!   end of its statement.
//!
//! Lock identity is the receiver's final field name (`shared.queue` and
//! `self.queue` are both `queue`) — names, not objects, which matches
//! how this workspace names its shared state and is what a reviewer
//! reads in the blessed-order table. Acquisition is the zero-arg
//! `.lock()`/`.read()`/`.write()` pattern; the zero-arg requirement
//! separates `RwLock::read` from `io::Read::read(&mut buf)`.
//!
//! The ordered-pair graph is inferred from every site in the workspace:
//! pair (A→B) is a hazard exactly when B can already reach A through the
//! observed pairs (a 2-cycle is the AB/BA inversion; longer cycles are
//! reported with the full path), and the finding names both sites.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{is_lock_acquisition, Workspace};
use crate::lexer::{Token, TokenKind};
use crate::rules::{Finding, WorkspaceRule};
use crate::source::SourceFile;

/// Socket/console IO reached while a guard is live. Free/assoc calls
/// only — file IO (`atomic_write`) under a short-lived guard is how
/// serve's promote path stays atomic and is deliberately not flagged.
const BLOCKING_IO_CALLS: [&str; 4] = ["write_frame", "read_frame", "call", "connect"];
/// Console macros: stderr writes block on a slow consumer like any pipe.
const BLOCKING_IO_MACROS: [&str; 4] = ["eprintln", "println", "eprint", "print"];

/// One lock acquisition with its computed liveness range.
#[derive(Clone, Debug)]
struct Acq {
    /// Heuristic lock identity: final receiver field name.
    name: String,
    /// Token index of the `lock`/`read`/`write` ident.
    tok: usize,
    line: usize,
    /// Exclusive token index the guard is live until.
    live_end: usize,
    /// Variable a `let`-bound guard is named by (for `drop(var)`).
    bound_var: Option<String>,
}

/// A pair site: `first` held when `second` was acquired.
#[derive(Clone, Debug)]
struct PairSite {
    node: usize,
    first_line: usize,
    line: usize,
}

pub struct LockOrder;

fn is_ident_kw(t: &Token, kws: &[&str]) -> bool {
    t.kind == TokenKind::Ident && kws.iter().any(|k| t.text == *k)
}

/// Statement start: scan back from `i` to `lo` for `;`/`{`/`}`/`,` at
/// bracket depth 0 (depth over `()`/`[]` so `vec![0; n]` and argument
/// lists don't fake a boundary).
fn stmt_start(toks: &[Token], i: usize, lo: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j > lo {
        let t = &toks[j - 1];
        if t.is_punct(")") || t.is_punct("]") {
            depth += 1;
        } else if t.is_punct("(") || t.is_punct("[") {
            depth -= 1;
        } else if depth == 0
            && (t.is_punct(";") || t.is_punct("{") || t.is_punct("}") || t.is_punct(","))
        {
            return j;
        }
        j -= 1;
    }
    lo
}

/// End of the temporary scope for an acquisition at `i`: the `;`/`,`
/// closing its statement (brace/paren/bracket-balanced), or the token
/// where the enclosing block closes.
fn stmt_end(toks: &[Token], i: usize, hi: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j <= hi && j < toks.len() {
        let t = &toks[j];
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
            depth -= 1;
            if depth < 0 {
                return j;
            }
        } else if depth == 0 && (t.is_punct(";") || t.is_punct(",")) {
            return j;
        }
        j += 1;
    }
    hi
}

/// Token index where the enclosing block closes (first `}` that takes
/// the running depth negative).
fn block_end(toks: &[Token], i: usize, hi: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j <= hi && j < toks.len() {
        let t = &toks[j];
        if t.is_punct("{") || t.is_punct("(") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct("}") || t.is_punct(")") || t.is_punct("]") {
            depth -= 1;
            if depth < 0 {
                return j;
            }
        }
        j += 1;
    }
    hi
}

/// First `{` at depth 0 (over `()`/`[]`) from `i`, then its matching `}`
/// — the span of a `match`/`for` statement's block.
fn block_stmt_end(toks: &[Token], i: usize, hi: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j <= hi && j < toks.len() {
        let t = &toks[j];
        if t.is_punct("(") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") {
            depth -= 1;
        } else if t.is_punct("{") && depth <= 0 {
            // matching close of this brace
            let mut bd = 0i32;
            let mut k = j;
            while k <= hi && k < toks.len() {
                if toks[k].is_punct("{") {
                    bd += 1;
                } else if toks[k].is_punct("}") {
                    bd -= 1;
                    if bd == 0 {
                        return k;
                    }
                }
                k += 1;
            }
            return hi;
        }
        j += 1;
    }
    hi
}

/// The receiver's final field name: `shared.queue.lock()` → `queue`.
fn lock_name(toks: &[Token], acq_tok: usize) -> String {
    if acq_tok >= 2 && toks[acq_tok - 2].kind == TokenKind::Ident {
        toks[acq_tok - 2].text.clone()
    } else {
        "<expr>".to_string()
    }
}

/// Whether every token in `toks[lo..hi]` is plain receiver-path material
/// (ident/`.`/`&`/`*`/`::`/`mut`), i.e. the acquisition *is* the `let`
/// initializer value (possibly behind `&*` with temporary-lifetime
/// extension) rather than buried in a `match`/`if` scrutinee.
fn direct_let_init(toks: &[Token], lo: usize, hi: usize) -> bool {
    toks[lo..hi].iter().all(|t| {
        t.is_punct(".")
            || t.is_punct("&")
            || t.is_punct("*")
            || t.is_punct("::")
            || (t.kind == TokenKind::Ident
                && !is_ident_kw(
                    t,
                    &["match", "if", "while", "loop", "for", "unsafe", "return"],
                ))
    })
}

/// All lock acquisitions in the fn token span `[lo, hi]`, with liveness.
fn collect_acquisitions(file: &SourceFile, lo: usize, hi: usize) -> Vec<Acq> {
    let toks = &file.tokens;
    let mut acqs = Vec::new();
    for i in lo..=hi.min(toks.len().saturating_sub(1)) {
        if file.test_mask[i] || !is_lock_acquisition(toks, i) {
            continue;
        }
        let after_call = i + 3; // past `name ( )`
        let chained = matches!(toks.get(after_call), Some(t) if t.is_punct(".") || t.is_punct("?"));
        let s = stmt_start(toks, i, lo);
        let kw = &toks[s];
        let mut bound_var = None;
        let live_end = if is_ident_kw(kw, &["if", "while"]) {
            // Condition temporaries drop before the body runs.
            let mut depth = 0i32;
            let mut cond_open = hi;
            let mut j = s;
            while j <= hi && j < toks.len() {
                let t = &toks[j];
                if t.is_punct("(") || t.is_punct("[") {
                    depth += 1;
                } else if t.is_punct(")") || t.is_punct("]") {
                    depth -= 1;
                } else if t.is_punct("{") && depth <= 0 {
                    cond_open = j;
                    break;
                }
                j += 1;
            }
            if i < cond_open {
                cond_open
            } else {
                stmt_end(toks, after_call, hi)
            }
        } else if is_ident_kw(kw, &["match", "for"]) {
            // Scrutinee/iterator temporaries live for the whole block.
            block_stmt_end(toks, i, hi)
        } else if kw.is_ident("let") && !chained {
            // Find the `=` and require a direct initializer; otherwise the
            // guard is a plain temporary inside the initializer expression.
            let eq = (s..i).find(|&k| toks[k].is_punct("="));
            match eq {
                Some(eq) if direct_let_init(toks, eq + 1, i.saturating_sub(2).max(eq + 1)) => {
                    // `let [mut] name = ...` — remember the binding for drop().
                    let mut v = s + 1;
                    if matches!(toks.get(v), Some(t) if t.is_ident("mut")) {
                        v += 1;
                    }
                    if matches!(toks.get(v), Some(t) if t.kind == TokenKind::Ident) {
                        bound_var = Some(toks[v].text.clone());
                    }
                    block_end(toks, after_call, hi)
                }
                _ => stmt_end(toks, after_call, hi),
            }
        } else {
            stmt_end(toks, after_call, hi)
        };
        acqs.push(Acq {
            name: lock_name(toks, i),
            tok: i,
            line: toks[i].line,
            live_end,
            bound_var,
        });
    }
    // Explicit `drop(var)` truncates a bound guard's liveness.
    for a in acqs.iter_mut() {
        let Some(var) = a.bound_var.clone() else {
            continue;
        };
        for d in a.tok..a.live_end.min(toks.len().saturating_sub(3)) {
            if toks[d].is_ident("drop")
                && toks[d + 1].is_punct("(")
                && toks[d + 2].is_ident(&var)
                && toks[d + 3].is_punct(")")
            {
                a.live_end = d;
                break;
            }
        }
    }
    acqs
}

impl WorkspaceRule for LockOrder {
    fn id(&self) -> &'static str {
        "lock-order"
    }

    fn description(&self) -> &'static str {
        "lock acquisitions must follow one workspace-wide order; guards must not be \
         held across a call that locks, nor across socket/console IO"
    }

    fn explain(&self) -> &'static str {
        "WHY: the serve and fleet layers juggle Mutex/RwLock state across handler \
         threads; two threads taking the same pair of locks in opposite orders is \
         a deadlock that only fires under load, and a guard held across a socket \
         write stalls every peer of that lock for a slow client's RTT. Rust makes \
         the hold easy to miss: a match-scrutinee temporary \
         (`match m.lock().lease(..) { .. }`) keeps the guard live through every \
         arm.\n\
         EXAMPLE: lock-order hazard: `queue` then `staged` here, but `staged` \
         then `queue` at crates/fleet/src/coordinator.rs:NN\n\
         FIX: hoist the locked call out of the scrutinee (`let outcome = \
         m.lock().lease(..); match outcome { .. }`), narrow critical sections so \
         IO happens after the guard drops, and keep nesting in the blessed order \
         (README table).\n\
         SUPPRESS: only with an argument why both orders can never contend (e.g. \
         one site is single-threaded startup); name the other site."
    }

    fn check(&self, ws: &Workspace) -> Vec<Finding> {
        let g = &ws.graph;
        let mut findings = Vec::new();
        // (first, second) -> sites, across the whole workspace.
        let mut pairs: BTreeMap<(String, String), Vec<PairSite>> = BTreeMap::new();

        for idx in ws.node_ids() {
            let node = &g.nodes[idx];
            if !(node.file.starts_with("crates/") && node.file.contains("/src/")) {
                continue;
            }
            let file = &ws.files[node.file_idx];
            let toks = &file.tokens;
            let acqs = collect_acquisitions(file, node.start, node.end);
            for a in &acqs {
                // Second acquisition while `a` is held.
                for b in &acqs {
                    if b.tok > a.tok && b.tok < a.live_end {
                        if b.name == a.name {
                            findings.push(Finding::new(
                                self.id(),
                                file,
                                b.line,
                                format!(
                                    "`{}` acquired at line {} is still held here — a second \
                                     acquisition of the same lock self-deadlocks",
                                    a.name, a.line
                                ),
                            ));
                        } else {
                            pairs
                                .entry((a.name.clone(), b.name.clone()))
                                .or_default()
                                .push(PairSite {
                                    node: idx,
                                    first_line: a.line,
                                    line: b.line,
                                });
                        }
                    }
                }
                // Guard held across a resolved call edge that itself locks.
                let mut seen: BTreeSet<usize> = BTreeSet::new();
                for e in &g.edges[idx] {
                    if e.tok > a.tok
                        && e.tok < a.live_end
                        && seen.insert(e.to)
                        && g.node_acquires_lock(&ws.files, e.to)
                    {
                        findings.push(Finding::new(
                            self.id(),
                            file,
                            e.line,
                            format!(
                                "`{}` guard (line {}) held across call to `{}` \
                                 ({}:{}), which itself acquires a lock — lock \
                                 acquisition through a call edge while holding a \
                                 guard hides the ordering from both sites",
                                a.name,
                                a.line,
                                g.nodes[e.to].display_name(),
                                g.nodes[e.to].file,
                                g.nodes[e.to].line
                            ),
                        ));
                    }
                }
                // Guard held across blocking socket/console IO.
                for i in (a.tok + 3)..a.live_end.min(toks.len()) {
                    if file.test_mask[i] || toks[i].kind != TokenKind::Ident {
                        continue;
                    }
                    let t = &toks[i];
                    let io_macro = BLOCKING_IO_MACROS.iter().any(|m| t.is_ident(m))
                        && matches!(toks.get(i + 1), Some(n) if n.is_punct("!"));
                    let io_call = BLOCKING_IO_CALLS.iter().any(|m| t.is_ident(m))
                        && matches!(toks.get(i + 1), Some(n) if n.is_punct("("));
                    if io_macro || io_call {
                        findings.push(Finding::new(
                            self.id(),
                            file,
                            t.line,
                            format!(
                                "`{}` guard (line {}) held across blocking IO `{}{}` — \
                                 narrow the critical section so network/console IO runs \
                                 after the guard drops",
                                a.name,
                                a.line,
                                t.text,
                                if io_macro { "!" } else { "(..)" }
                            ),
                        ));
                    }
                }
            }
        }

        // Workspace-wide order: pair (a, b) is a hazard when b already
        // reaches a through observed pairs (2-cycle = direct inversion).
        let adj: BTreeMap<&str, BTreeSet<&str>> = {
            let mut m: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
            for (a, b) in pairs.keys() {
                m.entry(a.as_str()).or_default().insert(b.as_str());
            }
            m
        };
        let reaches = |from: &str, to: &str| -> bool {
            let mut seen: BTreeSet<&str> = BTreeSet::new();
            let mut stack = vec![from];
            while let Some(n) = stack.pop() {
                if n == to {
                    return true;
                }
                if !seen.insert(n) {
                    continue;
                }
                if let Some(outs) = adj.get(n) {
                    stack.extend(outs.iter().copied());
                }
            }
            false
        };
        for ((a, b), sites) in &pairs {
            if !reaches(b, a) {
                continue;
            }
            // Name the counterpart: a direct (b, a) site when one exists,
            // else the first hop of the reverse path.
            let counter = pairs
                .get(&(b.clone(), a.clone()))
                .and_then(|v| v.first())
                .or_else(|| {
                    adj.get(b.as_str()).and_then(|outs| {
                        outs.iter()
                            .find(|&&c| reaches(c, a))
                            .and_then(|&c| pairs.get(&(b.clone(), c.to_string())))
                            .and_then(|v| v.first())
                    })
                });
            for site in sites {
                let node = &g.nodes[site.node];
                let file = &ws.files[node.file_idx];
                let counter_txt = match counter {
                    Some(c) => {
                        let cn = &g.nodes[c.node];
                        format!("`{}` is held first at {}:{}", b, cn.file, c.line)
                    }
                    None => format!("`{}` is also acquired while other guards are held", b),
                };
                findings.push(Finding::new(
                    self.id(),
                    file,
                    site.line,
                    format!(
                        "lock-order hazard: `{}` (line {}) then `{}` here, but {} — \
                         opposite nesting deadlocks under contention; pick one global \
                         order",
                        a, site.first_line, b, counter_txt
                    ),
                ));
            }
        }
        findings
    }
}
