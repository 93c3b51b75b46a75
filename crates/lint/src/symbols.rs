//! Per-file symbol extraction for the workspace call-graph analysis:
//! every non-test `fn` item with its `impl`-header receiver-type hint,
//! the call sites it contains, and the panic sites it contains.
//!
//! This stays on the lexer's token stream (no AST): `impl` headers are
//! parsed just far enough to name the self type, call sites are the
//! token patterns `name(`, `path::name(`, and `.name(`, and panic sites
//! reuse the `no-panic-in-hot-path` token patterns. Everything here is
//! deliberately *syntactic* — [`crate::callgraph`] owns the (equally
//! conservative) name-based resolution.

use crate::lexer::{Token, TokenKind};
use crate::source::SourceFile;

/// Method names whose call panics on `Err`/`None`.
pub const PANIC_METHODS: [&str; 2] = ["unwrap", "expect"];
/// Macros that panic unconditionally or on a failed runtime check.
/// `debug_assert!` is deliberately absent — it vanishes in release
/// builds, so it documents invariants without a production panic path.
pub const PANIC_MACROS: [&str; 7] = [
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Keywords (and keyword-like idents) that can precede `(` without being
/// a call. Uppercase idents are excluded separately: `Some(x)`,
/// `Version(1)` are constructors, and this workspace's fns are
/// snake_case.
const NON_CALL_KEYWORDS: [&str; 21] = [
    "if", "while", "match", "for", "return", "loop", "in", "as", "move", "await", "else", "let",
    "mut", "ref", "where", "unsafe", "fn", "box", "dyn", "break", "continue",
];

/// One syntactic call site inside a `fn` body.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// The called name as written (`take_u32`, `lease`, ...).
    pub name: String,
    /// For free calls, the immediate `::` path segment before the name
    /// (`Mat` in `Mat::from_vec(...)`, `codec` in `codec::take_u32(...)`).
    pub qualifier: Option<String>,
    /// For free calls, the path starts with `std`, `core` or `alloc`
    /// (`std::path::absolute(...)`): the callee is outside the workspace.
    pub from_std: bool,
    /// `recv.name(...)` rather than `name(...)`.
    pub is_method: bool,
    /// Method call whose receiver is literally `self`.
    pub receiver_is_self: bool,
    pub line: usize,
    /// Token index of the name in the file's token stream.
    pub tok: usize,
}

/// One panic site inside a `fn` body.
#[derive(Clone, Debug)]
pub struct PanicSite {
    /// What panics, rendered for messages: `unwrap`, `assert_eq!`, ...
    pub what: String,
    pub line: usize,
}

/// One indexed `fn` item.
#[derive(Clone, Debug)]
pub struct FnSym {
    pub name: String,
    /// Self type when the fn sits in an `impl` block (last path segment:
    /// `WorkQueue` for `impl<T> WorkQueue<T>`, trait impls use the type
    /// after `for`).
    pub impl_type: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Inclusive token span of `fn ... { ... }`.
    pub start: usize,
    pub end: usize,
    /// Inside a `#[cfg(test)]` region or `#[test]` fn.
    pub is_test: bool,
    pub calls: Vec<CallSite>,
    pub panics: Vec<PanicSite>,
}

/// `impl` block regions: (self-type name, body token span).
fn impl_regions(toks: &[Token]) -> Vec<(String, usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !toks[i].is_ident("impl") {
            i += 1;
            continue;
        }
        // Scan the header to the body `{`, tracking generics depth; the
        // self type is the last path segment at depth 0, preferring the
        // segment after a top-level `for` (trait impls), stopping at
        // `where`.
        let mut j = i + 1;
        let mut angle = 0i32;
        let mut name: Option<String> = None;
        let mut name_after_for: Option<String> = None;
        let mut after_for = false;
        let mut in_where = false;
        while j < toks.len() {
            let t = &toks[j];
            if t.is_punct(";") || (t.is_punct("{") && angle <= 0) {
                break;
            }
            if t.is_punct("<") || t.is_punct("<<") {
                angle += if t.text == "<<" { 2 } else { 1 };
            } else if t.is_punct(">") || t.is_punct(">>") {
                angle -= if t.text == ">>" { 2 } else { 1 };
            } else if angle <= 0 && t.kind == TokenKind::Ident && !in_where {
                if t.is_ident("for") {
                    after_for = true;
                } else if t.is_ident("where") {
                    in_where = true;
                } else if after_for {
                    name_after_for = Some(t.text.clone());
                } else {
                    name = Some(t.text.clone());
                }
            }
            j += 1;
        }
        if j < toks.len() && toks[j].is_punct("{") {
            let end = matching_brace(toks, j);
            if let Some(n) = name_after_for.or(name) {
                out.push((n, j, end));
            }
            i = j + 1;
        } else {
            i = j + 1;
        }
    }
    out
}

/// Index of the `}` matching the `{` at `open` (or the last token).
fn matching_brace(toks: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return k;
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// Indexes every `fn` item in `file`. Test fns are kept (marked) so
/// callers can exclude them; tokens under a test mask never contribute
/// call or panic sites.
pub fn index_fns(file: &SourceFile) -> Vec<FnSym> {
    let toks = &file.tokens;
    let impls = impl_regions(toks);
    let mut syms: Vec<FnSym> = file
        .fn_spans
        .iter()
        .map(|s| {
            let impl_type = impls
                .iter()
                .filter(|(_, lo, hi)| *lo <= s.start && s.start <= *hi)
                .min_by_key(|(_, lo, hi)| hi - lo)
                .map(|(n, _, _)| n.clone());
            FnSym {
                name: s.name.clone(),
                impl_type,
                line: toks.get(s.start).map(|t| t.line).unwrap_or(1),
                start: s.start,
                end: s.end,
                is_test: file.test_mask.get(s.start).copied().unwrap_or(false),
                calls: Vec::new(),
                panics: Vec::new(),
            }
        })
        .collect();

    // Innermost-fn owner of every token, so a nested fn's body is
    // attributed to the nested fn, not the enclosing one.
    let mut owner: Vec<Option<usize>> = vec![None; toks.len()];
    for (si, s) in file.fn_spans.iter().enumerate() {
        let len = s.end - s.start;
        for slot in owner.iter_mut().take(s.end + 1).skip(s.start) {
            let tighter = match slot {
                Some(prev) => {
                    let p = &file.fn_spans[*prev];
                    len < p.end - p.start
                }
                None => true,
            };
            if tighter {
                *slot = Some(si);
            }
        }
    }

    for i in 0..toks.len() {
        let Some(o) = owner[i] else { continue };
        if file.test_mask[i] {
            continue;
        }
        let t = &toks[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let next_bang = matches!(toks.get(i + 1), Some(n) if n.is_punct("!"));
        let next_paren = matches!(toks.get(i + 1), Some(n) if n.is_punct("("));
        let prev_dot = i >= 1 && toks[i - 1].is_punct(".");

        // Panic sites (the `no-panic-in-hot-path` token patterns).
        let panic_method = PANIC_METHODS.iter().any(|m| t.is_ident(m)) && prev_dot && next_paren;
        let panic_macro = PANIC_MACROS.iter().any(|m| t.is_ident(m)) && next_bang;
        if panic_method || panic_macro {
            syms[o].panics.push(PanicSite {
                what: if panic_macro {
                    format!("{}!", t.text)
                } else {
                    t.text.clone()
                },
                line: t.line,
            });
            continue;
        }

        // Call sites.
        if !next_paren || next_bang {
            continue;
        }
        if NON_CALL_KEYWORDS.contains(&t.text.as_str()) {
            continue;
        }
        if t.text.chars().next().is_some_and(|c| c.is_uppercase()) {
            continue; // tuple-struct / enum-variant constructor
        }
        if i >= 1 && toks[i - 1].is_ident("fn") {
            continue; // the definition itself
        }
        if prev_dot {
            let receiver_is_self = i >= 2 && toks[i - 2].is_ident("self");
            syms[o].calls.push(CallSite {
                name: t.text.clone(),
                qualifier: None,
                from_std: false,
                is_method: true,
                receiver_is_self,
                line: t.line,
                tok: i,
            });
        } else {
            let qualifier = if i >= 2 && toks[i - 1].is_punct("::") {
                match &toks[i - 2] {
                    q if q.kind == TokenKind::Ident => Some(q.text.clone()),
                    _ => None,
                }
            } else {
                None
            };
            // Walk back over `seg::` pairs to the path's first segment.
            let mut root = i;
            while root >= 2
                && toks[root - 1].is_punct("::")
                && toks[root - 2].kind == TokenKind::Ident
            {
                root -= 2;
            }
            let from_std = root < i && ["std", "core", "alloc"].contains(&toks[root].text.as_str());
            syms[o].calls.push(CallSite {
                name: t.text.clone(),
                qualifier,
                from_std,
                is_method: false,
                receiver_is_self: false,
                line: t.line,
                tok: i,
            });
        }
    }
    syms
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index(src: &str) -> Vec<FnSym> {
        index_fns(&SourceFile::parse("x.rs", src))
    }

    #[test]
    fn impl_type_hint_covers_inherent_and_trait_impls() {
        let src = "
            struct WorkQueue<T> { x: T }
            impl<T: Clone> WorkQueue<T> { fn lease(&self) { helper(); } }
            impl<T> std::fmt::Debug for WorkQueue<T> {
                fn fmt(&self) { self.lease(); }
            }
            fn helper() {}
        ";
        let syms = index(src);
        let lease = syms.iter().find(|s| s.name == "lease").expect("lease");
        assert_eq!(lease.impl_type.as_deref(), Some("WorkQueue"));
        let fmt = syms.iter().find(|s| s.name == "fmt").expect("fmt");
        assert_eq!(fmt.impl_type.as_deref(), Some("WorkQueue"));
        assert!(fmt
            .calls
            .iter()
            .any(|c| c.name == "lease" && c.receiver_is_self));
        let helper = syms.iter().find(|s| s.name == "helper").expect("helper");
        assert_eq!(helper.impl_type, None);
    }

    #[test]
    fn calls_capture_qualifiers_and_skip_constructors() {
        let src = "
            fn go() {
                let m = Mat::from_vec(2, 2, data);
                let v = codec::take_u32(r);
                local();
                Some(3);
                let j = Job(1);
            }
        ";
        let syms = index(src);
        let go = &syms[0];
        let names: Vec<&str> = go.calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["from_vec", "take_u32", "local"]);
        assert_eq!(go.calls[0].qualifier.as_deref(), Some("Mat"));
        assert_eq!(go.calls[1].qualifier.as_deref(), Some("codec"));
        assert_eq!(go.calls[2].qualifier, None);
    }

    #[test]
    fn nested_fn_bodies_belong_to_the_inner_fn() {
        let src = "fn outer() { fn inner() { deep(); } shallow(); }";
        let syms = index(src);
        let outer = syms.iter().find(|s| s.name == "outer").expect("outer");
        let inner = syms.iter().find(|s| s.name == "inner").expect("inner");
        assert_eq!(
            outer.calls.iter().map(|c| &c.name).collect::<Vec<_>>(),
            vec!["shallow"]
        );
        assert_eq!(
            inner.calls.iter().map(|c| &c.name).collect::<Vec<_>>(),
            vec!["deep"]
        );
    }

    #[test]
    fn panic_sites_are_collected_but_not_in_test_fns_bodies() {
        let src = "
            fn hot(&self) { self.x.unwrap(); assert_eq!(a, b); debug_assert!(c); }
            #[cfg(test)]
            mod tests { fn t() { x.unwrap(); } }
        ";
        let syms = index(src);
        let hot = syms.iter().find(|s| s.name == "hot").expect("hot");
        let whats: Vec<&str> = hot.panics.iter().map(|p| p.what.as_str()).collect();
        assert_eq!(whats, vec!["unwrap", "assert_eq!"]);
        let t = syms.iter().find(|s| s.name == "t").expect("t");
        assert!(t.is_test);
        assert!(t.panics.is_empty());
    }
}
