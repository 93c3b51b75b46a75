//! Unit tests for the symbol index + call graph: resolution policy,
//! cycle tolerance, fan-out, and unresolved-call conservatism.

use embedstab_lint::callgraph::{CallGraph, FAN_OUT_CAP};
use embedstab_lint::source::SourceFile;

fn graph(sources: &[(&str, &str)]) -> CallGraph {
    let files: Vec<SourceFile> = sources
        .iter()
        .map(|(rel, src)| SourceFile::parse(rel, src))
        .collect();
    CallGraph::build(&files)
}

fn node(g: &CallGraph, display: &str) -> usize {
    g.nodes
        .iter()
        .position(|n| n.display_name() == display)
        .unwrap_or_else(|| {
            panic!(
                "no node `{display}` in {:?}",
                g.nodes.iter().map(|n| n.display_name()).collect::<Vec<_>>()
            )
        })
}

fn targets(g: &CallGraph, from: usize) -> Vec<String> {
    let mut v: Vec<String> = g.edges[from]
        .iter()
        .map(|e| g.nodes[e.to].display_name())
        .collect();
    v.sort();
    v.dedup();
    v
}

#[test]
fn recursion_and_mutual_cycles_terminate() {
    let g = graph(&[(
        "crates/demo/src/lib.rs",
        "pub fn ping(n: u32) -> u32 { pong(n) }\n\
         pub fn pong(n: u32) -> u32 { if n == 0 { boom() } else { ping(n - 1) } }\n\
         pub fn boom() -> u32 { panic!(\"end\") }\n",
    )]);
    // The ping <-> pong cycle must not hang the walk, and the panic in
    // `boom` is still found through it.
    let chains = g.panic_chains(node(&g, "ping"), 4);
    assert!(
        chains.iter().any(|c| c.what == "panic!"),
        "panic through the cycle must be reachable: {chains:?}"
    );
    // Depth 1 from `ping` only reaches `pong` — no panic yet.
    assert!(g.panic_chains(node(&g, "ping"), 1).is_empty());
}

#[test]
fn method_calls_fan_out_and_self_narrows() {
    let g = graph(&[(
        "crates/demo/src/lib.rs",
        "struct A; struct B;\n\
         impl A { fn emit(&self) {} fn go(&self) { self.emit(); } }\n\
         impl B { fn emit(&self) {} }\n\
         pub fn blast(a: &A) { a.emit(); }\n",
    )]);
    // `self.emit()` inside `impl A` resolves to A::emit only.
    assert_eq!(targets(&g, node(&g, "A::go")), vec!["A::emit".to_string()]);
    // `a.emit()` from a free fn fans out to every `emit` method.
    assert_eq!(
        targets(&g, node(&g, "blast")),
        vec!["A::emit".to_string(), "B::emit".to_string()]
    );
}

#[test]
fn unknown_and_std_colliding_calls_are_unresolved_not_edges() {
    let g = graph(&[(
        "crates/demo/src/lib.rs",
        "struct SparseMatrix;\n\
         impl SparseMatrix { fn push(&mut self, v: u32) { assert!(v > 0); } }\n\
         pub fn encode(out: &mut Vec<u8>) {\n\
             out.push(1);\n\
             std::mem::forget(());\n\
         }\n",
    )]);
    let enc = node(&g, "encode");
    // Neither `out.push(1)` (std-colliding name, receiver not narrowed)
    // nor `std::mem::forget` (not in the workspace) may create an edge:
    // both are recorded as unresolved instead.
    assert!(targets(&g, enc).is_empty(), "got {:?}", targets(&g, enc));
    assert!(g.stats.unresolved_calls >= 2, "stats: {:?}", g.stats);
    // And so `encode` must NOT appear to reach the assert in
    // SparseMatrix::push — the exact false chain the deny-list prevents.
    assert!(g.panic_chains(enc, 3).is_empty());
}

#[test]
fn std_rooted_paths_stay_unresolved() {
    // Workspace free fns that share names with std's: a path through
    // `std::`, `core::` or `alloc::` must never reach them, even when no
    // file matches the path's module.
    let g = graph(&[
        (
            "crates/demo/src/bin/tool.rs",
            "fn absolute(p: &str) -> String { panic!(\"{p}\") }\n\
             fn forget(x: u32) { assert!(x > 0); }\n\
             fn format(x: u32) -> u32 { x.checked_add(1).unwrap() }\n",
        ),
        (
            "crates/demo/src/lib.rs",
            "pub fn run(p: &std::path::Path) {\n\
                 let _ = std::path::absolute(p);\n\
                 let _ = ::std::path::absolute(p);\n\
                 core::mem::forget(1u32);\n\
                 let _ = alloc::fmt::format(format_args!(\"x\"));\n\
             }\n",
        ),
    ]);
    let run = node(&g, "run");
    assert!(targets(&g, run).is_empty(), "got {:?}", targets(&g, run));
    assert!(g.stats.unresolved_calls >= 4, "stats: {:?}", g.stats);
    assert!(g.panic_chains(run, 3).is_empty());
}

#[test]
fn self_receiver_resolves_std_colliding_names() {
    let g = graph(&[(
        "crates/demo/src/lib.rs",
        "struct Rows;\n\
         impl Rows {\n\
             fn push(&mut self, v: u32) { assert!(v > 0); }\n\
             fn add(&mut self, v: u32) { self.push(v); }\n\
         }\n",
    )]);
    // `self.push(..)` has a narrowed receiver, so the deny-list does not
    // apply and the edge lands on this impl's own method.
    assert_eq!(
        targets(&g, node(&g, "Rows::add")),
        vec!["Rows::push".to_string()]
    );
}

#[test]
fn fan_out_beyond_cap_is_unresolved() {
    let mut src = String::new();
    for i in 0..=FAN_OUT_CAP {
        src.push_str(&format!(
            "struct T{i}; impl T{i} {{ fn lease(&self) {{ panic!(\"x\") }} }}\n"
        ));
    }
    src.push_str("pub fn entry(x: &T0) { x.lease(); }\n");
    let g = graph(&[("crates/demo/src/lib.rs", &src)]);
    let entry = node(&g, "entry");
    // FAN_OUT_CAP + 1 candidates: the call is recorded unresolved rather
    // than spraying edges into every impl.
    assert!(targets(&g, entry).is_empty());
    assert!(g.panic_chains(entry, 2).is_empty());
    assert!(g.stats.unresolved_calls >= 1);
}

#[test]
fn cross_file_free_fns_resolve_and_tests_are_excluded() {
    let g = graph(&[
        (
            "crates/serve/src/server.rs",
            "pub fn entry(raw: &[u8]) -> u32 { helper(raw) }\n",
        ),
        (
            "crates/demo/src/helpers.rs",
            "pub fn helper(raw: &[u8]) -> u32 { raw.len() as u32 }\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 #[test]\n\
                 fn t() { super::helper(&[]).to_string(); }\n\
             }\n",
        ),
    ]);
    assert_eq!(
        targets(&g, node(&g, "entry")),
        vec!["helper".to_string()],
        "free calls resolve across files"
    );
    // The #[cfg(test)] fn never enters the index.
    assert!(g.nodes.iter().all(|n| n.name != "t"));
}

#[test]
fn stats_json_is_well_formed() {
    let g = graph(&[(
        "crates/demo/src/lib.rs",
        "pub fn a() { b(); unknowable(); }\npub fn b() {}\n",
    )]);
    let json = g.stats.render_json();
    for key in [
        "\"functions\":2",
        "\"calls\":2",
        "\"edges\":1",
        "\"unresolved_calls\":1",
        "\"unresolved_ratio\":0.5000",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
}
