//! `no-transitive-panic-in-hot-path` — the call-graph extension of
//! `no-panic-in-hot-path`: a serve/fleet/codec/stream entry point must
//! not *reach* a panic through its callees either.
//!
//! The textual rule sees `unwrap()` written inside a hot file; it is
//! blind to `Mat::from_vec`'s `assert_eq!` two crates away. This rule
//! walks resolved call edges from every fn in the hot-path entry files
//! to [`MAX_DEPTH`] hops and reports the full chain for every panic site
//! reached, anchored at the entry's first call edge so the finding sits
//! on actionable code.
//!
//! Conservatism inherits from the resolver ([`crate::callgraph`]):
//! unresolved calls (std, vendored, capped fan-out) are assumed clean
//! but counted, and method-name fan-out can attribute a callee the
//! runtime would never pick — the fix for a false chain is the same as
//! for a real one (a typed-error variant of the callee), and on this
//! tree every chain the rule has raised was real.
//!
//! Depth is bounded at 2 call edges: deep enough to see through one
//! helper layer (serve → snapshot → linalg), shallow enough that the
//! assert-dense numeric core (`gemm`, quantization) doesn't flood the
//! report with chains no request can actually drive. Panics *at* the
//! entry itself (depth 0) belong to the textual rule.

use crate::callgraph::Workspace;
use crate::rules::{Finding, WorkspaceRule};

/// Call-edge budget from an entry fn.
pub const MAX_DEPTH: usize = 2;

/// Exact hot-path entry files…
const ENTRY_FILES: [&str; 5] = [
    "crates/serve/src/server.rs",
    "crates/serve/src/wire.rs",
    "crates/corpus/src/codec.rs",
    "crates/stream/src/checkpoint.rs",
    "crates/stream/src/service.rs",
];

/// …plus everything the fleet's handler threads run.
fn is_entry_file(rel_path: &str) -> bool {
    ENTRY_FILES.contains(&rel_path) || rel_path.starts_with("crates/fleet/src/")
}

pub struct NoTransitivePanicInHotPath;

impl WorkspaceRule for NoTransitivePanicInHotPath {
    fn id(&self) -> &'static str {
        "no-transitive-panic-in-hot-path"
    }

    fn description(&self) -> &'static str {
        "hot-path entry points (serve, fleet, codec, stream checkpoint) must not \
         reach unwrap/expect/panic!/assert! through any callee within 2 call edges"
    }

    fn explain(&self) -> &'static str {
        "WHY: `no-panic-in-hot-path` is per-file, so a serve request that calls a \
         helper in core/linalg can still die on that helper's assert — same blast \
         radius (every tenant on the process), invisible to a textual scan. This \
         rule walks the workspace call graph from every fn in the hot entry files \
         (serve server/wire, corpus codec, all of fleet, stream checkpoint) \
         to 2 call edges and reports the full chain.\n\
         EXAMPLE: `run_batch` reaches `assert_eq!` at crates/linalg/src/mat.rs:60 \
         via run_batch -> from_vec\n\
         FIX: give the callee a fallible variant (e.g. `Mat::try_from_vec`) and \
         convert the chain head to a typed error, or validate before the call.\n\
         NOTE: unresolved calls (std, vendored, >8-way fan-out) are assumed clean \
         but counted in callgraph-stats; method fan-out may attribute a callee the \
         runtime never picks — the typed-error fix is right either way.\n\
         SUPPRESS: only for a chain proven dead (caller validates the exact \
         invariant the callee asserts); name the validation site."
    }

    fn check(&self, ws: &Workspace) -> Vec<Finding> {
        let g = &ws.graph;
        let mut findings = Vec::new();
        for entry in ws.node_ids() {
            if !is_entry_file(&g.nodes[entry].file) {
                continue;
            }
            for chain in g.panic_chains(entry, MAX_DEPTH) {
                let hops: Vec<String> = chain
                    .nodes
                    .iter()
                    .enumerate()
                    .map(|(k, &n)| {
                        if k == 0 {
                            g.nodes[n].display_name()
                        } else {
                            format!(
                                "{} ({}:{})",
                                g.nodes[n].display_name(),
                                g.nodes[n].file,
                                g.nodes[n].line
                            )
                        }
                    })
                    .collect();
                let last = *chain.nodes.last().unwrap_or(&entry);
                let message = format!(
                    "`{}` reaches panicking `{}` at {}:{} via {}; hot-path callees must \
                     return typed errors — add a fallible variant or validate before \
                     the call",
                    g.nodes[entry].display_name(),
                    chain.what,
                    g.nodes[last].file,
                    chain.panic_line,
                    hops.join(" -> "),
                );
                let file = &ws.files[g.nodes[entry].file_idx];
                let line = chain.lines.first().copied().unwrap_or(g.nodes[entry].line);
                findings.push(Finding::new(self.id(), file, line, message));
            }
        }
        findings
    }
}
