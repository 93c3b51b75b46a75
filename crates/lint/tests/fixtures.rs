//! True-positive / clean fixture pairs for every rule.
//!
//! Each `*_bad.rs` fixture must trip exactly its rule and each
//! `*_clean.rs` counterpart must lint empty. Fixtures live under
//! `tests/fixtures/`, which the repo walker skips by directory name, so
//! the intentionally-bad files never pollute the real tree's scan; here
//! they are linted in-memory under synthetic workspace paths so the
//! path-scoped rules engage exactly as they would on disk.

use embedstab_lint::{lint_source, lint_sources};

/// Rule ids raised for `src` linted under `path`.
fn rules_hit(path: &str, src: &str) -> Vec<String> {
    lint_source(path, src).into_iter().map(|f| f.rule).collect()
}

fn assert_clean(path: &str, src: &str) {
    let findings = lint_source(path, src);
    assert!(findings.is_empty(), "expected clean, got: {findings:#?}");
}

#[test]
fn float_sort_bad_is_flagged() {
    let hits = rules_hit(
        "crates/demo/src/lib.rs",
        include_str!("fixtures/float_sort_bad.rs"),
    );
    assert_eq!(
        hits.iter()
            .filter(|r| *r == "float-sort-total-order")
            .count(),
        2,
        "both the sort_by and the max_by comparator must be flagged: {hits:?}"
    );
}

#[test]
fn float_sort_clean_passes() {
    assert_clean(
        "crates/demo/src/lib.rs",
        include_str!("fixtures/float_sort_clean.rs"),
    );
}

#[test]
fn hash_order_bad_is_flagged() {
    let hits = rules_hit(
        "crates/demo/src/lib.rs",
        include_str!("fixtures/hash_order_bad.rs"),
    );
    assert!(
        hits.contains(&"hash-order-float-sum".to_string()),
        "float accumulation in hash order must be flagged: {hits:?}"
    );
}

#[test]
fn hash_order_clean_passes() {
    assert_clean(
        "crates/demo/src/lib.rs",
        include_str!("fixtures/hash_order_clean.rs"),
    );
}

#[test]
fn unsafe_bad_is_flagged() {
    let hits = rules_hit(
        "crates/demo/src/lib.rs",
        include_str!("fixtures/unsafe_bad.rs"),
    );
    assert!(
        hits.contains(&"unsafe-needs-safety-comment".to_string()),
        "undocumented unsafe must be flagged: {hits:?}"
    );
}

#[test]
fn unsafe_clean_passes() {
    // Covers both forms: a `// SAFETY:` comment within the window and a
    // long `# Safety` doc section further above the keyword.
    assert_clean(
        "crates/demo/src/lib.rs",
        include_str!("fixtures/unsafe_clean.rs"),
    );
}

#[test]
fn panic_bad_is_flagged_in_hot_paths() {
    let src = include_str!("fixtures/panic_bad.rs");
    let hits = rules_hit("crates/serve/src/fixture.rs", src);
    assert_eq!(
        hits.iter().filter(|r| *r == "no-panic-in-hot-path").count(),
        6,
        "unwrap, expect, panic!, assert!, assert_eq!, and assert_ne! must \
         each be flagged: {hits:?}"
    );
    // The same source outside a hot path is not the rule's business.
    assert_clean("crates/demo/src/lib.rs", src);
}

#[test]
fn panic_rule_covers_fleet_sources() {
    // The fleet's request paths are peer-controlled bytes from other
    // machines; the hot-path rule must engage there like it does in serve.
    let src = include_str!("fixtures/panic_bad.rs");
    let hits = rules_hit("crates/fleet/src/worker.rs", src);
    assert_eq!(
        hits.iter().filter(|r| *r == "no-panic-in-hot-path").count(),
        6,
        "fleet sources must be in the hot-path rule's scope: {hits:?}"
    );
}

#[test]
fn panic_clean_passes() {
    // Includes a #[cfg(test)] module with an unwrap: tests are exempt.
    assert_clean(
        "crates/serve/src/fixture.rs",
        include_str!("fixtures/panic_clean.rs"),
    );
}

#[test]
fn wallclock_bad_is_flagged_in_cache_paths() {
    let src = include_str!("fixtures/wallclock_bad.rs");
    let hits = rules_hit("crates/demo/src/cache.rs", src);
    assert!(
        hits.contains(&"no-wallclock-in-fingerprint".to_string()),
        "SystemTime::now in a cache module must be flagged: {hits:?}"
    );
    // Outside cache/codec/fingerprint modules the clock is allowed.
    assert_clean("crates/demo/src/server.rs", src);
}

#[test]
fn wallclock_rule_covers_fleet_sources() {
    // Fleet lease/retry scheduling takes injected time; a clock read
    // anywhere in the crate (not just cache-named files) must be flagged.
    let src = include_str!("fixtures/wallclock_bad.rs");
    let hits = rules_hit("crates/fleet/src/queue.rs", src);
    assert!(
        hits.contains(&"no-wallclock-in-fingerprint".to_string()),
        "fleet sources must be in the wallclock rule's scope: {hits:?}"
    );
}

#[test]
fn wallclock_clean_passes() {
    assert_clean(
        "crates/demo/src/cache.rs",
        include_str!("fixtures/wallclock_clean.rs"),
    );
}

#[test]
fn cast_bad_is_flagged_in_codec_encoders() {
    let src = include_str!("fixtures/cast_bad.rs");
    let hits = rules_hit("crates/corpus/src/codec.rs", src);
    assert!(
        hits.contains(&"no-truncating-cast-in-codec".to_string()),
        "unchecked narrowing cast in an encoder must be flagged: {hits:?}"
    );
    // The rule is scoped to the codec/cache file family.
    assert_clean("crates/demo/src/lib.rs", src);
}

#[test]
fn cast_clean_passes() {
    // try_from, debug_assert-guarded cast, and a non-encoder cast.
    assert_clean(
        "crates/corpus/src/codec.rs",
        include_str!("fixtures/cast_clean.rs"),
    );
}

#[test]
fn transitive_panic_bad_reports_full_two_hop_chain() {
    // The entry lives in a hot-path file, the panic two call edges away
    // in a file no textual rule covers: only the call graph connects them.
    let findings = lint_sources(&[
        (
            "crates/serve/src/server.rs",
            include_str!("fixtures/transitive_bad_entry.rs"),
        ),
        (
            "crates/demo/src/helpers.rs",
            include_str!("fixtures/transitive_bad_helpers.rs"),
        ),
    ]);
    let chains: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "no-transitive-panic-in-hot-path")
        .collect();
    assert_eq!(chains.len(), 1, "exactly one chain expected: {findings:#?}");
    let f = chains[0];
    assert_eq!(
        f.path, "crates/serve/src/server.rs",
        "anchored at the entry"
    );
    for hop in ["handle_query", "mid_step", "deep_parse", "unwrap"] {
        assert!(
            f.message.contains(hop),
            "chain must name `{hop}`: {}",
            f.message
        );
    }
    assert_eq!(
        findings.len(),
        1,
        "no other rule may fire on this pair: {findings:#?}"
    );
}

#[test]
fn transitive_panic_clean_passes() {
    let findings = lint_sources(&[
        (
            "crates/serve/src/server.rs",
            include_str!("fixtures/transitive_clean_entry.rs"),
        ),
        (
            "crates/demo/src/helpers.rs",
            include_str!("fixtures/transitive_clean_helpers.rs"),
        ),
    ]);
    assert!(findings.is_empty(), "expected clean, got: {findings:#?}");
}

#[test]
fn lock_order_bad_flags_inversion_self_deadlock_and_io() {
    let hits = lint_source(
        "crates/demo/src/lib.rs",
        include_str!("fixtures/lock_order_bad.rs"),
    );
    assert!(
        hits.iter().all(|f| f.rule == "lock-order"),
        "only lock-order may fire: {hits:#?}"
    );
    let messages: Vec<&str> = hits.iter().map(|f| f.message.as_str()).collect();
    assert_eq!(
        messages
            .iter()
            .filter(|m| m.contains("lock-order hazard"))
            .count(),
        2,
        "both halves of the AB/BA inversion must be named: {messages:#?}"
    );
    assert!(
        messages.iter().any(|m| m.contains("self-deadlocks")),
        "double acquisition of `queue` must be flagged: {messages:#?}"
    );
    assert!(
        messages
            .iter()
            .any(|m| m.contains("blocking IO `eprintln!`")),
        "console IO under a guard must be flagged: {messages:#?}"
    );
}

/// A guard held across the shared wire exchange (`serve::wire::call`, the
/// one client round trip both protocols use) is blocking network IO.
#[test]
fn lock_order_flags_a_guard_held_across_the_wire_exchange() {
    let src = r#"
use parking_lot::Mutex;

pub struct Shared {
    pub queue: Mutex<Vec<u32>>,
}

pub fn pinned(s: &Shared, stream: &mut std::net::TcpStream, req: &Request) {
    let q = s.queue.lock();
    let _ = wire::call(stream, req);
    drop(q);
}
"#;
    let hits = lint_source("crates/demo/src/lib.rs", src);
    assert!(
        hits.iter()
            .any(|f| f.rule == "lock-order" && f.message.contains("blocking IO `call(..)`")),
        "a guard across `call` must be flagged: {hits:#?}"
    );
}

#[test]
fn lock_order_clean_passes() {
    // One blessed order everywhere, plus an `if`-condition temporary
    // (which drops before the body) followed by IO and a second lock.
    assert_clean(
        "crates/demo/src/lib.rs",
        include_str!("fixtures/lock_order_clean.rs"),
    );
}

#[test]
fn alloc_check_bad_flags_unchecked_decoder_allocations() {
    let hits = rules_hit(
        "crates/demo/src/codec.rs",
        include_str!("fixtures/alloc_check_bad.rs"),
    );
    assert_eq!(
        hits.iter()
            .filter(|r| *r == "alloc-before-length-check")
            .count(),
        2,
        "both the with_capacity and the vec![0; n] site must be flagged: {hits:?}"
    );
}

#[test]
fn alloc_check_clean_passes() {
    // MAX comparison, in-argument `.min` clamp, and a literal capacity.
    assert_clean(
        "crates/demo/src/codec.rs",
        include_str!("fixtures/alloc_check_clean.rs"),
    );
}
