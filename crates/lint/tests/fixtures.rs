//! Fixture tests: every rule must fire on its known-bad fixture at the
//! expected span, the clean fixture must produce zero findings, the JSON
//! report must be byte-stable, and the real workspace must lint clean.

use lint::{lint_source, lint_workspace, parse_allowlist, report, Config};
use std::path::Path;

/// Digest-scope rel path (determinism + float rules apply).
const DIGEST: &str = "crates/core/src/fixture.rs";
/// Hot-path rel path (panic rules apply too — this is a real hot file
/// name from the workspace scope map).
const HOT: &str = "crates/telemetry/src/store.rs";

fn cfg() -> Config {
    Config::workspace_default()
}

/// (rule, line) pairs of every violation, for compact span asserts.
fn spans(rel: &str, src: &str) -> Vec<(String, u32)> {
    lint_source(rel, src, &cfg())
        .violations
        .iter()
        .map(|v| (v.rule.clone(), v.line))
        .collect()
}

#[test]
fn wall_clock_fires() {
    let got = spans(DIGEST, include_str!("fixtures/bad_wall_clock.rs"));
    assert_eq!(
        got,
        vec![("wall-clock".to_string(), 4), ("wall-clock".to_string(), 5)]
    );
}

#[test]
fn ambient_env_fires() {
    let got = spans(DIGEST, include_str!("fixtures/bad_ambient_env.rs"));
    assert_eq!(
        got,
        vec![
            ("ambient-env".to_string(), 3),
            ("ambient-env".to_string(), 6)
        ]
    );
}

#[test]
fn unseeded_rng_fires() {
    let got = spans(DIGEST, include_str!("fixtures/bad_unseeded_rng.rs"));
    assert_eq!(got, vec![("unseeded-rng".to_string(), 4)]);
}

#[test]
fn hash_iter_fires() {
    let got = spans(DIGEST, include_str!("fixtures/bad_hash_iter.rs"));
    assert!(
        got.iter().all(|(r, _)| r == "hash-iter") && got.iter().any(|&(_, l)| l == 4),
        "{got:?}"
    );
}

#[test]
fn panic_unwrap_fires_only_on_hot_paths() {
    let src = include_str!("fixtures/bad_panic_unwrap.rs");
    let got = spans(HOT, src);
    assert_eq!(
        got,
        vec![
            ("panic-unwrap".to_string(), 4),
            ("panic-unwrap".to_string(), 8)
        ]
    );
    // The same source off the hot path is clean.
    assert_eq!(spans(DIGEST, src), vec![]);
}

#[test]
fn panic_index_fires_with_column() {
    let out = lint_source(HOT, include_str!("fixtures/bad_panic_index.rs"), &cfg());
    assert_eq!(out.violations.len(), 1);
    let v = &out.violations[0];
    assert_eq!((v.rule.as_str(), v.line, v.col), ("panic-index", 4, 7));
}

#[test]
fn float_eq_fires() {
    let got = spans(DIGEST, include_str!("fixtures/bad_float_eq.rs"));
    assert_eq!(
        got,
        vec![("float-eq".to_string(), 4), ("float-eq".to_string(), 8)]
    );
}

#[test]
fn float_ord_fires() {
    let got = spans(DIGEST, include_str!("fixtures/bad_float_ord.rs"));
    assert_eq!(got, vec![("float-ord".to_string(), 4)]);
}

#[test]
fn unsafe_block_fires_and_inventories() {
    let out = lint_source(DIGEST, include_str!("fixtures/bad_unsafe.rs"), &cfg());
    assert_eq!(out.violations.len(), 1);
    assert_eq!(out.violations[0].rule, "unsafe-block");
    assert_eq!(out.violations[0].line, 4);
    assert_eq!(out.unsafe_inventory.len(), 1);
    assert!(!out.unsafe_inventory[0].safety_comment);
}

#[test]
fn deprecated_api_fires() {
    let got = spans(DIGEST, include_str!("fixtures/bad_deprecated_api.rs"));
    assert_eq!(got, vec![("deprecated-api".to_string(), 3)]);
}

#[test]
fn allow_hygiene_fires_on_malformed_and_stale() {
    let got = spans(DIGEST, include_str!("fixtures/bad_allow_hygiene.rs"));
    assert_eq!(
        got,
        vec![
            ("allow-hygiene".to_string(), 3),
            ("allow-hygiene".to_string(), 6)
        ]
    );
}

#[test]
fn lock_order_fires_with_both_witness_paths() {
    let out = lint_source(DIGEST, include_str!("fixtures/bad_lock_order.rs"), &cfg());
    assert_eq!(
        out.violations
            .iter()
            .map(|v| (v.rule.clone(), v.line))
            .collect::<Vec<_>>(),
        vec![("lock-order".to_string(), 13)]
    );
    // The report must name BOTH witness acquisition paths.
    let msg = &out.violations[0].message;
    assert!(msg.contains("Pair.a -> Pair.b"), "{msg}");
    assert!(msg.contains("Pair.b -> Pair.a"), "{msg}");
    assert!(msg.contains("Pair::forward -> Pair::reverse"), "{msg}");
    // Both directed edges land in the concurrency section.
    let dirs: Vec<(String, String)> = out
        .concurrency
        .lock_order_edges
        .iter()
        .map(|e| (e.from.clone(), e.to.clone()))
        .collect();
    assert!(dirs.contains(&("Pair.a".to_string(), "Pair.b".to_string())));
    assert!(dirs.contains(&("Pair.b".to_string(), "Pair.a".to_string())));
}

#[test]
fn lock_order_near_miss_consistent_hierarchy_is_clean() {
    let out = lint_source(DIGEST, include_str!("fixtures/clean_lock_order.rs"), &cfg());
    assert_eq!(out.violations.len(), 0, "{:?}", out.violations);
    // The acyclic hierarchy is still documented as edges.
    assert!(!out.concurrency.lock_order_edges.is_empty());
}

#[test]
fn guard_across_blocking_fires_on_bounded_send() {
    let got = spans(DIGEST, include_str!("fixtures/bad_guard_blocking.rs"));
    assert_eq!(got, vec![("guard-across-blocking".to_string(), 14)]);
}

#[test]
fn guard_across_blocking_near_miss_dropped_guard_is_clean() {
    let got = spans(DIGEST, include_str!("fixtures/clean_guard_blocking.rs"));
    assert_eq!(got, Vec::<(String, u32)>::new());
}

#[test]
fn channel_cycle_fires_on_bounded_feedback() {
    let out = lint_source(
        DIGEST,
        include_str!("fixtures/bad_channel_cycle.rs"),
        &cfg(),
    );
    assert_eq!(
        out.violations
            .iter()
            .map(|v| (v.rule.clone(), v.line))
            .collect::<Vec<_>>(),
        vec![("channel-cycle".to_string(), 12)]
    );
    // The channel inventory records the bounded ctor.
    assert_eq!(out.concurrency.channels.len(), 1);
    assert!(out.concurrency.channels[0].bounded);
    assert_eq!(out.concurrency.channels[0].capacity.as_deref(), Some("4"));
}

#[test]
fn channel_cycle_near_miss_unbounded_is_clean() {
    let out = lint_source(
        DIGEST,
        include_str!("fixtures/clean_channel_cycle.rs"),
        &cfg(),
    );
    assert_eq!(out.violations.len(), 0, "{:?}", out.violations);
    assert_eq!(out.concurrency.channels.len(), 1);
    assert!(!out.concurrency.channels[0].bounded);
}

#[test]
fn inline_allow_suppresses_concurrency_finding() {
    let src = include_str!("fixtures/bad_guard_blocking.rs").replace(
        "tx.send(*g).ok();",
        "tx.send(*g).ok(); // odalint: allow(guard-across-blocking) -- fixture exercises the escape hatch",
    );
    let out = lint_source(DIGEST, &src, &cfg());
    assert_eq!(out.violations.len(), 0, "{:?}", out.violations);
    assert_eq!(out.allowed.len(), 1);
    assert_eq!(out.allowed[0].rule, "guard-across-blocking");
}

/// Regression: a well-formed allow of a *new* (v2) rule that suppresses
/// nothing must be flagged stale, exactly like the v1 rules.
#[test]
fn stale_allow_of_concurrency_rule_is_flagged() {
    let src =
        "//! doc\n// odalint: allow(lock-order) -- left over after a refactor\npub fn ok() {}\n";
    let got = spans(DIGEST, src);
    assert_eq!(got, vec![("allow-hygiene".to_string(), 2)]);
}

#[test]
fn forbid_unsafe_fires_per_crate_in_fixture_tree() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws");
    let mut cfg = cfg();
    cfg.skip_prefixes.clear();
    let out = lint_workspace(&root, &cfg).expect("fixture tree lints");
    let got: Vec<(String, String, u32)> = out
        .violations
        .iter()
        .map(|v| (v.rule.clone(), v.file.clone(), v.line))
        .collect();
    assert_eq!(
        got,
        vec![(
            "forbid-unsafe".to_string(),
            "missing/src/lib.rs".to_string(),
            1
        )]
    );
    // The audited unsafe crate contributes an inventory entry with a
    // SAFETY comment and no violation.
    assert_eq!(out.unsafe_inventory.len(), 1);
    assert!(out.unsafe_inventory[0].safety_comment);
}

#[test]
fn clean_fixture_has_zero_findings_even_on_hot_digest_path() {
    let src = include_str!("fixtures/clean.rs");
    let out = lint_source(HOT, src, &cfg());
    assert_eq!(
        out.violations
            .iter()
            .map(|v| format!("{}:{}:{} {}", v.file, v.line, v.col, v.rule))
            .collect::<Vec<_>>(),
        Vec::<String>::new()
    );
    // Exactly the one justified allow fired.
    assert_eq!(out.allowed.len(), 1);
    assert_eq!(out.allowed[0].rule, "panic-unwrap");
}

/// The report keys a suppressed finding by its enclosing item, with a
/// count, so moving code inside a file leaves the report as it was.
#[test]
fn report_keys_allows_by_enclosing_item_not_line() {
    let src = "//! doc\n\
               pub struct Ring { buf: Vec<u64> }\n\
               impl Ring {\n\
               pub fn pick(&self, i: usize) -> u64 {\n\
               // odalint: allow(panic-index) -- i is reduced modulo the length\n\
               self.buf[i % self.buf.len()]\n\
               }\n\
               }\n\
               pub fn first(v: &[u64]) -> u64 {\n\
               v[0] // odalint: allow(panic-index) -- callers pass non-empty slices\n\
               }\n";
    let out = lint_source(HOT, src, &cfg());
    assert_eq!(out.violations.len(), 0, "{:?}", out.violations);
    let items: Vec<&str> = out.allowed.iter().map(|a| a.item.as_str()).collect();
    assert_eq!(items, ["Ring::pick", "first"]);
    let report = report::render(&out);
    let moved = report::render(&lint_source(
        HOT,
        &src.replace("//! doc\n", "//! doc\n\n\n"),
        &cfg(),
    ));
    assert_eq!(report, moved, "moving code must not rewrite the report");
    assert!(report.contains("\"item\": \"Ring::pick\", \"count\": 1"));
}

#[test]
fn every_rule_has_a_firing_fixture() {
    let mut fired: Vec<String> = Vec::new();
    for (rel, src) in [
        (DIGEST, include_str!("fixtures/bad_wall_clock.rs")),
        (DIGEST, include_str!("fixtures/bad_ambient_env.rs")),
        (DIGEST, include_str!("fixtures/bad_unseeded_rng.rs")),
        (DIGEST, include_str!("fixtures/bad_hash_iter.rs")),
        (HOT, include_str!("fixtures/bad_panic_unwrap.rs")),
        (HOT, include_str!("fixtures/bad_panic_index.rs")),
        (DIGEST, include_str!("fixtures/bad_float_eq.rs")),
        (DIGEST, include_str!("fixtures/bad_float_ord.rs")),
        (DIGEST, include_str!("fixtures/bad_unsafe.rs")),
        (DIGEST, include_str!("fixtures/bad_deprecated_api.rs")),
        (DIGEST, include_str!("fixtures/bad_allow_hygiene.rs")),
        (DIGEST, include_str!("fixtures/bad_lock_order.rs")),
        (DIGEST, include_str!("fixtures/bad_guard_blocking.rs")),
        (DIGEST, include_str!("fixtures/bad_channel_cycle.rs")),
    ] {
        for v in lint_source(rel, src, &cfg()).violations {
            if !fired.contains(&v.rule) {
                fired.push(v.rule);
            }
        }
    }
    // forbid-unsafe fires via the fixture tree test.
    fired.push("forbid-unsafe".to_string());
    let missing: Vec<&str> = lint::rules::RULES
        .iter()
        .map(|r| r.id)
        .filter(|id| !fired.iter().any(|f| f == id))
        .collect();
    assert_eq!(missing, Vec::<&str>::new(), "rules without fixtures");
}

#[test]
fn report_is_byte_stable() {
    let src = include_str!("fixtures/bad_wall_clock.rs");
    let a = report::render(&lint_source(DIGEST, src, &cfg()));
    let b = report::render(&lint_source(DIGEST, src, &cfg()));
    assert_eq!(a, b, "same input must render identical bytes");
    assert!(a.contains("\"schema\": \"odalint-report/v3\""));
    assert!(a.contains("\"concurrency\""));
    assert!(a.ends_with('\n'));
}

/// The v2 concurrency section itself must be byte-stable: render a
/// fixture that populates both edges and channels, twice.
#[test]
fn v2_concurrency_section_is_byte_stable() {
    let files = [
        (
            "crates/core/src/a.rs",
            include_str!("fixtures/bad_lock_order.rs"),
        ),
        (
            "crates/core/src/b.rs",
            include_str!("fixtures/bad_channel_cycle.rs"),
        ),
    ];
    let a = report::render(&lint::lint_sources(&files, &cfg()));
    let b = report::render(&lint::lint_sources(&files, &cfg()));
    assert_eq!(a, b);
    assert!(a.contains("\"lock_order_edges\""));
    assert!(a.contains("\"channels\""));
    assert!(a.contains("\"bounded\": true"));
}

/// Smoke check for the CI gate: appending a single new violating line to
/// otherwise-clean digest-scope source must flip the outcome to failing,
/// which is exactly what makes `ci.sh` exit nonzero.
#[test]
fn deliberate_violation_trips_the_gate() {
    let clean = include_str!("fixtures/clean.rs");
    let out = lint_source(HOT, clean, &cfg());
    assert!(out.violations.is_empty());
    let sabotaged =
        format!("{clean}\npub fn sneak() -> std::time::Instant {{ std::time::Instant::now() }}\n");
    let out = lint_source(HOT, &sabotaged, &cfg());
    assert_eq!(out.violations.len(), 1);
    assert_eq!(out.violations[0].rule, "wall-clock");
}

/// The committed workspace must lint clean with the committed allowlist —
/// the same invariant `ci.sh` enforces, kept inside `cargo test` so a
/// violation fails the ordinary test run too.
#[test]
fn workspace_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let mut cfg = Config::workspace_default();
    let allow = root.join(lint::ALLOWLIST_FILE);
    if let Ok(content) = std::fs::read_to_string(&allow) {
        cfg.allowlist = parse_allowlist(&content).expect("allowlist parses");
    }
    let out = lint_workspace(&root, &cfg).expect("workspace lints");
    let rendered: Vec<String> = out
        .violations
        .iter()
        .map(|v| format!("{}:{}:{}: {}: {}", v.file, v.line, v.col, v.rule, v.message))
        .collect();
    assert_eq!(rendered, Vec::<String>::new(), "workspace must lint clean");
    // The v2 concurrency section must be *populated* on the real tree:
    // the coordinator's failover path creates a real lock-order edge and
    // the shard command queue is a real bounded channel.
    assert!(
        !out.concurrency.lock_order_edges.is_empty(),
        "expected at least one lock-order edge"
    );
    assert!(
        out.concurrency
            .channels
            .iter()
            .any(|c| c.bounded && c.file.starts_with("crates/telemetry/src/cluster/")),
        "expected a bounded channel from cluster/: {:?}",
        out.concurrency.channels
    );
}
