//! `LINT_report.json` rendering.
//!
//! Hand-rolled JSON (the lint is dependency-free) with a hard guarantee:
//! the output is **byte-stable** — same tree in, same bytes out. No
//! timestamps, no host paths, every collection sorted before rendering.

use crate::rules::RULES;
use crate::{Outcome, VERSION};
use std::collections::BTreeMap;

/// JSON-escapes `s` into `out`.
fn esc(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Renders the full report. Violations, allows, the allowlist and the
/// unsafe inventory are all included; `summary.violations == 0` is the
/// machine-checkable "tree is clean" signal CI gates on.
pub fn render(outcome: &Outcome) -> String {
    let mut s = String::with_capacity(4096);
    s.push_str("{\n");
    s.push_str("  \"schema\": \"odalint-report/v3\",\n");
    s.push_str(&format!(
        "  \"tool\": {{\"name\": \"odalint\", \"version\": \"{VERSION}\"}},\n"
    ));
    s.push_str(&format!(
        "  \"summary\": {{\"files_scanned\": {}, \"violations\": {}, \"allowed\": {}, \
         \"unsafe_blocks\": {}}},\n",
        outcome.files_scanned,
        outcome.violations.len(),
        outcome.allowed.len(),
        outcome.unsafe_inventory.len()
    ));

    s.push_str("  \"rules\": [\n");
    for (i, r) in RULES.iter().enumerate() {
        s.push_str("    {\"id\": ");
        esc(r.id, &mut s);
        s.push_str(", \"description\": ");
        esc(r.description, &mut s);
        s.push_str(", \"scope\": ");
        esc(r.scope, &mut s);
        s.push('}');
        if i + 1 < RULES.len() {
            s.push(',');
        }
        s.push('\n');
    }
    s.push_str("  ],\n");

    s.push_str("  \"violations\": [\n");
    for (i, v) in outcome.violations.iter().enumerate() {
        s.push_str("    {\"rule\": ");
        esc(&v.rule, &mut s);
        s.push_str(", \"file\": ");
        esc(&v.file, &mut s);
        s.push_str(&format!(
            ", \"line\": {}, \"col\": {}, \"message\": ",
            v.line, v.col
        ));
        esc(&v.message, &mut s);
        s.push('}');
        if i + 1 < outcome.violations.len() {
            s.push(',');
        }
        s.push('\n');
    }
    s.push_str("  ],\n");

    // v3: allows are keyed by (file, rule, enclosing item, justification)
    // with a count, so an edit that only moves code leaves the report as
    // it was.
    let mut allowed: BTreeMap<(&str, &str, &str, &str), usize> = BTreeMap::new();
    for a in &outcome.allowed {
        *allowed
            .entry((&a.file, &a.rule, &a.item, &a.justification))
            .or_default() += 1;
    }
    s.push_str("  \"allowed\": [\n");
    for (i, ((file, rule, item, justification), count)) in allowed.iter().enumerate() {
        s.push_str("    {\"rule\": ");
        esc(rule, &mut s);
        s.push_str(", \"file\": ");
        esc(file, &mut s);
        s.push_str(", \"item\": ");
        esc(item, &mut s);
        s.push_str(&format!(", \"count\": {count}, \"justification\": "));
        esc(justification, &mut s);
        s.push('}');
        if i + 1 < allowed.len() {
            s.push(',');
        }
        s.push('\n');
    }
    s.push_str("  ],\n");

    s.push_str("  \"allowlist\": [\n");
    for (i, (e, used)) in outcome.allowlist_used.iter().enumerate() {
        s.push_str("    {\"rule\": ");
        esc(&e.rule, &mut s);
        s.push_str(", \"file\": ");
        esc(&e.file, &mut s);
        s.push_str(", \"justification\": ");
        esc(&e.justification, &mut s);
        s.push_str(&format!(", \"used\": {used}}}"));
        if i + 1 < outcome.allowlist_used.len() {
            s.push(',');
        }
        s.push('\n');
    }
    s.push_str("  ],\n");

    s.push_str("  \"unsafe_inventory\": [\n");
    for (i, u) in outcome.unsafe_inventory.iter().enumerate() {
        s.push_str("    {\"file\": ");
        esc(&u.file, &mut s);
        s.push_str(&format!(
            ", \"line\": {}, \"col\": {}, \"safety_comment\": {}}}",
            u.line, u.col, u.safety_comment
        ));
        if i + 1 < outcome.unsafe_inventory.len() {
            s.push(',');
        }
        s.push('\n');
    }
    s.push_str("  ],\n");

    // v2: the concurrency section — the interprocedural lock-order edge
    // list (the workspace's observed lock hierarchy) and the channel
    // inventory. Both are pre-sorted by the analysis for byte-stability.
    s.push_str("  \"concurrency\": {\n");
    s.push_str("    \"lock_order_edges\": [\n");
    let edges = &outcome.concurrency.lock_order_edges;
    for (i, e) in edges.iter().enumerate() {
        s.push_str("      {\"from\": ");
        esc(&e.from, &mut s);
        s.push_str(", \"to\": ");
        esc(&e.to, &mut s);
        s.push_str(", \"file\": ");
        esc(&e.file, &mut s);
        s.push_str(&format!(", \"line\": {}, \"via\": ", e.line));
        esc(&e.via, &mut s);
        s.push('}');
        if i + 1 < edges.len() {
            s.push(',');
        }
        s.push('\n');
    }
    s.push_str("    ],\n");
    s.push_str("    \"channels\": [\n");
    let chans = &outcome.concurrency.channels;
    for (i, c) in chans.iter().enumerate() {
        s.push_str("      {\"file\": ");
        esc(&c.file, &mut s);
        s.push_str(&format!(", \"line\": {}, \"ctor\": ", c.line));
        esc(&c.ctor, &mut s);
        s.push_str(&format!(", \"bounded\": {}, \"capacity\": ", c.bounded));
        match &c.capacity {
            Some(cap) => esc(cap, &mut s),
            None => s.push_str("null"),
        }
        s.push('}');
        if i + 1 < chans.len() {
            s.push(',');
        }
        s.push('\n');
    }
    s.push_str("    ]\n");
    s.push_str("  }\n");
    s.push_str("}\n");
    s
}
