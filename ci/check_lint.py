#!/usr/bin/env python3
"""Schema gate for the odalint report.

Usage: check_lint.py LINT_report.json

`odalint` already exits nonzero on violations; this script is the second
half of the CI stage: it proves the report the run produced is the
well-formed `odalint-report/v3` document downstream tooling consumes, and
re-asserts the clean invariant from the report itself (defence in depth if
the exit code is ever swallowed by a pipeline).

v2 added the `concurrency` section (lock-order graph + channel inventory)
produced by the cross-procedural analysis; a v1 report here means the
concurrency pass silently stopped running, which this gate treats as a
hard regression. v3 keys each `allowed` entry by file, rule, enclosing
item and justification, with the count of findings it suppresses, in
place of one entry per suppressed line: moving code no longer rewrites
the report, only adding or removing an allow does.
"""

import json
import sys

SCHEMA = "odalint-report/v3"

VIOLATION_KEYS = {"rule", "file", "line", "col", "message"}
ALLOWED_KEYS = {"rule", "file", "item", "count", "justification"}
INVENTORY_KEYS = {"file", "line", "col", "safety_comment"}
SUMMARY_KEYS = {"files_scanned", "violations", "allowed", "unsafe_blocks"}
EDGE_KEYS = {"from", "to", "file", "line", "via"}
CHANNEL_KEYS = {"file", "line", "ctor", "bounded", "capacity"}


def fail(msg):
    print(f"check_lint: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_concurrency(report):
    conc = report["concurrency"]
    if set(conc) != {"lock_order_edges", "channels"}:
        fail(f"concurrency keys {sorted(conc)} != "
             "['channels', 'lock_order_edges']")

    edges = conc["lock_order_edges"]
    for entry in edges:
        if set(entry) != EDGE_KEYS:
            fail(f"lock_order_edges entry keys {sorted(entry)} != "
                 f"{sorted(EDGE_KEYS)}")
    keys = [(e["from"], e["to"]) for e in edges]
    if keys != sorted(keys):
        fail("lock_order_edges are not sorted by (from, to); "
             "the report is not canonical")
    if len(keys) != len(set(keys)):
        fail("duplicate (from, to) pair in lock_order_edges")

    channels = conc["channels"]
    for entry in channels:
        if set(entry) != CHANNEL_KEYS:
            fail(f"channels entry keys {sorted(entry)} != "
                 f"{sorted(CHANNEL_KEYS)}")
    # The workspace genuinely creates channels (cluster shard mailboxes,
    # serving fan-out); an empty inventory means the channel scan broke,
    # not that the channels went away.
    if not channels:
        fail("channel inventory is empty: the channel-topology scan "
             "found nothing in a workspace known to create channels")
    return len(edges), len(channels)


def check_allowed(allowed, total):
    keys = [(a["file"], a["rule"], a["item"], a["justification"])
            for a in allowed]
    if keys != sorted(keys):
        fail("allowed entries are not sorted by (file, rule, item, "
             "justification); the report is not canonical")
    if len(keys) != len(set(keys)):
        fail("duplicate (file, rule, item, justification) in allowed")
    for a in allowed:
        if not isinstance(a["count"], int) or a["count"] < 1:
            fail(f"allowed entry {a['file']} {a['rule']} {a['item']} has "
                 f"count {a['count']!r}; every entry suppresses >= 1 finding")
    if sum(a["count"] for a in allowed) != total:
        fail("summary.allowed disagrees with the allowed counts")


def main():
    if len(sys.argv) != 2:
        fail("usage: check_lint.py LINT_report.json")
    try:
        with open(sys.argv[1]) as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot parse {sys.argv[1]}: {e}")

    schema = report.get("schema")
    if schema == "odalint-report/v1":
        fail("report regressed to odalint-report/v1: the concurrency "
             "analysis did not run")
    if schema == "odalint-report/v2":
        fail("report is odalint-report/v2: allows are keyed by line, "
             "not by enclosing item; regenerate it with odalint")
    if schema != SCHEMA:
        fail(f"schema is {schema!r}, expected {SCHEMA!r}")
    for key in ("tool", "summary", "rules", "violations", "allowed",
                "allowlist", "unsafe_inventory", "concurrency"):
        if key not in report:
            fail(f"missing top-level key {key!r}")

    summary = report["summary"]
    if set(summary) != SUMMARY_KEYS:
        fail(f"summary keys {sorted(summary)} != {sorted(SUMMARY_KEYS)}")
    for section, keys in (("violations", VIOLATION_KEYS),
                          ("allowed", ALLOWED_KEYS),
                          ("unsafe_inventory", INVENTORY_KEYS)):
        for entry in report[section]:
            if set(entry) != keys:
                fail(f"{section} entry keys {sorted(entry)} != {sorted(keys)}")
    if summary["violations"] != len(report["violations"]):
        fail("summary.violations disagrees with the violations list")
    check_allowed(report["allowed"], summary["allowed"])
    if not report["rules"]:
        fail("empty rule catalogue")
    edge_count, channel_count = check_concurrency(report)

    if summary["violations"] != 0:
        for v in report["violations"]:
            print(f"  {v['file']}:{v['line']}:{v['col']}: {v['rule']}: "
                  f"{v['message']}", file=sys.stderr)
        fail(f"{summary['violations']} unallowed violation(s)")

    print(f"check_lint: OK ({summary['files_scanned']} files, "
          f"{summary['allowed']} allowed, "
          f"{summary['unsafe_blocks']} unsafe block(s), "
          f"{edge_count} lock-order edge(s), "
          f"{channel_count} channel(s))")


if __name__ == "__main__":
    main()
