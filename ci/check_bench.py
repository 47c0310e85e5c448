#!/usr/bin/env python3
"""Scale-bench regression gate: compare a fresh BENCH_scale.json against its
committed baseline and fail on structural violations or a catastrophic
slowdown.

Usage: check_bench.py CURRENT.json BASELINE.json

Structural invariants are absolute — they fail regardless of what the
baseline recorded:

* every worker count produced bit-identical output (`outputs_equal`);
* each worker count's output digest equals the baseline's for the same
  sweep (same `caps` and `passes`);
* a w-worker pass costs at most FANOUT_OVERHEAD_X the serial pass.

Pass latencies scale with the runner, so they only gate on *catastrophic*
regressions (CATASTROPHIC_X worse than baseline). Speed-up is informational:
the synthetic capabilities are CPU-bound, so it is capped by
`host_parallelism` and by whoever else is using the runner.

Every other timing is owned by the end-to-end benchmark (`benchmark/`),
which measures in alternating parent/change pairs.
"""

import json
import sys

CATASTROPHIC_X = 5.0  # pass latency may be up to 5x worse than baseline
FANOUT_OVERHEAD_X = 1.15  # a w-worker pass may cost up to 15% over serial
LATENCY_KEYS = ["pass_p50_ns_1", "pass_p50_ns_2", "pass_p50_ns_4", "pass_p50_ns_8"]


def check(cur, base, fail):
    if cur.get("bench") != "scale":
        fail("unknown bench kind: %r" % cur.get("bench"))
        return
    if base.get("bench") != "scale":
        fail("baseline is for bench %r, current run is 'scale'" % base.get("bench"))
        return
    if cur["outputs_equal"] is not True:
        fail("parallel scheduler output diverged from the serial baseline")
    same_sweep = all(cur.get(k) == base.get(k) for k in ("caps", "passes"))
    base_digests = {p["workers"]: p["digest"] for p in base.get("points", [])}
    serial_p50 = cur["pass_p50_ns_1"]
    for point in cur.get("points", []):
        workers = point["workers"]
        if not point["pass_p50_ns"] > 0:
            fail("pass_p50_ns must be positive at workers=%d" % workers)
        if same_sweep and point["digest"] != base_digests.get(workers):
            fail(
                "output digest %d at workers=%d differs from the baseline's %s"
                % (point["digest"], workers, base_digests.get(workers))
            )
        if point["pass_p50_ns"] > FANOUT_OVERHEAD_X * serial_p50:
            fail(
                "fan-out overhead: pass p50 at workers=%d is %d ns, more than "
                "%.2fx the serial %d ns"
                % (workers, point["pass_p50_ns"], FANOUT_OVERHEAD_X, serial_p50)
            )
    for key in LATENCY_KEYS:
        if key not in cur or key not in base:
            fail("%s missing from the current report or the baseline" % key)
            continue
        c, b = cur[key], base[key]
        if b > 0 and c > b * CATASTROPHIC_X:
            fail(
                "%s catastrophically regressed: %d vs baseline %d (>%.0fx)"
                % (key, c, b, CATASTROPHIC_X)
            )


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        cur = json.load(f)
    with open(sys.argv[2]) as f:
        base = json.load(f)

    failures = []
    check(cur, base, failures.append)
    if failures:
        for msg in failures:
            print("check_bench FAIL [%s]: %s" % (sys.argv[1], msg), file=sys.stderr)
        return 1

    print(
        "check_bench OK [%s]: speedup %.2fx @2 / %.2fx @4 / %.2fx @8 workers "
        "(informational), fan-out overhead within bound, outputs bit-identical "
        "(host parallelism %d)"
        % (
            sys.argv[1],
            cur["speedup_x_2"],
            cur["speedup_x_4"],
            cur["speedup_x_8"],
            cur["host_parallelism"],
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
