#!/usr/bin/env python3
"""Bench regression gate: compare a fresh BENCH_*.json against its committed
baseline and fail on structural violations or out-of-band regressions.

Usage: check_bench.py CURRENT.json BASELINE.json

Two classes of numeric check, chosen per key:

* **ratio** — hardware-independent ratios (scan reduction, hit rates). These
  must not fall more than TOLERANCE (20%) below the committed baseline;
  being *better* than baseline never fails (it prints a refresh hint).
* **latency** — nanosecond/throughput measurements that scale with the
  runner. CI machines vary wildly, so these only gate on *catastrophic*
  regressions (CATASTROPHIC_X = 5x worse than baseline).

Structural invariants (outputs_equal, tier hits, the fan-out overhead
bound) encode the acceptance criteria of the benches themselves and are
absolute — they fail regardless of what the baseline recorded.
"""

import json
import sys

TOLERANCE = 0.20  # ratio metrics may be up to 20% below baseline
CATASTROPHIC_X = 5.0  # latency/throughput metrics may be up to 5x worse
FANOUT_OVERHEAD_X = 1.15  # a w-worker pass may cost up to 15% over serial

# Per-bench key classification. "higher" keys are better when larger,
# "lower" keys better when smaller.
CHECKS = {
    "ingest": {
        "ratio_higher": ["longwin_scan_reduction_x"],
        "latency_lower": [
            "query_p50_ns",
            "query_p99_ns",
            "publish_p50_ns",
            "publish_p99_ns",
            "longwin_tiered_p50_ns",
            "longwin_tiered_p99_ns",
        ],
        "latency_higher": ["throughput_rps"],
    },
    "scale": {
        # speedup_x_* are informational: the synthetic capabilities are
        # CPU-bound, so speed-up is capped by host_parallelism and by
        # whoever else is using the runner.
        "ratio_higher": [],
        "latency_lower": [
            "pass_p50_ns_1",
            "pass_p50_ns_2",
            "pass_p50_ns_4",
            "pass_p50_ns_8",
        ],
        # shard_rps_* are informational: the e2e benchmark's
        # sharded_site/ingest_rps owns sharded-ingest throughput.
        "latency_higher": [],
    },
    "serving": {
        "ratio_higher": ["cache_hit_rate"],
        "latency_lower": ["query_p50_ns", "query_p99_ns"],
        "latency_higher": ["throughput_rps"],
    },
    "storage": {
        # Counts, not timings: exact for a given workload on any runner.
        "ratio_higher": [
            "persistent_readings_per_sync",
            "hybrid_readings_per_sync",
        ],
        "latency_lower": [
            "inmemory_longwin_p50_ns",
            "inmemory_longwin_p99_ns",
            "persistent_longwin_p50_ns",
            "persistent_longwin_p99_ns",
            "hybrid_longwin_p50_ns",
            "hybrid_longwin_p99_ns",
            "persistent_recovery_ns",
            "hybrid_recovery_ns",
        ],
        "latency_higher": [
            "inmemory_ingest_rps",
            "persistent_ingest_rps",
            "hybrid_ingest_rps",
        ],
    },
}


def structural(bench, cur, base, fail):
    """Absolute invariants — the bench's own acceptance criteria."""
    if bench == "ingest":
        if not cur["throughput_rps"] > 0:
            fail("throughput_rps must be positive")
        if not cur["readings_total"] > 0:
            fail("readings_total must be positive")
        if not cur["longwin_tier_hits"] > 0:
            fail("planner never tier-hit a long-window query")
        if cur["longwin_scan_reduction_x"] < 5.0:
            fail(
                "long-window scan reduction %.1fx below the 5x floor"
                % cur["longwin_scan_reduction_x"]
            )
        if cur["longwin_tiered_p99_ns"] > cur["longwin_raw_p99_ns"]:
            fail(
                "tiered long-window p99 (%d ns) slower than the raw rescan it "
                "replaces (%d ns)"
                % (cur["longwin_tiered_p99_ns"], cur["longwin_raw_p99_ns"])
            )
    elif bench == "scale":
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
        if cur.get("shard_digests_equal") is not True:
            fail("sharded query digests diverged from the single-shard baseline")
        for point in cur.get("shard_points", []):
            if not point["ingest_rps"] > 0:
                fail("ingest_rps must be positive at shards=%d" % point["shards"])
    elif bench == "serving":
        if cur["cache_equal"] is not True:
            fail("a cached result was not bit-identical to uncached execution")
        if cur["sheds_reconcile"] is not True:
            fail("admission ledger does not reconcile (offered != admitted + shed)")
        if not cur["verified_hits"] > 0:
            fail("the cache bit-equality gate never sampled a hit")
        if cur["responses_200"] + cur["responses_shed"] != cur["requests_total"]:
            fail("responses (200 + shed) do not account for every request")
        if not cur["responses_shed"] > 0:
            fail("the tight adhoc quota shed nothing — admission is not engaging")
        if not 0.0 < cur["shed_rate"] < 0.5:
            fail("shed rate %.3f outside the expected (0, 0.5) band" % cur["shed_rate"])
        if cur["cache_hit_rate"] < 0.3:
            fail(
                "cache hit rate %.3f below the 0.3 floor for this traffic mix"
                % cur["cache_hit_rate"]
            )
        if cur["query_p99_ns"] > 50_000_000:
            fail(
                "query p99 %.1f ms breaches the 50 ms serving SLO"
                % (cur["query_p99_ns"] / 1e6)
            )
        if not cur["frames_delivered"] > 0:
            fail("fan-out delivered no frames to subscribers")
        if not cur["frames_shed"] > 0:
            fail("over-buffer bursts shed no frames — backpressure is not engaging")
    elif bench == "storage":
        if not cur["readings_total"] > 0:
            fail("readings_total must be positive")
        if sorted(cur.get("backends", [])) != ["hybrid", "inmemory", "persistent"]:
            fail("storage bench must report all three backends")
        for k in ("inmemory", "persistent", "hybrid"):
            if cur.get("%s_recovered_ok" % k) is not True:
                fail("%s backend failed its recovery contract" % k)
            if not cur.get("%s_ingest_rps" % k, 0) > 0:
                fail("%s_ingest_rps must be positive" % k)
        for k in ("persistent", "hybrid"):
            if cur.get("%s_durable_len" % k) != cur["readings_total"]:
                fail("%s backend did not persist the whole workload" % k)
            if cur.get("%s_recovered_readings" % k) != cur["readings_total"]:
                fail("%s backend did not recover the whole workload" % k)
            if not cur.get("%s_recovery_ns" % k, 0) > 0:
                fail("%s_recovery_ns must be positive" % k)
        if cur.get("inmemory_recovered_readings") != 0:
            fail("in-memory backend must recover nothing across a restart")
        if cur.get("inmemory_durable_len") != 0:
            fail("in-memory backend must persist nothing")


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        cur = json.load(f)
    with open(sys.argv[2]) as f:
        base = json.load(f)

    failures = []

    def fail(msg):
        failures.append(msg)

    bench = cur.get("bench")
    if bench not in CHECKS:
        fail("unknown bench kind: %r" % bench)
    elif base.get("bench") != bench:
        fail(
            "baseline is for bench %r, current run is %r" % (base.get("bench"), bench)
        )
    else:
        structural(bench, cur, base, fail)
        checks = CHECKS[bench]

        def both(key):
            if key not in cur:
                fail("current report missing key: %s" % key)
                return None
            if key not in base:
                fail("baseline missing key: %s" % key)
                return None
            return cur[key], base[key]

        for key in checks["ratio_higher"]:
            pair = both(key)
            if pair is None:
                continue
            c, b = pair
            floor = b * (1.0 - TOLERANCE)
            if c < floor:
                fail(
                    "%s regressed: %.3f vs baseline %.3f (floor %.3f, -%d%%)"
                    % (key, c, b, floor, TOLERANCE * 100)
                )
            elif c > b * (1.0 + TOLERANCE):
                print(
                    "note: %s improved well past baseline (%.3f vs %.3f) — "
                    "consider refreshing ci/baselines/" % (key, c, b)
                )

        for key in checks["latency_lower"]:
            pair = both(key)
            if pair is None:
                continue
            c, b = pair
            if b > 0 and c > b * CATASTROPHIC_X:
                fail(
                    "%s catastrophically regressed: %d vs baseline %d (>%.0fx)"
                    % (key, c, b, CATASTROPHIC_X)
                )

        for key in checks["latency_higher"]:
            pair = both(key)
            if pair is None:
                continue
            c, b = pair
            if b > 0 and c < b / CATASTROPHIC_X:
                fail(
                    "%s catastrophically regressed: %.1f vs baseline %.1f (<1/%.0fx)"
                    % (key, c, b, CATASTROPHIC_X)
                )

    if failures:
        for msg in failures:
            print("check_bench FAIL [%s]: %s" % (sys.argv[1], msg), file=sys.stderr)
        return 1

    if bench == "ingest":
        print(
            "check_bench OK [%s]: %.0f readings/s, metrics overhead %.1f%%, "
            "long-window scan reduction %.0fx"
            % (
                sys.argv[1],
                cur["throughput_rps"],
                cur["metrics_overhead_pct"],
                cur["longwin_scan_reduction_x"],
            )
        )
    elif bench == "serving":
        print(
            "check_bench OK [%s]: %.0f req/s, p99 %.2f ms, cache hit rate "
            "%.0f%%, shed rate %.0f%% (reconciled), %d subscribers fanned out"
            % (
                sys.argv[1],
                cur["throughput_rps"],
                cur["query_p99_ns"] / 1e6,
                cur["cache_hit_rate"] * 100,
                cur["shed_rate"] * 100,
                cur["subscribers"],
            )
        )
    elif bench == "storage":
        print(
            "check_bench OK [%s]: ingest %.0f/%.0f/%.0f readings/s "
            "(inmemory/persistent/hybrid), recovery %.1f ms persistent / "
            "%.1f ms hybrid, all backends recovered bit-identical"
            % (
                sys.argv[1],
                cur["inmemory_ingest_rps"],
                cur["persistent_ingest_rps"],
                cur["hybrid_ingest_rps"],
                cur["persistent_recovery_ns"] / 1e6,
                cur["hybrid_recovery_ns"] / 1e6,
            )
        )
    else:
        print(
            "check_bench OK [%s]: speedup %.2fx @2 / %.2fx @4 / %.2fx @8 workers "
            "(informational), fan-out overhead within bound, outputs and shard "
            "digests bit-identical (host parallelism %d)"
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
