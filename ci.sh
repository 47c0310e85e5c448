#!/usr/bin/env bash
# Local CI gate: everything a PR must pass, in the order fastest-feedback
# first. Run from the repo root. Mirrors .github/workflows/ci.yml: the
# default lane's commands and the workflow's per-push run steps must be
# the same set, verbatim, which ci/check_ci_sync.py checks. The soak at the end runs the full ODA runtime under
# fault injection (replay must be bit-identical at workers=1 and
# workers=4); the scale bench writes target/BENCH_scale.json, gated against
# its committed baseline by ci/check_bench.py. Every other timing is the
# end-to-end benchmark's (benchmark/README.md); the structural gates the
# retired ingest/storage/serving harnesses carried are workspace tests.
#
# `./ci.sh --full` additionally runs the nightly sanitizer lanes (Miri on
# the oda-telemetry lib tests, ThreadSanitizer on the concurrency-heavy
# telemetry/serve suites and the oda-core pass executor). Each lane is
# gated on its toolchain component being present and skips loudly when it
# isn't, so `--full` degrades gracefully on machines without the nightly
# extras; the hosted `sanitizers` job in ci.yml installs the components
# and never skips.
set -euo pipefail
cd "$(dirname "$0")"

FULL=0
for arg in "$@"; do
  case "$arg" in
    --full) FULL=1 ;;
    *) echo "unknown argument: $arg (supported: --full)" >&2; exit 2 ;;
  esac
done

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> odalint (static determinism / panic-safety / unsafe-audit gate)"
# Deny-by-default source lint; exits nonzero on any unallowed violation
# and writes LINT_report.json, whose schema check_lint.py then verifies.
cargo run -q -p lint --bin odalint
python3 ci/check_lint.py LINT_report.json

echo "==> dependency edges (every manifest key is named by a source file; every workspace dependency and shim has a user)"
python3 ci/check_deps.py

echo "==> CI mirror (ci.sh's default lane and ci.yml's per-push jobs run the same commands)"
python3 ci/check_ci_sync.py

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test -q --workspace

echo "==> benchmark package tests (public-API drift against the pinned e2e benchmark)"
# benchmark/ is a package of its own (empty [workspace]) that drives the
# workspace through public items only; building and testing it here makes
# an API break fail tier-1 CI instead of the bench pipeline.
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "==> cargo clippy -- -D warnings"
# The pre-0.2 QueryEngine methods and TelemetryBus::subscribe are gone;
# odalint's deprecated-api rule keeps them from coming back.
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc -- -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> chaos soak (short budget; replay at workers=1 and workers=4)"
cargo run --release -p oda-bench --bin chaos -- 4000 21 4

echo "==> examples (all eight run to completion)"
cargo run -q --release --example quickstart > /dev/null
cargo run -q --release --example framework_tour > /dev/null
cargo run -q --release --example powerstack > /dev/null
cargo run -q --release --example anomaly_response > /dev/null
cargo run -q --release --example oda_runtime > /dev/null
cargo run -q --release --example llnl_power_forecast > /dev/null
cargo run -q --release --example policy_whatif > /dev/null
cargo run -q --release --example proactive_vs_reactive > /dev/null

echo "==> scale bench (worker sweep 1/2/4/8: digest + fan-out overhead; speed-up informational)"
cargo run --release -p oda-bench --bin scale > target/BENCH_scale.json
python3 ci/check_bench.py target/BENCH_scale.json ci/baselines/BENCH_scale.json

if [ "$FULL" = 1 ]; then
  echo "==> miri (undefined-behaviour interpreter; oda-telemetry lib tests)"
  # Thread-stress and real-fs tests carry #[cfg_attr(miri, ignore)]; what
  # remains is the curated fast subset (ring buffer, rollup, placement,
  # codec, WAL-over-SimFs) where Miri can actually find UB.
  if cargo +nightly miri --version >/dev/null 2>&1; then
    MIRIFLAGS="-Zmiri-strict-provenance" cargo +nightly miri test -q -p oda-telemetry --lib
  else
    echo "SKIP: miri lane — 'cargo +nightly miri' unavailable" >&2
    echo "      (rustup +nightly component add miri; the hosted sanitizers job always runs it)" >&2
  fi

  echo "==> thread sanitizer (telemetry + serving concurrency tests, core pass executor)"
  # TSan needs the standard library rebuilt with -Zsanitizer=thread, which
  # requires the nightly rust-src component (-Zbuild-std).
  if rustup component list --toolchain nightly 2>/dev/null | grep -q '^rust-src.*(installed)'; then
    TSAN_TARGET="$(rustc -vV | sed -n 's/^host: //p')"
    # oda-telemetry carries the thread-stress tests (concurrent store
    # writers, concurrent metric recording); oda-serve's server tests
    # drive the poll loop over SimNet and a real loopback socket.
    RUSTFLAGS="-Zsanitizer=thread" \
      cargo +nightly test -q -Zbuild-std --target "$TSAN_TARGET" \
      -p oda-telemetry --lib
    RUSTFLAGS="-Zsanitizer=thread" \
      cargo +nightly test -q -Zbuild-std --target "$TSAN_TARGET" \
      -p oda-serve --lib
    # oda-core's pass executor hands `&mut` capabilities and result slots
    # to scoped threads — the workspace's only cross-thread `&mut` hand-off.
    RUSTFLAGS="-Zsanitizer=thread" \
      cargo +nightly test -q -Zbuild-std --target "$TSAN_TARGET" \
      -p oda-core --lib
  else
    echo "SKIP: thread-sanitizer lane — nightly rust-src component unavailable" >&2
    echo "      (rustup +nightly component add rust-src; the hosted sanitizers job always runs it)" >&2
  fi
fi

echo "CI OK"
