#!/usr/bin/env bash
# The one command: builds --release, runs the four workloads (a process
# each; measured, then traced), prints `workload name unit value` for every
# metric and writes benchmark/results/latest.json. Non-zero exit when a
# build, an operation or a correctness check failed.
exec python3 "$(dirname "$0")/suite.py" run "$@"
