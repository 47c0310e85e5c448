#!/usr/bin/env bash
# repeat.sh N [--seed-base S] [--reverse] [--save FILE]: N measured sets,
# one seed each; per-metric median, quartiles and spread against the bound
# of BENCHMARK.json. Non-zero exit when a bound is exceeded.
exec python3 "$(dirname "$0")/suite.py" repeat "$@"
