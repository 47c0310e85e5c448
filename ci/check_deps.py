#!/usr/bin/env python3
"""Dead-dependency gate for the workspace manifests.

Usage: check_deps.py            (run from the repo root)

For every `[dependencies]` / `[dev-dependencies]` key of the root manifest
and of every workspace member, some `.rs` file under that crate's `src/`,
`tests/`, `benches/` or `examples/` must mention the crate's identifier
(`-` read as `_`). Cargo builds an edge nobody names without a word, so a
dead one otherwise lingers until somebody sizes the manifest by hand.
"""

import glob
import os
import re
import sys
import tomllib

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def main():
    with open(os.path.join(ROOT, "Cargo.toml"), "rb") as f:
        members = tomllib.load(f)["workspace"]["members"]
    manifests = ["Cargo.toml"] + sorted(
        p for m in members for p in glob.glob(os.path.join(m, "Cargo.toml"), root_dir=ROOT))
    dead = []
    for path in manifests:
        crate = os.path.dirname(path)
        with open(os.path.join(ROOT, path), "rb") as f:
            manifest = tomllib.load(f)
        source = ""
        for sub in ("src", "tests", "benches", "examples"):
            for rs in glob.glob(os.path.join(ROOT, crate, sub, "**", "*.rs"), recursive=True):
                with open(rs, encoding="utf-8") as f:
                    source += f.read()
        for table in ("dependencies", "dev-dependencies"):
            for dep in manifest.get(table, {}):
                if not re.search(rf"\b{dep.replace('-', '_')}\b", source):
                    dead.append(f"{path}: [{table}] {dep}")
    for line in dead:
        print(f"check_deps: FAIL: no source file names {line}", file=sys.stderr)
    if dead:
        sys.exit(1)
    print(f"check_deps: OK ({len(manifests)} manifests)")


if __name__ == "__main__":
    main()
