#!/usr/bin/env python3
"""Dead-dependency gate for the workspace manifests.

Usage: check_deps.py            (run from the repo root)

Three checks, each failing on an edge that cargo builds without a word:

- For every `[dependencies]` / `[dev-dependencies]` key of the root manifest
  and of every workspace member, some `.rs` file under that crate's `src/`,
  `tests/` or `examples/` must mention the crate's identifier (`-` read as
  `_`).
- Every `[workspace.dependencies]` key must be inherited
  (`<key>.workspace = true`) by the root package or some member.
- Every `shims/*` member must be depended on by some other manifest; a shim
  whose last user is gone would otherwise keep building.

A fourth check holds the plant/stack boundary: no `.rs` file under
`crates/sim/src` may name a call that stands up or wires the monitoring
stack (`STACK_BUILDERS`). The simulated plant samples and hands each tick
to an `oda_serve::site::Site`, which alone builds the archive, the bus, the
collector cluster, the local query plane and the server.
"""

import glob
import os
import re
import sys
import tomllib

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
DEP_TABLES = ("dependencies", "dev-dependencies")
PLANT_SRC = os.path.join("crates", "sim", "src")
STACK_BUILDERS = ("ClusterCoordinator::new", "open_backend", "TelemetryBus::with_archive",
                  "LocalPlane {", "Server::new")


def load(path):
    with open(os.path.join(ROOT, path), "rb") as f:
        return tomllib.load(f)


def main():
    workspace = load("Cargo.toml")["workspace"]
    manifests = ["Cargo.toml"] + sorted(
        p for m in workspace["members"] for p in glob.glob(os.path.join(m, "Cargo.toml"), root_dir=ROOT))
    dead = []
    inherited = set()
    depended_on = set()
    shims = {}
    for path in manifests:
        crate = os.path.dirname(path)
        manifest = load(path)
        if crate.startswith("shims" + os.sep):
            shims[manifest["package"]["name"]] = crate
        source = ""
        for sub in ("src", "tests", "examples"):
            for rs in glob.glob(os.path.join(ROOT, crate, sub, "**", "*.rs"), recursive=True):
                with open(rs, encoding="utf-8") as f:
                    source += f.read()
        for table in DEP_TABLES:
            for dep, spec in manifest.get(table, {}).items():
                depended_on.add(dep)
                if isinstance(spec, dict) and spec.get("workspace"):
                    inherited.add(dep)
                if not re.search(rf"\b{dep.replace('-', '_')}\b", source):
                    dead.append(f"no source file names {path}: [{table}] {dep}")
    for dep in workspace.get("dependencies", {}):
        if dep not in inherited:
            dead.append(f"no manifest inherits [workspace.dependencies] {dep}")
    for name, crate in shims.items():
        if name not in depended_on:
            dead.append(f"no manifest depends on shim {name} ({crate})")
    for rs in sorted(glob.glob(os.path.join(ROOT, PLANT_SRC, "**", "*.rs"), recursive=True)):
        with open(rs, encoding="utf-8") as f:
            text = f.read()
        for name in STACK_BUILDERS:
            if name in text:
                dead.append(f"{os.path.relpath(rs, ROOT)} names `{name}`: only the site "
                            "(crates/serve/src/site.rs) builds the monitoring stack")
    for line in dead:
        print(f"check_deps: FAIL: {line}", file=sys.stderr)
    if dead:
        sys.exit(1)
    print(f"check_deps: OK ({len(manifests)} manifests, "
          f"{len(workspace.get('dependencies', {}))} workspace dependencies)")


if __name__ == "__main__":
    main()
