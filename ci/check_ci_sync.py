#!/usr/bin/env python3
"""Gate that the local and the hosted CI run the same commands.

Usage: check_ci_sync.py            (run from anywhere)

`ci.sh`'s default lane (every command between its first `echo "==> ..."`
stage banner and the `if [ "$FULL" = 1 ]` block) must equal the set of
`run:` steps of `.github/workflows/ci.yml`'s per-push jobs, command for
command, verbatim. A leading `NAME=value` assignment in `ci.sh` is compared
with the step's `env:` entry of that name. Jobs whose `if:` runs them on
the schedule (`github.event_name == 'schedule'`) mirror `./ci.sh --full`,
whose commands differ by design (shell variables against step outputs),
and are not compared.

The workflow is read with a small line parser, not a YAML library: it
understands the shapes ci.yml uses (jobs at two spaces, `if:` at four,
steps as `- ` items at six, `run:` inline or as a `>-` folded block, and a
step-level `env:` mapping) and fails on a `run: |` block it cannot
compare.
"""

import os
import re
import shlex
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
ENV_PREFIX = re.compile(r"""^((?:[A-Z_][A-Z0-9_]*=(?:"[^"]*"|'[^']*'|\S*)\s+)*)(.*)$""")


def read(path):
    with open(os.path.join(ROOT, path), encoding="utf-8") as f:
        return f.read().splitlines()


def split_env(line):
    """(frozenset of NAME=value assignments, the command after them)."""
    prefix, command = ENV_PREFIX.match(line).groups()
    env = dict(token.split("=", 1) for token in shlex.split(prefix))
    return frozenset(env.items()), command.strip()


def script_commands(lines):
    start = next(i for i, l in enumerate(lines) if l.startswith('echo "==> '))
    end = next(i for i, l in enumerate(lines) if l.startswith('if [ "$FULL" = 1 ]'))
    commands, pending = set(), ""
    for line in lines[start:end]:
        text = line.strip()
        if not pending and (not text or text.startswith("#") or text.startswith("echo ")):
            continue
        if text.endswith("\\"):
            pending += text[:-1].strip() + " "
            continue
        commands.add(split_env(pending + text))
        pending = ""
    return commands


def indent(line):
    return len(line) - len(line.lstrip(" "))


def scalar(text):
    text = text.strip()
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        return text[1:-1]
    return text


def workflow_commands(lines):
    """Per-push jobs' run steps as (env, command); raises on a shape the
    parser does not understand."""
    commands = set()
    job_runs, job_nightly = [], False
    step = None

    def end_step():
        if step is not None and "run" in step:
            job_runs.append((frozenset(step["env"].items()), step["run"]))

    def end_job():
        end_step()
        if not job_nightly:
            commands.update(job_runs)

    in_jobs = False
    i = 0
    while i < len(lines):
        line = lines[i]
        text = line.strip()
        i += 1
        if not text or text.startswith("#"):
            continue
        if indent(line) == 0:
            if in_jobs:
                end_job()
                step, job_runs, job_nightly = None, [], False
            in_jobs = text == "jobs:"
            continue
        if not in_jobs:
            continue
        if indent(line) == 2:
            end_job()
            step, job_runs, job_nightly = None, [], False
        elif indent(line) == 4 and text.startswith("if:"):
            job_nightly = "github.event_name == 'schedule'" in text
        elif indent(line) == 6 and text.startswith("- "):
            end_step()
            step = {"env": {}, "indent": 8}
            text = text[2:]
            i = step_key(step, text, lines, i)
        elif step is not None and indent(line) == 8:
            i = step_key(step, text, lines, i)
        elif step is not None and step.get("in_env") and indent(line) == 10:
            name, _, value = text.partition(":")
            step["env"][name.strip()] = scalar(value)
    if in_jobs:
        end_job()
    return commands


def step_key(step, text, lines, i):
    """Reads one `key: value` of a step; returns the next line index."""
    key, _, value = text.partition(":")
    value = value.strip()
    step["in_env"] = key == "env"
    if key != "run":
        return i
    if value.startswith("|"):
        raise SystemExit("check_ci_sync: `run: |` blocks are not compared; use `>-`")
    if value.startswith(">"):
        folded = []
        while i < len(lines) and (not lines[i].strip() or indent(lines[i]) > 8):
            folded.append(lines[i].strip())
            i += 1
        value = " ".join(part for part in folded if part)
    step["run"] = value
    return i


def main():
    local = script_commands(read("ci.sh"))
    hosted = workflow_commands(read(".github/workflows/ci.yml"))

    def show(entry):
        env, command = entry
        return " ".join([f"{k}={shlex.quote(v)}" for k, v in sorted(env)] + [command])

    problems = [f"ci.sh runs, ci.yml does not: {show(c)}" for c in sorted(local - hosted)]
    problems += [f"ci.yml runs, ci.sh does not: {show(c)}" for c in sorted(hosted - local)]
    for p in problems:
        print(p, file=sys.stderr)
    if problems:
        return 1
    print(f"check_ci_sync: {len(local)} commands run by both ci.sh and ci.yml")
    return 0


if __name__ == "__main__":
    sys.exit(main())
