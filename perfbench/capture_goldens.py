#!/usr/bin/env python3
"""Capture the golden outputs of the default seed's commands.

    python3 perfbench/capture_goldens.py [WORKLOAD ...]

Writes perfbench/goldens/<workload>.json: for each command of the default
seed, its exit code and the digest of its stdout (checks.golden_digest).
Run it only on a commit whose outputs are the reference; every later run of
the benchmark compares against these files.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import checks
import run
import workloads


def main(names):
    run.GOLDENS.mkdir(exist_ok=True)
    workdir = run.OUT / "tmp" / f"goldens-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in names or sorted(workloads.WORKLOADS):
            h = run.Harness(workdir, time.monotonic() + 3600)
            goldens = {}
            for cmd in workloads.generate(name, workloads.DEFAULT_SEED):
                _, code, stdout = h.cli(cmd.argv)
                checks.check(cmd, code, stdout)
                goldens[cmd.key] = {
                    "exit": code,
                    **checks.golden_digest(stdout, checks.is_json(cmd))}
            path = run.GOLDENS / f"{name}.json"
            path.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
            print(f"{path}: {len(goldens)} commands")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main(sys.argv[1:])
