#!/usr/bin/env python3
"""tilinglinks benchmark: seeded CLI sessions, timed end to end.

    python3 perfbench/run.py --workload certify-large --seed 0 --seconds 36 --trace 0

A single closed-loop client runs one `python -m tilinglinks ...` child at a
time (with `src` on the path, `--format` always explicit and
`TILINGLINKS_FORMAT` cleared) over the workload's command list, pass after
pass, until `--seconds` is used up (at least one pass; another pass starts
only if it is predicted to fit).  Every command's output is checked
(checks.py).

--trace 0 prints the end-to-end metrics: setup_s (median `--version` time);
wall_s, cmd_p50_s and cmd_max_s, the sum, median and maximum over the
command list of each command's median time over the passes (a command that
failed in any pass counts as the command timeout); and peak_rss_mb (largest
max RSS of any child).  Times are scaled to the reference host speed
(Harness.host_scale).

--trace 1 runs one untraced pass and one pass under perfbench/tracer.py,
requires byte-identical stdout between the two, and prints the per-layer
metrics.

The last stdout line is one JSON object {correct, attempted, failed,
metrics}; a result file with the command list, field degrees, versions,
git SHA, nproc and per-command records goes to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from importlib import metadata
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
GOLDENS = HERE / "goldens"

SETUP_REPS = 9
CMD_TIMEOUT_S = 120.0
RUN_DEADLINE_S = 170.0
# median calibrate() time on the host the baseline was taken on (2 vCPUs,
# Python 3.11.7): times are reported as if the host ran at that speed
CAL_REF_S = 0.0145
# calibrate() runs once per this many seconds of child time, at least once
# per child, so the samples weigh each stretch of the run by its length
CAL_EVERY_S = 2.0


def calibrate():
    """Seconds for a fixed round of exact rational arithmetic on ~600-bit
    integers, the kind of work the program's field layer does."""
    t0 = time.perf_counter()
    a = Fraction(3 ** 180 + 7, 5 ** 120 + 1)
    b = Fraction(2 ** 300 - 3, 7 ** 100 + 9)
    acc = Fraction(0)
    for i in range(400):
        acc = acc * a / (b + i) + a
        acc = Fraction(acc.numerator % (1 << 600),
                       acc.denominator % (1 << 600) or 1)
    return time.perf_counter() - t0


class Harness:
    """Runs children for one benchmark run and keeps their records."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("TILINGLINKS_FORMAT", "TILINGLINKS_TRACE",
                                 "PYTHONPATH", "PYTHONSTARTUP")}
        self.env["PYTHONPATH"] = str(SRC)
        self.count = 0
        self.speed = [calibrate()]

    def host_scale(self):
        """Factor that brings this run's times to the reference host speed.

        A shared host's speed drifts by a quarter over minutes, on all of
        its vCPUs at once, which spreads the times of runs far apart in
        time.  calibrate() runs after every child, never beside one (on a
        host whose vCPUs share a core that would slow both), and the median
        of those samples tracks the speed the children saw."""
        return CAL_REF_S / statistics.median(self.speed)

    def run(self, argv):
        """Run argv; return (seconds, exit code or None on timeout, stdout)."""
        self.count += 1
        out_path = self.workdir / f"{self.count}.out"
        timeout = min(CMD_TIMEOUT_S, self.deadline - time.monotonic())
        if timeout <= 0:
            return None, None, b""
        with open(out_path, "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=subprocess.DEVNULL, env=self.env,
                                    cwd=ROOT)
            # a blocking wait times the child exactly; Popen.wait(timeout)
            # polls with sleeps of up to 50 ms
            watchdog = threading.Timer(timeout, proc.kill)
            watchdog.start()
            try:
                code = proc.wait()
            finally:
                watchdog.cancel()
            elapsed = time.perf_counter() - t0
        for _ in range(max(1, round(elapsed / CAL_EVERY_S))):
            self.speed.append(calibrate())
        data = out_path.read_bytes()
        out_path.unlink()
        return elapsed, (None if elapsed >= timeout else code), data

    def cli(self, args):
        return self.run([sys.executable, "-m", "tilinglinks", *args])

    def traced(self, args, trace_path):
        return self.run([sys.executable, str(HERE / "tracer.py"),
                         str(trace_path), "--", *args])


def load_goldens(workload):
    path = GOLDENS / f"{workload}.json"
    return json.loads(path.read_text()) if path.exists() else {}


def run_pass(h, cmds, goldens, records, pass_no, reference=None):
    """One pass over the command list; returns (wall seconds, stdouts)."""
    total = 0.0
    outs = []
    for cmd in cmds:
        secs, code, stdout = h.cli(cmd.argv)
        rec = {"pass": pass_no, "argv": list(cmd.argv), "seconds": secs,
               "exit": code, "ok": True, "why": None}
        try:
            checks.expect(code is not None, "timed out")
            if reference is None:
                checks.check(cmd, code, stdout, goldens.get(cmd.key))
            else:   # later passes must repeat the checked first pass
                checks.expect(code == cmd.expect_exit, f"exit code {code}")
                checks.expect(stdout == reference[len(outs)],
                              "stdout differs from the first pass")
        except (checks.CheckFailed, ValueError, KeyError, TypeError,
                IndexError, AttributeError) as exc:
            rec["ok"] = False
            rec["why"] = f"{type(exc).__name__}: {exc}"
            rec["seconds"] = CMD_TIMEOUT_S
        total += rec["seconds"]
        records.append(rec)
        outs.append(stdout)
    return total, outs


def measure_setup(h):
    h.cli(["--version"])  # first start writes bytecode caches
    times = []
    for _ in range(SETUP_REPS):
        secs, code, out = h.cli(["--version"])
        if code != 0 or not out.strip():
            raise SystemExit("tilinglinks --version failed")
        times.append(secs)
    return statistics.median(times)


def end_to_end(h, cmds, goldens, seconds, records):
    setup = measure_setup(h)
    start = time.perf_counter()
    walls, reference = [], None
    while True:
        wall, outs = run_pass(h, cmds, goldens, records, len(walls), reference)
        walls.append(wall)
        reference = reference or outs
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(walls) > seconds:
            break
    # each command's time is its median over the passes, at the reference
    # host speed; a command that failed in any pass counts as the timeout
    scale = h.host_scale()
    times = []
    for i in range(len(cmds)):
        runs = records[i::len(cmds)]
        times.append(statistics.median(r["seconds"] for r in runs) * scale
                     if all(r["ok"] for r in runs) else CMD_TIMEOUT_S)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": (setup * scale, "s"),
        "wall_s": (sum(times), "s"),
        "cmd_p50_s": (statistics.median(times), "s"),
        "cmd_max_s": (max(times), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }


def layer_metrics(traces, untraced_wall, traced_wall, stdout_bytes):
    """Every per-layer metric of BENCHMARK.json, over one traced pass.

    "<name>.calls" and "<name>.self_s" sum the tracer's aggregate <name>,
    "<name>.hit_ratio" its lru_cache counters; the rest are listed here."""
    samples = sum(s for t in traces for s, _ in t["basins"])
    skipped = sum(k for t in traces for _, k in t["basins"])
    special = {
        "fields.max_coeff_bits": max(t["max_coeff_bits"] for t in traces),
        "lorentz.basins.samples": samples,
        "lorentz.basins.kept_ratio": (samples - skipped) / samples if samples else 0.0,
        "cli.import_s": statistics.median(t["import_s"] for t in traces),
        "cli.stdout_bytes": stdout_bytes,
        "trace.overhead_frac": (traced_wall - untraced_wall) / untraced_wall,
    }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    out = {}
    for metric in spec:
        name = metric["name"]
        agg, field = name.rsplit(".", 1)
        if name in special:
            value = special[name]
        elif field == "hit_ratio":
            hits = sum(t["caches"].get(agg, {}).get("hits", 0) for t in traces)
            misses = sum(t["caches"].get(agg, {}).get("misses", 0) for t in traces)
            value = hits / (hits + misses) if hits + misses else 0.0
        else:
            value = sum(t["agg"].get(agg, {}).get(field, 0) for t in traces)
        out[name] = (value, metric["unit"])
    return out


def per_layer(h, cmds, goldens, records):
    untraced, outs = run_pass(h, cmds, goldens, records, 0)
    traced_wall, traces = 0.0, []
    for i, cmd in enumerate(cmds):
        trace_path = h.workdir / f"trace{i}.json"
        secs, code, stdout = h.traced(cmd.argv, trace_path)
        rec = {"pass": "traced", "argv": list(cmd.argv), "seconds": secs,
               "exit": code, "ok": True, "why": None}
        if code != cmd.expect_exit or stdout != outs[i] or not trace_path.exists():
            rec["ok"] = False
            rec["why"] = "traced run differs from the untraced run"
        else:
            trace = json.loads(trace_path.read_text())
            rec["trace"] = trace
            traces.append(trace)
        records.append(rec)
        traced_wall += secs or CMD_TIMEOUT_S
    if not traces:
        raise SystemExit("no traced command completed")
    return layer_metrics(traces, untraced, traced_wall,
                         sum(len(o) for o in outs))


def git_sha():
    """HEAD of the enclosing git checkout, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {"python": platform.python_version(), "numpy": version("numpy"),
            "mpmath": version("mpmath"), "git_sha": git_sha(),
            "nproc": len(os.sched_getaffinity(0))}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "tilinglinks" / "__init__.py").is_file():
        print(f"error: no tilinglinks sources under {SRC}", file=sys.stderr)
        return 2

    cmds = workloads.generate(args.workload, args.seed)
    goldens = load_goldens(args.workload)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / "tmp" / f"{tag}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    h = Harness(workdir, time.monotonic() + RUN_DEADLINE_S)
    records = []
    try:
        if args.trace:
            metrics = per_layer(h, cmds, goldens, records)
        else:
            metrics = end_to_end(h, cmds, goldens, args.seconds, records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(not r["ok"] for r in records)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{tag}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "commands": [list(c.argv) for c in cmds],
        "field_degrees": workloads.type_degrees(cmds),
        "environment": environment(), "host_scale": h.host_scale(),
        "calibrate_s": h.speed, "result": result, "records": records,
    }, indent=1))
    for r in records:
        if not r["ok"]:
            print(f"FAILED {' '.join(r['argv'])}: {r['why']}")
    for k, (v, u) in metrics.items():
        print(f"{args.workload:14s} {k:34s} {v:14.6g} {u}")
    print(f"{args.workload:14s} {'failed_frac':34s} "
          f"{failed / len(records):14.6g} ratio")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
