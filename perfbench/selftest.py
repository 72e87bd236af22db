"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Run it from the repository root.  For every workload, at the self-test
size, it checks that:

- the untraced and the traced run print every metric that BENCHMARK.json
  names, with its unit, and find no wrong answer;
- a run whose reference has one answer corrupted reports failed jobs, so the
  checks cannot pass silently.

It also checks that the benchmark refuses to run, without printing a result,
in a directory that holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def invoke(cwd, workload, *extra):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "7",
           "--seconds", "0", *extra]
    return subprocess.run([sys.executable if c == "python3" else c
                           for c in cmd], cwd=cwd, capture_output=True,
                          text=True, timeout=600)


def result(proc, what):
    if proc.returncode != 0:
        raise AssertionError(f"{what}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{what}: result keys {sorted(res)}")
    return res, lines[:-1]


def check_metrics(res, lines, specs, what):
    want = {m["name"]: m["unit"] for m in specs}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != want:
        raise AssertionError(f"{what}: metrics {got} != {want}")
    for name, unit in want.items():
        if not any(line.split()[:1] == [name] and unit in line.split()
                   for line in lines):
            raise AssertionError(f"{what}: {name} not printed with {unit}")
    if not any(line.split()[:1] == ["failed_ratio"] for line in lines):
        raise AssertionError(f"{what}: failed_ratio not printed")


def main() -> int:
    root = run.ROOT
    for w in run.WORKLOAD_NAMES:
        for trace, specs in (("0", SPEC["end_to_end"]),
                             ("1", SPEC["per_layer"])):
            what = f"{w} --trace {trace}"
            res, lines = result(invoke(root, w, "--trace", trace, "--tiny"),
                                what)
            check_metrics(res, lines, specs, what)
            if not res["correct"] or res["failed"]:
                raise AssertionError(f"{what}: {res['failed']} failed jobs")
            print(f"ok  {what}: {res['attempted']} jobs, "
                  f"{len(res['metrics'])} metrics")
        what = f"{w} --corrupt-reference"
        res, _ = result(invoke(root, w, "--trace", "0", "--tiny",
                               "--corrupt-reference"), what)
        if res["correct"] or not res["failed"]:
            raise AssertionError(f"{what}: the corrupted answer passed")
        print(f"ok  {what}: failed_ratio "
              f"{res['failed'] / res['attempted']:.3f}")

    bare = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
    try:
        shutil.copy(root / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(root / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = invoke(bare, run.WORKLOAD_NAMES[0], "--trace", "0")
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        if proc.returncode == 0 or last[0].startswith("{"):
            raise AssertionError("ran without the program's sources")
        print(f"ok  no sources: exit {proc.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
