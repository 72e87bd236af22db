"""Run one benchmark workload against the relhyp sources of this checkout.

    python3 perfbench/run.py --workload fill --seed 1 --seconds 10 --trace 0

Run it from the repository root.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced run
with ``--trace 1``.  The lines before it restate the figures for a reader,
with their sample counts, the drawn inputs and the machine.  Exit code 2
means the run could not start (no ``src/relhyp`` next to this directory).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
WORKLOAD_NAMES = ("fill", "window", "orbit", "cli")


def pin_environment():
    """Single process, single thread, whatever the caller's shell holds:
    RELHYP_THREADS is what growth_scan reads; the rest keep numpy's BLAS to
    one thread."""
    os.environ.pop("RELHYP_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measure the whole number of passes nearest to "
                         "this many seconds (at least one)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="self-test size: a few light jobs per workload")
    ap.add_argument("--corrupt-reference", action="store_true",
                    help="self-test: alter one frozen answer the run checks")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "relhyp" / "__init__.py").is_file():
        print(f"perfbench: no relhyp sources at {SRC}; run from the root of "
              "a repository checkout", file=sys.stderr)
        return 2
    pin_environment()
    sys.path.insert(0, str(SRC))
    import harness
    import tracing
    from workloads import WORKLOADS, corrupt_reference

    ref = json.loads(REFERENCE.read_text())
    if args.corrupt_reference:
        corrupt_reference(args.workload, ref)
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        import_times = [] if args.trace else harness.time_imports(SRC)
        rt = harness.load_relhyp()
        if not Path(rt.cli.__file__).resolve().is_relative_to(SRC):
            print(f"perfbench: relhyp imported from {rt.cli.__file__}, not "
                  f"from {SRC}", file=sys.stderr)
            return 2

        def setup():
            return WORKLOADS[args.workload](rt, args.seed, ref, args.tiny)

        plan, setup_s = harness.timed_setup(setup)
        # the traced run splits its time between an untraced and a traced
        # measurement of the same passes
        seconds = args.seconds / 2 if args.trace else args.seconds
        res = harness.run_passes(plan.jobs, seconds)
        rss = harness.peak_rss_mb()
        if not args.trace:
            failed = harness.count_failures(plan.jobs, res)
            metrics = harness.end_to_end_metrics(
                setup_s + statistics.median(import_times), res, rss)
            units = harness.END_TO_END
        else:
            tracer = tracing.Tracer()
            restore = tracer.install(rt)
            try:
                traced_plan = setup()
                tracer.phase = "run"
                traced = harness.run_passes(traced_plan.jobs, seconds)
                tracer.phase = "check"
                failed = harness.count_failures(traced_plan.jobs, traced)
            finally:
                restore()
            differ = sum(a != b for a, b in zip(res.keys[-1],
                                                traced.keys[-1]))
            if differ:
                print(f"perfbench: {differ} traced answers differ from the "
                      "untraced run", file=sys.stderr)
            failed += differ
            probes = {
                "ns_per_letter": tracing.probe_free_reduce_ns_per_letter(
                    rt, args.seed),
                "vertices_per_s": tracing.probe_ball_vertices_per_s(rt)}
            output_bytes = sum(traced.details) if args.workload == "cli" \
                else 0
            metrics = harness.layer_metrics(tracer, traced, res, probes,
                                             output_bytes)
            units = harness.PER_LAYER_UNITS
            res = traced
        attempted = len(res.latencies)
        report(args, plan, res, metrics, units, failed, import_times)
        print(json.dumps({
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}))
        return 0
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)


def report(args, plan, res, metrics, units, failed, import_times):
    import harness

    n = len(res.latencies)
    per_pass = len(plan.jobs)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{res.passes} passes x {per_pass} jobs = {n} jobs")
    print(f"inputs {json.dumps(plan.info, sort_keys=True)}")
    print(f"env {json.dumps(harness.environment(), sort_keys=True)}")
    notes = {
        "setup_s": f"median of {len(import_times)} fresh imports + median "
                   f"of {harness.SETUP_REPEATS} set-ups",
        "jobs_per_s": f"{per_pass} jobs / the sum of their medians over "
                      f"{res.passes} passes",
        "job_p50_ms": f"n={per_pass} per-job medians over {res.passes} "
                      "passes",
        "job_p90_ms": f"n={per_pass} per-job medians, "
                      f"{per_pass - int(0.9 * per_pass)} beyond",
    }
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>14.4f} {units[name]:<6} "
              f"{notes.get(name, '')}")
    print(f"  {'failed_ratio':<44} {failed / n:>14.4f} {'ratio':<6} "
          f"{failed} of {n} jobs")


if __name__ == "__main__":
    sys.exit(main())
