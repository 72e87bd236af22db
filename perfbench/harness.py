"""Timing loop, checks, statistics and the environment record.

A run is a closed loop with one client: each job starts when the previous
one has finished.  The harness runs whole passes over the workload's jobs,
as many as come nearest to the requested seconds, so every pass weighs the
same mix.  The statistics describe the median pass: each job's latency is
the median of its executions over the passes, so a stretch of seconds in
which a shared machine runs slow moves a job's figure only if it covers
half of that job's executions.
"""

from __future__ import annotations

import importlib
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from types import SimpleNamespace

import tracing

RELHYP_MODULES = ("presentation", "oracle", "cayley", "filling", "cochain",
                  "corridor", "cli", "presets")
IMPORT_REPEATS = 5
SETUP_REPEATS = 3

END_TO_END = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_ms": "ms",
              "job_p90_ms": "ms", "peak_rss_mb": "MB"}


def load_relhyp():
    return SimpleNamespace(**{name: importlib.import_module(f"relhyp.{name}")
                              for name in RELHYP_MODULES})


def time_imports(src) -> list:
    """Seconds to import relhyp (numpy and scipy included) in fresh
    interpreters, as a command-line user pays it."""
    code = ("import sys, time; t = time.perf_counter(); "
            "sys.path.insert(0, sys.argv[1]); import relhyp.cli; "
            "print(time.perf_counter() - t)")
    out = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code, str(src)],
                              capture_output=True, text=True, timeout=120,
                              check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def timed_setup(setup):
    """Run the set-up SETUP_REPEATS times; returns the last plan and the
    median seconds."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        plan = setup()
        times.append(time.perf_counter() - t0)
    return plan, statistics.median(times)


@dataclass
class Passes:
    latencies: list      # seconds, one per job executed, every pass
    keys: list           # per pass, one answer key per job
    details: list        # last pass only, one per job

    @property
    def passes(self) -> int:
        return len(self.keys)

    def job_medians(self) -> list:
        """Per job of a pass, the median of its latencies over the passes."""
        n = len(self.keys[0])
        return [statistics.median(self.latencies[i::n]) for i in range(n)]

    @property
    def jobs_per_s(self) -> float:
        medians = self.job_medians()
        return len(medians) / sum(medians)


def run_passes(jobs, seconds) -> Passes:
    latencies, keys = [], []
    start = time.perf_counter()
    while True:
        pass_keys, details = [], []
        for job in jobs:
            t0 = time.perf_counter()
            try:
                out = job.run()
            except Exception as exc:  # counted as a failed job
                latencies.append(time.perf_counter() - t0)
                pass_keys.append(("raised", f"{type(exc).__name__}: {exc}"))
                details.append(None)
                continue
            latencies.append(time.perf_counter() - t0)
            key, detail = job.finish(out)
            pass_keys.append(key)
            details.append(detail)
        keys.append(pass_keys)
        # stop at the whole number of passes nearest to the seconds asked
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(keys) / 2 >= seconds:
            return Passes(latencies, keys, details)


def count_failures(jobs, res: Passes) -> int:
    """Executions that raised, answered wrongly, or answered differently
    from the last pass."""
    last = res.keys[-1]
    ok = []
    for job, key, detail in zip(jobs, last, res.details):
        try:
            good = bool(job.check(key, detail))
        except Exception:  # a check that cannot run counts as failed
            traceback.print_exc(file=sys.stderr)
            good = False
        if not good:
            print(f"perfbench: wrong answer from {job.label}: {key!r}",
                  file=sys.stderr)
        ok.append(good)
    return sum(1 for pass_keys in res.keys for i, key in enumerate(pass_keys)
               if not ok[i] or key != last[i])


def percentiles_ms(res: Passes):
    q = statistics.quantiles([1000.0 * t for t in res.job_medians()],
                             n=100, method="inclusive")
    return q[49], q[89]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "RELHYP_THREADS": os.environ.get("RELHYP_THREADS")}


def end_to_end_metrics(setup_s, res: Passes, rss):
    p50, p90 = percentiles_ms(res)
    return {"setup_s": setup_s, "jobs_per_s": res.jobs_per_s,
            "job_p50_ms": p50, "job_p90_ms": p90, "peak_rss_mb": rss}


# ---------------------------------------------------------------------------
# per-layer metrics of the traced run

PER_LAYER_UNITS = {
    "filling.relative_area.calls": "count",
    "filling.relative_area.self_ms": "ms",
    "filling.relative_area.trace_moves": "count",
    "filling.replay_certificate.self_ms": "ms",
    "filling.dehn_profile.self_ms": "ms",
    "presentation.free_reduce.ns_per_letter": "ns",
    "presentation.parse_document.ms": "ms",
    "oracle.calls": "count",
    "oracle.self_ms": "ms",
    "oracle.build_oracle.ms": "ms",
    "cayley.truncated_ball.calls": "count",
    "cayley.truncated_ball.self_ms": "ms",
    "cayley.truncated_ball.vertices_per_s": "1/s",
    "cayley.rel_length.calls": "count",
    "cayley.rel_length.self_ms": "ms",
    "cayley.geodesic_witness.self_ms": "ms",
    "cochain.build_window.self_ms": "ms",
    "cochain.build_window.cells": "count",
    "cochain.min_linf_primitive.float_self_ms": "ms",
    "cochain.min_linf_primitive.exact_self_ms": "ms",
    "cochain.min_linf_primitive.lp_vars": "count",
    "cochain.min_linf_primitive.lp_rows": "count",
    "corridor.check_separated.self_ms": "ms",
    "corridor.check_uniform_flare.self_ms": "ms",
    "corridor.corridor_cocycle_pairing.self_ms": "ms",
    **{f"cli.main.{sub}.ms": "ms" for sub in tracing.CLI_SUBCOMMANDS},
    "cli.output_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


def layer_metrics(tr: tracing.Tracer, res: Passes, untraced: Passes,
                  probes: dict, output_bytes: int) -> dict:
    """Counts and self times per pass of the traced run; ``.ms`` names are
    mean milliseconds per call.  A layer the workload never enters reads 0."""
    n = res.passes

    def spans(name, phase="run"):
        return tr.spans.get((phase, name), (0, 0.0, 0.0))

    def calls(name):
        return spans(name)[0] / n

    def self_ms(name):
        return 1000.0 * spans(name)[2] / n

    def count(name):
        return tr.counts.get(("run", name), 0) / n

    oracle = [f"oracle.{m}" for m in tracing.ORACLE_METHODS]
    lp = "cochain.min_linf_primitive"
    out = {
        "filling.relative_area.calls": calls("filling.relative_area"),
        "filling.relative_area.self_ms": self_ms("filling.relative_area"),
        "filling.relative_area.trace_moves":
            count("filling.relative_area.trace_moves"),
        # certificates are replayed in the check phase, once per job
        "filling.replay_certificate.self_ms":
            1000.0 * spans("filling.replay_certificate", "check")[2],
        "filling.dehn_profile.self_ms": self_ms("filling.dehn_profile"),
        "presentation.free_reduce.ns_per_letter": probes["ns_per_letter"],
        "presentation.parse_document.ms":
            tr.mean_ms("presentation.parse_document"),
        "oracle.calls": sum(calls(m) for m in oracle),
        "oracle.self_ms": sum(self_ms(m) for m in oracle),
        "oracle.build_oracle.ms": tr.mean_ms("oracle.build_oracle"),
        "cayley.truncated_ball.calls": calls("cayley.truncated_ball"),
        "cayley.truncated_ball.self_ms": self_ms("cayley.truncated_ball"),
        "cayley.truncated_ball.vertices_per_s": probes["vertices_per_s"],
        "cayley.rel_length.calls": calls("cayley.rel_length"),
        "cayley.rel_length.self_ms": self_ms("cayley.rel_length"),
        "cayley.geodesic_witness.self_ms":
            self_ms("cayley.geodesic_witness"),
        "cochain.build_window.self_ms": self_ms("cochain.build_window"),
        "cochain.build_window.cells": count("cochain.build_window.cells"),
        f"{lp}.float_self_ms": self_ms(f"{lp}.float"),
        f"{lp}.exact_self_ms": self_ms(f"{lp}.exact"),
        f"{lp}.lp_vars": count(f"{lp}.lp_vars"),
        f"{lp}.lp_rows": count(f"{lp}.lp_rows"),
        "corridor.check_separated.self_ms":
            self_ms("corridor.check_separated"),
        "corridor.check_uniform_flare.self_ms":
            self_ms("corridor.check_uniform_flare"),
        "corridor.corridor_cocycle_pairing.self_ms":
            self_ms("corridor.corridor_cocycle_pairing"),
        **{f"cli.main.{sub}.ms": tr.mean_ms(f"cli.main.{sub}")
           for sub in tracing.CLI_SUBCOMMANDS},
        "cli.output_bytes": output_bytes,
        "trace.overhead_ratio": untraced.jobs_per_s / res.jobs_per_s,
    }
    assert out.keys() == PER_LAYER_UNITS.keys()
    return out
