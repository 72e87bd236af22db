"""Regenerate ``reference.json``, the frozen answers every run checks.

    python3 perfbench/freeze.py

Run it from the repository root on the commit whose answers are the
reference; it takes a few minutes (the whole criterion-7 loop class goes
through the filling search).  The answers must not change afterwards: a
program change that moves one is a wrong answer, not a new reference.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import run


def freeze_fill(rt, W) -> dict:
    P, O = W.doc_oracle(rt, rt.presets.z_example_doc())
    letters = [rt.presentation.HLetter(lam, (k,)) for lam in (1, 2)
               for k in range(-3, 4) if k]
    areas, heavy = {}, []
    for n in range(5):
        for combo in itertools.product(letters, repeat=n):
            w = rt.presentation.Word(combo)
            if W.exponent_sum(w) != 0:
                continue
            text = W.word_text(w)
            areas[text] = rt.oracle.budgeted_word_problem(
                P, w, *W.FILL_BUDGET).area
            capped = rt.filling.relative_area(
                P, O, w, *W.FILL_BUDGET, max_states=W.FILL_HEAVY_STATES)
            if isinstance(capped, rt.filling.Unknown):
                heavy.append(text)
    dehn = {}
    for name, kw in W.FILL_DEHN:
        P, O = W.doc_oracle(rt, getattr(rt.presets, f"{name}_doc")())
        dehn[name] = [list(e) for e in
                      W.profile_key(rt.filling.dehn_profile(P, O, **kw))]
    return {"areas": areas, "heavy": sorted(heavy), "dehn": dehn}


def freeze_window(rt, W) -> dict:
    P2, O2 = W.doc_oracle(rt, W.Z2_DOC)
    return {"z2_norms": {str(r): W.solve_window(rt, P2, O2, r)[2].norm
                         for r in W.WINDOW_Z2_RADII}}


def freeze_orbit(rt, W) -> dict:
    P, O, action, ball6 = W.orbit_inputs(rt)
    ball8 = rt.cayley.truncated_ball(P, O, 8, 1)
    separations = {}
    for g in ball6:
        for wr in W.ORBIT_W_RADII:
            key = W.jsonable(W.separation_key(rt.corridor.check_separated(
                P, O, action, [g], W.ORBIT_FACTOR, W.ORBIT_N, W.ORBIT_M,
                w_radius=wr)))
            if key != W.SEPARATED:
                separations[W.separation_ref_key(g, wr)] = key
    stretch = rt.corridor.check_uniform_flare(
        P, O, action, ball6, W.ORBIT_FACTOR, W.ORBIT_N, W.ORBIT_M)
    return {"ball8": {"vertices": ball8.vertex_count,
                      "sha256": W.ball_digest(ball8)},
            "separations": separations,
            "criterion6": W.jsonable(W.separation_key(stretch))}


def freeze_cli(rt, W, areas) -> dict:
    W.write_cli_docs(rt)
    argvs = list(W.CLI_FIXED) + list(W.CLI_HEAVY)
    for entries in W.cli_universe(areas).values():
        argvs += entries
    out = {}
    for argv in argvs:
        (rc, sha), _ = W.cli_result(W.run_cli(rt, argv))
        if rc != 0:
            raise SystemExit(f"freeze: {argv} exited with {rc}")
        out[W.argv_text(argv)] = sha
    return out


def main() -> int:
    run.pin_environment()
    sys.path.insert(0, str(run.SRC))
    import harness
    import workloads as W

    rt = harness.load_relhyp()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        ref = {"fill": freeze_fill(rt, W)}
        ref["window"] = freeze_window(rt, W)
        ref["orbit"] = freeze_orbit(rt, W)
        ref["cli"] = freeze_cli(rt, W, ref["fill"]["areas"])
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(ref, sort_keys=True, indent=0) + "\n")
    print(f"wrote {run.REFERENCE}: {len(ref['fill']['areas'])} loop areas, "
          f"{len(ref['fill']['heavy'])} heavy, "
          f"{len(ref['orbit']['separations'])} non-separated checks, "
          f"{len(ref['cli'])} CLI digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
