"""The part of the program that the benchmark reads, checked fast: the
tracer and the window workload under perfbench/, loaded by path (both
import only the standard library), run on one small window."""

import importlib
import importlib.util
from pathlib import Path
import sys
from types import SimpleNamespace

from relhyp import cochain
from relhyp.presets import z_example

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class body runs
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _load("tracing")
    for layer, names in tracing.TRACED.items():
        module = importlib.import_module(f"relhyp.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"


def test_window_probes_read_a_radius_two_window():
    tracing, workloads = _load("tracing"), _load("workloads")
    P, O = z_example()
    W, z, cert = workloads.solve_window(SimpleNamespace(cochain=cochain),
                                        P, O, 2)
    assert workloads._primitive_holds(W, z, cert.m, cert.norm)
    assert not workloads._primitive_holds(W, z, cochain.Cochain(1, {}), 0)
    # the 10 coset edges of the 5 ball vertices, and the 4 interior faces
    assert dict(tracing._lp_size((W, z), {}, cert)) == {
        "cochain.min_linf_primitive.lp_vars": 10,
        "cochain.min_linf_primitive.lp_rows": 4}
    count = tracing._HOOKS["cochain.build_window"]["counters"]
    assert dict(count((P, O), {"radius": 2, "rho": 1}, W)) == {
        "cochain.build_window.cells": W.size}
    assert W.size == sum(map(len, W.cells.values())) < len(W.cell_key)
