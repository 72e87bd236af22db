"""Per-layer tracing from outside the program.

The traced run replaces the public entry points of each relhyp module with
wrappers that open a span around the call, and hands the program oracles
wrapped in a counting proxy.  Spans nest on a stack, so a layer's self time
is its span minus the spans of the calls it made into other traced
functions.  Spans are folded into per-(phase, name) totals as they close, so
the cost per span stays flat however many oracle calls a job makes.

Nothing here changes what the program computes: the harness checks that the
traced answers equal the untraced ones.
"""

from __future__ import annotations

import functools
import random
import statistics
import sys
import time
from collections import defaultdict

# the layer boundaries that get a span: (module, public functions)
TRACED = {
    "presentation": ("parse_document",),
    "oracle": ("build_oracle",),
    "cayley": ("truncated_ball", "rel_length", "geodesic_witness"),
    "filling": ("relative_area", "replay_certificate", "dehn_profile"),
    "cochain": ("build_window", "min_linf_primitive"),
    "corridor": ("check_separated", "check_uniform_flare",
                 "corridor_cocycle_pairing"),
    "cli": ("main",),
}

ORACLE_METHODS = ("normal_form", "element_key", "is_trivial", "equal",
                  "coset_key")

CLI_SUBCOMMANDS = ("parse", "ball", "length", "area", "dehn-profile",
                   "window-lp", "flare", "corridor")


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self._stack: list[float] = []
        # (phase, span name) -> [calls, inclusive s, self s]
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])
        # (phase, counter name) -> total
        self.counts = defaultdict(int)

    def call(self, name, fn, args, kwargs):
        stack = self._stack
        stack.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            child = stack.pop()
            if stack:
                stack[-1] += dt
            rec = self.spans[(self.phase, name)]
            rec[0] += 1
            rec[1] += dt
            rec[2] += dt - child

    def _wrap(self, name, fn, name_of=None, counters=None, result_of=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name_of(args, kwargs) if name_of else name
            result = self.call(span, fn, args, kwargs)
            if counters:
                for key, value in counters(args, kwargs, result):
                    self.counts[(self.phase, key)] += value
            return result_of(result) if result_of else result
        return traced

    def install(self, rt):
        """Patch every relhyp module namespace that holds a traced function,
        with build_oracle handing out counting proxies; returns a function
        that undoes it."""
        hooks = dict(_HOOKS)
        hooks["oracle.build_oracle"] = {
            "result_of": lambda oracle: CountingOracle(oracle, self)}
        wrappers = {}
        for layer, names in TRACED.items():
            module = getattr(rt, layer)
            for fname in names:
                orig = getattr(module, fname)
                name = f"{layer}.{fname}"
                wrappers[id(orig)] = (orig, self._wrap(
                    name, orig, **hooks.get(name, {})))
        patched = []
        for modname, module in list(sys.modules.items()):
            if not (modname == "relhyp" or modname.startswith("relhyp.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    patched.append((module, attr, value))

        def restore():
            for module, attr, value in patched:
                setattr(module, attr, value)
        return restore

    # ------------------------------------------------------------------
    # reading the totals

    def mean_ms(self, name):
        """Mean inclusive milliseconds per call over every phase."""
        calls = secs = 0
        for (phase, span), (n, incl, _) in self.spans.items():
            if span == name:
                calls += n
                secs += incl
        return 1000.0 * secs / calls if calls else 0.0


class CountingOracle:
    """Forwards every attribute of the wrapped oracle (``kind`` included, so
    dispatch on it is unchanged) and records a span per word-problem call."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def normal_form(self, w):
        return self._tracer.call("oracle.normal_form",
                                 self._inner.normal_form, (w,), {})

    def element_key(self, w):
        return self._tracer.call("oracle.element_key",
                                 self._inner.element_key, (w,), {})

    def is_trivial(self, w):
        return self._tracer.call("oracle.is_trivial",
                                 self._inner.is_trivial, (w,), {})

    def equal(self, a, b):
        return self._tracer.call("oracle.equal", self._inner.equal,
                                 (a, b), {})

    def coset_key(self, w, lam):
        return self._tracer.call("oracle.coset_key", self._inner.coset_key,
                                 (w, lam), {})


def _lp_size(args, kwargs, result):
    W = args[0] if args else kwargs["W"]
    return (("cochain.min_linf_primitive.lp_vars",
             sum(1 for c in W.cells_of_dim(1) if not c.is_lbar)),
            ("cochain.min_linf_primitive.lp_rows",
             len(W.interior_relator_faces)))


def _lp_mode(args, kwargs):
    exact = kwargs.get("exact", args[2] if len(args) > 2 else False)
    return "cochain.min_linf_primitive." + ("exact" if exact else "float")


def _cli_name(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.main.{argv[0]}" if argv else "cli.main"


_HOOKS = {
    "filling.relative_area": {"counters": lambda a, k, r: (
        ("filling.relative_area.trace_moves", len(r.trace)),)
        if hasattr(r, "trace") else ()},
    "cochain.build_window": {"counters": lambda a, k, r: (
        ("cochain.build_window.cells",
         sum(len(cs) for cs in r.cells.values())),)},
    "cochain.min_linf_primitive": {"name_of": _lp_mode,
                                   "counters": _lp_size},
    "cli.main": {"name_of": _cli_name},
}


# ---------------------------------------------------------------------------
# kernel probes (run untraced)


def probe_free_reduce_ns_per_letter(rt, seed: int, repeats: int = 5) -> float:
    """free_reduce time per input letter on a seeded word set mixing
    peripheral merges (z_example) and free cancellations (f2)."""
    pres = rt.presentation
    rng = random.Random(seed)
    Pz, _ = rt.presets.z_example()
    Pf, _ = rt.presets.f2()
    zl = [pres.HLetter(lam, (k,)) for lam in (1, 2)
          for k in (-2, -1, 1, 2)]
    fl = [pres.XLetter(s, e) for s in ("x", "y") for e in (1, -1)]
    words = []
    for _ in range(1000):
        words.append((Pz, pres.Word(tuple(
            rng.choice(zl) for _ in range(rng.randint(4, 24))))))
        words.append((Pf, pres.Word(tuple(
            rng.choice(fl) for _ in range(rng.randint(4, 24))))))
    letters = sum(len(w) for _, w in words)
    times = []
    for _ in range(repeats):
        fr = rt.presentation.free_reduce
        t0 = time.perf_counter()
        for P, w in words:
            fr(P, w)
        times.append(time.perf_counter() - t0)
    return 1e9 * statistics.median(times) / letters


def probe_ball_vertices_per_s(rt, repeats: int = 3) -> float:
    """truncated_ball vertices per second on the f2 radius-8 ball."""
    P, O = rt.presets.f2()
    rates = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        ball = rt.cayley.truncated_ball(P, O, 8, 1)
        rates.append(ball.vertex_count / (time.perf_counter() - t0))
    return statistics.median(rates)
