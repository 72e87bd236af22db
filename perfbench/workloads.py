"""The four workloads: fill, window, orbit and cli.

Each ``setup_<name>(rt, seed, ref, tiny)`` builds one pass of jobs from the
seed and returns a ``Plan``.  ``rt`` holds the relhyp modules; jobs look
functions up on those module objects when they run, so the traced run's
wrappers are the ones called.  ``ref`` is the frozen reference (see
``freeze.py``); ``tiny`` shrinks the pass for the self-test.

Heavy jobs, whose cost dwarfs the rest, are the same in every pass and do
not depend on the seed: one of them decides a large share of a pass's time,
and a seeded pick among heavy jobs of unequal cost would make the figures
jump from seed to seed.  The seed picks the many light jobs within fixed
per-stratum counts, and the order of the whole pass; on ``window`` every
job is fixed and the seed only orders the pass.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable


@dataclass
class Job:
    label: str
    run: Callable[[], object]
    # untimed: turn run()'s result into (key, detail); keys are compared
    # across passes and between the traced and untraced runs
    finish: Callable[[object], tuple]
    # untimed, once per run on the last pass: is the answer right?
    check: Callable[[object, object], bool]


@dataclass
class Plan:
    jobs: list
    info: dict = field(default_factory=dict)


def word_text(w) -> str:
    """Loop-literal text of a word (the CLI's ``--loop`` syntax)."""
    out = []
    for l in w:
        if hasattr(l, "sym"):
            out.append(l.sym if l.sign > 0 else l.sym + "^-1")
        elif isinstance(l.elem, tuple) and len(l.elem) == 1:
            out.append(f"h{l.lam}^{l.elem[0]}")
        else:
            out.append(f"h{l.lam}^{json.dumps(l.elem)}")
    return " ".join(out)


def _shuffled(rng, jobs):
    rng.shuffle(jobs)
    return jobs


def _count(n: int, tiny: bool) -> int:
    return max(1, n // 10) if tiny else n


def doc_oracle(rt, doc: dict):
    P, cfg = rt.presentation.parse_document(json.dumps(doc))
    return P, rt.oracle.build_oracle(P, cfg)


# ---------------------------------------------------------------------------
# fill: the filling search on the criterion-7 loop class

# trivial loops per pass, shared among the area classes in proportion to
# the class's 2121 trivial loops (about 21% area 0, 24% each area 1 and 2,
# 20% area 3, 7% area 4, 3% area 5, 1% area 6), with at least
# FILL_AREA_FLOOR loops in each of areas 5 and 6 so that the deepest
# searches are always sampled.  Fewer loops leave p90 on a handful of
# drawn loops and let it move by a quarter from seed to seed.
FILL_TRIVIAL_LOOPS = 252
FILL_AREA_FLOOR = {5: 2, 6: 2}
# a loop is heavy when its filling search explores more than this many
# states: about 90 ms and up on a 2-core Xeon, against 0.1-20 ms for the rest
FILL_HEAVY_STATES = 25
# within an area's share, heavy loops take the class's heavy fraction (40
# of 148 area-4 loops, 16 of 64 area-5 loops), as fixed loops spread evenly
# over the class's text order; the eight heavy area-6 loops, commutators of
# 6-9 s each, are left out so that a run holds several passes
FILL_HEAVY_LEFT_OUT = {6}
# nontrivial loops per pass, a little under half of the loops: the median
# job then falls inside the area-0 class rather than on the edge between
# rejected nontrivial loops and the cheapest searches
FILL_NONTRIVIAL = 210
FILL_BUDGET = (6, 8)                 # exact for this class (criterion 7)
FILL_DEHN = (("z_example", {"n_max": 4, "rho": 2}),
             ("x_squared", {"n_max": 10, "rho": 2}))


def exponent_sum(w) -> int:
    return sum(l.elem[0] if l.lam == 1 else -l.elem[0] for l in w)


def fill_allocation(ref) -> dict:
    """(light, heavy) trivial loops of each area class in one pass."""
    areas = ref["fill"]["areas"]
    sizes = Counter(areas.values())
    heavy = Counter(areas[t] for t in ref["fill"]["heavy"])
    total = sum(sizes.values())
    out = {}
    for area in sorted(sizes):
        n = max(round(FILL_TRIVIAL_LOOPS * sizes[area] / total),
                FILL_AREA_FLOOR.get(area, 0))
        h = 0 if area in FILL_HEAVY_LEFT_OUT else \
            round(n * heavy[area] / sizes[area])
        out[area] = (n - h, h)
    return out


def fill_heavy_words(ref) -> list:
    """The heavy loops of each area's share, evenly spaced over the class's
    text order; they do not depend on the seed."""
    out = []
    for area, (_, n) in fill_allocation(ref).items():
        cls = [t for t in ref["fill"]["heavy"]
               if ref["fill"]["areas"][t] == area]
        out += [cls[(2 * i + 1) * len(cls) // (2 * n)] for i in range(n)]
    return out


def _fill_verdict(rt, out):
    if isinstance(out, rt.oracle.Trivial):
        return ("trivial", out.area)
    return (type(out).__name__, getattr(out, "reason", ""))


def profile_key(prof):
    return tuple((prof.entry(n).max_area, prof.entry(n).loop_count,
                  prof.entry(n).exact) for n in range(1, prof.n_max + 1))


def setup_fill(rt, seed, ref, tiny=False) -> Plan:
    rng = random.Random(seed)
    presets = {"z_example": doc_oracle(rt, rt.presets.z_example_doc()),
               "x_squared": doc_oracle(rt, rt.presets.x_squared_doc())}
    P, O = presets["z_example"]
    areas = ref["fill"]["areas"]
    heavy = set(ref["fill"]["heavy"])
    by_area: dict[int, list] = {}
    for text in sorted(areas):
        if text not in heavy:
            by_area.setdefault(areas[text], []).append(text)
    picks = []
    for area, (light, _) in fill_allocation(ref).items():
        picks += rng.sample(by_area[area], _count(light, tiny))
    if not tiny:
        picks += fill_heavy_words(ref)
    max_area, max_len = FILL_BUDGET

    def trivial_job(text):
        w = rt.cli.loop_literal_parse(P, text)
        want = areas[text]

        def check(key, _):
            if exponent_sum(w) != 0 or key != ("trivial", want):
                return False
            cert = rt.filling.relative_area(P, O, w, max_area=max_area,
                                            max_len=max_len)
            return (isinstance(cert, rt.filling.FillingCertificate)
                    and cert.area == want
                    and rt.filling.replay_certificate(P, cert).is_empty)
        return Job(f"trivial-area{want}",
                   lambda: rt.oracle.budgeted_word_problem(
                       P, w, max_area, max_len),
                   lambda out: (_fill_verdict(rt, out), None), check)

    def nontrivial_job(w):
        # the search alone never certifies nontriviality: Unknown is right
        return Job("nontrivial",
                   lambda: rt.oracle.budgeted_word_problem(
                       P, w, max_area, max_len),
                   lambda out: (_fill_verdict(rt, out), None),
                   lambda key, _: exponent_sum(w) != 0
                   and key[0] == "Unknown")

    letters = [rt.presentation.HLetter(lam, (k,)) for lam in (1, 2)
               for k in range(-3, 4) if k]
    nontrivial = []
    while len(nontrivial) < _count(FILL_NONTRIVIAL, tiny):
        n = rng.choices(range(5), weights=[12 ** k for k in range(5)])[0]
        w = rt.presentation.Word(tuple(rng.choice(letters) for _ in range(n)))
        if exponent_sum(w) != 0:
            nontrivial.append(w)

    def dehn_job(name, kw):
        Pd, Od = presets[name]
        want = tuple(tuple(e) for e in ref["fill"]["dehn"][name])
        return Job(f"dehn-{name}",
                   lambda: rt.filling.dehn_profile(Pd, Od, **kw),
                   lambda prof: (profile_key(prof), None),
                   lambda key, _: key == want and all(e[2] for e in key))

    jobs = [trivial_job(t) for t in picks]
    jobs += [nontrivial_job(w) for w in nontrivial]
    jobs += [dehn_job(name, kw) for name, kw in
             (FILL_DEHN[:1] if tiny else FILL_DEHN)]
    hist = Counter(areas[t] for t in picks)
    return Plan(_shuffled(rng, jobs), {
        "area_histogram": {str(a): hist[a] for a in sorted(hist)},
        "nontrivial_loops": len(nontrivial)})


# ---------------------------------------------------------------------------
# window: windowed cochains and the sup-norm LP

Z2_DOC = {
    "x": ["x", "y"],
    "models": [],
    "relators": [[{"x": "x", "sign": 1}, {"x": "y", "sign": 1},
                  {"x": "x", "sign": -1}, {"x": "y", "sign": -1}]],
    "oracle": {"kind": "integer_quotient", "dim": 2,
               "x_images": {"x": [1, 0], "y": [0, 1]}},
}
WINDOW_Z_WIDTHS = tuple(range(2, 33, 2))   # float, norm = width / 4
WINDOW_Z_PER_WIDTH = 4
WINDOW_EXACT_WIDTHS = (8, 12, 16)
# four large Z^2 windows, and 29 small ones in equal shares of radii 1..3
# (drawn radii moved the median by 10% from seed to seed)
WINDOW_Z2_FIXED = (4, 8, 12, 16)
WINDOW_Z2_SMALL = 29
WINDOW_Z2_RADII = tuple(range(1, 17))


def _norm_key(cert):
    if not hasattr(cert, "norm"):
        return (type(cert).__name__,)
    return ("exact", str(cert.norm)) if cert.exact \
        else ("float", round(cert.norm, 9))


def solve_window(rt, P, O, radius, exact=False):
    W = rt.cochain.build_window(P, O, radius=radius, rho=1)
    z = rt.cochain.relator_indicator_family()(W)
    return W, z, rt.cochain.min_linf_primitive(W, z, exact=exact)


def _primitive_holds(W, z, m, norm) -> bool:
    """delta m = z on every interior relator face, and |m| <= norm."""
    for f in W.interior_relator_faces:
        dm = sum(s * m.get(e) for e, s in W.boundary[f])
        if abs(dm - z.get(f)) > 1e-6:
            return False
    return all(abs(v) <= norm + 1e-6 for v in m.values.values())


def setup_window(rt, seed, ref, tiny=False) -> Plan:
    rng = random.Random(seed)
    P, O = doc_oracle(rt, rt.presets.z_example_doc())
    P2, O2 = doc_oracle(rt, Z2_DOC)

    def z_job(width, exact):
        def check(key, detail):
            cert = detail
            if exact:
                return cert.exact and cert.norm == Fraction(width, 4) \
                    and type(cert.norm) is Fraction
            return abs(cert.norm - width / 4) <= 1e-6
        return Job(f"z-{'exact' if exact else 'float'}",
                   lambda: solve_window(rt, P, O, width // 2, exact)[2],
                   lambda cert: (_norm_key(cert), cert), check)

    def z2_job(radius):
        want = ref["window"]["z2_norms"][str(radius)]
        return Job("z2-float", lambda: solve_window(rt, P2, O2, radius),
                   lambda out: (_norm_key(out[2]), out),
                   lambda key, out: key[0] == "float"
                   and abs(out[2].norm - want) <= 1e-6
                   and _primitive_holds(out[0], out[1], out[2].m, want))

    if tiny:
        widths = rng.sample(WINDOW_Z_WIDTHS[:8], 4)
        radii = [1, 2, rng.randint(1, 4)]
        exact = WINDOW_EXACT_WIDTHS[:1]
    else:
        widths = [w for w in WINDOW_Z_WIDTHS
                  for _ in range(WINDOW_Z_PER_WIDTH)]
        radii = list(WINDOW_Z2_FIXED) + [1 + i % 3 for i in
                                         range(WINDOW_Z2_SMALL)]
        exact = WINDOW_EXACT_WIDTHS
    jobs = [z_job(w, False) for w in widths]
    jobs += [z_job(w, True) for w in exact]
    jobs += [z2_job(r) for r in radii]
    return Plan(_shuffled(rng, jobs), {"z2_radii": sorted(radii)})


# ---------------------------------------------------------------------------
# orbit: balls, corridors and flares for the stretching action on F_2

ORBIT_FACTOR = Fraction("1.2")
ORBIT_N, ORBIT_M = 2, 3
ORBIT_W_RADII = (1, 2)
ORBIT_IDENTITY_FACTORS = ("1.01", "1.2", "2", "10")
ORBIT_PAIRINGS = 40


def ball_digest(ball) -> str:
    h = hashlib.sha256()
    for v, d in zip(ball.vertices, ball.depths):
        h.update(f"{word_text(v)}|{d}\n".encode())
    for s, l, t in ball.edges:
        h.update(f"{s} {word_text((l,))} {t}\n".encode())
    return h.hexdigest()


def separation_key(rep):
    return (rep.verdict,
            tuple((word_text(g), list(w), list(u), list(v), list(lens))
                  for g, w, u, v, lens in rep.violations),
            len(rep.indeterminate))


# the frozen reference lists only the (element, w_radius) checks that do not
# come out like this
SEPARATED = ["separated", [], 0]


def separation_ref_key(g, w_radius) -> str:
    return f"{w_radius}|{word_text(g)}"


def jsonable(key):
    return json.loads(json.dumps(key))


def orbit_inputs(rt):
    P, O = doc_oracle(rt, rt.presets.f2_doc())
    action = rt.corridor.parse_action(P, rt.presets.f2_stretch_action_doc())
    ball6 = list(rt.cayley.truncated_ball(P, O, 6, 1).vertices)
    return P, O, action, ball6


def setup_orbit(rt, seed, ref, tiny=False) -> Plan:
    rng = random.Random(seed)
    P, O, action, ball6 = orbit_inputs(rt)
    R = ref["orbit"]
    ident = rt.presets.identity_action(P)
    small = [g for g in ball6 if len(g) <= 4]

    def separation_job(g, w_radius):
        want = R["separations"].get(separation_ref_key(g, w_radius),
                                    SEPARATED)
        return Job(f"separated-w{w_radius}",
                   lambda: rt.corridor.check_separated(
                       P, O, action, [g], ORBIT_FACTOR, ORBIT_N, ORBIT_M,
                       w_radius=w_radius),
                   lambda rep: (separation_key(rep), None),
                   lambda key, _: jsonable(key) == want)

    def identity_job(factor):
        def check(key, _):
            verdict, violations, indet = key
            return verdict == "violated" and violations and indet == 0 \
                and all(max(lens[1:]) <= lens[0]
                        for *_, lens in violations)
        return Job("identity-flare",
                   lambda: rt.corridor.check_uniform_flare(
                       P, O, ident, small, Fraction(factor), ORBIT_N,
                       ORBIT_M),
                   lambda rep: (separation_key(rep), None), check)

    def pairing_job(g, u, v):
        return Job("pairing",
                   lambda: rt.corridor.corridor_cocycle_pairing(
                       P, O, action, g, u, v),
                   lambda rep: ((rep.lhs, rep.rhs, rep.indeterminate), None),
                   lambda key, _: not key[2] and key[0] == key[1])

    stretch = R["criterion6"]
    jobs = [Job("stretch-flare-radius6",
                lambda: rt.corridor.check_uniform_flare(
                    P, O, action, ball6, ORBIT_FACTOR, ORBIT_N, ORBIT_M),
                lambda rep: (separation_key(rep), None),
                lambda key, _: jsonable(key) == stretch)]
    if not tiny:
        want = R["ball8"]
        jobs.append(Job("ball-radius8",
                        lambda: rt.cayley.truncated_ball(P, O, 8, 1),
                        lambda b: ((b.vertex_count, len(b.edges)), b),
                        lambda key, b: key[0] == want["vertices"]
                        and ball_digest(b) == want["sha256"]))
    sample = rng.sample(ball6, 40) if tiny else ball6
    jobs += [separation_job(g, rng.choice(ORBIT_W_RADII)) for g in sample]
    jobs += [identity_job(f) for f in ORBIT_IDENTITY_FACTORS]
    syms = [rt.presentation.XLetter(s, e) for s in ("x", "y") for e in (1, -1)]
    for _ in range(_count(ORBIT_PAIRINGS, tiny)):
        g = rt.presentation.Word(tuple(rng.choice(syms)
                                       for _ in range(rng.randint(0, 6))))
        u = tuple(rng.choice((1, -1)) for _ in range(rng.randint(0, 4)))
        v = tuple(rng.choice((1, -1)) for _ in range(rng.randint(0, 4)))
        jobs.append(pairing_job(g, u, v))
    return Plan(_shuffled(rng, jobs), {"ball6_vertices": len(ball6)})


# ---------------------------------------------------------------------------
# cli: the eight subcommands in-process, through cli.main with --output

CLI_DOCS = {
    "z.json": "z_example_doc", "f2.json": "f2_doc",
    "xs.json": "x_squared_doc", "zz.json": "free_product_zz_doc",
    "zm2.json": "zmod2_star_doc", "action.json": "f2_stretch_action_doc",
}
CLI_OUTPUT = "out.txt"
ACTION_ARGS = ("--action", "action.json")

# the same in every pass: one light job the self-test can corrupt, then the
# heavy and medium ones, all above the sizes of the acceptance CLI matrix
CLI_FIXED = (("parse", "--input", "z.json"),)
_FLARE = ("flare", "--input", "f2.json", *ACTION_ARGS, "--min-length", "3")
CLI_HEAVY = (
    ("ball", "--input", "f2.json", "--radius", "8"),
    ("ball", "--input", "f2.json", "--radius", "8", "--format", "csv"),
    ("window-lp", "--input", "z.json", "--exact", "--radii", "8"),
    (*_FLARE, "--factor", "1.2", "--distance", "2", "--g-radius", "6"),
    # medium
    ("ball", "--input", "f2.json", "--radius", "5"),
    ("ball", "--input", "f2.json", "--radius", "5", "--format", "csv"),
    ("ball", "--input", "f2.json", "--radius", "4"),
    ("ball", "--input", "zz.json", "--radius", "4"),
    ("window-lp", "--input", "z.json", "--exact", "--radii", "4"),
    ("window-lp", "--input", "z.json", "--radii", "4,8,12,16"),
    ("window-lp", "--input", "z.json", "--radii", "12,16"),
    (*_FLARE, "--factor", "1.2", "--distance", "2", "--g-radius", "5"),
    (*_FLARE, "--factor", "1.2", "--distance", "2", "--g-radius", "4",
     "--w-radius", "1"),
    (*_FLARE, "--factor", "2", "--distance", "1", "--g-radius", "4"),
)
# light invocations per pass, drawn evenly over each subcommand's catalogue.
# window-lp (3 entries) and flare (16) take whole multiples of theirs: their
# dearest light entries, 16-21 ms on a 2-core Xeon, are the jobs just below
# the fixed ones, and a seeded mix of them moved p90 by 15% from seed to
# seed.  The cheap light jobs (3-6 ms) are enough of the pass that p90 falls
# among those 16-21 ms jobs rather than in the sparse gap above them.
CLI_PER_PASS = {"parse": 14, "ball": 20, "length": 30, "area": 24,
                "dehn-profile": 14, "window-lp": 9, "flare": 16,
                "corridor": 30}


def _f2_words(max_len):
    letters = ("x", "x^-1", "y", "y^-1")
    inv = {"x": "x^-1", "x^-1": "x", "y": "y^-1", "y^-1": "y"}
    words = [[]]
    out = []
    for _ in range(max_len):
        words = [w + [l] for w in words for l in letters
                 if not w or inv[w[-1]] != l]
        out += [" ".join(w) for w in words]
    return out


def cli_universe(ref_areas) -> dict:
    """Every light invocation a pass may draw, by subcommand (each well
    under the cost of the medium fixed ones)."""
    z_letters = [f"h{lam}^{k}" for lam in (1, 2) for k in (-2, -1, 1, 2)]
    z_loops = z_letters + [f"{a} {b}" for a in z_letters for b in z_letters]
    area_loops = sorted(t for t, a in ref_areas.items()
                        if 2 <= len(t.split()) <= 3 and a <= 3
                        and all(abs(int(tok.split("^")[1])) <= 2
                                for tok in t.split()))
    return {
        "parse": [("parse", "--input", d) for d in CLI_DOCS
                  if d != "action.json"],
        "ball": [("ball", "--input", d, "--radius", str(r), *fmt)
                 for d in ("f2.json", "zz.json", "zm2.json", "z.json")
                 for r in ((1, 2) if d == "f2.json" else (1, 2, 3))
                 for fmt in ((), ("--format", "csv"))],
        "length": [("length", "--input", "z.json", "--loop", t)
                   for t in z_loops] +
                  [("length", "--input", "f2.json", "--loop", t)
                   for t in _f2_words(3)],
        "area": [("area", "--input", "z.json", "--loop", t)
                 for t in area_loops],
        "dehn-profile":
            [("dehn-profile", "--input", "z.json", "--n-max", str(n),
              "--peripheral-bound", str(b)) for n in (1, 2, 3)
             for b in (1, 2)] +
            [("dehn-profile", "--input", "xs.json", "--n-max", str(n))
             for n in range(2, 11)] +
            [("dehn-profile", "--input", "zz.json", "--n-max", str(n),
              "--peripheral-bound", "1") for n in (2, 3, 4)],
        "window-lp":
            [("window-lp", "--input", "z.json", "--radii", radii)
             for radii in ("4", "8", "4,8")],
        "flare": [(*_FLARE, "--factor", fac, "--distance", str(d),
                   "--g-radius", str(g), *wr)
                  for g in (2, 3) for d in (1, 2) for fac in ("1.2", "2")
                  for wr in ((), ("--w-radius", "1"))],
        "corridor": [("corridor", "--input", "f2.json", *ACTION_ARGS,
                      "--loop", t, "--depth", str(n))
                     for t in _f2_words(3) for n in (1, 2, 3)],
    }


def _even_draw(rng, catalogue, k) -> list:
    """k entries of the catalogue, each drawn as often as any other give or
    take one."""
    return list(catalogue) * (k // len(catalogue)) + \
        rng.sample(catalogue, k % len(catalogue))


def argv_text(argv) -> str:
    return json.dumps(list(argv))


def write_cli_docs(rt):
    """The input documents, into the working directory: the CLI echoes the
    paths it is given, so they stay relative for the outputs to be
    reproducible."""
    for name, builder in CLI_DOCS.items():
        Path(name).write_text(json.dumps(getattr(rt.presets, builder)()))


def run_cli(rt, argv) -> int:
    return rt.cli.main(list(argv) + ["--output", CLI_OUTPUT])


def cli_result(rc):
    """((exit code, SHA-256 of the output), output size).  The output is
    removed once read, so that every invocation writes a new file: ext4
    flushes a file truncated and rewritten in place to disk when it is
    closed, which would time the disk rather than the program."""
    out = Path(CLI_OUTPUT)
    data = out.read_bytes() if rc == 0 else b""
    out.unlink(missing_ok=True)
    return (rc, hashlib.sha256(data).hexdigest()), len(data)


def setup_cli(rt, seed, ref, tiny=False) -> Plan:
    """Runs in the benchmark's scratch directory, which holds the inputs."""
    rng = random.Random(seed)
    write_cli_docs(rt)
    shas = ref["cli"]
    universe = cli_universe(ref["fill"]["areas"])

    def cli_job(argv):
        want = shas[argv_text(argv)]
        return Job(f"cli-{argv[0]}", lambda: run_cli(rt, argv), cli_result,
                   lambda key, _: key == (0, want))

    picks = list(CLI_FIXED) + ([] if tiny else list(CLI_HEAVY))
    for sub, n in CLI_PER_PASS.items():
        picks += _even_draw(rng, universe[sub], _count(n, tiny))
    return Plan(_shuffled(rng, [cli_job(a) for a in picks]),
                {"invocations": dict(Counter(a[0] for a in picks))})


WORKLOADS = {"fill": setup_fill, "window": setup_window,
             "orbit": setup_orbit, "cli": setup_cli}


def corrupt_reference(name: str, ref: dict):
    """Alter one reference answer that every pass of the workload checks
    (self-test only)."""
    if name == "fill":
        ref["fill"]["dehn"]["z_example"][-1][0] += 1
    elif name == "window":
        ref["window"]["z2_norms"]["1"] += 0.5
    elif name == "orbit":
        ref["orbit"]["criterion6"][0] = "separated"
    else:
        ref["cli"][argv_text(CLI_FIXED[0])] = "0" * 64
