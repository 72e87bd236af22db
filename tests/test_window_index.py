"""Windows pinned at the sizes the benchmark solves: cells, boundaries,
interiors, coboundaries and primitives, over every oracle kind
and a plugin-style oracle whose key is the normal form.  The window kernel
may change how it computes these, not what."""

from fractions import Fraction
import hashlib
import json

from relhyp import oracle as ora
from relhyp.cochain import (
    CellId,
    Chain,
    Cochain,
    Infeasible,
    boundary_chain,
    build_window,
    coboundary,
    min_linf_primitive,
    relator_indicator_family,
    window_to_json,
)
from relhyp.errors import LpSolverError
from relhyp.presentation import Word
from relhyp.presets import (
    free_product_zz,
    x_squared,
    z2,
    z_example,
    zmod2_star,
)


class _PluginStyleOracle(ora.NormalFormOracle):
    """Normal forms only, every other query left to the base class, which
    reads letter codes from the presentation it keeps as P."""

    def __init__(self, inner):
        self.inner = inner
        self.P = inner.P

    def normal_form(self, w: Word) -> Word:
        return self.inner.normal_form(w)


def _plugin_style():
    P, O = z_example()
    return P, _PluginStyleOracle(O)


def _solution_text(cert) -> str:
    if isinstance(cert, Infeasible):
        return repr(("infeasible", sorted(f.sort_key() for f in cert.witness)))
    return repr(("primitive", repr(cert.norm), cert.exact,
                 sorted((c.sort_key(), repr(v))
                        for c, v in cert.m.values.items())))


def _cochain_text(c: Cochain) -> str:
    return repr((c.dim, sorted((cell.sort_key(), repr(v))
                               for cell, v in c.values.items())))


def _window_text(W) -> list:
    parts = [json.dumps(window_to_json(W), sort_keys=True),
             repr(sorted(f.sort_key() for f in W.interior))]
    zero = Cochain(0, {v: i % 5 - 2
                       for i, v in enumerate(W.cells_of_dim(0)) if i % 5 != 2})
    one = Cochain(1, {e: Fraction(i % 7 - 3, 2)
                      for i, e in enumerate(W.cells_of_dim(1)) if i % 7 != 3})
    parts += [_cochain_text(coboundary(W, c)) for c in (zero, one)]
    faces = sorted(W.interior_relator_faces, key=CellId.sort_key)
    D = Chain(2, {f: 1 + i % 3 for i, f in enumerate(faces)})
    bd = boundary_chain(W, D)
    parts.append(repr(sorted((c.sort_key(), v) for c, v in bd.coeffs.items())))
    targets = [relator_indicator_family()(W),
               Cochain(2, {f: 1 + i % 2 for i, f in enumerate(faces)})]
    for z in targets:
        for exact in (False, True):
            try:
                parts.append(_solution_text(
                    min_linf_primitive(W, z, exact=exact)))
            except LpSolverError as err:
                parts.append(repr(("error", str(err))))
    return parts


CASES = [(z_example, 16, 1), (z_example, 3, 2), (z2, 16, 1),
         (zmod2_star, 3, 1), (free_product_zz, 2, 1), (x_squared, 2, 0),
         (_plugin_style, 3, 1)]


def test_windows_at_benchmark_sizes_are_pinned():
    digest = hashlib.sha256()
    for build, radius, rho in CASES:
        P, O = build()
        W = build_window(P, O, radius=radius, rho=rho)
        for part in _window_text(W):
            digest.update(part.encode())
    assert digest.hexdigest() == \
        "9df4b0910f2fa38231dd8ecbca6ed65f2754af5d0dd521efe4ae53b76f35102c"
