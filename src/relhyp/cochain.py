"""Finite windows of the relative two-complex: cells, boundary maps,
(co)chains, bounded-primitive linear programs, and path-gain potentials.

The complex has one vertex orbit for the group, one vertex orbit per
peripheral factor (identified along cosets), edges for free generators,
edges tying a group element to its coset vertices, weight-zero peripheral
edges, one 2-cell orbit per relator, and multiplication 2-cells for finite
peripheral factors.  A Window materializes the finite fragment of this
complex over a truncated ball and records which 2-cells have their entire
boundary inside the fragment; linear programs and path searches only ever
constrain those interior cells.  Every cell takes its boundary from one
rule, applied to the window's cells and then to the rim edges that its
faces reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .cayley import truncated_ball
from .errors import LpSolverError
from .presentation import (
    FiniteTableModel,
    RelativePresentation,
    Word,
    XLetter,
    encode_word,
)

# cell kinds, by dimension
BASE_VERTEX = "base_vertex"
COSET_VERTEX = "coset_vertex"
GEN_EDGE = "gen_edge"
COSET_EDGE = "coset_edge"
PERIPHERAL_EDGE = "peripheral_edge"
RELATOR_FACE = "relator_face"
PERIPHERAL_FACE = "peripheral_face"

_DIM = {
    BASE_VERTEX: 0,
    COSET_VERTEX: 0,
    GEN_EDGE: 1,
    COSET_EDGE: 1,
    PERIPHERAL_EDGE: 1,
    RELATOR_FACE: 2,
    PERIPHERAL_FACE: 2,
}

# cells belonging to the peripheral subcomplex (invisible to relative
# cochains and carrying zero length)
_LBAR_KINDS = frozenset({PERIPHERAL_EDGE, PERIPHERAL_FACE})


@dataclass(frozen=True, slots=True)
class CellId:
    kind: str
    translate: Word
    data: tuple = ()
    # kept at first use, as Word keeps its own; slots, because with an
    # attribute set after __init__ each instance would carry a dict of its
    # own (about 300 bytes more per cell)
    _hash: int = field(default=None, init=False, repr=False, compare=False)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.kind, self.translate, self.data))
            object.__setattr__(self, "_hash", h)
        return h

    @property
    def dim(self) -> int:
        return _DIM[self.kind]

    @property
    def is_lbar(self) -> bool:
        return self.kind in _LBAR_KINDS

    def sort_key(self):
        return (self.dim, self.kind, self.translate.sort_key(), self.data)


def base_vertex(g: Word) -> CellId:
    return CellId(BASE_VERTEX, g)


def coset_vertex(lam: int, rep: Word) -> CellId:
    return CellId(COSET_VERTEX, rep, (lam,))


def gen_edge(sym: str, g: Word) -> CellId:
    return CellId(GEN_EDGE, g, (sym,))


def coset_edge(lam: int, g: Word) -> CellId:
    return CellId(COSET_EDGE, g, (lam,))


def peripheral_edge(lam: int, rep: Word, h) -> CellId:
    return CellId(PERIPHERAL_EDGE, rep, (lam, h))


def relator_face(r: int, g: Word) -> CellId:
    return CellId(RELATOR_FACE, g, (r,))


def peripheral_face(lam: int, rep: Word, a, b) -> CellId:
    return CellId(PERIPHERAL_FACE, rep, (lam, a, b))


# ---------------------------------------------------------------------------
# windows


@dataclass(frozen=True)
class Window:
    P: RelativePresentation = field(compare=False)
    O: object = field(compare=False)
    radius: int
    rho: int
    cells: dict = field(compare=False)      # dim -> tuple of CellId, sorted
    boundary: dict = field(compare=False)   # CellId -> ((CellId, sign), ...)
    coset_reps: dict = field(compare=False)  # lam -> {coset key -> Word}
    home: Word = field(compare=False, default=None)

    @cached_property
    def cell_set(self) -> frozenset:
        return frozenset(c for cs in self.cells.values() for c in cs)

    @cached_property
    def interior(self) -> frozenset:
        """The 2-cells whose whole boundary lies in the window."""
        cset = self.cell_set
        return frozenset(f for f in self.cells_of_dim(2)
                         if all(c in cset for c, _ in self.boundary[f]))

    def cells_of_dim(self, dim: int) -> tuple:
        return self.cells.get(dim, ())

    @cached_property
    def interior_relator_faces(self) -> tuple:
        return tuple(c for c in self.cells_of_dim(2)
                     if c in self.interior and c.kind == RELATOR_FACE)

    @cached_property
    def adjacency(self) -> dict:
        """vertex -> its (1-cell, +-1, other end) steps, sorted by cell; an
        edge whose boundary is not one head and one tail is left out
        (weight-zero peripheral loops never change a path gain)."""
        adj: dict[CellId, list] = {}
        for e in self.cells_of_dim(1):
            bd = self.boundary.get(e, ())
            pos = [c for c, s in bd if s > 0]
            neg = [c for c, s in bd if s < 0]
            if len(pos) != 1 or len(neg) != 1:
                continue
            head, tail = pos[0], neg[0]
            adj.setdefault(tail, []).append((e, +1, head))
            adj.setdefault(head, []).append((e, -1, tail))
        for v in adj:
            adj[v].sort(key=lambda t: (t[0].sort_key(), t[1]))
        return adj

    def coset_rep(self, lam: int, g: Word) -> Word:
        return _coset_rep(self.O, self.coset_reps, lam, g)

    def boundary_l1_bound(self) -> int:
        """Finite bound on the l1 norm of any 2-cell boundary: free letters
        contribute one edge, peripheral letters up to three."""
        per_rel = [sum(1 if isinstance(l, XLetter) else 3 for l in R)
                   for R in self.P.relators]
        finite = [3]  # multiplication cells have three boundary edges
        return max(per_rel + finite)


def _coset_rep(O, reps: dict, lam: int, g: Word) -> Word:
    """The chosen representative of the coset g H_lam, else g's normal form."""
    rep = reps[lam].get(O.coset_key(g, lam))
    return O.normal_form(g) if rep is None else rep


def _signed(terms) -> tuple:
    """(cell, sign) terms as a boundary chain: summed, zeros dropped, sorted."""
    coeffs: dict[CellId, int] = {}
    for cell, s in terms:
        coeffs[cell] = coeffs.get(cell, 0) + s
    return tuple(sorted(((c, s) for c, s in coeffs.items() if s),
                        key=lambda kv: kv[0].sort_key()))


def _trace_relator(P: RelativePresentation, O, reps, times, r_idx: int,
                   g: Word):
    """Signed boundary 1-chain of the relator 2-cell at translate g; times(v,
    l) is the normal form of v l."""
    terms = []
    cur = g
    for l in P.relators[r_idx]:
        nxt = times(cur, l)
        if isinstance(l, XLetter):
            terms.append((gen_edge(l.sym, cur if l.sign > 0 else nxt), l.sign))
        else:
            rep = _coset_rep(O, reps, l.lam, cur)
            terms += [(coset_edge(l.lam, cur), +1),
                      (peripheral_edge(l.lam, rep, l.elem), +1),
                      (coset_edge(l.lam, nxt), -1)]
        cur = nxt
    return _signed(terms)


def build_window(P: RelativePresentation, O, radius: int, rho: int,
                 max_vertices: int | None = None) -> Window:
    """All cell translates over the ball of the given radius; peripheral
    edges carry only elements of model length <= rho."""
    ball = truncated_ball(P, O, radius, rho, max_vertices=max_vertices)
    V = list(ball.vertices)
    home = V[0]
    labels = sorted(P.models)

    # every product v l is taken once, starting from the ball's own edges,
    # so that products land on the ball's vertex objects
    products = {(V[i], l): V[j] for i, l, j in ball.edges}

    def times(v: Word, l) -> Word:
        t = products.get((v, l))
        if t is None:
            t = products[(v, l)] = O.normal_form(v + Word((l,)))
        return t

    forward = {sym: XLetter(sym, 1) for sym in P.x_symbols}
    bases: dict[Word, None] = dict.fromkeys(V)
    for g in V:
        for l in forward.values():
            bases.setdefault(times(g, l))
    base_list = list(bases)

    reps: dict[int, dict] = {}
    for lam in labels:
        groups: dict = {}
        for g in base_list:
            groups.setdefault(O.coset_key(g, lam), []).append(g)
        reps[lam] = {key: min(ws, key=Word.sort_key)
                     for key, ws in groups.items()}

    def boundary_of(c: CellId) -> tuple:
        g = c.translate
        if c.kind == GEN_EDGE:
            t = times(g, forward[c.data[0]])
            return ((base_vertex(t), +1), (base_vertex(g), -1))
        if c.kind == COSET_EDGE:
            lam = c.data[0]
            return ((coset_vertex(lam, _coset_rep(O, reps, lam, g)), +1),
                    (base_vertex(g), -1))
        if c.kind == RELATOR_FACE:
            return _trace_relator(P, O, reps, times, c.data[0], g)
        if c.kind == PERIPHERAL_FACE:
            lam, a, b = c.data
            model = P.models[lam]
            terms = [(peripheral_edge(lam, g, a), +1),
                     (peripheral_edge(lam, g, b), +1)]
            ab = model.product(a, b)
            if not model.is_identity(ab):
                terms.append((peripheral_edge(lam, g, ab), -1))
            return _signed(terms)
        return ()

    seen_cosets = {lam: sorted({_coset_rep(O, reps, lam, g) for g in V},
                               key=Word.sort_key) for lam in labels}
    zero = [base_vertex(g) for g in base_list]
    zero += [coset_vertex(lam, rep) for lam in labels
             for rep in seen_cosets[lam]]

    one: list[CellId] = []
    for g in V:
        one += [gen_edge(sym, g) for sym in P.x_symbols]
        one += [coset_edge(lam, g) for lam in labels]
    for lam in labels:
        elems = list(P.models[lam].elements_up_to(rho))
        one += [peripheral_edge(lam, rep, h)
                for rep in seen_cosets[lam] for h in elems]

    two = [relator_face(r_idx, g)
           for g in V for r_idx in range(len(P.relators))]
    for lam in labels:
        if isinstance(P.models[lam], FiniteTableModel):
            elems = P.models[lam].generators()
            two += [peripheral_face(lam, rep, a, b)
                    for rep in seen_cosets[lam] for a in elems for b in elems]

    boundary = {c: boundary_of(c) for c in one + two}
    # faces on the rim reference edges past the window; give those edges
    # their boundaries too so that dd = 0 holds on every face
    for f in two:
        for e, _ in boundary[f]:
            if e not in boundary:
                boundary[e] = boundary_of(e)

    cells = {
        0: tuple(sorted(set(zero), key=CellId.sort_key)),
        1: tuple(sorted(set(one), key=CellId.sort_key)),
        2: tuple(sorted(set(two), key=CellId.sort_key)),
    }
    return Window(P=P, O=O, radius=radius, rho=rho, cells=cells,
                  boundary=boundary, coset_reps=reps, home=home)


def window_to_json(W: Window) -> dict:
    idx: dict[CellId, int] = {}
    cell_docs = []
    for dim in (0, 1, 2):
        for c in W.cells_of_dim(dim):
            idx[c] = len(cell_docs)
            data = [list(d) if isinstance(d, tuple) else d for d in c.data]
            cell_docs.append({"dim": dim, "kind": c.kind,
                              "translate": encode_word(W.P, c.translate),
                              "data": data,
                              "lbar": c.is_lbar})
    triplets = []
    for c in list(W.cells_of_dim(1)) + list(W.cells_of_dim(2)):
        for b, s in W.boundary.get(c, ()):
            if b in idx:
                triplets.append([idx[c], idx[b], s])
    return {
        "radius": W.radius,
        "peripheral_bound": W.rho,
        "cells": cell_docs,
        "boundary": triplets,
        "interior": sorted(idx[c] for c in W.interior),
    }


# ---------------------------------------------------------------------------
# chains and cochains


def _clean(values: dict) -> dict:
    return {c: v for c, v in values.items() if v != 0}


@dataclass(frozen=True)
class Chain:
    dim: int
    coeffs: dict = field(default_factory=dict)

    def get(self, cell: CellId):
        return self.coeffs.get(cell, 0)


@dataclass(frozen=True)
class Cochain:
    dim: int
    values: dict = field(default_factory=dict)

    def get(self, cell: CellId):
        return self.values.get(cell, 0)

    @property
    def norm(self):
        vals = [abs(v) for v in self.values.values()]
        return max(vals) if vals else 0

    @property
    def is_relative(self) -> bool:
        return all(v == 0 for c, v in self.values.items() if c.is_lbar)


def cochain_add(a: Cochain, b: Cochain) -> Cochain:
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    out = dict(a.values)
    for c, v in b.values.items():
        out[c] = out.get(c, 0) + v
    return Cochain(a.dim, _clean(out))


def cochain_scale(a: Cochain, s) -> Cochain:
    return Cochain(a.dim, _clean({c: s * v for c, v in a.values.items()}))


def boundary_chain(W: Window, D: Chain) -> Chain:
    out: dict[CellId, object] = {}
    for cell, coef in D.coeffs.items():
        for b, s in W.boundary.get(cell, ()):
            out[b] = out.get(b, 0) + s * coef
    return Chain(D.dim - 1, _clean(out))


def coboundary(W: Window, c: Cochain) -> Cochain:
    """(delta c)(e) = c(boundary e), on window cells whose boundary stays in
    the window."""
    out: dict[CellId, object] = {}
    if c.dim == 0:
        targets = W.cells_of_dim(1)
    elif c.dim == 1:
        targets = [f for f in W.cells_of_dim(2) if f in W.interior]
    else:
        return Cochain(c.dim + 1, {})
    # by construction every boundary cell of these targets is in the window
    for e in targets:
        val = sum(s * c.get(b) for b, s in W.boundary[e])
        if val:
            out[e] = val
    return Cochain(c.dim + 1, out)


def pair(z: Cochain, D: Chain):
    """Evaluation of a cochain against a chain of the same dimension."""
    if z.dim != D.dim:
        raise ValueError("dimension mismatch")
    return sum(z.get(cell) * coef for cell, coef in D.coeffs.items())


def rel_weight(cell: CellId):
    """Length weight of a 1-cell: free edges 1, coset edges 1/2, peripheral
    edges 0."""
    if cell.dim != 1:
        raise ValueError("weights are defined on 1-cells")
    if cell.kind == GEN_EDGE:
        return 1
    if cell.kind == COSET_EDGE:
        return Fraction(1, 2)
    return 0


def chain_rel_length(D: Chain):
    return sum(abs(c) * rel_weight(cell) for cell, c in D.coeffs.items())


# ---------------------------------------------------------------------------
# cocycle families


def relator_indicator_family(value=1):
    """z assigning `value` to every relator 2-cell of the window."""
    def build(W: Window) -> Cochain:
        return Cochain(2, {f: value for f in W.cells_of_dim(2)
                           if f.kind == RELATOR_FACE})
    return build


def zero_family():
    def build(W: Window) -> Cochain:
        return Cochain(2, {})
    return build


def coboundary_family(h_builder):
    """z = delta h for a 1-cochain produced per window by h_builder."""
    def build(W: Window) -> Cochain:
        return coboundary(W, h_builder(W))
    return build


# ---------------------------------------------------------------------------
# minimal bounded primitives


@dataclass(frozen=True)
class Primitive:
    m: Cochain
    norm: object
    exact: bool


@dataclass(frozen=True)
class Infeasible:
    witness: tuple


def linprog(c, **kwargs):
    """scipy's linprog, imported at the first LP: most commands never solve
    one, and importing scipy.optimize dominates start-up."""
    from scipy.optimize import linprog as solve
    return solve(c, **kwargs)


def min_linf_primitive(W: Window, z: Cochain, exact: bool = False):
    """Minimize the sup norm of a relative 1-cochain m with (delta m) = z on
    every interior relator 2-cell of the window.

    HiGHS solves the program in floating point.  With exact=True the answer
    is a rational Primitive or Infeasible only when an exact certificate
    checks (see _certified); otherwise LpSolverError is raised.  The
    constraint matrices go to HiGHS as scipy.sparse arrays."""
    import numpy as np
    from scipy.sparse import coo_array
    if z.dim != 2:
        raise ValueError("target must be a 2-cochain")
    if not z.is_relative:
        raise ValueError("target cochain must vanish on peripheral cells")
    variables = [c for c in W.cells_of_dim(1) if not c.is_lbar]
    var_idx = {c: i for i, c in enumerate(variables)}
    faces = list(W.interior_relator_faces)
    rows = []
    rhs = []
    for f in faces:
        row = {}
        for b, s in W.boundary[f]:
            if b.is_lbar:
                continue
            row[var_idx[b]] = row.get(var_idx[b], 0) + s
        rows.append(row)
        rhs.append(z.get(f))
    n = len(variables)
    # |m_j| <= t as rows 2j: m_j - t <= 0 and 2j+1: -m_j - t <= 0, where t
    # is column n
    var, tcol = np.arange(n), np.full(n, n)
    A_ub = coo_array((np.tile([1.0, -1.0, -1.0, -1.0], n),
                      (np.repeat(np.arange(2 * n), 2),
                       np.column_stack([var, tcol, var, tcol]).ravel())),
                     shape=(2 * n, n + 1))
    A_eq = coo_array(([float(s) for row in rows for s in row.values()],
                      ([i for i, row in enumerate(rows) for _ in row],
                       [col for row in rows for col in row])),
                     shape=(len(rows), n + 1))
    b_eq = np.array([float(v) for v in rhs])
    b_ub = np.zeros(2 * n)
    c = np.zeros(n + 1)
    c[n] = 1.0
    res = linprog(c, A_ub=A_ub, b_ub=b_ub,
                  A_eq=A_eq if len(rows) else None,
                  b_eq=b_eq if len(rows) else None,
                  bounds=[(None, None)] * n + [(0, None)],
                  method="highs")
    if exact:
        return _certified(variables, rows, [Fraction(v) for v in rhs], faces,
                          res, A_eq, b_eq)
    if res.status == 2:
        return Infeasible(witness=tuple(faces))
    if res.status != 0:
        raise LpSolverError(f"solver failed with status {res.status}: "
                            f"{res.message}")
    m = Cochain(1, _clean({variables[j]: float(res.x[j]) for j in range(n)}))
    return Primitive(m=m, norm=float(res.x[n]), exact=False)


# denominator bounds tried, smallest first, when reading a HiGHS solution
# back as rationals; the certificate checks decide which one is right.  m and
# y are rounded at one bound together: a coarse bound can turn m alone into
# another primitive of larger norm, which no rounding of y then matches
_DENOMINATOR_LADDER = (1, 2, 4, 8, 16, 64, 256, 1024, 10 ** 6)


def _rounded(values, bound: int) -> list:
    return [Fraction(float(v)).limit_denominator(bound) for v in values]


def _apply(rows, m) -> list:
    """B m, for B given as one {column: coefficient} dict per row."""
    return [sum(s * m[j] for j, s in row.items()) for row in rows]


def _apply_transpose(rows, y, n: int) -> list:
    out = [0] * n
    for row, yi in zip(rows, y):
        for j, s in row.items():
            out[j] += s * yi
    return out


def _dot(a, b):
    return sum(u * v for u, v in zip(a, b))


def _certified(variables, rows, z, faces, res, A_eq, b_eq):
    """Exact verdict from the HiGHS run, or LpSolverError.

    An optimum counts once rational m and equality duals y satisfy B m = z,
    ||B^T y||_1 <= 1 and <z, y> = max |m_j|: weak duality,
    <z, y> = <m', B^T y> <= ||m'||_inf for every primitive m', proves m
    optimal, and y is the isoperimetric witness for its norm.  Infeasibility
    counts once some y has B^T y = 0 and <z, y> != 0 (Farkas), read from the
    least-squares residual z - B m, which is orthogonal to the columns of B.
    """
    n = len(variables)
    if res.status == 0:
        for bound in _DENOMINATOR_LADDER:
            m = _rounded(res.x[:n], bound)
            y = _rounded(res.eqlin.marginals, bound)
            norm = max(map(abs, m), default=Fraction(0))
            if _apply(rows, m) == z and _dot(z, y) == norm and \
                    sum(map(abs, _apply_transpose(rows, y, n))) <= 1:
                return Primitive(m=Cochain(1, _clean(dict(zip(variables, m)))),
                                 norm=norm, exact=True)
    elif res.status == 2:
        import numpy as np
        B = A_eq.toarray()[:, :n]
        residual = b_eq - B @ np.linalg.lstsq(B, b_eq, rcond=None)[0]
        for bound in _DENOMINATOR_LADDER:
            y = _rounded(residual, bound)
            if _dot(z, y) != 0 and not any(_apply_transpose(rows, y, n)):
                return Infeasible(witness=tuple(faces))
    raise LpSolverError(f"no exact certificate for the solver result "
                        f"(status {res.status}: {res.message})")


# ---------------------------------------------------------------------------
# growth scans


@dataclass(frozen=True)
class GrowthScan:
    rows: tuple            # (width, optimal norm)
    slope: float
    verdict: str           # "bounded-consistent" or "linear-growth-witness"
    exact: bool


def growth_scan(P: RelativePresentation, O, z_builder, widths, rho: int = 1,
                exact: bool = False) -> GrowthScan:
    """Optimal primitive norms across windows of the given widths (window
    width w means ball radius w // 2)."""
    import numpy as np
    widths = list(widths)
    norms = []
    for width in widths:
        W = build_window(P, O, radius=width // 2, rho=rho)
        cert = min_linf_primitive(W, z_builder(W), exact=exact)
        if isinstance(cert, Infeasible):
            raise LpSolverError(
                f"no primitive exists on the window of width {width}")
        norms.append(cert.norm)
    rows = tuple(zip(widths, norms))
    floats = [float(v) for v in norms]
    if len(set(widths)) >= 2:
        slope = float(np.polyfit([float(w) for w in widths], floats, 1)[0])
    else:
        slope = 0.0
    increasing = all(b > a + 1e-9 for a, b in zip(floats, floats[1:]))
    verdict = "linear-growth-witness" if increasing and len(floats) >= 2 \
        else "bounded-consistent"
    return GrowthScan(rows=rows, slope=slope, verdict=verdict, exact=exact)


# ---------------------------------------------------------------------------
# path gains and potentials


def path_gain(W: Window, path, m: Cochain, z: Cochain, C):
    """Gain of an edge path: pairing with m minus C * ||z|| * weighted
    length.  `path` is a sequence of (1-cell, +-1) steps."""
    total_m = 0
    total_len = 0
    for cell, sign in path:
        if cell.dim != 1:
            raise ValueError("paths are made of 1-cells")
        if cell not in W.cell_set:
            raise ValueError(f"path leaves the window at {cell}")
        total_m += sign * m.get(cell)
        total_len += rel_weight(cell)
    return total_m - C * z.norm * total_len


def windowed_max_nu(W: Window, m: Cochain, z: Cochain, C, start: CellId,
                    end: CellId, cap: int):
    """Maximum gain over simple edge paths (each 1-cell used once) from
    start to end with at most `cap` steps; peripheral loop edges are skipped
    since they contribute nothing for relative m."""
    for v in (start, end):
        if v.dim != 0 or v not in W.cell_set:
            raise ValueError(f"endpoint {v} is not a window vertex")
    adj = W.adjacency
    znorm = z.norm
    best: list = [None, None]   # value, path

    def consider(value, path):
        if best[0] is None or value > best[0] or \
                (value == best[0] and len(path) < len(best[1])):
            best[0] = value
            best[1] = tuple(path)

    path: list = []
    used: set = set()

    def dfs(v, gain, length):
        if v == end:
            consider(gain - C * znorm * length, path)
        if len(path) == cap:
            return
        for e, sign, t in adj.get(v, ()):
            if e in used:
                continue
            used.add(e)
            path.append((e, sign))
            dfs(t, gain + sign * m.get(e), length + rel_weight(e))
            path.pop()
            used.discard(e)

    dfs(start, 0, 0)
    if best[0] is None:
        raise ValueError(f"no path from {start} to {end} within {cap} steps")
    return best[0], best[1]


def relative_correction(W: Window, m: Cochain, z: Cochain, C, cap: int):
    """Potential d from windowed maximal gains into each vertex, and the
    corrected cochain k = -m + delta d (relative by construction: peripheral
    edges have zero boundary here, so delta d vanishes on them)."""
    start = base_vertex(W.home)
    d_vals = {}
    for v in W.cells_of_dim(0):
        val, _ = windowed_max_nu(W, m, z, C, start, v, cap)
        if val:
            d_vals[v] = val
    d = Cochain(0, d_vals)
    k = cochain_add(cochain_scale(m, -1), coboundary(W, d))
    return d, k
