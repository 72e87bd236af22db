"""Finite windows of the relative two-complex: cells, boundary maps,
(co)chains and bounded-primitive linear programs.

The complex has one vertex orbit for the group, one vertex orbit per
peripheral factor (identified along cosets), edges for free generators,
edges tying a group element to its coset vertices, weight-zero peripheral
edges, one 2-cell orbit per relator, and multiplication 2-cells for finite
peripheral factors.  A Window materializes the finite fragment of this
complex over a truncated ball and records which 2-cells have their entire
boundary inside the fragment; linear programs only ever constrain those
interior cells.  Every cell takes its boundary from one rule, applied to
the window's cells and then to the rim edges that its faces reference.

A window is built on integers.  Its vertices are numbered by element key,
starting from the ball's walk, and every product with a letter is one
``O.step`` on a key by the letter's ``P.alphabet`` code, taken once per
(vertex, code); each vertex is written out as a word once, and each
(vertex, label) pair asks the oracle for its coset once, from the key.
Cells are numbered in sorted order, window cells first, and boundaries are
kept as compressed rows of cell numbers and signs: that integer table is
the window, on which (co)boundaries, linear programs and certificates run.
CellIds are made only where cells are named to a caller: by the Window
properties that list them or look them up, for relator_indicator_family's
faces, for the relator faces whose z a linear program reads, and for the
cells of the chains and cochains returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from importlib.machinery import (
    EXTENSION_SUFFIXES,
    ExtensionFileLoader,
    FileFinder,
)
import importlib.util
import math
import os
import sys
from types import SimpleNamespace

from .cayley import ball_alphabet
from .errors import LpSolverError
from .presentation import (
    FiniteTableModel,
    RelativePresentation,
    Word,
    XLetter,
)

# the cell kinds in CellId.sort_key order, (dim, kind); the last word of a
# kind names its dimension.  A window numbers its cells by (kind code,
# vertex rank, data), which is the same order.
_KINDS = ("base_vertex", "coset_vertex", "coset_edge", "gen_edge",
          "peripheral_edge", "peripheral_face", "relator_face")
(BASE_VERTEX, COSET_VERTEX, COSET_EDGE, GEN_EDGE, PERIPHERAL_EDGE,
 PERIPHERAL_FACE, RELATOR_FACE) = _KINDS
_BV, _CV, _CE, _GE, _PE, _PF, _RF = range(len(_KINDS))
_DIM = {k: ("vertex", "edge", "face").index(k.rpartition("_")[2])
        for k in _KINDS}

# cells belonging to the peripheral subcomplex (invisible to relative
# cochains and carrying zero length)
_LBAR_KINDS = frozenset({PERIPHERAL_EDGE, PERIPHERAL_FACE})


@dataclass(frozen=True, slots=True)
class CellId:
    kind: str
    translate: Word
    data: tuple = ()

    @property
    def dim(self) -> int:
        return _DIM[self.kind]

    @property
    def is_lbar(self) -> bool:
        return self.kind in _LBAR_KINDS

    def sort_key(self):
        return (self.dim, self.kind, self.translate.sort_key(), self.data)


# ---------------------------------------------------------------------------
# windows


@dataclass(frozen=True, eq=False)
class Window:
    """A window of the complex, as one integer cell table.  Cells 0 to
    ``size`` - 1 are the window's, those of dimension d from ``starts[d]``
    on, in CellId.sort_key order; then come the rim cells that its faces
    reach, sorted likewise.  ``cell_key[n]`` is cell n as (kind code,
    vertex, data), and vertex v is the element ``words[v]``.  The boundary
    of cell n is ``bd_cell``/``bd_sign`` over ``indptr[n]:indptr[n + 1]``:
    an edge's is (head, +1), (tail, -1), a face's is summed and sorted by
    cell.  ``inner`` lists the interior 2-cells by number.  The properties
    that give CellIds make them at their first read, the rim's only for
    ``cell_ids``, ``numbers`` and ``boundary``."""

    P: RelativePresentation
    radius: int
    rho: int
    size: int
    starts: tuple = field(repr=False)
    words: tuple = field(repr=False)
    cell_key: tuple = field(repr=False)
    indptr: tuple = field(repr=False)
    bd_cell: tuple = field(repr=False)
    bd_sign: tuple = field(repr=False)
    inner: tuple = field(repr=False)

    def terms(self, n: int):
        """The boundary of cell n as (cell number, sign) pairs."""
        a, b = self.indptr[n], self.indptr[n + 1]
        return zip(self.bd_cell[a:b], self.bd_sign[a:b])

    def _ids(self, numbers) -> tuple:
        """The CellIds of these cell numbers."""
        words = self.words
        return tuple(CellId(_KINDS[k], words[v], data) for k, v, data
                     in map(self.cell_key.__getitem__, numbers))

    def _named(self, values: dict) -> dict:
        """{cell number: value} as {CellId: value}, in the same order."""
        return dict(zip(self._ids(values), values.values()))

    @cached_property
    def cells(self) -> dict:
        """dim -> the window's CellIds of that dimension, in cell order."""
        s = self.starts
        return {d: self._ids(range(s[d], s[d + 1])) for d in range(3)}

    @cached_property
    def cell_ids(self) -> tuple:
        """CellId by cell number, the window's and then the rim's."""
        return sum(self.cells.values(), ()) + \
            self._ids(range(self.size, len(self.cell_key)))

    @cached_property
    def numbers(self) -> dict:
        """CellId -> cell number, for the chains a caller passes in."""
        return {c: n for n, c in enumerate(self.cell_ids)}

    @cached_property
    def boundary(self) -> dict:
        """CellId -> ((CellId, sign), ...) for the window's 1- and 2-cells and
        the rim edges that its faces reach."""
        ids = self.cell_ids
        return {ids[n]: tuple((ids[b], s) for b, s in self.terms(n))
                for n, (k, _, _) in enumerate(self.cell_key) if k >= _CE}

    @cached_property
    def interior(self) -> frozenset:
        """The 2-cells whose whole boundary lies in the window."""
        return frozenset(self._ids(self.inner))

    def cells_of_dim(self, dim: int) -> tuple:
        return self.cells.get(dim, ())

    def relator_rows(self) -> list:
        """The interior relator faces by number, in cell order."""
        return [f for f in self.inner if self.cell_key[f][0] == _RF]

    @cached_property
    def interior_relator_faces(self) -> tuple:
        return self._ids(self.relator_rows())


def _inverse(perm: list) -> list:
    """The inverse of a permutation of range(len(perm))."""
    inv = [0] * len(perm)
    for k, n in enumerate(perm):
        inv[n] = k
    return inv


def build_window(P: RelativePresentation, O, radius: int, rho: int,
                 max_vertices: int | None = None) -> Window:
    """All cell translates over the ball of the given radius; peripheral
    edges carry only elements of model length <= rho."""
    A = P.alphabet
    index, _, ball_edges = O.walk(A.encode(ball_alphabet(P, rho)), radius,
                                  max_vertices)
    keys = list(index)
    words = list(map(O.word, keys))
    n_ball = len(keys)
    labels = sorted(P.models)
    forward = {sym: A.intern(XLetter(sym, 1)) for sym in P.x_symbols}
    relators = [list(zip(A.encode(R), R)) for R in P.relators]
    products = {(i, c): j for i, c, j in ball_edges}

    def times(i: int, c: int) -> int:
        """The vertex v_i times code c's letter, numbered when first met."""
        t = products.get((i, c))
        if t is None:
            key = O.step(keys[i], c)
            t = index.get(key)
            if t is None:
                t = index[key] = len(keys)
                keys.append(key)
                words.append(O.word(key))
            products[(i, c)] = t
        return t

    for i in range(n_ball):
        for c in forward.values():
            times(i, c)
    n_base = len(keys)

    # each coset met by a base vertex is represented by its least one
    order_key = [w.sort_key() for w in words]
    by_word = sorted(range(n_base), key=order_key.__getitem__, reverse=True)
    reps: dict[int, dict] = {}      # lam -> {coset key: vertex}
    base_rep: dict[int, list] = {}  # lam -> [representative of base vertex]
    rim_rep: dict = {}              # (lam, vertex past the base) -> its own
    for lam in labels:
        cosets = [O.coset_of_key(keys[i], lam) for i in range(n_base)]
        # the least vertex of a coset comes last, so it is the one kept
        reps[lam] = best = {cosets[i]: i for i in by_word}
        base_rep[lam] = [best[k] for k in cosets]

    def rep(lam: int, i: int) -> int:
        if i < n_base:
            return base_rep[lam][i]
        if (lam, i) not in rim_rep:
            rim_rep[lam, i] = reps[lam].get(O.coset_of_key(keys[i], lam), i)
        return rim_rep[lam, i]

    # the window's cells, each once, a dimension at a time; base vertex i
    # is cell i
    seen = {lam: sorted({rep(lam, i) for i in range(n_ball)})
            for lam in labels}
    raw: list = [(_BV, i, ()) for i in range(n_base)]
    raw += [(_CV, r, (lam,)) for lam in labels for r in seen[lam]]
    n0 = len(raw)
    raw += [(_GE, i, (sym,)) for i in range(n_ball) for sym in P.x_symbols]
    raw += [(_CE, i, (lam,)) for lam in labels for i in range(n_ball)]
    raw += [(_PE, r, (lam, h)) for lam in labels
            for h in P.models[lam].elements_up_to(rho) for r in seen[lam]]
    n1 = len(raw) - n0
    raw += [(_RF, i, (k,)) for i in range(n_ball)
            for k in range(len(relators))]
    finite = [(lam, P.models[lam].generators()) for lam in labels
              if isinstance(P.models[lam], FiniteTableModel)]
    raw += [(_PF, r, (lam, a, b)) for lam, gens in finite
            for r in seen[lam] for a in gens for b in gens]
    n_window = len(raw)
    number = {c: n for n, c in enumerate(raw)}  # cell -> its index in raw

    def cell(c) -> int:
        n = number.get(c)
        if n is None:
            n = number[c] = len(raw)
            raw.append(c)
        return n

    def vertex(i: int) -> int:
        return i if i < n_base else cell((_BV, i, ()))

    def face(terms) -> list:
        """(cell, sign) terms summed, zeros dropped."""
        coeffs: dict[int, int] = {}
        for c, s in terms:
            coeffs[c] = coeffs.get(c, 0) + s
        return [(c, s) for c, s in coeffs.items() if s]

    def boundary_of(kind: int, g: int, data: tuple) -> list:
        if kind == _GE:
            return [(vertex(times(g, forward[data[0]])), +1),
                    (vertex(g), -1)]
        if kind == _CE:
            return [(cell((_CV, rep(data[0], g), data)), +1),
                    (vertex(g), -1)]
        if kind == _RF:
            terms = []
            cur = g
            for c, l in relators[data[0]]:
                nxt = times(cur, c)
                if isinstance(l, XLetter):
                    terms.append((cell((_GE, cur if l.sign > 0 else nxt,
                                        (l.sym,))), l.sign))
                else:
                    lam = l.lam
                    terms += [(cell((_CE, cur, (lam,))), +1),
                              (cell((_PE, rep(lam, cur), (lam, l.elem))), +1),
                              (cell((_CE, nxt, (lam,))), -1)]
                cur = nxt
            return face(terms)
        lam, a, b = data
        model = P.models[lam]
        terms = [(cell((_PE, g, (lam, a))), +1),
                 (cell((_PE, g, (lam, b))), +1)]
        ab = model.product(a, b)
        if not model.is_identity(ab):
            terms.append((cell((_PE, g, (lam, ab))), -1))
        return face(terms)

    # rim faces reach edges past the window, whose boundaries are taken too
    # (dd = 0 on every face); vertices and peripheral edges (loops) have none
    bounds = []
    while len(bounds) < len(raw):
        c = raw[len(bounds)]
        bounds.append(boundary_of(*c) if _CE <= c[0] != _PE else ())

    # cells sort as CellId.sort_key does, window cells first: vertices by
    # the rank of their word
    order_key += [w.sort_key() for w in words[len(order_key):]]
    rank = _inverse(sorted(range(len(words)), key=order_key.__getitem__))
    sort_key = [(n >= n_window, k, rank[v], data)
                for n, (k, v, data) in enumerate(raw)]
    order = sorted(range(len(raw)), key=sort_key.__getitem__)
    final = _inverse(order)

    indptr = [0]
    flat: list = []     # every (cell, sign) term, in cell order
    inner = []
    for k, n in enumerate(order):
        terms = [(final[c], s) for c, s in bounds[n]]
        if raw[n][0] >= _PF:
            terms.sort()
            if not terms or terms[-1][0] < n_window:
                inner.append(k)
        flat += terms
        indptr.append(len(flat))
    bd_cell, bd_sign = zip(*flat) if flat else ((), ())

    return Window(P=P, radius=radius, rho=rho, size=n_window,
                  starts=(0, n0, n0 + n1, n_window), words=tuple(words),
                  cell_key=tuple(raw[n] for n in order),
                  indptr=tuple(indptr), bd_cell=bd_cell, bd_sign=bd_sign,
                  inner=tuple(inner))


# ---------------------------------------------------------------------------
# chains and cochains


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


def _boundary(W: Window, chain) -> dict:
    """The boundary of a chain given as (cell number, coefficient) pairs,
    as {cell number: coefficient}, summed, zeros dropped."""
    out: dict[int, object] = {}
    for n, coef in chain:
        for b, s in W.terms(n):
            out[b] = out.get(b, 0) + s * coef
    return {b: v for b, v in out.items() if v}


def boundary_chain(W: Window, D: Chain) -> Chain:
    number, ids = W.numbers, W.cell_ids
    chain = ((number.get(c), v) for c, v in D.coeffs.items())
    bd = _boundary(W, ((n, v) for n, v in chain if n is not None))
    return Chain(D.dim - 1, {ids[b]: v for b, v in bd.items()})


def coboundary(W: Window, c: Cochain) -> Cochain:
    """(delta c)(e) = c(boundary e), on window cells whose boundary stays in
    the window."""
    if c.dim not in (0, 1):
        return Cochain(c.dim + 1, {})
    targets = W.inner if c.dim else range(W.starts[1], W.starts[2])
    first = W.starts[c.dim]
    values = [c.get(cell) for cell in W.cells_of_dim(c.dim)]
    out: dict[int, object] = {}
    # by construction every boundary cell of these targets is in the window
    for e in targets:
        val = sum(s * values[b - first] for b, s in W.terms(e))
        if val:
            out[e] = val
    return Cochain(c.dim + 1, W._named(out))


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


def relator_indicator_family():
    """z assigning 1 to every relator 2-cell of the window."""
    def build(W: Window) -> Cochain:
        keys = W.cell_key
        return Cochain(2, dict.fromkeys(W._ids(
            f for f in range(W.starts[2], W.size) if keys[f][0] == _RF), 1))
    return build


# ---------------------------------------------------------------------------
# minimal bounded primitives


@dataclass(frozen=True)
class Primitive:
    m: Cochain
    norm: object
    exact: bool
    witness: Chain | None = None
    """Exact only: the 2-chain check_isoperimetric_witness replays to norm."""


@dataclass(frozen=True)
class Infeasible:
    witness: tuple
    farkas: Chain | None = None
    """Exact only: the 2-chain check_farkas replays: no primitive exists."""


_HIGHS_CORE = "scipy.optimize._highspy._core"


def _highs_core():
    """The HiGHS binding scipy ships, the extension module
    scipy.optimize._highspy._core, loaded from its file in scipy's
    directory.  Importing it by name would run scipy.optimize's package
    __init__, which loads some 320 scipy modules (sparse, linalg, ...):
    0.4-0.7 s and 49 MB on a 2-core VM, against 5-8 ms and under 3.5 MB for
    the file alone.  The module is registered under its own name, so one
    already imported is reused and a later ``import scipy.optimize`` finds
    this one.  ImportError when scipy or the file is missing."""
    core = sys.modules.get(_HIGHS_CORE)
    if core is not None:
        return core
    scipy = importlib.util.find_spec("scipy")
    for root in (scipy and scipy.submodule_search_locations) or ():
        finder = FileFinder(os.path.join(root, "optimize", "_highspy"),
                            (ExtensionFileLoader, EXTENSION_SUFFIXES))
        spec = finder.find_spec(_HIGHS_CORE)
        if spec is not None:
            core = importlib.util.module_from_spec(spec)
            sys.modules[_HIGHS_CORE] = core
            spec.loader.exec_module(core)
            return core
    raise ImportError(f"No module named {_HIGHS_CORE!r}", name=_HIGHS_CORE)


# linprog's options; (the binding's _Highs class, the process's instance)
_OPTIONS = (("output_flag", False), ("log_to_console", False),
            ("presolve", "on"), ("highs_debug_level", 0),
            ("simplex_strategy", 1))
_solver = None


def linprog(c, *, start, index, value, row_lower, row_upper, col_lower,
            col_upper):
    """Minimize c x subject to row_lower <= A x <= row_upper and
    col_lower <= x <= col_upper, A given by rows: row i has the coefficient
    value[k] in column index[k] for k in start[i]:start[i + 1].

    This is the call scipy's linprog(method="highs") makes into HiGHS, made
    directly through the binding scipy ships: on a window's program,
    linprog's input checks, sparse copies and per-solve option validation
    cost more than the solve.  The process keeps one HiGHS instance of the
    binding's ``_Highs`` class (another class gets a new one) with linprog's
    options (presolve on, the dual simplex, no output) and clears its model
    before each program, which then solves as on a fresh instance; it is
    not for concurrent use (relhyp runs single-threaded).  The statuses are
    linprog's: 0 for an optimum whose columns and rows keep their bounds
    within linprog's tolerance 10 sqrt(1e-9), 2 infeasible, 3 unbounded,
    4 anything else, with HiGHS's model status in the message.
    The result has x, eqlin.marginals (the duals of the rows whose two
    bounds are equal), ray (HiGHS's dual ray on those rows when infeasible,
    else None), status and message.  numpy and the binding are loaded at
    the first LP, as most commands never solve one, and the binding from
    its own file (see _highs_core): scipy.optimize is never imported."""
    import numpy as np
    hs = _highs_core()
    n, m = len(c), len(row_lower)
    # HiGHS reads each array to the length these sizes give
    if not (len(col_lower) == len(col_upper) == n and len(row_upper) == m
            and len(start) == m + 1 and len(index) == len(value) == start[m]):
        raise ValueError("the program's arrays have mismatched lengths")
    global _solver
    if _solver is None or _solver[0] is not hs._Highs:
        _solver = (hs._Highs, hs._Highs())
        for option in _OPTIONS:
            _solver[1].setOptionValue(*option)
    highs = _solver[1]
    highs.clearModel()
    # the arrays go in as buffers; every column is continuous
    passed = highs.passModel(
        n, m, len(value), int(hs.MatrixFormat.kRowwise),
        int(hs.ObjSense.kMinimize), 0.0, c, col_lower, col_upper, row_lower,
        row_upper, start, index, value, np.zeros(n, dtype=np.int32))
    if passed == hs.HighsStatus.kError:
        model = hs.HighsModelStatus.kModelError
    else:
        highs.run()
        model = highs.getModelStatus()
    res = SimpleNamespace(x=None, eqlin=SimpleNamespace(marginals=None),
                          ray=None, status=4, message="HiGHS model status "
                          + highs.modelStatusToString(model))
    if model == hs.HighsModelStatus.kInfeasible:
        res.status = 2
        # getDualRayExist() reads False after presolve, yet the ray is there
        _, has_ray, ray = highs.getDualRay()
        if has_ray:
            res.ray = np.array(ray)[row_lower == row_upper]
    elif model == hs.HighsModelStatus.kUnbounded:
        res.status = 3
    elif model == hs.HighsModelStatus.kOptimal:
        solution = highs.getSolution()
        res.x = x = np.array(solution.col_value)
        rows = np.array(solution.row_value)
        res.eqlin.marginals = \
            np.array(solution.row_dual)[row_lower == row_upper]
        tol = 10 * np.sqrt(1e-9)
        if np.isnan(highs.getInfo().objective_function_value) or not (
                np.all(x >= col_lower - tol) and np.all(x <= col_upper + tol)
                and np.all(rows - row_lower >= -tol)
                and np.all(row_upper - rows >= -tol)):
            res.message += f", but a bound or row is off by over {tol:.2E}"
        else:
            res.status = 0
    return res


def min_linf_primitive(W: Window, z: Cochain, exact: bool = False):
    """Minimize the sup norm of a relative 1-cochain m with (delta m) = z on
    every interior relator 2-cell of the window.

    The program has one column m_j per non-peripheral 1-cell and a last
    column t >= 0, the objective t, box rows 2j: m_j - t <= 0 and
    2j+1: -m_j - t <= 0, and one equality row per interior relator face,
    read off the window's boundary rows.  It goes to HiGHS through
    ``linprog`` row by row: the box rows, then the relator rows.  HiGHS
    solves it in floating point.  With exact=True the answer is a rational
    Primitive or Infeasible only when an exact certificate checks (see
    _certified); otherwise LpSolverError is raised."""
    import numpy as np
    if z.dim != 2:
        raise ValueError("target must be a 2-cochain")
    if not z.is_relative:
        raise ValueError("target cochain must vanish on peripheral cells")
    keys = W.cell_key
    # one column per non-peripheral 1-cell, in cell order
    edges = [e for e in range(W.starts[1], W.starts[2]) if keys[e][0] != _PE]
    column = {e: j for j, e in enumerate(edges)}
    # one row per interior relator face, peripheral edges dropped
    rows = W.relator_rows()
    faces = W._ids(rows)
    zs = dict(zip(rows, map(z.get, faces)))
    indptr, cols, coefs = [0], [], []
    for f in rows:
        for b, s in W.terms(f):
            j = column.get(b)
            if j is not None:
                cols.append(j)
                coefs.append(s)
        indptr.append(len(cols))
    n = len(edges)
    # box rows 2j and 2j+1 hold m_j (+1, then -1) and t (-1)
    box = np.full((n, 4), n, dtype=np.int32)
    box[:, 0] = box[:, 2] = np.arange(n)
    start = np.concatenate([np.arange(0, 4 * n, 2, dtype=np.int32),
                            4 * n + np.array(indptr, dtype=np.int32)])
    index = np.concatenate([box.ravel(), np.array(cols, dtype=np.int32)])
    value = np.concatenate([np.tile([1.0, -1.0, -1.0, -1.0], n),
                            np.array(coefs, dtype=float)])
    b_eq = np.array([float(v) for v in zs.values()])
    row_lower = np.concatenate([np.full(2 * n, -np.inf), b_eq])
    row_upper = np.concatenate([np.zeros(2 * n), b_eq])
    col_lower = np.full(n + 1, -np.inf)
    col_lower[n] = 0.0
    c = np.zeros(n + 1)
    c[n] = 1.0
    res = linprog(c, start=start, index=index, value=value,
                  row_lower=row_lower, row_upper=row_upper,
                  col_lower=col_lower, col_upper=np.full(n + 1, np.inf))
    if exact:
        return _certified(W, zs, edges, faces, res)
    if res.status == 2:
        return Infeasible(witness=faces)
    if res.status != 0:
        raise LpSolverError(f"solver failed with status {res.status}: "
                            f"{res.message}")
    m = {e: v for e, v in zip(edges, res.x[:n].tolist()) if v}
    return Primitive(m=Cochain(1, W._named(m)), norm=float(res.x[n]),
                     exact=False)


def _replay(W: Window, zs: dict, d: dict) -> tuple:
    """(||boundary d||_1 off the peripheral cells, <z, d>) for the 2-chain d
    given as {face number: coefficient}, zs holding z by face number.  The
    boundary is taken on integers: d times its least common denominator."""
    keys = W.cell_key
    ratios = [v.as_integer_ratio() for v in d.values()]
    scale = math.lcm(*(b for _, b in ratios))
    bd = _boundary(W, ((f, a * (scale // b)) for f, (a, b) in zip(d, ratios)))
    return (Fraction(sum(abs(v) for b, v in bd.items() if keys[b][0] != _PE),
                     scale), sum(zs[f] * v for f, v in d.items()))


def _replayed(W: Window, z: Cochain, D: Chain):
    """_replay of D, or None unless D is a 2-chain on interior relator
    faces."""
    if D.dim != 2 or not all(f.kind == RELATOR_FACE and f in W.interior
                             for f in D.coeffs):
        return None
    number = W.numbers
    d = {number[f]: v for f, v in D.coeffs.items()}
    return _replay(W, {n: z.get(f) for f, n in zip(D.coeffs, d)}, d)


def check_isoperimetric_witness(W: Window, z: Cochain, D: Chain):
    """<z, D> if the 2-chain D lies on interior relator faces and
    ||boundary D||_1 <= 1 off the peripheral cells, else None.  Such a D
    bounds every primitive m of z on the window from below (weak duality):
    <z, D> = <delta m, D> = <m, boundary D> <= ||m||_inf."""
    replay = _replayed(W, z, D)
    return replay[1] if replay is not None and replay[0] <= 1 else None


def check_farkas(W: Window, z: Cochain, D: Chain) -> bool:
    """Whether the 2-chain D, on interior relator faces with boundary D = 0
    off the peripheral cells, has <z, D> != 0: then z has no primitive m,
    as <z, D> = <delta m, D> = <m, boundary D> would be 0 (Farkas)."""
    replay = _replayed(W, z, D)
    return replay is not None and replay[0] == 0 and replay[1] != 0


# denominator bounds tried, smallest first, when reading a HiGHS solution
# back as rationals; the checks decide which is right.  m and y share a bound:
# a coarse one can round m alone to a worse primitive that no y then matches
_DENOMINATOR_LADDER = (1, 2, 4, 8, 16, 64, 256, 1024, 10 ** 6)


def _rounded(exact: dict, bound: int) -> dict:
    """cell -> value as a rational of denominator <= bound, zeros dropped."""
    rounded = {c: q.limit_denominator(bound) for c, q in exact.items()}
    return {c: r for c, r in rounded.items() if r}


def _certified(W: Window, zs: dict, edges: list, faces: tuple, res):
    """Exact verdict from the HiGHS run, or LpSolverError.  At each bound
    of the ladder, y (the row duals at an optimum, the dual ray when
    infeasible) is read as a 2-chain D on the relator faces.  An optimum
    counts once D replays, as in check_isoperimetric_witness, to max |m_j|
    of the rational m and delta m = z there, which proves m optimal;
    infeasibility counts once D passes check_farkas's test.  Each float is
    read as a Fraction once, and a rung's D is checked before its delta m,
    all on cell numbers (zs is z by relator face, edges the columns)."""
    y = res.eqlin.marginals if res.status == 0 else res.ray
    if y is not None:
        ys = {f: Fraction(v) for f, v in zip(zs, y.tolist()) if v}
        xs = {} if res.status == 2 else \
            {e: Fraction(v) for e, v in zip(edges, res.x[:-1].tolist()) if v}
        for bound in _DENOMINATOR_LADDER:
            d = _rounded(ys, bound)
            if not d and (res.status == 2 or any(zs.values())):
                continue    # <z, d> = 0: no Farkas chain, no positive norm
            bd, value = _replay(W, zs, d)
            if res.status == 2:
                if bd == 0 and value != 0:
                    return Infeasible(witness=faces,
                                      farkas=Chain(2, W._named(d)))
                continue
            m = _rounded(xs, bound)
            norm = Fraction(max(map(abs, m.values()), default=0))
            if bd <= 1 and value == norm and all(
                    sum(s * m.get(b, 0) for b, s in W.terms(f)) == v
                    for f, v in zs.items()):
                return Primitive(m=Cochain(1, W._named(m)), norm=norm,
                                 exact=True, witness=Chain(2, W._named(d)))
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
    width w means ball radius w // 2), each window solved once.  The rows
    keep the widths' order; the slope is fitted to them sorted by width,
    and the verdict reads each window once, by width."""
    import numpy as np
    widths = list(widths)
    norms: dict = {}    # radius -> the optimal norm on its window
    for width in widths:
        if width // 2 not in norms:
            W = build_window(P, O, radius=width // 2, rho=rho)
            cert = min_linf_primitive(W, z_builder(W), exact=exact)
            if isinstance(cert, Infeasible):
                raise LpSolverError(
                    f"no primitive exists on the window of width {width}")
            norms[width // 2] = cert.norm
    rows = tuple((w, norms[w // 2]) for w in widths)
    fit = sorted(rows)
    slope = float(np.polyfit([float(w) for w, _ in fit],
                             [float(v) for _, v in fit], 1)[0]) \
        if len(set(widths)) >= 2 else 0.0
    floats = [float(norms[r]) for r in sorted(norms)]
    increasing = all(b > a + 1e-9 for a, b in zip(floats, floats[1:]))
    verdict = "linear-growth-witness" if increasing and len(floats) >= 2 \
        else "bounded-consistent"
    return GrowthScan(rows=rows, slope=slope, verdict=verdict, exact=exact)
