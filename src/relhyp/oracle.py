"""Word-problem oracles for groups given by a relative presentation.

An oracle names each element of the presented group by a hashable key and
answers on keys; each derives from NormalFormOracle, whose defaults read
the answers off normal forms.  ``element_key`` names the element of a word,
``word`` writes a key back as the normal form, and ``step(key, c)`` is the
key of the element times the letter whose ``P.alphabet`` code is c: the
one move of every ball walk, loop and corridor sweep, which therefore run on
ints.  ``coset_of_key``, ``rel_length_of_key`` and ``codes_of_key`` give a
key's peripheral coset, relative length and normal form as codes; the
queries on words (``coset_key``, ``rel_length``, ``equal``, ``is_trivial``)
are written once, in the base, on ``element_key``.  Each oracle has its own
key: a normal form by default, a tuple of ``P.alphabet`` codes reduced at
the seam for the free product (codes depend on interning history, so these
keys are compared for equality only and never ordered), a reduced exponent
vector for an integer quotient and an element index for a finite one; the
last two keep the image of each code they have stepped by.  Four kinds are
supported: the ambient free product itself (valid only when there are no
relators), homomorphisms onto subgroups of Z^d, finite quotients given by a
multiplication table, and external plugin executables speaking a
line-delimited JSON protocol.  Construction checks that every relator maps
to the identity; everything else is the caller's trust boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce
import itertools
import json
import operator

from .errors import OracleInvalidError, ParseError, ResourceCapError
from .presentation import (
    APART,
    CANCEL,
    EMPTY_WORD,
    FiniteTableModel,
    FreeAbelianModel,
    HLetter,
    RelativePresentation,
    Word,
    XLetter,
    decode_finite_table,
    decode_word,
    encode_word,
    expect_int,
    expect_json,
    free_reduce,
    int_label,
    int_tuple,
    is_int,
    load_json,
)

# ---------------------------------------------------------------------------
# integer linear algebra over Z (column echelon with recorded transform)


def column_echelon(A: list[list[int]]):
    """Bring A into column echelon form by unimodular column operations.

    Returns (H, V, pivots) with A @ V = H, V unimodular, and pivots a list of
    (row, col) positions; columns at index >= len(pivots) are zero.
    """
    d = len(A)
    m = len(A[0]) if d else 0
    H = [list(row) for row in A]
    V = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    pivots = []
    for row in range(d):
        col = len(pivots)
        piv = next((j for j in range(col, m) if H[row][j] != 0), None)
        if piv is None:
            continue
        _col_swap(H, V, col, piv)
        for j in range(col + 1, m):
            while H[row][j] != 0:
                q = H[row][col] // H[row][j]
                _col_addmul(H, V, col, j, -q)
                _col_swap(H, V, col, j)
        if H[row][col] < 0:
            _col_addmul(H, V, col, col, -2)
        pivots.append((row, col))
    return H, V, pivots


def _col_swap(H, V, a, b):
    if a == b:
        return
    for M in (H, V):
        for r in M:
            r[a], r[b] = r[b], r[a]


def _col_addmul(H, V, dst, src, q):
    for M in (H, V):
        for r in M:
            r[dst] += q * r[src]


def integer_kernel(A: list[list[int]]) -> list[tuple[int, ...]]:
    """Basis of { y : A y = 0 } as a sublattice of Z^m (saturated)."""
    m = len(A[0]) if A else 0
    _, V, pivots = column_echelon(A)
    return [tuple(V[i][j] for i in range(m)) for j in range(len(pivots), m)]


def integer_solver(A: list[list[int]]):
    """``solve(target)``: one integer solution y of A y = target, or None,
    on the column echelon form of A, computed once here."""
    H, V, pivots = column_echelon(A)
    m = len(V)

    def solve(target):
        t = list(target)
        z = [0] * m
        for row, col in pivots:
            if t[row] % H[row][col] != 0:
                return None
            z[col] = t[row] // H[row][col]
            for i in range(len(t)):
                t[i] -= z[col] * H[i][col]
        if any(t):
            return None
        return tuple(sum(V[i][j] * z[j] for j in range(m)) for i in range(m))
    return solve


def row_echelon_lattice(rows: list) -> list[tuple[int, tuple[int, ...]]]:
    """Echelon basis (positive pivots, rows sorted by pivot column) of the
    lattice spanned by the given integer rows, each row as (its pivot
    column, the row), so that reduce_mod looks for no pivots."""
    if not rows:
        return []
    m = len(rows[0])
    A = [[rows[j][i] for j in range(len(rows))] for i in range(m)]  # transpose
    H, _, pivots = column_echelon(A)
    return [(r, tuple(H[i][c] for i in range(m))) for r, c in pivots]


def reduce_mod(ech: list, vec) -> tuple[int, ...]:
    """Canonical representative of vec modulo the lattice with echelon basis
    ech, as row_echelon_lattice gives it."""
    v = list(vec)
    for j, row in ech:
        q = v[j] // row[j]
        if q:
            v = [a - q * b for a, b in zip(v, row)]
    return tuple(v)


# ---------------------------------------------------------------------------
# verdicts


@dataclass(frozen=True)
class Trivial:
    area: int


@dataclass(frozen=True)
class NontrivialCertified:
    witness: Word


@dataclass(frozen=True)
class RelLength:
    """Relative length of an element, as a closed interval that collapses to
    a point when the oracle can answer exactly."""
    lower: int
    upper: int

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError("lower bound exceeds upper bound")

    @classmethod
    @cache
    def exact(cls, n: int) -> "RelLength":
        """The length n: one shared instance per n."""
        return cls(n, n)

    @property
    def is_exact(self) -> bool:
        return self.lower == self.upper

    @property
    def value(self) -> int:
        if not self.is_exact:
            raise ValueError(f"length is only bounded: [{self.lower}, {self.upper}]")
        return self.lower


def _check_relators(P: RelativePresentation, oracle):
    for i, r in enumerate(P.relators):
        if not oracle.normal_form(r).is_empty:
            raise OracleInvalidError(
                f"oracle does not kill relator {i}: {r}")


def _check_image_keys(P: RelativePresentation, x_images, model_images):
    for sym in x_images:
        if sym not in P.x_symbols:
            raise OracleInvalidError(f"image for unknown symbol {sym!r}")
    for lam in model_images:
        if lam not in P.models:
            raise OracleInvalidError(f"image for unknown model label {lam}")


# ---------------------------------------------------------------------------
# the oracle protocol


class NormalFormOracle:
    """Base of every oracle.  Subclasses provide normal_form, which sends
    equal group elements to the same word, and may leave every other query
    to this class.  An oracle keeps its presentation as ``P``; letters are
    stepped by their ``P.alphabet`` codes.  By default an element's key is
    its normal form: ``word`` returns it and ``step(key, c)`` normalizes the
    product with the code's letter.  An oracle with another key overrides
    ``element_key``, ``word`` and ``step``, keeping word(element_key(w)) ==
    normal_form(w) and step(element_key(w), P.alphabet.intern(l)) ==
    element_key(w + l); its normal_form may then be left to the base.
    Queries are answered on keys: ``coset_of_key(key, lam)``,
    ``rel_length_of_key(key)``, ``codes_of_key(key)`` and
    ``geodesic_of_key(key, n)``, by default read off ``word(key)``, are
    what an oracle that knows more overrides.  An oracle proves each exact
    length from a word it can name, and its geodesic gives that word: the
    default length is exact only at 0 or at a one-letter normal form, and
    the default geodesic is the normal form when it has n letters.  The
    queries on words, ``coset_key``, ``rel_length``, ``equal`` and
    ``is_trivial``, are written here once, on ``element_key(w)``.
    ``walk(codes, radius, max_vertices)`` is the breadth-first ball walk,
    by default one ``step`` per edge; an oracle that can step faster on its
    own keys overrides it (the free product does).  Callers reach it as an
    attribute, never by ``kind``, so a proxy that forwards attributes walks
    the same way.
    """

    def close(self):
        """Release what the oracle holds: by default nothing."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def normal_form(self, w: Word) -> Word:
        return self.word(self.element_key(w))

    def element_key(self, w: Word):
        return self.normal_form(w)

    def word(self, key) -> Word:
        return key

    def step(self, key, c: int):
        return self.element_key(
            self.word(key) + Word((self.P.alphabet.letters[c],)))

    def coset_of_key(self, key, lam: int):
        """A key of the coset g H_lam, g the element whose key is ``key``:
        by default its normal form less a last letter of label lam."""
        nf = self.word(key)
        if nf.letters and isinstance(nf[-1], HLetter) and nf[-1].lam == lam:
            nf = Word(nf.letters[:-1])
        return nf

    def rel_length_of_key(self, key) -> RelLength:
        """Relative length of the element whose key is ``key``.  By default
        certified from the normal form alone: 0 for the identity, otherwise
        between 1 and its letter count."""
        nf = self.word(key)
        if nf.is_empty:
            return RelLength.exact(0)
        return RelLength(1, len(nf))

    def codes_of_key(self, key) -> tuple:
        """The ``P.alphabet`` codes of the normal form of ``key``."""
        return self.P.alphabet.encode(self.word(key).letters)

    def geodesic_of_key(self, key, n: int) -> Word | None:
        """A word of n letters for the element whose key is ``key``, given
        that n is its exact relative length: by default the normal form
        when it has n letters, else None."""
        nf = self.word(key)
        return nf if len(nf) == n else None

    def equal(self, a: Word, b: Word) -> bool:
        return self.element_key(a) == self.element_key(b)

    def is_trivial(self, w: Word) -> bool:
        return self.element_key(w) == self.element_key(EMPTY_WORD)

    def coset_key(self, w: Word, lam: int):
        return self.coset_of_key(self.element_key(w), lam)

    def rel_length(self, w: Word) -> RelLength:
        return self.rel_length_of_key(self.element_key(w))

    def walk(self, codes, radius: int, max_vertices: int | None = None):
        """Breadth-first walk from the identity by one ``step`` per edge,
        stepping by the given ``P.alphabet`` codes.

        Returns (index, depths, edges): index maps each element key reached
        to its vertex number, in discovery order; edges are (source, code,
        target) by vertex number, the last layer adding only edges back into
        the ball.  More than max_vertices vertices raise ResourceCapError
        naming ``max_vertices``; the identity counts, so a budget below one
        fails at radius 0.
        """
        step = self.step
        cap = _vertex_cap(max_vertices)
        index = {self.element_key(EMPTY_WORD): 0}
        keys = list(index)
        depths = [0]
        edges = []
        # keys grows while it is scanned, so it is the BFS queue
        for i, key in enumerate(keys):
            depth = depths[i] + 1
            for c in codes:
                t = step(key, c)
                j = index.get(t)
                if j is None and depth <= radius:
                    if len(keys) >= cap:
                        raise _over_budget(cap, depth)
                    j = index[t] = len(keys)
                    keys.append(t)
                    depths.append(depth)
                if j is not None:
                    edges.append((i, c, j))
        return index, depths, edges


def _vertex_cap(max_vertices) -> float:
    """A walk's vertex budget as a number, which the identity must fit."""
    cap = float("inf") if max_vertices is None else max_vertices
    if cap < 1:
        raise _over_budget(cap, 0)
    return cap


def _over_budget(cap, depth: int) -> ResourceCapError:
    return ResourceCapError(
        f"ball exceeded the vertex budget {cap} at radius {depth}",
        "max_vertices", cap)


# ---------------------------------------------------------------------------
# free product oracle


class FreeProductOracle(NormalFormOracle):
    """Exact oracle for the ambient free product (no relators allowed)."""

    kind = "free_product"

    def __init__(self, P: RelativePresentation):
        if P.relators:
            raise OracleInvalidError(
                "free product oracle requires an empty relator list")
        self.P = P
        self._combine = P.alphabet.combine

    def normal_form(self, w: Word) -> Word:
        return free_reduce(self.P, w)

    def element_key(self, w: Word) -> tuple:
        return self.P.alphabet.encode(self.normal_form(w).letters)

    def word(self, key) -> Word:
        return Word(self.P.alphabet.decode(key))

    def step(self, key, c: int) -> tuple:
        # c cancels or merges with the key's last letter, and a merged
        # syllable cannot combine further
        if key:
            r = self._combine(key[-1], c)
            if r != APART:
                return key[:-1] if r == CANCEL else key[:-1] + (r,)
        return key + (c,)

    def walk(self, codes, radius: int, max_vertices: int | None = None):
        # the base walk, each step read off the combine row of the key's
        # last code, built at its first use.  A key's depth is the sum of
        # its syllables' depths, so a code apart from its last one leads a
        # layer deeper: the last layer steps only by codes that cancel or
        # merge, the ones that can land back in the ball
        combine = self._combine
        rows = {}
        cap = _vertex_cap(max_vertices)
        index = {(): 0}
        keys = [()]
        depths = [0]
        edges = []
        for i, key in enumerate(keys):
            depth = depths[i] + 1
            last = key[-1] if key else None
            row = rows.get(last)
            if row is None:
                steps = [(c, APART if last is None else combine(last, c))
                         for c in codes]
                row = rows[last] = (steps, [s for s in steps if s[1] != APART])
            head = key[:-1]
            grow = depth <= radius
            for c, r in row[0] if grow else row[1]:
                if r == APART:
                    t = key + (c,)
                else:
                    t = head if r == CANCEL else head + (r,)
                j = index.get(t)
                if j is None:
                    if not grow:
                        continue
                    if len(keys) >= cap:
                        raise _over_budget(cap, depth)
                    j = index[t] = len(keys)
                    keys.append(t)
                    depths.append(depth)
                edges.append((i, c, j))
        return index, depths, edges

    def rel_length_of_key(self, key) -> RelLength:
        return RelLength.exact(len(key))

    def codes_of_key(self, key) -> tuple:
        return key

    def geodesic_of_key(self, key, n: int) -> Word:
        return self.word(key)


# ---------------------------------------------------------------------------
# integer quotient oracle


class IntegerQuotientOracle(NormalFormOracle):
    """Oracle through a homomorphism of the free product onto a subgroup of
    Z^d, given by image vectors for free-group symbols and peripheral model
    generators.  Finite-table models necessarily map to zero.  Faithfulness on
    the presented group is the caller's claim; relators are verified to die.
    The images form the columns of a d x m matrix over the presentation's
    generator slots (``RelativePresentation.slots``).
    """

    kind = "integer_quotient"

    def __init__(self, P: RelativePresentation, dim: int,
                 x_images: dict[str, tuple[int, ...]] | None = None,
                 model_images: dict[int, list] | None = None):
        if dim < 1:
            raise OracleInvalidError("dim must be positive")
        self.P = P
        self.dim = dim
        x_images = x_images or {}
        model_images = model_images or {}
        _check_image_keys(P, x_images, model_images)

        columns = [self._vec(x_images.get(sym), f"x image {sym!r}")
                   for sym in P.x_symbols]
        for lam in sorted(P.models):
            model = P.models[lam]
            given = model_images.get(lam)
            if isinstance(model, FiniteTableModel):
                if given is not None and any(any(v) for v in
                                             (self._vec(g, "finite image")
                                              for g in given)):
                    raise OracleInvalidError(
                        f"finite model {lam} cannot map nontrivially to Z^{dim}")
                continue
            rank = model.rank
            if given is None:
                given = [None] * rank
            if len(given) != rank:
                raise OracleInvalidError(
                    f"model {lam} needs {rank} generator images")
            for i, g in enumerate(given):
                columns.append(self._vec(g, f"model {lam} generator {i}"))

        self._slots = P.slots
        self._code_vecs: dict = {}     # code -> its letter's slot vector
        self._A = [[col[i] for col in columns] for i in range(dim)]
        self._kernel_ech = row_echelon_lattice(integer_kernel(self._A))
        # each free image's letter: the first in symbol order, +1 before -1
        self._x_letters: dict = {}
        for sym, col in sorted(self._slots.x_col.items()):
            for s in (1, -1):
                self._x_letters.setdefault(tuple(s * a for a in columns[col]),
                                           XLetter(sym, s))
        # the image lattice of each factor, and a solver for the images of
        # each factor and of each pair of factors
        cols = self._slots.model_cols
        self._perip_lattices = {lam: row_echelon_lattice(columns[s:s + c])
                                for lam, (s, c) in cols.items()}

        def solver(lams):
            return integer_solver([[v for s, c in map(cols.get, lams)
                                    for v in row[s:s + c]] for row in self._A])
        self._solvers = {lam: solver((lam,)) for lam in cols}
        self._pair_solvers = {ij: solver(ij)
                              for ij in itertools.combinations(cols, 2)}
        _check_relators(P, self)

    def _vec(self, v, what) -> tuple[int, ...]:
        if v is None:
            return (0,) * self.dim
        v = tuple(v)
        if len(v) != self.dim or not all(map(is_int, v)):
            raise OracleInvalidError(f"{what}: expected {self.dim} integers")
        return v

    def image_vector(self, w: Word) -> tuple[int, ...]:
        return tuple(self._image(self._slots.epsilon(w)))

    def _image(self, vec) -> list[int]:
        """The image of a slot vector: A vec."""
        return [sum(map(operator.mul, row, vec)) for row in self._A]

    def element_key(self, w: Word):
        return reduce_mod(self._kernel_ech, self._slots.epsilon(w))

    def word(self, key) -> Word:
        return self._slots.word(key)

    def step(self, key, c: int):
        # word is a section of epsilon, so the product's vector is the
        # key's plus the letter's
        vec = self._code_vecs.get(c)
        if vec is None:
            vec = self._code_vecs[c] = self._slots.epsilon(
                Word((self.P.alphabet.letters[c],)))
        return reduce_mod(self._kernel_ech, map(operator.add, key, vec))

    def coset_of_key(self, key, lam: int):
        # a key differs from the word's vector by kernel vectors, which A
        # sends to 0
        return reduce_mod(self._perip_lattices[lam], self._image(key))

    def solve_in_model(self, lam: int, vec):
        """Nonzero model element of label lam with image vec, or None."""
        sol = self._solvers[lam](vec)
        if sol is None or not any(sol):
            return None
        return self._slots.model_element(lam, sol)

    def _one_letter(self, u):
        """A single letter with image u, or None."""
        one = self._x_letters.get(tuple(u))
        if one is not None:
            return one
        for lam in self._solvers:
            e = self.solve_in_model(lam, u)
            if e is not None:
                return HLetter(lam, e)
        return None

    def _two_letters(self, u) -> Word | None:
        """Two letters with image u, for u of no single letter: a free
        letter and one more letter, else a letter from each of a pair of
        factors; or None."""
        for a, l in self._x_letters.items():
            one = self._one_letter(tuple(map(operator.sub, u, a)))
            if one is not None:
                return Word((l, one))
        element = self._slots.model_element
        for (i, j), solve in self._pair_solvers.items():
            sol = solve(u)
            if sol is not None:
                ci = self._slots.model_cols[i][1]
                return Word((HLetter(i, element(i, sol[:ci])),
                             HLetter(j, element(j, sol[ci:]))))
        return None

    def rel_length_of_key(self, key) -> RelLength:
        """Exact up to two letters, by the witnesses of ``_one_letter`` and
        ``_two_letters``; bounded below by 3 beyond."""
        u = tuple(self._image(key))
        if not any(u):
            return RelLength.exact(0)
        if self._one_letter(u) is not None:
            return RelLength.exact(1)
        if self._two_letters(u) is not None:
            return RelLength.exact(2)
        return RelLength(3, max(3, len(self.word(key))))

    def geodesic_of_key(self, key, n: int) -> Word | None:
        """The witness that made n exact in ``rel_length_of_key``, after
        the normal form at n = 2.  An exact 3 is a normal form of 3
        letters."""
        u = self._image(key)
        if n == 1:
            one = self._one_letter(u)
            return None if one is None else Word((one,))
        nf = super().geodesic_of_key(key, n)
        return self._two_letters(u) if nf is None and n == 2 else nf


# ---------------------------------------------------------------------------
# finite quotient oracle


class FiniteQuotientOracle(NormalFormOracle):
    """Oracle through a surjection-onto-its-image into a finite group given by
    a multiplication table, with evaluation data for every generator."""

    kind = "finite_quotient"

    def __init__(self, P: RelativePresentation, quotient: FiniteTableModel,
                 x_images: dict[str, int] | None = None,
                 model_images: dict[int, list[int]] | None = None):
        self.P = P
        self.Q = quotient
        x_images = x_images or {}
        model_images = model_images or {}
        _check_image_keys(P, x_images, model_images)
        self._x_img = {sym: self._element(
            x_images.get(sym, quotient.identity_index), f"x image {sym!r}")
            for sym in P.x_symbols}
        self._gen_img: dict[int, list[int]] = {}   # lam -> image per generator
        for lam in sorted(P.models):
            model = P.models[lam]
            finite = isinstance(model, FiniteTableModel)
            # a finite model gives one image per element, the others one per
            # generator
            count = model.size if finite else model.rank
            given = model_images.get(lam)
            if given is None:
                given = [quotient.identity_index] * count
            if len(given) != count:
                raise OracleInvalidError(f"model {lam} needs {count} images")
            given = [self._element(g, f"model {lam} image") for g in given]
            if finite:
                for a in range(count):
                    for b in range(count):
                        lhs = quotient.product(given[a], given[b])
                        if lhs != given[model.product(a, b)]:
                            raise OracleInvalidError(
                                f"model {lam} images are not a homomorphism "
                                f"at ({a}, {b})")
                given = [given[g] for g in model.generators()]
            elif isinstance(model, FreeAbelianModel):
                for i in range(count):
                    for j in range(i + 1, count):
                        if quotient.product(given[i], given[j]) != \
                                quotient.product(given[j], given[i]):
                            raise OracleInvalidError(
                                f"model {lam} generator images must commute")
            self._gen_img[lam] = given

        # canonical words take steps by generator letters, geodesic witnesses
        # by every single letter; one search per model gives its image
        # subgroup and a preimage of each element, the first one reached
        gen_steps = [(self.eval_letter(l), l) for sym in P.x_symbols
                     for l in (XLetter(sym, 1), XLetter(sym, -1))]
        letter_steps = list(gen_steps)
        self._subgroups = {}
        for lam in sorted(P.models):
            model, imgs = P.models[lam], self._gen_img[lam]
            pairs = zip(model.generators(), imgs)
            if isinstance(model, FiniteTableModel):
                steps = [(img, g) for g, img in pairs]
            else:
                steps = [step for g, img in pairs
                         for step in ((img, g), (quotient.inverse(img),
                                                 model.inverse(g)))]
            reach = self._reach(steps)
            self._subgroups[lam] = frozenset(reach)
            gen_steps += [(img, HLetter(lam, e)) for img, e in steps]
            letter_steps += [
                (s, HLetter(lam, reduce(model.product, reach[s],
                                        model.identity())))
                for s in sorted(reach) if s != quotient.identity_index]
        self._canonical = {g: free_reduce(P, Word(path))
                           for g, path in self._reach(gen_steps).items()}
        self._witness = {g: Word(path)
                         for g, path in self._reach(letter_steps).items()}
        self._code_img: dict = {}      # code -> its letter's image in Q
        _check_relators(P, self)

    def _element(self, g, what) -> int:
        try:
            return self.Q.validate(g)
        except ValueError as exc:
            raise OracleInvalidError(f"{what}: {exc}") from None

    def _reach(self, steps) -> dict:
        """Breadth-first search from the identity of Q over (image, label)
        steps, each multiplying by its image on the right: every reached
        element mapped to the label path that reached it first."""
        paths = {self.Q.identity_index: ()}
        queue = [self.Q.identity_index]
        for g in queue:
            for img, label in steps:
                t = self.Q.product(g, img)
                if t not in paths:
                    paths[t] = paths[g] + (label,)
                    queue.append(t)
        return paths

    def eval_letter(self, l) -> int:
        if isinstance(l, XLetter):
            img = self._x_img[l.sym]
            return img if l.sign > 0 else self.Q.inverse(img)
        return self.P.models[l.lam].image(l.elem, self._gen_img[l.lam],
                                          self.Q)

    def element_key(self, w: Word) -> int:
        out = self.Q.identity_index
        for l in w:
            out = self.Q.product(out, self.eval_letter(l))
        return out

    def word(self, key) -> Word:
        if key not in self._canonical:
            # unreachable from generators cannot occur for genuine words
            raise OracleInvalidError(f"element {key} not generated")
        return self._canonical[key]

    def step(self, key, c: int):
        img = self._code_img.get(c)
        if img is None:
            img = self._code_img[c] = self.eval_letter(
                self.P.alphabet.letters[c])
        return self.Q.product(key, img)

    def coset_of_key(self, key, lam: int):
        return min(self.Q.product(key, s) for s in self._subgroups[lam])

    def rel_length_of_key(self, key) -> RelLength:
        return RelLength.exact(len(self._witness[key]))

    def geodesic_of_key(self, key, n: int) -> Word:
        return self._witness[key]


# ---------------------------------------------------------------------------
# plugin oracle


class PluginOracle(NormalFormOracle):
    """Normal forms computed by an external executable.

    Protocol: one request per line, a JSON array of letter objects in the
    presentation's encoding; the reply line is the canonical word in the same
    encoding.  The subprocess is started lazily and kept alive.
    """

    kind = "plugin"

    def __init__(self, P: RelativePresentation, command: list[str]):
        if not command or not all(isinstance(c, str) for c in command):
            raise ParseError("plugin command must be a list of strings", "oracle")
        self.P = P
        self.command = list(command)
        self._proc = None
        self._cache: dict[tuple, Word] = {}
        try:
            _check_relators(P, self)
        except BaseException:
            self.close()
            raise

    def _ensure(self):
        if self._proc is None or self._proc.poll() is not None:
            import subprocess
            self._proc = subprocess.Popen(
                self.command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                text=True, bufsize=1)

    def close(self):
        if self._proc is not None:
            try:
                # closes stdin, reads stdout to its end, closes it and waits
                self._proc.communicate(timeout=5)
            except Exception:
                self._proc.kill()
            self._proc = None

    def normal_form(self, w: Word) -> Word:
        key = tuple(w.letters)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        self._ensure()
        line = json.dumps(encode_word(self.P, w))
        try:
            self._proc.stdin.write(line + "\n")
            self._proc.stdin.flush()
            reply = self._proc.stdout.readline()
        except (BrokenPipeError, OSError) as exc:
            raise OracleInvalidError(f"plugin pipe failed: {exc}") from None
        if not reply:
            raise OracleInvalidError("plugin closed its output stream")
        try:
            nf = decode_word(self.P, load_json(reply, "plugin reply"),
                             "plugin reply")
        except (json.JSONDecodeError, ParseError) as exc:
            raise OracleInvalidError(f"bad plugin reply: {exc}") from None
        self._cache[key] = nf
        return nf


# ---------------------------------------------------------------------------
# configuration


def _x_images(config: dict) -> dict:
    return expect_json(config.get("x_images") or {}, dict, "oracle.x_images")


def _model_images(config: dict, rows: bool) -> dict:
    """The document's model_images object: integer lists, of lists when rows
    is set, keyed by integer labels."""
    out = {}
    path = "oracle.model_images"
    for key, imgs in expect_json(config.get("model_images") or {}, dict,
                                 path).items():
        out[int_label(key, path)] = int_tuple(imgs, f"{path}.{key}", rows=rows)
    return out


def build_oracle(P: RelativePresentation, config: dict) -> NormalFormOracle:
    """Construct an oracle from the JSON 'oracle' object of a document."""
    if not isinstance(config, dict):
        raise ParseError("oracle must be an object", "oracle")
    kind = config.get("kind")
    if kind == "free_product":
        return FreeProductOracle(P)
    if kind == "integer_quotient":
        dim = config.get("dim")
        if not is_int(dim):
            raise ParseError("integer_quotient needs an integer dim", "oracle.dim")
        x_images = {sym: int_tuple(v, f"oracle.x_images.{sym}")
                    for sym, v in _x_images(config).items()}
        return IntegerQuotientOracle(P, dim, x_images,
                                     _model_images(config, True))
    if kind == "finite_quotient":
        try:
            Q = decode_finite_table(config, "oracle")
        except ValueError as exc:
            raise OracleInvalidError(str(exc)) from None
        x = _x_images(config)
        return FiniteQuotientOracle(
            P, Q, {sym: expect_int(x, sym, "oracle.x_images") for sym in x},
            _model_images(config, False))
    if kind == "plugin":
        return PluginOracle(P, config.get("command") or [])
    raise ParseError(f"unknown oracle kind {kind!r}", "oracle.kind")


def budgeted_word_problem(P: RelativePresentation, w: Word, max_area: int,
                          max_len: int, oracle: NormalFormOracle | None = None,
                          max_states: int | None = None):
    """Semi-decide triviality within an area and length budget.

    Returns Trivial(area) when a filling is found, NontrivialCertified when an
    attached oracle refutes triviality, and filling.Unknown otherwise.  The
    search alone never certifies nontriviality.
    """
    from . import filling

    if oracle is not None:
        nf = oracle.normal_form(w)
        if not nf.is_empty:
            return NontrivialCertified(nf)
    out = filling.relative_area(P, None, w, max_area=max_area,
                                max_len=max_len, max_states=max_states)
    if isinstance(out, filling.FillingCertificate):
        return Trivial(out.area)
    return out
