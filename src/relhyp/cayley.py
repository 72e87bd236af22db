"""Truncated relative Cayley graph: balls, relative length, geodesics.

The graph on G with edge letters X union all nonidentity peripheral elements
is locally infinite whenever a peripheral model is.  Everything here is
therefore parameterized by a truncation bound rho (only peripheral letters of
model length <= rho are instantiated) and reports exactness honestly:
length queries answer with a closed interval that collapses to a point
whenever the oracle kind supports an exact answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import GeodesicNotFoundError, ResourceCapError
from .presentation import (
    EMPTY_WORD,
    HLetter,
    RelativePresentation,
    Word,
    XLetter,
    encode_letter,
    encode_word,
    free_reduce,
    letter_count,
    letter_key,
)


def ball_alphabet(P: RelativePresentation, rho: int) -> list:
    """Every edge letter with model length at most rho, plus all free
    letters, in a fixed deterministic order."""
    letters = []
    for sym in P.x_symbols:
        letters.append(XLetter(sym, 1))
        letters.append(XLetter(sym, -1))
    for lam in sorted(P.models):
        for e in P.models[lam].elements_up_to(rho):
            letters.append(HLetter(lam, e))
    return sorted(letters, key=letter_key)


# ---------------------------------------------------------------------------
# truncated balls


@dataclass(frozen=True)
class BallGraph:
    vertices: tuple[Word, ...]        # canonical forms, BFS discovery order
    depths: tuple[int, ...]           # BFS depth per vertex
    edges: tuple[tuple[int, object, int], ...]  # (source idx, letter, target idx)
    radius: int
    rho: int
    index: dict = field(compare=False, repr=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "index",
                           {v: i for i, v in enumerate(self.vertices)})

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)


def truncated_ball(P: RelativePresentation, O, radius: int, rho: int,
                   max_vertices: int | None = None) -> BallGraph:
    """BFS ball around the identity using free letters and peripheral
    letters of model length <= rho, vertices deduplicated by normal form."""
    alphabet = ball_alphabet(P, rho)
    home = O.normal_form(EMPTY_WORD)
    vertices = [home]
    depths = [0]
    index = {home: 0}
    edges = []
    # vertices grows while it is scanned, so this is the BFS queue; the last
    # layer only records edges back into the ball
    for i, v in enumerate(vertices):
        depth = depths[i] + 1
        for l in alphabet:
            t = O.normal_form(v + Word((l,)))
            j = index.get(t)
            if j is None and depth <= radius:
                if max_vertices is not None and \
                        len(vertices) >= max_vertices:
                    raise ResourceCapError(
                        f"ball exceeded the vertex budget {max_vertices} "
                        f"at radius {depth}", "max_vertices", max_vertices)
                j = index[t] = len(vertices)
                vertices.append(t)
                depths.append(depth)
            if j is not None:
                edges.append((i, l, j))
    return BallGraph(vertices=tuple(vertices), depths=tuple(depths),
                     edges=tuple(edges), radius=radius, rho=rho)


def ball_to_json(P: RelativePresentation, ball: BallGraph) -> dict:
    return {
        "radius": ball.radius,
        "peripheral_bound": ball.rho,
        "vertices": [encode_word(P, v) for v in ball.vertices],
        "depths": list(ball.depths),
        "edges": [[s, encode_letter(P, l), t] for s, l, t in ball.edges],
    }


def ball_to_csv(P: RelativePresentation, ball: BallGraph) -> str:
    import json as _json

    lines = ["source,letter,target"]
    for s, l, t in ball.edges:
        enc = _json.dumps(encode_letter(P, l), sort_keys=True,
                          separators=(",", ":"))
        lines.append(f"{s},\"{enc.replace(chr(34), chr(34) * 2)}\",{t}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# relative length


@dataclass(frozen=True)
class RelLength:
    lower: int
    upper: int

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError("lower bound exceeds upper bound")

    @classmethod
    def exact(cls, n: int) -> "RelLength":
        return cls(n, n)

    @property
    def is_exact(self) -> bool:
        return self.lower == self.upper

    @property
    def value(self) -> int:
        if not self.is_exact:
            raise ValueError(f"length is only bounded: [{self.lower}, {self.upper}]")
        return self.lower


def rel_length(P: RelativePresentation, O, w: Word) -> RelLength:
    """Distance from the identity to w in the relative word metric: number
    of letters (free generators or whole peripheral elements) needed."""
    kind = getattr(O, "kind", None)
    if kind == "free_product":
        return RelLength.exact(letter_count(O.normal_form(w)))
    if kind == "finite_quotient":
        return RelLength.exact(O.relative_distance(w))
    if kind == "integer_quotient":
        return _integer_rel_length(P, O, w)
    # plugin and anything else: certify from the canonical form only
    nf = O.normal_form(w)
    if nf.is_empty:
        return RelLength.exact(0)
    upper = letter_count(nf)
    return RelLength(1, upper)


def _integer_rel_length(P: RelativePresentation, O, w: Word) -> RelLength:
    from .oracle import row_echelon_lattice, reduce_mod

    u = O.image_vector(w)
    if not any(u):
        return RelLength.exact(0)
    if _integer_one_letter(P, O, u) is not None:
        return RelLength.exact(1)
    # two letters: a sum of letter images from two sources
    singles = _integer_letter_lattices(P, O)
    for i in range(len(singles)):
        for j in range(i, len(singles)):
            kind_i, src_i, rows_i = singles[i]
            kind_j, src_j, rows_j = singles[j]
            if kind_i == "x" and kind_j == "x":
                for si in (1, -1):
                    for sj in (1, -1):
                        tot = tuple(si * a + sj * b
                                    for a, b in zip(rows_i[0], rows_j[0]))
                        if tot == u:
                            return RelLength.exact(2)
            elif kind_i == "x" or kind_j == "x":
                xrow = rows_i[0] if kind_i == "x" else rows_j[0]
                lat = rows_j if kind_i == "x" else rows_i
                ech = row_echelon_lattice(list(lat))
                for s in (1, -1):
                    rest = tuple(a - s * b for a, b in zip(u, xrow))
                    if any(rest) and ech and not any(reduce_mod(ech, rest)):
                        return RelLength.exact(2)
            else:
                if i == j and src_i == src_j:
                    continue  # two letters of one factor merge into one
                ech = row_echelon_lattice(list(rows_i) + list(rows_j))
                if ech and not any(reduce_mod(ech, u)):
                    # membership in the sum with u outside both factors
                    # forces a genuinely two-letter decomposition
                    return RelLength.exact(2)
    upper = letter_count(O.normal_form(w))
    return RelLength(3, max(3, upper))


def _integer_letter_lattices(P: RelativePresentation, O):
    out = []
    for sym in sorted(P.x_symbols):
        out.append(("x", sym, (O.x_image(sym),)))
    for lam in sorted(P.models):
        nz = [r for r in O.model_image_rows(lam) if any(r)]
        if nz:
            out.append(("model", lam, tuple(nz)))
    return out


def _integer_one_letter(P: RelativePresentation, O, u):
    """A single letter with image u, or None."""
    for sym in sorted(P.x_symbols):
        if O.x_image(sym) == tuple(u):
            return XLetter(sym, 1)
        if tuple(-a for a in O.x_image(sym)) == tuple(u):
            return XLetter(sym, -1)
    for lam in sorted(P.models):
        e = O.solve_in_model(lam, u)
        if e is not None and not P.models[lam].is_identity(e):
            return HLetter(lam, e)
    return None


# ---------------------------------------------------------------------------
# geodesic witnesses


def geodesic_witness(P: RelativePresentation, O, w: Word, rho: int = 4,
                     closure_depth: int = 2,
                     max_states: int = 200000) -> Word:
    """A word of minimal letter count representing the same element as w.

    Exact oracle kinds answer directly; otherwise a BFS over the truncated
    alphabet, enriched with syllables taken from the relators and from w's
    canonical form (closed under a few model products), must reach the
    target at the certified distance.
    """
    length = rel_length(P, O, w)
    if not length.is_exact:
        raise GeodesicNotFoundError(
            f"relative length only bounded to [{length.lower}, "
            f"{length.upper}] under truncation {rho}", rho)
    n = length.value
    if n == 0:
        return EMPTY_WORD
    kind = getattr(O, "kind", None)
    if kind == "free_product":
        return O.normal_form(w)
    if kind == "finite_quotient":
        return O.geodesic_word(w)
    if kind == "integer_quotient":
        one = _integer_one_letter(P, O, O.image_vector(w))
        if n == 1 and one is not None:
            return Word((one,))
    alphabet = _witness_alphabet(P, O, w, rho, closure_depth)
    target = O.element_key(w)
    frontier = [(EMPTY_WORD, O.element_key(EMPTY_WORD))]
    seen = {frontier[0][1]}
    states = 1
    for depth in range(1, n + 1):
        nxt = []
        for word, _ in frontier:
            for l in alphabet:
                cand = free_reduce(P, word + Word((l,)))
                k = O.element_key(cand)
                if k in seen:
                    continue
                if k == target:
                    return cand
                states += 1
                if states > max_states:
                    raise GeodesicNotFoundError(
                        f"geodesic search exceeded {max_states} states "
                        f"under truncation {rho}", rho)
                seen.add(k)
                nxt.append((cand, k))
        frontier = nxt
    raise GeodesicNotFoundError(
        f"no representative of length {n} found under truncation {rho}", rho)


def _witness_alphabet(P: RelativePresentation, O, w: Word, rho: int,
                      closure_depth: int):
    letters = list(ball_alphabet(P, rho))
    extra: dict[int, set] = {lam: set() for lam in P.models}
    for source in [w, O.normal_form(w), *P.relators]:
        for l in source:
            if isinstance(l, HLetter):
                extra[l.lam].add(l.elem)
    for lam, elems in extra.items():
        model = P.models[lam]
        closed = set(elems)
        for e in list(closed):
            closed.add(model.inverse(e))
        for _ in range(closure_depth):
            for a in list(closed):
                for b in list(closed):
                    closed.add(model.product(a, b))
        for e in sorted(closed, key=lambda e: (model.length(e), repr(e))):
            if not model.is_identity(e):
                letters.append(HLetter(lam, e))
    dedup = []
    seen = set()
    for l in sorted(letters, key=letter_key):
        if l not in seen:
            seen.add(l)
            dedup.append(l)
    return dedup
