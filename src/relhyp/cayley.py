"""Truncated relative Cayley graph: balls, relative length, geodesics.

The graph on G with edge letters X union all nonidentity peripheral elements
is locally infinite whenever a peripheral model is.  Everything here is
therefore parameterized by a truncation bound rho (only peripheral letters of
model length <= rho are instantiated) and reports exactness honestly:
length queries answer with a closed interval that collapses to a point
whenever the oracle can answer exactly.  Each oracle answers relative length
and geodesics itself, on element keys (``rel_length_of_key`` and
``geodesic_of_key``); this module adds the breadth-first geodesic search for
oracles that give no geodesic themselves.
Balls and searches walk element keys by ``P.alphabet`` letter codes, one
``O.step`` per edge, and write a key out as a word only for what they
return.  A ball keeps its walk, keys and code edges, so that it holds ints
only (the collector untracks them); its words and letters are decoded at
their first read, and its CSV and JSON writers render each code once,
decode nothing, and give their text in pieces for the caller to write.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property
import itertools
import json

from .errors import GeodesicNotFoundError, ResourceCapError
from .oracle import RelLength
from .presentation import (
    EMPTY_WORD,
    HLetter,
    RelativePresentation,
    Word,
    XLetter,
    dump_json,
    encode_letter,
    free_reduce,
    letter_key,
)


def ball_alphabet(P: RelativePresentation, rho: int) -> list:
    """Every edge letter with model length at most rho, plus all free
    letters, in a fixed deterministic order.  The letters are the
    presentation's interned objects, the same on every call, so that
    lookups keyed by them hit by identity."""
    letters = []
    for sym in P.x_symbols:
        letters.append(XLetter(sym, 1))
        letters.append(XLetter(sym, -1))
    for lam in sorted(P.models):
        for e in P.models[lam].elements_up_to(rho):
            letters.append(HLetter(lam, e))
    A = P.alphabet
    return sorted((A.letters[A.intern(l)] for l in letters), key=letter_key)


# ---------------------------------------------------------------------------
# truncated balls


@dataclass(frozen=True)
class BallGraph:
    keys: tuple                       # element keys, BFS discovery order
    depths: tuple[int, ...]           # BFS depth per vertex
    code_edges: tuple[tuple[int, int, int], ...]  # (source, code, target)
    radius: int
    rho: int
    P: RelativePresentation = field(repr=False, compare=False)
    O: object = field(repr=False, compare=False)

    @property
    def vertex_count(self) -> int:
        return len(self.keys)

    @cached_property
    def vertices(self) -> tuple[Word, ...]:
        """Normal forms, BFS discovery order."""
        return tuple(map(self.O.word, self.keys))

    @cached_property
    def edges(self) -> tuple:
        """(source, letter, target) per code edge."""
        letters = self.P.alphabet.letters
        return tuple((s, letters[c], t) for s, c, t in self.code_edges)


def walk_ball(O, codes, radius: int, max_vertices: int | None = None):
    """Breadth-first walk from the identity by one ``O.step`` per edge,
    stepping by the given ``P.alphabet`` codes.

    Returns (index, depths, edges): index maps each element key reached to
    its vertex number, in discovery order; edges are (source, code, target)
    by vertex number, the last layer adding only edges back into the ball.
    """
    step = O.step
    index = {O.element_key(EMPTY_WORD): 0}
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
                if max_vertices is not None and len(keys) >= max_vertices:
                    raise ResourceCapError(
                        f"ball exceeded the vertex budget {max_vertices} "
                        f"at radius {depth}", "max_vertices", max_vertices)
                j = index[t] = len(keys)
                keys.append(t)
                depths.append(depth)
            if j is not None:
                edges.append((i, c, j))
    return index, depths, edges


def truncated_ball(P: RelativePresentation, O, radius: int, rho: int,
                   max_vertices: int | None = None) -> BallGraph:
    """BFS ball around the identity using free letters and peripheral
    letters of model length <= rho, vertices deduplicated by element key."""
    index, depths, edges = walk_ball(
        O, P.alphabet.encode(ball_alphabet(P, rho)), radius, max_vertices)
    return BallGraph(keys=tuple(index), depths=tuple(depths),
                     code_edges=tuple(edges), radius=radius, rho=rho,
                     P=P, O=O)


def ball_to_json(P: RelativePresentation, ball: BallGraph) -> dict:
    return {
        "radius": ball.radius,
        "peripheral_bound": ball.rho,
        "vertices": [[encode_letter(P, l) for l in v] for v in ball.vertices],
        "depths": list(ball.depths),
        "edges": [[s, encode_letter(P, l), t] for s, l, t in ball.edges],
    }


def ball_json_text(P: RelativePresentation, ball: BallGraph,
                   depth: int) -> Iterator[str]:
    """Pieces of exactly the text ``dump_json`` gives ``ball_to_json(P,
    ball)`` where it sits ``depth`` levels deep in a document: one piece
    per depth, edge and vertex, each with the separator before it.  Every
    letter sits three levels below the ball, so each code of ``P.alphabet``
    is rendered once, into a list indexed by code.  The oracle is read and
    the letters rendered before this returns; the pieces only join them."""
    n0, n1, n2, n3 = ("\n" + "  " * (depth + k) for k in range(4))
    c1, c3 = "," + n1, "," + n3
    # codes_of_key may intern letters, so the codes come before the texts
    codes = list(map(ball.O.codes_of_key, ball.keys))
    # JSON strings escape newlines, so a letter's newlines are all indents
    text = [dump_json(encode_letter(P, l)).replace("\n", n3)
            for l in P.alphabet.letters]

    def block(items):
        # items each start with "," + n2; the first opens the list instead
        first = next(items, None)
        if first is None:
            yield "[]"
            return
        yield "[" + first[1:]
        yield from items
        yield n1 + "]"

    def pieces():
        yield "{" + n1 + '"depths": '
        yield from block(f",{n2}{d}" for d in ball.depths)
        yield c1 + '"edges": '
        yield from block(f",{n2}[{n3}{s}{c3}{text[c]}{c3}{t}{n2}]"
                         for s, c, t in ball.code_edges)
        yield (f'{c1}"peripheral_bound": {ball.rho}{c1}"radius": '
               f'{ball.radius}{c1}"vertices": ')
        yield from block(
            f",{n2}[{n3}{c3.join(map(text.__getitem__, v))}{n2}]" if v
            else f",{n2}[]" for v in codes)
        yield n0 + "}"

    return pieces()


def ball_csv_lines(P: RelativePresentation,
                   ball: BallGraph) -> Iterator[str]:
    """The lines of ``ball_to_csv``, each ending in a newline: a header,
    then one line per code edge, its letter a quoted compact JSON cell.
    Each code of ``P.alphabet`` is rendered once, into a list indexed by
    code, before this returns."""
    cell = ['"' + json.dumps(encode_letter(P, l), sort_keys=True,
                             separators=(",", ":")).replace('"', '""') + '"'
            for l in P.alphabet.letters]
    return itertools.chain(
        ("source,letter,target\n",),
        (f"{s},{cell[c]},{t}\n" for s, c, t in ball.code_edges))


def ball_to_csv(P: RelativePresentation, ball: BallGraph) -> str:
    """The ball's edges as CSV: the join of ``ball_csv_lines``."""
    return "".join(ball_csv_lines(P, ball))


# ---------------------------------------------------------------------------
# relative length


def rel_length(P: RelativePresentation, O, w: Word) -> RelLength:
    """Distance from the identity to w in the relative word metric: number
    of letters (free generators or whole peripheral elements) needed."""
    return O.rel_length(w)


# ---------------------------------------------------------------------------
# geodesic witnesses


def geodesic_witness(P: RelativePresentation, O, w: Word, rho: int = 4,
                     max_states: int = 200000) -> Word:
    """A word of minimal letter count representing the same element as w.

    Oracles that know a geodesic answer directly; otherwise a BFS over the
    truncated alphabet, enriched with syllables taken from the relators and
    from w's canonical form, must reach the target at the certified
    distance.  The syllables of each label, with their inverses, are closed
    under model products to a fixed depth of 2: two rounds of pairwise
    products.
    """
    target = O.element_key(w)
    length = O.rel_length_of_key(target)
    if not length.is_exact:
        raise GeodesicNotFoundError(
            f"relative length only bounded to [{length.lower}, "
            f"{length.upper}] under truncation {rho}", rho)
    n = length.value
    if n == 0:
        return EMPTY_WORD
    direct = O.geodesic_of_key(target, n)
    if direct is not None:
        return direct
    alphabet = _witness_alphabet(P, w, O.word(target), rho)
    steps = list(zip(alphabet, P.alphabet.encode(alphabet)))
    home = O.element_key(EMPTY_WORD)
    frontier = [((), home)]
    seen = {home}
    states = 1
    for depth in range(1, n + 1):
        nxt = []
        for path, key in frontier:
            for l, c in steps:
                k = O.step(key, c)
                if k in seen:
                    continue
                if k == target:
                    return free_reduce(P, Word(path + (l,)))
                states += 1
                if states > max_states:
                    raise GeodesicNotFoundError(
                        f"geodesic search exceeded {max_states} states "
                        f"under truncation {rho}", rho)
                seen.add(k)
                nxt.append((path + (l,), k))
        frontier = nxt
    raise GeodesicNotFoundError(
        f"no representative of length {n} found under truncation {rho}", rho)


def _witness_alphabet(P: RelativePresentation, w: Word, nf: Word, rho: int):
    letters = list(ball_alphabet(P, rho))
    extra: dict[int, set] = {lam: set() for lam in P.models}
    for source in [w, nf, *P.relators]:
        for l in source:
            if isinstance(l, HLetter):
                extra[l.lam].add(l.elem)
    for lam, elems in extra.items():
        model = P.models[lam]
        closed = set(elems)
        for e in list(closed):
            closed.add(model.inverse(e))
        for _ in range(2):
            for a in list(closed):
                for b in list(closed):
                    closed.add(model.product(a, b))
        for e in sorted(closed, key=lambda e: (model.length(e), repr(e))):
            if not model.is_identity(e):
                letters.append(HLetter(lam, e))
    # letter_key is injective, so the order does not depend on the set's
    return sorted(set(letters), key=letter_key)
