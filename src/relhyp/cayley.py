"""Truncated relative Cayley graph: balls, relative length, geodesics.

The graph on G with edge letters X union all nonidentity peripheral elements
is locally infinite whenever a peripheral model is.  Everything here is
therefore parameterized by a truncation bound rho (only peripheral letters of
model length <= rho are instantiated) and reports exactness honestly:
length queries answer with a closed interval that collapses to a point
whenever the oracle can answer exactly.  Each oracle answers relative length
and geodesics itself (``rel_length`` and ``geodesic``); this module adds the
breadth-first geodesic search for oracles that give no geodesic themselves.
Balls and searches walk element keys, one ``O.step`` per edge, and write a
key out as a word only for what they return.
"""

from __future__ import annotations

from dataclasses import dataclass
import functools

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
    vertices: tuple[Word, ...]        # canonical forms, BFS discovery order
    depths: tuple[int, ...]           # BFS depth per vertex
    edges: tuple[tuple[int, object, int], ...]  # (source idx, letter, target idx)
    radius: int
    rho: int

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)


def walk_ball(O, alphabet, radius: int, max_vertices: int | None = None):
    """Breadth-first walk from the identity by one ``O.step`` per edge.

    Returns (index, depths, edges): index maps each element key reached to
    its vertex number, in discovery order; edges are (source, letter,
    target) by vertex number, the last layer adding only edges back into
    the ball.
    """
    step = O.step
    index = {O.element_key(EMPTY_WORD): 0}
    keys = list(index)
    depths = [0]
    edges = []
    # keys grows while it is scanned, so it is the BFS queue
    for i, key in enumerate(keys):
        depth = depths[i] + 1
        for l in alphabet:
            t = step(key, l)
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
                edges.append((i, l, j))
    return index, depths, edges


def truncated_ball(P: RelativePresentation, O, radius: int, rho: int,
                   max_vertices: int | None = None) -> BallGraph:
    """BFS ball around the identity using free letters and peripheral
    letters of model length <= rho, vertices deduplicated by element key and
    written as normal forms."""
    index, depths, edges = walk_ball(O, ball_alphabet(P, rho), radius,
                                     max_vertices)
    return BallGraph(vertices=tuple(map(O.word, index)), depths=tuple(depths),
                     edges=tuple(edges), radius=radius, rho=rho)


def ball_to_json(P: RelativePresentation, ball: BallGraph) -> dict:
    code = functools.cache(lambda l: encode_letter(P, l))
    return {
        "radius": ball.radius,
        "peripheral_bound": ball.rho,
        "vertices": [[code(l) for l in v] for v in ball.vertices],
        "depths": list(ball.depths),
        "edges": [[s, code(l), t] for s, l, t in ball.edges],
    }


def ball_json_text(P: RelativePresentation, ball: BallGraph,
                   depth: int) -> str:
    """Exactly the text ``dump_json`` gives ``ball_to_json(P, ball)`` where
    it sits ``depth`` levels deep in a document.  Every letter sits three
    levels below the ball, so each distinct letter is rendered once, and
    vertices and edges are joined at their fixed indents."""
    n0, n1, n2, n3 = ("\n" + "  " * (depth + k) for k in range(4))
    c1, c2, c3 = "," + n1, "," + n2, "," + n3
    # JSON strings escape newlines, so a letter's newlines are all indents
    text = functools.cache(
        lambda l: dump_json(encode_letter(P, l)).replace("\n", n3))

    def block(items) -> str:
        return f"[{n2}{c2.join(items)}{n1}]" if items else "[]"

    vertices = [f"[{n3}{c3.join(map(text, v.letters))}{n2}]"
                if v.letters else "[]" for v in ball.vertices]
    edges = [f"[{n3}{s}{c3}{text(l)}{c3}{t}{n2}]" for s, l, t in ball.edges]
    return "{" + n1 + c1.join([
        f'"depths": {block(list(map(str, ball.depths)))}',
        f'"edges": {block(edges)}',
        f'"peripheral_bound": {ball.rho}',
        f'"radius": {ball.radius}',
        f'"vertices": {block(vertices)}',
    ]) + n0 + "}"


def ball_to_csv(P: RelativePresentation, ball: BallGraph) -> str:
    import json as _json

    @functools.cache
    def cell(l) -> str:
        enc = _json.dumps(encode_letter(P, l), sort_keys=True,
                          separators=(",", ":"))
        return '"' + enc.replace('"', '""') + '"'

    lines = ["source,letter,target"]
    lines.extend(f"{s},{cell(l)},{t}" for s, l, t in ball.edges)
    return "\n".join(lines) + "\n"


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
    length = rel_length(P, O, w)
    if not length.is_exact:
        raise GeodesicNotFoundError(
            f"relative length only bounded to [{length.lower}, "
            f"{length.upper}] under truncation {rho}", rho)
    n = length.value
    if n == 0:
        return EMPTY_WORD
    direct = O.geodesic(w, n)
    if direct is not None:
        return direct
    alphabet = _witness_alphabet(P, O, w, rho)
    target = O.element_key(w)
    home = O.element_key(EMPTY_WORD)
    frontier = [((), home)]
    seen = {home}
    states = 1
    for depth in range(1, n + 1):
        nxt = []
        for path, key in frontier:
            for l in alphabet:
                k = O.step(key, l)
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


def _witness_alphabet(P: RelativePresentation, O, w: Word, rho: int):
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
        for _ in range(2):
            for a in list(closed):
                for b in list(closed):
                    closed.add(model.product(a, b))
        for e in sorted(closed, key=lambda e: (model.length(e), repr(e))):
            if not model.is_identity(e):
                letters.append(HLetter(lam, e))
    # letter_key is injective, so the order does not depend on the set's
    return sorted(set(letters), key=letter_key)
