"""Truncated relative Cayley graph: balls, relative length, geodesics.

The graph on G with edge letters X union all nonidentity peripheral elements
is locally infinite whenever a peripheral model is.  A ball is therefore
parameterized by a truncation bound rho (only peripheral letters of model
length <= rho are instantiated), and every answer reports exactness honestly:
length queries answer with a closed interval that collapses to a point
whenever the oracle can answer exactly.  Each oracle answers relative length
and geodesics itself, on element keys (``rel_length_of_key`` and
``geodesic_of_key``): a geodesic is the oracle's word at the exact length.
A ball is the oracle's ``walk`` over element keys by ``P.alphabet`` letter
codes (one ``O.step`` per edge unless the oracle walks its own, as the free
product does), and writes a key out as a word only for what it returns.  A
ball keeps its walk, keys and code edges, so that it holds ints only (the
collector untracks them); its words and letters are decoded at their first
read.  Its writers, ``ball_json_text`` and ``ball_csv_lines``, render each
code once, decode nothing, and give their text in pieces of at most 256
edges, vertices or depths for the caller to write; ``ball_to_json`` is the
same JSON document as a dict, built from the decoded words and letters.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property
import itertools
import json

from .errors import GeodesicNotFoundError
from .oracle import RelLength
from .presentation import (
    HLetter,
    RelativePresentation,
    Word,
    XLetter,
    dump_json,
    encode_letter,
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


def truncated_ball(P: RelativePresentation, O, radius: int, rho: int,
                   max_vertices: int | None = None) -> BallGraph:
    """BFS ball around the identity using free letters and peripheral
    letters of model length <= rho, vertices deduplicated by element key."""
    index, depths, edges = O.walk(
        P.alphabet.encode(ball_alphabet(P, rho)), radius, max_vertices)
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


# the most edges, vertices or depths in one piece of a writer's text: 256
# vertices of the F_2 radius-8 ball are some 130 KB of JSON
_CHUNK = 256


def _chunks(rows) -> Iterator:
    return (rows[k:k + _CHUNK] for k in range(0, len(rows), _CHUNK))


def ball_json_text(P: RelativePresentation, ball: BallGraph,
                   depth: int) -> Iterator[str]:
    """Pieces of exactly the text ``dump_json`` gives ``ball_to_json(P,
    ball)`` where it sits ``depth`` levels deep in a document: each piece
    holds at most 256 depths, edges or vertices, joined at once.  Every
    letter sits three levels below the ball, so each code of ``P.alphabet``
    is rendered once, into a list indexed by code, with an edge's text
    between its two ends.  The oracle is read and the letters rendered
    before this returns; the pieces only join them."""
    n0, n1, n2, n3 = ("\n" + "  " * (depth + k) for k in range(4))
    c1, c2, c3 = ("," + n for n in (n1, n2, n3))
    # codes_of_key may intern letters, so the codes come before the texts
    codes = list(map(ball.O.codes_of_key, ball.keys))
    # JSON strings escape newlines, so a letter's newlines are all indents
    text = [dump_json(encode_letter(P, l)).replace("\n", n3)
            for l in P.alphabet.letters]
    mid = [c3 + t + c3 for t in text]

    def block(chunks):
        # a list from the texts of its chunks of items; the first opens it
        first = next(chunks, None)
        if first is None:
            yield "[]"
            return
        yield "[" + n2 + first
        for chunk in chunks:
            yield c2 + chunk
        yield n1 + "]"

    def pieces():
        yield "{" + n1 + '"depths": '
        yield from block(c2.join(map(str, ds))
                         for ds in _chunks(ball.depths))
        yield c1 + '"edges": '
        yield from block(
            c2.join([f"[{n3}{s}{mid[c]}{t}{n2}]" for s, c, t in es])
            for es in _chunks(ball.code_edges))
        yield (f'{c1}"peripheral_bound": {ball.rho}{c1}"radius": '
               f'{ball.radius}{c1}"vertices": ')
        yield from block(
            c2.join([f"[{n3}{c3.join(map(text.__getitem__, v))}{n2}]"
                     if v else "[]" for v in vs])
            for vs in _chunks(codes))
        yield n0 + "}"

    return pieces()


def ball_csv_lines(P: RelativePresentation,
                   ball: BallGraph) -> Iterator[str]:
    """The ball's edges as CSV, in pieces of whole lines: a header, then one
    line per code edge, its letter a quoted compact JSON cell, at most
    256 edges to a piece.  Each code of ``P.alphabet`` is rendered once,
    into a list indexed by code, with the commas on either side, before
    this returns."""
    mid = [',"' + json.dumps(encode_letter(P, l), sort_keys=True,
                             separators=(",", ":")).replace('"', '""') + '",'
           for l in P.alphabet.letters]
    return itertools.chain(
        ("source,letter,target\n",),
        ("".join([f"{s}{mid[c]}{t}\n" for s, c, t in chunk])
         for chunk in _chunks(ball.code_edges)))


# ---------------------------------------------------------------------------
# relative length


def rel_length(P: RelativePresentation, O, w: Word) -> RelLength:
    """Distance from the identity to w in the relative word metric: number
    of letters (free generators or whole peripheral elements) needed."""
    return O.rel_length(w)


# ---------------------------------------------------------------------------
# geodesic witnesses


def geodesic_witness(P: RelativePresentation, O, w: Word) -> Word:
    """A word of minimal letter count representing the same element as w:
    the oracle's geodesic at its exact relative length."""
    key = O.element_key(w)
    length = O.rel_length_of_key(key)
    if not length.is_exact:
        raise GeodesicNotFoundError(
            f"relative length only bounded to [{length.lower}, "
            f"{length.upper}]")
    out = O.geodesic_of_key(key, length.value)
    if out is None:
        raise GeodesicNotFoundError(
            f"the oracle gives no geodesic of length {length.value}")
    return out
