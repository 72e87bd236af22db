"""Relative filling area, Dehn profiles, and certificate replay.

Area is computed by uniform-cost search over canonical words of the ambient
free product.  A single costed move splices one relator cell: pick a cyclic
rotation r of a relator or its inverse, factor r = p * q, match p against a
(possibly syllable-split) stretch of the current word, and replace it by the
inverse of q.  The new word differs from the old by one conjugate of a
relator, so the cost of a search path is exactly the number of cells in the
filling it describes.  Peripheral-letter merges, splits, and free
cancellations cost nothing and are folded into canonicalization; certificates
record them as explicit zero-cost moves so a dumb interpreter can replay the
whole trace.

The search kernel works on the letter codes of ``P.alphabet``, whose letter
algebra (merge, cancel, syllable remainders) is memoized per pair of codes.
Each presentation builds one ``SearchTable`` at its first search and keeps
it: every distinct relator rotation with the inverses of its tails and its
cell vector's pivot entry, and the relator lattice that rejects unfillable
loops before any search.  A call builds only its start word, exponent
vector and heap; a state carries only its vector's pivot entry, the one
entry the lower bound reads.  States and the ``dist``/``parent`` keys are
tuples of codes, and codes are never ordered, so results do not depend on
which loops were searched before.  A splice (``Alphabet.splice``) is
reduced only at its seams: the state, hence its prefix and suffix, is
already reduced, so the middle is pushed onto the prefix and the suffix
only while it combines with the top; the result equals ``free_reduce`` of
the whole word.  ``parent`` records each step as (variant, position,
matched length, remainders), and the trace moves are built only for the
winning path.  Successors are generated in a fixed order, so areas,
certificates and state counts are deterministic.  ``replay_certificate``
works on letters and shares nothing with the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
import heapq
import itertools

from .cayley import ball_alphabet, walk_ball
from .oracle import reduce_mod, row_echelon_lattice
from .presentation import (
    HLetter,
    NO_MATCH,
    RelativePresentation,
    Word,
    XLetter,
    combinable,
    free_reduce,
    letter_count,
    letter_key,
)

# ---------------------------------------------------------------------------
# trace moves


@dataclass(frozen=True)
class HSplit:
    """Split the peripheral letter at ``pos`` into (left, left^-1 * elem)."""
    pos: int
    left: object


@dataclass(frozen=True)
class HMerge:
    """Multiply the same-label peripheral letters at pos, pos+1; if the
    product is the identity both letters disappear."""
    pos: int


@dataclass(frozen=True)
class XCancel:
    """Remove the inverse free-letter pair at pos, pos+1."""
    pos: int


@dataclass(frozen=True)
class RCell:
    """Replace ``matched`` letters at ``pos`` (which must equal the leading
    part of the chosen relator rotation) by the inverse of its trailing part.
    This is the only move that costs a cell."""
    relator: int
    inverted: bool
    rotation: int
    pos: int
    matched: int


Move = HSplit | HMerge | XCancel | RCell


@dataclass(frozen=True)
class FillingCertificate:
    loop: Word
    area: int
    trace: tuple[Move, ...]
    max_area: int
    max_len: int
    minimal_within_caps: bool = True


@dataclass(frozen=True)
class Unknown:
    reason: str
    max_area: int
    max_len: int
    states_explored: int = 0


# ---------------------------------------------------------------------------
# relator rotations


def rotation_letters(P: RelativePresentation, relator: int, inverted: bool,
                     rotation: int) -> tuple:
    w = P.relators[relator]
    if inverted:
        w = P.inverse_word(w)
    ls = w.letters
    return ls[rotation:] + ls[:rotation]


# ---------------------------------------------------------------------------
# the search table and kernel


class SearchTable:
    """The relator rotations and lattice the filling search needs, built at
    P's first search and kept on it as ``P.search_table``; letters are codes
    of ``P.alphabet``.

    ``variants`` lists each distinct rotation r of a relator or its inverse,
    in a fixed order, as (r, tails, pivot entry, relator, inverted,
    rotation): r and tails in codes, tails[k] being (r[k:])^-1, and the
    pivot entry that of r's exponent vector (``pivot_entry``), which a cell
    subtracts.  A word can only fill if its exponent vector lies in the
    lattice the relators' vectors span (``fillable``); ``lower_bound``
    counts the cells it still needs from its vector's pivot entry.
    """

    def __init__(self, P: RelativePresentation):
        self.P = P
        encode = P.alphabet.encode
        rel_vecs = [P.slots.epsilon(r) for r in P.relators]
        nonzero = [v for v in rel_vecs if any(v)]
        self._ech = row_echelon_lattice(nonzero)
        self._pivot = None  # (slot, entry) of the single relator's vector
        if len(rel_vecs) == 1 and nonzero:
            self._pivot = next((j, c) for j, c in enumerate(nonzero[0]) if c)
        self.variants = []
        seen = set()
        for idx, vec in enumerate(rel_vecs):
            e = self.pivot_entry(vec)
            for inverted in (False, True):
                for rot in range(len(P.relators[idx])):
                    ls = rotation_letters(P, idx, inverted, rot)
                    if ls in seen:
                        continue
                    seen.add(ls)
                    tails = tuple(
                        encode(P.inverse_word(Word(ls[k:])).letters)
                        for k in range(len(ls) + 1))
                    self.variants.append(
                        (encode(ls), tails,
                         -e if inverted else e, idx, inverted, rot))

    def fillable(self, eps) -> bool:
        return not any(reduce_mod(self._ech, eps))

    def pivot_entry(self, eps) -> int:
        """eps's entry at the slot where the single relator's vector has its
        first nonzero entry; 0 with no single relator."""
        return 0 if self._pivot is None else eps[self._pivot[0]]

    def lower_bound(self, e) -> int:
        """Cells still needed by a fillable vector of pivot entry e: with a
        single relator it is e / c times the relator's vector, c the
        relator's pivot entry, otherwise 0."""
        return 0 if self._pivot is None else abs(e // self._pivot[1])


def _candidates(table: SearchTable, state: tuple):
    """Yield (successor, move) for every relator cell spliced into state.

    For each variant, longest match first, a prefix p = r[:k] is matched at
    position i and replaced by tails[k]; p's interior letters must match
    exactly, its first and last may match the trailing / leading part of a
    peripheral syllable, whose remainder stays in the word.  Then come the
    pure insertions of the whole inverted rotation.  The move is
    (variant, i, k, left remainder, right remainder), remainders being codes
    or None.
    """
    n = len(state)
    A = table.P.alphabet
    splice, remainder = A.splice, A.remainder
    for v, (r, tails, *_) in enumerate(table.variants):
        for k in range(len(r), 0, -1):
            q_inv = tails[k]
            first, last = r[0], r[k - 1]
            inner = r[1:k - 1]
            for i in range(n - k + 1):
                wf = state[i]
                if k == 1:
                    if wf == first:
                        yield splice(state, i, i + 1, q_inv), \
                            (v, i, 1, None, None)
                        continue
                    a = remainder(wf, first, True)
                    if a != NO_MATCH:
                        yield splice(state, i, i + 1, (a,) + q_inv), \
                            (v, i, 1, a, None)
                    b = remainder(wf, first, False)
                    if b != NO_MATCH:
                        yield splice(state, i, i + 1, q_inv + (b,)), \
                            (v, i, 1, None, b)
                    continue
                if inner and state[i + 1:i + k - 1] != inner:
                    continue
                a = None
                if wf != first:
                    a = remainder(wf, first, True)
                    if a == NO_MATCH:
                        continue
                b = None
                wl = state[i + k - 1]
                if wl != last:
                    b = remainder(wl, last, False)
                    if b == NO_MATCH:
                        continue
                mid = q_inv
                if a is not None:
                    mid = (a,) + mid
                if b is not None:
                    mid = mid + (b,)
                yield splice(state, i, i + k, mid), (v, i, k, a, b)
        for i in range(n + 1):
            yield splice(state, i, i, tails[0]), (v, i, 0, None, None)


def relative_area(P: RelativePresentation, O, c: Word, max_area: int = 16,
                  max_len: int = 64, max_states: int | None = None,
                  check_trivial: bool = True):
    """Minimal number of relator cells filling the trivial loop c, within
    caps.  Returns a FillingCertificate or Unknown."""
    if check_trivial and O is not None and not O.is_trivial(c):
        raise ValueError("loop does not represent the identity")
    start = free_reduce(P, c)
    table = P.search_table
    eps0 = P.slots.epsilon(start)
    # every successor stays fillable: free reduction and splits keep the
    # exponent vector, and a cell moves it by minus its rotation's vector;
    # so a state carries only the pivot entry that lower_bound reads
    if not table.fillable(eps0):
        return Unknown("exponent vector outside the relator lattice",
                       max_area, max_len, 0)
    cap_len = max(max_len, len(start))
    variants = table.variants
    counter = itertools.count()
    key0 = P.alphabet.encode(start.letters)
    dist: dict[tuple, int] = {key0: 0}
    parent: dict[tuple, tuple] = {}
    e0 = table.pivot_entry(eps0)
    heap = [(table.lower_bound(e0), len(start), next(counter), 0, key0, e0)]
    explored = 0
    while heap:
        f, _, _, g, state, e = heapq.heappop(heap)
        if dist.get(state, -1) != g:
            continue
        if not state:
            return _reconstruct(table, c, key0, state, parent, g,
                                max_area, max_len)
        explored += 1
        if max_states is not None and explored > max_states:
            return Unknown("state budget exhausted", max_area, max_len,
                           explored)
        if g + 1 > max_area:
            continue
        for key, move in _candidates(table, state):
            if len(key) > cap_len:
                continue
            if dist.get(key, max_area + 1) <= g + 1:
                continue
            nxt_e = e - variants[move[0]][2]
            hh = table.lower_bound(nxt_e)
            if g + 1 + hh > max_area:
                continue
            dist[key] = g + 1
            parent[key] = (state,) + move
            heapq.heappush(heap, (g + 1 + hh, len(key), next(counter),
                                  g + 1, key, nxt_e))
    return Unknown("no filling within caps", max_area, max_len, explored)


def _reconstruct(table, loop, key0, state, parent, area, max_area,
                 max_len):
    P = table.P
    A = P.alphabet
    steps = []
    key = state
    while key != key0:
        prev, *move = parent[key]
        steps.append((prev, move))
        key = prev
    steps.reverse()
    trace: list[Move] = []
    # initial canonicalization of the raw loop
    events: list = []
    cur = free_reduce(P, loop, _trace=events)
    trace.extend(_events_to_moves(events))
    assert cur.letters == A.decode(key0)
    for prev, (v, i, k, left, right) in steps:
        assert cur.letters == A.decode(prev)
        r, tails, _, idx, inverted, rot = table.variants[v]
        # the moves of this step, built only now that it is on the path
        splits = []
        if left is not None:
            splits.append(HSplit(i, A.letters[left].elem))
            i += 1
        if right is not None:
            splits.append(HSplit(i + k - 1, A.letters[r[k - 1]].elem))
        rcell = RCell(idx, inverted, rot, i, k)
        work = list(cur.letters)
        for s in splits:
            trace.append(s)
            l = work[s.pos]
            model = P.models[l.lam]
            rest = model.product(model.inverse(s.left), l.elem)
            work[s.pos:s.pos + 1] = [HLetter(l.lam, s.left),
                                     HLetter(l.lam, rest)]
        trace.append(rcell)
        work[i:i + k] = A.decode(tails[k])
        events = []
        cur = free_reduce(P, Word(tuple(work)), _trace=events)
        trace.extend(_events_to_moves(events))
    assert cur.is_empty
    return FillingCertificate(loop=loop, area=area, trace=tuple(trace),
                              max_area=max_area, max_len=max_len)


def _events_to_moves(events):
    return [HMerge(pos) if kind == "h_merge" else XCancel(pos)
            for kind, pos in events]


def replay_certificate(P: RelativePresentation, cert: FillingCertificate) -> Word:
    """Re-run a certificate's trace move by move, checking every precondition.
    Returns the final word (empty for a complete filling) and raises
    ValueError on the first violated move."""
    work = list(cert.loop.letters)
    cost = 0
    for mv in cert.trace:
        if isinstance(mv, HSplit):
            l = work[mv.pos]
            if not isinstance(l, HLetter):
                raise ValueError(f"split of a non-peripheral letter: {mv}")
            model = P.models[l.lam]
            right = model.product(model.inverse(mv.left), l.elem)
            if model.is_identity(mv.left) or model.is_identity(right):
                raise ValueError(f"split produces an identity letter: {mv}")
            work[mv.pos:mv.pos + 1] = [HLetter(l.lam, mv.left),
                                       HLetter(l.lam, right)]
        elif isinstance(mv, HMerge):
            a, b = work[mv.pos], work[mv.pos + 1]
            if not (isinstance(a, HLetter) and isinstance(b, HLetter)
                    and a.lam == b.lam):
                raise ValueError(f"merge of incompatible letters: {mv}")
            model = P.models[a.lam]
            prod = model.product(a.elem, b.elem)
            work[mv.pos:mv.pos + 2] = \
                [] if model.is_identity(prod) else [HLetter(a.lam, prod)]
        elif isinstance(mv, XCancel):
            a, b = work[mv.pos], work[mv.pos + 1]
            if not (isinstance(a, XLetter) and isinstance(b, XLetter)
                    and a.sym == b.sym and a.sign == -b.sign):
                raise ValueError(f"cancel of a non-inverse pair: {mv}")
            del work[mv.pos:mv.pos + 2]
        elif isinstance(mv, RCell):
            r = rotation_letters(P, mv.relator, mv.inverted, mv.rotation)
            p = r[:mv.matched]
            if tuple(work[mv.pos:mv.pos + mv.matched]) != p:
                raise ValueError(f"relator part does not match the word: {mv}")
            q_inv = P.inverse_word(Word(r[mv.matched:])).letters
            work[mv.pos:mv.pos + mv.matched] = list(q_inv)
            cost += 1
        else:
            raise ValueError(f"unknown move {mv!r}")
    if cost != cert.area:
        raise ValueError(f"trace cost {cost} != stated area {cert.area}")
    return Word(tuple(work))


# ---------------------------------------------------------------------------
# Dehn profiles


@dataclass(frozen=True)
class ProfileEntry:
    max_area: int
    loop_count: int
    exact: bool


@dataclass(frozen=True)
class DehnProfile:
    entries: dict[int, ProfileEntry]
    rho: int
    max_area: int
    max_len: int

    def entry(self, n: int) -> ProfileEntry:
        return self.entries[n]

    @property
    def n_max(self) -> int:
        return max(self.entries) if self.entries else 0

    @property
    def exact(self) -> bool:
        return all(e.exact for e in self.entries.values())


def _loop_classes(P: RelativePresentation, O, n_max: int, rho: int):
    """Distinct reduced-loop classes (up to rotation and inversion) of
    relative length <= n_max at the basepoint, via distance-pruned DFS on
    the vertex numbers of the ball's walk, vertex 0 the identity.  The walk
    lists every edge between ball vertices, each vertex's in code order, so
    a loop never leaves the ball and steps nothing the walk did not."""
    _, depths, edges = walk_ball(
        O, P.alphabet.encode(ball_alphabet(P, rho)), (n_max + 1) // 2)
    letters = P.alphabet.letters
    out = [[] for _ in depths]
    for i, c, j in edges:
        out[i].append((letters[c], j))

    classes: dict[tuple, Word] = {}

    def canon(word: Word):
        best = None
        best_letters = word.letters
        for seq in (word.letters, P.inverse_word(word).letters):
            kk = tuple(letter_key(l) for l in seq)
            for i in range(len(seq)):
                cand = kk[i:] + kk[:i]
                if best is None or cand < best:
                    best = cand
                    best_letters = seq[i:] + seq[:i]
        return best, best_letters

    def dfs(path: list, v: int):
        depth = len(path)
        if depth and v == 0 and \
                (depth == 1 or not combinable(path[-1], path[0])):
            ck, letters = canon(Word(tuple(path)))
            if ck not in classes:
                classes[ck] = Word(letters)
        if depth == n_max:
            return
        remaining = n_max - depth
        for l, j in out[v]:
            if depths[j] >= remaining or path and combinable(path[-1], l):
                continue
            path.append(l)
            dfs(path, j)
            path.pop()

    dfs([], 0)
    return classes


def dehn_profile(P: RelativePresentation, O, n_max: int, rho: int,
                 max_area: int = 16, max_len: int = 64,
                 max_states: int | None = None) -> DehnProfile:
    """Max filling area over trivial loops of relative length <= n, for each
    n up to n_max, using letters of model length <= rho."""
    classes = _loop_classes(P, O, n_max, rho)
    per_len_max: dict[int, int] = {}
    per_len_count: dict[int, int] = {}
    per_len_exact: dict[int, bool] = {}
    for word in classes.values():
        n = letter_count(word)
        per_len_count[n] = per_len_count.get(n, 0) + 1
        out = relative_area(P, O, word, max_area=max_area, max_len=max_len,
                            max_states=max_states)
        if isinstance(out, Unknown):
            per_len_exact[n] = False
        else:
            per_len_max[n] = max(per_len_max.get(n, 0), out.area)
    entries = {}
    best = 0
    count = 0
    exact = True
    for n in range(1, n_max + 1):
        best = max(best, per_len_max.get(n, 0))
        count += per_len_count.get(n, 0)
        exact = exact and per_len_exact.get(n, True)
        entries[n] = ProfileEntry(max_area=best, loop_count=count, exact=exact)
    return DehnProfile(entries=entries, rho=rho, max_area=max_area,
                       max_len=max_len)


@dataclass(frozen=True)
class RhoEscalationReport:
    n: int
    rows: tuple  # (rho, max_area, exact)
    unbounded_witness: bool


def rho_escalation(P: RelativePresentation, O, n: int, rhos,
                   max_area: int = 32, max_len: int = 64) -> RhoEscalationReport:
    """Dehn profile entry at fixed relative length n for growing peripheral
    truncations; a strictly increasing exact row set witnesses that the
    profile entry is unbounded in rho."""
    rows = []
    for rho in rhos:
        prof = dehn_profile(P, O, n_max=n, rho=rho, max_area=max_area,
                            max_len=max_len)
        e = prof.entry(n)
        rows.append((rho, e.max_area, e.exact))
    values = [r[1] for r in rows]
    exact = all(r[2] for r in rows)
    unbounded = exact and all(b > a for a, b in zip(values, values[1:]))
    return RhoEscalationReport(n=n, rows=tuple(rows),
                               unbounded_witness=unbounded)
