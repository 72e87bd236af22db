"""Finite relative presentations over free products of concrete peripheral models.

A presentation holds a finite list of free-group symbols, a family of
peripheral models indexed by integer labels, and a list of relator words.
Words mix two letter kinds: signed free-group letters and peripheral letters
carrying a nonidentity model element.  A peripheral letter always counts as a
single letter regardless of how large its model element is.  Kernels that
reduce many words intern a presentation's letters as int codes
(``P.alphabet``) and work on tuples of codes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
import json
import sys
from typing import Iterable, Iterator, Union

from .errors import ParseError


def is_int(v) -> bool:
    """An integer, but not a bool: JSON's true and false decode to bool, a
    subclass of int, and stand for no integer of a document."""
    return isinstance(v, int) and not isinstance(v, bool)


# ---------------------------------------------------------------------------
# peripheral models


def _reduce_free_tuple(rank: int, letters: Iterable[int]) -> tuple[int, ...]:
    stack: list[int] = []
    for a in letters:
        if not is_int(a) or a == 0 or abs(a) > rank:
            raise ValueError(f"free model letter out of range: {a!r}")
        if stack and stack[-1] == -a:
            stack.pop()
        else:
            stack.append(a)
    return tuple(stack)


@dataclass(frozen=True)
class FreeAbelianModel:
    """Z^rank with elements stored as integer tuples."""

    rank: int

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be positive")

    def identity(self):
        return (0,) * self.rank

    def is_identity(self, e) -> bool:
        return all(c == 0 for c in e)

    def validate(self, e):
        if not (isinstance(e, tuple) and len(e) == self.rank
                and all(map(is_int, e))):
            raise ValueError(f"not a Z^{self.rank} element: {e!r}")
        return e

    def product(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def inverse(self, a):
        return tuple(-x for x in a)

    def length(self, e) -> int:
        # word length in the unit-vector generators
        return sum(abs(c) for c in e)

    def generators(self):
        out = []
        for i in range(self.rank):
            v = [0] * self.rank
            v[i] = 1
            out.append(tuple(v))
        return out

    def image(self, e, images, target):
        # powers by repeated squaring: a large exponent costs O(log k)
        out = target.identity()
        for k, g in zip(e, images):
            if k < 0:
                g, k = target.inverse(g), -k
            while k:
                if k & 1:
                    out = target.product(out, g)
                g, k = target.product(g, g), k >> 1
        return out

    def elements_up_to(self, bound: int):
        """Nonidentity elements of generator length <= bound, deterministic order."""

        def rec(prefix, remaining, k):
            if k == self.rank:
                yield tuple(prefix)
                return
            for c in range(-remaining, remaining + 1):
                yield from rec(prefix + [c], remaining - abs(c), k + 1)

        for e in sorted(rec([], bound, 0)):
            if not self.is_identity(e):
                yield e

    def encode(self, e):
        return e[0] if self.rank == 1 else list(e)

    def decode(self, obj, path=""):
        if self.rank == 1 and is_int(obj):
            return (obj,)
        if isinstance(obj, list) and len(obj) == self.rank \
                and all(map(is_int, obj)):
            return tuple(obj)
        raise ParseError(f"bad Z^{self.rank} element {obj!r}", path)


@dataclass(frozen=True)
class FiniteTableModel:
    """A finite group given by its multiplication table.

    Elements are indices 0..size-1.  ``table[a][b]`` is the product, and the
    generating set implicit in the length function is every nonidentity
    element, so nonidentity lengths are all 1.
    """

    size: int
    table: tuple[tuple[int, ...], ...]
    inverse_table: tuple[int, ...]
    identity_index: int
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        n = self.size
        if n < 1 or len(self.table) != n or any(len(r) != n for r in self.table):
            raise ValueError("table shape does not match size")
        if any(not _index_below(v, n) for r in self.table for v in r):
            raise ValueError("table entry out of range")
        e = self.identity_index
        if not _index_below(e, n):
            raise ValueError("identity index out of range")
        if len(self.inverse_table) != n or \
                any(not _index_below(v, n) for v in self.inverse_table):
            raise ValueError(f"inverse table must list {n} element indices")
        for a in range(n):
            if self.table[e][a] != a or self.table[a][e] != a:
                raise ValueError(f"identity index {e} fails at {a}")
            b = self.inverse_table[a]
            if self.table[a][b] != e or self.table[b][a] != e:
                raise ValueError(f"inverse table wrong at {a}")
        witness = _non_associative_triple(self.table)
        if witness is not None:
            raise ValueError(f"table not associative at {witness}")
        if self.names is not None and (len(self.names) != n
                                       or len(set(self.names)) != n):
            raise ValueError("names must be distinct, one per element")

    def identity(self):
        return self.identity_index

    def is_identity(self, e) -> bool:
        return e == self.identity_index

    def validate(self, e):
        if not _index_below(e, self.size):
            raise ValueError(f"not an element index: {e!r}")
        return e

    def product(self, a, b):
        return self.table[a][b]

    def inverse(self, a):
        return self.inverse_table[a]

    def length(self, e) -> int:
        return 0 if e == self.identity_index else 1

    def generators(self):
        return [a for a in range(self.size) if a != self.identity_index]

    def image(self, e, images, target):
        if e == self.identity_index:
            return target.identity()
        return images[e - (e > self.identity_index)]

    def elements_up_to(self, bound: int):
        if bound >= 1:
            yield from self.generators()

    def encode(self, e):
        return e

    def decode(self, obj, path=""):
        if _index_below(obj, self.size):
            return obj
        if isinstance(obj, str) and self.names and obj in self.names:
            return self.names.index(obj)
        raise ParseError(f"bad finite element {obj!r}", path)


def _index_below(v, n) -> bool:
    return is_int(v) and 0 <= v < n


def _non_associative_triple(table):
    """A triple (a, g, c) with (a g) c != a (g c), or None when the table is
    associative.

    Light's test (Clifford-Preston, Algebraic Theory of Semigroups I, 1.2):
    checking every g of a set that generates the table under its product
    suffices, in O(n^2 |gens|) lookups.  The set is chosen greedily: each
    element not reached from the chosen ones by products joins them.
    """
    rows = [tuple(r) for r in table]
    gens, reached = [], set()
    for s in range(len(rows)):
        if s in reached:
            continue
        gens.append(s)
        reached.add(s)
        frontier = set(reached)
        while frontier:
            frontier = {rows[a][g] for a in frontier for g in gens} - reached
            reached |= frontier
    for g in gens:
        for a, row in enumerate(rows):
            lhs, rhs = rows[row[g]], tuple(map(row.__getitem__, rows[g]))
            if lhs != rhs:
                return (a, g, next(c for c, (x, y) in enumerate(zip(lhs, rhs))
                                   if x != y))
    return None


@dataclass(frozen=True)
class FreeGroupModel:
    """Free group of given rank; elements are reduced tuples of nonzero ints."""

    rank: int

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be positive")

    def identity(self):
        return ()

    def is_identity(self, e) -> bool:
        return len(e) == 0

    def validate(self, e):
        if not isinstance(e, tuple):
            raise ValueError(f"not a free model element: {e!r}")
        if _reduce_free_tuple(self.rank, e) != e:
            raise ValueError(f"free model element not reduced: {e!r}")
        return e

    def product(self, a, b):
        return _reduce_free_tuple(self.rank, tuple(a) + tuple(b))

    def inverse(self, a):
        return tuple(-x for x in reversed(a))

    def length(self, e) -> int:
        return len(e)

    def generators(self):
        return [(i,) for i in range(1, self.rank + 1)]

    def image(self, e, images, target):
        out = target.identity()
        for t in e:
            g = images[abs(t) - 1]
            out = target.product(out, g if t > 0 else target.inverse(g))
        return out

    def elements_up_to(self, bound: int):
        """Reduced words of length 1..bound, shortest first then lexicographic."""
        alphabet = sorted(
            [i for i in range(1, self.rank + 1)] + [-i for i in range(1, self.rank + 1)]
        )
        frontier = [()]
        for _ in range(bound):
            nxt = []
            for w in frontier:
                for a in alphabet:
                    if w and w[-1] == -a:
                        continue
                    nxt.append(w + (a,))
            nxt.sort()
            yield from nxt
            frontier = nxt

    def encode(self, e):
        return list(e)

    def decode(self, obj, path=""):
        if isinstance(obj, list) and all(map(is_int, obj)):
            try:
                return _reduce_free_tuple(self.rank, obj)
            except ValueError as exc:
                raise ParseError(str(exc), path) from None
        raise ParseError(f"bad F_{self.rank} element {obj!r}", path)


# Every model answers identity, product, inverse and generators, and
# image(e, images, target) evaluates the homomorphism that sends its i-th
# generator to images[i] in target, any group with identity, product and
# inverse: another model or a finite quotient table.
PeripheralModel = Union[FreeAbelianModel, FiniteTableModel, FreeGroupModel]


# ---------------------------------------------------------------------------
# letters and words


# Letters are hashed over and over as dict keys (interning in
# ``P.alphabet``, the corridor sweep's prefix memo, and the ``CellId``s and
# chains of windows, whose words hash from their letters), so each keeps its
# hash, computed at the first hash() from the field tuple the dataclass hash
# would use.  ``_hash`` has no
# annotation, so it is not a field and never enters __eq__ or __repr__.
# Words keep nothing: they hash and sort from their letters at each call.
@dataclass(frozen=True)
class XLetter:
    sym: str
    sign: int = 1
    _hash = None

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.sym, self.sign))
            object.__setattr__(self, "_hash", h)
        return h

    def inverse(self) -> "XLetter":
        return XLetter(self.sym, -self.sign)


@dataclass(frozen=True)
class HLetter:
    lam: int
    elem: object  # int or tuple, owned by the model with this label
    _hash = None

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.lam, self.elem))
            object.__setattr__(self, "_hash", h)
        return h


Letter = Union[XLetter, HLetter]


def _elem_key(e):
    if isinstance(e, int):
        return (0, (e,))
    return (1, (len(e),) + tuple(e))


def letter_key(letter: Letter):
    """Total order on letters used wherever a deterministic choice is needed."""
    if isinstance(letter, XLetter):
        return (0, letter.sym, 0 if letter.sign > 0 else 1, (0, ()))
    return (1, str(letter.lam), letter.lam, _elem_key(letter.elem))


@dataclass(frozen=True)
class Word:
    letters: tuple[Letter, ...] = ()

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __getitem__(self, i):
        got = self.letters[i]
        return Word(got) if isinstance(i, slice) else got

    def __add__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    @property
    def is_empty(self) -> bool:
        return not self.letters

    def sort_key(self):
        return (len(self.letters), tuple(map(letter_key, self.letters)))


EMPTY_WORD = Word()


# ---------------------------------------------------------------------------
# presentation


@dataclass(frozen=True)
class RelativePresentation:
    x_symbols: tuple[str, ...]
    models: dict[int, PeripheralModel]
    relators: tuple[Word, ...]

    def __post_init__(self):
        if len(set(self.x_symbols)) != len(self.x_symbols):
            raise ValueError("duplicate free-group symbols")
        for s in self.x_symbols:
            if not (isinstance(s, str) and s):
                raise ValueError(f"bad symbol {s!r}")
        for lam in self.models:
            if not is_int(lam):
                raise ValueError("model labels must be integers")
        reduced = []
        for r in self.relators:
            self.validate_word(r)
            r = cyclically_reduce(self, r)
            if r.is_empty:
                raise ValueError("relator reduces to the empty word")
            reduced.append(r)
        object.__setattr__(self, "relators", tuple(reduced))

    def validate_word(self, w: Word):
        for l in w:
            self.validate_letter(l)
        return w

    def validate_letter(self, l: Letter):
        if isinstance(l, XLetter):
            if l.sym not in self.x_symbols:
                raise ValueError(f"unknown free-group symbol {l.sym!r}")
        elif isinstance(l, HLetter):
            model = self.models.get(l.lam)
            if model is None:
                raise ValueError(f"unknown model label {l.lam}")
            model.validate(l.elem)
            if model.is_identity(l.elem):
                raise ValueError(
                    f"identity peripheral letter for model {l.lam} is not allowed")
        else:
            raise ValueError(f"not a letter: {l!r}")
        return l

    def inverse_letter(self, l: Letter) -> Letter:
        if isinstance(l, XLetter):
            return l.inverse()
        return HLetter(l.lam, self.models[l.lam].inverse(l.elem))

    def inverse_word(self, w: Word) -> Word:
        return Word(tuple(self.inverse_letter(l) for l in reversed(w.letters)))

    @cached_property
    def slots(self) -> "SlotLayout":
        """The exponent-vector layout of the generators, built once."""
        return SlotLayout(self)

    @cached_property
    def alphabet(self) -> "Alphabet":
        """The letters interned as ints, with their algebra, built once."""
        return Alphabet(self)

    @cached_property
    def search_table(self):
        """The filling search's relator table, built at the first search."""
        from .filling import SearchTable
        return SearchTable(self)


class SlotLayout:
    """Exponent vectors of words in the torsion-free generator slots.

    The slots are the free symbols in order, then ``rank`` slots for each
    ``Z^d`` or ``F_k`` model in sorted label order; finite models take none,
    so their letters count zero.  ``epsilon`` is a homomorphism from the
    free product onto Z^size, and ``word`` is a section of it.
    """

    def __init__(self, P: RelativePresentation):
        self.x_col = {sym: i for i, sym in enumerate(P.x_symbols)}
        self.model_cols: dict[int, tuple[int, int]] = {}  # lam -> (start, count)
        self._abelian = set()
        size = len(P.x_symbols)
        for lam in sorted(P.models):
            model = P.models[lam]
            count = 0 if isinstance(model, FiniteTableModel) else model.rank
            self.model_cols[lam] = (size, count)
            size += count
            if isinstance(model, FreeAbelianModel):
                self._abelian.add(lam)
        self.size = size

    def epsilon(self, w: Word) -> tuple[int, ...]:
        eps = [0] * self.size
        for l in w:
            if isinstance(l, XLetter):
                eps[self.x_col[l.sym]] += l.sign
            else:
                start, count = self.model_cols[l.lam]
                if l.lam in self._abelian:
                    for i in range(count):
                        eps[start + i] += l.elem[i]
                elif count:
                    for t in l.elem:
                        eps[start + abs(t) - 1] += 1 if t > 0 else -1
        return tuple(eps)

    def model_element(self, lam: int, block):
        """The element of model lam with exponent vector block: the vector
        itself for Z^d, the reduced word g1^c1 g2^c2 ... for F_k."""
        if lam in self._abelian:
            return tuple(block)
        return tuple(i + 1 if c > 0 else -(i + 1)
                     for i, c in enumerate(block) for _ in range(abs(c)))

    def word(self, eps) -> Word:
        """A word with exponent vector eps: free letters in symbol order,
        then at most one letter per model."""
        letters: list[Letter] = []
        for sym, col in self.x_col.items():
            c = eps[col]
            letters.extend([XLetter(sym, 1 if c > 0 else -1)] * abs(c))
        for lam, (start, count) in self.model_cols.items():
            block = eps[start:start + count]
            if any(block):
                letters.append(HLetter(lam, self.model_element(lam, block)))
        return Word(tuple(letters))


def free_reduce(P: RelativePresentation, w: Word, _trace: list | None = None) -> Word:
    """Normal form in the ambient free product.

    Adjacent peripheral letters with the same label are multiplied in their
    model (dropping the pair if the product is the identity) and inverse
    free-group letter pairs cancel, repeated to a fixpoint.  When ``_trace``
    is given, one ("h_merge", pos) or ("x_cancel", pos) event is appended per
    elementary step, positions indexed in the word as it stood at that step.
    """
    stack: list[Letter] = []
    for l in w:
        # the stack is reduced, so only its top can combine with l, and
        # what a merge leaves is apart from the letter under it
        if stack and combinable(stack[-1], l):
            a = stack.pop()
            if isinstance(a, XLetter):
                if _trace is not None:
                    _trace.append(("x_cancel", len(stack)))
            else:
                if _trace is not None:
                    _trace.append(("h_merge", len(stack)))
                model = P.models[a.lam]
                prod = model.product(a.elem, l.elem)
                if not model.is_identity(prod):
                    stack.append(HLetter(a.lam, prod))
        else:
            stack.append(l)
    return Word(tuple(stack))


def combinable(a: Letter, b: Letter) -> bool:
    """Whether adjacent letters a b would cancel or merge under free_reduce."""
    if isinstance(a, XLetter):
        return isinstance(b, XLetter) and a.sym == b.sym and a.sign == -b.sign
    return isinstance(b, HLetter) and a.lam == b.lam


def cyclically_reduce(P: RelativePresentation, w: Word) -> Word:
    """Freely reduce, then fold combinable first/last letters around the seam."""
    w = free_reduce(P, w)
    while len(w) >= 2 and combinable(w.letters[-1], w.letters[0]):
        w = free_reduce(P, Word((w.letters[-1],) + w.letters[:-1]))
    return w


# ---------------------------------------------------------------------------
# the letter algebra on interned codes

APART = -1     # combine: the letters neither cancel nor merge
CANCEL = -2    # combine: the letters cancel
NO_MATCH = -1  # remainder: the word letter does not contain the relator letter


class Alphabet:
    """A presentation's letters interned as ints, built at the first use and
    kept on it as ``P.alphabet``.

    ``codes`` maps a letter to its code and ``letters`` maps back.  Codes
    are handed out in the order letters are first met, so they depend on
    call history: they are compared for equality only and never ordered.
    The letter algebra is memoized per pair of codes: ``combine(a, b)``
    gives the code of the merged letter, ``CANCEL`` or ``APART``;
    ``remainder(w, f, left)`` gives the code of w f^-1 (left) or f^-1 w for
    same-label peripheral letters w != f, what is left of word letter w when
    relator letter f is split off it on its left or right end, otherwise
    ``NO_MATCH``.
    """

    def __init__(self, P: RelativePresentation):
        self.P = P
        self.letters: list = []
        self.codes: dict = {}
        self._combined: dict = {}
        self._remainders: dict = {}

    def intern(self, letter) -> int:
        code = self.codes.get(letter)
        if code is None:
            code = self.codes[letter] = len(self.letters)
            self.letters.append(letter)
        return code

    def encode(self, letters) -> tuple:
        return tuple(map(self.intern, letters))

    def decode(self, codes) -> tuple:
        return tuple(map(self.letters.__getitem__, codes))

    def combine(self, a: int, b: int) -> int:
        out = self._combined.get((a, b))
        if out is None:
            la, lb = self.letters[a], self.letters[b]
            if not combinable(la, lb):
                out = APART
            elif isinstance(la, XLetter):
                out = CANCEL
            else:
                model = self.P.models[la.lam]
                prod = model.product(la.elem, lb.elem)
                out = CANCEL if model.is_identity(prod) \
                    else self.intern(HLetter(la.lam, prod))
            self._combined[a, b] = out
        return out

    def remainder(self, w: int, f: int, left: bool) -> int:
        out = self._remainders.get((w, f, left))
        if out is None:
            lw, lf = self.letters[w], self.letters[f]
            out = NO_MATCH
            if isinstance(lw, HLetter) and isinstance(lf, HLetter) \
                    and lw.lam == lf.lam:
                model = self.P.models[lw.lam]
                inv = model.inverse(lf.elem)
                rest = model.product(lw.elem, inv) if left \
                    else model.product(inv, lw.elem)
                if not model.is_identity(rest):
                    out = self.intern(HLetter(lw.lam, rest))
            self._remainders[w, f, left] = out
        return out

    def splice(self, state: tuple, i: int, j: int, mid) -> tuple:
        """free_reduce(state[:i] + mid + state[j:]) in codes, for a reduced
        state: the reduced prefix is copied, mid is pushed letter by letter,
        and the reduced suffix only while its letters combine with the top."""
        stack = list(state[:i])
        combine = self.combine
        for c in mid:
            while stack:
                r = combine(stack[-1], c)
                if r == APART:
                    break
                stack.pop()
                c = None if r == CANCEL else r
                if c is None:
                    break
            if c is not None:
                stack.append(c)
        n = len(state)
        while j < n and stack:
            r = combine(stack[-1], state[j])
            if r == APART:
                break
            stack.pop()
            if r != CANCEL:
                # a merged letter is apart from what lies under it
                stack.append(r)
            j += 1
        stack.extend(state[j:])
        return tuple(stack)


# ---------------------------------------------------------------------------
# JSON documents

_MODEL_KINDS = ("Z^d", "finite", "F_k")


def _decode_model(obj, path) -> tuple[int, PeripheralModel]:
    if not isinstance(obj, dict):
        raise ParseError("model must be an object", path)
    label = obj.get("label")
    if not is_int(label):
        raise ParseError("model label must be an integer", path + ".label")
    kind = obj.get("kind")
    try:
        if kind == "Z^d":
            return label, FreeAbelianModel(rank=expect_int(obj, "rank", path))
        if kind == "F_k":
            return label, FreeGroupModel(rank=expect_int(obj, "rank", path))
        if kind == "finite":
            return label, decode_finite_table(obj, path)
    except (ValueError, TypeError) as exc:
        raise ParseError(str(exc), path) from None
    raise ParseError(f"unknown model kind {kind!r} (expected one of {_MODEL_KINDS})",
                     path + ".kind")


def expect_int(obj, key, path):
    v = obj.get(key)
    if not is_int(v):
        raise ParseError(f"{key} must be an integer", f"{path}.{key}")
    return v


def expect_json(value, kind, path):
    """value, checked to be a JSON object (kind dict) or list (kind list)."""
    if not isinstance(value, kind):
        what = "an object" if kind is dict else "a list"
        raise ParseError(f"expected {what}, got {value!r}", path)
    return value


def int_label(key, path) -> int:
    """A JSON object key naming an integer model label, as an int.  The key
    must read as str(label) writes it: "012", " 12" and "1_2" are refused."""
    digits = key.removeprefix("-") if isinstance(key, str) else ""
    try:
        label = int(key) if digits.isdecimal() else None
    except ValueError:
        raise ParseError(f"expected a label of at most "
                         f"{sys.get_int_max_str_digits()} digits, got "
                         f"{len(digits)}", path) from None
    if label is None or str(label) != key:
        raise ParseError(f"bad model label {key!r}", path)
    return label


_TOO_LONG = object()


def load_json(text: str, root: str = ""):
    """json.loads(text).  An integer literal with more digits than int()
    reads raises ParseError at its path below root, not a bare ValueError,
    and so does nesting deeper than the decoder recurses, at root, not a
    RecursionError; malformed JSON raises json.JSONDecodeError as before."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except RecursionError:
        raise ParseError("expected JSON nested less deeply than the decoder "
                         "recurses", root) from None
    except ValueError:
        pass

    def literal(digits: str):
        try:
            return int(digits)
        except ValueError:
            return _TOO_LONG

    def find(value, path: str):
        if value is _TOO_LONG:
            return path
        if isinstance(value, dict):
            steps = ((f"{path}.{k}" if path else k, v)
                     for k, v in value.items())
        elif isinstance(value, list):
            steps = ((f"{path}[{i}]", v) for i, v in enumerate(value))
        else:
            steps = ()
        for sub, v in steps:
            found = find(v, sub)
            if found is not None:
                return found
        return None

    try:
        path = find(json.loads(text, parse_int=literal), root)
    except RecursionError:
        path = root
    raise ParseError(f"expected an integer of at most "
                     f"{sys.get_int_max_str_digits()} digits", path)


def decode_finite_table(obj: dict, path: str) -> FiniteTableModel:
    """The finite group of an object with size, table and optional identity,
    inverse and names; the identity and the inverses are derived from the
    table when absent.  ParseError on a malformed shape or when none can be
    derived, ValueError when FiniteTableModel rejects the table."""
    size = expect_int(obj, "size", path)
    table = int_tuple(obj.get("table"), path + ".table", size, rows=True)
    if obj.get("identity") is None:
        identity = _find_identity(table, size, path)
    else:
        identity = expect_int(obj, "identity", path)
    if obj.get("inverse") is None:
        inverse = _derive_inverses(table, size, identity, path)
    else:
        inverse = int_tuple(obj["inverse"], path + ".inverse", size)
    names = obj.get("names")
    if names is not None:
        names = tuple(expect_json(names, list, path + ".names"))
        if not all(isinstance(n, str) for n in names):
            raise ParseError("names must be strings", path + ".names")
    return FiniteTableModel(
        size=size, table=table, inverse_table=tuple(inverse),
        identity_index=identity, names=names)


def int_tuple(value, path, size=None, rows=False) -> tuple:
    """value as a tuple of integers, or with rows of such tuples, checked
    to have size entries (and rows) when size is given."""
    items = expect_json(value, list, path)
    if size is not None and len(items) != size:
        raise ParseError(f"expected {size} entries, got {len(items)}", path)
    if rows:
        return tuple(int_tuple(r, f"{path}[{i}]", size)
                     for i, r in enumerate(items))
    if not all(map(is_int, items)):
        raise ParseError("entries must be integers", path)
    return tuple(items)


def _find_identity(table, size, path):
    for e in range(size):
        if tuple(table[e]) == tuple(range(size)) \
                and all(table[a][e] == a for a in range(size)):
            return e
    raise ParseError("table has no identity element", path + ".table")


def _derive_inverses(table, size, identity, path):
    inv = []
    for a in range(size):
        for b in range(size):
            if table[a][b] == identity and table[b][a] == identity:
                inv.append(b)
                break
        else:
            raise ParseError(f"element {a} has no inverse", path + ".table")
    return inv


def _encode_model(label: int, model: PeripheralModel) -> dict:
    if isinstance(model, FreeAbelianModel):
        return {"label": label, "kind": "Z^d", "rank": model.rank}
    if isinstance(model, FreeGroupModel):
        return {"label": label, "kind": "F_k", "rank": model.rank}
    doc = {
        "label": label, "kind": "finite", "size": model.size,
        "table": [list(r) for r in model.table],
        "inverse": list(model.inverse_table),
        "identity": model.identity_index,
    }
    if model.names is not None:
        doc["names"] = list(model.names)
    return doc


def decode_letter(P: RelativePresentation, obj, path="") -> Letter:
    if not isinstance(obj, dict):
        raise ParseError(f"letter must be an object, got {obj!r}", path)
    if "x" in obj:
        sym = obj["x"]
        if sym not in P.x_symbols:
            raise ParseError(f"unknown free-group symbol {sym!r}", path)
        sign = obj.get("sign", 1)
        if not is_int(sign) or sign not in (1, -1):
            raise ParseError(f"sign must be 1 or -1, got {sign!r}", path + ".sign")
        return XLetter(sym, sign)
    if "h" in obj:
        entry = obj["h"]
        if not isinstance(entry, dict) or "lambda" not in entry or "elem" not in entry:
            raise ParseError("peripheral letter needs lambda and elem", path)
        lam = entry["lambda"]
        model = P.models.get(lam) if is_int(lam) else None
        if model is None:
            raise ParseError(f"unknown model label {lam!r}", path)
        elem = model.decode(entry["elem"], path + ".elem")
        if model.is_identity(elem):
            raise ParseError(
                f"identity peripheral letter for model {lam} is not allowed", path)
        return HLetter(lam, elem)
    raise ParseError("letter must have an 'x' or 'h' key", path)


def encode_letter(P: RelativePresentation, l: Letter) -> dict:
    if isinstance(l, XLetter):
        return {"x": l.sym, "sign": l.sign}
    return {"h": {"lambda": l.lam, "elem": P.models[l.lam].encode(l.elem)}}


def decode_word(P: RelativePresentation, obj, path="") -> Word:
    if not isinstance(obj, list):
        raise ParseError("word must be a list of letters", path)
    return Word(tuple(
        decode_letter(P, o, f"{path}[{i}]") for i, o in enumerate(obj)))


def encode_word(P: RelativePresentation, w: Word) -> list:
    return [encode_letter(P, l) for l in w]


def parse_document(text: str) -> tuple[RelativePresentation, dict | None]:
    """Parse a presentation document; returns the presentation and the raw
    oracle configuration (if any) for the oracle layer to interpret."""
    try:
        doc = load_json(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno} column {exc.colno}: "
                         f"{exc.msg}") from None
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    x = doc.get("x", [])
    if not isinstance(x, list) or not all(isinstance(s, str) for s in x):
        raise ParseError("x must be a list of strings", "x")
    models: dict[int, PeripheralModel] = {}
    for i, mobj in enumerate(expect_json(doc.get("models", []), list,
                                         "models")):
        label, model = _decode_model(mobj, f"models[{i}]")
        if label in models:
            raise ParseError(f"duplicate model label {label}", f"models[{i}].label")
        models[label] = model
    shell = RelativePresentation(tuple(x), models, ())
    relators = []
    robj = doc.get("relators", [])
    if not isinstance(robj, list):
        raise ParseError("relators must be a list", "relators")
    for i, wobj in enumerate(robj):
        relators.append(decode_word(shell, wobj, f"relators[{i}]"))
    try:
        P = RelativePresentation(tuple(x), models, tuple(relators))
    except ValueError as exc:
        raise ParseError(str(exc), "relators") from None
    oracle = doc.get("oracle")
    if oracle is not None and not isinstance(oracle, dict):
        raise ParseError("oracle must be an object", "oracle")
    return P, oracle


def presentation_to_doc(P: RelativePresentation) -> dict:
    return {
        "x": list(P.x_symbols),
        "models": [_encode_model(lam, m) for lam, m in sorted(P.models.items())],
        "relators": [encode_word(P, r) for r in P.relators],
    }


def dump_json(obj) -> str:
    """The text of every JSON artifact: sorted keys, an indent of two."""
    return json.dumps(obj, sort_keys=True, indent=2)
