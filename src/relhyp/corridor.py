"""Automorphisms preserving the peripheral structure, free actions by such
automorphisms, corridor length fields, flare separation checks, and the
corridor pairing identity, which checks the sweep that builds the length
fields against images worked out letter by letter.

An automorphism is given by images of the free generators plus, per
peripheral factor, a model isomorphism onto the image factor and a
conjugating word: peripheral letters map via alpha(h) = g^-1 iota(h) g.
Words in the acting free group are elements of ``FreeAction.group``, a
``FreeGroupModel``: reduced tuples of nonzero ints (letter i is the i-th
basis automorphism, -i its inverse).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce

from .errors import ParseError
from .presentation import (
    EMPTY_WORD,
    FiniteTableModel,
    FreeGroupModel,
    HLetter,
    RelativePresentation,
    Word,
    XLetter,
    decode_word,
    expect_json,
    free_reduce,
    int_label,
    is_int,
)


def exact_number(x) -> Fraction:
    """A user-supplied constant as a Fraction; floats go through their
    shortest repr, so 1.1 means 11/10 and not the binary double nearest it."""
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    return Fraction(str(x))


# ---------------------------------------------------------------------------
# relative automorphisms


@dataclass(eq=False)
class RelAutomorphism:
    x_images: dict                  # X symbol -> Word
    sigma: dict                     # peripheral label -> peripheral label
    peripheral_maps: dict           # label -> tuple of image-model elements,
                                    # one per model generator
    conjugators: dict               # label -> Word g
    inverse: "RelAutomorphism | None" = field(default=None, repr=False)


def link_inverses(a: RelAutomorphism, b: RelAutomorphism) -> RelAutomorphism:
    a.inverse = b
    b.inverse = a
    return a


def identity_automorphism(P: RelativePresentation) -> RelAutomorphism:
    alpha = RelAutomorphism(
        x_images={s: Word((XLetter(s, 1),)) for s in P.x_symbols},
        sigma={lam: lam for lam in P.models},
        peripheral_maps={lam: tuple(m.generators())
                         for lam, m in P.models.items()},
        conjugators={},
    )
    alpha.inverse = alpha
    return alpha


def apply_automorphism(P: RelativePresentation, alpha: RelAutomorphism,
                       w: Word) -> Word:
    out: list = []
    for l in w:
        out += _letter_image(P, alpha, l)
    return free_reduce(P, Word(tuple(out)))


def _letter_image(P: RelativePresentation, alpha: RelAutomorphism,
                  l) -> tuple:
    """The letters of alpha(l), not reduced."""
    if isinstance(l, XLetter):
        img = alpha.x_images[l.sym]
        return (img if l.sign > 0 else P.inverse_word(img)).letters
    target = alpha.sigma[l.lam]
    elem = P.models[l.lam].image(l.elem, alpha.peripheral_maps[l.lam],
                                 P.models[target])
    g = alpha.conjugators.get(l.lam, EMPTY_WORD)
    mid = () if P.models[target].is_identity(elem) \
        else (HLetter(target, elem),)
    return P.inverse_word(g).letters + mid + g.letters


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class AutoReport:
    ok: bool
    failures: tuple = ()            # (check name, witness description)

    def __bool__(self) -> bool:
        return self.ok


def _generator_words(P: RelativePresentation):
    for s in P.x_symbols:
        yield Word((XLetter(s, 1),))
    for lam in sorted(P.models):
        for h in P.models[lam].generators():
            yield Word((HLetter(lam, h),))


def _structure_failures(P: RelativePresentation,
                        alpha: RelAutomorphism) -> list:
    """The failures of the checks that alpha's data has the shape
    apply_automorphism reads: an x image per symbol, a permutation sigma
    and, per factor, a homomorphism onto the factor sigma sends it to."""
    failures: list = []
    if set(alpha.x_images) != set(P.x_symbols):
        failures.append(("x-images", "wrong symbol set"))
    if set(alpha.sigma) != set(P.models) or \
            sorted(alpha.sigma.values()) != sorted(P.models):
        failures.append(("sigma", "not a permutation of the factor labels"))
    else:
        for lam, m in P.models.items():
            dst = P.models[alpha.sigma[lam]]
            if type(m) is not type(dst):
                failures.append(("model-map", f"factor {lam} kind mismatch"))
                continue
            images = alpha.peripheral_maps.get(lam)
            gens = m.generators()
            if images is None or len(images) != len(gens):
                failures.append(("model-map",
                                 f"factor {lam} needs {len(gens)} images"))
                continue
            try:
                for img in images:
                    dst.validate(img)
            except ValueError as exc:
                failures.append(("model-map", f"factor {lam}: {exc}"))
                continue
            if isinstance(m, FiniteTableModel):
                if sorted(images) != sorted(dst.generators()):
                    failures.append(("model-map",
                                     f"factor {lam} map is not a bijection"))
                full = dict(zip(gens, images))
                full[m.identity()] = dst.identity()
                hom = all(
                    full[m.product(a, b)] == dst.product(full[a], full[b])
                    for a in full for b in full)
                if not hom:
                    failures.append(("model-map",
                                     f"factor {lam} map is not a "
                                     f"homomorphism"))
    return failures


def validate_relaut(P: RelativePresentation, O,
                    alpha: RelAutomorphism) -> AutoReport:
    """Check alpha's data's shape, that it preserves the relators and that
    it composes with its inverse to the identity both ways.  Peripheral
    conjugation needs no check: ``_letter_image`` conjugates by g."""
    failures = _structure_failures(P, alpha)
    if failures:
        return AutoReport(ok=False, failures=tuple(failures))

    for idx, R in enumerate(P.relators):
        if not O.is_trivial(apply_automorphism(P, alpha, R)):
            failures.append(("relator", f"relator {idx} not preserved"))

    if alpha.inverse is None:
        failures.append(("inverse", "no inverse data supplied"))
    elif broken := _structure_failures(P, alpha.inverse):
        # the composition checks apply the inverse: it must have its shape
        failures += [(f"inverse-{k}", w) for k, w in broken]
    else:
        for kind, outer, inner in (
                ("composition", alpha, alpha.inverse),
                ("composition-reverse", alpha.inverse, alpha)):
            for w in _generator_words(P):
                got = apply_automorphism(P, outer, apply_automorphism(
                    P, inner, w))
                if not O.equal(got, w):
                    failures.append((kind, _describe_letter(w[0])))

    return AutoReport(ok=not failures, failures=tuple(failures))


def _describe_letter(l) -> str:
    if isinstance(l, XLetter):
        return l.sym if l.sign > 0 else f"{l.sym}^-1"
    return f"h{l.lam}:{l.elem!r}"


# ---------------------------------------------------------------------------
# free actions


@dataclass(eq=False)
class FreeAction:
    basis: int
    automorphisms: tuple            # one RelAutomorphism per basis letter
    # (P, columns, tables), kept by _letter_images
    _images: tuple = field(default=(None,) * 3, init=False, repr=False)

    @property
    def group(self) -> FreeGroupModel:
        """The acting free group on the basis letters."""
        return FreeGroupModel(self.basis)

    def ball(self, radius: int) -> list:
        """Acting words of length <= radius: shortest first, each length in
        lexicographic order."""
        return [()] + list(self.group.elements_up_to(radius))


def validate_action(P: RelativePresentation, O,
                    action: FreeAction) -> AutoReport:
    failures: list = []
    if action.basis < 1 or len(action.automorphisms) != action.basis:
        failures.append(("basis", "automorphism count != basis size"))
    for i, alpha in enumerate(action.automorphisms):
        rep = validate_relaut(P, O, alpha)
        failures.extend((f"basis-{i + 1}-{k}", w) for k, w in rep.failures)
    return AutoReport(ok=not failures, failures=tuple(failures))


def apply_action(P: RelativePresentation, action: FreeAction, a,
                 w: Word) -> Word:
    """alpha_a(w) with the composition convention alpha_{bc} =
    alpha_b o alpha_c: letters act right to left."""
    for l in reversed(action.group.validate(tuple(a))):
        w = apply_automorphism(P, _basis_automorphism(action, l), w)
    return w


def _basis_automorphism(action: FreeAction, l: int) -> RelAutomorphism:
    """alpha_l for a basis letter l; a negative letter is the inverse."""
    alpha = action.automorphisms[abs(l) - 1]
    if l < 0 and alpha.inverse is None:
        raise ValueError(f"no inverse supplied for basis letter {abs(l)}")
    return alpha.inverse if l < 0 else alpha


# ---------------------------------------------------------------------------
# corridors


@dataclass(frozen=True, eq=False)
class Corridor:
    g: Word
    N: int
    entries: dict                   # fn word -> RelLength

    @property
    def all_exact(self) -> bool:
        return all(L.is_exact for L in self.entries.values())


def _letter_images(P: RelativePresentation, action: FreeAction, order,
                   parent, l) -> list:
    """Reduced ``P.alphabet`` codes of alpha_{a^-1}(l) for each tree node a
    of ``order`` (``action.ball(n)``; node k's parent is ``parent[k]``):
    alpha_{-a[-1]} of the image at a's parent, letter by letter.  Kept on
    the action across calls with each alpha_b's images of single letters;
    a larger ball extends a smaller one, so deeper calls append."""
    held, columns, tables = action._images
    if held is not P:
        columns, tables = {}, {}
        action._images = (P, columns, tables)
    A = P.alphabet
    c = A.intern(l)
    column = columns.setdefault(c, [(c,)])
    for k in range(len(column), len(order)):
        b = -order[k][-1]
        table = tables.setdefault(b, {})
        codes = []
        for x in column[parent[k]]:
            img = table.get(x)
            if img is None:
                img = table[x] = A.encode(_letter_image(
                    P, _basis_automorphism(action, b), A.letters[x]))
            codes += img
        column.append(A.splice((), 0, 0, codes))
    return column


def _corridor_keys(P: RelativePresentation, O, action: FreeAction, order,
                   g_sample):
    """Yield (g, keys) for each sampled g: keys[k] is the element key of
    alpha_{a^-1}(g) for the k-th tree node a of ``order``.

    Each alpha of an action that validate_action accepts is a homomorphism
    of the free product that kills every relator, so the key of alpha(g) is
    the key of alpha(g[:-1]) stepped by the codes of alpha(g[-1]); keys
    are element keys, so this holds for any spelling of g.  Keys are kept
    by prefix of g as given; the sample need not be prefix-closed, a miss
    goes back to the longest known prefix.
    """
    index = {a: k for k, a in enumerate(order)}
    parent = [None] + [index[a[:-1]] for a in order[1:]]
    step = O.step
    known = {(): [O.element_key(EMPTY_WORD)] * len(order)}
    for g in g_sample:
        letters = g.letters
        i = len(letters)
        while letters[:i] not in known:
            i -= 1
        keys = known[letters[:i]]
        for j in range(i, len(letters)):
            column = _letter_images(P, action, order, parent, letters[j])
            keys = [reduce(step, img, key)
                    for key, img in zip(keys, column)]
            known[letters[:j + 1]] = keys
        yield g, keys


def build_corridor(P: RelativePresentation, O, action: FreeAction,
                   g: Word, N: int) -> Corridor:
    """Length field over the tree ball: the entry at a is the relative
    length of alpha_{a^-1}(g)."""
    order = action.ball(N)
    ((_, keys),) = _corridor_keys(P, O, action, order, [g])
    entries = dict(zip(order, map(O.rel_length_of_key, keys)))
    return Corridor(g=g, N=N, entries=entries)


@dataclass(frozen=True)
class SeparationReport:
    factor: object
    N: int
    M: int
    w_radius: int
    verdict: str                    # "separated" or "violated"
    violations: tuple               # (g, w, u, v, (lw, lu, lv))
    indeterminate: tuple            # configurations skipped on inexact length
    sample_size: int

    @property
    def separated(self) -> bool:
        return self.verdict == "separated"


def check_separated(P: RelativePresentation, O, action: FreeAction,
                    g_sample, factor, N: int, M: int,
                    w_radius: int | None = None) -> SeparationReport:
    """For each sampled g and each corridor position w with length >= M,
    every opposite pair of tree directions at distance N must stretch the
    length by the given factor.  Positions w range over the radius-N tree
    ball by default; w_radius overrides that range.

    The test runs on integers: per g, the exact lengths (None where only
    bounded) in the order of the sweep's ball, with every position and
    pair resolved to indices into it once per call, and with factor =
    num/den a pair violates when max(lu, lv) * den < num * lw."""
    if not (factor > 1 and N >= 1 and M >= 1):
        raise ValueError("need factor > 1, N >= 1, M >= 1")
    if w_radius is None:
        w_radius = N
    lam = exact_number(factor)
    num, den = lam.numerator, lam.denominator
    G = action.group
    sphere = [s for s in action.ball(N) if len(s) == N]
    pairs = [(s, t) for i, s in enumerate(sphere) for t in sphere[i + 1:]
             if s[0] != t[0]]
    order = action.ball(w_radius + N)
    at = {a: k for k, a in enumerate(order)}
    positions = []
    for w in action.ball(w_radius):
        uvs = [(G.product(w, s), G.product(w, t)) for s, t in pairs]
        positions.append((w, at[w], [(u, v, at[u], at[v]) for u, v in uvs]))
    violations: list = []
    indeterminate: list = []
    count = 0
    for g, keys in _corridor_keys(P, O, action, order, g_sample):
        count += 1
        lengths = [L.lower if L.is_exact else None
                   for L in map(O.rel_length_of_key, keys)]
        for w, k, uvs in positions:
            lw = lengths[k]
            if lw is None:
                indeterminate.append((g, w, None, None))
                continue
            if lw < M:
                continue
            bound = num * lw
            for u, v, i, j in uvs:
                lu, lv = lengths[i], lengths[j]
                if lu is None or lv is None:
                    indeterminate.append((g, w, u, v))
                elif max(lu, lv) * den < bound:
                    violations.append((g, w, u, v, (lw, lu, lv)))
    return SeparationReport(
        factor=factor, N=N, M=M, w_radius=w_radius,
        verdict="violated" if violations else "separated",
        violations=tuple(violations), indeterminate=tuple(indeterminate),
        sample_size=count)


def check_uniform_flare(P: RelativePresentation, O, action: FreeAction,
                        g_sample, factor, N: int, M: int) -> SeparationReport:
    """The corridor-base slice of the separation test: positions anchored at
    the identity of the acting group."""
    return check_separated(P, O, action, g_sample, factor, N, M, w_radius=0)


# ---------------------------------------------------------------------------
# the corridor pairing identity


@dataclass(frozen=True)
class PairingReport:
    lhs: object
    rhs: object
    equal: bool | None
    indeterminate: bool = False


def corridor_cocycle_pairing(P: RelativePresentation, O, action: FreeAction,
                             g: Word, u, v) -> PairingReport:
    """Sum of corridor lengths along the tree geodesic from u to v, v left
    out, two ways: lhs reads them off the sweep (``build_corridor``), rhs
    asks the oracle the length of each alpha_{w^-1}(g) worked out letter by
    letter (``apply_action``).  Every vertex of the path has length at most
    max(|u|, |v|), so the sweep's ball of that radius holds it."""
    G = action.group
    u = G.product(u, ())
    v = G.product(v, ())
    s = G.product(G.inverse(u), v)
    path = [G.product(u, s[:i]) for i in range(len(s))]
    entries = build_corridor(P, O, action, g, max(len(u), len(v))).entries
    sides = ([entries[w] for w in path],
             [O.rel_length(apply_action(P, action, G.inverse(w), g))
              for w in path])
    if not all(L.is_exact for side in sides for L in side):
        return PairingReport(None, None, None, indeterminate=True)
    lhs, rhs = (sum(L.value for L in side) for side in sides)
    return PairingReport(lhs=lhs, rhs=rhs, equal=lhs == rhs)


# ---------------------------------------------------------------------------
# action documents


def _decode_automorphism(P: RelativePresentation, doc, path: str,
                         expect_inverse: bool = True) -> RelAutomorphism:
    if not isinstance(doc, dict):
        raise ParseError("automorphism must be an object", path)
    x_images = {}
    for sym, obj in expect_json(doc.get("x_images", {}), dict,
                                f"{path}.x_images").items():
        if sym not in P.x_symbols:
            raise ParseError(f"unknown generator {sym!r}", f"{path}.x_images")
        x_images[sym] = decode_word(P, obj, f"{path}.x_images.{sym}")
    sigma = {}
    for key, val in expect_json(doc.get("sigma", {}), dict,
                                f"{path}.sigma").items():
        if not is_int(val):
            raise ParseError(f"bad sigma entry {key!r}: {val!r}",
                             f"{path}.sigma")
        sigma[int_label(key, f"{path}.sigma")] = val
    maps = {}
    for key, val in expect_json(doc.get("peripheral_maps", {}), dict,
                                f"{path}.peripheral_maps").items():
        lam = int_label(key, f"{path}.peripheral_maps")
        if lam not in P.models:
            raise ParseError(f"unknown factor {lam}",
                             f"{path}.peripheral_maps")
        target = sigma.get(lam, lam)
        if target not in P.models:
            raise ParseError(f"sigma sends {lam} to unknown factor {target}",
                             f"{path}.sigma")
        dst = P.models[target]
        here = f"{path}.peripheral_maps.{key}"
        maps[lam] = tuple(dst.decode(o, here)
                          for o in expect_json(val, list, here))
    conjugators = {}
    for key, obj in expect_json(doc.get("conjugators", {}), dict,
                                f"{path}.conjugators").items():
        conjugators[int_label(key, f"{path}.conjugators")] = decode_word(
            P, obj, f"{path}.conjugators.{key}")
    alpha = RelAutomorphism(x_images=x_images, sigma=sigma,
                            peripheral_maps=maps, conjugators=conjugators)
    if "inverse" in doc and doc["inverse"] is not None:
        beta = _decode_automorphism(P, doc["inverse"], f"{path}.inverse",
                                    expect_inverse=False)
        link_inverses(alpha, beta)
    elif expect_inverse:
        raise ParseError("automorphism document lacks explicit inverse",
                         path)
    return alpha


def parse_action(P: RelativePresentation, doc) -> FreeAction:
    if not isinstance(doc, dict):
        raise ParseError("action document must be an object", "action")
    basis = doc.get("basis")
    autos = doc.get("automorphisms")
    if not is_int(basis) or basis < 1:
        raise ParseError("basis must be a positive integer", "action.basis")
    if not isinstance(autos, list) or len(autos) != basis:
        raise ParseError(f"need exactly {basis} automorphisms",
                         "action.automorphisms")
    return FreeAction(
        basis=basis,
        automorphisms=tuple(
            _decode_automorphism(P, a, f"action.automorphisms[{i}]")
            for i, a in enumerate(autos)))
