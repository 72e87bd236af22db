"""Automorphisms preserving the peripheral structure, free actions by such
automorphisms, corridor length fields, flare separation checks, and the
corridor pairing identity.

An automorphism is given by images of the free generators plus, per
peripheral factor, a model isomorphism onto the image factor and a
conjugating word: peripheral letters map via alpha(h) = g^-1 iota(h) g.
Words in the acting free group are elements of ``FreeAction.group``, a
``FreeGroupModel``: reduced tuples of nonzero ints (letter i is the i-th
basis automorphism, -i its inverse).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cayley import geodesic_witness, rel_length
from .errors import GeodesicNotFoundError, ParseError
from .presentation import (
    EMPTY_WORD,
    FiniteTableModel,
    FreeGroupModel,
    HLetter,
    RelativePresentation,
    Word,
    XLetter,
    decode_word,
    encode_word,
    exact_number,
    expect_json,
    free_reduce,
    int_label,
    is_int,
)


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
        if isinstance(l, XLetter):
            img = alpha.x_images[l.sym]
            out.extend(img if l.sign > 0 else P.inverse_word(img))
        else:
            target = alpha.sigma[l.lam]
            elem = P.models[l.lam].image(l.elem, alpha.peripheral_maps[l.lam],
                                         P.models[target])
            g = alpha.conjugators.get(l.lam, EMPTY_WORD)
            out.extend(P.inverse_word(g))
            if not P.models[target].is_identity(elem):
                out.append(HLetter(target, elem))
            out.extend(g)
    return free_reduce(P, Word(tuple(out)))


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


def validate_relaut(P: RelativePresentation, O,
                    alpha: RelAutomorphism) -> AutoReport:
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
    if failures:
        return AutoReport(ok=False, failures=tuple(failures))

    for idx, R in enumerate(P.relators):
        if not O.is_trivial(apply_automorphism(P, alpha, R)):
            failures.append(("relator", f"relator {idx} not preserved"))

    for lam in sorted(P.models):
        g = alpha.conjugators.get(lam, EMPTY_WORD)
        src, dst = P.models[lam], P.models[alpha.sigma[lam]]
        for h in src.generators():
            got = apply_automorphism(P, alpha, Word((HLetter(lam, h),)))
            elem = src.image(h, alpha.peripheral_maps[lam], dst)
            middle = Word(()) if dst.is_identity(elem) \
                else Word((HLetter(alpha.sigma[lam], elem),))
            want = free_reduce(P, P.inverse_word(g) + middle + g)
            if not O.equal(got, want):
                failures.append(("peripheral-conjugation",
                                 f"factor {lam} generator {h!r}"))

    if alpha.inverse is None:
        failures.append(("inverse", "no inverse data supplied"))
    else:
        for w in _generator_words(P):
            fwd = apply_automorphism(P, alpha, apply_automorphism(
                P, alpha.inverse, w))
            if not O.equal(fwd, w):
                failures.append(("composition", _describe_letter(w[0])))
        for w in _generator_words(P):
            bwd = apply_automorphism(P, alpha.inverse, apply_automorphism(
                P, alpha, w))
            if not O.equal(bwd, w):
                failures.append(("composition-reverse",
                                 _describe_letter(w[0])))

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
        alpha = action.automorphisms[abs(l) - 1]
        if l < 0:
            alpha = alpha.inverse
            if alpha is None:
                raise ValueError(f"no inverse supplied for basis letter "
                                 f"{abs(l)}")
        w = apply_automorphism(P, alpha, w)
    return w


# ---------------------------------------------------------------------------
# corridors


@dataclass(frozen=True)
class Corridor:
    g: Word = field(compare=False)
    N: int
    entries: dict = field(compare=False)    # fn word -> RelLength

    @property
    def all_exact(self) -> bool:
        return all(L.is_exact for L in self.entries.values())


def build_corridor(P: RelativePresentation, O, action: FreeAction,
                   g: Word, N: int) -> Corridor:
    """Length field over the tree ball: the entry at a is the relative
    length of alpha_{a^-1}(g)."""
    images = {(): free_reduce(P, g)}
    order = action.ball(N)
    for a in order:
        if a == ():
            continue
        prev = images[a[:-1]]
        images[a] = apply_action(P, action, (-a[-1],), prev)
    entries = {a: rel_length(P, O, images[a]) for a in order}
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
    ball by default; w_radius overrides that range."""
    if not (factor > 1 and N >= 1 and M >= 1):
        raise ValueError("need factor > 1, N >= 1, M >= 1")
    if w_radius is None:
        w_radius = N
    lam = exact_number(factor)
    G = action.group
    sphere = [s for s in action.ball(N) if len(s) == N]
    pairs = [(s, t) for i, s in enumerate(sphere) for t in sphere[i + 1:]
             if s[0] != t[0]]
    violations: list = []
    indeterminate: list = []
    count = 0
    for g in g_sample:
        count += 1
        corridor = build_corridor(P, O, action, g, w_radius + N)
        entries = corridor.entries
        for w in action.ball(w_radius):
            Lw = entries[w]
            if not Lw.is_exact:
                indeterminate.append((g, w, None, None))
                continue
            if Lw.value < M:
                continue
            for s, t in pairs:
                u = G.product(w, s)
                v = G.product(w, t)
                Lu, Lv = entries[u], entries[v]
                if not (Lu.is_exact and Lv.is_exact):
                    indeterminate.append((g, w, u, v))
                    continue
                if max(Lu.value, Lv.value) < lam * Lw.value:
                    violations.append((g, w, u, v,
                                       (Lw.value, Lu.value, Lv.value)))
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
    """Sum of corridor lengths along the tree geodesic from u to v versus
    the same quantity recomputed through telescoping distance increments of
    independently found geodesic witnesses."""
    G = action.group
    u = G.product(u, ())
    v = G.product(v, ())
    s = G.product(G.inverse(u), v)
    vertices = [G.product(u, s[:i]) for i in range(len(s) + 1)]
    lhs = 0
    rhs = 0
    for w in vertices[:-1]:
        h = apply_action(P, action, G.inverse(w), g)
        L = rel_length(P, O, h)
        if not L.is_exact:
            return PairingReport(None, None, None, indeterminate=True)
        rhs += L.value
        try:
            wit = geodesic_witness(P, O, h)
        except GeodesicNotFoundError:
            return PairingReport(None, None, None, indeterminate=True)
        prev = 0
        fsum = 0
        for j in range(1, len(wit) + 1):
            Lp = rel_length(P, O, wit[:j])
            if not Lp.is_exact:
                return PairingReport(None, None, None, indeterminate=True)
            fsum += Lp.value - prev
            prev = Lp.value
        lhs += fsum
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


def _encode_automorphism(P: RelativePresentation, alpha: RelAutomorphism,
                         with_inverse: bool = True) -> dict:
    doc = {
        "x_images": {s: encode_word(P, w)
                     for s, w in sorted(alpha.x_images.items())},
        "sigma": {str(k): v for k, v in sorted(alpha.sigma.items())},
        "peripheral_maps": {
            str(lam): [P.models[alpha.sigma[lam]].encode(e) for e in images]
            for lam, images in sorted(alpha.peripheral_maps.items())},
        "conjugators": {str(k): encode_word(P, w)
                        for k, w in sorted(alpha.conjugators.items())},
    }
    if with_inverse and alpha.inverse is not None:
        doc["inverse"] = _encode_automorphism(P, alpha.inverse,
                                              with_inverse=False)
    return doc


def encode_action(P: RelativePresentation, action: FreeAction) -> dict:
    return {
        "basis": action.basis,
        "automorphisms": [_encode_automorphism(P, a)
                          for a in action.automorphisms],
    }
