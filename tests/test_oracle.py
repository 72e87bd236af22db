"""Oracle backends: integer lattices, normal forms, validity, plugins, and
the budgeted word-problem solver."""

import hashlib
import itertools
import json
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relhyp import filling
from relhyp import oracle as ora
from relhyp.cayley import ball_alphabet, geodesic_witness, rel_length
from relhyp.errors import OracleInvalidError, ParseError
from relhyp.presentation import (
    EMPTY_WORD,
    FiniteTableModel,
    FreeAbelianModel,
    FreeGroupModel,
    HLetter,
    RelativePresentation,
    Word,
    XLetter,
    free_reduce,
    parse_document,
)
from relhyp.presets import (
    f2,
    free_product_zz,
    hz,
    x_squared,
    xw,
    z2,
    z_example,
    zmod2_star,
)


# ---------------------------------------------------------------------------
# integer lattice helpers


def _matmul(A, V):
    return (np.array(A, dtype=object) @ np.array(V, dtype=object)).tolist()


def test_column_echelon_transform_identity():
    A = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
    H, V, pivots = ora.column_echelon(A)
    assert _matmul(A, V) == [list(r) for r in H]
    det = round(float(np.linalg.det(np.array(V, dtype=float))))
    assert det in (1, -1)
    assert len(pivots) <= 3


def test_integer_kernel_saturated():
    (v,) = ora.integer_kernel([[1, 1]])
    assert v[0] + v[1] == 0 and abs(v[0]) == 1
    (k,) = ora.integer_kernel([[2, 4]])
    assert k in ((2, -1), (-2, 1))
    assert ora.integer_kernel([[1, 0], [0, 1]]) == []


def test_solve_integer():
    solve = ora.integer_solver([[2], [0]])
    assert solve([4, 0]) == (2,)
    assert solve([3, 0]) is None
    sol = ora.integer_solver([[1, 2]])([5])
    assert sol is not None and sol[0] + 2 * sol[1] == 5


def test_reduce_mod_lattice_membership():
    ech = ora.row_echelon_lattice([(1, 1)])
    assert ora.reduce_mod(ech, (2, 2)) == (0, 0)
    assert any(ora.reduce_mod(ech, (3, 4)))
    ech2 = ora.row_echelon_lattice([(2, 0), (0, 3)])
    assert ora.reduce_mod(ech2, (4, -6)) == (0, 0)
    assert any(ora.reduce_mod(ech2, (1, 0)))


# ---------------------------------------------------------------------------
# free-product oracle


def test_free_product_normal_form_merges_syllables():
    _, O = free_product_zz()
    w = Word((hz(1, 1), hz(2, 1), hz(2, -1)))
    assert O.normal_form(w) == Word((hz(1, 1),))


def test_free_product_equality_is_order_sensitive():
    _, O = free_product_zz()
    u = Word((hz(1, 1), hz(2, 1)))
    v = Word((hz(2, 1), hz(1, 1)))
    assert not O.equal(u, v)
    assert O.equal(u, u)
    assert O.is_trivial(Word((hz(1, 2), hz(1, -2))))


def test_free_product_requires_empty_relator_set():
    P, _ = z_example()
    with pytest.raises(OracleInvalidError):
        ora.FreeProductOracle(P)


def test_free_product_peripheral_membership_and_cosets():
    _, O = free_product_zz()
    base = Word((hz(1, 2),))
    assert O.coset_key(base + Word((hz(2, 3),)), 2) == \
        O.coset_key(base + Word((hz(2, 7),)), 2)
    assert O.coset_key(base + Word((hz(2, 3),)), 2) != \
        O.coset_key(Word((hz(1, 3), hz(2, 3))), 2)


def test_free_product_with_finite_factors():
    _, O = zmod2_star()
    flip = HLetter(1, 1)
    assert O.is_trivial(Word((flip, flip)))
    long = Word((HLetter(1, 1), HLetter(2, 1), HLetter(1, 1), HLetter(2, 1)))
    assert len(O.normal_form(long)) == 4


# ---------------------------------------------------------------------------
# integer-quotient oracle


def test_integer_quotient_cancels_opposite_widths():
    _, O = z_example()
    assert O.normal_form(Word((hz(1, 3), hz(2, 3)))).is_empty


def test_integer_quotient_identifies_images():
    _, O = z_example()
    assert O.equal(Word((hz(1, 3),)), Word((hz(2, -3),)))
    assert not O.equal(Word((hz(1, 3),)), Word((hz(2, 3),)))


def test_integer_quotient_normal_form_is_retraction():
    _, O = z_example()
    samples = [
        EMPTY_WORD,
        Word((hz(1, 2),)),
        Word((hz(1, 2), hz(2, 5))),
        Word((hz(2, -1), hz(1, 4), hz(2, 2))),
    ]
    for u in samples:
        nf = O.normal_form(u)
        assert O.normal_form(nf) == nf
        for v in samples:
            lhs = O.normal_form(u + v)
            rhs = O.normal_form(O.normal_form(u) + O.normal_form(v))
            assert lhs == rhs


def test_integer_quotient_rejects_images_missing_the_relator():
    P, _ = z_example()
    with pytest.raises(OracleInvalidError):
        ora.IntegerQuotientOracle(P, 1, {}, {1: [(1,)], 2: [(1,)]})


def test_integer_quotient_peripheral_and_coset_keys():
    _, O = z_example()
    assert O.coset_key(Word((hz(1, 4),)), 1) == O.coset_key(EMPTY_WORD, 1)


# one free symbol a = g1 g2, a free group F_2 = <g1, g2> and a finite model;
# the slots are (a, g1, g2) and the finite model takes none
FK_DOC = {
    "x": ["a"],
    "models": [{"label": 1, "kind": "F_k", "rank": 2},
               {"label": 2, "kind": "finite", "size": 2,
                "table": [[0, 1], [1, 0]]}],
    "relators": [[{"x": "a", "sign": -1}, {"h": {"lambda": 1, "elem": [1, 2]}}]],
    "oracle": {"kind": "integer_quotient", "dim": 2, "x_images": {"a": [1, 1]},
               "model_images": {"1": [[1, 0], [0, 1]]}},
}


def _free_group_quotient():
    P, cfg = parse_document(json.dumps(FK_DOC))
    return P, ora.build_oracle(P, cfg)


def test_slot_layout_of_a_free_group_model():
    P, _ = _free_group_quotient()
    slots = P.slots
    assert slots is P.slots  # built once per presentation
    assert slots.x_col == {"a": 0}
    assert slots.model_cols == {1: (1, 2), 2: (3, 0)}
    assert slots.epsilon(Word((HLetter(1, (1, 1, -2)), XLetter("a", -1),
                               HLetter(2, 1)))) == (-1, 2, -1)
    assert slots.word((1, 2, -1)) == Word((XLetter("a", 1),
                                          HLetter(1, (1, 1, -2))))
    for eps in itertools.product(range(-2, 3), repeat=3):
        assert slots.epsilon(slots.word(eps)) == eps


def test_integer_quotient_with_a_free_group_model():
    P, O = _free_group_quotient()
    g = lambda *elem: HLetter(1, elem)  # noqa: E731
    assert O.normal_form(xw("a")) == Word((g(1, 2),))
    assert O.is_trivial(Word((HLetter(2, 1),)))
    samples = [EMPTY_WORD, xw("a"), xw("a-"), Word((g(2, -1),)),
               Word((g(-1, -1, 2), XLetter("a", 1))),
               Word((HLetter(2, 1), g(1), XLetter("a", -1)))]
    for u in samples:
        nf = O.normal_form(u)
        assert O.normal_form(nf) == nf and O.equal(nf, u)
        for v in samples:
            assert O.normal_form(u + v) == \
                O.normal_form(O.normal_form(u) + O.normal_form(v))
    assert O.solve_in_model(1, (2, -1)) == (1, 1, -2)
    assert O.solve_in_model(2, (1, 0)) is None
    w = Word((XLetter("a", 1), g(1)))  # image (2, 1)
    assert rel_length(P, O, w).value == 1
    assert geodesic_witness(P, O, w) == Word((g(1, 1, 2),))
    loop = Word((XLetter("a", -1), g(1), g(2)))
    assert filling.relative_area(P, O, loop).area == 1


def _integer_quotient_doc(dim, x_images, models, model_images):
    """A document of an integer quotient with no relators; models maps each
    label to its model object less the label."""
    return {"x": sorted(x_images),
            "models": [dict(m, label=lam) for lam, m in models.items()],
            "relators": [],
            "oracle": {"kind": "integer_quotient", "dim": dim,
                       "x_images": x_images,
                       "model_images": {str(lam): rows for lam, rows
                                        in model_images.items()}}}


def test_integer_quotient_two_letters_from_each_pair_of_sources(monkeypatch):
    # a -> (1, 0), h1 -> (0, 2), h2 -> (3, 0): (1, 2) is a free letter plus
    # a factor's, (3, 2) one letter of each factor and (2, 2) neither
    z = {"kind": "Z^d", "rank": 1}
    P, cfg = parse_document(json.dumps(_integer_quotient_doc(
        2, {"a": [1, 0]}, {1: z, 2: z}, {1: [[0, 2]], 2: [[3, 0]]})))
    O = ora.build_oracle(P, cfg)

    def unused(*args):
        raise AssertionError("lattice built after construction")

    monkeypatch.setattr(ora, "row_echelon_lattice", unused)
    monkeypatch.setattr(ora, "column_echelon", unused)
    cases = [(xw("a") + Word((hz(1, 1),)), 2),
             (Word((hz(2, 1), hz(1, 1))), 2),
             (xw("a", "a") + Word((hz(1, 1),)), 3),
             (Word((hz(1, 3),)), 1),
             (xw("a", "a"), 2)]
    for w, n in cases:
        assert O.rel_length(w) == ora.RelLength.exact(n), w
    assert O.coset_key(xw("a") + Word((hz(1, 1),)), 1) == (1, 0)
    assert O.coset_key(Word((hz(2, 1), hz(1, 1))), 2) == (0, 2)


def _random_integer_quotient(rng):
    """Dim 1-3, 0-2 free symbols and 1-3 factors of every kind, images in
    [-2, 2], no relators."""
    dim = rng.randint(1, 3)

    def image():
        return [rng.randint(-2, 2) for _ in range(dim)]

    models, model_images = {}, {}
    for lam in range(1, rng.randint(1, 3) + 1):
        kind = rng.choice(["Z^d", "F_k", "finite"])
        if kind == "finite":
            models[lam] = {"kind": kind, "size": 2, "table": [[0, 1], [1, 0]]}
        else:
            models[lam] = {"kind": kind, "rank": rng.randint(1, 2)}
            model_images[lam] = [image() for _ in range(models[lam]["rank"])]
    x_images = {sym: image() for sym in "ab"[:rng.randint(0, 2)]}
    P, cfg = parse_document(json.dumps(_integer_quotient_doc(
        dim, x_images, models, model_images)))
    return P, ora.build_oracle(P, cfg)


def test_integer_quotient_answers_are_pinned():
    """Lengths, one-letter geodesics and coset keys of seeded random integer
    quotients, at words of seeded slot vectors: any change to an answer
    changes the digest."""
    rng = random.Random(20)
    digest = hashlib.sha256()
    for _ in range(150):
        P, O = _random_integer_quotient(rng)
        for _ in range(40):
            w = P.slots.word([rng.randint(-2, 2)
                              for _ in range(P.slots.size)])
            n = O.rel_length(w)
            cosets = [O.coset_key(w, lam) for lam in sorted(P.models)]
            geo = O.geodesic_of_key(O.element_key(w), 1)
            digest.update(repr((n.lower, n.upper, geo, cosets)).encode())
    assert digest.hexdigest() == \
        "040f37e9414a78f3977405dfd6f483403b11abe7294736a56798178548eb7ce3"


def test_integer_quotient_geodesics_have_the_exact_length():
    """Every element of seeded random integer quotients whose length is
    exact gets a witness of exactly that many letters, equal to it."""
    rng = random.Random(29)
    for _ in range(150):
        P, O = _random_integer_quotient(rng)
        for _ in range(40):
            w = P.slots.word([rng.randint(-3, 3)
                              for _ in range(P.slots.size)])
            n = O.rel_length(w)
            if n.is_exact:
                out = geodesic_witness(P, O, w)
                assert len(out) == n.value and O.equal(out, w), (w, out)


# ---------------------------------------------------------------------------
# finite-quotient oracle


def test_finite_quotient_normal_form_x_cubed():
    _, O = x_squared()
    assert O.normal_form(xw("x", "x", "x")) == xw("x")
    assert O.normal_form(xw("x", "x")).is_empty


def test_finite_quotient_relative_distances():
    _, O = x_squared()
    assert O.rel_length(EMPTY_WORD).value == 0
    assert O.rel_length(xw("x")).value == 1
    geo = O.geodesic_of_key(O.element_key(xw("x", "x", "x")), 1)
    assert len(geo) == 1 and O.equal(geo, xw("x"))


def test_finite_quotient_rejects_non_vanishing_relator():
    P, _ = x_squared()
    z3 = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    with pytest.raises(OracleInvalidError):
        ora.build_oracle(P, {"kind": "finite_quotient", "size": 3,
                             "table": z3, "x_images": {"x": 1}})


def _w(*tokens):
    """Word from "x" / "x-" tokens and (label, element) pairs."""
    return Word(tuple(
        XLetter(t.rstrip("-"), -1 if t.endswith("-") else 1)
        if isinstance(t, str) else HLetter(*t) for t in tokens))


# S_3 on the sorted permutations of (0, 1, 2): 0 the identity, 2 = (0 1),
# 3 and 4 the 3-cycles; x maps to (0 1) and y dies
S3_QUOTIENT_DOC = {
    "x": ["x", "y"],
    "models": [{"label": 1, "kind": "Z^d", "rank": 1},
               {"label": 2, "kind": "F_k", "rank": 2},
               {"label": 3, "kind": "finite", "size": 2,
                "table": [[0, 1], [1, 0]]}],
    "relators": [[{"x": "x", "sign": 1}] * 2,
                 [{"h": {"lambda": 1, "elem": 3}}]],
    "oracle": {"kind": "finite_quotient", "size": 6,
               "table": [[0, 1, 2, 3, 4, 5], [1, 0, 4, 5, 2, 3],
                         [2, 3, 0, 1, 5, 4], [3, 2, 5, 4, 0, 1],
                         [4, 5, 1, 0, 3, 2], [5, 4, 3, 2, 1, 0]],
               "x_images": {"x": 2},
               "model_images": {"1": [3], "2": [2, 2], "3": [0, 2]}},
}

# word, normal form, relative length, geodesic and coset keys for labels
# 1, 2, 3
S3_QUOTIENT_ANSWERS = [
    (_w(), _w(), 0, _w(), (0, 0, 0)),
    (_w("x"), _w("x"), 1, _w("x"), (1, 0, 0)),
    (_w("y"), _w(), 0, _w(), (0, 0, 0)),
    (_w("y", "y"), _w(), 0, _w(), (0, 0, 0)),
    (_w("x", "y"), _w("x"), 1, _w("x"), (1, 0, 0)),
    (_w("y", "x", "y-"), _w("x"), 1, _w("x"), (1, 0, 0)),
    (_w((1, (1,))), _w((1, (1,))), 1, _w((1, (1,))), (0, 3, 3)),
    (_w((1, (2,)), "x"), _w("x", (1, (1,))), 2, _w("x", (1, (1,))),
     (1, 1, 1)),
    (_w((2, (1,))), _w("x"), 1, _w("x"), (1, 0, 0)),
    (_w((2, (-2, 1))), _w(), 0, _w(), (0, 0, 0)),
    (_w((2, (1, 2)), "y"), _w(), 0, _w(), (0, 0, 0)),
    (_w((3, 1)), _w("x"), 1, _w("x"), (1, 0, 0)),
    (_w((3, 1), "y"), _w("x"), 1, _w("x"), (1, 0, 0)),
    (_w("x-", (3, 1), "x"), _w("x"), 1, _w("x"), (1, 0, 0)),
    (_w("y", (2, (2,)), (1, (-1,))), _w("x", (1, (-1,))), 2,
     _w("x", (1, (-1,))), (1, 3, 3)),
    (_w((1, (1,)), (2, (1,)), (3, 1), "x"), _w("x", (1, (-1,))), 2,
     _w("x", (1, (-1,))), (1, 3, 3)),
]


def test_finite_quotient_answers_with_every_model_kind():
    P, cfg = parse_document(json.dumps(S3_QUOTIENT_DOC))
    O = ora.build_oracle(P, cfg)
    for w, nf, length, geo, cosets in S3_QUOTIENT_ANSWERS:
        assert O.normal_form(w) == nf
        assert O.rel_length(w).value == length
        assert O.geodesic_of_key(O.element_key(w), length) == geo
        assert tuple(O.coset_key(w, lam) for lam in (1, 2, 3)) == cosets


# ---------------------------------------------------------------------------
# configuration dispatch


def test_build_oracle_rejects_unknown_kind():
    P, _ = z_example()
    with pytest.raises(ParseError):
        ora.build_oracle(P, {"kind": "magic"})


def test_build_oracle_rejects_missing_dim():
    P, _ = z_example()
    with pytest.raises(ParseError):
        ora.build_oracle(P, {"kind": "integer_quotient"})


# ---------------------------------------------------------------------------
# plugin oracle

PLUGIN_EXPONENT_SUM = """\
import json
import sys

for line in sys.stdin:
    line = line.strip()
    if not line:
        continue
    letters = json.loads(line)
    n = 0
    for letter in letters:
        h = letter["h"]
        n += h["elem"] if h["lambda"] == 1 else -h["elem"]
    out = [] if n == 0 else [{"h": {"lambda": 1, "elem": n}}]
    sys.stdout.write(json.dumps(out) + "\\n")
    sys.stdout.flush()
"""


def test_plugin_oracle_speaks_line_json(tmp_path):
    script = tmp_path / "zplug.py"
    script.write_text(PLUGIN_EXPONENT_SUM)
    P, _ = z_example()
    with ora.build_oracle(P, {"kind": "plugin",
                              "command": [sys.executable, str(script)]}) as O:
        assert O.kind == "plugin"
        assert O.normal_form(Word((hz(1, 3), hz(2, 3)))).is_empty
        assert O.equal(Word((hz(1, 3),)), Word((hz(2, -3),)))
        # repeated queries are served from the cache
        assert O.normal_form(Word((hz(1, 3),))) == Word((hz(1, 3),))
        assert O.normal_form(Word((hz(1, 3),))) == Word((hz(1, 3),))


def test_plugin_oracle_bad_reply_is_an_oracle_error(tmp_path, monkeypatch):
    children = []

    class Recording(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            children.append(self)

    monkeypatch.setattr(subprocess, "Popen", Recording)
    # not JSON, and lists nested deeper than json.loads recurses
    for reply, message in (("'not json'", "Expecting value"),
                           ("'[' * 100000 + ']' * 100000",
                            "plugin reply: expected JSON nested less")):
        script = tmp_path / "broken.py"
        script.write_text("import sys\n"
                          "for line in sys.stdin:\n"
                          f"    sys.stdout.write({reply} + '\\n')\n"
                          "    sys.stdout.flush()\n")
        P, _ = z_example()
        with pytest.raises(OracleInvalidError, match=message):
            ora.build_oracle(P, {"kind": "plugin",
                                 "command": [sys.executable, str(script)]})
        # the failed construction closed the plugin it started
        assert children and all(p.poll() is not None for p in children)
        children.clear()


# ---------------------------------------------------------------------------
# budgeted word problem


def test_budgeted_relator_itself_has_area_one():
    P, _ = z_example()
    verdict = ora.budgeted_word_problem(P, Word((hz(1, 1), hz(2, 1))), 5, 10)
    assert isinstance(verdict, ora.Trivial) and verdict.area == 1


def test_budgeted_stacked_loop_has_area_two():
    P, _ = z_example()
    verdict = ora.budgeted_word_problem(P, Word((hz(1, 2), hz(2, 2))), 5, 10)
    assert isinstance(verdict, ora.Trivial) and verdict.area == 2


def test_budgeted_oracle_refutes_free_product_loop():
    P, O = free_product_zz()
    verdict = ora.budgeted_word_problem(P, Word((hz(1, 1), hz(2, 1))), 5, 10,
                                        oracle=O)
    assert isinstance(verdict, ora.NontrivialCertified)
    assert not verdict.witness.is_empty


def test_budgeted_unknown_when_caps_too_small():
    P, O = z_example()
    verdict = ora.budgeted_word_problem(P, Word((hz(1, 5), hz(2, 5))), 3, 10,
                                        oracle=O)
    assert isinstance(verdict, filling.Unknown)


def test_budgeted_never_contradicts_the_oracle():
    P, O = z_example()
    letters = [hz(lam, k) for lam in (1, 2) for k in (-2, -1, 1, 2)]
    words = [EMPTY_WORD]
    words += [Word((a,)) for a in letters]
    words += [Word((a, b)) for a in letters for b in letters]
    for w in words:
        verdict = ora.budgeted_word_problem(P, w, 4, 10, oracle=O)
        if O.is_trivial(w):
            assert isinstance(verdict, (ora.Trivial, filling.Unknown))
        else:
            assert isinstance(verdict, ora.NontrivialCertified)


# ---------------------------------------------------------------------------
# one-letter steps


class _ReducingOracle(ora.NormalFormOracle):
    """The smallest oracle: free reduction, and every other query, keys and
    step included, left to the base class."""

    def __init__(self, P):
        self.P = P

    def normal_form(self, w: Word) -> Word:
        return free_reduce(self.P, w)


def _bare_free_product():
    P, _ = free_product_zz()
    return P, _ReducingOracle(P)


def _mixed_free_product():
    P = RelativePresentation(
        x_symbols=("x", "y"),
        models={1: FreeAbelianModel(1), 3: FreeGroupModel(2),
                2: FiniteTableModel(size=2, table=((0, 1), (1, 0)),
                                    inverse_table=(0, 1), identity_index=0)},
        relators=())
    return P, ora.FreeProductOracle(P)


def _s3_quotient():
    P, cfg = parse_document(json.dumps(S3_QUOTIENT_DOC))
    return P, ora.build_oracle(P, cfg)


# free product (f2, free_product_zz, zmod2_star, whose factors are finite
# tables, and one with free letters and every model kind), integer
# (z_example, z2), finite (x_squared, and S_3 with every model kind) and the
# base default
STEP_BUILDERS = (f2, free_product_zz, zmod2_star, _mixed_free_product,
                 z_example, z2, x_squared, _s3_quotient, _bare_free_product)
STEP_GROUPS = {build.__name__: build() for build in STEP_BUILDERS}


@st.composite
def _step_case(draw):
    name = draw(st.sampled_from(sorted(STEP_GROUPS)))
    P, O = STEP_GROUPS[name]
    alphabet = ball_alphabet(P, 3)
    w = Word(tuple(draw(st.lists(st.sampled_from(alphabet), max_size=10))))
    nf = O.normal_form(w)
    # the inverse of nf's last letter cancels it, or merges it away
    inverse_last = [P.inverse_letter(nf[-1])] if nf.letters else []
    l = draw(st.sampled_from(alphabet + inverse_last * len(alphabet)))
    return name, w, l


@given(_step_case())
@settings(max_examples=300, deadline=None)
def test_step_equals_the_normal_form_of_the_product(case):
    name, w, l = case
    P, O = STEP_GROUPS[name]
    A = P.alphabet
    key = O.element_key(w)
    assert O.word(key) == O.normal_form(w)
    product = w + Word((l,))
    c = A.intern(l)
    assert O.step(key, c) == O.element_key(product)
    assert O.word(O.step(key, c)) == O.normal_form(product)
    # l's inverse cancels or merges away whatever l added
    assert O.step(O.step(key, c), A.intern(P.inverse_letter(l))) == key


@given(_step_case())
@settings(max_examples=200, deadline=None)
def test_codes_of_key_are_the_codes_of_the_normal_form(case):
    name, w, l = case
    P, O = STEP_GROUPS[name]
    for u in (w, w + Word((l,))):
        assert O.codes_of_key(O.element_key(u)) == \
            P.alphabet.encode(O.normal_form(u).letters)


def test_step_by_a_letter_the_alphabet_first_meets():
    """A code handed out just before the step: new to the alphabet's pair
    memos and to every code table the oracle keeps."""
    for build in STEP_BUILDERS:
        P, O = build()
        A = P.alphabet
        letters = [XLetter(sym, e) for sym in P.x_symbols for e in (1, -1)]
        letters += [HLetter(lam, e) for lam in sorted(P.models)
                    for e in P.models[lam].elements_up_to(2)]
        w = Word(tuple(letters[::2]))
        key = O.element_key(w)
        fresh = [l for l in letters if l not in A.codes]
        assert fresh, build.__name__
        for l in fresh:
            c = A.intern(l)
            assert O.step(key, c) == O.element_key(w + Word((l,)))
            assert O.codes_of_key(O.step(key, c)) == \
                A.encode(O.normal_form(w + Word((l,))).letters)


# every step group, and an integer quotient with a free-group model, whose
# key is not the element's image vector
COSET_GROUPS = dict(STEP_GROUPS, free_group_quotient=_free_group_quotient())


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_coset_of_key_is_the_coset_of_the_keys_element(data):
    """Coset keys against references that read no element key: w and w h
    share one for each h of the factor up to length 2, and on an integer
    quotient it is w's image vector reduced modulo the factor's image
    lattice."""
    name = data.draw(st.sampled_from(sorted(COSET_GROUPS)))
    P, O = COSET_GROUPS[name]
    alphabet = ball_alphabet(P, 3)
    w = Word(tuple(data.draw(st.lists(st.sampled_from(alphabet),
                                      max_size=10))))
    key = O.element_key(w)
    for lam in sorted(P.models):
        coset = O.coset_of_key(key, lam)
        for h in P.models[lam].elements_up_to(2):
            wh = O.element_key(w + Word((HLetter(lam, h),)))
            assert O.coset_of_key(wh, lam) == coset, h
        if isinstance(O, ora.IntegerQuotientOracle):
            lattice = ora.row_echelon_lattice([
                O.image_vector(Word((HLetter(lam, g),)))
                for g in P.models[lam].generators()])
            assert coset == ora.reduce_mod(lattice, O.image_vector(w))


def test_oracles_answer_on_keys_and_leave_word_forms_to_the_base():
    oracles = {cls for cls in vars(ora).values() if isinstance(cls, type)
               and issubclass(cls, ora.NormalFormOracle)
               and cls is not ora.NormalFormOracle}
    assert {cls.__name__ for cls in oracles} == {
        "FreeProductOracle", "IntegerQuotientOracle", "FiniteQuotientOracle",
        "PluginOracle"}
    for cls in oracles:
        assert not {"coset_key", "rel_length", "geodesic", "equal",
                    "is_trivial"} & set(vars(cls)), cls.__name__
    assert not hasattr(ora.FiniteQuotientOracle, "eval_word")


def test_step_cancels_and_merges_at_the_seam():
    def times(O, w, l):
        return O.word(O.step(O.element_key(w), O.P.alphabet.intern(l)))

    P, O = free_product_zz()
    nf = O.normal_form(Word((hz(1, 2), hz(2, -1))))
    assert times(O, nf, hz(2, 1)) == Word((hz(1, 2),))
    assert times(O, nf, hz(2, 3)) == Word((hz(1, 2), hz(2, 2)))
    assert times(O, nf, hz(1, 1)) == Word(nf.letters + (hz(1, 1),))
    P, O = f2()
    assert times(O, xw("x", "y"), XLetter("y", -1)) == xw("x")
    assert times(O, EMPTY_WORD, XLetter("y", -1)) == xw("y-")
    P, O = zmod2_star()
    assert times(O, Word((HLetter(1, 1),)), HLetter(1, 1)) == EMPTY_WORD
