import json

import pytest
from hypothesis import given, settings, strategies as st

from relhyp import (
    FreeAbelianModel, FiniteTableModel, FreeGroupModel,
    XLetter, HLetter, Word, EMPTY_WORD, RelativePresentation,
    free_reduce, cyclically_reduce, parse_document, ParseError,
)
from relhyp.presentation import dump_json, letter_key, presentation_to_doc


Z_EXAMPLE_DOC = json.dumps({
    "x": [],
    "models": [
        {"label": 1, "kind": "Z^d", "rank": 1},
        {"label": 2, "kind": "Z^d", "rank": 1},
    ],
    "relators": [[{"h": {"lambda": 1, "elem": 1}}, {"h": {"lambda": 2, "elem": 1}}]],
})


def h(lam, k):
    return HLetter(lam, (k,))


def make_mixed_presentation():
    zmod2 = FiniteTableModel(
        size=2, table=((0, 1), (1, 0)), inverse_table=(0, 1), identity_index=0)
    return RelativePresentation(
        x_symbols=("x", "y"),
        models={1: FreeAbelianModel(1), 2: zmod2, 3: FreeGroupModel(2)},
        relators=(),
    )


def test_parse_z_example():
    P, _ = parse_document(Z_EXAMPLE_DOC)
    assert P.x_symbols == ()
    assert sorted(P.models) == [1, 2]
    assert all(isinstance(m, FreeAbelianModel) for m in P.models.values())
    assert len(P.relators) == 1
    assert P.relators[0] == Word((h(1, 1), h(2, 1)))


def test_roundtrip_is_identity_on_data_model():
    P, _ = parse_document(Z_EXAMPLE_DOC)
    text = dump_json(presentation_to_doc(P))
    again, _ = parse_document(text)
    assert again == P
    # and a second pass is byte-stable
    assert dump_json(presentation_to_doc(again)) == text


def test_roundtrip_mixed_models():
    P0 = make_mixed_presentation()
    P0 = RelativePresentation(
        P0.x_symbols, P0.models,
        relators=(Word((XLetter("x"), HLetter(2, 1), XLetter("x", -1),
                        HLetter(3, (1, 2)))),))
    text = dump_json(presentation_to_doc(P0))
    P1, _ = parse_document(text)
    assert P1 == P0
    assert dump_json(presentation_to_doc(P1)) == text


def test_free_reduce_cancels_h_pair():
    P, _ = parse_document(Z_EXAMPLE_DOC)
    w = Word((h(1, 2), h(1, -2)))
    assert free_reduce(P, w) == EMPTY_WORD


def test_free_reduce_keeps_distinct_labels():
    P, _ = parse_document(Z_EXAMPLE_DOC)
    w = Word((h(1, 1), h(2, 1)))
    assert free_reduce(P, w) == w


def test_free_reduce_merges_same_label():
    P, _ = parse_document(Z_EXAMPLE_DOC)
    assert free_reduce(P, Word((h(1, 2), h(1, 3)))) == Word((h(1, 5),))


def test_free_reduce_x_cancellation_and_cascade():
    P = make_mixed_presentation()
    w = Word((XLetter("x"), h(1, 1), h(1, -1), XLetter("x", -1), XLetter("y")))
    assert free_reduce(P, w) == Word((XLetter("y"),))


def test_relators_stored_cyclically_reduced():
    P = make_mixed_presentation()
    r = Word((XLetter("x", -1), h(1, 3), XLetter("x")))
    P2 = RelativePresentation(P.x_symbols, P.models, (r,))
    assert P2.relators[0] == Word((h(1, 3),))


def test_relator_reducing_to_empty_rejected():
    P = make_mixed_presentation()
    with pytest.raises(ValueError, match="empty"):
        RelativePresentation(P.x_symbols, P.models,
                             (Word((h(1, 1), h(1, -1))),))


def test_unknown_model_label_is_parse_error():
    doc = json.loads(Z_EXAMPLE_DOC)
    doc["relators"] = [[{"h": {"lambda": 9, "elem": 1}}]]
    with pytest.raises(ParseError, match="unknown model label"):
        parse_document(json.dumps(doc))


def test_identity_peripheral_letter_is_parse_error():
    doc = json.loads(Z_EXAMPLE_DOC)
    doc["relators"] = [[{"h": {"lambda": 1, "elem": 0}}]]
    with pytest.raises(ParseError, match="identity"):
        parse_document(json.dumps(doc))


def test_json_syntax_error_reports_position():
    with pytest.raises(ParseError, match=r"line \d+ column \d+"):
        parse_document("{\"x\": [,]}")


def test_error_paths_point_at_offending_piece():
    doc = json.loads(Z_EXAMPLE_DOC)
    doc["relators"] = [[{"h": {"lambda": 1, "elem": 1}}, {"bogus": 1}]]
    with pytest.raises(ParseError) as exc:
        parse_document(json.dumps(doc))
    assert "relators[0][1]" in str(exc.value)


def test_finite_table_validation_catches_bad_table():
    with pytest.raises(ValueError):
        FiniteTableModel(size=2, table=((0, 1), (0, 1)),
                         inverse_table=(0, 1), identity_index=0)


def test_finite_table_rejects_malformed_data():
    z2 = ((0, 1), (1, 0))
    with pytest.raises(ValueError, match="inverse table"):
        FiniteTableModel(size=2, table=z2, inverse_table=(0,),
                         identity_index=0)
    with pytest.raises(ValueError, match="inverse table"):
        FiniteTableModel(size=2, table=z2, inverse_table=(0, "a"),
                         identity_index=0)
    with pytest.raises(ValueError, match="table entry"):
        FiniteTableModel(size=2, table=((0, 1), (1, "a")),
                         inverse_table=(0, 1), identity_index=0)
    with pytest.raises(ValueError, match="identity index"):
        FiniteTableModel(size=2, table=z2, inverse_table=(0, 1),
                         identity_index="0")


def test_finite_table_associativity_is_exact_on_large_tables():
    def cyclic(n):
        return [[(a + b) % n for b in range(n)] for a in range(n)]

    def model(table, inverse):
        n = len(table)
        return FiniteTableModel(size=n, table=tuple(map(tuple, table)),
                                inverse_table=tuple(inverse),
                                identity_index=0)

    n = 33
    table = cyclic(n)
    model(table, [(-a) % n for a in range(n)])
    # one wrong entry keeps the identity and inverses intact; a fixed sample
    # of triples need not touch it
    table[3][31] = 2
    with pytest.raises(ValueError, match="not associative"):
        model(table, [(-a) % n for a in range(n)])
    # the dihedral group of order 34, (r^i s^j) as i + 17 j
    m = 17

    def mul(a, b):
        (i, j), (k, l) = divmod(a, m)[::-1], divmod(b, m)[::-1]
        return ((i + (-k if j else k)) % m) + m * ((j + l) % 2)

    dihedral = [[mul(a, b) for b in range(2 * m)] for a in range(2 * m)]
    inverse = [next(b for b in range(2 * m) if dihedral[a][b] == 0)
               for a in range(2 * m)]
    model(dihedral, inverse)


def test_finite_table_decode_by_name():
    doc = {
        "x": [], "relators": [],
        "models": [{"label": 1, "kind": "finite", "size": 2,
                    "table": [[0, 1], [1, 0]], "names": ["e", "r"]}],
    }
    P, _ = parse_document(json.dumps(doc))
    model = P.models[1]
    assert model.decode("r") == 1
    assert model.identity() == 0
    assert model.inverse(1) == 1


def test_free_group_model_arith():
    F = FreeGroupModel(2)
    assert F.product((1, 2), (-2, -1)) == ()
    assert F.inverse((1, -2)) == (2, -1)
    assert F.length((1, 1, 2)) == 3
    assert list(F.elements_up_to(1)) == [(-2,), (-1,), (1,), (2,)]


def test_free_abelian_enumeration():
    A = FreeAbelianModel(2)
    elems = list(A.elements_up_to(1))
    assert elems == [(-1, 0), (0, -1), (0, 1), (1, 0)]
    assert all(A.length(e) == 1 for e in elems)


# random words over the mixed presentation ---------------------------------

_P = make_mixed_presentation()


def _letters():
    xs = st.builds(XLetter,
                   st.sampled_from(["x", "y"]),
                   st.sampled_from([1, -1]))
    ha = st.integers(-3, 3).filter(lambda k: k != 0).map(lambda k: HLetter(1, (k,)))
    hf = st.just(HLetter(2, 1))
    hg = st.sampled_from([(1,), (-1,), (2,), (-2,), (1, 2)]).map(
        lambda t: HLetter(3, t))
    return st.one_of(xs, ha, hf, hg)


words = st.lists(_letters(), max_size=12).map(lambda ls: Word(tuple(ls)))


@given(words)
@settings(deadline=None)
def test_free_reduce_idempotent(w):
    r = free_reduce(_P, w)
    assert free_reduce(_P, r) == r


@given(words)
@settings(deadline=None)
def test_word_times_inverse_reduces_to_empty(w):
    assert free_reduce(_P, w + _P.inverse_word(w)) == EMPTY_WORD


@given(words)
@settings(deadline=None)
def test_free_reduce_never_lengthens(w):
    assert len(free_reduce(_P, w)) <= len(w)


@given(words, st.integers(0, 11))
@settings(deadline=None)
def test_cyclic_reduction_length_is_rotation_invariant(w, k):
    if len(w) == 0:
        return
    k %= len(w)
    rotated = Word(w.letters[k:] + w.letters[:k])
    assert len(cyclically_reduce(_P, rotated)) == len(cyclically_reduce(_P, w))


def _rebuilt(w: Word) -> Word:
    return Word(tuple(XLetter(l.sym, l.sign) if isinstance(l, XLetter)
                      else HLetter(l.lam, l.elem) for l in w))


@given(words)
@settings(deadline=None)
def test_kept_hashes_and_sort_keys_equal_fresh_ones(w):
    # hash and sort_key are kept at their first use; a copy built from the
    # same fields, hashed fresh, must agree with them (and so must the field
    # tuples the dataclass hash is defined on)
    first = (hash(w), w.sort_key(), [hash(l) for l in w])
    assert (hash(w), w.sort_key(), [hash(l) for l in w]) == first
    fresh = _rebuilt(w)
    assert fresh == w and fresh is not w
    assert (hash(fresh), fresh.sort_key(), [hash(l) for l in fresh]) == first
    assert hash(w) == hash((w.letters,))
    assert w.sort_key() == (len(w), tuple(letter_key(l) for l in w))
    for l in w:
        fields = (l.sym, l.sign) if isinstance(l, XLetter) else (l.lam, l.elem)
        assert hash(l) == hash(fields)
    # the kept values stay out of equality and repr
    assert repr(fresh) == repr(w)
    assert "_hash" not in repr(w) and "_sort_key" not in repr(w)


S3 = FiniteTableModel(
    size=6, table=((0, 1, 2, 3, 4, 5), (1, 0, 4, 5, 2, 3),
                   (2, 3, 0, 1, 5, 4), (3, 2, 5, 4, 0, 1),
                   (4, 5, 1, 0, 3, 2), (5, 4, 3, 2, 1, 0)),
    inverse_table=(0, 1, 2, 4, 3, 5), identity_index=0)
# Z/3 relabelled so that its identity is index 1; generators() is [0, 2]
Z3_ID1 = FiniteTableModel(size=3, table=((2, 0, 1), (0, 1, 2), (1, 2, 0)),
                          inverse_table=(2, 1, 0), identity_index=1)


@pytest.mark.parametrize("model, e, target, images, spec", [
    (FreeAbelianModel(2), (-3, 2), FreeAbelianModel(2), ((2, 1), (1, 1)),
     [(0, -1)] * 3 + [(1, 1)] * 2),
    (FreeAbelianModel(2), (-3, 2), S3, (3, 4), [(0, -1)] * 3 + [(1, 1)] * 2),
    (FreeGroupModel(2), (1, -2, -2, 1), FreeGroupModel(2), ((1, 2), (-1,)),
     [(0, 1), (1, -1), (1, -1), (0, 1)]),
    (FreeGroupModel(2), (1, -2, -2, 1), S3, (2, 3),
     [(0, 1), (1, -1), (1, -1), (0, 1)]),
    (Z3_ID1, 2, Z3_ID1, (2, 0), [(1, 1)]),
    (Z3_ID1, 0, Z3_ID1, (2, 0), [(0, 1)]),
    (Z3_ID1, 1, Z3_ID1, (2, 0), []),
    (Z3_ID1, 2, S3, (3, 4), [(1, 1)]),
    (Z3_ID1, 0, S3, (3, 4), [(0, 1)]),
    (Z3_ID1, 1, S3, (3, 4), []),
], ids=["zd-model", "zd-quotient", "fk-model", "fk-quotient",
        "finite-model", "finite-model-first", "finite-model-identity",
        "finite-quotient", "finite-quotient-first",
        "finite-quotient-identity"])
def test_model_image_folds_generator_images(model, e, target, images, spec):
    """images[i] is the image of generators()[i]; spec lists e as signed
    generator indices, folded here by hand in the target."""
    want = target.identity()
    for i, s in spec:
        want = target.product(
            want, images[i] if s > 0 else target.inverse(images[i]))
    assert model.image(e, images, target) == want
