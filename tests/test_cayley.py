"""Truncated balls, relative length dispatch, and geodesic witnesses."""

import csv
import gc
import io
import json

from hypothesis import example, given, settings, strategies as st
import pytest

from relhyp import cayley, oracle as ora
from relhyp import presets
from relhyp.cayley import (
    ball_json_text,
    ball_to_csv,
    ball_to_json,
    geodesic_witness,
    rel_length,
    truncated_ball,
)
from relhyp.errors import GeodesicNotFoundError, ResourceCapError
from relhyp.presentation import (
    EMPTY_WORD,
    HLetter,
    Word,
    dump_json,
    encode_letter,
    free_reduce,
    parse_document,
)
from relhyp.presets import f2, free_product_zz, hz, x_squared, xw, z_example, zmod2_star


def _free_abelian_doc(x_images, models=(), model_images=None, dim=1):
    doc = {
        "x": [sym for sym, _ in x_images],
        "models": [{"label": lam, "kind": "Z^d", "rank": 1} for lam in models],
        "relators": [],
        "oracle": {
            "kind": "integer_quotient",
            "dim": dim,
            "x_images": {sym: list(v) for sym, v in x_images},
            "model_images": {str(lam): [list(r) for r in rows]
                             for lam, rows in (model_images or {}).items()},
        },
    }
    return parse_document(json.dumps(doc))


def _build(doc_pair):
    P, cfg = doc_pair
    return P, ora.build_oracle(P, cfg)


# ---------------------------------------------------------------------------
# truncated balls


def test_free_group_ball_counts():
    P, O = f2()
    ball = truncated_ball(P, O, radius=2, rho=1)
    assert ball.vertex_count == 17  # 1 + 4 + 12
    assert ball.depths.count(0) == 1
    assert ball.depths.count(1) == 4
    assert ball.depths.count(2) == 12


def test_width_one_ball_of_integer_example():
    P, O = z_example()
    ball = truncated_ball(P, O, radius=1, rho=3)
    assert ball.vertex_count == 7
    keys = sorted(O.image_vector(v)[0] for v in ball.vertices)
    assert keys == [-3, -2, -1, 0, 1, 2, 3]


def test_radius_zero_ball_is_identity_only():
    for P, O in (z_example(), f2(), zmod2_star()):
        ball = truncated_ball(P, O, radius=0, rho=2)
        assert ball.vertex_count == 1
        assert ball.edges == ()


def test_ball_edges_follow_the_oracle():
    P, O = zmod2_star()
    ball = truncated_ball(P, O, radius=3, rho=1)
    assert ball.edges
    for s, l, t in ball.edges:
        assert O.normal_form(ball.vertices[s] + Word((l,))) == ball.vertices[t]
    # each non-root vertex has an incoming edge from the previous depth
    for j, d in enumerate(ball.depths):
        if d == 0:
            continue
        assert any(t == j and ball.depths[s] == d - 1
                   for s, _, t in ball.edges)


def test_ball_alphabet_hands_out_the_interned_letters():
    """Repeated calls give the same letter objects, the presentation's own,
    so that the free-product step finds them by identity."""
    for build in (f2, zmod2_star):
        P, _ = build()
        first = cayley.ball_alphabet(P, 2)
        second = cayley.ball_alphabet(P, 2)
        assert first == second
        assert all(a is b for a, b in zip(first, second))
        assert all(P.alphabet.letters[P.alphabet.codes[l]] is l for l in first)


def test_ball_vertex_budget_cap():
    P, O = z_example()
    with pytest.raises(ResourceCapError) as err:
        truncated_ball(P, O, radius=1, rho=5, max_vertices=5)
    assert err.value.cap_name == "max_vertices"
    assert err.value.cap_value == 5


def test_ball_exports():
    P, O = z_example()
    ball = truncated_ball(P, O, radius=1, rho=2)
    csv = ball_to_csv(P, ball)
    lines = csv.strip().split("\n")
    assert lines[0] == "source,letter,target"
    assert len(lines) == 1 + len(ball.edges)
    doc = ball_to_json(P, ball)
    assert doc["radius"] == 1 and doc["peripheral_bound"] == 2
    assert len(doc["vertices"]) == ball.vertex_count
    assert len(doc["edges"]) == len(ball.edges)


def _named_zmod2_star():
    doc = presets.zmod2_star_doc()
    doc["models"][0]["names"] = ["e", "t"]
    return _build(parse_document(json.dumps(doc)))


BALL_GROUPS = {name: getattr(presets, name) for name in (
    "z_example", "x_squared", "free_product_zz", "f2", "zmod2_star", "z2")}
BALL_GROUPS["named_zmod2_star"] = _named_zmod2_star


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(BALL_GROUPS)), st.integers(0, 4),
       st.integers(0, 2))
@example("f2", 0, 1)
@example("named_zmod2_star", 3, 1)
@example("free_product_zz", 4, 2)
def test_ball_json_text_is_the_dumped_ball_at_each_depth(group, radius, rho):
    P, O = BALL_GROUPS[group]()
    ball = truncated_ball(P, O, radius, rho)
    text = dump_json(ball_to_json(P, ball))
    for depth in range(4):
        assert "".join(ball_json_text(P, ball, depth)) == \
            text.replace("\n", "\n" + "  " * depth)


class _NormalFormsOnly(ora.NormalFormOracle):
    """Free reduction, and every other query, keys and codes included, left
    to the base class."""

    def __init__(self, P):
        self.P = P

    def normal_form(self, w):
        return free_reduce(self.P, w)


def _base_default():
    P, _ = zmod2_star()
    return P, _NormalFormsOnly(P)


# every ball group and an oracle whose key is the normal form
WRITER_GROUPS = dict(BALL_GROUPS, base_default=_base_default)


def _csv_from_letters(P, ball) -> str:
    """The CSV of a ball written from its decoded letters by the csv
    module."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["source", "letter", "target"])
    for s, l, t in ball.edges:
        writer.writerow([s, json.dumps(encode_letter(P, l), sort_keys=True,
                                       separators=(",", ":")), t])
    return out.getvalue()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(WRITER_GROUPS)), st.integers(0, 4),
       st.integers(0, 2))
@example("named_zmod2_star", 3, 1)
@example("base_default", 3, 2)
@example("free_product_zz", 4, 2)
def test_ball_to_csv_is_the_csv_of_the_decoded_edges(group, radius, rho):
    P, O = WRITER_GROUPS[group]()
    ball = truncated_ball(P, O, radius, rho)
    assert ball_to_csv(P, ball) == _csv_from_letters(P, ball)


def test_ball_words_and_letters_are_decoded_from_the_walk():
    for group in sorted(WRITER_GROUPS):
        P, O = WRITER_GROUPS[group]()
        ball = truncated_ball(P, O, 3, 1)
        assert ball.vertices == tuple(O.word(k) for k in ball.keys)
        assert ball.edges == tuple((s, P.alphabet.letters[c], t)
                                   for s, c, t in ball.code_edges)
        assert ball.vertices is ball.vertices and ball.edges is ball.edges


def test_a_walked_ball_holds_nothing_the_collector_tracks():
    """Keys and code edges are ints and tuples of ints, so a collection
    untracks them and later collections skip them."""
    for build in (f2, z_example, x_squared):
        P, O = build()
        ball = truncated_ball(P, O, 4, 1)
        gc.collect()
        assert not any(map(gc.is_tracked, ball.keys)), build.__name__
        assert not any(map(gc.is_tracked, ball.code_edges)), build.__name__


# ---------------------------------------------------------------------------
# relative length


def test_rel_length_counts_syllables_in_free_products():
    P, O = free_product_zz()
    w = Word((hz(1, 3), hz(2, -2), hz(1, 1)))
    out = rel_length(P, O, w)
    assert out.is_exact and out.value == 3


def test_rel_length_is_bounded_on_the_integer_example():
    P, O = z_example()
    assert rel_length(P, O, Word((hz(1, 5),))).value == 1
    assert rel_length(P, O, EMPTY_WORD).value == 0
    # the relative metric is bounded: nothing is further than one letter
    for w in (Word((hz(1, 2), hz(2, 1))), Word((hz(2, 7),)),
              Word((hz(1, 1), hz(2, 2), hz(1, 4)))):
        assert rel_length(P, O, w).value <= 1


def test_rel_length_finite_quotient_table():
    P, O = x_squared()
    assert rel_length(P, O, xw("x", "x", "x")).value == 1
    assert rel_length(P, O, xw("x", "x")).value == 0


def test_rel_length_exact_two_letters_in_free_abelian_case():
    P, O = _build(_free_abelian_doc([("x", (1,))]))
    assert rel_length(P, O, xw("x", "x")).value == 2
    assert rel_length(P, O, xw("x")).value == 1


def test_rel_length_collapsing_bounds_at_three():
    P, O = _build(_free_abelian_doc([("a", (1, 0)), ("b", (0, 1))], dim=2))
    out = rel_length(P, O, xw("a", "a", "b"))
    assert out.lower == 3 and out.upper == 3 and out.is_exact


def test_rel_length_shortcut_through_the_lattice_collapses_bounds():
    # the canonical form a * b * h((2,2)) realizes the lower bound, so the
    # interval collapses even though no two letters suffice
    P, O = _build(_free_abelian_doc([("a", (1, 0)), ("b", (0, 1))],
                                    models=(1,),
                                    model_images={1: [(2, 2)]}, dim=2))
    out = rel_length(P, O, xw("a", "a", "a", "b", "b", "b"))
    assert out.is_exact and out.value == 3


def test_rel_length_strict_bounds_without_shortcuts():
    P, O = _build(_free_abelian_doc([("a", (1, 0, 0)), ("b", (0, 1, 0)),
                                     ("c", (0, 0, 1))], dim=3))
    out = rel_length(P, O, xw("a", "a", "b", "b", "c", "c"))
    assert not out.is_exact
    assert out.lower == 3 and out.upper == 6
    with pytest.raises(ValueError):
        _ = out.value


def test_rel_length_lattice_element_is_one_letter():
    P, O = _build(_free_abelian_doc([("a", (1, 0)), ("b", (0, 1))],
                                    models=(1,),
                                    model_images={1: [(2, 2)]}, dim=2))
    assert rel_length(P, O, xw("a", "a", "b", "b")).value == 1


def test_rel_length_symmetry_and_triangle():
    P, O = free_product_zz()
    samples = [
        EMPTY_WORD,
        Word((hz(1, 2),)),
        Word((hz(1, 1), hz(2, -1))),
        Word((hz(2, 3), hz(1, 1), hz(2, 1))),
    ]
    for u in samples:
        assert rel_length(P, O, u).value == \
            rel_length(P, O, P.inverse_word(u)).value
        for v in samples:
            assert rel_length(P, O, u + v).value <= \
                rel_length(P, O, u).value + rel_length(P, O, v).value


def test_rel_length_matches_ball_depths():
    # BFS depth equals relative length whenever truncation does not clip the
    # normal form's syllables
    P, O = free_product_zz()
    ball = truncated_ball(P, O, radius=2, rho=2)
    checked = 0
    for v, d in zip(ball.vertices, ball.depths):
        if all(P.models[l.lam].length(l.elem) <= 2 for l in v
               if isinstance(l, HLetter)):
            assert rel_length(P, O, v).value == d
            checked += 1
    assert checked >= 10

    P2, O2 = f2()
    ball2 = truncated_ball(P2, O2, radius=2, rho=1)
    for v, d in zip(ball2.vertices, ball2.depths):
        assert rel_length(P2, O2, v).value == d

    P3, O3 = zmod2_star()
    ball3 = truncated_ball(P3, O3, radius=4, rho=1)
    for v, d in zip(ball3.vertices, ball3.depths):
        assert rel_length(P3, O3, v).value == d


def test_rel_length_plugin_style_bounds():
    P, O = free_product_zz()

    class Wrapped(ora.NormalFormOracle):
        # no kind and no rel_length: the default bounds come from the base

        def normal_form(self, w):
            return O.normal_form(w)

    out = rel_length(P, Wrapped(), Word((hz(1, 1), hz(2, 2))))
    assert (out.lower, out.upper) == (1, 2)
    assert rel_length(P, Wrapped(), EMPTY_WORD).value == 0


# ---------------------------------------------------------------------------
# geodesic witnesses


def test_witness_merges_syllables():
    P, O = free_product_zz()
    w = Word((hz(1, 1), hz(1, 2)))
    out = geodesic_witness(P, O, w)
    assert out == Word((hz(1, 3),))


def test_witness_on_integer_example_is_single_letter():
    P, O = z_example()
    out = geodesic_witness(P, O, Word((hz(1, 2), hz(2, 1))))
    assert out == Word((hz(1, 1),))
    assert geodesic_witness(P, O, EMPTY_WORD) == EMPTY_WORD


def test_witness_finite_quotient():
    P, O = x_squared()
    out = geodesic_witness(P, O, xw("x", "x", "x"))
    assert len(out) == 1 and O.equal(out, xw("x"))


def test_witness_keys_the_word_once(monkeypatch):
    # the oracle's geodesic is asked on the key the length query used, by a
    # built-in oracle and by a plugin-style one (its one-letter normal form)
    for build, w, geodesic in [
            (x_squared, xw("x", "x", "x"), xw("x")),
            (_base_default,
             Word((HLetter(1, 1), HLetter(2, 1), HLetter(2, 1))),
             Word((HLetter(1, 1),)))]:
        P, O = build()
        keyed = []
        element_key = O.element_key
        monkeypatch.setattr(O, "element_key",
                            lambda w: keyed.append(w) or element_key(w))
        out = geodesic_witness(P, O, w)
        assert keyed == [w]
        assert out == geodesic


def test_witness_is_the_two_letter_normal_form():
    P, O = _build(_free_abelian_doc([("x", (1,))]))
    out = geodesic_witness(P, O, xw("x", "x", "x", "x-"))
    assert len(out) == 2 and O.equal(out, xw("x", "x"))


def test_witness_requires_exact_length():
    P, O = _build(_free_abelian_doc([("a", (1, 0, 0)), ("b", (0, 1, 0)),
                                     ("c", (0, 0, 1))], dim=3))
    with pytest.raises(GeodesicNotFoundError):
        geodesic_witness(P, O, xw("a", "a", "b", "b", "c", "c"))


def test_witness_needs_the_oracles_word():
    # an outside oracle that proves a length without naming a word for it
    class ExactTwo(_NormalFormsOnly):
        def rel_length_of_key(self, key):
            return ora.RelLength.exact(2)

    P, _ = zmod2_star()
    with pytest.raises(GeodesicNotFoundError):
        geodesic_witness(P, ExactTwo(P), Word((HLetter(1, 1),)))


def test_witness_found_through_lattice_alphabet():
    P, O = _build(_free_abelian_doc([("a", (1, 0)), ("b", (0, 1))],
                                    models=(1,),
                                    model_images={1: [(2, 2)]}, dim=2))
    w = xw("a", "a", "a", "b", "b", "b")
    out = geodesic_witness(P, O, w)
    assert len(out) == 3 and O.equal(out, w)


def test_witness_of_a_pair_of_factors_is_immediate():
    """Length 2 with long peripheral syllables (the normal form is an F_2
    syllable of 30 letters and a Z syllable): the oracle's two-letter word,
    at once."""
    P, O = _build(parse_document(json.dumps({
        "x": ["a"],
        "models": [{"label": 1, "kind": "F_k", "rank": 2},
                   {"label": 2, "kind": "F_k", "rank": 2},
                   {"label": 3, "kind": "Z^d", "rank": 1}],
        "relators": [],
        "oracle": {"kind": "integer_quotient", "dim": 3,
                   "x_images": {"a": [2, 0, -1]},
                   "model_images": {"1": [[1, 0, -1], [-1, -2, -2]],
                                    "2": [[-1, -1, 1], [2, 1, 0]],
                                    "3": [[2, 1, -1]]}},
    })))
    w = xw("a", "a") + Word((HLetter(1, (1, 2, 2, 2)),
                             HLetter(2, (1, 1, 1, 2, 2)), hz(3, 2)))
    assert rel_length(P, O, w).value == 2
    out = geodesic_witness(P, O, w)
    assert len(out) == 2 and O.equal(out, w)
