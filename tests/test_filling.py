"""Filling search, certificates, Dehn profiles and peripheral escalation."""

import dataclasses
import hashlib

import pytest
from hypothesis import assume, given, settings, strategies as st

from relhyp.cli import loop_literal_parse
from relhyp.filling import (
    FillingCertificate,
    RCell,
    Unknown,
    dehn_profile,
    relative_area,
    replay_certificate,
    rho_escalation,
)
from relhyp.presentation import EMPTY_WORD, Word, XLetter
from relhyp.presets import free_product_zz, hz, x_squared, xw, z_example


def _area(P, O, w, **kw):
    out = relative_area(P, O, w, **kw)
    assert isinstance(out, FillingCertificate), out
    return out


# ---------------------------------------------------------------------------
# relative area


def test_single_relator_loop_has_area_one():
    P, O = z_example()
    cert = _area(P, O, Word((hz(1, 1), hz(2, 1))), max_area=6, max_len=16)
    assert cert.area == 1
    assert replay_certificate(P, cert).is_empty


def test_stacked_loop_area_equals_width():
    P, O = z_example()
    for n in range(1, 5):
        cert = _area(P, O, Word((hz(1, n), hz(2, n))), max_area=6, max_len=16)
        assert cert.area == n
        assert replay_certificate(P, cert).is_empty
        assert sum(isinstance(m, RCell) for m in cert.trace) == n


def test_doubled_free_relator_has_area_two():
    P, O = x_squared()
    cert = _area(P, O, xw("x", "x", "x", "x"), max_area=6, max_len=16)
    assert cert.area == 2
    assert replay_certificate(P, cert).is_empty


def test_empty_loop_has_area_zero():
    P, O = z_example()
    cert = _area(P, O, EMPTY_WORD, max_area=2, max_len=4)
    assert cert.area == 0
    assert replay_certificate(P, cert).is_empty


def test_unreduced_spelling_of_empty_loop():
    P, O = z_example()
    cert = _area(P, O, Word((hz(1, 2), hz(1, -2))), max_area=2, max_len=4)
    assert cert.area == 0
    assert replay_certificate(P, cert).is_empty


def test_nontrivial_loop_is_rejected():
    P, O = z_example()
    with pytest.raises(ValueError):
        relative_area(P, O, Word((hz(1, 2),)), max_area=4, max_len=8)


def test_unfillable_exponent_vector_reports_unknown():
    P, _ = z_example()
    out = relative_area(P, None, Word((hz(1, 1),)), max_area=8, max_len=8)
    assert isinstance(out, Unknown)
    assert out.states_explored == 0


def test_small_area_budget_reports_unknown():
    P, O = z_example()
    out = relative_area(P, O, Word((hz(1, 5), hz(2, 5))), max_area=3,
                        max_len=16)
    assert isinstance(out, Unknown)


def test_search_is_deterministic():
    P, O = z_example()
    w = Word((hz(1, 3), hz(2, 3)))
    a = relative_area(P, O, w, max_area=8, max_len=16)
    b = relative_area(P, O, w, max_area=8, max_len=16)
    assert a == b


# The seven heavy loops of the perfbench `fill` workload (areas 4 and 5).
HEAVY_LOOPS = ("h1^-2 h2^2 h1^2 h2^-2", "h1^2 h2^-2 h1^-2 h2^2",
               "h2^-1 h1^-1 h2^3 h1^3", "h2^-3 h1^1 h2^1 h1^-3",
               "h2^3 h1^-1 h2^-1 h1^3", "h1^2 h2^-3 h1^-3 h2^2",
               "h2^2 h1^-3 h2^-3 h1^2")


def test_search_enumeration_order_is_pinned():
    # the certificates (trace included) and state counts depend on the order
    # in which successors are visited; a kernel change must not move them
    P, O = z_example()
    digest = hashlib.sha256()
    for text in HEAVY_LOOPS:
        out = relative_area(P, O, loop_literal_parse(P, text), max_area=6,
                            max_len=8)
        digest.update(repr(out).encode())
    assert digest.hexdigest() == \
        "0cec051e8318bffec722086e600bd24f0a0ee76c4ffc137c2053ce80782c7bbb"
    w = loop_literal_parse(P, HEAVY_LOOPS[5])
    out = relative_area(P, O, w, max_area=6, max_len=8, max_states=30)
    assert out == Unknown("state budget exhausted", 6, 8, 31)
    out = relative_area(P, O, w, max_area=4, max_len=8)
    assert out == Unknown("no filling within caps", 4, 8, 726)


def test_results_do_not_depend_on_earlier_searches():
    # the search table is built once and kept on the presentation; the
    # letters earlier calls interned must not change a later result
    calls = [(text, {}) for text in HEAVY_LOOPS + (
        "", "h1^1 h2^-1 h2^1 h1^-1", "h1^3 h2^3", "h2^-2 h1^-2")]
    calls += [("h1^1 h2^-1", {}), ("h1^2 h2^2 h1^1", {}),  # off the lattice
              (HEAVY_LOOPS[5], {"max_states": 30}),
              (HEAVY_LOOPS[0], {"max_states": 3}),
              (HEAVY_LOOPS[5], {"max_area": 4})]

    def run(P, order):
        out = {}
        for i in order:
            text, kw = calls[i]
            out[i] = relative_area(P, None, loop_literal_parse(P, text),
                                   **{"max_area": 6, "max_len": 8, **kw},
                                   check_trivial=False)
        return [out[i] for i in range(len(calls))]

    P, _ = z_example()
    order = range(len(calls))
    forward = run(P, order)
    assert [out.area for out in forward[:11]] == \
        [4, 4, 4, 4, 4, 5, 5, 0, 0, 3, 2]
    assert [out.reason.split()[0] for out in forward[11:]] == \
        ["exponent", "exponent", "state", "state", "no"]
    assert list(map(repr, run(P, reversed(order)))) == \
        list(map(repr, forward))
    assert list(map(repr, run(z_example()[0], reversed(order)))) == \
        list(map(repr, forward))


@st.composite
def _trivial_cyclic_loops(draw):
    """A cyclically reduced trivial loop: z_example of at most 4 letters with
    exponents in [-3, 3], or x^(2m) in x_squared."""
    if draw(st.booleans()):
        m = draw(st.integers(1, 4))
        sign = draw(st.sampled_from([1, -1]))
        return x_squared(), Word((XLetter("x", sign),) * (2 * m))
    n = draw(st.sampled_from([2, 4]))
    lam = draw(st.sampled_from([1, 2]))
    ks = draw(st.lists(st.integers(-3, 3).filter(bool), min_size=n - 1,
                       max_size=n - 1))
    # labels alternate; h1^k counts +k and h2^k counts -k in the quotient Z
    sign = [1 if (lam + j) % 2 else -1 for j in range(n)]
    last = -sum(s * k for s, k in zip(sign, ks)) * sign[-1]
    assume(last and abs(last) <= 3)
    labels = [1 + (lam + j + 1) % 2 for j in range(n)]
    return z_example(), Word(tuple(map(hz, labels, ks + [last])))


@settings(max_examples=15, deadline=None)
@given(_trivial_cyclic_loops(), st.integers(0, 3))
def test_area_is_invariant_under_rotation_and_inversion(loop, j):
    (P, O), w = loop
    j %= len(w)
    rotated = Word(w.letters[j:] + w.letters[:j])
    areas = []
    for v in (w, rotated, P.inverse_word(w)):
        cert = _area(P, O, v, max_area=6, max_len=8)
        assert replay_certificate(P, cert).is_empty
        areas.append(cert.area)
    assert areas[0] == areas[1] == areas[2]


def test_replay_rejects_tampered_certificates():
    P, O = x_squared()
    cert = _area(P, O, xw("x", "x", "x", "x"), max_area=6, max_len=16)
    with pytest.raises(ValueError):
        replay_certificate(P, dataclasses.replace(cert, area=cert.area + 1))
    stripped = dataclasses.replace(
        cert, trace=tuple(m for m in cert.trace if not isinstance(m, RCell)))
    with pytest.raises(ValueError):
        replay_certificate(P, stripped)


def test_area_is_subadditive_on_concatenation():
    P, O = z_example()
    c1 = Word((hz(1, 2), hz(2, 2)))
    c2 = Word((hz(1, 3), hz(2, 3)))
    a1 = _area(P, O, c1, max_area=8, max_len=24).area
    a2 = _area(P, O, c2, max_area=8, max_len=24).area
    both = _area(P, O, c1 + c2, max_area=8, max_len=24).area
    assert both <= a1 + a2


# ---------------------------------------------------------------------------
# Dehn profiles


def test_profile_without_relators_is_identically_zero():
    P, O = free_product_zz()
    prof = dehn_profile(P, O, n_max=10, rho=2, max_area=4, max_len=16)
    assert prof.exact
    for n in range(1, 11):
        e = prof.entry(n)
        assert e.max_area == 0 and e.loop_count == 0


def test_profile_of_order_two_generator_is_floor_half():
    P, O = x_squared()
    prof = dehn_profile(P, O, n_max=6, rho=3, max_area=8, max_len=16)
    assert prof.exact
    assert {n: prof.entry(n).max_area for n in range(1, 7)} == \
        {1: 0, 2: 1, 3: 1, 4: 2, 5: 2, 6: 3}
    assert {n: prof.entry(n).loop_count for n in (2, 4, 6)} == \
        {2: 1, 4: 2, 6: 3}


def test_profile_entry_grows_with_peripheral_bound():
    P, O = z_example()
    prof = dehn_profile(P, O, n_max=2, rho=4, max_area=8, max_len=16)
    assert prof.entry(2).max_area == 4
    assert prof.exact


def test_profile_entries_are_monotone():
    P, O = x_squared()
    prof = dehn_profile(P, O, n_max=8, rho=2, max_area=8, max_len=20)
    values = [prof.entry(n).max_area for n in range(1, 9)]
    assert values == sorted(values)


def test_profile_area_ratio_stays_at_most_one():
    P, O = x_squared()
    prof = dehn_profile(P, O, n_max=12, rho=2, max_area=10, max_len=28)
    assert prof.exact
    assert all(prof.entry(n).max_area <= n for n in range(1, 13))


# ---------------------------------------------------------------------------
# peripheral escalation


def test_rho_escalation_witnesses_unbounded_entry():
    P, O = z_example()
    report = rho_escalation(P, O, n=2, rhos=(2, 4, 8), max_area=16,
                            max_len=24)
    assert [r[1] for r in report.rows] == [2, 4, 8]
    assert all(r[2] for r in report.rows)
    assert report.unbounded_witness


def test_rho_escalation_flat_when_no_peripheral_letters():
    P, O = x_squared()
    report = rho_escalation(P, O, n=4, rhos=(1, 2, 3), max_area=8,
                            max_len=16)
    assert [r[1] for r in report.rows] == [2, 2, 2]
    assert not report.unbounded_witness
