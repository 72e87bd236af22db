"""Tests for relative automorphisms, free actions, corridor length fields,
flare separation checks, and the corridor pairing identity."""

import copy
from fractions import Fraction
import random

import pytest

from relhyp import corridor as cor, oracle as ora
from relhyp.cayley import ball_alphabet, rel_length, truncated_ball
from relhyp.cochain import build_window, window_to_json
from relhyp.corridor import (
    FreeAction,
    RelAutomorphism,
    apply_action,
    apply_automorphism,
    build_corridor,
    check_separated,
    check_uniform_flare,
    corridor_cocycle_pairing,
    encode_action,
    identity_automorphism,
    link_inverses,
    parse_action,
    validate_action,
    validate_relaut,
)
from relhyp.errors import ParseError
from relhyp.presentation import FreeGroupModel, HLetter, Word, free_reduce
from relhyp.presets import (
    f2,
    f2_stretch_action,
    f2_stretch_action_doc,
    free_product_zz,
    hz,
    identity_action,
    xw,
    z_example,
    zmod2_star,
)


def _stretch():
    """The x -> xy, y -> x example action (single basis letter)."""
    return f2_stretch_action()


def _swap_automorphism():
    """The involution x <-> y on the peripheral-free two-generator group."""
    alpha = RelAutomorphism(x_images={"x": xw("y"), "y": xw("x")},
                            sigma={}, peripheral_maps={}, conjugators={})
    alpha.inverse = alpha
    return alpha


def _conjugation_action():
    """Inner conjugation by h1(1) on the two-line integer example: the
    identity on the group, but with a nontrivial conjugator in its data."""
    P, O = z_example()
    gens = {lam: tuple(P.models[lam].generators()) for lam in P.models}
    fwd = RelAutomorphism(x_images={}, sigma={1: 1, 2: 2},
                          peripheral_maps=gens,
                          conjugators={2: Word((hz(1, 1),))})
    bwd = RelAutomorphism(x_images={}, sigma={1: 1, 2: 2},
                          peripheral_maps=gens,
                          conjugators={2: Word((hz(1, -1),))})
    link_inverses(fwd, bwd)
    return P, O, FreeAction(1, (fwd,))


def _commutator(P):
    return free_reduce(P, xw("x-", "y-", "x", "y"))


# ---------------------------------------------------------------------------
# words over the acting free group's basis


def test_basis_word_reduction_and_inversion():
    G = FreeAction(2, ()).group
    assert G == FreeGroupModel(2)
    assert G.product((1, -1, 2), ()) == (2,)
    assert G.product((1, 2, -2, -1), ()) == ()
    assert G.product((2, 1, 1), ()) == (2, 1, 1)
    assert G.validate((1, 2, -1)) == (1, 2, -1)
    with pytest.raises(ValueError):
        G.validate((1, -1))
    assert G.inverse((1, 2)) == (-2, -1)
    assert G.product(G.inverse((1, 2)), (1, 2)) == ()
    with pytest.raises(ValueError):
        G.product((1, 0), ())


def test_sphere_and_ball_enumeration():
    def sphere(basis, length):
        return [a for a in FreeAction(basis, ()).ball(length)
                if len(a) == length]

    assert sphere(1, 1) == [(-1,), (1,)]
    assert sphere(1, 2) == [(-1, -1), (1, 1)]
    assert len(sphere(2, 1)) == 4
    assert len(sphere(2, 2)) == 12
    G = FreeGroupModel(2)
    assert all(G.validate(a) == a for a in sphere(2, 3))
    ball = FreeAction(2, ()).ball(2)
    assert len(ball) == 1 + 4 + 12
    assert ball[:5] == [(), (-2,), (-1,), (1,), (2,)]
    assert ball == FreeAction(2, ()).ball(2)


# ---------------------------------------------------------------------------
# automorphism validation


def test_validation_passes_for_stretch_action():
    P, O, action = _stretch()
    assert validate_action(P, O, action)
    assert validate_relaut(P, O, action.automorphisms[0]).ok


def test_validation_passes_for_peripheral_identity():
    P, O = z_example()
    report = validate_action(P, O, identity_action(P))
    assert report.ok and report.failures == ()


def test_wrong_inverse_reported_with_witness():
    P, O = f2()
    alpha = RelAutomorphism(x_images={"x": xw("x", "y"), "y": xw("x")},
                            sigma={}, peripheral_maps={}, conjugators={})
    wrong = RelAutomorphism(x_images={"x": xw("y"), "y": xw("x")},
                            sigma={}, peripheral_maps={}, conjugators={})
    link_inverses(alpha, wrong)
    report = validate_relaut(P, O, alpha)
    assert not report.ok
    assert ("composition", "y") in report.failures
    assert ("composition-reverse", "x") in report.failures


def test_missing_inverse_reported():
    P, O = f2()
    alpha = RelAutomorphism(x_images={"x": xw("x", "y"), "y": xw("x")},
                            sigma={}, peripheral_maps={}, conjugators={})
    report = validate_relaut(P, O, alpha)
    assert not report.ok
    assert any(kind == "inverse" for kind, _ in report.failures)


def test_structural_failures_reported():
    P, O = f2()
    missing = RelAutomorphism(x_images={"x": xw("y")}, sigma={},
                              peripheral_maps={}, conjugators={})
    missing.inverse = missing
    assert any(k == "x-images"
               for k, _ in validate_relaut(P, O, missing).failures)

    Pz, Oz = z_example()
    bad_sigma = RelAutomorphism(
        x_images={}, sigma={1: 1, 2: 1},
        peripheral_maps={lam: tuple(Pz.models[lam].generators())
                         for lam in Pz.models},
        conjugators={})
    bad_sigma.inverse = bad_sigma
    assert any(k == "sigma"
               for k, _ in validate_relaut(Pz, Oz, bad_sigma).failures)

    bad_arity = RelAutomorphism(
        x_images={}, sigma={1: 1, 2: 2},
        peripheral_maps={1: (), 2: tuple(Pz.models[2].generators())},
        conjugators={})
    bad_arity.inverse = bad_arity
    assert any(k == "model-map"
               for k, _ in validate_relaut(Pz, Oz, bad_arity).failures)

    P2, O2, action = _stretch()
    assert not validate_action(
        P2, O2, FreeAction(2, action.automorphisms)).ok


def test_factor_swap_automorphism_on_free_product():
    P, O = free_product_zz()
    swap = RelAutomorphism(
        x_images={}, sigma={1: 2, 2: 1},
        peripheral_maps={1: tuple(P.models[2].generators()),
                         2: tuple(P.models[1].generators())},
        conjugators={})
    swap.inverse = swap
    assert validate_relaut(P, O, swap).ok
    image = apply_automorphism(P, swap, Word((hz(1, 1), hz(2, -2))))
    assert image == Word((hz(2, 1), hz(1, -2)))


def test_inner_conjugation_automorphism_is_valid():
    P, O, action = _conjugation_action()
    assert validate_action(P, O, action).ok
    image = apply_automorphism(P, action.automorphisms[0], Word((hz(2, 3),)))
    assert len(image) == 3
    assert O.equal(image, Word((hz(2, 3),)))


@pytest.mark.parametrize("build", [z_example, free_product_zz, zmod2_star])
def test_peripheral_letters_map_to_their_conjugates(build):
    """alpha(h) = g^-1 iota(h) g for each generator h of each factor, on
    random data of the right shape: a permuted sigma, random images in the
    target factor (the identity among them) and random conjugators, some
    left out.  validate_relaut does not check this: it holds by
    construction."""
    P, O = build()
    rng = random.Random(22)
    letters = ball_alphabet(P, 2)
    labels = sorted(P.models)
    elems = {lam: [m.identity(), *m.elements_up_to(3)]
             for lam, m in P.models.items()}

    def word(k):
        return Word(tuple(rng.choices(letters, k=rng.randrange(k))))

    for _ in range(300):
        sigma = dict(zip(labels, rng.sample(labels, len(labels))))
        alpha = RelAutomorphism(
            x_images={s: word(4) for s in P.x_symbols}, sigma=sigma,
            peripheral_maps={
                lam: tuple(rng.choice(elems[sigma[lam]])
                           for _ in P.models[lam].generators())
                for lam in labels},
            conjugators={lam: word(5) for lam in labels
                         if rng.random() < 0.8})
        for lam in labels:
            src, dst = P.models[lam], P.models[sigma[lam]]
            g = alpha.conjugators.get(lam, Word(()))
            for h in src.generators():
                elem = src.image(h, alpha.peripheral_maps[lam], dst)
                middle = Word(()) if dst.is_identity(elem) \
                    else Word((HLetter(sigma[lam], elem),))
                assert apply_automorphism(
                    P, alpha, Word((HLetter(lam, h),))) == \
                    free_reduce(P, P.inverse_word(g) + middle + g)


# ---------------------------------------------------------------------------
# applying automorphisms and action words


def test_apply_substitutes_and_reduces():
    P, O, action = _stretch()
    alpha = action.automorphisms[0]
    assert apply_automorphism(P, alpha, xw("x", "y")) == xw("x", "y", "x")
    assert apply_automorphism(P, alpha, xw("x-")) == xw("y-", "x-")
    comm = _commutator(P)
    assert apply_automorphism(P, alpha, comm) == \
        free_reduce(P, P.inverse_word(comm))


def test_identity_automorphism_fixes_words():
    P, O = f2()
    alpha = identity_automorphism(P)
    for w in (xw("x", "y", "x-"), xw("y-"), Word(())):
        assert apply_automorphism(P, alpha, w) == free_reduce(P, w)


def test_apply_action_rejects_bad_basis_words():
    P, O, action = _stretch()
    with pytest.raises(ValueError):
        apply_action(P, action, (1, -1), xw("x"))
    with pytest.raises(ValueError):
        apply_action(P, action, (5,), xw("x"))


def test_negative_letters_use_the_inverse_automorphism():
    P, O, action = _stretch()
    assert apply_action(P, action, (-1,), xw("x", "y")) == xw("x")
    assert apply_action(P, action, (1,), xw("x", "y")) == \
        apply_automorphism(P, action.automorphisms[0], xw("x", "y"))


def test_apply_action_composition_randomized():
    P, O, action = _stretch()
    mixed = FreeAction(2, (action.automorphisms[0], _swap_automorphism()))
    assert validate_action(P, O, mixed).ok
    rng = random.Random(7)
    ball = truncated_ball(P, O, 3, 1).vertices
    G = mixed.group
    for _ in range(40):
        a = G.product(rng.choices([-2, -1, 1, 2], k=rng.randrange(4)), ())
        b = G.product(rng.choices([-2, -1, 1, 2], k=rng.randrange(4)), ())
        w = rng.choice(ball)
        assert apply_action(P, mixed, a, apply_action(P, mixed, b, w)) == \
            apply_action(P, mixed, G.product(a, b), w)


# ---------------------------------------------------------------------------
# corridors


def test_corridor_entries_for_stretch_example():
    P, O, action = _stretch()
    corridor = build_corridor(P, O, action, xw("x"), 1)
    values = {a: L.value for a, L in corridor.entries.items()}
    assert values == {(): 1, (1,): 1, (-1,): 2}
    assert corridor.all_exact


def test_corridor_constant_under_inner_conjugation():
    P, O, action = _conjugation_action()
    corridor = build_corridor(P, O, action, Word((hz(2, 3),)), 2)
    assert {L.value for L in corridor.entries.values()} == {1}


def test_corridor_of_empty_word_is_zero():
    P, O, action = _stretch()
    corridor = build_corridor(P, O, action, Word(()), 2)
    assert set(corridor.entries) == set(action.ball(2))
    assert all(L.value == 0 for L in corridor.entries.values())


def test_corridor_base_entry_matches_relative_length():
    P, O, action = _stretch()
    for g in truncated_ball(P, O, 3, 1).vertices:
        corridor = build_corridor(P, O, action, g, 1)
        assert corridor.entries[()].value == rel_length(P, O, g).value


def test_corridor_translates_along_the_action():
    P, O, action = _stretch()
    g = xw("x", "y", "x")
    wide = build_corridor(P, O, action, g, 3)
    G = action.group
    for b in action.ball(2):
        shifted = build_corridor(P, O, action, apply_action(P, action, b, g), 1)
        for a in action.ball(1):
            assert shifted.entries[a].value == \
                wide.entries[G.product(G.inverse(b), a)].value


def _reference_entries(P, O, action, g, N):
    """Each tree node's image of the whole word, by apply_action from its
    parent's image, then its relative length."""
    order = action.ball(N)
    images = {(): free_reduce(P, g)}
    for a in order[1:]:
        images[a] = apply_action(P, action, (-a[-1],), images[a[:-1]])
    return {a: rel_length(P, O, images[a]) for a in order}


def _assert_sweep_matches(P, O, action, sample, N):
    """The sweep over the whole sample and build_corridor on each element
    give the reference entries; returns the number of (g, a) pairs."""
    order = action.ball(N)
    swept = cor._corridor_keys(P, O, action, order, sample)
    pairs = 0
    for g, (h, keys) in zip(sample, swept, strict=True):
        assert h is g
        want = _reference_entries(P, O, action, g, N)
        assert dict(zip(order, map(O.rel_length_of_key, keys))) == want
        assert build_corridor(P, O, action, g, N).entries == want
        pairs += len(want)
    return pairs


def test_corridor_sweep_matches_reference_over_the_radius_six_ball():
    P, O, action = _stretch()
    ball = truncated_ball(P, O, 6, 1).vertices
    assert _assert_sweep_matches(P, O, action, ball, 2) == 7285


def test_corridor_sweep_matches_reference_off_prefix_closed_samples():
    P, O, action = _stretch()
    ball = truncated_ball(P, O, 6, 1).vertices
    sample = random.Random(5).sample(ball, 150)
    held = set(sample)
    assert any(len(g) > 1 and g[:-1] not in held for g in sample)
    _assert_sweep_matches(P, O, action, sample, 3)


def test_corridor_sweep_reduces_its_words():
    P, O, action = _stretch()
    rng = random.Random(3)
    letters = [xw(s).letters[0] for s in ("x", "x-", "y", "y-")]
    words = [Word(tuple(rng.choice(letters) for _ in range(rng.randrange(9))))
             for _ in range(60)]
    words += [xw("x", "x-"), xw("x", "y", "y-", "x-", "y"), xw("y-", "y")]
    assert any(free_reduce(P, w) != w for w in words)
    _assert_sweep_matches(P, O, action, words, 2)


def test_corridor_sweep_matches_reference_for_mixed_and_peripheral_actions():
    P, O, action = _stretch()
    mixed = FreeAction(2, (action.automorphisms[0], _swap_automorphism()))
    _assert_sweep_matches(P, O, mixed, truncated_ball(P, O, 3, 1).vertices, 2)
    Pz, Oz, conj = _conjugation_action()
    sample = list(truncated_ball(Pz, Oz, 2, 2).vertices) + \
        [Word((hz(1, 1), hz(2, -2), hz(1, 3)))]
    _assert_sweep_matches(Pz, Oz, conj, sample, 2)


def test_windows_and_corridors_compare_by_identity():
    # a window's radius, rho and size, and a corridor's depth, do not make
    # its contents: results of the same shape are still different results
    W1, W2 = (build_window(P, O, radius=1, rho=1)
              for P, O in (zmod2_star(), f2()))
    assert (W1.radius, W1.rho, W1.size) == (W2.radius, W2.rho, W2.size)
    assert window_to_json(W1) != window_to_json(W2)
    P, O, action = _stretch()
    C1, C2 = (build_corridor(P, O, action, g, 2)
              for g in (xw("x"), xw("y", "y", "y")))
    assert C1.entries != C2.entries
    assert W1 != W2 and C1 != C2
    assert W1 == W1 and C1 == C1


# ---------------------------------------------------------------------------
# separation checks


def test_identity_action_is_always_violated():
    P, O = f2()
    action = identity_action(P)
    for lam in (1.1, 2.0, 10.0):
        report = check_separated(P, O, action, [xw("x", "x", "x")], lam, 1, 1)
        assert report.verdict == "violated" and not report.separated
        assert all(lens == (3, 3, 3) for *_, lens in report.violations)
    Pz, Oz = z_example()
    report = check_separated(Pz, Oz, identity_action(Pz),
                             [Word((hz(1, 1),))], 1.5, 1, 1)
    assert report.verdict == "violated"
    assert report.violations[0][4] == (1, 1, 1)


def test_hand_checked_stretched_word_is_separated():
    P, O, action = _stretch()
    report = check_separated(P, O, action, [xw("x", "y")], 1.5, 1, 1)
    assert report.separated and report.violations == ()
    assert report.sample_size == 1 and report.w_radius == 1


def test_separation_parameter_validation():
    P, O, action = _stretch()
    for bad in ((1.0, 1, 1), (1.5, 0, 1), (1.5, 1, 0)):
        with pytest.raises(ValueError):
            check_separated(P, O, action, [], *bad)


def _fraction_separation(P, O, action, g_sample, factor, N, M, w_radius,
                         entries):
    """check_separated with one Fraction product per pair over a dict of
    RelLengths, entries[g] being g's corridor: the reference for the
    integer test."""
    lam = cor.exact_number(factor)
    G = action.group
    sphere = [s for s in action.ball(N) if len(s) == N]
    pairs = [(s, t) for i, s in enumerate(sphere) for t in sphere[i + 1:]
             if s[0] != t[0]]
    violations, indeterminate = [], []
    for g in g_sample:
        for w in action.ball(w_radius):
            Lw = entries[g][w]
            if not Lw.is_exact:
                indeterminate.append((g, w, None, None))
                continue
            if Lw.value < M:
                continue
            for s, t in pairs:
                u, v = G.product(w, s), G.product(w, t)
                Lu, Lv = entries[g][u], entries[g][v]
                if not (Lu.is_exact and Lv.is_exact):
                    indeterminate.append((g, w, u, v))
                elif max(Lu.value, Lv.value) < lam * Lw.value:
                    violations.append((g, w, u, v,
                                       (Lw.value, Lu.value, Lv.value)))
    return cor.SeparationReport(
        factor=factor, N=N, M=M, w_radius=w_radius,
        verdict="violated" if violations else "separated",
        violations=tuple(violations), indeterminate=tuple(indeterminate),
        sample_size=len(g_sample))


class _NormalFormsOnly(ora.NormalFormOracle):
    """Free reduction and nothing else: lengths past one letter are only
    bounded, so the checks meet indeterminate pairs."""

    def __init__(self, P):
        self.P = P

    def normal_form(self, w):
        return free_reduce(self.P, w)


def _stretch_sample():
    P, O, action = _stretch()
    return P, O, action, truncated_ball(P, O, 4, 1).vertices


def _identity_sample():
    P, O = f2()
    return P, O, identity_action(P), truncated_ball(P, O, 3, 1).vertices


def _conjugation_sample():
    P, O, action = _conjugation_action()
    return P, O, action, truncated_ball(P, O, 2, 2).vertices


def _bounded_sample():
    P, O, action = _stretch()
    return P, _NormalFormsOnly(P), action, truncated_ball(P, O, 3, 1).vertices


@pytest.mark.parametrize("build, outcomes", (
    (_stretch_sample, {("violated", False)}),
    (_identity_sample, {("violated", False), ("separated", False)}),
    (_conjugation_sample, {("violated", False), ("separated", False)}),
    (_bounded_sample, {("separated", True)}),
), ids=("stretch", "identity", "conjugation", "bounded"))
def test_separation_compares_integers_as_the_fraction_rule(build, outcomes):
    """The check's integer test, max(lu, lv) * den < num * lw, reports what
    the Fraction rule max(Lu, Lv) < factor * Lw reports, at factors just
    above 1, between integers and a Fraction and at the bound itself (lw
    even at 3/2), with violations, separations and indeterminate pairs."""
    P, O, action, sample = build()
    entries = {g: build_corridor(P, O, action, g, 4).entries
               for g in sample}
    seen = set()
    for factor in (1.01, 1.1, 1.2, 1.5, 2, 10, Fraction(3, 2)):
        for N in (1, 2):
            for M in (1, 2, 3, 4):
                for w_radius in (0, 1, 2):
                    args = (P, O, action, sample, factor, N, M, w_radius)
                    got = check_separated(*args)
                    assert got == _fraction_separation(*args, entries)
                    seen.add((got.verdict, bool(got.indeterminate)))
    assert seen == outcomes


def test_flare_base_check_isolates_the_periodic_commutator_orbit():
    P, O, action = _stretch()
    ball = truncated_ball(P, O, 6, 1).vertices
    report = check_uniform_flare(P, O, action, ball, 1.2, 2, 3)
    assert report.verdict == "violated"
    comm = _commutator(P)
    pair = {comm, free_reduce(P, P.inverse_word(comm))}
    assert {v[0] for v in report.violations} == pair
    assert all(v[1] == () and v[4] == (4, 4, 4) for v in report.violations)
    # independent replay: both second iterates keep length 4 < 1.2 * 4
    alpha = action.automorphisms[0]
    for g in pair:
        fwd = apply_automorphism(P, alpha, apply_automorphism(P, alpha, g))
        bwd = apply_automorphism(P, alpha.inverse,
                                 apply_automorphism(P, alpha.inverse, g))
        assert len(fwd) == 4 and len(bwd) == 4
        assert max(len(fwd), len(bwd)) < 1.2 * len(g)


def test_flare_base_check_passes_once_periodic_orbit_is_excluded():
    P, O, action = _stretch()
    comm = _commutator(P)
    pair = {comm, free_reduce(P, P.inverse_word(comm))}
    sample = [g for g in truncated_ball(P, O, 6, 1).vertices if g not in pair]
    report = check_uniform_flare(P, O, action, sample, 1.2, 2, 3)
    assert report.separated and report.sample_size == 1455


def test_flare_base_check_passes_at_higher_length_threshold():
    P, O, action = _stretch()
    ball = truncated_ball(P, O, 6, 1).vertices
    report = check_uniform_flare(P, O, action, ball, 1.2, 2, 5)
    assert report.separated and report.violations == ()


def test_corridor_wide_check_sees_off_base_dips():
    P, O, action = _stretch()
    comm = _commutator(P)
    pair = {comm, free_reduce(P, P.inverse_word(comm))}
    sample = [g for g in truncated_ball(P, O, 6, 1).vertices if g not in pair]
    report = check_separated(P, O, action, sample, 1.2, 2, 3)
    assert report.w_radius == 2
    assert report.verdict == "violated"
    assert all(v[1] != () for v in report.violations)
    assert {v[0] for v in report.violations} == {
        xw("x-", "y-", "x", "y", "x-", "y-"),
        xw("x-", "y-", "x", "y", "y", "x"),
        xw("x-", "y-", "y-", "x-", "y", "x"),
        xw("y", "x", "y-", "x-", "y", "x"),
    }
    assert all(v[4] == (7, 7, 8) for v in report.violations)


def test_bounded_metric_makes_separation_vacuous():
    P, O, action = _conjugation_action()
    sample = [Word((hz(1, k),)) for k in range(-3, 4) if k] + \
        [Word((hz(1, 1), hz(2, -2))), Word(())]
    for act in (action, identity_action(P)):
        report = check_separated(P, O, act, sample, 1.5, 1, 2)
        assert report.separated and report.violations == ()
        assert report.sample_size == len(sample)


def test_violations_grow_with_the_stretch_factor():
    P, O, action = _stretch()
    sample = truncated_ball(P, O, 4, 1).vertices
    small = check_uniform_flare(P, O, action, sample, 1.2, 2, 3)
    large = check_uniform_flare(P, O, action, sample, 1.5, 2, 3)
    keys = lambda r: {v[:4] for v in r.violations}
    assert keys(small) <= keys(large)
    if large.separated:
        assert small.separated


def test_base_slice_violations_embed_in_corridor_wide_check():
    P, O, action = _stretch()
    sample = truncated_ball(P, O, 4, 1).vertices
    base = check_uniform_flare(P, O, action, sample, 1.2, 2, 3)
    wide = check_separated(P, O, action, sample, 1.2, 2, 3)
    assert {v[:4] for v in base.violations} <= {v[:4] for v in wide.violations}
    if wide.separated:
        assert base.separated


# ---------------------------------------------------------------------------
# the corridor pairing identity


def test_pairing_hand_example():
    P, O, action = _stretch()
    report = corridor_cocycle_pairing(P, O, action, xw("x"), (-1,), (1,))
    assert (report.lhs, report.rhs, report.equal) == (3, 3, True)


def test_pairing_trivial_cases():
    P, O, action = _stretch()
    same = corridor_cocycle_pairing(P, O, action, xw("x", "y"), (1,), (1,))
    assert (same.lhs, same.rhs, same.equal) == (0, 0, True)
    empty = corridor_cocycle_pairing(P, O, action, Word(()), (-1,), (1, 1))
    assert (empty.lhs, empty.rhs, empty.equal) == (0, 0, True)


def test_pairing_through_peripheral_letters():
    P, O, action = _conjugation_action()
    report = corridor_cocycle_pairing(P, O, action, Word((hz(1, 2),)),
                                      (-1,), (1, 1))
    assert (report.lhs, report.rhs, report.equal) == (3, 3, True)


def test_pairing_randomized_batch():
    P, O, action = _stretch()
    rng = random.Random(11)
    ball = truncated_ball(P, O, 4, 1).vertices
    G = action.group
    for _ in range(25):
        g = rng.choice(ball)
        u = G.product(rng.choices([-1, 1], k=rng.randrange(4)), ())
        v = G.product(rng.choices([-1, 1], k=rng.randrange(4)), ())
        report = corridor_cocycle_pairing(P, O, action, g, u, v)
        assert report.equal and report.lhs == report.rhs


def test_pairing_reports_a_sweep_that_inverts_the_wrong_letter(monkeypatch):
    # the sweep made to apply alpha_{a[-1]} at node a, not its inverse: the
    # pairing compares it with apply_action and must see the difference
    sweep = cor._letter_images

    def flipped(P, action, order, parent, l):
        order = [a[:-1] + (-a[-1],) if a else a for a in order]
        return sweep(P, action, order, parent, l)

    P, O, action = _stretch()
    monkeypatch.setattr(cor, "_letter_images", flipped)
    report = corridor_cocycle_pairing(P, O, action, xw("x"), (-1,), (1,))
    assert (report.lhs, report.rhs, report.equal) == (2, 3, False)


# ---------------------------------------------------------------------------
# action documents


def test_action_document_round_trip():
    P, O = f2()
    doc = f2_stretch_action_doc()
    action = parse_action(P, doc)
    assert validate_action(P, O, action).ok
    encoded = encode_action(P, action)
    again = parse_action(P, encoded)
    assert encode_action(P, again) == encoded
    w = xw("x", "y-", "x")
    assert apply_action(P, action, (1,), w) == \
        apply_action(P, again, (1,), w)


def test_peripheral_action_document_round_trip():
    P, O, action = _conjugation_action()
    encoded = encode_action(P, action)
    again = parse_action(P, encoded)
    assert validate_action(P, O, again).ok
    w = Word((hz(2, 3),))
    assert apply_action(P, again, (1,), w) == apply_action(P, action, (1,), w)
    assert encode_action(P, again) == encoded


def test_action_document_errors():
    P, O = f2()
    good = f2_stretch_action_doc()

    with pytest.raises(ParseError):
        parse_action(P, [])
    with pytest.raises(ParseError):
        parse_action(P, {"basis": 0, "automorphisms": []})
    with pytest.raises(ParseError):
        parse_action(P, {"basis": "2", "automorphisms": []})
    with pytest.raises(ParseError):
        parse_action(P, {"basis": 2, "automorphisms": good["automorphisms"]})

    unknown = copy.deepcopy(good)
    unknown["automorphisms"][0]["x_images"]["z"] = [{"x": "x", "sign": 1}]
    with pytest.raises(ParseError) as err:
        parse_action(P, unknown)
    assert "x_images" in err.value.path

    headless = copy.deepcopy(good)
    del headless["automorphisms"][0]["inverse"]
    with pytest.raises(ParseError) as err:
        parse_action(P, headless)
    assert "automorphisms[0]" in err.value.path

    Pz, Oz, actz = _conjugation_action()
    encoded = encode_action(Pz, actz)
    stray = copy.deepcopy(encoded)
    stray["automorphisms"][0]["peripheral_maps"]["7"] = [1]
    with pytest.raises(ParseError):
        parse_action(Pz, stray)
    scalar = copy.deepcopy(encoded)
    scalar["automorphisms"][0]["peripheral_maps"]["1"] = 1
    with pytest.raises(ParseError):
        parse_action(Pz, scalar)


@pytest.mark.parametrize("key, entry", [
    ("sigma", {"1": 2.7, "2": 1}),
    ("sigma", {"1": 2, "2": "1"}),
    ("peripheral_maps", {"a": []}),
    ("conjugators", {"a": []}),
], ids=["sigma-float", "sigma-string", "maps-key", "conjugators-key"])
def test_action_document_labels_are_integers(key, entry):
    P, _, action = _conjugation_action()
    doc = encode_action(P, action)
    doc["automorphisms"][0][key] = entry
    with pytest.raises(ParseError) as err:
        parse_action(P, doc)
    assert err.value.path == f"action.automorphisms[0].{key}"
