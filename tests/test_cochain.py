"""Windowed complex: cells, boundaries, cochain calculus, LP primitives
and growth scans."""

from fractions import Fraction
import hashlib
import json
import math
import random

import pytest

from relhyp import cochain
from relhyp.cochain import (
    BASE_VERTEX,
    COSET_EDGE,
    COSET_VERTEX,
    GEN_EDGE,
    PERIPHERAL_EDGE,
    PERIPHERAL_FACE,
    RELATOR_FACE,
    CellId,
    Chain,
    Cochain,
    Infeasible,
    Primitive,
    boundary_chain,
    build_window,
    chain_rel_length,
    check_farkas,
    check_isoperimetric_witness,
    coboundary,
    growth_scan,
    min_linf_primitive,
    pair,
    relator_indicator_family,
    rel_weight,
)
from relhyp.cayley import ball_csv_lines, ball_to_json, truncated_ball
from relhyp.errors import LpSolverError
from relhyp.presentation import EMPTY_WORD, HLetter, Word
from relhyp.presets import (
    f2, free_product_zz, hz, x_squared, z2, z_example, zmod2_star)


def _strip_m(W, O):
    """The reference primitive on integer-line windows: the edge toward the
    first factor at position k carries -k/2, toward the second +k/2."""
    vals = {}
    for c in W.cells_of_dim(1):
        if c.kind == COSET_EDGE:
            k = O.image_vector(c.translate)[0]
            vals[c] = Fraction(-k, 2) if c.data[0] == 1 else Fraction(k, 2)
    return Cochain(1, vals)


def _check_dd_zero(W):
    for f in W.cells_of_dim(2):
        acc = {}
        for b, s in W.boundary[f]:
            for v, t in W.boundary.get(b, ()):
                acc[v] = acc.get(v, 0) + s * t
        assert all(v == 0 for v in acc.values()), (f, acc)


# ---------------------------------------------------------------------------
# window construction


def test_radius_zero_window_on_one_relator_one_generator():
    P, O = x_squared()
    W = build_window(P, O, radius=0, rho=0)
    e = O.normal_form(EMPTY_WORD)
    x = O.normal_form(Word((P.relators[0][0],)))
    assert set(W.cells_of_dim(0)) == {CellId(BASE_VERTEX, e),
                                      CellId(BASE_VERTEX, x)}
    assert set(W.cells_of_dim(1)) == {CellId(GEN_EDGE, e, ("x",))}
    assert set(W.cells_of_dim(2)) == {CellId(RELATOR_FACE, e, (0,))}
    assert W.interior == frozenset()


def test_radius_zero_window_on_peripheral_presentation():
    P, O = z_example()
    W = build_window(P, O, radius=0, rho=0)
    e = O.normal_form(EMPTY_WORD)
    assert set(W.cells_of_dim(0)) == {CellId(BASE_VERTEX, e),
                                      CellId(COSET_VERTEX, e, (1,)),
                                      CellId(COSET_VERTEX, e, (2,))}
    assert set(W.cells_of_dim(1)) == {CellId(COSET_EDGE, e, (1,)),
                                      CellId(COSET_EDGE, e, (2,))}
    assert W.interior == frozenset()


def test_window_vertex_and_face_counts_scale_with_radius():
    P, O = z_example()
    W = build_window(P, O, radius=2, rho=1)
    assert len([c for c in W.cells_of_dim(0) if c.kind == BASE_VERTEX]) == 5
    assert len(W.interior_relator_faces) == 4


def test_boundary_of_boundary_vanishes_everywhere():
    for build in (z_example, x_squared, zmod2_star, f2):
        P, O = build()
        W = build_window(P, O, radius=2, rho=1)
        _check_dd_zero(W)


@pytest.mark.parametrize("build", [z_example, x_squared, free_product_zz,
                                   f2, zmod2_star])
def test_window_edges_and_interior_faces_stay_in_the_window(build):
    """coboundary evaluates every window 1-cell and every interior face
    without a membership test; this is the invariant it relies on."""
    P, O = build()
    for rho in range(3):
        W = build_window(P, O, radius=2, rho=rho)
        n0, n1 = len(W.cells_of_dim(0)), len(W.cells_of_dim(1))
        for n in [*range(n0, n0 + n1), *W.inner]:
            assert all(b < W.size for b, _ in W.terms(n)), W.cell_ids[n]


def test_face_boundary_matches_hand_computation():
    P, O = z_example()
    W = build_window(P, O, radius=1, rho=1)
    e = O.normal_form(EMPTY_WORD)
    g1 = O.normal_form(Word((hz(1, 1),)))
    assert {CellId(COSET_VERTEX, e, (1,)), CellId(COSET_VERTEX, e, (2,))} <= \
        set(W.cells_of_dim(0))
    expected = {
        CellId(COSET_EDGE, e, (1,)): 1,
        CellId(PERIPHERAL_EDGE, e, (1, (1,))): 1,
        CellId(COSET_EDGE, g1, (1,)): -1,
        CellId(COSET_EDGE, g1, (2,)): 1,
        CellId(PERIPHERAL_EDGE, e, (2, (1,))): 1,
        CellId(COSET_EDGE, e, (2,)): -1,
    }
    assert dict(W.boundary[CellId(RELATOR_FACE, e, (0,))]) == expected


def test_coset_representative_is_least_normal_form():
    P, O = zmod2_star()
    W = build_window(P, O, radius=2, rho=1)
    e = O.normal_form(EMPTY_WORD)
    a = O.normal_form(Word((HLetter(1, 1),)))
    b = O.normal_form(Word((HLetter(2, 1),)))
    assert a != e and b != e
    reps = {c.translate for c in W.cells_of_dim(0)
            if c.kind == COSET_VERTEX and c.data == (1,)}
    # the coset a * H_1 equals H_1, represented by the empty word
    assert e in reps and a not in reps
    assert b in reps
    # a's coset edge ends at the vertex of its coset, e H_1
    assert dict(W.boundary[CellId(COSET_EDGE, a, (1,))]) == {
        CellId(COSET_VERTEX, e, (1,)): 1, CellId(BASE_VERTEX, a): -1}


def test_multiplication_face_boundary_doubles_involution_edge():
    P, O = zmod2_star()
    W = build_window(P, O, radius=2, rho=1)
    faces = [f for f in W.cells_of_dim(2) if f.kind == PERIPHERAL_FACE]
    assert faces and all(f.is_lbar for f in faces)
    for f in faces:
        lam, a, b = f.data
        assert a == b == 1  # only nonidentity element of Z/2
        assert dict(W.boundary[f]) == {
            CellId(PERIPHERAL_EDGE, f.translate, (lam, 1)): 2}
        assert f in W.interior
    _check_dd_zero(W)


@pytest.mark.parametrize("build, radius", [(z_example, 16), (zmod2_star, 3),
                                           (z_example, 8), (z2, 3)])
def test_window_asks_for_each_coset_once(build, radius):
    """One walk of the ball, one coset query per (vertex, label), one word
    per vertex and, past the walk, one step per (vertex, code), counting
    the window's own calls, not the oracle's; and a float solve of the
    relator indicator makes none of the window's CellId tables."""
    P, O = build()
    calls = {"coset_of_key": [], "word": [], "step": [], "walk": []}
    inside = []     # the oracle or the walk is answering

    def counted(name, query):
        def run(*args):
            if not inside:
                calls[name].append(args)
            inside.append(name)
            try:
                return query(*args)
            finally:
                inside.pop()
        return run

    for name in calls:
        setattr(O, name, counted(name, getattr(O, name)))
    W = build_window(P, O, radius=radius, rho=1)
    asked, written, stepped, walked = calls.values()
    assert len(walked) == 1
    assert len(asked) == len(set(asked)) and bool(asked) == bool(P.models)
    assert len(written) == len(set(written)) == len(W.words)
    assert len(stepped) == len(set(stepped))
    min_linf_primitive(W, relator_indicator_family()(W))
    assert not {"cells", "cell_ids", "numbers", "boundary",
                "interior"} & set(W.__dict__)


def test_window_build_is_deterministic():
    P, O = z_example()
    W1 = build_window(P, O, radius=3, rho=2)
    W2 = build_window(P, O, radius=3, rho=2)
    assert W1.cells == W2.cells
    assert W1.boundary == W2.boundary
    assert W1.interior == W2.interior
    assert W1.cell_ids == W2.cell_ids


def _cell_view(W) -> str:
    """The window's CellId view: its cells and the rim's by number, the
    boundary of every 1- and 2-cell, and the interior faces."""
    return repr((W.radius, W.rho, W.size, W.cell_ids,
                 list(W.boundary.items()),
                 sorted(W.interior, key=CellId.sort_key)))


def _solution_text(cert) -> str:
    if isinstance(cert, Infeasible):
        return repr(("infeasible", sorted(f.sort_key() for f in cert.witness)))
    return repr(("primitive", repr(cert.norm), cert.exact,
                 sorted((c.sort_key(), repr(v))
                        for c, v in cert.m.values.items())))


def test_window_and_lp_outputs_are_pinned():
    # cells, boundaries, interiors, float and exact optima and infeasibility
    # verdicts of a few small windows, and the f2 radius-5 ball exports; the
    # window and LP kernels may change how they compute these, not what
    digest = hashlib.sha256()
    cases = [(z_example, 2, 1), (z_example, 3, 2), (x_squared, 2, 0),
             (zmod2_star, 2, 1), (free_product_zz, 2, 1), (z2, 3, 1)]
    for build, radius, rho in cases:
        P, O = build()
        W = build_window(P, O, radius=radius, rho=rho)
        digest.update(_cell_view(W).encode())
        faces = sorted(W.interior_relator_faces, key=lambda c: c.sort_key())
        targets = [relator_indicator_family()(W),
                   Cochain(2, {f: 1 + i % 2 for i, f in enumerate(faces)})]
        for z in targets:
            for exact in (False, True):
                digest.update(_solution_text(
                    min_linf_primitive(W, z, exact=exact)).encode())
    assert digest.hexdigest() == \
        "d271900f76e7eb9b919dca503f1bb35eae141e9cdc5b58ff98249f53be56605e"
    P, O = f2()
    ball = truncated_ball(P, O, 5, 1)
    text = json.dumps(ball_to_json(P, ball), sort_keys=True) + \
        "".join(ball_csv_lines(P, ball))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "7779d4d9b15d131cccd8f297ae834027ada22b7c667dd88dbb685f9fb766fe6b"


def test_cells_keep_the_hash_of_their_fields():
    P, O = z_example()
    W = build_window(P, O, radius=2, rho=1)
    for c in W.cell_ids[:W.size]:
        first = hash(c)
        fresh = CellId(c.kind, Word(tuple(c.translate)), c.data)
        assert fresh == c and hash(fresh) == first == hash(c)
        assert first == hash((c.kind, c.translate, c.data))
        assert fresh.sort_key() == \
            (c.dim, c.kind, c.translate.sort_key(), c.data) == c.sort_key()
        assert repr(fresh) == repr(c)


def test_window_cell_view_shape():
    P, O = z_example()
    W = build_window(P, O, radius=1, rho=1)
    assert (W.radius, W.rho) == (1, 1)
    assert W.cell_ids[:W.size] == sum(map(W.cells_of_dim, (0, 1, 2)), ())
    assert set(W.cell_ids[W.starts[1]:W.size]) <= set(W.boundary)
    for c, terms in W.boundary.items():
        for b, s in terms:
            assert b.dim == c.dim - 1
            assert s in (-2, -1, 1, 2)
    for f in W.interior:
        assert f.dim == 2 and W.numbers[f] < W.size
        assert all(W.numbers[b] < W.size for b, _ in W.boundary[f])


# ---------------------------------------------------------------------------
# cochain calculus


def test_weights_per_edge_kind():
    P, O = z_example()
    W = build_window(P, O, radius=1, rho=1)
    e = O.normal_form(EMPTY_WORD)
    assert rel_weight(CellId(COSET_EDGE, e, (1,))) == Fraction(1, 2)
    assert rel_weight(CellId(PERIPHERAL_EDGE, e, (1, (1,)))) == 0
    P2, O2 = x_squared()
    e2 = O2.normal_form(EMPTY_WORD)
    assert rel_weight(CellId(GEN_EDGE, e2, ("x",))) == 1
    with pytest.raises(ValueError):
        rel_weight(CellId(BASE_VERTEX, e))


def test_cochain_norm_and_arithmetic():
    P, O = x_squared()
    e = O.normal_form(EMPTY_WORD)
    c = Cochain(1, {CellId(GEN_EDGE, e, ("x",)): -3})
    assert c.norm == 3
    assert Cochain(1, {}).norm == 0


def test_reference_primitive_has_coboundary_one_on_interior_faces():
    P, O = z_example()
    W = build_window(P, O, radius=2, rho=1)
    m = _strip_m(W, O)
    assert m.is_relative
    dm = coboundary(W, m)
    assert W.interior_relator_faces
    for f in W.interior_relator_faces:
        assert dm.get(f) == 1


def test_coboundary_of_vertex_cochain_vanishes_on_peripheral_edges():
    P, O = z_example()
    W = build_window(P, O, radius=2, rho=1)
    rng = random.Random(3)
    c = Cochain(0, {v: rng.randint(-5, 5) for v in W.cells_of_dim(0)})
    dc = coboundary(W, c)
    for cell in W.cells_of_dim(1):
        if cell.kind == PERIPHERAL_EDGE:
            assert dc.get(cell) == 0


def test_pairing_is_adjoint_to_boundary():
    P, O = z_example()
    W = build_window(P, O, radius=2, rho=1)
    rng = random.Random(11)
    edges = [c for c in W.cells_of_dim(1) if not c.is_lbar]
    faces = list(W.interior)
    for _ in range(50):
        h = Cochain(1, {c: rng.randint(-3, 3) for c in edges})
        D = Chain(2, {f: rng.randint(-2, 2)
                      for f in rng.sample(faces, min(3, len(faces)))})
        assert pair(coboundary(W, h), D) == pair(h, boundary_chain(W, D))


def test_unit_cocycle_pairs_to_face_count():
    P, O = z_example()
    W = build_window(P, O, radius=2, rho=1)
    z = relator_indicator_family()(W)
    D = Chain(2, {f: 1 for f in W.interior_relator_faces})
    assert pair(z, D) == 4


def test_strip_boundary_has_relative_length_two():
    P, O = z_example()
    W = build_window(P, O, radius=2, rho=1)
    D = Chain(2, {f: 1 for f in W.interior_relator_faces})
    bd = boundary_chain(W, D)
    assert chain_rel_length(bd) == 2
    # telescoping: only the two extreme edges per factor survive, plus the
    # peripheral loop edges which accumulate multiplicity 4 each
    lbar = {c: v for c, v in bd.coeffs.items() if c.is_lbar}
    assert sorted(lbar.values()) == [4, 4]


def test_cocycle_pairing_against_filling_respects_double_norm_bound():
    P, O = z_example()
    W = build_window(P, O, radius=2, rho=1)
    D = Chain(2, {f: 1 for f in W.interior_relator_faces})
    bd = boundary_chain(W, D)
    rng = random.Random(23)
    edges = [c for c in W.cells_of_dim(1) if not c.is_lbar]
    for _ in range(30):
        h = Cochain(1, {c: Fraction(rng.randint(-8, 8), 8) for c in edges})
        z = coboundary(W, h)
        assert abs(pair(z, D)) <= 2 * h.norm * chain_rel_length(bd)


# ---------------------------------------------------------------------------
# minimal bounded primitives


def test_minimal_primitive_norm_grows_as_quarter_width():
    P, O = z_example()
    for width in (4, 8, 12, 16):
        W = build_window(P, O, radius=width // 2, rho=1)
        z = relator_indicator_family()(W)
        cert = min_linf_primitive(W, z)
        assert isinstance(cert, Primitive)
        assert cert.norm == pytest.approx(width / 4, abs=1e-6)
        assert cert.m.is_relative


def test_exact_mode_returns_rational_optimum():
    P, O = z_example()
    for width in (4, 8, 32, 64):
        W = build_window(P, O, radius=width // 2, rho=1)
        z = relator_indicator_family()(W)
        cert = min_linf_primitive(W, z, exact=True)
        assert cert.exact
        assert cert.norm == Fraction(width, 4)
        dm = coboundary(W, cert.m)
        for f in W.interior_relator_faces:
            assert dm.get(f) == 1
        assert max(abs(v) for v in cert.m.values.values()) == cert.norm


def test_exact_mode_rejects_an_uncertified_optimum(monkeypatch):
    """Each certificate check alone rejects one wrong float answer: the
    negated optimum (B m = -z), a primitive of larger norm with the true duals
    (<z, y> != max |m_j|), and the same primitive with duals scaled up to its
    norm (||B^T y||_1 > 1).  A false infeasibility verdict has no Farkas
    vector."""
    P, O = z_example()
    W = build_window(P, O, radius=4, rho=1)
    z = relator_indicator_family()(W)
    solve = cochain.linprog

    def wrong_primal(c, **kwargs):
        res = solve(c, **kwargs)
        res.x = -res.x
        return res

    def suboptimal(scale_duals):
        def run(c, **kwargs):
            res = solve(c, **kwargs)
            norm = max(abs(res.x[:-1]))
            res.x = res.x + 1  # every relator row sums to 0: still a primitive
            if scale_duals:
                res.eqlin.marginals = res.eqlin.marginals * (norm + 1) / norm
            return res
        return run

    def false_infeasible(c, **kwargs):
        res = solve(c, **kwargs)
        res.status = 2
        return res

    for perturbed in (wrong_primal, suboptimal(False), suboptimal(True),
                      false_infeasible):
        monkeypatch.setattr(cochain, "linprog", perturbed)
        with pytest.raises(LpSolverError):
            min_linf_primitive(W, z, exact=True)


def test_zero_cocycle_has_zero_primitive():
    P, O = z_example()
    W = build_window(P, O, radius=4, rho=1)
    cert = min_linf_primitive(W, Cochain(2, {}))
    assert cert.norm == pytest.approx(0.0, abs=1e-9)
    assert min_linf_primitive(W, Cochain(2, {}), exact=True).norm == 0


def test_coboundary_targets_cost_at_most_source_norm():
    P, O = z_example()
    W = build_window(P, O, radius=3, rho=1)
    rng = random.Random(5)
    edges = [c for c in W.cells_of_dim(1) if not c.is_lbar]
    for _ in range(10):
        h = Cochain(1, {c: Fraction(rng.randint(-4, 4), 4) for c in edges})
        z = coboundary(W, h)
        cert = min_linf_primitive(W, z, exact=True)
        assert cert.norm <= h.norm


def test_incompatible_cocycle_reports_infeasible_with_witness():
    P, O = x_squared()
    W = build_window(P, O, radius=2, rho=0)
    f1, f2 = sorted(W.interior, key=lambda c: c.sort_key())
    z = Cochain(2, {f1: 1, f2: 2})
    for exact in (False, True):
        cert = min_linf_primitive(W, z, exact=exact)
        assert isinstance(cert, Infeasible)
        assert set(cert.witness) == {f1, f2}


def test_primitive_requires_relative_target():
    P, O = zmod2_star()
    W = build_window(P, O, radius=2, rho=1)
    bad = next(f for f in W.cells_of_dim(2) if f.kind == PERIPHERAL_FACE)
    with pytest.raises(ValueError):
        min_linf_primitive(W, Cochain(2, {bad: 1}))
    with pytest.raises(ValueError):
        min_linf_primitive(W, Cochain(1, {}))


def test_two_generator_torsion_example_has_norm_half():
    P, O = x_squared()
    W = build_window(P, O, radius=2, rho=0)
    cert = min_linf_primitive(W, relator_indicator_family()(W), exact=True)
    assert cert.norm == Fraction(1, 2)


def test_exact_witnesses_replay_on_random_targets():
    """On random integer targets, exact and float mode agree on whether a
    primitive exists; every exact Primitive's witness replays to its norm
    and every exact Infeasible's Farkas chain replays.  Float answers carry
    neither."""
    rng = random.Random(21)
    seen = set()
    for build, radius, rho in ((z_example, 3, 2), (x_squared, 2, 0),
                               (zmod2_star, 2, 1), (z2, 3, 1)):
        P, O = build()
        W = build_window(P, O, radius=radius, rho=rho)
        faces = sorted(W.interior_relator_faces, key=CellId.sort_key)
        for _ in range(12):
            z = Cochain(2, {f: rng.randint(-2, 2) for f in faces})
            cert = min_linf_primitive(W, z, exact=True)
            rough = min_linf_primitive(W, z)
            assert type(cert) is type(rough)
            seen.add(type(cert))
            if isinstance(cert, Primitive):
                assert rough.witness is None
                assert check_isoperimetric_witness(W, z, cert.witness) == \
                    cert.norm
                assert rough.norm == pytest.approx(float(cert.norm), abs=1e-6)
            else:
                assert rough.farkas is None
                assert check_farkas(W, z, cert.farkas)
    assert seen == {Primitive, Infeasible}


def test_checkers_reject_tampered_witnesses():
    P, O = z_example()
    W = build_window(P, O, radius=4, rho=1)
    z = relator_indicator_family()(W)
    cert = min_linf_primitive(W, z, exact=True)
    D = cert.witness
    assert check_isoperimetric_witness(W, z, D) == cert.norm == 2
    # twice the chain has twice the boundary; one coefficient moved pairs
    # to another value, if its boundary still qualifies
    doubled = Chain(2, {c: 2 * v for c, v in D.coeffs.items()})
    assert check_isoperimetric_witness(W, z, doubled) is None
    f = next(iter(D.coeffs))
    for step in (Fraction(1, 8), Fraction(-1, 8)):
        bad = Chain(2, {**D.coeffs, f: D.coeffs[f] + step})
        assert check_isoperimetric_witness(W, z, bad) != cert.norm
    # a relator face on the rim, which the program leaves unconstrained:
    # its boundary is small enough, but it proves nothing
    rim = next(f for f in W.cells_of_dim(2) if f not in W.interior)
    assert check_isoperimetric_witness(
        W, z, Chain(2, {rim: Fraction(1, 4)})) is None
    assert check_isoperimetric_witness(W, z, Chain(1, {})) is None
    # a peripheral face has no boundary off the peripheral cells
    P, O = zmod2_star()
    W = build_window(P, O, radius=2, rho=1)
    face = next(f for f in W.interior if f.kind == PERIPHERAL_FACE)
    target, D = Cochain(2, {face: 1}), Chain(2, {face: 1})
    assert check_isoperimetric_witness(W, target, D) is None
    assert not check_farkas(W, target, D)
    # the Farkas chain of two faces, with one entry negated
    P, O = x_squared()
    W = build_window(P, O, radius=2, rho=0)
    f1, f2 = sorted(W.interior, key=CellId.sort_key)
    z = Cochain(2, {f1: 1, f2: 2})
    farkas = min_linf_primitive(W, z, exact=True).farkas
    assert check_farkas(W, z, farkas)
    for f in (f1, f2):
        flipped = {**farkas.coeffs, f: -farkas.coeffs[f]}
        assert not check_farkas(W, z, Chain(2, flipped))
    # Farkas chains prove nothing against a target they pair to zero
    assert not check_farkas(W, Cochain(2, {f1: 1, f2: 1}), farkas)


# ---------------------------------------------------------------------------
# the HiGHS driver against scipy's linprog


def _reference_program(W, z):
    """The window's sup-norm program in scipy.optimize.linprog's terms,
    built from W.boundary: rows 2j, 2j+1 say |m_j| <= t, then one equality
    row per interior relator face over the non-peripheral 1-cells."""
    import numpy as np
    from scipy.sparse import csr_array
    edges = [e for e in W.cells_of_dim(1) if not e.is_lbar]
    column = {e: j for j, e in enumerate(edges)}
    n = len(edges)
    box = np.zeros((2 * n, n + 1))
    for j in range(n):
        box[2 * j, j], box[2 * j + 1, j] = 1, -1
    box[:, n] = -1
    faces = W.interior_relator_faces
    eq = np.zeros((len(faces), n + 1))
    for i, f in enumerate(faces):
        for e, s in W.boundary[f]:
            if e in column:
                eq[i, column[e]] += s
    c = np.zeros(n + 1)
    c[n] = 1
    bounds = [(None, None)] * n + [(0, None)]
    return dict(c=c, A_ub=csr_array(box), b_ub=np.zeros(2 * n),
                A_eq=csr_array(eq) if faces else None,
                b_eq=np.array([float(z.get(f)) for f in faces])
                if faces else None, bounds=bounds)


def _driver_run(W, z, monkeypatch):
    """min_linf_primitive's call of cochain.linprog: (c, keywords, result)."""
    calls = []
    solve = cochain.linprog

    def record(c, **kwargs):
        calls.append((c, kwargs, solve(c, **kwargs)))
        return calls[-1][2]

    monkeypatch.setattr(cochain, "linprog", record)
    try:
        min_linf_primitive(W, z)
    except LpSolverError:
        pass
    monkeypatch.undo()
    (c, kwargs, res), = calls
    return c, kwargs, res


def _drift_cases():
    from test_window_index import CASES

    def unit(W):
        return [relator_indicator_family()(W)]

    def both(W):
        # test_window_index's two targets
        faces = sorted(W.interior_relator_faces, key=CellId.sort_key)
        return unit(W) + [Cochain(2, {f: 1 + i % 2
                                      for i, f in enumerate(faces)})]

    for build, radius, rho in CASES:
        yield f"{build.__name__}-r{radius}-rho{rho}", build, radius, rho, both
    # the window workload's sizes
    for width in range(2, 33, 2):
        yield f"z_example-width{width}", z_example, width // 2, 1, unit
    for radius in range(1, 17):
        yield f"z2-r{radius}", z2, radius, 1, unit

    def incompatible(W):
        faces = sorted(W.interior, key=lambda c: c.sort_key())
        return [Cochain(2, {f: i + 1 for i, f in enumerate(faces)})]
    yield "x_squared-infeasible", x_squared, 2, 0, incompatible
    yield "f2-no-relator-rows", f2, 2, 1, lambda W: [Cochain(2, {})]


@pytest.mark.parametrize("case", list(_drift_cases()), ids=lambda c: c[0])
def test_highs_driver_matches_linprog(case, monkeypatch):
    """The direct HiGHS driver gets the matrix that linprog would hand
    HiGHS, and gives the same status, x and equality duals to the bit: the
    guard against a scipy release that changes the binding it calls."""
    from scipy.optimize import linprog
    from scipy.sparse import vstack
    _, build, radius, rho, targets = case
    P, O = build()
    W = build_window(P, O, radius=radius, rho=rho)
    for z in targets(W):
        ref = _reference_program(W, z)
        c, kwargs, got = _driver_run(W, z, monkeypatch)
        A = vstack([ref["A_ub"]] + ([ref["A_eq"]] if ref["A_eq"] is not None
                                    else [])).tocsr()
        assert kwargs["start"].tolist() == A.indptr.tolist()
        assert kwargs["index"].tolist() == A.indices.tolist()
        assert kwargs["value"].tobytes() == A.data.tobytes()
        b_eq = [] if ref["b_eq"] is None else ref["b_eq"].tolist()
        assert c.tolist() == ref["c"].tolist()
        assert kwargs["row_lower"].tolist() == \
            [-math.inf] * len(ref["b_ub"]) + b_eq
        assert kwargs["row_upper"].tolist() == ref["b_ub"].tolist() + b_eq
        assert list(zip(kwargs["col_lower"].tolist(),
                        kwargs["col_upper"].tolist())) == \
            [(-math.inf if lo is None else lo, math.inf)
             for lo, _ in ref["bounds"]]
        want = linprog(method="highs", **ref)
        assert got.status == want.status
        if want.status == 0:
            assert got.x.tobytes() == want.x.tobytes()
            assert got.eqlin.marginals.tobytes() == \
                want.eqlin.marginals.tobytes()
        else:
            assert got.x is None and want.x is None
    if case[0] == "x_squared-infeasible":
        assert got.status == 2
    if case[0] == "f2-no-relator-rows":
        assert len(got.eqlin.marginals) == 0


def _rows(A):
    """A dense matrix as the driver's row-wise arrays."""
    import numpy as np
    from scipy.sparse import csr_array
    A = csr_array(np.array(A, dtype=float))
    return dict(start=A.indptr.astype(np.int32),
                index=A.indices.astype(np.int32), value=A.data)


@pytest.mark.parametrize("program,status", [
    # min x + y with x + y = 1, x - y <= 0, x, y >= 0
    (dict(c=[1.0, 1.0], A_ub=[[1.0, -1.0]], b_ub=[0.0], A_eq=[[1.0, 1.0]],
          b_eq=[1.0], bounds=(0, None)), 0),
    # x = 1 and x = 2
    (dict(c=[1.0], A_eq=[[1.0], [1.0]], b_eq=[1.0, 2.0],
          bounds=(None, None)), 2),
    # min -x with x - y <= 1, x, y >= 0
    (dict(c=[-1.0, 0.0], A_ub=[[1.0, -1.0]], b_ub=[1.0], bounds=(0, None)),
     3),
], ids=["optimal", "infeasible", "unbounded"])
def test_highs_driver_statuses_are_linprogs(program, status):
    import numpy as np
    from scipy.optimize import linprog
    want = linprog(method="highs", **program)
    A = program.get("A_ub", []) + program["A_eq"] if "A_eq" in program \
        else program["A_ub"]
    n_ub = len(program.get("A_ub", []))
    b_eq = program.get("b_eq", [])
    lo, hi = program["bounds"]
    n = len(program["c"])
    got = cochain.linprog(
        np.array(program["c"]), **_rows(A),
        row_lower=np.array([-np.inf] * n_ub + b_eq),
        row_upper=np.array(program.get("b_ub", []) + b_eq),
        col_lower=np.full(n, -np.inf if lo is None else lo),
        col_upper=np.full(n, np.inf if hi is None else hi))
    assert got.status == want.status == status
    if status == 0:
        assert got.x.tobytes() == want.x.tobytes()
        assert got.eqlin.marginals.tobytes() == want.eqlin.marginals.tobytes()


def test_highs_driver_reads_the_dual_ray():
    """On "x = 1 and x = 2" the result carries HiGHS's dual ray on the
    equality rows, +-(-1, 1), and an optimum carries none: the guard against
    a scipy release that changes what the binding's getDualRay returns."""
    import numpy as np
    rows = np.array([1.0, 2.0])
    got = cochain.linprog(np.array([1.0]), **_rows([[1.0], [1.0]]),
                          row_lower=rows, row_upper=rows,
                          col_lower=np.array([-np.inf]),
                          col_upper=np.array([np.inf]))
    assert (got.status, got.x) == (2, None)
    assert got.ray.tolist() in ([-1.0, 1.0], [1.0, -1.0])
    got = cochain.linprog(np.array([1.0]), **_rows([[1.0]]),
                          row_lower=rows[:1], row_upper=rows[:1],
                          col_lower=np.array([-np.inf]),
                          col_upper=np.array([np.inf]))
    assert (got.status, got.x.tolist(), got.ray) == (0, [1.0], None)


def test_highs_driver_rejects_malformed_programs():
    """HiGHS reads each array to the length the sizes give, so lengths that
    do not fit are refused before the call; a model HiGHS refuses (a column
    index past the columns) is status 4."""
    import numpy as np
    program = dict(row_lower=np.array([1.0]), row_upper=np.array([np.inf]),
                   col_lower=np.array([0.0]), col_upper=np.array([np.inf]))
    one = dict(start=np.array([0, 1], dtype=np.int32), value=np.array([1.0]))
    got = cochain.linprog(np.array([1.0]), **program, **one,
                          index=np.array([0], dtype=np.int32))
    assert (got.status, got.x.tolist()) == (0, [1.0])
    got = cochain.linprog(np.array([1.0]), **program, **one,
                          index=np.array([5], dtype=np.int32))
    assert (got.status, got.x) == (4, None)
    assert "Model error" in got.message
    with pytest.raises(ValueError, match="mismatched lengths"):
        cochain.linprog(np.array([1.0]), **program,
                        start=np.array([0, 2], dtype=np.int32),
                        index=np.array([0], dtype=np.int32),
                        value=np.array([1.0]))


def test_the_shared_highs_instance_solves_as_a_fresh_one(monkeypatch):
    """linprog keeps one HiGHS instance and clears its model before each
    program: the programs of every _drift_cases window, and the infeasible
    and model-error programs above, solved twice in a shuffled order, give
    the status, message, x, equality duals and dual ray of a fresh instance
    per solve, to the bit."""
    import numpy as np
    from scipy.optimize._highspy import _core as hs
    programs = []
    solve = cochain.linprog

    def record(c, **kwargs):
        programs.append((c, kwargs))
        return solve(c, **kwargs)

    monkeypatch.setattr(cochain, "linprog", record)
    for _, build, radius, rho, targets in _drift_cases():
        P, O = build()
        W = build_window(P, O, radius=radius, rho=rho)
        for z in targets(W):
            min_linf_primitive(W, z)
    monkeypatch.undo()
    one = dict(col_lower=np.array([-np.inf]), col_upper=np.array([np.inf]))
    rows = np.array([1.0, 2.0])
    programs.append((np.array([1.0]), dict(**_rows([[1.0], [1.0]]), **one,
                                           row_lower=rows, row_upper=rows)))
    programs.append((np.array([1.0]), dict(
        start=np.array([0, 1], dtype=np.int32),
        index=np.array([5], dtype=np.int32), value=np.array([1.0]),
        row_lower=np.array([1.0]), row_upper=np.array([np.inf]), **one)))

    def result(c, kwargs):
        res = cochain.linprog(c, **kwargs)
        return res.status, res.message, *(
            None if a is None else a.tobytes()
            for a in (res.x, res.eqlin.marginals, res.ray))

    fresh = []
    for c, kwargs in programs:
        # a new binding class gets a new instance
        monkeypatch.setattr(hs, "_Highs", type("Fresh", (hs._Highs,), {}))
        fresh.append(result(c, kwargs))
        monkeypatch.undo()
    assert {r[0] for r in fresh} == {0, 2, 4}
    order = list(range(len(programs))) * 2
    random.Random(26).shuffle(order)
    result(*programs[order[0]])
    shared = cochain._solver
    for k in order:
        assert result(*programs[k]) == fresh[k], k
    assert cochain._solver is shared


def test_float_primitive_raises_on_every_other_solver_outcome(monkeypatch):
    """Only an optimum that keeps the rows within linprog's tolerance, or
    infeasibility, is an answer; every other model status of HiGHS, and an
    optimum that breaks a relator row, raises LpSolverError."""
    from scipy.optimize._highspy import _core as hs
    P, O = z_example()
    W = build_window(P, O, radius=2, rho=1)
    z = relator_indicator_family()(W)
    n_box = 2 * sum(1 for e in W.cells_of_dim(1) if not e.is_lbar)
    base = hs._Highs

    def highs_reporting(status=None, row_shift=0.0):
        class Reporting(base):
            def getModelStatus(self):
                return super().getModelStatus() if status is None \
                    else status

            def getSolution(self):
                solution = super().getSolution()
                rows = list(solution.row_value)
                rows[n_box] += row_shift
                solution.row_value = rows
                return solution
        return Reporting

    kinds = hs.HighsModelStatus
    monkeypatch.setattr(hs, "_Highs", highs_reporting(kinds.kInfeasible))
    assert isinstance(min_linf_primitive(W, z), Infeasible)
    for status in (kinds.kUnbounded, kinds.kUnboundedOrInfeasible,
                   kinds.kTimeLimit, kinds.kIterationLimit,
                   kinds.kSolveError, kinds.kModelError, kinds.kNotset):
        monkeypatch.setattr(hs, "_Highs", highs_reporting(status))
        with pytest.raises(LpSolverError, match="status [34]: HiGHS model"):
            min_linf_primitive(W, z)
    monkeypatch.setattr(hs, "_Highs", highs_reporting(row_shift=1e-6))
    assert min_linf_primitive(W, z).norm == pytest.approx(1.0)
    monkeypatch.setattr(hs, "_Highs", highs_reporting(row_shift=1e-3))
    with pytest.raises(LpSolverError, match="status 4: .* off by over"):
        min_linf_primitive(W, z)


# ---------------------------------------------------------------------------
# growth scans


def test_growth_scan_detects_linear_growth():
    P, O = z_example()
    scan = growth_scan(P, O, relator_indicator_family(), [4, 8, 16])
    assert [(w, float(v)) for w, v in scan.rows] == [(4, 1.0), (8, 2.0),
                                                     (16, 4.0)]
    assert scan.verdict == "linear-growth-witness"
    assert scan.slope == pytest.approx(0.25, abs=0.01)


def test_growth_scan_verdict_does_not_depend_on_the_order_of_widths():
    """The verdict and slope read the windows sorted by width, each window
    (width // 2) once; the rows keep the given order."""
    P, O = z_example()
    scans = {order: growth_scan(P, O, relator_indicator_family(), order)
             for order in [(4, 8, 16), (16, 4, 8), (8, 16, 4)]}
    for order, scan in scans.items():
        assert [(w, float(v)) for w, v in scan.rows] == \
            [(w, w / 4) for w in order]
        assert scan.verdict == "linear-growth-witness"
        assert scan.slope == scans[(4, 8, 16)].slope
    # widths 8 and 9 are one window, of norm 2
    scan = growth_scan(P, O, relator_indicator_family(), [9, 8, 16, 8])
    assert [float(v) for _, v in scan.rows] == [2.0, 2.0, 4.0, 2.0]
    assert scan.verdict == "linear-growth-witness"
    assert growth_scan(P, O, relator_indicator_family(),
                       [8, 9]).verdict == "bounded-consistent"


def test_growth_scan_exact_mode():
    P, O = z_example()
    scan = growth_scan(P, O, relator_indicator_family(), [4, 8, 16],
                       exact=True)
    assert [v for _, v in scan.rows] == [Fraction(1), Fraction(2),
                                         Fraction(4)]


def test_growth_scan_zero_family_is_bounded():
    P, O = z_example()
    scan = growth_scan(P, O, lambda W: Cochain(2, {}), [4, 8, 16])
    assert all(v == 0 for _, v in scan.rows)
    assert scan.verdict == "bounded-consistent"


def test_growth_scan_coboundary_family_stays_below_source_norm():
    P, O = x_squared()

    def h_builder(W):
        return Cochain(1, {c: 1 for c in W.cells_of_dim(1)
                           if c.kind == GEN_EDGE})

    scan = growth_scan(P, O, lambda W: coboundary(W, h_builder(W)),
                       [2, 4, 6], rho=0)
    assert all(v <= 1 + 1e-9 for _, v in scan.rows)
    assert scan.verdict == "bounded-consistent"


def test_growth_scan_surfaces_infeasible_windows_as_errors():
    P, O = x_squared()

    def bad(W):
        faces = sorted((f for f in W.interior), key=lambda c: c.sort_key())
        return Cochain(2, {f: i + 1 for i, f in enumerate(faces)})

    with pytest.raises(LpSolverError):
        growth_scan(P, O, bad, [4], rho=0)
