"""The walks that step group elements one letter at a time, truncated balls
and the loop classes of Dehn profiles, pinned over every oracle kind with
the geodesic witnesses of the radius-2 balls."""

import hashlib
import json

from relhyp import oracle as ora
from relhyp.cayley import geodesic_witness, truncated_ball
from relhyp.errors import GeodesicNotFoundError
from relhyp.filling import _loop_classes
from relhyp.presentation import Word, free_reduce, parse_document
from relhyp.presets import (
    f2,
    free_product_zz,
    x_squared,
    z2,
    z_example,
    zmod2_star,
)

# S_3 on the sorted permutations of (0, 1, 2); x maps to (0 1), y to a
# 3-cycle, the Z factor to the other 3-cycle and the order-2 factor to (0 2)
S3_DOC = {
    "x": ["x", "y"],
    "models": [{"label": 1, "kind": "Z^d", "rank": 1},
               {"label": 2, "kind": "finite", "size": 2,
                "table": [[0, 1], [1, 0]]}],
    "relators": [[{"x": "x", "sign": 1}] * 2,
                 [{"h": {"lambda": 1, "elem": 3}}]],
    "oracle": {"kind": "finite_quotient", "size": 6,
               "table": [[0, 1, 2, 3, 4, 5], [1, 0, 4, 5, 2, 3],
                         [2, 3, 0, 1, 5, 4], [3, 2, 5, 4, 0, 1],
                         [4, 5, 1, 0, 3, 2], [5, 4, 3, 2, 1, 0]],
               "x_images": {"x": 2, "y": 3},
               "model_images": {"1": [4], "2": [0, 5]}},
}


class _PluginStyleOracle(ora.NormalFormOracle):
    """An oracle written outside the package: normal forms only, every
    other query left to the base class."""

    def __init__(self, P):
        self.P = P

    def normal_form(self, w: Word) -> Word:
        return free_reduce(self.P, w)


def _s3():
    P, cfg = parse_document(json.dumps(S3_DOC))
    return P, ora.build_oracle(P, cfg)


def _plugin_style():
    P, _ = free_product_zz()
    return P, _PluginStyleOracle(P)


# (group, ball radius, ball rho)
CASES = [(f2, 4, 1), (free_product_zz, 3, 2), (zmod2_star, 5, 1),
         (z_example, 3, 2), (z2, 4, 1), (x_squared, 3, 0), (_s3, 3, 1),
         (_plugin_style, 3, 1)]


def test_walks_are_pinned():
    digest = hashlib.sha256()
    for build, radius, rho in CASES:
        P, O = build()
        ball = truncated_ball(P, O, radius, rho)
        digest.update(repr((ball.vertices, ball.depths, ball.edges)).encode())
        for loop_rho in (0, 1, 2):
            classes = _loop_classes(P, O, 4, loop_rho)
            digest.update(repr(list(classes.items())).encode())
        for v in truncated_ball(P, O, 2, 1).vertices:
            try:
                out = repr(geodesic_witness(P, O, v))
            except GeodesicNotFoundError as exc:
                out = f"{type(exc).__name__}: {exc}"
            digest.update(out.encode())
    assert digest.hexdigest() == \
        "f850da3f831431cade456a5fd286178f958de5d67db286018e7445ecb2d9fbce"


def test_rel_length_lower_end_is_at_most_the_ball_depth():
    """A ball's vertex at depth d is a product of d letters, so no element
    is longer: the lower end of its length, on its key and on its word, is
    at most d."""
    for build, radius, rho in CASES:
        P, O = build()
        ball = truncated_ball(P, O, radius, rho)
        for key, word, depth in zip(ball.keys, ball.vertices, ball.depths):
            assert O.rel_length_of_key(key).lower <= depth, (word, depth)
            assert O.rel_length(word).lower <= depth, (word, depth)


def _steps_of_loop_classes(build, n_max, rho):
    """The number of ``O.step`` calls one ``_loop_classes`` call makes."""
    P, O = build()
    calls = 0
    step = O.step

    def counted(key, c):
        nonlocal calls
        calls += 1
        return step(key, c)

    O.step = counted
    _loop_classes(P, O, n_max, rho)
    return calls


def test_loop_classes_step_only_inside_their_walk():
    """The loops are read off the ball's edges: the only steps are the
    walk's own, one per vertex and letter of the radius-(n_max + 1) // 2
    ball (9 vertices times 8 letters for z_example, 2 times 2 for
    x_squared)."""
    assert _steps_of_loop_classes(z_example, 4, 2) == 72
    assert _steps_of_loop_classes(x_squared, 10, 2) == 4
