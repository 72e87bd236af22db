"""Ready-made example presentations used in tests and documentation.

Each builder returns (presentation, oracle); the matching ``*_doc`` helper
returns the JSON document as a dict so callers can write it to disk for the
CLI.
"""

from __future__ import annotations

from .oracle import build_oracle
from .presentation import HLetter, Word, XLetter


def z_example_doc() -> dict:
    """Two infinite cyclic peripherals glued by one relator; the group is Z."""
    return {
        "x": [],
        "models": [
            {"label": 1, "kind": "Z^d", "rank": 1},
            {"label": 2, "kind": "Z^d", "rank": 1},
        ],
        "relators": [[{"h": {"lambda": 1, "elem": 1}},
                      {"h": {"lambda": 2, "elem": 1}}]],
        "oracle": {"kind": "integer_quotient", "dim": 1,
                   "model_images": {"1": [[1]], "2": [[-1]]}},
    }


def x_squared_doc() -> dict:
    """One free symbol with x^2 = 1; the group is Z/2 (no peripherals)."""
    return {
        "x": ["x"],
        "models": [],
        "relators": [[{"x": "x", "sign": 1}, {"x": "x", "sign": 1}]],
        "oracle": {"kind": "finite_quotient", "size": 2,
                   "table": [[0, 1], [1, 0]], "identity": 0,
                   "x_images": {"x": 1}},
    }


def free_product_zz_doc() -> dict:
    """Free product of two copies of Z, no relators."""
    return {
        "x": [],
        "models": [
            {"label": 1, "kind": "Z^d", "rank": 1},
            {"label": 2, "kind": "Z^d", "rank": 1},
        ],
        "relators": [],
        "oracle": {"kind": "free_product"},
    }


def f2_doc() -> dict:
    """Free group on x, y (no peripherals, no relators)."""
    return {
        "x": ["x", "y"],
        "models": [],
        "relators": [],
        "oracle": {"kind": "free_product"},
    }


def zmod2_star_doc() -> dict:
    """Free product of two order-2 finite-table peripherals."""
    m = {"kind": "finite", "size": 2, "table": [[0, 1], [1, 0]],
         "inverse": [0, 1], "identity": 0}
    return {
        "x": [],
        "models": [dict(m, label=1), dict(m, label=2)],
        "relators": [],
        "oracle": {"kind": "free_product"},
    }


def z2_doc() -> dict:
    """Z^2 = <x, y | [x, y]>, through its identity map onto Z^2."""
    return {
        "x": ["x", "y"],
        "models": [],
        "relators": [[{"x": "x", "sign": 1}, {"x": "y", "sign": 1},
                      {"x": "x", "sign": -1}, {"x": "y", "sign": -1}]],
        "oracle": {"kind": "integer_quotient", "dim": 2,
                   "x_images": {"x": [1, 0], "y": [0, 1]}},
    }


def _build(doc):
    from .presentation import parse_document
    import json

    P, cfg = parse_document(json.dumps(doc))
    return P, build_oracle(P, cfg)


def z_example():
    return _build(z_example_doc())


def x_squared():
    return _build(x_squared_doc())


def free_product_zz():
    return _build(free_product_zz_doc())


def f2():
    return _build(f2_doc())


def zmod2_star():
    return _build(zmod2_star_doc())


def z2():
    return _build(z2_doc())


def f2_stretch_action_doc() -> dict:
    """Rank-1 action on F_2 by the length-stretching automorphism
    x -> xy, y -> x (inverse: x -> y, y -> y^-1 x)."""
    return {
        "basis": 1,
        "automorphisms": [{
            "x_images": {"x": [{"x": "x", "sign": 1}, {"x": "y", "sign": 1}],
                         "y": [{"x": "x", "sign": 1}]},
            "sigma": {},
            "peripheral_maps": {},
            "conjugators": {},
            "inverse": {
                "x_images": {"x": [{"x": "y", "sign": 1}],
                             "y": [{"x": "y", "sign": -1},
                                   {"x": "x", "sign": 1}]},
                "sigma": {},
                "peripheral_maps": {},
                "conjugators": {},
            },
        }],
    }


def f2_stretch_action():
    """(P, O, action) for the stretching automorphism on the free group F_2."""
    from .corridor import parse_action

    P, O = f2()
    return P, O, parse_action(P, f2_stretch_action_doc())


def identity_action(P, basis: int = 1):
    """Action where every basis letter acts trivially."""
    from .corridor import FreeAction, identity_automorphism

    return FreeAction(basis=basis,
                      automorphisms=tuple(identity_automorphism(P)
                                          for _ in range(basis)))


# letter shorthands used all over the tests

def hz(lam: int, k: int) -> HLetter:
    return HLetter(lam, (k,))


def xw(*syms: str) -> Word:
    """Word from tokens like "x", "x-" (trailing minus flips the sign)."""
    letters = []
    for s in syms:
        if s.endswith("-"):
            letters.append(XLetter(s[:-1], -1))
        else:
            letters.append(XLetter(s, 1))
    return Word(tuple(letters))
