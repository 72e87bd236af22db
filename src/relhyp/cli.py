"""Command-line front end.

Every artifact embeds the tool version, the seed, and an echo of the
configuration that produced it (the output path is deliberately not part of
the echo, so the same computation written to two files is byte-identical).
Curves are CSV with ``#``-prefixed metadata lines; certificates and reports
are JSON with a ``meta`` object.

Each subcommand returns its artifact as an iterable of text pieces, which
``main`` writes with one ``writelines`` call, so that a ball is written in
bounded chunks (at most 256 edges, vertices or depths each) and never held
as one string.  A subcommand runs everything that can fail (the walk, the
oracle's queries, letter rendering) before it returns; its pieces only join
what is computed, so the output file is opened only after nothing can fail,
and a failed command leaves none.

Start-up imports only what every subcommand needs to read its document and
build its oracle (``errors``, ``presentation``, ``oracle``); each subcommand
imports the library modules it runs (``cayley``, ``filling``, ``cochain``,
``corridor``) when it is called.

Exit codes: 0 success, 2 malformed input (documents, word literals, bad
domain data), 3 invalid oracle or automorphism data, 4 resource cap or
truncation exhausted, 5 LP solver failure.
"""

from __future__ import annotations

import argparse
from collections.abc import Iterable
import contextlib
import functools
import itertools
import json
import pathlib
import random
import sys

from . import __version__
from .errors import (
    GeodesicNotFoundError,
    LpSolverError,
    OracleInvalidError,
    ParseError,
    ResourceCapError,
)
from .oracle import build_oracle
from .presentation import (
    FiniteTableModel,
    FreeGroupModel,
    HLetter,
    RelativePresentation,
    Word,
    XLetter,
    dump_json,
    encode_word,
    load_json,
    parse_document,
    presentation_to_doc,
)


# ---------------------------------------------------------------------------
# loop literals


def _token_int(text: str, pos: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"bad {what} {text!r}", pos) from None


def _parse_peripheral_token(P: RelativePresentation, tok: str,
                            pos: str) -> HLetter:
    body = tok[1:]
    cut, sep = len(body), ""
    for ch in ("^", "."):
        i = body.find(ch)
        if i != -1 and i < cut:
            cut, sep = i, ch
    if not sep:
        raise ParseError("peripheral token needs ^<k>, ^[..], or .<name>",
                         pos)
    lam = _token_int(body[:cut], pos, "factor label")
    rest = body[cut + 1:]
    model = P.models.get(lam)
    if model is None:
        raise ParseError(f"unknown peripheral factor {lam}", pos)
    if sep == ".":
        if not isinstance(model, FiniteTableModel):
            raise ParseError("named elements need a finite model", pos)
        elem = model.decode(rest, pos)
    elif rest.startswith("["):
        try:
            obj = load_json(rest, pos)
        except json.JSONDecodeError:
            raise ParseError(f"bad element list {rest!r}", pos) from None
        if isinstance(model, FiniteTableModel):
            raise ParseError("finite model elements take an index or a name",
                             pos)
        elem = model.decode(obj, pos)
    else:
        k = _token_int(rest, pos, "exponent")
        if isinstance(model, FreeGroupModel):
            elem = model.decode([1 if k > 0 else -1] * abs(k), pos)
        else:
            elem = model.decode(k, pos)
    if model.is_identity(elem):
        raise ParseError("identity peripheral letter", pos)
    return HLetter(lam, elem)


def loop_literal_parse(P: RelativePresentation, text: str) -> Word:
    """Whitespace-separated letters: ``x``, ``x^-1``, ``x^<k>`` for free
    symbols; ``h<f>^<k>``, ``h<f>^[a,b,..]``, ``h<f>.<name>`` for peripheral
    factors.  The word is kept as written (no free reduction)."""
    letters: list = []
    for i, tok in enumerate(text.split()):
        pos = f"token {i + 1} ({tok!r})"
        sym, caret, exp = tok.partition("^")
        if sym in P.x_symbols:
            if not caret:
                letters.append(XLetter(sym, 1))
                continue
            k = _token_int(exp, pos, "exponent")
            if k == 0:
                raise ParseError("zero exponent", pos)
            letters.extend([XLetter(sym, 1 if k > 0 else -1)] * abs(k))
        elif tok.startswith("h"):
            letters.append(_parse_peripheral_token(P, tok, pos))
        else:
            raise ParseError(f"unknown token {tok!r}", pos)
    return Word(tuple(letters))


# ---------------------------------------------------------------------------
# shared plumbing


def _read_text(path: str) -> str:
    try:
        return pathlib.Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from None


def _load_action(P, O, args):
    from .corridor import parse_action, validate_action
    try:
        doc = load_json(_read_text(args.action), "action")
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in action document: {exc.msg}",
                         f"line {exc.lineno}") from None
    action = parse_action(P, doc)
    report = validate_action(P, O, action)
    if not report.ok:
        raise OracleInvalidError(
            "invalid action: " + "; ".join(
                f"{kind} ({witness})" for kind, witness in report.failures))
    return action


def _meta(args) -> dict:
    config = {}
    for key, value in vars(args).items():
        if key in ("func", "output", "seed") or value is None:
            continue
        config[key.replace("_", "-")] = value
    return {"version": __version__, "seed": args.seed, "config": config}


def _json_out(args, payload: dict) -> tuple:
    return dump_json({"meta": _meta(args), **payload}), "\n"


def _csv_head(args, extra: dict) -> list:
    """The ``#`` metadata lines of a CSV artifact, each ending in a
    newline."""
    meta = _meta(args)
    cfg = json.dumps(meta["config"], sort_keys=True, separators=(",", ":"))
    lines = [f"# version={meta['version']}\n", f"# seed={meta['seed']}\n",
             f"# config={cfg}\n"]
    lines.extend(f"# {k}={v}\n" for k, v in extra.items())
    return lines


def _num(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


def _bool(v) -> str:
    return "true" if v else "false"


# ---------------------------------------------------------------------------
# subcommands


def _cmd_parse(args, P, O) -> Iterable[str]:
    return _json_out(args, {
        "presentation": presentation_to_doc(P),
        "oracle_kind": None if O is None else O.kind,
        "counts": {"x_symbols": len(P.x_symbols), "models": len(P.models),
                   "relators": len(P.relators)},
    })


def _cmd_ball(args, P, O) -> Iterable[str]:
    from .cayley import ball_csv_lines, ball_json_text, truncated_ball
    ball = truncated_ball(P, O, args.radius, args.peripheral_bound,
                          max_vertices=args.max_vertices)
    if args.format == "json":
        # "ball" sorts first, so its text opens the object of the rest
        rest = dump_json({"meta": _meta(args), "exact": True})
        return itertools.chain(('{\n  "ball": ',),
                               ball_json_text(P, ball, 1),
                               ("," + rest[1:], "\n"))
    return itertools.chain(_csv_head(args, {"exact": "true"}),
                           ball_csv_lines(P, ball))


def _cmd_length(args, P, O) -> Iterable[str]:
    from .cayley import rel_length
    w = loop_literal_parse(P, args.loop)
    L = rel_length(P, O, w)
    return _json_out(args, {
        "letters": sum(1 for _ in w),
        "lower": L.lower,
        "upper": L.upper,
        "exact": L.is_exact,
        "relative_length": L.value if L.is_exact else None,
    })


def _cmd_area(args, P, O) -> Iterable[str]:
    from .filling import Unknown, relative_area
    w = loop_literal_parse(P, args.loop)
    out = relative_area(P, O, w, max_area=args.max_area, max_len=args.max_len,
                        max_states=args.max_states)
    if isinstance(out, Unknown):
        return _json_out(args, {"area": None, "exact": False,
                                "reason": out.reason})
    return _json_out(args, {"area": out.area,
                            "exact": out.minimal_within_caps,
                            "moves": len(out.trace)})


def _cmd_dehn_profile(args, P, O) -> Iterable[str]:
    from .filling import dehn_profile
    prof = dehn_profile(P, O, n_max=args.n_max, rho=args.peripheral_bound,
                        max_area=args.max_area, max_len=args.max_len)
    lines = _csv_head(args, {"exact": _bool(prof.exact)})
    lines.append("n,max_area,exact,loop_count\n")
    for n in range(1, args.n_max + 1):
        e = prof.entry(n)
        lines.append(f"{n},{e.max_area},{_bool(e.exact)},{e.loop_count}\n")
    return lines


def _cmd_window_lp(args, P, O) -> Iterable[str]:
    from .cochain import growth_scan, relator_indicator_family
    scan = growth_scan(P, O, relator_indicator_family(), args.radii,
                       rho=args.peripheral_bound, exact=args.exact)
    lines = _csv_head(args, {"slope": _num(float(scan.slope)),
                             "verdict": scan.verdict,
                             "exact": _bool(scan.exact)})
    lines.append("width,norm\n")
    for width, norm in scan.rows:
        lines.append(f"{width},{_num(norm)}\n")
    return lines


def _cmd_flare(args, P, O) -> Iterable[str]:
    from .cayley import truncated_ball
    from .corridor import check_separated, check_uniform_flare
    action = _load_action(P, O, args)
    ball = truncated_ball(P, O, args.g_radius, args.peripheral_bound).vertices
    sample = list(ball)
    exhaustive = True
    if args.sample_size is not None and args.sample_size < len(sample):
        sample = random.Random(args.seed).sample(sample, args.sample_size)
        exhaustive = False
    if args.corridor_wide or args.w_radius is not None:
        report = check_separated(P, O, action, sample, args.factor,
                                 args.distance, args.min_length,
                                 w_radius=args.w_radius)
    else:
        report = check_uniform_flare(P, O, action, sample, args.factor,
                                     args.distance, args.min_length)
    verdict = report.verdict
    if exhaustive and report.separated:
        verdict += " (exhaustive)"
    return _json_out(args, {
        "parameters": {"factor": args.factor, "distance": report.N,
                       "min_length": report.M, "w_radius": report.w_radius},
        "verdict": verdict,
        "separated": report.separated,
        "exhaustive": exhaustive,
        "sample_size": report.sample_size,
        "exact": not report.indeterminate,
        "violations": [
            {"g": encode_word(P, g), "w": list(w), "u": list(u),
             "v": list(v), "lengths": list(lens)}
            for g, w, u, v, lens in report.violations],
        "indeterminate": [
            {"g": encode_word(P, g), "w": list(w),
             "u": None if u is None else list(u),
             "v": None if v is None else list(v)}
            for g, w, u, v in report.indeterminate],
    })


def _cmd_corridor(args, P, O) -> Iterable[str]:
    from .corridor import build_corridor
    action = _load_action(P, O, args)
    g = loop_literal_parse(P, args.loop)
    corridor = build_corridor(P, O, action, g, args.depth)
    return _json_out(args, {
        "g": encode_word(P, g),
        "depth": corridor.N,
        "exact": corridor.all_exact,
        "entries": [
            {"a": list(a), "lower": L.lower, "upper": L.upper,
             "exact": L.is_exact}
            for a, L in corridor.entries.items()],
    })


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(sub, loop: bool = False):
    sub.add_argument("--input", required=True,
                     help="presentation document (JSON)")
    if loop:
        sub.add_argument("--loop", required=True,
                         help="word literal, e.g. \"h1^2 h2^2\" or \"x y^-1\"")
    sub.add_argument("--output", help="write here instead of stdout")
    sub.add_argument("--seed", type=int, default=0,
                     help="recorded in the artifact; drives sampling")


def _int_list(text: str) -> list:
    try:
        values = [int(t) for t in text.split(",") if t.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") \
            from None
    if not values or any(v <= 0 for v in values):
        raise argparse.ArgumentTypeError("need positive integers")
    return values


def _int_at_least(low: int):
    """An argparse type for integers >= low."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad integer {text!r}") \
                from None
        if value < low:
            raise argparse.ArgumentTypeError(f"need an integer >= {low}")
        return value
    return parse


_count = _int_at_least(0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relhyp",
        description="Desk-scale computations on relative presentations.")
    parser.add_argument("--version", action="version",
                        version=f"relhyp {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("parse", help="validate and canonicalize a document")
    _add_common(p)
    p.set_defaults(func=_cmd_parse)

    p = subs.add_parser("ball", help="truncated relative Cayley ball")
    _add_common(p)
    p.add_argument("--radius", type=_count, required=True)
    p.add_argument("--peripheral-bound", type=_count, default=1,
                   help="max model length of peripheral letters")
    p.add_argument("--max-vertices", type=_count)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_ball)

    p = subs.add_parser("length", help="relative length of a word")
    _add_common(p, loop=True)
    p.set_defaults(func=_cmd_length)

    p = subs.add_parser("area", help="minimal relative filling area")
    _add_common(p, loop=True)
    p.add_argument("--max-area", type=_count, default=16)
    p.add_argument("--max-len", type=_count, default=64)
    p.add_argument("--max-states", type=_count)
    p.set_defaults(func=_cmd_area)

    p = subs.add_parser("dehn-profile",
                        help="max filling area by loop length (CSV)")
    _add_common(p)
    p.add_argument("--n-max", type=_count, required=True)
    p.add_argument("--peripheral-bound", type=_count, default=2)
    p.add_argument("--max-area", type=_count, default=16)
    p.add_argument("--max-len", type=_count, default=64)
    p.set_defaults(func=_cmd_dehn_profile)

    p = subs.add_parser("window-lp",
                        help="optimal primitive norms across window widths "
                             "(CSV)")
    _add_common(p)
    p.add_argument("--radii", type=_int_list, required=True,
                   help="comma-separated window widths, e.g. 4,8,16")
    p.add_argument("--peripheral-bound", type=_count, default=1)
    p.add_argument("--exact", action="store_true",
                   help="rational optimum, certified by an exact "
                        "primal/dual check, instead of floating point")
    p.set_defaults(func=_cmd_window_lp)

    p = subs.add_parser("flare", help="corridor separation check")
    _add_common(p)
    p.add_argument("--action", required=True,
                   help="action document (JSON)")
    p.add_argument("--factor", type=float, required=True,
                   help="stretch factor, > 1")
    p.add_argument("--distance", type=int, required=True,
                   help="tree distance of the compared pair")
    p.add_argument("--min-length", type=int, required=True,
                   help="only test corridor positions at least this long")
    p.add_argument("--g-radius", type=_count, default=4,
                   help="sample group elements from the ball of this radius")
    p.add_argument("--peripheral-bound", type=_count, default=1)
    p.add_argument("--sample-size", type=_int_at_least(1),
                   help="random subsample instead of the full ball")
    p.add_argument("--corridor-wide", action="store_true",
                   help="test every corridor position, not just the base")
    p.add_argument("--w-radius", type=_count,
                   help="corridor-position radius (implies --corridor-wide)")
    p.set_defaults(func=_cmd_flare)

    p = subs.add_parser("corridor", help="corridor length field of a word")
    _add_common(p, loop=True)
    p.add_argument("--action", required=True)
    p.add_argument("--depth", type=_count, required=True)
    p.set_defaults(func=_cmd_corridor)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # argparse keeps no state between parse_args calls, so one parser
    # serves every main() call of a process
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    O = None
    try:
        P, oracle_doc = parse_document(_read_text(args.input))
        if oracle_doc is not None:
            O = build_oracle(P, oracle_doc)
        elif args.func is not _cmd_parse:
            raise ParseError("document has no oracle section", "oracle")
        pieces = args.func(args, P, O)
        with (open(args.output, "w") if args.output
              else contextlib.nullcontext(sys.stdout)) as out:
            out.writelines(pieces)
    except ParseError as exc:
        return _fail(2, exc)
    except OracleInvalidError as exc:
        return _fail(3, exc)
    except (ResourceCapError, GeodesicNotFoundError) as exc:
        return _fail(4, exc)
    except LpSolverError as exc:
        return _fail(5, exc)
    except ValueError as exc:
        return _fail(2, exc)
    except OSError as exc:
        return _fail(2, exc)
    finally:
        # a plugin oracle's process ends with the command
        if O is not None:
            O.close()
    return 0


def _fail(code: int, exc: Exception) -> int:
    print(f"relhyp: error: {exc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
