"""Tests for the command-line front end: golden outputs, the word-literal
grammar, exit codes, and byte-determinism of artifacts."""

import ast
from collections import Counter
import functools
import hashlib
import json
import os
from pathlib import Path
import subprocess
import sys
import tracemalloc

import pytest

import relhyp
from relhyp import cli, cochain
from relhyp.cayley import truncated_ball
from relhyp.errors import LpSolverError, OracleInvalidError, ParseError
from relhyp.oracle import FreeProductOracle
from relhyp.presentation import HLetter, XLetter, parse_document
from relhyp.presets import (
    f2,
    f2_doc,
    f2_stretch_action_doc,
    x_squared_doc,
    z2_doc,
    z_example_doc,
    zmod2_star_doc,
)


@pytest.fixture()
def docs(tmp_path):
    paths = {}
    for name, doc in (("z", z_example_doc()), ("f2", f2_doc()),
                      ("star", zmod2_star_doc()),
                      ("action", f2_stretch_action_doc())):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
    bad = tmp_path / "malformed.json"
    bad.write_text("{ nope")
    paths["malformed"] = str(bad)
    return paths


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# golden outputs


def test_area_reports_exact_filling(docs, capsys):
    code, out, err = run_cli(capsys, "area", "--input", docs["z"],
                             "--loop", "h1^2 h2^2")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["area"] == 2 and doc["exact"] is True
    assert doc["meta"]["version"] and doc["meta"]["seed"] == 0
    assert doc["meta"]["config"]["loop"] == "h1^2 h2^2"


def test_window_lp_emits_curve_rows(docs, capsys):
    code, out, err = run_cli(capsys, "window-lp", "--input", docs["z"],
                             "--radii", "4,8")
    assert code == 0
    lines = out.strip().splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert data == ["width,norm", "4,1.0", "8,2.0"]
    assert any(l.startswith("# verdict=linear-growth-witness") for l in lines)
    assert any(l.startswith("# config=") for l in lines)
    assert any(l.startswith("# version=") for l in lines)


def test_window_lp_exact_mode(docs, capsys):
    code, out, _ = run_cli(capsys, "window-lp", "--input", docs["z"],
                           "--radii", "4,8", "--exact")
    assert code == 0
    lines = out.strip().splitlines()
    assert [l for l in lines if not l.startswith("#")] == \
        ["width,norm", "4,1", "8,2"]
    assert "# exact=true" in lines


def test_parse_echoes_canonical_document(docs, capsys):
    code, out, _ = run_cli(capsys, "parse", "--input", docs["z"])
    assert code == 0
    doc = json.loads(out)
    assert doc["oracle_kind"] == "integer_quotient"
    assert doc["counts"] == {"x_symbols": 0, "models": 2, "relators": 1}
    P, _ = parse_document(json.dumps(doc["presentation"]))
    assert sorted(P.models) == [1, 2]


def test_ball_json_and_csv(docs, capsys):
    code, out, _ = run_cli(capsys, "ball", "--input", docs["f2"],
                           "--radius", "2")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["ball"]["vertices"]) == 17      # 1 + 4 + 12
    assert doc["exact"] is True

    code, out, _ = run_cli(capsys, "ball", "--input", docs["f2"],
                           "--radius", "2", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert "# exact=true" in lines
    assert "source,letter,target" in lines
    assert sum(1 for l in lines if l and not l.startswith("#")) > 17


def test_length_subcommand(docs, capsys):
    code, out, _ = run_cli(capsys, "length", "--input", docs["z"],
                           "--loop", "h1^3 h2^-1")
    doc = json.loads(out)
    assert code == 0
    assert (doc["letters"], doc["relative_length"], doc["exact"]) == \
        (2, 1, True)

    code, out, _ = run_cli(capsys, "length", "--input", docs["f2"],
                           "--loop", "x x^-1")
    doc = json.loads(out)
    assert (doc["letters"], doc["relative_length"]) == (2, 0)


def test_dehn_profile_rows(docs, capsys):
    code, out, _ = run_cli(capsys, "dehn-profile", "--input", docs["z"],
                           "--n-max", "2", "--peripheral-bound", "2")
    assert code == 0
    lines = [l for l in out.strip().splitlines() if not l.startswith("#")]
    assert lines == ["n,max_area,exact,loop_count", "1,0,true,0",
                     "2,2,true,2"]


def test_flare_verdict_and_exhaustive_marker(docs, capsys):
    base = ("flare", "--input", docs["f2"], "--action", docs["action"],
            "--factor", "1.2", "--distance", "2", "--min-length", "3")
    code, out, _ = run_cli(capsys, *base, "--g-radius", "3")
    doc = json.loads(out)
    assert code == 0
    assert doc["verdict"] == "separated (exhaustive)"
    assert doc["separated"] is True and doc["exhaustive"] is True
    assert doc["sample_size"] == 53 and doc["violations"] == []

    code, out, _ = run_cli(capsys, *base, "--g-radius", "4")
    doc = json.loads(out)
    assert doc["verdict"] == "violated" and doc["separated"] is False
    assert len(doc["violations"]) == 2
    assert all(v["lengths"] == [4, 4, 4] for v in doc["violations"])

    code, out, _ = run_cli(capsys, *base, "--g-radius", "3",
                           "--sample-size", "10")
    doc = json.loads(out)
    assert doc["verdict"] == "separated" and doc["exhaustive"] is False
    assert doc["sample_size"] == 10


def test_corridor_entries(docs, capsys):
    code, out, _ = run_cli(capsys, "corridor", "--input", docs["f2"],
                           "--action", docs["action"], "--loop", "x",
                           "--depth", "1")
    assert code == 0
    doc = json.loads(out)
    rows = {tuple(e["a"]): e["lower"] for e in doc["entries"]}
    assert rows == {(): 1, (1,): 1, (-1,): 2}
    assert doc["exact"] is True


# ---------------------------------------------------------------------------
# the word-literal grammar


def test_loop_literals_cover_model_kinds(docs):
    Pz, _ = parse_document(json.dumps(z_example_doc()))
    w = cli.loop_literal_parse(Pz, "h1^2 h2^-3")
    assert w[0] == HLetter(1, (2,)) and w[1] == HLetter(2, (-3,))
    w = cli.loop_literal_parse(Pz, "h1^[4]")
    assert w[0] == HLetter(1, (4,))

    Pf, _ = parse_document(json.dumps(f2_doc()))
    assert tuple(cli.loop_literal_parse(Pf, "x y^-2 x^3")) == (
        XLetter("x", 1), XLetter("y", -1), XLetter("y", -1),
        XLetter("x", 1), XLetter("x", 1), XLetter("x", 1))

    Ps, _ = parse_document(json.dumps(zmod2_star_doc()))
    w = cli.loop_literal_parse(Ps, "h1^1 h2^1")
    assert w[0] == HLetter(1, 1) and w[1] == HLetter(2, 1)

    named = zmod2_star_doc()
    named["models"][0]["names"] = ["e", "t"]
    Pn, _ = parse_document(json.dumps(named))
    assert cli.loop_literal_parse(Pn, "h1.t")[0] == HLetter(1, 1)


def test_loop_literal_errors_carry_positions(docs):
    Pz, _ = parse_document(json.dumps(z_example_doc()))
    with pytest.raises(ParseError) as err:
        cli.loop_literal_parse(Pz, "h1^2 h1^0")
    assert "token 2" in err.value.path
    with pytest.raises(ParseError):
        cli.loop_literal_parse(Pz, "h9^1")
    with pytest.raises(ParseError):
        cli.loop_literal_parse(Pz, "h1^[1")
    with pytest.raises(ParseError) as err:
        cli.loop_literal_parse(Pz, "h1^" + "[" * 5000 + "]" * 5000)
    assert "token 1" in err.value.path
    with pytest.raises(ParseError):
        cli.loop_literal_parse(Pz, "h1")

    Pf, _ = parse_document(json.dumps(f2_doc()))
    with pytest.raises(ParseError) as err:
        cli.loop_literal_parse(Pf, "x^0")
    assert "token 1" in err.value.path
    with pytest.raises(ParseError):
        cli.loop_literal_parse(Pf, "z")


# ---------------------------------------------------------------------------
# exit codes


def test_malformed_document_exits_2(docs, capsys):
    code, out, err = run_cli(capsys, "parse", "--input", docs["malformed"])
    assert code == 2 and out == ""
    assert "error" in err


def test_missing_file_exits_2(docs, capsys, tmp_path):
    code, _, err = run_cli(capsys, "parse", "--input",
                           str(tmp_path / "absent.json"))
    assert code == 2 and "cannot read" in err


def _identity_action_doc(inverse_sigma) -> dict:
    """The identity action on z_example, its inverse's sigma as given."""
    alpha = {"x_images": {}, "sigma": {"1": 1, "2": 2},
             "peripheral_maps": {"1": [1], "2": [1]}, "conjugators": {}}
    return {"basis": 1, "automorphisms": [
        dict(alpha, inverse=dict(alpha, sigma=inverse_sigma))]}


def test_invalid_action_exits_3(docs, capsys, tmp_path):
    wrong = f2_stretch_action_doc()
    wrong["automorphisms"][0]["inverse"]["x_images"] = {
        "x": [{"x": "y", "sign": 1}], "y": [{"x": "x", "sign": 1}]}
    # an inverse that apply_automorphism cannot read: no image of y, and a
    # sigma that leaves factor 2 out
    short = f2_stretch_action_doc()
    del short["automorphisms"][0]["inverse"]["x_images"]["y"]
    cases = [(wrong, "f2", "basis-1-composition (y)"),
             (short, "f2", "basis-1-inverse-x-images (wrong symbol set)"),
             (_identity_action_doc({"1": 1}), "z",
              "basis-1-inverse-sigma (not a permutation")]
    for action, doc, failure in cases:
        path = tmp_path / "bad-action.json"
        path.write_text(json.dumps(action))
        code, _, err = run_cli(capsys, "flare", "--input", docs[doc],
                               "--action", str(path), "--factor", "1.5",
                               "--distance", "1", "--min-length", "1")
        assert code == 3 and "invalid action" in err and failure in err


def _quotient_doc(kind, **change):
    """One free symbol and one model, with an oracle of the given kind."""
    if kind == "finite_quotient":
        model = {"label": 1, "kind": "finite", "size": 2,
                 "table": [[0, 1], [1, 0]]}
        oracle = {"kind": kind, "size": 2, "table": [[0, 1], [1, 0]]}
    else:
        model = {"label": 1, "kind": "Z^d", "rank": 1}
        oracle = {"kind": kind, "dim": 1}
    return {"x": ["x"], "models": [model], "relators": [],
            "oracle": {**oracle, **change}}


@pytest.mark.parametrize("change, code, message", [
    ({"model_images": {"1": [0, 7]}}, 3, "model 1 image"),
    ({"x_images": {"x": 1, "z": 1}}, 3, "unknown symbol 'z'"),
    ({"model_images": {"3": [0, 1]}}, 3, "unknown model label 3"),
    ({"model_images": {"a": [0, 1]}}, 2, "oracle.model_images"),
])
def test_finite_quotient_images_are_validated(capsys, tmp_path, change,
                                              code, message):
    path = tmp_path / "quotient.json"
    path.write_text(json.dumps(_quotient_doc("finite_quotient", **change)))
    got, out, err = run_cli(capsys, "length", "--input", str(path),
                            "--loop", "x")
    assert (got, out) == (code, "") and message in err


# written out as 5,000 digits, more than int() and str() convert by default:
# an integer literal and an object key
LONG_INT, LONG_KEY = "<long integer>", "<long key>"
# written out as lists nested 100,000 deep, deeper than json.loads recurses
DEEP = "<deep list>"


def _long_digits(text: str) -> str:
    return text.replace(f'"{LONG_INT}"', "9" * 5000).replace(
        LONG_KEY, "9" * 5000).replace(f'"{DEEP}"', "[" * 100000 + "]" * 100000)


@pytest.mark.parametrize("kind, change, path", [
    ("finite_quotient", {"model_images": {"1": 5}}, "oracle.model_images.1"),
    ("integer_quotient", {"model_images": {"1": 5}}, "oracle.model_images.1"),
    ("finite_quotient", {"x_images": ["x"]}, "oracle.x_images"),
    ("integer_quotient", {"x_images": ["x"]}, "oracle.x_images"),
    ("finite_quotient", {"model_images": [1]}, "oracle.model_images"),
    ("integer_quotient", {"x_images": {"x": 3}}, "oracle.x_images.x"),
    ("action", {"x_images": 5}, "action.automorphisms[0].x_images"),
    ("action", {"sigma": [1]}, "action.automorphisms[0].sigma"),
    ("document", {"models": 5}, "models"),
    ("document", {"models": [{"label": LONG_INT, "kind": "Z^d", "rank": 1}]},
     "models[0].label"),
    ("integer_quotient", {"model_images": {LONG_KEY: [[1]]}},
     "oracle.model_images"),
    ("action", {"sigma": {LONG_KEY: 1}}, "action.automorphisms[0].sigma"),
    ("action", {"x_images": {"x": [{"x": "x", "sign": LONG_INT}]}},
     "action.automorphisms[0].x_images.x[0].sign"),
    ("document", {"x": DEEP}, "error"),
    ("action", {"sigma": [LONG_INT, DEEP]}, "action"),
])
def test_untrusted_json_shapes_exit_2(capsys, tmp_path, kind, change, path):
    action = f2_stretch_action_doc()
    if kind == "action":
        doc = f2_doc()
        action["automorphisms"][0].update(change)
    elif kind == "document":
        doc = {**f2_doc(), **change}
    else:
        doc = _quotient_doc(kind, **change)
    (tmp_path / "doc.json").write_text(_long_digits(json.dumps(doc)))
    (tmp_path / "action.json").write_text(_long_digits(json.dumps(action)))
    got, out, err = run_cli(capsys, "corridor",
                            "--input", str(tmp_path / "doc.json"),
                            "--action", str(tmp_path / "action.json"),
                            "--loop", "x", "--depth", "1")
    assert (got, out) == (2, "") and f"{path}: expected" in err


BAD_TABLE = {"table": [[0, 1], [1, 5]], "inverse": [0, 1]}


@pytest.mark.parametrize("where, change, code, message", [
    ("oracle", {"table": [1, 2]}, 2, "oracle.table[0]: expected a list"),
    ("oracle", {"inverse": [0]}, 2, "oracle.inverse: expected 2 entries"),
    ("model", {"inverse": [0]}, 2, "models[0].inverse: expected 2 entries"),
    ("oracle", {"table": [[0, 1], [1, "a"]]}, 2,
     "oracle.table[1]: entries must be integers"),
    ("oracle", BAD_TABLE, 3, "table entry out of range"),
    ("model", BAD_TABLE, 2, "models[0]: table entry out of range"),
])
def test_finite_tables_decode_cleanly(capsys, tmp_path, where, change, code,
                                      message):
    doc = _quotient_doc("finite_quotient")
    (doc["oracle"] if where == "oracle" else doc["models"][0]).update(change)
    path = tmp_path / "quotient.json"
    path.write_text(json.dumps(doc))
    got, out, err = run_cli(capsys, "length", "--input", str(path),
                            "--loop", "x")
    assert (got, out) == (code, "") and message in err


Z1 = {"kind": "Z^d", "rank": 1}
S2 = {"kind": "finite", "size": 2, "table": [[0, 1], [1, 0]]}


def _model_doc(model, *relator):
    """Free symbol x, one model labelled 1 and at most one relator."""
    return {"x": ["x"], "models": [{"label": 1, **model}],
            "relators": [list(relator)] if relator else []}


def _h(lam, elem):
    return {"h": {"lambda": lam, "elem": elem}}


def _with_oracle(doc, **change):
    return {**doc, "oracle": {**doc["oracle"], **change}}


def _with_automorphism(**change):
    action = f2_stretch_action_doc()
    action["automorphisms"][0].update(change)
    return action


# JSON true and false are no integers, and a label key must read as
# str(label) writes it: each document exits 2 with the path of its field
@pytest.mark.parametrize("doc, action, path", [
    ({"x": ["x"], "relators": [[{"x": "x", "sign": True}]]}, None,
     "relators[0][0].sign"),
    (_model_doc({"kind": "Z^d", "rank": True}), None, "models[0].rank"),
    ({"x": [], "models": [{"label": True, **Z1}]}, None, "models[0].label"),
    (_model_doc(Z1, _h(1, True)), None, "relators[0][0].elem"),
    (_model_doc({"kind": "Z^d", "rank": 2}, _h(1, [1, True])), None,
     "relators[0][0].elem"),
    (_model_doc({"kind": "F_k", "rank": 2}, _h(1, [True])), None,
     "relators[0][0].elem"),
    (_model_doc(S2, _h(1, True)), None, "relators[0][0].elem"),
    (_model_doc(Z1, _h(True, 1)), None, "relators[0][0]"),
    (_model_doc({**S2, "table": [[0, True], [True, 0]]}), None,
     "models[0].table[0]"),
    (_model_doc({**S2, "names": ["e", 1]}), None, "models[0].names"),
    (_with_oracle(z_example_doc(), dim=True), None, "oracle.dim"),
    (_with_oracle(z_example_doc(), model_images={"1": [[True]],
                                                 "2": [[-1]]}),
     None, "oracle.model_images.1[0]"),
    (_with_oracle(z_example_doc(), model_images={"1": [[1]],
                                                 "1_0": [[-1]]}),
     None, "oracle.model_images"),
    (_with_oracle(z_example_doc(), model_images={"1": [[1]],
                                                 " 2": [[-1]]}),
     None, "oracle.model_images"),
    (_with_oracle(z2_doc(), x_images={"x": [1, False], "y": [0, 1]}), None,
     "oracle.x_images.x"),
    (_with_oracle(x_squared_doc(), x_images={"x": True}), None,
     "oracle.x_images.x"),
    (_quotient_doc("finite_quotient", model_images={"1": [0, True]}), None,
     "oracle.model_images.1"),
    (f2_doc(), {**f2_stretch_action_doc(), "basis": True}, "action.basis"),
    (f2_doc(), _with_automorphism(sigma={"1": True}),
     "action.automorphisms[0].sigma"),
], ids=["sign", "rank", "label", "elem", "elem-vector", "elem-free",
        "elem-finite", "lambda", "table", "names", "dim", "integer-image",
        "key-underscore", "key-space", "x-vector", "x-index", "finite-image",
        "basis", "sigma"])
def test_booleans_and_noncanonical_labels_exit_2(capsys, tmp_path, doc,
                                                 action, path):
    (tmp_path / "doc.json").write_text(json.dumps(doc))
    argv = ["parse", "--input", str(tmp_path / "doc.json")]
    if action is not None:
        (tmp_path / "action.json").write_text(json.dumps(action))
        argv = ["corridor", "--input", str(tmp_path / "doc.json"),
                "--action", str(tmp_path / "action.json"), "--loop", "x",
                "--depth", "1"]
    got, out, err = run_cli(capsys, *argv)
    assert (got, out) == (2, "") and f" {path}: " in err


def test_vertex_budget_exits_4(docs, capsys):
    code, _, err = run_cli(capsys, "ball", "--input", docs["f2"],
                           "--radius", "3", "--max-vertices", "5")
    assert code == 4 and "budget" in err


def test_a_budget_of_no_vertex_exits_4(docs, capsys, tmp_path):
    """The identity alone is one vertex, so a budget of none is exceeded at
    radius 0 and no artifact is written."""
    target = tmp_path / "ball.out"
    for radius in ("0", "2"):
        code, out, err = run_cli(capsys, "ball", "--input", docs["f2"],
                                 "--radius", radius, "--max-vertices", "0",
                                 "--output", str(target))
        assert (code, out) == (4, "")
        assert "budget 0 at radius 0" in err
    assert not target.exists()


def test_lp_failure_exits_5(docs, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise LpSolverError("backend gave up")
    monkeypatch.setattr(cochain, "growth_scan", boom)
    code, _, err = run_cli(capsys, "window-lp", "--input", docs["z"],
                           "--radii", "4")
    assert code == 5 and "backend gave up" in err


def test_plugin_oracle_ends_with_each_command(capsys, tmp_path,
                                             monkeypatch):
    """main closes the plugin oracle it built, on success and on error:
    each child has exited and its output pipe is closed."""
    from test_oracle import PLUGIN_EXPONENT_SUM
    children = []

    class Recording(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            children.append(self)

    monkeypatch.setattr(subprocess, "Popen", Recording)
    script = tmp_path / "zplug.py"
    script.write_text(PLUGIN_EXPONENT_SUM)
    doc = tmp_path / "plugin.json"
    doc.write_text(json.dumps({**z_example_doc(), "oracle": {
        "kind": "plugin", "command": [sys.executable, str(script)]}}))
    for argv, want in ((("length", "--loop", "h1^2 h2^2"), 0),
                       (("area", "--loop", "h9^1"), 2),
                       (("window-lp", "--radii", "4"), 0)):
        code, _, _ = run_cli(capsys, argv[0], "--input", str(doc), *argv[1:])
        assert code == want
        assert children and all(p.poll() is not None and p.stdout.closed
                                for p in children)
        children.clear()


@pytest.mark.parametrize("argv", [
    ("ball", "--input", "{f2}", "--radius", "-1"),
    ("ball", "--input", "{f2}", "--radius", "2", "--max-vertices", "-1"),
    ("ball", "--input", "{f2}", "--radius", "2", "--peripheral-bound", "-1"),
    ("area", "--input", "{z}", "--loop", "h1 h2", "--max-area", "-1"),
    ("area", "--input", "{z}", "--loop", "h1 h2", "--max-len", "-5"),
    ("area", "--input", "{z}", "--loop", "h1 h2", "--max-states", "-1"),
    ("dehn-profile", "--input", "{z}", "--n-max", "-2"),
    ("window-lp", "--input", "{z}", "--radii", "4", "--peripheral-bound",
     "-1"),
    ("flare", "--input", "{f2}", "--action", "{action}", "--factor", "1.2",
     "--distance", "2", "--min-length", "3", "--g-radius", "-1"),
    ("flare", "--input", "{f2}", "--action", "{action}", "--factor", "1.2",
     "--distance", "2", "--min-length", "3", "--w-radius", "-1"),
    ("flare", "--input", "{f2}", "--action", "{action}", "--factor", "1.2",
     "--distance", "2", "--min-length", "3", "--sample-size", "0"),
    ("corridor", "--input", "{f2}", "--action", "{action}", "--loop", "x y",
     "--depth", "-1"),
    ("ball", "--input", "{f2}", "--radius", "two"),
], ids=lambda a: f"{a[0]}{a[-2]}={a[-1]}")
def test_out_of_range_counts_exit_2(argv, docs, capsys):
    with pytest.raises(SystemExit) as stop:
        cli.main([a.format(**docs) for a in argv])
    assert stop.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and argv[-2] in captured.err


def test_nontrivial_loop_exits_2(docs, capsys):
    code, _, err = run_cli(capsys, "area", "--input", docs["z"],
                           "--loop", "h1^2 h2^1")
    assert code == 2 and "identity" in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as stop:
        cli.main(["--version"])
    assert stop.value.code == 0
    assert "relhyp" in capsys.readouterr().out


def _fresh_python(*args):
    """Run a new interpreter that imports relhyp from this checkout."""
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    got = subprocess.run([sys.executable, *args], capture_output=True,
                         text=True, env=env, timeout=60)
    return got.returncode, got.stdout, got.stderr


def test_module_entry_point_runs_without_warnings():
    assert _fresh_python("-m", "relhyp.cli", "--version") == \
        (0, "relhyp 0.1.0\n", "")


def test_cli_import_leaves_scipy_unloaded():
    # scipy.optimize, scipy.sparse, numpy, subprocess (for a plugin oracle)
    # and fractions (for exact numbers) are imported at their first use,
    # not at start-up
    probe = ("import sys, relhyp.cli; "
             "print(*(m in sys.modules for m in ('scipy.optimize', "
             "'scipy.sparse', 'numpy', 'subprocess', 'fractions')))")
    assert _fresh_python("-c", probe) == (0, "False " * 4 + "False\n", "")


def test_each_command_loads_only_its_modules(docs, tmp_path):
    # start-up loads no library module a subcommand runs; each subcommand
    # loads its own when it runs, and the package's names resolve at their
    # first read
    runs = (("parse", "--input", docs["z"]),
            ("corridor", "--input", docs["f2"], "--action", docs["action"],
             "--loop", "x y", "--depth", "1"),
            ("ball", "--input", docs["f2"], "--radius", "1"),
            ("window-lp", "--input", docs["z"], "--radii", "4"),
            ("area", "--input", docs["z"], "--loop", "h1^2 h2^2"))
    probe = ("import sys\n"
             "def loaded():\n"
             "    return {m for m in ('cayley', 'filling', 'cochain', "
             "'corridor') if 'relhyp.' + m in sys.modules}\n"
             "import relhyp\n"
             "print(sorted(loaded()))\n"
             "from relhyp import cli\n"
             "print(sorted(loaded()))\n"
             f"for argv in {runs!r}:\n"
             "    before = loaded()\n"
             f"    out = {str(tmp_path / 'out')!r}\n"
             "    assert cli.main([*argv, '--output', out]) == 0\n"
             "    print(argv[0], sorted(loaded() - before))\n")
    assert _fresh_python("-c", probe) == (0, (
        "[]\n[]\nparse []\ncorridor ['corridor']\nball ['cayley']\n"
        "window-lp ['cochain']\narea ['filling']\n"), "")
    probe = ("import sys, relhyp\n"
             "print(relhyp.cochain is sys.modules['relhyp.cochain'])\n"
             "names = {}\n"
             "exec('from relhyp import *', names)\n"
             "del names['__builtins__']\n"
             "print(sorted(names) == sorted(relhyp.__all__), all(\n"
             "    value is getattr(sys.modules['relhyp.' + module], name)\n"
             "    for module, exports in relhyp._EXPORTS.items()\n"
             "    for name, value in zip(exports, map(names.get, exports))))\n")
    assert _fresh_python("-c", probe) == (0, "True\nTrue True\n", "")


_HIGHS_CORE = "scipy.optimize._highspy._core"


def _window_lp_probe(docs, tmp_path):
    """Source that solves window-lp's LP through cli.main, leaving the
    binding it used as ``used``."""
    argv = ["window-lp", "--input", docs["z"], "--radii", "4",
            "--output", str(tmp_path / "lp.json")]
    return (f"assert cli.main({argv!r}) == 0\n"
            f"used = sys.modules[{_HIGHS_CORE!r}]\n")


def test_lp_loads_the_highs_binding_alone(docs, tmp_path):
    # the binding is loaded from its file: scipy.optimize's package, with
    # sparse and linalg under it, is not imported; a later import of it
    # finds the same binding, and scipy's own linprog still solves
    probe = ("import sys\nfrom relhyp import cli\n"
             + _window_lp_probe(docs, tmp_path)
             + "print(*(m in sys.modules for m in ('scipy.optimize', "
               "'scipy.sparse', 'scipy.linalg')))\n"
               "from scipy.optimize._highspy import _core\n"
               "from scipy.optimize import linprog\n"
               "res = linprog([1, 1], A_ub=[[-1, -1]], b_ub=[-1], "
               "method='highs')\n"
               "print(_core is used, res.status, res.fun)\n")
    assert _fresh_python("-X", "dev", "-W", "error", "-c", probe) == \
        (0, "False False False\nTrue 0 1.0\n", "")


def test_lp_reuses_an_imported_highs_binding(docs, tmp_path):
    probe = ("import sys\nimport scipy.optimize\n"
             f"before = sys.modules[{_HIGHS_CORE!r}]\n"
             "from relhyp import cli\n"
             + _window_lp_probe(docs, tmp_path)
             + "print(used is before)\n")
    assert _fresh_python("-c", probe) == (0, "True\n", "")


def test_lp_without_scipy_raises_import_error(tmp_path):
    # no scipy, then a scipy directory without the binding's file
    probe = ("import importlib.machinery, importlib.util, sys\n"
             "from relhyp import cochain\n"
             "from relhyp.presets import z_example\n"
             "P, O = z_example()\n"
             "W = cochain.build_window(P, O, radius=1, rho=1)\n"
             "z = cochain.relator_indicator_family()(W)\n"
             "empty = importlib.machinery.ModuleSpec('scipy', None, "
             "is_package=True)\n"
             f"empty.submodule_search_locations = [{str(tmp_path)!r}]\n"
             "for spec in (None, empty):\n"
             "    importlib.util.find_spec = lambda name, package=None: spec\n"
             "    try:\n"
             "        cochain.min_linf_primitive(W, z)\n"
             "    except ImportError as e:\n"
             f"        print(e.name, {_HIGHS_CORE!r} in sys.modules)\n")
    assert _fresh_python("-c", probe) == \
        (0, f"{_HIGHS_CORE} False\n" * 2, "")


def test_every_imported_name_is_used():
    # the package's modules and these tests; the package __init__ is exempt:
    # it imports names to re-export them
    unused = []
    sources = sorted(Path(cli.__file__).parent.glob("*.py")) + \
        sorted(Path(__file__).parent.glob("*.py"))
    for path in sources:
        if path == Path(cli.__file__).parent / "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom)
                    and node.module != "__future__"):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def _reads(node) -> Counter:
    """How often each name is read in node, as a name or an attribute."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            out[n.attr] += 1
    return out


def _trees(*folders) -> list:
    return [ast.parse(path.read_text()) for folder in folders
            for path in sorted(folder.glob("*.py"))]


def test_every_private_definition_is_used():
    # module-level private functions, classes and constants, and private
    # methods, each read somewhere in the package outside its own definition
    trees = _trees(Path(cli.__file__).parent)

    def private(name):
        return name.startswith("_") and not name.endswith("__")

    read = sum(map(_reads, trees), Counter())
    defs = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                defs += [(n.id, node) for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name) and private(n.id)]
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if private(node.name):
                    defs.append((node.name, node))
                if isinstance(node, ast.ClassDef):
                    defs += [(m.name, m) for m in node.body
                             if isinstance(m, ast.FunctionDef)
                             and private(m.name)]
    unused = sorted(name for name, node in defs
                    if read[name] == _reads(node)[name])
    assert unused == []


def test_every_public_definition_is_used():
    # module-level public functions and classes of the package, each read
    # somewhere in the package, these tests or perfbench outside its own
    # definition
    tests = Path(__file__).parent
    trees = _trees(Path(cli.__file__).parent)
    read = sum(map(_reads, trees + _trees(tests, tests.parent / "perfbench")),
               Counter())
    unused = sorted(node.name for tree in trees for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and read[node.name] == _reads(node)[node.name])
    assert unused == []


PACKAGE_EXPORTS = frozenset("""
    __version__ BallGraph CellId Chain Cochain Corridor DehnProfile EMPTY_WORD
    FillingCertificate FiniteQuotientOracle FiniteTableModel FreeAbelianModel
    FreeAction FreeGroupModel FreeProductOracle GeodesicNotFoundError
    GrowthScan HLetter Infeasible IntegerQuotientOracle LpSolverError
    NontrivialCertified OracleInvalidError ParseError PluginOracle Primitive
    RelAutomorphism RelLength RelativePresentation RelhypError
    ResourceCapError SeparationReport Trivial Unknown Window Word XLetter
    apply_action apply_automorphism ball_to_csv ball_to_json boundary_chain
    budgeted_word_problem build_corridor build_oracle build_window
    check_separated check_uniform_flare coboundary corridor_cocycle_pairing
    cyclically_reduce dehn_profile encode_action free_reduce geodesic_witness
    growth_scan identity_automorphism letter_count min_linf_primitive pair
    parse_action
    parse_document parse_presentation rel_length relative_area
    relator_indicator_family replay_certificate
    rho_escalation serialize_presentation truncated_ball validate_action
    validate_relaut window_to_json
""".split())


def test_package_exports_are_pinned():
    assert len(PACKAGE_EXPORTS) == 73
    assert sorted(relhyp.__all__) == sorted(PACKAGE_EXPORTS)
    for name in relhyp.__all__:
        assert hasattr(relhyp, name), name


# ---------------------------------------------------------------------------
# determinism


DETERMINISM_MATRIX = (
    ("parse", "--input", "{z}"),
    ("ball", "--input", "{f2}", "--radius", "2", "--format", "csv"),
    ("ball", "--input", "{f2}", "--radius", "2"),
    ("length", "--input", "{z}", "--loop", "h1^2 h2^2"),
    ("area", "--input", "{z}", "--loop", "h1^2 h2^2"),
    ("dehn-profile", "--input", "{z}", "--n-max", "2",
     "--peripheral-bound", "2"),
    ("window-lp", "--input", "{z}", "--radii", "4,8"),
    ("flare", "--input", "{f2}", "--action", "{action}", "--factor", "1.2",
     "--distance", "2", "--min-length", "3", "--g-radius", "3",
     "--sample-size", "20", "--seed", "9"),
    ("corridor", "--input", "{f2}", "--action", "{action}", "--loop", "x y",
     "--depth", "2"),
)


@pytest.mark.parametrize("argv", DETERMINISM_MATRIX,
                         ids=lambda a: a[0])
def test_repeated_runs_are_byte_identical(argv, docs, capsys):
    filled = [a.format(**docs) for a in argv]
    code1, out1, _ = run_cli(capsys, *filled)
    code2, out2, _ = run_cli(capsys, *filled)
    assert code1 == code2 == 0
    assert out1 == out2 and out1


@pytest.mark.parametrize("argv", (
    ("area", "--input", "{z}", "--loop", "h1^2 h2^2"),
    ("ball", "--input", "{f2}", "--radius", "3"),
    ("ball", "--input", "{f2}", "--radius", "3", "--format", "csv"),
), ids=("area", "ball-json", "ball-csv"))
def test_output_file_matches_stdout(argv, docs, capsys, tmp_path):
    filled = [a.format(**docs) for a in argv]
    target = tmp_path / "run.out"
    code, out, _ = run_cli(capsys, *filled)
    code2, _, _ = run_cli(capsys, *filled, "--output", str(target))
    assert code == code2 == 0
    assert target.read_text() == out


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writing_a_ball_adds_no_memory_to_its_walk(docs, tmp_path):
    """The artifact is written piece by piece, so a ball command's traced
    peak is its walk's, whatever the size of the text (9 MB of JSON
    here)."""
    P, O = f2()
    target = str(tmp_path / "ball.out")
    runs = {fmt: functools.partial(cli.main, [
        "ball", "--input", docs["f2"], "--radius", "8", "--format", fmt,
        "--output", target]) for fmt in ("json", "csv")}
    walk = functools.partial(truncated_ball, P, O, 8, 1)
    for fn in (walk, *runs.values()):
        fn()
    walk_peak = _traced_peak(walk)
    for fmt, run in runs.items():
        assert _traced_peak(run) - walk_peak < 2**20, fmt


# SHA-256s of three of the benchmark's heavy invocations, from its frozen
# answers; the documents keep the benchmark's names, because the config
# echo of an artifact holds its input paths
HEAVY_ARTIFACTS = {
    ("ball", "--input", "f2.json", "--radius", "8"):
        "5b331bc0d8b2641c019db38e995d18c84840e23adc8a5c50cac1f50a39957457",
    ("ball", "--input", "f2.json", "--radius", "8", "--format", "csv"):
        "c98e3da66c923a4ee8a93fd64b9f8935598c97b5524c1859eebe364f665fd1b1",
    ("flare", "--input", "f2.json", "--action", "action.json",
     "--min-length", "3", "--factor", "1.2", "--distance", "2",
     "--g-radius", "6"):
        "05aa09532864812b518f515557be028ceef471f168af002ce309132e83c6ae1b",
}


@pytest.mark.parametrize("argv", HEAVY_ARTIFACTS,
                         ids=("ball-json", "ball-csv", "flare"))
def test_heavy_artifacts_are_pinned(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("f2.json").write_text(json.dumps(f2_doc()))
    Path("action.json").write_text(json.dumps(f2_stretch_action_doc()))
    assert cli.main([*argv, "--output", "out.txt"]) == 0
    digest = hashlib.sha256(Path("out.txt").read_bytes()).hexdigest()
    assert digest == HEAVY_ARTIFACTS[argv]


def _codes_fail(self, key):
    raise OracleInvalidError("no codes")


@pytest.mark.parametrize("fmt, cap, code", (
    ("json", True, 4), ("csv", True, 4), ("json", False, 3)),
    ids=("cap-json", "cap-csv", "oracle-json"))
def test_failed_ball_leaves_no_partial_artifact(fmt, cap, code, docs,
                                                 capsys, tmp_path,
                                                 monkeypatch):
    argv = ["ball", "--input", docs["f2"], "--radius", "3", "--format", fmt]
    if cap:
        argv += ["--max-vertices", "5"]
    else:
        monkeypatch.setattr(FreeProductOracle, "codes_of_key", _codes_fail)
    kept = tmp_path / "kept.out"
    kept.write_bytes(b"earlier bytes\n")
    absent = tmp_path / "absent.out"
    for target in (kept, absent):
        got, out, err = run_cli(capsys, *argv, "--output", str(target))
        assert got == code and out == "" and err.startswith("relhyp: error")
    assert kept.read_bytes() == b"earlier bytes\n"
    assert not absent.exists()


JSON_ARTIFACTS = tuple(a for a in DETERMINISM_MATRIX
                       if a[0] not in ("dehn-profile", "window-lp")
                       and "csv" not in a)


@pytest.mark.parametrize("argv", JSON_ARTIFACTS, ids=lambda a: a[0])
def test_json_artifacts_are_sorted_and_indented_by_two(argv, docs, capsys):
    code, out, _ = run_cli(capsys, *[a.format(**docs) for a in argv])
    assert code == 0
    assert json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n" == out


def test_parser_reuse_leaks_nothing_between_calls(docs, capsys, monkeypatch):
    sequence = (
        ["ball", "--input", docs["f2"], "--radius", "3", "--format", "csv"],
        ["ball", "--input", docs["f2"], "--radius", "two"],
        ["--version"],
        ["ball", "--input", docs["f2"], "--radius", "2"],
    )

    def run_all():
        got = []
        for argv in sequence:
            try:
                code = cli.main(argv)
            except SystemExit as stop:
                code = stop.code
            captured = capsys.readouterr()
            got.append((code, captured.out, captured.err))
        return got

    assert cli._parser() is cli._parser()
    reused = run_all()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = run_all()
    assert [code for code, _, _ in reused] == [0, 2, 0, 0]
    assert reused == fresh
