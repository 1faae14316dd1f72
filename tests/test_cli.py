import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lietau.cli import main
from lietau.hall import witt
from lietau.serialize import (decimal, dumps, parse_int, parse_lagrangian,
                              parse_word)
from lietau.surface import SurfaceModel
from lietau.words import word_to_str

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_witt_command(capsys):
    code, out, _ = run(capsys, "witt", "6", "2")
    assert code == 0 and out.strip() == "9"


def test_hall_command(capsys):
    code, out, _ = run(capsys, "hall", "--k", "3", "--alphabet", "x,y")
    assert code == 0
    assert out.splitlines() == ["[[y,x],x]", "[[y,x],y]"]


def test_hall_genus_alphabet(capsys):
    code, out, _ = run(capsys, "hall", "--k", "2", "--genus", "2")
    assert code == 0
    assert out.splitlines() == ["[a2,a1]", "[b1,a1]", "[b1,a2]",
                                "[b2,a1]", "[b2,a2]", "[b2,b1]"]


def test_rank_surface_ring(capsys):
    code, out, _ = run(capsys, "rank", "--k", "2", "--genus", "2",
                       "--ring", "surface")
    assert code == 0
    assert json.loads(out)["rank"] == 5


def test_depth_identity(capsys):
    code, out, _ = run(capsys, "depth", "--map", '{"genus":2,"images":{}}',
                       "--cap", "6")
    assert code == 0
    assert out.strip() == "johnson >= 6, jprime >= 6"


def test_rank_command(capsys):
    code, out, _ = run(capsys, "rank", "--k", "4", "--genus", "2",
                       "--ring", "handlebody")
    assert code == 0
    data = json.loads(out)
    assert data["rank"] == 3 and data["torsion"] == []


def test_tau_command_boundary_twist(capsys):
    m = SurfaceModel(2)
    from lietau.johnson import boundary_twist
    t = boundary_twist(m)
    images = {nm: word_to_str(w)
              for nm, w in zip(m.alphabet.names, t.endo.images)}
    blob = json.dumps({"genus": 2, "images": images})
    code, out, _ = run(capsys, "tau", "--k", "3", "--map", blob, "--free")
    assert code == 0
    data = json.loads(out)
    assert data["free"] is True and data["k"] == 3
    assert data["terms"]
    code, out, _ = run(capsys, "tau", "--k", "3", "--map", blob)
    data = json.loads(out)
    assert data["terms"] == []


def test_tau_golden_depth_three_braid(capsys, g3_braids):
    d = g3_braids["d"].fwd
    images = {nm: word_to_str(w)
              for nm, w in zip(d.model.alphabet.names, d.endo.images)}
    blob = json.dumps({"genus": 3, "images": images})
    code, out, _ = run(capsys, "tau", "--k", "3", "--map", blob)
    assert code == 0
    assert out == (
        '{"free": false, "k": 3, "terms": [["b1", {"terms": '
        '[[1, [["b2", "b1"], "b3"]], [1, [["b3", "b1"], "b2"]], '
        '[1, [["b3", "b2"], "b2"]]], "weight": 3}], ["b2", {"terms": '
        '[[2, [["b2", "b1"], "b3"]], [-1, [["b3", "b1"], "b1"]], '
        '[-1, [["b3", "b1"], "b2"]]], "weight": 3}], ["b3", {"terms": '
        '[[-1, [["b2", "b1"], "b1"]], [-1, [["b2", "b1"], "b2"]]], '
        '"weight": 3}]]}\n')


def test_rank_golden_surface_genus_three(capsys):
    code, out, _ = run(capsys, "rank", "--genus", "3", "--k", "5")
    assert code == 0
    assert out == ('{"genus": 3, "k": 5, "rank": 1344, "ring": "surface", '
                   '"torsion": []}\n')


def test_region_csv_deterministic(capsys):
    code1, out1, _ = run(capsys, "region", "--kmax", "8", "--gmax", "8",
                         "--format", "csv")
    code2, out2, _ = run(capsys, "region", "--kmax", "8", "--gmax", "8",
                         "--format", "csv")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "9000" in out1 and "5796" in out1


def test_region_json(capsys):
    code, out, _ = run(capsys, "region", "--kmax", "3", "--gmax", "4",
                       "--format", "json")
    assert code == 0
    cells = json.loads(out)
    assert {(c["k"], c["g"]) for c in cells} == {(k, g) for k in (2, 3)
                                                 for g in (2, 3, 4)}


def test_obstruct_identity(capsys):
    lag = json.dumps({"genus": 2, "span": [[1, 0, 0, 0], [0, 1, 0, 0]]})
    code, out, _ = run(capsys, "obstruct", "--k", "2",
                       "--map", '{"genus":2,"images":{}}', "--lagrangian", lag)
    assert code == 0
    assert json.loads(out)["vanishes"] is True


def test_scan_identity(capsys):
    code, out, _ = run(capsys, "scan", "--k", "2",
                       "--map", '{"genus":2,"images":{}}', "--height", "0")
    assert code == 0
    data = json.loads(out)
    assert data["scanned"] == 4
    assert len(data["vanishing"]) == 4


# stdout of a k = 3 scan of the twist cutting off handle 1 (a1 and b1
# conjugated by [a1, b1]): the genus-2 family at height 2 plus one graph
# Lagrangian outside it
SCAN_MAP = ('{"genus":2,"images":{"a1":"a1 b1 a1^-1 b1^-1 a1 b1 a1 b1^-1 a1^-1",'
            '"b1":"a1 b1 a1^-1 b1 a1 b1^-1 a1^-1"}}')
SCAN_EXTRA = '[{"genus":2,"span":[[1,0,3,1],[0,1,1,-2]]}]'
SCAN_GOLDEN = (
    '{"k": 3, "nonvanishing_count": 7, "scanned": 27, "vanishing": ['
    '{"genus": 2, "span": [[1, 0, 0, 0], [0, 1, 0, 0]]}'
    ', {"genus": 2, "span": [[0, 1, 0, 0], [0, 0, 1, 0]]}'
    ', {"genus": 2, "span": [[1, 0, 0, 0], [0, 0, 0, 1]]}'
    ', {"genus": 2, "span": [[0, 0, 1, 0], [0, 0, 0, 1]]}'
    ', {"genus": 2, "span": [[1, 0, 2, 0], [0, 1, 0, 0]]}'
    ', {"genus": 2, "span": [[2, 0, 1, 0], [0, 0, 0, 1]]}'
    ', {"genus": 2, "span": [[1, 0, -2, 0], [0, 1, 0, 0]]}'
    ', {"genus": 2, "span": [[2, 0, -1, 0], [0, 0, 0, 1]]}'
    ', {"genus": 2, "span": [[1, 0, 4, 0], [0, 1, 0, 0]]}'
    ', {"genus": 2, "span": [[4, 0, 1, 0], [0, 0, 0, 1]]}'
    ', {"genus": 2, "span": [[1, 0, -4, 0], [0, 1, 0, 0]]}'
    ', {"genus": 2, "span": [[4, 0, -1, 0], [0, 0, 0, 1]]}'
    ', {"genus": 2, "span": [[1, 0, 0, 0], [0, 1, 0, 2]]}'
    ', {"genus": 2, "span": [[0, 2, 0, 1], [0, 0, 1, 0]]}'
    ', {"genus": 2, "span": [[1, 0, 0, 0], [0, 1, 0, -2]]}'
    ', {"genus": 2, "span": [[0, 2, 0, -1], [0, 0, 1, 0]]}'
    ', {"genus": 2, "span": [[1, 0, 0, 0], [0, 1, 0, 4]]}'
    ', {"genus": 2, "span": [[0, 4, 0, 1], [0, 0, 1, 0]]}'
    ', {"genus": 2, "span": [[1, 0, 0, 0], [0, 1, 0, -4]]}'
    ', {"genus": 2, "span": [[0, 4, 0, -1], [0, 0, 1, 0]]}]}'
    '\n')


def test_scan_golden(capsys):
    code, out, _ = run(capsys, "scan", "--k", "3", "--map", SCAN_MAP,
                       "--height", "2", "--lagrangians", SCAN_EXTRA)
    assert code == 0 and out == SCAN_GOLDEN


def test_matrix_check_trefoil(capsys):
    code, out, _ = run(capsys, "matrix-check", "--matrix", "[[0,-1],[1,1]]")
    assert code == 0
    data = json.loads(out)
    assert data["symplectic"] is True
    assert data["eigen_pm1"] is False
    assert data["invariant_lagrangian"] is None


def test_matrix_check_companion(capsys):
    blob = "[[0,0,0,-1],[1,0,0,0],[0,1,0,0],[0,0,1,0]]"
    code, out, _ = run(capsys, "matrix-check", "--matrix", blob)
    data = json.loads(out)
    assert data["invariant_lagrangian"] is None
    assert data["pair_checks"][0]["nonzero"] is True


# matrix-check goldens: one per shape of characteristic polynomial factor
MATRIX_GOLDENS = {
    # x^4 - 3x^2 + 1 = (x^2 - x - 1)(x^2 + x - 1)
    "quadratic_pair": (
        "[[1,1,0,0],[1,0,0,0],[0,0,0,1],[0,0,1,-1]]",
        '{"candidates_tested": 1, "eigen_pm1": false, "invariant_lagrangian": '
        '{"genus": 2, "span": [[0, 0, 1, 0], [0, 0, 0, 1]]}, "notes": ["factor '
        'x**2 - x - 1 is not reciprocal; no pair certificate", "factor x**2 + x '
        '- 1 is not reciprocal; no pair certificate"], "pair_checks": [], '
        '"rational_eigenvalues": [], "size": 4, "symplectic": true}\n'),
    # (x^3 - x - 1)(x^3 + x^2 - 1)
    "cubic_pair": (
        "[[0,0,1,0,0,0],[1,0,1,0,0,0],[0,1,0,0,0,0],[0,0,0,-1,0,1],"
        "[0,0,0,1,0,0],[0,0,0,0,1,0]]",
        '{"candidates_tested": 1, "eigen_pm1": false, "invariant_lagrangian": '
        '{"genus": 3, "span": [[0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0], '
        '[0, 0, 0, 0, 0, 1]]}, "notes": ["factor x**3 - x - 1 is not '
        'reciprocal; no pair certificate", "factor x**3 + x**2 - 1 is not '
        'reciprocal; no pair certificate"], "pair_checks": [], '
        '"rational_eigenvalues": [], "size": 6, "symplectic": true}\n'),
    # an irreducible sextic
    "sextic": (
        "[[1,0,0,1,-1,0],[0,1,-1,-1,1,-1],[0,0,1,0,-1,0],[-2,1,0,-2,2,-1],"
        "[1,-2,0,3,0,2],[1,-2,-1,3,1,3]]",
        '{"candidates_tested": 0, "eigen_pm1": false, "invariant_lagrangian": '
        'null, "pair_checks": [{"factor": "x**6 - 4*x**5 - x**4 + 5*x**3 - '
        'x**2 - 4*x + 1", "nonzero": true, "omega_v_vbar": "484/27 + 22/9*z + '
        '-577/27*z^2 + 49/27*z^3 + 214/9*z^4 + -157/27*z^5"}], '
        '"rational_eigenvalues": [], "size": 6, "symplectic": true}\n'),
    # (x^2 - 3x + 1)^2
    "repeated": (
        "[[2,0,1,0],[0,2,0,1],[1,0,1,0],[0,1,0,1]]",
        '{"candidates_tested": 0, "eigen_pm1": false, "invariant_lagrangian": '
        'null, "pair_checks": [{"factor": "x**2 - 3*x + 1", "nonzero": true, '
        '"omega_v_vbar": "-3 + 2*z"}], "rational_eigenvalues": [], "size": 4, '
        '"symplectic": true}\n'),
    # (x - 1)^2 (x^2 + 1)(x^2 - 3x + 1)
    "mixed": (
        "[[1,0,0,0,0,0],[0,0,0,0,-1,0],[0,0,2,0,0,1],[1,0,0,1,0,0],"
        "[0,1,0,0,0,0],[0,0,1,0,0,1]]",
        '{"candidates_tested": 4, "eigen_pm1": true, "invariant_lagrangian": '
        'null, "pair_checks": [{"factor": "x**2 - 3*x + 1", "nonzero": true, '
        '"omega_v_vbar": "-3 + 2*z"}, {"factor": "x**2 + 1", "nonzero": true, '
        '"omega_v_vbar": "2*z"}], "rational_eigenvalues": [1], "size": 6, '
        '"symplectic": true}\n'),
    # (x - 1)^6, a product of block transvections; the eigenvalue-1 kernels
    # give a Lagrangian that is not spanned by coordinate vectors
    "unipotent": (
        "[[1,0,0,0,0,0],[0,1,1,0,0,0],[0,0,1,0,0,0],[0,0,-1,1,0,0],"
        "[0,0,-1,0,1,0],[-1,-1,1,0,-1,1]]",
        '{"candidates_tested": 4, "eigen_pm1": true, "invariant_lagrangian": '
        '{"genus": 3, "span": [[0, 1, 0, 0, -1, 0], [0, 0, 0, 1, 0, 0], '
        '[0, 0, 0, 0, 0, 1]]}, "pair_checks": [], "rational_eigenvalues": [1], '
        '"size": 6, "symplectic": true}\n'),
    # (x^2 - 3x + 1)^2 again, as two 2x2 blocks on (alpha1, alpha2) and
    # (beta1, beta2).  span{alpha1, alpha2} is invariant and Lagrangian, but
    # the search is offered only the whole rank-4 primary component, so it
    # tests no candidate: this golden pins that miss, and changes on purpose
    # once the search offers the component's invariant rank-2 sublattices
    "repeated_blocks": (
        "[[2,1,0,0],[1,1,0,0],[0,0,1,-1],[0,0,-1,2]]",
        '{"candidates_tested": 0, "eigen_pm1": false, "invariant_lagrangian": '
        'null, "pair_checks": [{"factor": "x**2 - 3*x + 1", "nonzero": false, '
        '"omega_v_vbar": "0"}], "rational_eigenvalues": [], "size": 4, '
        '"symplectic": true}\n'),
}


@pytest.mark.parametrize("name", sorted(MATRIX_GOLDENS))
def test_matrix_check_golden(capsys, name):
    matrix, expect = MATRIX_GOLDENS[name]
    code, out, _ = run(capsys, "matrix-check", "--matrix", matrix)
    assert code == 0 and out == expect


def test_matrix_check_reads_the_matrix_once(capsys, monkeypatch):
    from lietau import intlinalg, symplectic
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(symplectic, "is_symplectic",
                        counted("is_symplectic", symplectic.is_symplectic))
    for mod in (intlinalg, symplectic):
        monkeypatch.setattr(mod, "charpoly",
                            counted("charpoly", intlinalg.charpoly))
    for name in ("mixed", "unipotent"):
        matrix, expect = MATRIX_GOLDENS[name]
        calls.clear()
        code, out, _ = run(capsys, "matrix-check", "--matrix", matrix)
        assert code == 0 and out == expect
        assert sorted(calls) == ["charpoly", "is_symplectic"]


def test_matrix_check_golden_without_sympy():
    script = ("import sys; sys.modules['sympy'] = None\n"
              "from lietau.cli import main; sys.exit(main(sys.argv[1:]))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for matrix, expect in MATRIX_GOLDENS.values():
        out = subprocess.run(
            [sys.executable, "-c", script, "matrix-check", "--matrix", matrix],
            env=env, capture_output=True, text=True, timeout=60)
        assert out.returncode == 0 and out.stdout == expect, out.stderr


def test_domain_error_exit_code(capsys):
    code, out, err = run(capsys, "tau", "--k", "2",
                         "--map", '{"genus":2,"images":{"a1":"b1"}}')
    assert code == 1
    assert out == ""
    data = json.loads(err)
    assert data["error"] == "relation-violated"


@pytest.mark.parametrize("argv", [
    ["witt", "0", "2"],
    ["rank", "--k", "0", "--genus", "2"],
    ["rank", "--k", "3", "--genus", "0"],
    ["hall", "--k", "3", "--alphabet", "x,x"],
    ["region", "--kmax", "1"],
    ["depth", "--map", "."],
    ["depth", "--map", '{"genus":"x"}'],
    ["depth", "--map", '{"genus":2,"images":{}}', "--cap", "0"],
    ["scan", "--k", "2", "--map", '{"genus":2,"images":{}}', "--height", "-1"],
    ["depth", "--map", '{"genus": 2, "images": []}'],
    ["depth", "--map", '{"genus":2,"images":{"a1":"a1 b1","zz":"b1"}}'],
    ["matrix-check", "--matrix", "[[1,0],[0,1]]", "--bound", "0"],
    ["hall", "--k", "2", "--alphabet", "x,,y"],
    ["hall", "--k", "2", "--alphabet", "x,y z"],
    ["hall", "--k", "2", "--alphabet", "x,y[1]"],
    ["hall", "--k", "2", "--alphabet", "x,y^2"],
    # a Lagrangian of another genus than the map's
    ["obstruct", "--k", "2", "--map", '{"genus":3,"images":{}}',
     "--lagrangian", '{"genus":2,"span":[[1,0,0,0],[0,1,0,0]]}'],
    ["obstruct", "--k", "2", "--map", '{"genus":2,"images":{}}',
     "--lagrangian", '{"genus":3,"span":[[1,0,0,0,0,0],[0,1,0,0,0,0],'
                     '[0,0,1,0,0,0]]}'],
    ["scan", "--k", "2", "--map", '{"genus":3,"images":{}}', "--height", "0",
     "--lagrangians", '[{"genus":2,"span":[[1,0,0,0],[0,1,0,0]]}]'],
    # JSON shapes that cannot be iterated where arrays are expected
    ["obstruct", "--k", "2", "--map", '{"genus":2,"images":{}}',
     "--lagrangian", '{"genus":2,"span":5}'],
    ["obstruct", "--k", "2", "--map", '{"genus":2,"images":{}}',
     "--lagrangian", '{"genus":2,"span":[5]}'],
    ["depth", "--map", '{"genus":2,"images":{"a1":[5]}}'],
    # strings and objects where arrays are expected
    ["obstruct", "--k", "2", "--map", '{"genus":1,"images":{}}',
     "--lagrangian", '{"genus":1,"span":["10"]}'],
    ["obstruct", "--k", "2", "--map", '{"genus":1,"images":{}}',
     "--lagrangian", '{"genus":1,"span":{"01":7}}'],
    ["depth", "--map", '{"genus":2,"images":{"a1":["b1"]}}'],
    # a generator named by an array, and one Lagrangian where an array of
    # them is expected
    ["tau", "--k", "2", "--map", '{"genus":1,"images":{"a1":[[["x"],1]]}}'],
    ["scan", "--k", "2", "--map", '{"genus":1,"images":{}}',
     "--lagrangians", '{"genus":1,"span":[[1,0]]}'],
    # a Lagrangian of no genus
    ["obstruct", "--k", "2", "--map", '{"genus":2,"images":{}}',
     "--lagrangian", '{"genus": -1, "span": []}'],
])
def test_bad_input_is_one_json_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert "error" in json.loads(err)


@pytest.mark.parametrize("argv,error,named", [
    (["depth", "--map", '{"genus": 2, "images": []}'],
     "precondition-violation", "images"),
    (["depth", "--map", '{"genus":2,"images":{"a1":"a1 b1","zz":"b1"}}'],
     "unknown-generator", "zz"),
    (["matrix-check", "--matrix", "[[1,0],[0,1]]", "--bound", "-5"],
     "precondition-violation", "bound"),
    # printed as [,x] and [y,], which no parser reads back
    (["hall", "--k", "2", "--alphabet", "x,,y"], "bad-input", "''"),
    (["hall", "--k", "2", "--alphabet", "x,y]"], "bad-input", "'y]'"),
    (["tau", "--k", "2", "--map", '{"genus":1,"images":{"a1":[[{"x":1},1]]}}'],
     "unknown-generator", "{'x': 1}"),
    (["scan", "--k", "2", "--map", '{"genus":1,"images":{}}',
      "--lagrangians", '{"genus":1,"span":[[1,0]]}'],
     "precondition-violation", "--lagrangians"),
    # a word pair of three items, and an exponent that is no integer
    (["depth", "--map", '{"genus":1,"images":{"a1":[["a1",1,2]]}}'],
     "precondition-violation", "a word pair"),
    (["depth", "--map", '{"genus":1,"images":{"a1":[["a1","x"]]}}'],
     "precondition-violation", "'x'"),
    (["obstruct", "--k", "2", "--map", '{"genus":2,"images":{}}',
      "--lagrangian", '{"genus": -1, "span": []}'],
     "precondition-violation", "genus must be >= 1"),
])
def test_refusal_names_its_input(capsys, argv, error, named):
    code, out, err = run(capsys, *argv)
    assert code == 1
    data = json.loads(err)
    assert data["error"] == error
    assert named in data["message"]


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["depth"])  # missing required --map
    assert exc.value.code == 2


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cap": 4}))
    code, out, _ = run(capsys, "--config", str(cfg), "depth",
                       "--map", '{"genus":2,"images":{}}')
    assert code == 0
    assert out.strip() == "johnson >= 4, jprime >= 4"


@pytest.mark.parametrize("body", [
    {"cap": "x"}, {"cap": None}, {"cap": True}, [1], {"format": "xml"},
    {"height": 2.5}, {"height": True}, {"cpa": 3},
])
def test_bad_config_is_one_json_error(tmp_path, capsys, body):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(body))
    code, out, err = run(capsys, "--config", str(cfg), "depth",
                         "--map", '{"genus":2,"images":{}}')
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert err.count("\n") == 1 and "error" in json.loads(err)


def test_retired_verbosity_key_is_ignored(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"verbosity": 2}))
    argv = ["depth", "--map", '{"genus":2,"images":{}}']
    code, plain, _ = run(capsys, *argv)
    assert code == 0
    code, out, _ = run(capsys, "--config", str(cfg), *argv)
    assert code == 0 and out == plain


def test_config_env(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cap": 3}))
    monkeypatch.setenv("LIETAU_CONFIG", str(cfg))
    code, out, _ = run(capsys, "depth", "--map", '{"genus":2,"images":{}}')
    assert code == 0
    assert out.strip() == "johnson >= 3, jprime >= 3"


def test_map_from_file(tmp_path, capsys):
    p = tmp_path / "map.json"
    p.write_text('{"genus":2,"images":{}}')
    code, out, _ = run(capsys, "depth", "--map", str(p), "--cap", "4")
    assert code == 0


def test_big_int_serialization():
    big = 2 ** 77
    s = dumps({"value": big, "small": 7})
    data = json.loads(s)
    assert data["value"] == str(big)
    assert data["small"] == 7
    assert parse_int(data["value"]) == big


def test_parse_word_both_forms():
    m = SurfaceModel(2)
    w1 = parse_word(m.alphabet, "a1 b1 a1^-1 b1^-1")
    w2 = parse_word(m.alphabet, [["a1", 1], ["b1", 1], ["a1", -1], ["b1", -1]])
    assert w1 == w2


def test_parse_lagrangian_roundtrip():
    obj = {"genus": 2, "span": [[1, 0, 0, 0], [0, 1, 0, 0]]}
    lag = parse_lagrangian(obj)
    assert lag.genus == 2


@pytest.mark.parametrize("word", ["a1^99999999999999999999",
                                  [["a1", "-99999999999999999999"]]])
def test_huge_exponent_is_refused(capsys, word):
    blob = json.dumps({"genus": 2, "images": {"a1": word}})
    code, out, err = run(capsys, "tau", "--k", "2", "--map", blob)
    assert (code, out) == (1, "")
    data = json.loads(err)
    assert data["error"] == "unknown-generator"
    assert "bad exponent" in data["message"]


@pytest.mark.parametrize("option", ["--map", "--config"])
def test_deeply_nested_json_is_bad_json(tmp_path, capsys, option):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    argv = (["--config", str(deep), "depth", "--map", '{"genus":2,"images":{}}']
            if option == "--config" else ["depth", "--map", str(deep)])
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert "Traceback" not in err
    assert json.loads(err)["error"] == "bad-json"


@pytest.mark.parametrize("argv", [["witt", "4", "2"],
                                  ["region", "--kmax", "2", "--gmax", "3"]],
                         ids=lambda a: a[0])
def test_failed_self_check_is_one_internal_fault(capsys, monkeypatch, argv):
    # a wrong Mobius value leaves the Witt sum at k = 4, g = 2 indivisible
    # (16 + 4 + 2), and a wrong pure-braid rank misses C(3, 3) at k = 2
    from lietau import hall, region
    monkeypatch.setattr(hall, "mobius", lambda d: 1)
    monkeypatch.setattr(region, "purebraid_rank", lambda k, g: 0)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "internal-fault"


# the CLI contract over a bounded argv grammar: small genera, weights and
# matrices, so every call is cheap, mixed with invalid input of every kind
def _twist_json(genus):
    from lietau.johnson import boundary_twist
    m = SurfaceModel(genus)
    return json.dumps({"genus": genus, "images": {
        nm: word_to_str(w)
        for nm, w in zip(m.alphabet.names, boundary_twist(m).endo.images)}})


_MAPS = ([json.dumps({"genus": g, "images": {}}) for g in (1, 2, 3)]
         + [_twist_json(g) for g in (1, 2, 3)] + [SCAN_MAP])
_BAD_MAPS = ['{"genus":2,"images":{"a1":"b1"}}',
             '{"genus":2,"images":{"zz":"a1"}}',
             '{"genus":2,"images":{"a1":"a1 q1"}}',
             '{"genus":0,"images":{}}', '{"genus":-1,"images":{}}',
             '{"genus":"x"}', '{"genus":', '[1, 2]', "{}",
             "no-such-map.json", "."]
_NOT_INTS = ["x", "1.5", "", "two", "0x3"]


def _mostly(good, bad):
    """good three times in four, else bad."""
    return st.integers(0, 3).flatmap(lambda r: good if r else bad)


def _int_arg(lo, hi):
    return _mostly(st.integers(lo, hi).map(str), st.sampled_from(_NOT_INTS))


def _lagrangian_json():
    def make(genus, rows):
        return json.dumps({"genus": genus, "span": rows})
    standard = st.integers(1, 3).map(lambda g: make(g, [
        [int(i == j) for i in range(2 * g)] for j in range(g)]))
    rows = st.integers(-1, 3).flatmap(lambda g: st.tuples(
        st.just(g), st.lists(st.lists(st.integers(-2, 2), min_size=max(0, 2 * g),
                                      max_size=max(0, 2 * g)),
                             max_size=3)))
    return _mostly(standard, st.one_of(
        rows.map(lambda p: make(*p)),
        st.sampled_from(['{"genus":2}', '{"genus":2,"span":5}',
                         '[{"genus":1}]', '{"genus":1,"span":[[1,'])))


def _matrix_json():
    square = st.integers(1, 6).flatmap(lambda n: st.lists(
        st.lists(st.integers(-3, 3), min_size=n, max_size=n),
        min_size=n, max_size=n))
    ragged = st.lists(st.lists(st.integers(-3, 3), max_size=6), max_size=6)
    goldens = st.sampled_from(sorted(m for m, _ in MATRIX_GOLDENS.values()))
    return st.one_of(square.map(json.dumps), ragged.map(json.dumps), goldens,
                     st.sampled_from(['[[1,0],[0,"x"]]', "[[1,0],[0,1]", "{}"]))


def _opt(flag, values):
    """[flag, value], or nothing."""
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


_MAP = _mostly(st.sampled_from(_MAPS), st.sampled_from(_BAD_MAPS))
_K = _int_arg(-1, 4)
_GENUS = _int_arg(-1, 3)

_ARGV = st.one_of(
    st.tuples(st.just(["witt"]), _K.map(lambda v: [v]),
              _int_arg(-1, 6).map(lambda v: [v])),
    st.tuples(st.just(["hall", "--k"]), _K.map(lambda v: [v]),
              st.one_of(_GENUS.map(lambda v: ["--genus", v]),
                        st.sampled_from(["x,y", "x,y,z", "a1,b1,a2", "x,,y",
                                         "x,y z", "x,x", "y]"]).map(
                            lambda v: ["--alphabet", v]),
                        st.just([]))),
    st.tuples(st.just(["rank", "--k"]), _K.map(lambda v: [v]),
              _GENUS.map(lambda v: ["--genus", v]),
              _opt("--ring", st.sampled_from(["free", "surface", "handlebody",
                                              "torus"]))),
    st.tuples(st.just(["depth", "--map"]), _MAP.map(lambda v: [v]),
              _opt("--cap", _int_arg(-1, 5))),
    st.tuples(st.just(["tau", "--k"]), _K.map(lambda v: [v, "--map"]),
              _MAP.map(lambda v: [v]), st.sampled_from([[], ["--free"]])),
    st.tuples(st.just(["obstruct", "--k"]), _K.map(lambda v: [v, "--map"]),
              _MAP.map(lambda v: [v, "--lagrangian"]),
              _lagrangian_json().map(lambda v: [v])),
    st.tuples(st.just(["scan", "--k"]), _K.map(lambda v: [v, "--map"]),
              _MAP.map(lambda v: [v]), _opt("--height", _int_arg(-1, 2)),
              _opt("--lagrangians", st.lists(_lagrangian_json(), max_size=2)
                   .map(lambda ls: "[%s]" % ",".join(ls)))),
    st.tuples(st.just(["region"]), _opt("--kmax", _int_arg(-1, 8)),
              _opt("--gmax", _int_arg(-1, 8)),
              _opt("--format", st.sampled_from(["table", "json", "csv",
                                                "xml"]))),
    st.tuples(st.just(["matrix-check", "--matrix"]),
              _matrix_json().map(lambda v: [v]),
              _opt("--bound", _int_arg(-1, 64))),
).map(lambda parts: [a for part in parts for a in part])


def _call(argv):
    """main in this process, with its exit code and output: `capsys` is
    function-scoped, so hypothesis cannot reuse it across examples."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(_ARGV)
def test_cli_contract_holds_for_every_argv(argv):
    code, out, err = _call(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err
    if code == 1:
        assert out == "" and err.count("\n") == 1, (argv, err)
        assert "error" in json.loads(err)
    elif code == 0:
        assert _call(argv) == (0, out, err)


def _str_unlimited(n):
    """str(n) with Python's int-to-str limit lifted for the call only."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


def test_decimal_matches_str_with_the_least_limit():
    # 640 digits is the least limit Python accepts, so every piece that
    # decimal hands to str stays below any limit
    rng = random.Random(13)
    values = [0, 1, -1, 10**500 - 1, 10**500, 10**1000 - 1, 10**1000,
              10**2000 + 7, -(10**4300), 3 * 10**4301 + 12]
    values += [rng.choice((1, -1)) * rng.randrange(10 ** rng.randint(1, 9000))
               for _ in range(60)]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        got = [decimal(n) for n in values]
    finally:
        sys.set_int_max_str_digits(limit)
    assert got == [_str_unlimited(n) for n in values]


@pytest.mark.parametrize("argv", [
    ["witt", "20000", "2"],
    ["rank", "--ring", "free", "--genus", "1", "--k", "20000"]])
def test_values_past_the_int_to_str_limit_print(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    expect = _str_unlimited(witt(20000, 2))
    assert len(expect) > 4300   # Python's default int-to-str limit
    if argv[0] == "witt":
        assert out == expect + "\n"
    else:
        # an int above 53 bits is written as a JSON string
        assert json.loads(out) == {"ring": "free", "k": 20000, "genus": 1,
                                   "rank": expect, "torsion": []}


def test_parse_int_reads_back_decimal_past_the_limit():
    # decimal writes these past Python's int-to-str limit, and int() refuses
    # to read them back; 640 digits is the least limit Python accepts
    rng = random.Random(31)
    values = [10**4 - 1, 10**4, 10**500, 10**1000 - 1]
    values += [rng.randrange(10 ** (d - 1), 10 ** d) for d in (10**4, 10**5)]
    values += [-n for n in values]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert [parse_int(decimal(n)) for n in values] == values
    finally:
        sys.set_int_max_str_digits(limit)


def test_matrix_entry_past_the_limit_is_read(capsys):
    # as a decimal string, and as a bare JSON integer literal
    for entry in ('"%s"' % ("1" * 5000), "1" * 5000, "-" + "1" * 5000):
        code, out, err = run(capsys, "matrix-check", "--matrix",
                             "[[%s]]" % entry)
        assert code == 0 and err == ""
        assert json.loads(out) == {"size": 1, "symplectic": False}


@pytest.mark.parametrize("entry", ["1" * 4999 + "x", "--" + "1" * 5000])
def test_refused_long_integer_echoes_a_prefix(capsys, entry):
    code, out, err = run(capsys, "matrix-check", "--matrix",
                         json.dumps([[entry]]))
    assert code == 1 and out == ""
    error = json.loads(err)
    assert error["error"] == "precondition-violation"
    assert error["message"].startswith("expected an integer, got '" + entry[:40])
    assert len(err) < 200


_LONG = "x" * 5000


@pytest.mark.parametrize("map_json, lagrangian, code, message", [
    ({"genus": 2, "images": {}}, {"genus": 2, "span": _LONG},
     "precondition-violation", '"span" must be an array, got \'xxx'),
    ({"genus": 2, "images": {}}, {"genus": 2, "span": [_LONG]},
     "precondition-violation", "a span row must be an array, got 'xxx"),
    ({"genus": 2, "images": {"a1": {_LONG: 1}}}, None,
     "precondition-violation", "cannot parse a word from {'xxx"),
    ({"genus": 2, "images": {"a1": [["a1", 1, _LONG]]}}, None,
     "precondition-violation", "a word pair must have 2 items, got ['a1', 1, 'xxx"),
    ({"genus": 2, "images": {_LONG: "a1"}}, None,
     "unknown-generator", "unknown generator 'xxx"),
], ids=["span", "span-row", "word", "word-pair", "image-name"])
def test_refusal_of_long_input_echoes_a_prefix(capsys, map_json, lagrangian,
                                               code, message):
    # the refusal names its input by a prefix, as parse_int's does, and
    # keeps the error code it gave when it echoed the input whole
    argv = ["obstruct", "--k", "2", "--map", json.dumps(map_json),
            "--lagrangian", json.dumps(lagrangian or {"genus": 2, "span": []})]
    got, out, err = run(capsys, *argv)
    assert got == 1 and out == ""
    error = json.loads(err)
    assert error["error"] == code
    assert error["message"].startswith(message)
    assert len(err) < 200
