import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lietau.cli import main
from lietau.serialize import dumps, parse_int, parse_lagrangian, parse_word
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
}


@pytest.mark.parametrize("name", sorted(MATRIX_GOLDENS))
def test_matrix_check_golden(capsys, name):
    matrix, expect = MATRIX_GOLDENS[name]
    code, out, _ = run(capsys, "matrix-check", "--matrix", matrix)
    assert code == 0 and out == expect


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
