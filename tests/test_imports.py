"""Import on demand: `import lietau` and each CLI subcommand load only the
layers they use.

In-process tests run after other tests have loaded every module, so a
missing function-local import shows up only in a fresh interpreter; every
check here that depends on what is loaded runs in a subprocess.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lietau
from lietau.cli import main
from lietau.johnson import boundary_twist
from lietau.surface import SurfaceModel
from lietau.words import word_to_str

SRC = Path(__file__).resolve().parent.parent / "src"

# the public names of the package, by defining module
PUBLIC = {
    "errors": [
        "DepthTooShallowError", "DimensionMismatchError", "GenusTooLargeError",
        "InternalFault", "LietauError", "NotDirectSummandError",
        "NotIsotropicError", "PreconditionError", "RelationViolatedError",
        "UnexpectedTorsionError", "UnknownGeneratorError", "WeightTooLowError"],
    "words": ["Alphabet", "GroupEndomorphism", "Word", "commutator",
              "surface_alphabet", "word_from_str", "word_to_str"],
    "hall": ["HallTree", "hall_basis", "is_basic", "mobius", "tree_from_str",
             "tree_to_str", "witt"],
    "lie": ["LieElement", "bracket", "lift_word", "substitute", "tree_to_lie"],
    "magnus": ["MagnusSeries", "induced_lie_map", "lie_class_at", "magnus",
               "weight_of"],
    "ideals": ["GradedIdeal", "QuotientClass"],
    "surface": ["SurfaceModel", "b_only_part", "handlebody_class",
                "surface_class"],
    "symplectic": ["Lagrangian", "adapt_symplectic_basis",
                   "eigen_pm1_condition", "gram_matrix",
                   "invariant_lagrangian_report",
                   "invariant_lagrangian_search", "is_invariant",
                   "is_symplectic", "omega"],
    "johnson": ["DEFAULT_CAP", "MappingClassData", "TauValue",
                "boundary_twist", "braid_automorphism", "eta", "eta_inverse",
                "identity_mapping_class", "johnson_depth", "jprime_depth",
                "point_push_tau", "push_tuple_of", "sigma", "tau", "tau1"],
    "obstruction": ["GradedDecomposition", "ScanReport",
                    "coordinate_lagrangians", "grade_decompose",
                    "obstruction_vanishes", "robustness_scan", "scan_family",
                    "value_obstruction_vanishes"],
    "region": ["RegionCell", "purebraid_rank", "region_holds", "region_rhs",
               "region_table", "tau2_image_dims"],
}
# the function magnus.magnus, not the submodule, is `lietau.magnus`
SUBMODULES = sorted(set(PUBLIC) - {"magnus"}) + ["intlinalg"]


def _python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def _twist_json():
    m = SurfaceModel(2)
    t = boundary_twist(m)
    return json.dumps({"genus": 2, "images": {
        nm: word_to_str(w) for nm, w in zip(m.alphabet.names, t.endo.images)}})


TWIST = _twist_json()
LAGRANGIAN = json.dumps({"genus": 2, "span": [[1, 0, 0, 0], [0, 1, 0, 0]]})

# one call per subcommand
GOLDEN_CALLS = [
    ["witt", "6", "2"],
    ["hall", "--k", "3", "--genus", "2"],
    ["rank", "--k", "3", "--genus", "2", "--ring", "handlebody"],
    ["depth", "--map", TWIST, "--cap", "4"],
    ["tau", "--k", "3", "--map", TWIST, "--free"],
    ["obstruct", "--k", "3", "--map", TWIST, "--lagrangian", LAGRANGIAN],
    ["scan", "--k", "3", "--map", TWIST, "--height", "0"],
    ["region", "--kmax", "4", "--gmax", "4"],
    ["matrix-check", "--matrix", "[[1,1,0,0],[1,0,0,0],[0,0,0,1],[0,0,1,-1]]"],
]


@pytest.mark.parametrize("argv", GOLDEN_CALLS, ids=lambda a: a[0])
def test_cold_call_matches_in_process(capsys, argv):
    code = main(list(argv))
    inproc = capsys.readouterr()
    cold = _python("-m", "lietau.cli", *argv)
    assert code == 0 and inproc.out
    assert (cold.returncode, cold.stdout, cold.stderr) == (
        code, inproc.out, inproc.err)


# a fresh interpreter runs one CLI call, then lists the lietau modules it
# loaded on the last line of stdout
LOADED = """
import contextlib, io, sys
from lietau.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(" ".join(sorted(m[len("lietau."):] for m in sys.modules
                      if m.startswith("lietau."))))
sys.exit(code)
"""


def _loaded_by(argv):
    out = _python("-c", LOADED, *argv)
    assert out.returncode == 0, out.stderr
    return set(out.stdout.split())


def test_import_lietau_loads_no_submodule():
    out = _python("-c", "import sys, lietau; print(sorted(m for m in "
                        "sys.modules if m.startswith('lietau.')))")
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


@pytest.mark.parametrize("argv", [
    ["witt", "6", "2"],
    ["hall", "--k", "3", "--genus", "2"],
    ["region", "--kmax", "4", "--gmax", "4", "--format", "csv"],
], ids=lambda a: a[0])
def test_light_commands_skip_heavy_layers(argv):
    loaded = _loaded_by(argv)
    assert "hall" in loaded
    assert not loaded & {"magnus", "ideals", "symplectic", "johnson",
                         "obstruction"}


def test_free_rank_skips_surface_layers():
    argv = ["rank", "--k", "3", "--genus", "2", "--ring", "free"]
    assert not _loaded_by(argv) & {"surface", "ideals", "magnus"}
    out = _python("-m", "lietau.cli", *argv)
    assert (out.returncode, out.stdout, out.stderr) == (
        0, '{"genus": 2, "k": 3, "rank": 20, "ring": "free", "torsion": []}\n',
        "")


def test_matrix_check_skips_johnson_layers():
    loaded = _loaded_by(["matrix-check", "--matrix", "[[0,-1],[1,1]]"])
    assert "symplectic" in loaded
    assert not loaded & {"johnson", "magnus", "ideals"}


def test_all_lists_the_public_names():
    names = [nm for names in PUBLIC.values() for nm in names]
    assert len(names) + len(SUBMODULES) == 91
    assert lietau.__all__ == sorted(names + SUBMODULES)
    assert set(lietau.__all__) <= set(dir(lietau))


def test_star_import_binds_defining_objects():
    script = (
        "import importlib, json, sys\n"
        "import lietau.johnson\n"  # loads the submodule magnus first
        "from lietau import *\n"
        "public = json.loads(sys.argv[1])\n"
        "bad = [nm for mod, names in public.items() for nm in names\n"
        "       if globals()[nm] is not getattr(\n"
        "           importlib.import_module('lietau.' + mod), nm)]\n"
        "bad += [mod for mod in json.loads(sys.argv[2]) if globals()[mod]\n"
        "        is not importlib.import_module('lietau.' + mod)]\n"
        "print(bad)\n")
    out = _python("-c", script, json.dumps(PUBLIC), json.dumps(SUBMODULES))
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        lietau.no_such_name
