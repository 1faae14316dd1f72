"""Tests of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
from spans import TARGETS, Tracer  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_closed_forms_match_known_values():
    assert [oracles.labute(k, 2) for k in range(1, 7)] == [4, 5, 16, 45, 144, 440]
    assert oracles.labute(5, 3) == 1344
    assert oracles.labute(6, 3) == 6496
    assert (oracles.witt(6, 2), oracles.witt(6, 3), oracles.witt(6, 6)) == (9, 116, 7735)
    assert oracles.region_rhs(3, 4) == oracles.witt(3, 2) + oracles.witt(3, 3)
    assert oracles.eigen_pm1([[1, 1], [0, 1]])
    assert not oracles.eigen_pm1([[0, -1], [1, 1]])
    assert oracles.is_symplectic([[0, -1], [1, 0]])
    assert not oracles.is_symplectic([[2, 0], [0, 1]])


def test_scan_family_size_matches_library():
    from lietau.obstruction import scan_family
    for g in (1, 2, 3):
        for h in (1, 2):
            assert len(scan_family(g, h)) == oracles.scan_family_size(g, h)


def test_inputs_depend_on_the_seed_only():
    for workload in ("ideal_ranks", "johnson_braid", "cli_queries"):
        a = gen.make(workload, 5, gen.TINY)
        assert a == gen.make(workload, 5, gen.TINY)
        assert a != gen.make(workload, 6, gen.TINY)


def test_cli_oracle_counts_a_mismatch():
    call = {"check": {"kind": "witt", "k": 6, "n": 2}}
    assert run.check_cli(call, 0, b"9\n")[0]
    assert not run.check_cli(call, 0, b"10\n")[0]
    assert not run.check_cli(call, 1, b"9\n")[0]


def test_sympy_share_read_from_importtime():
    stderr = (b"import time: self [us] | cumulative | imported package\n"
              b"import time:       120 |        120 |     sympy.core\n"
              b"import time:      2264 |     472464 |   sympy\n"
              b"import time:      1304 |     533955 | lietau\n")
    assert run.sympy_import_s(stderr) == 0.472464
    assert run.sympy_import_s(b"import time:  1304 |  533955 | lietau\n") == 0.0
    assert run._stderr_tail(stderr + b"Traceback\n", 100) == "Traceback\n"


@pytest.mark.parametrize("workload", ["ideal_ranks", "johnson_braid", "cli_queries"])
def test_smoke_untraced(workload):
    result = run.run(workload, seed=1, seconds=1, trace=0, sizes=gen.TINY)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["ideal_ranks", "johnson_braid"])
def test_smoke_traced(workload):
    result = run.run(workload, seed=1, seconds=1, trace=1, sizes=gen.TINY)
    assert result["correct"]
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    spans = json.loads(next(run.OUT.glob(
        "%s-seed1-trace1.spans.json" % workload)).read_text())
    assert spans["spans"] and set(spans["names"]) == set(TARGETS)


def test_traced_run_fails_when_a_layer_records_no_calls():
    # the one tiny CLI call (witt) never reaches hall_basis, symplectic or region
    with pytest.raises(run.BenchError, match="zero calls"):
        run.run("cli_queries", seed=1, seconds=1, trace=1, sizes=gen.TINY)


def test_times_are_scaled_by_the_reference_processes_around_them(monkeypatch):
    runner = run.Runner("scale")
    refs = iter([0.2, 0.3, 0.5])

    def fake_run(argv):
        t = next(refs) if argv is run.REFERENCE else 1.0
        return 0, b"", b"", 0.0, t, 0

    monkeypatch.setattr(runner, "_run", fake_run)
    assert runner.spawn(["x"])[-1] == pytest.approx(run.REFERENCE_S / 0.25)
    assert runner.spawn(["x"])[-1] == pytest.approx(run.REFERENCE_S / 0.4)
    assert runner.references == [0.2, 0.3, 0.5]


def test_span_self_time_excludes_children():
    tracer = Tracer()
    inner = tracer._wrap("inner", lambda: sum(range(20000)), None)
    outer = tracer._wrap("outer", lambda: [inner() for _ in range(3)], None)
    outer()
    calls, total, self_s = tracer.agg["outer"]
    assert calls == 1 and tracer.agg["inner"][0] == 3
    assert abs(self_s - (total - tracer.agg["inner"][1])) < 1e-9
    ids = {s[1]: s for s in tracer.spans}
    assert all(ids[s[2]][0] == tracer.names.index("outer")
               for s in tracer.spans if s[0] == tracer.names.index("inner"))


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ideal_ranks",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
