"""Cold-process benchmark of lietau.

    python3 bench/run.py --workload ideal_ranks|johnson_braid|cli_queries
                         --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Inputs are generated from the seed in this
process before timing; every measured run is a fresh interpreter (see
README.md).  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.  A full
record with the environment and every sample goes to
.bench_out/<workload>-seed<N>-trace<T>.json.
"""

import argparse
import itertools
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

CHILD_TIMEOUT_S = 120
# Set-up probes are spread over the run, so that a slow phase of the machine
# at one point of the run does not set the median: one after every job, and
# one after every PROBE_EVERY CLI calls.
PROBE_EVERY = 4

# The reference process: a fresh interpreter, isolated from the checkout and
# the environment (-I), that imports a fixed set of standard-library modules.
# The speed of a shared host moves in phases of seconds to minutes, and a
# phase slows fresh interpreters running much code (lietau's jobs and
# imports) far more than it slows a small loop; this process slows with
# them.  One runs before and after every measured process, and each measured
# time is scaled by REFERENCE_S over the mean of the two.  It runs no lietau
# code, so only the machine, never the program, moves it.
REFERENCE = [sys.executable, "-I", "-c", "import " + ", ".join((
    "asyncio", "email.mime.multipart", "http.server", "xml.dom.minidom",
    "unittest", "logging.handlers", "sqlite3", "tarfile", "zipfile",
    "concurrent.futures", "pydoc", "difflib", "xmlrpc.client", "smtplib",
    "imaplib", "decimal", "fractions", "json", "csv", "argparse", "inspect",
    "dataclasses", "typing", "ast", "dis", "pickle", "statistics"))]
# times are reported as on a machine where the reference process takes this
# long: a fixed scale, the same for every commit
REFERENCE_S = 0.25

# Layers that must record calls in a traced run of each workload; zero calls
# means a wrapped function was renamed or bypassed, and the run fails.
REQUIRED_LAYERS = {
    "ideal_ranks": ["intlinalg", "ideals", "lie", "hall", "words", "surface"],
    "johnson_braid": ["words", "magnus", "surface", "johnson", "obstruction",
                      "lie", "ideals"],
    "cli_queries": ["cli", "hall", "symplectic", "region"],
}

# per-layer counters combined over the calls of a CLI pass by max, not sum
MAX_KEYS = ("ideals.max_block_cols", "lie.bracket_memo.size")


class BenchError(Exception):
    pass


def quartiles(xs):
    """p25, p50 and p75 by linear interpolation between closest ranks."""
    if len(xs) == 1:
        return xs * 3
    return statistics.quantiles(xs, n=4, method="inclusive")


def sympy_import_s(stderr):
    """Cumulative import time of the top-level sympy module, from the
    `-X importtime` lines on a child's stderr; 0 when sympy was not imported."""
    for line in stderr.decode(errors="replace").splitlines():
        if line.startswith("import time:"):
            fields = line[len("import time:"):].split("|")
            if len(fields) == 3 and fields[2].strip() == "sympy":
                return int(fields[1]) / 1e6
    return 0.0


def _stderr_tail(stderr, n):
    """The last n characters of a child's stderr, without importtime lines."""
    lines = stderr.decode(errors="replace").splitlines(keepends=True)
    return "".join(ln for ln in lines if not ln.startswith("import time:"))[-n:]


def environment():
    try:
        # the ceiling keeps git from reading repositories above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             timeout=10, capture_output=True,
                             text=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = ""
    try:
        sympy = metadata.version("sympy")
    except metadata.PackageNotFoundError:
        sympy = None
    return {"python": platform.python_version(), "sympy": sympy,
            "nproc": len(os.sched_getaffinity(0)), "git_rev": rev or "unknown",
            "platform": platform.platform()}


class Runner:
    """Starts measured child processes one at a time, each between two
    reference processes when `scaled`, and reaps them.  Traced runs are not
    scaled: their per-layer times are not gated, and the reference processes
    would leave no time for a whole traced pass of cli_queries."""

    def __init__(self, tag, scaled=True):
        self.tag = tag
        self.scaled = scaled
        self.count = 0
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.references = []

    def path(self, kind):
        self.count += 1
        return OUT / "tmp" / ("%s-%d.%s" % (self.tag, self.count, kind))

    def spawn(self, argv):
        """Run argv to completion, between two reference processes when
        scaled; returns (exit code, stdout bytes, stderr bytes, spawn time,
        exit time, peak RSS in KiB, scale), where a measured time times scale
        is the time reported (scale 1 when not scaled)."""
        if not self.scaled:
            return self._run(argv) + (1.0,)
        if not self.references:
            self.reference()
        before = self.references[-1]
        result = self._run(argv)
        scale = 2 * REFERENCE_S / (before + self.reference())
        return result + (scale,)

    def reference(self):
        rc, _, stderr, t0, t1, _ = self._run(REFERENCE)
        if rc != 0:
            raise BenchError("reference process failed: "
                             + _stderr_tail(stderr, 2000))
        self.references.append(t1 - t0)
        return t1 - t0

    def _run(self, argv):
        out_path, err_path = self.path("stdout"), self.path("stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            t_exit = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
        stdout, stderr = out_path.read_bytes(), err_path.read_bytes()
        out_path.unlink()
        err_path.unlink()
        return proc.returncode, stdout, stderr, t_spawn, t_exit, usage.ru_maxrss

    def job(self, mode, spec=None):
        """A job.py process; returns (process info, its JSON report or None).
        A traced job runs with `-X importtime`, for sympy's share of set-up."""
        report = self.path("json")
        argv = [sys.executable] + (["-X", "importtime"] if mode == "trace" else [])
        argv += [str(HERE / "job.py"), mode] + ([str(spec)] if spec else [])
        rc, _, stderr, t0, t1, rss, scale = self.spawn(argv + [str(report)])
        data = None
        if report.exists():
            if rc == 0:
                data = json.loads(report.read_text())
            report.unlink()
        info = {"rc": rc, "t_spawn": t0, "t_exit": t1, "maxrss_kb": rss,
                "scale": scale, "stderr": _stderr_tail(stderr, 2000)}
        if mode == "trace":
            info["import_sympy_s"] = sympy_import_s(stderr)
        return info, data


# measurement loops ----------------------------------------------------------

def probe_setup(runner, samples):
    """One set-up probe: a fresh interpreter that only imports lietau."""
    info, data = runner.job("probe")
    if data is None:
        raise BenchError("set-up probe failed: " + info["stderr"])
    samples.append((data["setup"]["t_imported"] - info["t_spawn"])
                   * info["scale"])


def alternate(modes, deadline, sample):
    """Call sample(mode) for the modes in turn, each time only if a typical
    sample of that mode still fits before the deadline."""
    durations = {m: [] for m in modes}
    for i in itertools.count():
        mode = modes[i % len(modes)]
        took = durations[mode]
        if took and time.monotonic() + statistics.median(took) > deadline:
            return
        t = time.monotonic()
        sample(mode)
        took.append(time.monotonic() - t)


def measure_jobs(workload, inputs, deadline, trace, runner):
    spec = OUT / "tmp" / ("%s.spec.json" % runner.tag)
    spec.write_text(json.dumps({
        "workload": workload, "inputs": inputs,
        "span_file": str(OUT / ("%s.spans.json" % runner.tag))}))
    jobs, setup = [], []

    def sample(mode):
        info, data = runner.job(mode, spec)
        job = dict(info, mode=mode)
        if data is None:
            job["ops"] = [{"op": "job process", "ok": False,
                           "detail": "exit %d: %s" % (info["rc"], info["stderr"])}]
        else:
            job.update(data)
            job["raw_wall_s"] = data["wall_s"]
            job["wall_s"] = data["wall_s"] * info["scale"]
            job["setup_s"] = ((data["setup"]["t_imported"] - info["t_spawn"])
                              * info["scale"])
            job["call_s"] = (data["t_job_end"] - info["t_spawn"]) * info["scale"]
            setup.append(job["setup_s"])
        jobs.append(job)
        probe_setup(runner, setup)

    alternate(["run", "trace"] if trace else ["run"], deadline, sample)
    # the time left over, too short for another job, takes set-up probes
    alternate(["probe"], deadline, lambda _: probe_setup(runner, setup))
    spec.unlink()
    return jobs, setup


def check_cli(call, rc, stdout):
    """Oracle for one CLI call; returns (ok, detail)."""
    if rc != 0:
        return False, "exit code %d" % rc
    import oracles
    chk = call["check"]
    text = stdout.decode()
    kind = chk["kind"]
    if kind == "witt":
        return text == "%d\n" % oracles.witt(chk["k"], chk["n"]), text
    if kind == "hall":
        lines = text.splitlines()
        names = set(chk["names"])
        leaves_ok = all(set(ln.replace("[", ",").replace("]", ",").split(","))
                        - {""} <= names for ln in lines)
        ok = (len(lines) == len(set(lines)) == oracles.witt(chk["k"], chk["n"])
              and leaves_ok)
        return ok, "%d lines" % len(lines)
    if kind == "rank":
        got = json.loads(text)
        return got["rank"] == chk["rank"] and got["torsion"] == [], text
    if kind == "exact":
        return text == chk["stdout"], text
    if kind == "json":
        return json.loads(text) == chk["value"], text[:200]
    if kind == "obstruct":
        got = json.loads(text)
        return (got["vanishes"] == chk["vanishes"]
                and got["grades"] == chk["grades"]), text[:200]
    if kind == "scan":
        got = json.loads(text)
        return (got["scanned"] == chk["scanned"]
                and got["vanishing"] == chk["vanishing"]
                and got["nonvanishing_count"]
                == chk["scanned"] - len(chk["vanishing"])), text[:200]
    if kind == "region":
        return _check_region(chk, text), text[:200]
    if kind == "matrix":
        got = json.loads(text)
        return (got["size"] == chk["size"] and got["symplectic"] is True
                and got["eigen_pm1"] == chk["eigen_pm1"]
                and got["candidates_tested"] == chk["candidates"]
                and (got["invariant_lagrangian"] is not None) == chk["found"]), text[:200]
    raise BenchError("unknown check kind %r" % kind)


def _check_region(chk, text):
    import oracles
    kmax, gmax = chk["kmax"], chk["gmax"]
    cells = [(k, g) for k in range(kmax, 1, -1) for g in range(2, gmax + 1)]
    if chk["fmt"] == "json":
        got = [(c["k"], c["g"], c["lhs"], c["rhs"], c["holds"])
               for c in json.loads(text)]
        return got == [(k, g, oracles.region_lhs(g), oracles.region_rhs(k, g),
                        oracles.region_holds(k, g)) for k, g in cells]
    if chk["fmt"] == "csv":
        rhs, _, holds = text.partition("\n\n")
        rows = [r.split(",")[1:] for r in holds.splitlines()[1:]]
        verdicts = [v.startswith("holds") for row in rows for v in row]
        return (rhs + "\n" == oracles.region_rhs_csv(kmax, gmax)
                and verdicts == [oracles.region_holds(k, g) for k, g in cells])
    lines = text.splitlines()
    width = (len(lines[0]) - len("  k\\g |")) // (gmax - 1)
    got = [ln.split("|")[1][i:i + width].strip()
           for ln in lines[2:2 + kmax - 1] for i in range(0, width * (gmax - 1), width)]
    return got == ["%d%s" % (oracles.region_rhs(k, g),
                             "*" if oracles.region_holds(k, g) else "")
                   for k, g in cells]


def measure_cli(inputs, deadline, trace, runner):
    """Passes over the calls, one call at a time, so the last pass may stop
    part way and every call that fits is measured; a set-up probe follows
    every PROBE_EVERY calls, and set-up probes fill the time left."""
    calls = inputs["calls"]
    n = len(calls)
    passes, setup = [], []
    first_stdout = {}
    made = itertools.count()

    def sample(mode):
        i = next(made)
        j = i % n
        if j == 0:
            passes.append({"mode": mode, "calls": []})
        call = calls[j]
        if mode == "run":
            rc, stdout, stderr, t0, t1, rss, scale = runner.spawn(
                [sys.executable, "-m", "lietau.cli", *call["argv"]])
            report = None
        else:
            report_path = runner.path("json")
            spans = OUT / ("%s.call%d.spans.json" % (runner.tag, j))
            rc, stdout, stderr, t0, t1, rss, scale = runner.spawn(
                [sys.executable, "-X", "importtime", str(HERE / "job.py"),
                 "cli-trace", str(report_path), str(spans), *call["argv"]])
            report = None
            if report_path.exists():
                report = json.loads(report_path.read_text())
                report["setup"] = _setup_split(
                    report["setup"], t0, sympy_import_s(stderr))
                report_path.unlink()
        ok, detail = check_cli(call, rc, stdout)
        # the same call must print the same bytes every time
        if first_stdout.setdefault(j, stdout) != stdout:
            ok, detail = False, "stdout differs from the first pass"
        passes[-1]["calls"].append({
            "argv0": call["argv"][0], "rc": rc, "latency_s": (t1 - t0) * scale,
            "raw_latency_s": t1 - t0,
            "maxrss_kb": rss, "ok": ok, "detail": detail,
            "stderr": _stderr_tail(stderr, 500), "report": report})
        if (i + 1) % PROBE_EVERY == 0:
            probe_setup(runner, setup)

    modes = ["run"] * n + (["trace"] * n if trace else [])
    alternate(modes, deadline, sample)
    alternate(["probe"], deadline, lambda _: probe_setup(runner, setup))
    for p in passes:
        if len(p["calls"]) == n:
            p["wall_s"] = sum(c["latency_s"] for c in p["calls"])
    return passes, setup


# metrics --------------------------------------------------------------------

def _derive_layers(summary, setups, overhead):
    """Per-layer metric values from one traced job's (or pass's) summary."""
    def get(key):
        return summary.get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    out = dict(summary)
    out["intlinalg.lattice_add.useful_ratio"] = ratio(
        get("intlinalg.lattice_add.useful"), get("intlinalg.lattice_add.calls"))
    out["magnus.expand.cache_hit_ratio"] = ratio(
        get("magnus.expand.calls") - get("magnus.expand.misses"),
        get("magnus.expand.calls"))
    for key in ("spawn_s", "import_sympy_s", "import_lietau_s"):
        out["setup." + key] = statistics.median(s[key] for s in setups)
    out["trace.overhead_s"] = overhead
    return out


def _combine(summaries):
    total = {}
    for s in summaries:
        for key, value in s.items():
            if key in MAX_KEYS:
                total[key] = max(total.get(key, 0), value)
            else:
                total[key] = total.get(key, 0) + value
    return total


def _layer_calls(values, layer):
    prefix = layer + "."
    return sum(v for k, v in values.items()
               if k.startswith(prefix) and k.endswith(".calls"))


def trace_metrics(workload, units, samples):
    """Median over traced samples of each per-layer value; raises when a
    required layer recorded no calls."""
    traced = [s for s in samples if s["mode"] == "trace" and s.get("traced")]
    plain = [s["wall_s"] for s in samples if s["mode"] == "run" and "wall_s" in s]
    if not traced or not plain:
        raise BenchError("traced run produced no usable traced/untraced pair")
    overhead = (statistics.median(s["wall_s"] for s in traced)
                - statistics.median(plain))
    derived = [_derive_layers(s["traced"], s["setups"], overhead) for s in traced]
    for layer in REQUIRED_LAYERS[workload]:
        if any(_layer_calls(d, layer) == 0 for d in derived):
            raise BenchError("layer %r recorded zero calls on %s: a traced "
                             "function was renamed or is no longer called"
                             % (layer, workload))
    metrics = {}
    for name, unit in units.items():
        if any(name not in d for d in derived):
            raise BenchError("per-layer metric %r was not measured" % name)
        metrics[name] = {"value": statistics.median(d[name] for d in derived),
                         "unit": unit}
    return metrics


def _setup_split(setup, t_spawn, import_sympy_s):
    """Spawn to the child's first statement, then `import lietau` and the
    part of it spent importing sympy."""
    return {"spawn_s": setup["t_start"] - t_spawn,
            "import_sympy_s": import_sympy_s,
            "import_lietau_s": setup["import_lietau_s"]}


def summarize(workload, samples, setup, trace, bench):
    """Ops counts, metrics and extra facts for one run."""
    if workload == "cli_queries":
        ops = [{"op": c["argv0"], "ok": c["ok"], "detail": c["detail"]}
               for p in samples for c in p["calls"]]
        plain = [p for p in samples if p["mode"] == "run" and "wall_s" in p]
        by_call = {}
        for p in samples:
            if p["mode"] == "run":
                for j, c in enumerate(p["calls"]):
                    by_call.setdefault(j, []).append(c)
        latencies = [c["latency_s"] for cs in by_call.values() for c in cs]
        # a typical pass: each call at its median over the run, and the
        # largest of the calls' median peak memory
        wall = sum(statistics.median(c["latency_s"] for c in cs)
                   for cs in by_call.values())
        rss = max((statistics.median(c["maxrss_kb"] for c in cs)
                   for cs in by_call.values()), default=None)
        for p in samples:
            reports = [c["report"] for c in p["calls"]]
            if p["mode"] == "trace" and "wall_s" in p and all(reports):
                p["traced"] = _combine([r["trace"] for r in reports])
                p["setups"] = [r["setup"] for r in reports]
    else:
        ops = [op for j in samples for op in j["ops"]]
        plain = [j for j in samples if j["mode"] == "run" and "wall_s" in j]
        latencies = [j["call_s"] for j in plain]
        wall = statistics.median(j["wall_s"] for j in plain) if plain else None
        rss = statistics.median(j["maxrss_kb"] for j in plain) if plain else None
        for j in samples:
            if j["mode"] == "trace" and "trace" in j:
                j["traced"] = j["trace"]
                j["setups"] = [_setup_split(j["setup"], j["t_spawn"],
                                            j["import_sympy_s"])]
    failed = sum(1 for op in ops if not op["ok"])
    facts = {"ops": len(ops), "failed": failed,
             "failed_ratio": failed / len(ops) if ops else 1.0,
             "setup_samples": len(setup), "wall_samples": len(plain),
             "call_samples": len(latencies)}
    if trace:
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        metrics = trace_metrics(workload, units, samples)
    else:
        if not plain or not latencies:
            raise BenchError("no successful measured process")
        _, p50, p75 = quartiles(latencies)
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "peak_rss_mb": rss / 1024,
            "cli_call_p50_s": p50,
            # at least ten of a run's 40 or more CLI calls lie beyond its p75
            "cli_call_p75_s": p75,
        }
        facts["samples_beyond_p75"] = sum(
            1 for x in latencies if x > values["cli_call_p75_s"])
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}
    return ops, facts, metrics


def load_bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, seed, seconds, trace, sizes=None):
    """Measure one workload; returns the result object printed last."""
    if not (SRC / "lietau" / "__init__.py").is_file():
        raise BenchError("no lietau sources at %s" % SRC)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import gen
    bench = load_bench()
    why = {w["name"]: w["why"] for w in bench["workloads"]}[workload]
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (workload, seed, int(trace))
    t0 = time.monotonic()
    inputs = gen.make(workload, seed, sizes or gen.FULL)
    gen_s = time.monotonic() - t0
    runner = Runner(tag, scaled=not trace)
    deadline = time.monotonic() + seconds
    if workload == "cli_queries":
        samples, setup = measure_cli(inputs, deadline, trace, runner)
    else:
        samples, setup = measure_jobs(workload, inputs, deadline, trace, runner)
    ops, facts, metrics = summarize(workload, samples, setup, trace, bench)
    facts["generate_s"] = gen_s
    if runner.references:
        facts["reference_s"] = statistics.median(runner.references)
        facts["reference_samples"] = len(runner.references)
    facts["measured_s"] = time.monotonic() - (deadline - seconds)
    record = {"workload": workload, "why": why, "seed": seed,
              "seconds": seconds, "trace": bool(trace),
              "environment": environment(), "facts": facts,
              "metrics": metrics, "setup_samples": setup,
              "reference_samples": runner.references,
              "failed_ops": [op for op in ops if not op["ok"]],
              "samples": _strip(samples)}
    (OUT / (tag + ".json")).write_text(json.dumps(record, indent=1))
    if not any((OUT / "tmp").iterdir()):
        (OUT / "tmp").rmdir()
    env = record["environment"]
    print("%s seed=%d trace=%d  python %s, sympy %s, nproc %d, rev %s"
          % (workload, seed, trace, env["python"], env["sympy"], env["nproc"],
             env["git_rev"][:12]))
    print("  why: " + why)
    print("  ops %d, failed %d, failed_ratio %g; samples: setup %d, wall %d, "
          "calls %d" % (facts["ops"], facts["failed"], facts["failed_ratio"],
                        facts["setup_samples"], facts["wall_samples"],
                        facts["call_samples"]))
    if runner.references:
        print("  reference process: median %.4f s of %d; times are scaled to "
              "%g s" % (facts["reference_s"], facts["reference_samples"],
                        REFERENCE_S))
    for op in record["failed_ops"][:10]:
        print("  FAILED %s: %s" % (op["op"], op["detail"][:300]))
    for name, m in metrics.items():
        print("  %-40s %.6g %s" % (name, m["value"], m["unit"]))
    return {"correct": facts["failed"] == 0, "attempted": facts["ops"],
            "failed": facts["failed"], "metrics": metrics}


def _strip(samples):
    """Samples without the bulky per-call trace reports."""
    out = []
    for s in samples:
        s = dict(s)
        if "calls" in s:
            s["calls"] = [{k: v for k, v in c.items() if k != "report"}
                          for c in s["calls"]]
        out.append(s)
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in load_bench()["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # a terminated benchmark still kills and reaps its current child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as e:
        sys.stderr.write("bench: %s\n" % e)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
