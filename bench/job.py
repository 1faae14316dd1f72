"""One measured process: set up lietau, run one workload job, check it.

Usage (started by run.py, never by hand):

    job.py probe OUT                     set up only, for setup_s
    job.py run|trace SPEC OUT            one ideal_ranks or johnson_braid job
    job.py cli-trace OUT SPANS ARGV...   one traced lietau CLI call

The first statement takes the clock, so `setup` covers interpreter start and
`import lietau`.  Only the job itself is timed; the oracle checks run after
it and count toward the result's failed ops, never toward its time.
"""

import time

T_START = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def _import_lietau():
    """Set-up times; sympy's share of the import is read by run.py from the
    `-X importtime` output of a traced process."""
    setup = {"t_start": T_START}
    t = time.monotonic()
    import lietau  # noqa: F401
    setup["t_imported"] = time.monotonic()
    setup["import_lietau_s"] = setup["t_imported"] - t
    return setup


def _lie(terms, k):
    from lietau.hall import tree_from_json
    from lietau.lie import LieElement
    return LieElement(k, [(tree_from_json(t), c) for c, t in terms])


class Ops:
    """Oracle verdicts: one entry per checked result."""

    def __init__(self):
        self.items = []

    def check(self, name, ok, detail=""):
        self.items.append({"op": name, "ok": bool(ok), "detail": str(detail)})


# ideal_ranks ---------------------------------------------------------------

def prepare_ideal_ranks(inp):
    from lietau import SurfaceModel, word_from_str
    models = {g: SurfaceModel(g) for g in {c["genus"] for c in inp["cells"]} | {2}}
    cells = []
    for c in inp["cells"]:
        reads = []
        for r in c["reads"]:
            q, m = _lie(r["q"], c["k"]), _lie(r["m"], c["k"])
            reads.append({"q": q, "m": m, "qm": q + m,
                          "expect_q": (_lie(r["expect_q"], c["k"])
                                       if "expect_q" in r else None)})
        cells.append(dict(c, model=models[c["genus"]], reads=reads))
    words = [dict(w, word=word_from_str(models[2].alphabet, w["word"]),
                  expect=_lie(w["expect"], w["k"]))
             for w in inp["surface_words"]]
    return {"cells": cells, "words": words, "model2": models[2],
            "cap": inp["surface_cap"]}


def job_ideal_ranks(p):
    from lietau import surface_class
    out = {"cells": [], "words": []}
    for c in p["cells"]:
        model = c["model"]
        ideal = (model.symplectic_ideal() if c["ring"] == "surface"
                 else model.handlebody_ideal())
        rank = ideal.quotient_rank(c["k"])
        torsion = ideal.level(c["k"]).torsion
        out["cells"].append({"ideal": ideal, "rank": rank, "torsion": torsion})
    for c, res in zip(p["cells"], out["cells"]):
        ideal = res["ideal"]
        res["reads"] = [(ideal.reduce(r["q"]), ideal.reduce(r["qm"]),
                         ideal.reduce(r["m"]), ideal.solve_in_span(r["m"]))
                        for r in c["reads"]]
    for w in p["words"]:
        out["words"].append(surface_class(p["model2"], w["word"], p["cap"]))
    return out


def check_ideal_ranks(p, out, ops):
    for c, res in zip(p["cells"], out["cells"]):
        cell = "%s g=%d k=%d" % (c["ring"], c["genus"], c["k"])
        ops.check("rank " + cell, res["rank"] == c["expect_rank"]
                  and res["torsion"] == (),
                  "rank %d torsion %r, expected %d and none"
                  % (res["rank"], res["torsion"], c["expect_rank"]))
        span = {lift: e for e, lift in res["ideal"].span(c["k"])}
        for r, (nq, nqm, nm, combo) in zip(c["reads"], res["reads"]):
            ok = nqm.vector == nq.vector and nm.is_zero()
            if r["expect_q"] is not None:
                ok = ok and nq.vector == r["expect_q"]
            ops.check("reduce " + cell, ok)
            total = None
            if combo is not None:
                total = r["m"].scale(0)
                for coeff, lift in combo:
                    total = total + span[lift].scale(coeff)
            ops.check("solve_in_span " + cell, total == r["m"])
    for w, got in zip(p["words"], out["words"]):
        ok = got is not None and got[0] == w["k"] and got[1].vector == w["expect"]
        ops.check("surface_class k=%d" % w["k"], ok)


# johnson_braid -------------------------------------------------------------

def prepare_johnson_braid(inp):
    import gen
    from lietau import (GroupEndomorphism, Lagrangian, MappingClassData,
                        SurfaceModel, boundary_twist)
    model = SurfaceModel(3)
    twist = boundary_twist(model)
    if inp["twist_sign"] < 0:
        r0 = model.relator
        twist = MappingClassData(model, GroupEndomorphism(
            model.alphabet, [~r0 * model.alphabet.letter(i) * r0
                             for i in range(len(model.alphabet))]))
    return dict(inp, model=model, maps=gen.push_maps(model), twist=twist,
                lagrangians=[Lagrangian(3, rows) for rows in inp["lagrangians"]])


def job_johnson_braid(p):
    import gen
    from lietau import (johnson_depth, jprime_depth, robustness_scan, tau,
                        tau1)
    ds = [gen.iterated_commutator(p["maps"], pat) for pat in p["patterns"]]
    composite = ds[0].compose(ds[1])
    tau_twist = tau(p["twist"], p["k"])
    res = []
    for f in ds:
        res.append({
            "f": f,
            "depth": johnson_depth(f, p["depth_cap"]),
            "jprime": jprime_depth(f, p["jprime_cap"]),
            "tau": tau(f, p["k"]),
            "tau1": tau1(f, p["k"]),
            "scan": robustness_scan(f, p["k"], lagrangians=p["lagrangians"],
                                    height=p["height"]),
            "tau_twisted": tau(f.compose(p["twist"]), p["k"]),
        })
    return {"maps": res, "composite": composite, "tau_twist": tau_twist}


def check_johnson_braid(p, out, ops):
    from lietau import TauValue, point_push_tau, push_tuple_of
    model, k = p["model"], p["k"]
    # the composite acts trivially on homology: each image has the exponent
    # sums of its generator
    ok = True
    for j, img in enumerate(out["composite"].endo.images):
        sums = [0] * len(model.alphabet)
        for x in img.letters:
            sums[abs(x) - 1] += 1 if x > 0 else -1
        ok = ok and sums == [int(i == j) for i in range(len(sums))]
    ops.check("compose homology", ok)
    for pat, r in zip(p["patterns"], out["maps"]):
        name = "[[%s,%s],%s]" % tuple(pat)
        ops.check("depth " + name, r["depth"] == p["expect_depth"], r["depth"])
        # tau_k is nonzero, so the closed-surface depth is k as well
        ops.check("jprime " + name, r["jprime"] == k and not r["tau"].is_zero(),
                  r["jprime"])
        lam = push_tuple_of(r["f"])
        ops.check("point-push " + name, lam is not None
                  and point_push_tau(model, lam, k) == r["tau"])
        reduced = TauValue(model, k, False, r["tau1"].terms).renormalize()
        ops.check("tau1 reduces to tau " + name, r["tau1"].free and reduced == r["tau"])
        ops.check("tau additivity " + name,
                  r["tau_twisted"] == r["tau"] + out["tau_twist"])
        scan = r["scan"]
        ops.check("scan " + name, scan.scanned == p["expect_scanned"]
                  and len(scan.vanishing) <= scan.scanned, scan.scanned)


JOBS = {
    "ideal_ranks": (prepare_ideal_ranks, job_ideal_ranks, check_ideal_ranks),
    "johnson_braid": (prepare_johnson_braid, job_johnson_braid,
                      check_johnson_braid),
}


def run_job(mode, spec_path, out_path):
    traced = mode == "trace"
    setup = _import_lietau()
    with open(spec_path) as fh:
        spec = json.load(fh)
    prepare, job, check = JOBS[spec["workload"]]
    prepared = prepare(spec["inputs"])
    tracer = None
    if traced:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    t0 = time.monotonic()
    out = job(prepared)
    t1 = time.monotonic()
    result = {"setup": setup, "t_job_start": t0, "t_job_end": t1,
              "wall_s": t1 - t0}
    if tracer is not None:  # before the checks, which call lietau too
        result["trace"] = tracer.finish(spec["span_file"])
    ops = Ops()
    try:
        check(prepared, out, ops)
    except Exception as e:  # a crashing oracle is a failed op, not a lost run
        ops.check("oracle crashed", False, repr(e))
    result["ops"] = ops.items
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    os._exit(0)  # skip freeing the job's heap: it is not measured


def run_cli_traced(out_path, span_path, argv):
    """A CLI call as `python -m lietau.cli` makes it, with the tracer on."""
    setup = _import_lietau()
    import lietau.cli
    import spans
    tracer = spans.Tracer()
    tracer.install()
    code = lietau.cli.main(argv)
    sys.stdout.flush()
    with open(out_path, "w") as fh:
        json.dump({"setup": setup, "trace": tracer.finish(span_path)}, fh)
    os._exit(code)


def main():
    if sys.argv[1] == "probe":
        setup = _import_lietau()
        with open(sys.argv[2], "w") as fh:
            json.dump({"setup": setup}, fh)
        return
    if sys.argv[1] == "cli-trace":
        run_cli_traced(sys.argv[2], sys.argv[3], sys.argv[4:])
    run_job(sys.argv[1], sys.argv[2], sys.argv[3])


if __name__ == "__main__":
    main()
