"""Seeded inputs for the three workloads.

Generation runs in the benchmark process before anything is timed; the timed
processes receive only the JSON produced here.  Every seed gives the same
amount of work: seeds choose which elements, words, maps and matrices are
used, never how large they are.
"""

import random

from lietau import (GroupEndomorphism, Lagrangian, MappingClassData,
                    SurfaceModel, boundary_twist, braid_automorphism, bracket,
                    commutator, hall_basis, invariant_lagrangian_report,
                    johnson_depth, jprime_depth, lift_word, point_push_tau,
                    push_tuple_of, tau, tau1, word_from_str, word_to_str)
from lietau.hall import tree_to_json
from lietau.lie import LieElement
from lietau.obstruction import grade_decompose, robustness_scan
from lietau import serialize

import oracles

# Elementary genus-3 pushes and their inverses, as push tuples for
# braid_automorphism.  The inverses are checked exactly by `push_maps`.
PUSHES = {
    "A12": ("b2^-1", "b1^-1 b2^-1", ""),
    "A12i": ("b1^-1 b2 b1", "b2 b1", ""),
    "A23": ("", "b3^-1", "b2^-1 b3^-1"),
    "A23i": ("", "b2^-1 b3 b2", "b3 b2"),
}
INVERSE = {"A12": "A12i", "A12i": "A12", "A23": "A23i", "A23i": "A23"}

# The two [[X, Y], X] commutators of the job.  They are fixed, not seeded:
# every other choice of two same-sign patterns changes the composite's
# length (4.3M to 10.9M letters here against 5658418) or its longest image,
# so seeds would not do the same work.  Seeds choose the boundary twist's
# sign and two extra Lagrangians for the scan instead.
PATTERNS = (("A23", "A12", "A23"), ("A12", "A23", "A12"))

FULL = {
    "ideal_ranks": {
        # (ring, genus, weight); symplectic g=3, k=6 takes minutes and is out
        "cells": [("surface", 2, 6), ("surface", 3, 5),
                  ("handlebody", 2, 6), ("handlebody", 3, 6)],
        "reads_per_cell": 6,
        "surface_words": 8,
        "surface_weights": (2, 3, 4),
        "surface_cap": 6,
    },
    "johnson_braid": {
        "patterns": PATTERNS,
        "depth_cap": 6, "jprime_cap": 5, "k": 3, "height": 2,
    },
    "cli_queries": {"calls": "all"},
}

# Smoke-test sizes: genus 2 and weights <= 4 for the ideals, two short
# genus-3 commutators, one CLI call.
TINY = {
    "ideal_ranks": {
        "cells": [("surface", 2, 4), ("handlebody", 2, 4)],
        "reads_per_cell": 2,
        "surface_words": 2,
        "surface_weights": (2, 3),
        "surface_cap": 4,
    },
    "johnson_braid": {
        "patterns": (("A23", "A12", "A12"), ("A23", "A12i", "A12")),
        "depth_cap": 4, "jprime_cap": 3, "k": 3, "height": 1,
    },
    "cli_queries": {"calls": "one"},
}


def terms_json(e):
    return [[c, tree_to_json(t)] for t, c in e.sorted_terms()]


def _random_element(rng, basis, nterms):
    return LieElement(basis[0].weight,
                      [(t, rng.choice((-3, -2, -1, 1, 2, 3)))
                       for t in rng.sample(basis, nterms)])


def _ideal_member(rng, model, ring, k):
    """A sum of two multiples of [[gen, x_i], x_j].. of weight k."""
    n = len(model.alphabet)
    out = LieElement.zero(k)
    while out.is_zero():
        for _ in range(2):
            if ring == "surface":
                e = model.symplectic_class()
            else:
                e = LieElement.generator(rng.randrange(model.genus))
            while e.weight < k:
                nxt = bracket(e, LieElement.generator(rng.randrange(n)))
                if not nxt.is_zero():
                    e = nxt
            out = out + e.scale(rng.choice((-2, -1, 1, 2)))
    return out


def ideal_ranks(rng, p):
    cells = []
    for ring, g, k in p["cells"]:
        model = SurfaceModel(g)
        basis = list(hall_basis(k, 2 * g))
        reads = []
        for _ in range(p["reads_per_cell"]):
            q = _random_element(rng, basis, 4)
            m = _ideal_member(rng, model, ring, k)
            read = {"q": terms_json(q), "m": terms_json(m)}
            if ring == "handlebody":
                # the a-leaf trees span the handlebody ideal, so the normal
                # form keeps exactly the trees on b-letters
                read["expect_q"] = terms_json(LieElement(k, {
                    t: c for t, c in q.terms.items() if min(t.mdeg) >= g}))
            reads.append(read)
        expect = (oracles.labute(k, g) if ring == "surface"
                  else oracles.witt(k, g))
        cells.append({"ring": ring, "genus": g, "k": k, "reads": reads,
                      "expect_rank": expect})
    # genus-2 words lift(t) * u r0^e u^-1: the relator dies in the closed
    # surface group, so the class must be the normal form of t at weight k
    model = SurfaceModel(2)
    ideal = model.symplectic_ideal()
    ab = model.alphabet
    words = []
    while len(words) < p["surface_words"]:
        k = p["surface_weights"][len(words) % len(p["surface_weights"])]
        t = rng.choice(hall_basis(k, 4))
        nf = ideal.reduce(LieElement.from_tree(t)).vector
        if nf.is_zero():
            continue
        u = word_from_str(ab, " ".join(rng.choice(ab.names) for _ in range(2)))
        r = model.relator ** rng.choice((-1, 1))
        w = lift_word(t, ab) * u * r * ~u
        words.append({"word": word_to_str(w), "k": k, "expect": terms_json(nf)})
    return {"cells": cells, "surface_words": words,
            "surface_cap": p["surface_cap"]}


def push_maps(model):
    """The four elementary pushes, checked to be exact inverse pairs."""
    ab = model.alphabet
    maps = {name: braid_automorphism(
                model, [word_from_str(ab, s) for s in tup])
            for name, tup in PUSHES.items()}
    ident = GroupEndomorphism.identity(ab)
    for name, inv in INVERSE.items():
        if maps[name].compose(maps[inv]).endo != ident:
            raise AssertionError("%s and %s are not inverse" % (name, inv))
    return maps


def iterated_commutator(maps, pattern):
    """[[X, Y], Z] as a left-to-right chain of compositions."""
    x, y, z = pattern

    def chain(names):
        f = maps[names[0]]
        for nm in names[1:]:
            f = f.compose(maps[nm])
        return f

    c = chain([x, y, INVERSE[x], INVERSE[y]])
    c_inv = chain([y, x, INVERSE[y], INVERSE[x]])
    return c.compose(maps[z]).compose(c_inv).compose(maps[INVERSE[z]])


def johnson_braid(rng, p):
    model = SurfaceModel(3)
    maps = push_maps(model)
    patterns = [list(pat) for pat in p["patterns"]]
    for pat in patterns:
        f = iterated_commutator(maps, pat)
        lam = push_tuple_of(f)
        # depth >= 3 holds for any double commutator of Torelli pushes; the
        # point-push value is tau_3, so nonzero means depth exactly 3
        if lam is None or point_push_tau(model, lam, 3).is_zero():
            raise AssertionError("pattern %r is not of depth 3" % (pat,))
    # graphs of S with three nonzero diagonal entries lie outside the scan
    # family, whose S have at most two nonzero entries
    extra = []
    while len(extra) < 2:
        s = _symmetric(rng, 3, -2, 2)
        for i in range(3):
            s[i][i] = rng.choice((-3, 3))
        rows = [[int(i == j) for j in range(3)] + s[i] for i in range(3)]
        if rows not in extra:
            extra.append(rows)
    return {"pushes": {nm: list(t) for nm, t in PUSHES.items()},
            "patterns": patterns, "twist_sign": rng.choice((-1, 1)),
            "lagrangians": extra, "depth_cap": p["depth_cap"],
            "jprime_cap": p["jprime_cap"], "k": p["k"], "height": p["height"],
            "expect_depth": 3,
            "expect_scanned": oracles.scan_family_size(3, p["height"]) + len(extra)}


def _handle_twist(model, i, e):
    """Twist about the curve cutting off handle i: conjugate a_i, b_i by
    [a_i, b_i]^e.  It fixes the relator and lies three deep."""
    a, b = model.a(i), model.b(i)
    c = commutator(a, b) ** e
    names = model.alphabet.names
    return GroupEndomorphism.from_dict(model.alphabet, {
        names[i - 1]: c * a * ~c, names[model.genus + i - 1]: c * b * ~c})


def genus2_map(rng):
    """Handle twists of both handles, then 0 to 2 boundary twists."""
    model = SurfaceModel(2)
    endo = _handle_twist(model, 1, rng.choice((-1, 1, 2)))
    endo = endo.compose(_handle_twist(model, 2, rng.choice((-1, 1, 2))))
    for _ in range(rng.choice((0, 1, 2))):
        endo = endo.compose(boundary_twist(model).endo)
    f = MappingClassData(model, endo)
    obj = {"genus": 2, "images": {nm: word_to_str(w) for nm, w in
                                  zip(model.alphabet.names, endo.images)}}
    return f, obj


def _symmetric(rng, g, lo=-1, hi=1):
    s = [[0] * g for _ in range(g)]
    for i in range(g):
        for j in range(i, g):
            s[i][j] = s[j][i] = rng.randint(lo, hi)
    return s


def lagrangian_graph(rng, g):
    """span{alpha_i + sum_j S_ij beta_j} for a symmetric S: always Lagrangian."""
    s = _symmetric(rng, g, -2, 2)
    return [[int(i == j) for j in range(g)] + s[i] for i in range(g)]


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def symplectic_matrix(rng, g, factors=4):
    """A product of block transvections [[I,S],[0,I]], [[I,0],[S,I]] and
    [[A,0],[0,A^-T]] with A = I + E_ij."""
    n = 2 * g
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(factors):
        b = [[int(i == j) for j in range(n)] for i in range(n)]
        kind = rng.choice("ULD")
        if kind == "D":
            i, j = rng.sample(range(g), 2)
            e = rng.choice((-1, 1))
            b[i][j] = e
            b[g + j][g + i] = -e
        else:
            s = _symmetric(rng, g)
            for i in range(g):
                for j in range(g):
                    if kind == "U":
                        b[i][g + j] = s[i][j]
                    else:
                        b[g + i][j] = s[i][j]
        m = _matmul(m, b)
    if not oracles.is_symplectic(m):
        raise AssertionError("generated matrix is not symplectic")
    return m


def _call(argv, **check):
    return {"argv": argv, "check": check}


def cli_queries(rng, p):
    """About sixteen cold CLI calls over all nine subcommands.

    Every call passes --k (and --cap where it applies) so nothing builds an
    ideal level above weight 6; expected values come from closed forms or,
    for maps and matrices, from the library in this process.
    """
    kw, gw = rng.choice(((6, 3), (7, 2), (5, 4), (4, 5)))
    calls = [_call(["witt", str(kw), str(gw)], kind="witt", k=kw, n=gw)]
    if p["calls"] == "one":
        return {"calls": calls}
    names = rng.sample(["x", "y", "z", "u", "v", "w"], 3)
    calls.append(_call(["hall", "--k", "5", "--alphabet", ",".join(names)],
                       kind="hall", k=5, n=3, names=names))
    calls.append(_call(["hall", "--k", "4", "--genus", "2"],
                       kind="hall", k=4, n=4, names=["a1", "a2", "b1", "b2"]))
    for ring, g, k in (("surface", 2, 5), ("handlebody", 3, 4),
                       ("free", rng.choice((2, 3)), rng.choice((5, 6)))):
        expect = {"surface": oracles.labute(k, g), "handlebody": oracles.witt(k, g),
                  "free": oracles.witt(k, 2 * g)}[ring]
        calls.append(_call(["rank", "--k", str(k), "--genus", str(g),
                            "--ring", ring], kind="rank", rank=expect))
    f, fobj = genus2_map(rng)
    fjson = serialize.dumps(fobj)
    cap = 5
    calls.append(_call(["depth", "--map", fjson, "--cap", str(cap)], kind="exact",
                       stdout="johnson = %d, jprime = %d\n" % (
                           johnson_depth(f, cap), jprime_depth(f, cap))))
    value = tau(f, 3)
    calls.append(_call(["tau", "--k", "3", "--map", fjson], kind="json",
                       value=serialize.tau_json(value)))
    calls.append(_call(["tau", "--k", "3", "--map", fjson, "--free"], kind="json",
                       value=serialize.tau_json(tau1(f, 3))))
    lag = Lagrangian(2, lagrangian_graph(rng, 2))
    gd = grade_decompose(value, lag)
    calls.append(_call(["obstruct", "--k", "3", "--map", fjson, "--lagrangian",
                        serialize.dumps(serialize.lagrangian_json(lag))],
                       kind="obstruct", vanishes=gd.component(0).is_zero(),
                       grades=gd.grades()))
    scan = robustness_scan(f, 3, height=1)
    calls.append(_call(["scan", "--k", "3", "--map", fjson, "--height", "1"],
                       kind="scan", scanned=oracles.scan_family_size(2, 1),
                       vanishing=[serialize.lagrangian_json(x)
                                  for x in scan.vanishing]))
    for fmt in ("csv", "json", "table"):
        calls.append(_call(["region", "--kmax", "8", "--gmax", "8",
                            "--format", fmt], kind="region", fmt=fmt,
                           kmax=8, gmax=8))
    for g in (2, 3):
        mat = symplectic_matrix(rng, g)
        report = invariant_lagrangian_report(mat, 64)
        calls.append(_call(["matrix-check", "--matrix", serialize.dumps(mat),
                            "--bound", "64"], kind="matrix", size=2 * g,
                           eigen_pm1=oracles.eigen_pm1(mat),
                           candidates=report.candidates_tested,
                           found=report.found is not None))
    return {"calls": calls}


GENERATORS = {"ideal_ranks": ideal_ranks, "johnson_braid": johnson_braid,
              "cli_queries": cli_queries}


def make(workload, seed, sizes=FULL):
    return GENERATORS[workload](random.Random(seed), sizes[workload])
