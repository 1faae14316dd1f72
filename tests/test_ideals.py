import gc
import json
import os
import random
import subprocess
import sys
import threading
from math import comb
from pathlib import Path

import pytest

from liegen import random_like
from lietau import SurfaceModel
from lietau.hall import hall_basis, mobius, tree_from_str, witt
from lietau.ideals import GradedIdeal
from lietau.intlinalg import IntLattice, smith_divisors
from lietau.lie import LieElement, bracket
from lietau.magnus import lie_class_at
from lietau.words import Alphabet, Word, commutator


def test_symplectic_span_weight_two(model_of):
    m = model_of(2)
    ideal = m.symplectic_ideal()
    span = ideal.span(2)
    assert len(span) == 1
    vec, lift = span[0]
    assert vec == m.symplectic_class()
    assert lift == m.relator


def test_handlebody_span_weight_one(model_of):
    for g in (1, 2, 3):
        m = model_of(g)
        ideal = m.handlebody_ideal()
        assert ideal.level(1).rank == g
        lifts = [lift for _, lift in ideal.span(1)]
        assert lifts == [m.a(i + 1) for i in range(g)]


def test_span_below_generator_weight_empty(model_of):
    ideal = model_of(2).symplectic_ideal()
    assert ideal.level(1).rank == 0
    assert ideal.span(1) == []


def test_quotient_reduce_kills_generator(model_of):
    m = model_of(2)
    ideal = m.symplectic_ideal()
    q = ideal.reduce(m.symplectic_class())
    assert q.is_zero()
    assert ideal.level(2).torsion == ()


def test_surface_rank_weight_two(model_of):
    for g in (1, 2, 3):
        ideal = model_of(g).symplectic_ideal()
        expected = comb(2 * g, 2) - 1 if g >= 1 else 0
        if g == 1:
            expected = 0
        assert ideal.quotient_rank(2) == expected


def test_handlebody_quotient_is_free_on_b(model_of):
    for g in (1, 2, 3):
        ideal = model_of(g).handlebody_ideal()
        for k in range(1, 6):
            assert ideal.quotient_rank(k) == witt(k, g)
            assert ideal.level(k).torsion == ()


def test_reduce_constant_on_cosets(model_of):
    m = model_of(2)
    ideal = m.symplectic_ideal()
    rng = random.Random(31)
    for k in (2, 3, 4):
        e = random_like(k, 4, rng)
        base = ideal.reduce(e)
        for vec, _ in ideal.span(k)[:3]:
            assert ideal.reduce(e + vec) == base
            assert ideal.reduce(e + vec.scale(-2)) == base


def test_solve_in_span_reconstructs(model_of):
    m = model_of(2)
    ideal = m.symplectic_ideal()
    rng = random.Random(5)
    span3 = ideal.span(3)
    target = LieElement.zero(3)
    coeffs = {}
    for i, (vec, _) in enumerate(span3):
        c = rng.randint(-2, 2)
        coeffs[i] = c
        target = target + vec.scale(c)
    combo = ideal.solve_in_span(target)
    assert combo is not None
    rebuilt = LieElement.zero(3)
    for c, lift in combo:
        rebuilt = rebuilt + lie_class_at(lift, 3).scale(c)
    assert rebuilt == target


def test_solve_in_span_is_none_off_the_span(model_of):
    # [b1,a1] shares omega's block but is no integer multiple of omega, and
    # [a2,a1] lies in a block the weight-2 span does not meet
    m = model_of(2)
    ideal = m.symplectic_ideal()
    for s in ("[b1,a1]", "[a2,a1]"):
        e = LieElement.from_tree(tree_from_str(s, m.alphabet))
        assert ideal.solve_in_span(e) is None
    omega = m.symplectic_class()
    assert ideal.solve_in_span(omega) == [(1, m.relator)]
    assert ideal.solve_in_span(omega.scale(2)) == [(2, m.relator)]


def test_span_is_bracket_closed(model_of):
    m = model_of(2)
    ideal = m.symplectic_ideal()
    lv3 = ideal.level(3)
    for vec, _ in ideal.span(2):
        for i in range(4):
            b = bracket(vec, LieElement.generator(i))
            if b.is_zero():
                continue
            assert ideal.reduce(b).is_zero()


def test_lift_leading_terms(model_of):
    for g, kmax in ((1, 5), (2, 5), (3, 4)):
        m = model_of(g)
        for ideal in (m.symplectic_ideal(), m.handlebody_ideal()):
            for k in range(1, kmax + 1):
                for vec, lift in ideal.span(k):
                    assert lie_class_at(lift, k) == vec


def built_lifts(ideal, k):
    return sum(isinstance(lift, Word) for lift in ideal.level(k).lifts)


def test_ranks_and_normal_forms_build_no_lift():
    m = SurfaceModel(2)
    rng = random.Random(3)
    for ideal in (m.symplectic_ideal(), m.handlebody_ideal()):
        for k in range(1, 6):
            ideal.quotient_rank(k)
            ideal.level(k).torsion
            ideal.reduce(random_like(k, 4, rng))
        # only the generators' own lifts are words
        assert [built_lifts(ideal, k) for k in range(1, 6)] == [
            sum(e.weight == k for e, _ in ideal.generators) for k in range(1, 6)]


def test_solve_in_span_builds_only_its_lifts():
    ideal = SurfaceModel(2).symplectic_ideal()
    vecs = ideal.level(4).vectors
    combo = ideal.solve_in_span(vecs[3] + vecs[7].scale(-2))
    assert [c for c, _ in combo] == [1, -2]
    assert built_lifts(ideal, 4) == 2
    assert built_lifts(ideal, 3) <= 2
    assert [lift for _, lift in combo] == [ideal.span(4)[3][1], ideal.span(4)[7][1]]


def test_blocks_are_the_grading_classes(model_of):
    # handlebody generators are letters, so its blocks are multidegrees; the
    # symplectic class sums [a_i, b_i], so its blocks are the torus weights
    # (count of a_i minus count of b_i, for each i)
    g = 2
    m = model_of(g)

    def torus(t):
        w = [0] * g
        for i in t.mdeg:
            w[i % g] += 1 if i < g else -1
        return tuple(w)

    for ideal, cls in ((m.handlebody_ideal(), lambda t: t.mdeg),
                       (m.symplectic_ideal(), torus)):
        for k in range(1, 6):
            blocks = ideal.level(k).blocks.values()
            classes = [{cls(t) for t in trees} for trees in blocks]
            assert all(len(c) == 1 for c in classes)
            assert len(set().union(*classes)) == len(classes)


def test_tracking_on_demand_equals_tracking_at_build():
    # track every candidate of the build as it is inserted, kept or not,
    # tagged by the index it would get if kept, including the candidates
    # the build skips because their block's lattice is already Z^N; the
    # kept vectors and lift recipes must be the build's, and the lattices
    # solve_in_span builds from the kept vectors that changed each block
    # must have the same rows and combos (fresh models, so that no lift
    # recipe has been replaced by its word yet)
    for g, kmax in ((1, 5), (2, 5), (3, 5)):
        m = SurfaceModel(g)
        for ideal in (m.symplectic_ideal(), m.handlebody_ideal()):
            leaves = [LieElement.generator(i) for i in range(ideal.n)]
            for k in range(1, kmax + 1):
                lv = ideal.level(k)
                cands = [(e, lift) for e, lift in ideal.generators
                         if e.weight == k]
                if k > 1:
                    cands += [(bracket(v, leaf), (tag, i)) for tag, v
                              in enumerate(ideal.level(k - 1).vectors)
                              for i, leaf in enumerate(leaves)]
                eager, kept = {}, []
                for e, lift in cands:
                    changed = False
                    for key, vec in ideal._split(lv, e).items():
                        lat = eager.setdefault(
                            key, IntLattice(len(lv.blocks[key]), track=True))
                        changed |= lat.add(vec, len(kept))
                    if changed:
                        kept.append((e, lift))
                assert [e for e, _ in kept] == lv.vectors
                assert [lift for _, lift in kept] == lv.lifts
                for key, lat in eager.items():
                    ondemand = ideal._tracked(lv, key)
                    assert ondemand.rows == lat.rows == lv.lattices[key].rows
                    assert ondemand.combos == lat.combos


def test_kept_vectors_hold_compact_term_dicts():
    # a candidate's accumulator keeps the table slots of terms that
    # cancelled, and a dict() copy may be presized larger than needed
    # (CPython 3.11 gives 21 entries 64 slots, not 32); a kept vector must
    # be no larger than a dict grown entry by entry from its items (fresh
    # models, so every vector here was made by this build)
    for g, kmax in ((2, 6), (3, 5)):
        m = SurfaceModel(g)
        for ideal in (m.symplectic_ideal(), m.handlebody_ideal()):
            for k in range(1, kmax + 1):
                for e in ideal.level(k).vectors:
                    assert sys.getsizeof(e.terms) == sys.getsizeof(
                        {t: c for t, c in e.terms.items()})


def test_full_rank_block_with_non_unit_pivot_is_not_skipped():
    # after 3[y,x] the weight-2 block has rank N = 1 but is 3Z, not Z: the
    # candidate [2x, y] = -2[y,x] must still be inserted, and it makes the
    # block Z; skipping on full rank alone would leave torsion (3,)
    alph = Alphabet(["x", "y"])
    x, y = LieElement.generator(0), LieElement.generator(1)
    wx, wy = Word(alph, (1,)), Word(alph, (2,))
    yx = bracket(y, x)
    ideal = GradedIdeal(alph, [(x.scale(2), wx * wx),
                               (yx.scale(3), commutator(wy, wx) ** 3)])
    lv = ideal.level(2)
    assert lv.vectors == [yx.scale(3), yx.scale(-2)]
    assert lv.lifts[1] == (0, 1)
    assert lv.torsion == ()
    assert ideal.quotient_rank(2) == 0


def test_span_from_threads_is_identical():
    # the threads race to build the level, the tracked block lattices that
    # solve_in_span builds on first read, and the lifts
    vecs = SurfaceModel(2).symplectic_ideal().level(5).vectors
    targets = [vecs[i] + vecs[-1 - i].scale(3) for i in range(0, len(vecs), 7)]
    ideal = SurfaceModel(2).symplectic_ideal()
    start = threading.Barrier(4)
    spans = [None] * 4
    solved = [None] * 4

    def read(i):
        start.wait()
        solved[i] = [ideal.solve_in_span(e) for e in targets]
        spans[i] = ideal.span(5)

    threads = [threading.Thread(target=read, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert spans[0] and all(s == spans[0] for s in spans)
    assert all(c is not None for c in solved[0])
    assert all(s == solved[0] for s in solved)
    # every thread got the one cached word of each lift
    assert all(a[1] is b[1] for s in spans for a, b in zip(s, spans[0]))


def test_standalone_ideal_over_given_alphabet(model_of):
    # a principal ideal on a weight-1 generator behaves like dropping a letter
    m = model_of(2)
    gen = LieElement.generator(0)
    ideal = GradedIdeal(m.alphabet, [(gen, m.a(1))])
    for k in (1, 2, 3, 4):
        assert ideal.quotient_rank(k) == witt(k, 3)


def test_handlebody_rank_weight_six(model_of):
    # one step past the routine range: the block reduction stays exact
    ideal = model_of(3).handlebody_ideal()
    assert ideal.quotient_rank(6) == witt(6, 3)
    assert ideal.level(6).torsion == ()


@pytest.mark.parametrize("method", ["level", "span", "quotient_rank"])
def test_weight_below_one_rejected(model_of, method):
    ideal = model_of(2).symplectic_ideal()
    for k in (0, -1):
        with pytest.raises(ValueError, match="weight must be >= 1"):
            getattr(ideal, method)(k)


def test_torsion_from_non_unit_pivot():
    # the ideal of 2x: Z/2 at weight 1, and 2[x,y], 2[[x,y],y] keep a pivot 2
    ab = Alphabet(["x", "y"])
    ideal = GradedIdeal(ab, [(LieElement.generator(0).scale(2), Word(ab, (1, 1)))])
    assert [ideal.level(k).torsion for k in (1, 2, 3)] == [(2,), (2,), (2, 2)]


def _torsion_ideals():
    """2x with [x,y] on x, y; and 2x with [x,y] + [x,z] on x, y, z, whose
    blocks mix unit and non-unit pivots with torsion at every weight."""
    out = []
    for names, second in ((["x", "y"], ((0, 1),)),
                          (["x", "y", "z"], ((0, 1), (0, 2)))):
        ab = Alphabet(names)
        gen = [LieElement.generator(i) for i in range(len(names))]
        letter = [Word(ab, (i + 1,)) for i in range(len(names))]
        e = sum((bracket(gen[i], gen[j]) for i, j in second), LieElement.zero(2))
        lift = Word(ab, ())
        for i, j in second:
            lift = lift * commutator(letter[i], letter[j])
        out.append(GradedIdeal(ab, [(gen[0].scale(2), letter[0] * letter[0]),
                                    (e, lift)]))
    return out


def test_torsion_is_smith_over_every_block(model_of):
    ideals = _torsion_ideals()
    for g in (1, 2):
        m = model_of(g)
        ideals += [m.symplectic_ideal(), m.handlebody_ideal()]
    mixed = 0
    for ideal in ideals:
        for k in range(1, 6):
            lv = ideal.level(k)
            direct = []
            for lat in lv.lattices.values():
                block = [d for d in smith_divisors(lat.matrix()) if d != 1]
                assert lat.torsion() == sorted(block)
                direct += block
                pivots = {lat.pivot(j) == 1 for j in lat.pivots}
                mixed += bool(block) and pivots == {True, False}
            assert lv.torsion == tuple(sorted(direct))
    assert [ideals[0].level(k).torsion for k in (1, 2, 3)] == [(2,), (), ()]
    assert ideals[1].level(3).torsion == (2, 2, 2)
    assert mixed


def labute_rank(k, g):
    """Rank of the weight-k layer of the closed genus-g surface Lie ring:
    prod (1 - t^k)^(r_k) = 1 - 2g t + t^2 gives r_k by Moebius inversion."""
    s = [2, 2 * g]
    while len(s) <= k:
        s.append(2 * g * s[-1] - s[-2])
    total = sum(mobius(k // d) * s[d] for d in range(1, k + 1) if k % d == 0)
    assert total % k == 0
    return total // k


def test_symplectic_ranks_match_labute(model_of):
    for g in (1, 2, 3):
        ideal = model_of(g).symplectic_ideal()
        for k in range(1, 7):
            assert ideal.quotient_rank(k) == labute_rank(k, g)
            assert ideal.level(k).torsion == ()


def test_symplectic_genus3_weight7_matches_labute(model_of):
    ideal = model_of(3).symplectic_ideal()
    assert labute_rank(7, 3) == 32640
    assert ideal.quotient_rank(7) == 32640
    assert ideal.level(7).torsion == ()


def whole_layer_lattice(ideal, k):
    """One lattice over every weight-k basic commutator, spanned by
    ideal.span(k), with the map from an element to its coordinates."""
    basis = hall_basis(k, ideal.n)
    col = {t: i for i, t in enumerate(basis)}

    def coords(e):
        row = [0] * len(basis)
        for t, c in e.terms.items():
            row[col[t]] = c
        return row

    lat = IntLattice(len(basis))
    for vec, _ in ideal.span(k):
        lat.add(coords(vec))
    return basis, coords, lat


def test_blocks_agree_with_whole_layer(model_of):
    m = model_of(2)
    rng = random.Random(17)
    for ideal in (m.symplectic_ideal(), m.handlebody_ideal()):
        for k in range(1, 6):
            basis, coords, lat = whole_layer_lattice(ideal, k)
            assert lat.rank == ideal.level(k).rank
            for _ in range(4):
                e = random_like(k, 4, rng)
                expected = LieElement(k, zip(basis, lat.reduce_mod(coords(e))))
                assert ideal.reduce(e).vector == expected


@pytest.mark.parametrize("enabled", [True, False])
def test_level_pauses_the_collector_and_restores_it(monkeypatch, enabled):
    seen = []
    build = GradedIdeal._build_level

    def spy(self, k):
        seen.append(gc.isenabled())
        return build(self, k)

    monkeypatch.setattr(GradedIdeal, "_build_level", spy)
    ideal = SurfaceModel(2).symplectic_ideal()
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        ideal.level(3)
        after = gc.isenabled()
        ideal.level(3)          # built already: nothing to pause
        cached = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False] * 3
    assert after is cached is enabled


def test_level_restores_the_collector_when_a_build_raises(monkeypatch):
    def fail(self, k):
        raise RuntimeError("build failed")

    monkeypatch.setattr(GradedIdeal, "_build_level", fail)
    ideal = SurfaceModel(2).symplectic_ideal()
    was = gc.isenabled()
    gc.enable()
    try:
        with pytest.raises(RuntimeError):
            ideal.level(2)
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert after is True


def test_concurrent_builds_leave_the_collector_enabled():
    # the collector's state is process-wide: each build restores what it
    # saw, so builds racing from threads must still end with it enabled
    ideals = [SurfaceModel(2).symplectic_ideal() for _ in range(4)]
    start = threading.Barrier(len(ideals))

    def build(ideal):
        start.wait()
        ideal.level(5)

    threads = [threading.Thread(target=build, args=(i,)) for i in ideals]
    was, interval = gc.isenabled(), sys.getswitchinterval()
    gc.enable()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        after = gc.isenabled()
    finally:
        sys.setswitchinterval(interval)
        (gc.enable if was else gc.disable)()
    assert not any(t.is_alive() for t in threads)
    assert after is True
    assert len({i.level(5).rank for i in ideals}) == 1


def test_level_builds_leave_nothing_for_the_collector():
    # the pause in `level` rests on this: a build makes no reference cycle,
    # so a collection during it could never free anything
    gc.collect()
    for g, k in ((2, 6), (3, 5)):
        m = SurfaceModel(g)
        for ideal in (m.symplectic_ideal(), m.handlebody_ideal()):
            ideal.level(k)
    assert gc.collect() == 0


# recorded on the engine before its bracket rewrite became one routine
ENGINE_DIGESTS = {
    "levels": "276cc734112f2a538a5f30d94587cd6589f32bbf69e9615b2f680e0b9f950ec4",
    "memo": "0f357532416c2b3f061ec640958a6eab4d225cac856c324b0b18acb06cdf72b4",
    "memo_entries": 12004,
}


def test_engine_digests_are_the_recorded_ones():
    # levels of both ideals for g=1, 2, k <= 7 and g=3, k <= 6 (vectors in
    # term order, lift recipes, block rows, pivots, members, rank, torsion)
    # and the bracket memo after those builds, in insertion order; a fresh
    # interpreter, since the memo's order depends on all earlier brackets
    tests = Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(tests.parent / "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, str(tests / "enginedigest.py")],
                         env=env, capture_output=True, text=True, timeout=120,
                         check=True).stdout
    got = json.loads(out)
    del got["lagrangians"]
    assert got == ENGINE_DIGESTS
