"""Acceptance suite: every criterion asserts its stated values and budget and
prints one pass line.  Run with ``pytest tests/test_acceptance.py -v -s`` or
directly as a script for the plain pass/fail listing.
"""

import sys
import time
from math import comb
from pathlib import Path
from random import Random

sys.path.insert(0, str(Path(__file__).parent))

from braidgen import (commutator_braid, depth_two_braid, elementary_braids_g3,
                      search_push_tuples_g2)
from liegen import enumerate_trees, random_like
from lietau.hall import hall_basis, witt
from lietau.johnson import (TauValue, boundary_twist,
                            braid_automorphism, eta, eta_inverse,
                            johnson_depth, jprime_depth, point_push_tau,
                            tau, tau1)
from lietau.lie import LieElement, bracket
from lietau.magnus import induced_lie_map, lie_class_at
from lietau.obstruction import value_obstruction_vanishes
from lietau.region import region_holds, region_lhs, region_rhs, region_table, rhs_csv
from lietau.surface import SurfaceModel
from lietau.symplectic import (Lagrangian, eigen_pm1_condition,
                               invariant_lagrangian_report, is_symplectic)
from lietau.words import Alphabet, GroupEndomorphism, commutator

_MODELS = {}


def model(g):
    if g not in _MODELS:
        _MODELS[g] = SurfaceModel(g)
    return _MODELS[g]


class budget:
    def __init__(self, seconds, label):
        self.seconds = seconds
        self.label = label

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        if exc_type is None:
            assert elapsed < self.seconds, (
                "%s exceeded its %.0fs budget (%.1fs)"
                % (self.label, self.seconds, elapsed))
            print("ACCEPTANCE %s PASS (%.2fs)" % (self.label, elapsed))
        else:
            print("ACCEPTANCE %s FAIL (%.2fs)" % (self.label, elapsed))
        return False


def _naive_basic_commutators(k, n):
    def basic(t):
        if t.is_leaf():
            return True
        if not (basic(t.left) and basic(t.right)):
            return False
        if not t.right.key < t.left.key:
            return False
        if not t.left.is_leaf() and t.right.key < t.left.right.key:
            return False
        return True

    return [t for t in enumerate_trees(k, n) if basic(t)]


def test_criterion_1_witt_vs_enumeration():
    with budget(10, "1 (Witt formula vs enumeration)"):
        for k in range(1, 7):
            for g in range(1, 4):
                assert len(hall_basis(k, g)) == witt(k, g), (k, g)
        # independent re-derivation on the two hardest cells
        assert len(_naive_basic_commutators(6, 2)) == witt(6, 2) == 9
        assert len(_naive_basic_commutators(4, 3)) == witt(4, 3) == 18


# the feasibility grid exactly as printed, genus 2 through the last shown
FIGURE_RHS = {
    8: [0, 30, 840, 9000],
    7: [0, 18, 330, 2670],
    6: [0, 9, 125, 795, 3375],
    5: [0, 6, 54, 258, 882, 2436, 5796],
    4: [0, 3, 21, 81, 231, 546, 1134],
    3: [0, 2, 10, 30, 70, 140, 252],
    2: [0, 1, 4, 10, 20, 35, 56],
}
FIGURE_LHS_ROW = [3, 6, 10, 15, 21, 28, 36]


def test_criterion_2_table_reproduction():
    with budget(1, "2 (feasibility table reproduction)"):
        for k, row in FIGURE_RHS.items():
            for j, val in enumerate(row):
                assert region_rhs(k, 2 + j) == val, (k, 2 + j)
        assert region_rhs(8, 5) == 9000
        assert region_rhs(5, 8) == 5796
        assert region_rhs(3, 8) == 252
        assert region_rhs(2, 8) == 56
        assert [region_lhs(g) for g in range(2, 9)] == FIGURE_LHS_ROW
        csv = rhs_csv(8, 8)
        lines = csv.strip().split("\n")
        assert lines[0] == "k\\g,2,3,4,5,6,7,8"
        by_k = {int(line.split(",")[0]): [int(v) for v in line.split(",")[1:]]
                for line in lines[1:-1]}
        for k, row in FIGURE_RHS.items():
            assert by_k[k][:len(row)] == row
        assert lines[-1] == "g(g+1)/2," + ",".join(map(str, FIGURE_LHS_ROW))
        assert csv == rhs_csv(8, 8)  # byte-identical across runs


def _expected_region(k, g):
    return (g >= 7 or (k >= 3 and g >= 5) or (k >= 4 and g >= 4)
            or (k >= 6 and g >= 3))


def test_criterion_3_region_certification():
    with budget(1, "3 (region certification)"):
        cells = region_table(8, 8)
        assert len(cells) == 49
        for cell in cells:
            assert cell.holds == _expected_region(cell.k, cell.g), (cell.k, cell.g)
            if cell.provenance == "monotone-k":
                assert cell.k - 1 >= 2 and cell.g >= 3
                assert region_holds(cell.k - 1, cell.g)[0]
            elif cell.provenance == "monotone-g":
                assert region_holds(cell.k, cell.g - 1)[0]
                assert (cell.k == 3 and cell.g - 1 >= 3) or (cell.k == 2 and cell.g >= 8)
            else:
                assert cell.provenance == "explicit"
                assert cell.holds == (cell.lhs < cell.rhs)


def test_criterion_4_boundary_twist():
    with budget(30, "4 (boundary twist)"):
        for g in (2, 3):
            m = model(g)
            t = boundary_twist(m)
            assert johnson_depth(t, 6) == 3
            # weight-3 class of the last defect: sum of [[a_i, b_i], b_g]
            expected = LieElement.zero(3)
            for i in range(g):
                expected = expected + bracket(
                    bracket(LieElement.generator(i), LieElement.generator(g + i)),
                    LieElement.generator(2 * g - 1))
            assert not expected.is_zero()
            defect = t.defect(2 * g - 1)
            assert defect == commutator(m.relator, m.b(g))
            assert lie_class_at(defect, 3) == expected
            assert tau1(t, 3).term(g - 1) == expected
            assert jprime_depth(t, 6) is None          # trivial through cap 6
            assert tau(t, 3).is_zero()


def test_criterion_5_quotient_ranks():
    with budget(60, "5 (graded quotient ranks)"):
        for g in (1, 2, 3):
            m = model(g)
            hb = m.handlebody_ideal()
            for k in range(1, 6):
                assert hb.quotient_rank(k) == witt(k, g), (g, k)
                assert hb.level(k).torsion == ()
            sym = m.symplectic_ideal()
            expected = 0 if g == 1 else comb(2 * g, 2) - 1
            assert sym.quotient_rank(2) == expected
            assert sym.level(2).torsion == ()


def test_criterion_6_johnson_algebra():
    with budget(240, "6 (Johnson homomorphism algebra)"):
        rng = Random(20260808)
        # eta round trips on 100 random homomorphism values
        count = 0
        while count < 100:
            g = rng.choice([1, 2, 3])
            k = rng.choice([2, 3, 4])
            m = model(g)
            vals = {mm: random_like(k, 2 * g, rng) for mm in range(2 * g)}
            h = TauValue(m, k, True, vals)
            assert eta(eta_inverse(h)) == h
            tv = TauValue(m, k, True,
                          {mm: random_like(k, 2 * g, rng) for mm in range(2 * g)})
            assert eta_inverse(eta(tv)) == tv
            count += 1
        # additivity on 20 composites of twists and searched push braids
        m = model(3)
        t = boundary_twist(m)
        b12, b23 = elementary_braids_g3(m)
        d = commutator_braid(commutator_braid(b12, b23), b12)
        pool = [t, t.compose(t), d.fwd, d.bwd]
        taus = [tau(f, 3) for f in pool]
        taus1 = [tau1(f, 3) for f in pool]
        pairs = [(i, j) for i in range(4) for j in range(4)
                 if not (i >= 2 and j >= 2 and i == j)][:20]
        assert len(pairs) == 14
        extra = [(0, 0), (1, 1), (0, 1), (1, 0), (2, 3), (3, 2)]
        pairs = (pairs + extra)[:20]
        for i, j in pairs:
            f, h = pool[i], pool[j]
            assert tau(f.compose(h), 3) == taus[i] + taus[j]
        # kernel property on the same family
        depths = [johnson_depth(f, 6) for f in pool]
        for f, dep in zip(pool, depths):
            for k in (2, 3):
                deep = dep is None or dep >= k + 1
                assert tau1(f, k).is_zero() == deep
        c = commutator_braid(b12, b23)
        assert johnson_depth(c.fwd, 6) == 2
        assert not tau1(c.fwd, 2).is_zero()
        assert tau1(d.fwd, 2).is_zero()


def test_criterion_7_levine_cross_validation():
    with budget(300, "7 (point-push cross-validation)"):
        m = model(2)
        found = search_push_tuples_g2(m, maxlen=12, min_weight=2)
        assert found, "search lost even the trivial tuple"
        nontrivial_classes = 0
        for lam1, lam2 in found:
            f = braid_automorphism(m, [lam1, lam2])
            pp = point_push_tau(m, [lam1, lam2], 2)
            assert pp == tau(f, 2)
            some_class = any(
                not lie_class_at(lam, 2).is_zero() for lam in (lam1, lam2) if lam)
            if some_class:
                nontrivial_classes += 1
                assert not value_obstruction_vanishes(pp, Lagrangian.standard(2))
        # the genus-2 search meets only the trivial tuple, so the two routes
        # must also agree on genus-3 pushes with nonzero classes, where the
        # obstruction is nonvanishing: [A12, A23] at weight 2 and
        # [[A12, A23], A12] at weight 3
        m3 = model(3)
        b12, b23 = elementary_braids_g3(m3)
        from lietau.johnson import push_tuple_of
        for d, k in ((depth_two_braid(m3), 2),
                     (commutator_braid(commutator_braid(b12, b23), b12), 3)):
            lam = push_tuple_of(d.fwd)
            assert lam is not None
            value = point_push_tau(m3, lam, k)
            assert value == tau(d.fwd, k)
            assert not value.is_zero()
            assert not value_obstruction_vanishes(value, Lagrangian.standard(3))


def test_criterion_8_homology_obstructions():
    with budget(1, "8 (homology-level obstructions)"):
        trefoil = [[0, -1], [1, 1]]
        assert is_symplectic(trefoil)
        assert eigen_pm1_condition(trefoil) is False
        companion = [[0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
        assert is_symplectic(companion)
        rep = invariant_lagrangian_report(companion)
        assert rep.found is None
        assert rep.pair_checks and all(pc.nonzero for pc in rep.pair_checks)
        assert any("x**4 + 1" in pc.factor for pc in rep.pair_checks)
        ident2 = [[1, 0], [0, 1]]
        assert invariant_lagrangian_report(ident2).found == Lagrangian.standard(1)
        ident4 = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
        assert invariant_lagrangian_report(ident4).found == Lagrangian.standard(2)


def test_criterion_9_zero_induced_map():
    with budget(10, "9 (injective but graded-zero endomorphism)"):
        ab = Alphabet(["x", "y"])
        x, y = ab.generator("x"), ab.generator("y")
        phi = GroupEndomorphism(ab, [commutator(commutator(y, x), x),
                                     commutator(commutator(y, x), y)])
        for wt in range(1, 5):
            for t in hall_basis(wt, 2):
                assert induced_lie_map(phi, LieElement.from_tree(t), 8).is_zero()


if __name__ == "__main__":
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_criterion"):
            try:
                fn()
            except AssertionError as exc:
                failures += 1
                print("  -> %s" % exc)
    sys.exit(1 if failures else 0)
