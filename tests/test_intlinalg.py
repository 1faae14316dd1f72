import ast
import random
from bisect import bisect_left
from fractions import Fraction
from itertools import combinations
from math import gcd, prod
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from lietau import intlinalg
from lietau.errors import InternalFault
from lietau.intlinalg import (IntLattice, charpoly, hermite_rows,
                              int_kernel_basis, mat_vec, saturate_rows,
                              smith_divisors, transpose, xgcd)


def _frac_det(m):
    """Determinant of a square integer matrix by Fraction elimination."""
    a = [[Fraction(v) for v in row] for row in m]
    det = Fraction(1)
    n = len(a)
    for c in range(n):
        piv = None
        for r in range(c, n):
            if a[r][c]:
                piv = r
                break
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        inv = 1 / a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] * inv
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_xgcd(a, b):
    x, y, g = xgcd(a, b)
    assert x * a + y * b == g
    if (a, b) != (0, 0):
        assert g > 0
        assert a % g == 0 and b % g == 0


def test_lattice_membership_and_combo():
    lat = IntLattice(3, track=True)
    lat.add([2, 0, 0], "u")
    lat.add([0, 3, 1], "v")
    assert lat.rank == 2
    combo = lat.member_combo([4, 3, 1])
    assert combo == {"u": 2, "v": 1}
    assert lat.member_combo([1, 0, 0]) is None
    assert lat.contains([2, 3, 1])
    assert not lat.contains([0, 0, 1])


def test_lattice_gcd_mixing():
    lat = IntLattice(2, track=True)
    lat.add([4, 0], 0)
    lat.add([6, 1], 1)
    assert lat.rank == 2
    # the lattice generated is {(4a+6b, b)}; (2, -1) = 2*r - 1*s... check combos
    combo = lat.member_combo([2, 1])
    assert combo is not None
    assert sum(c * v for tag, c in combo.items()
               for v in [0]) == 0  # placeholder structure check
    vec = [0, 0]
    sources = {0: [4, 0], 1: [6, 1]}
    for tag, c in combo.items():
        vec = [x + c * y for x, y in zip(vec, sources[tag])]
    assert vec == [2, 1]


def test_add_reports_index_shrink():
    # inserting 3e1 into the lattice {2e1} leaves the rank at 1 but changes
    # the lattice to {e1}; add must report the change so callers keep the
    # vector and combination tracking stays within the kept set
    lat = IntLattice(2, track=True)
    assert lat.add([2, 0], "u") is True
    assert lat.add([3, 0], "v") is True
    assert lat.rank == 1
    combo = lat.member_combo([1, 0])
    assert combo is not None
    rebuilt = [0, 0]
    sources = {"u": [2, 0], "v": [3, 0]}
    for tag, c in combo.items():
        rebuilt = [x + c * y for x, y in zip(rebuilt, sources[tag])]
    assert rebuilt == [1, 0]
    # membership never mutates, so repeats are stable
    assert lat.add([2, 0], "w") is False
    assert lat.add([5, 0], "z") is False


def test_reduce_mod_canonical():
    lat = IntLattice(2)
    lat.add([2, 1])
    r1 = lat.reduce_mod([5, 0])
    r2 = lat.reduce_mod([5 - 2 * 7, -7])
    assert r1 == r2
    assert lat.reduce_mod(r1) == r1


def _addmul(dst, src, factor):
    for key, c in src.items():
        v = dst.get(key, 0) + factor * c
        if v:
            dst[key] = v
        else:
            dst.pop(key, None)


class DenseLattice:
    """Reference: dense xgcd echelon rows with combinations, reduced column
    by column from the left."""

    def __init__(self, n):
        self.n, self.rows, self.combos, self.pivots = n, [], [], []
        self.fill_in = 0    # reduction steps that made a zero column nonzero

    def add(self, vec, tag):
        vec, combo, changed = list(vec), {tag: 1}, False
        for j in range(self.n):
            if not vec[j]:
                continue
            if j not in self.pivots:
                if vec[j] < 0:
                    vec = [-v for v in vec]
                    combo = {t: -c for t, c in combo.items()}
                where = bisect_left(self.pivots, j)
                self.rows.insert(where, vec)
                self.combos.insert(where, combo)
                self.pivots.insert(where, j)
                return True
            p = self.pivots.index(j)
            row, rc = self.rows[p], self.combos[p]
            a, b, old = row[j], vec[j], vec
            if b % a == 0:
                vec = [v - b // a * r for r, v in zip(row, vec)]
                _addmul(combo, rc, -(b // a))
                self.fill_in += any(v and not o for v, o in zip(vec, old))
                continue
            changed = True
            x, y, g = xgcd(a, b)
            self.rows[p] = [x * r + y * v for r, v in zip(row, vec)]
            vec = [-b // g * r + a // g * v for r, v in zip(row, vec)]
            self.fill_in += any(v and not o for v, o in zip(vec, old))
            new_rc, new_combo = {}, {}
            _addmul(new_rc, rc, x)
            _addmul(new_rc, combo, y)
            _addmul(new_combo, rc, -b // g)
            _addmul(new_combo, combo, a // g)
            self.combos[p], combo = new_rc, new_combo
        return changed

    def member_combo(self, vec):
        vec, acc = list(vec), {}
        for j in range(self.n):
            if not vec[j]:
                continue
            if j not in self.pivots:
                return None
            p = self.pivots.index(j)
            row = self.rows[p]
            if vec[j] % row[j]:
                return None
            q = vec[j] // row[j]
            vec = [v - q * r for r, v in zip(row, vec)]
            _addmul(acc, self.combos[p], q)
        return acc

    def reduce_mod(self, vec):
        for row, j in zip(self.rows, self.pivots):
            q = vec[j] // row[j]
            vec = [v - q * r for r, v in zip(row, vec)]
        return vec


def _vectors(rng, n, count, pool):
    """Random vectors: sparse ones with non-unit multiples, zero vectors and
    integer combinations of earlier vectors (of pool or of these)."""
    out = []
    for _ in range(count):
        r = rng.random()
        earlier = pool + out
        if r < 0.3 and earlier:
            vec = [0] * n
            for v in rng.sample(earlier, min(3, len(earlier))):
                c = rng.randint(-3, 3)
                vec = [x + c * y for x, y in zip(vec, v)]
        else:
            scale = 0 if r < 0.35 else rng.choice((1, 1, 2, 3, 4, 6))
            vec = [scale * rng.choice((0, 0, 0, 1, -1, 2, -3, 5))
                   for _ in range(n)]
        out.append(vec)
    return out


def _assert_packed(lat):
    """Every row is stored as one flat tuple (pivot column, pivot, column,
    value, ...) under its pivot column: pivot pair first, pivot positive,
    no zero and no repeated column."""
    assert sorted(lat.rows) == lat.pivots
    for j, row in lat.rows.items():
        assert type(row) is tuple and len(row) % 2 == 0
        cols, vals = row[::2], row[1::2]
        assert cols[0] == j == min(cols) and vals[0] == lat.pivot(j) > 0
        assert len(set(cols)) == len(cols)
        assert all(vals)


def _wide_vectors(rng, n, count, pool):
    """Sparse random vectors of width n, one to four nonzero entries each,
    and integer combinations of two earlier vectors (of pool or of these)."""
    out = []
    for _ in range(count):
        earlier = pool + out
        vec = [0] * n
        if rng.random() < 0.25 and earlier:
            for v in rng.sample(earlier, min(2, len(earlier))):
                c = rng.randint(-2, 2)
                vec = [x + c * y for x, y in zip(vec, v)]
        else:
            for j in rng.sample(range(n), rng.randint(1, 4)):
                vec[j] = rng.choice((1, -1, 2, -3, 4, 6))
        out.append(vec)
    return out


def test_sparse_rows_match_dense_reference():
    rng = random.Random(2024)
    seen = dict.fromkeys(("zero", "member", "index_shrink", "non_unit",
                          "fill_in"), 0)
    # narrow dense-ish cases, then wide sparse ones (n up to 40) where a
    # row subtraction brings in columns the vector lacked
    cases = [(rng.randint(1, 9), _vectors, rng.randint(1, 12))
             for _ in range(80)]
    cases += [(rng.randint(10, 40), _wide_vectors, rng.randint(8, 45))
              for _ in range(40)]
    for n, vectors, count in cases:
        ref, lat, plain = DenseLattice(n), IntLattice(n, track=True), IntLattice(n)
        owned = IntLattice(n)
        inserted = vectors(rng, n, count, [])
        for tag, vec in enumerate(inserted):
            rank, fill_in = len(ref.pivots), ref.fill_in
            expect = ref.add(vec, tag)
            assert lat.add(vec, tag) is expect
            # a dict with zeros is copied at once, one without them only
            # when a step changes it; neither may be modified
            given = (dict(enumerate(vec)) if tag % 2
                     else {j: v for j, v in enumerate(vec) if v})
            before = list(given.items())
            assert plain.add(given) is expect
            assert list(given.items()) == before
            assert owned.add({j: v for j, v in enumerate(vec) if v},
                             owned=True) is expect
            for one in (lat, plain, owned):
                _assert_packed(one)
                assert one.matrix() == ref.rows
                assert one.pivots == ref.pivots
            assert [lat.combos[j] for j in lat.pivots] == ref.combos
            seen["zero"] += not any(vec)
            seen["member"] += any(vec) and not expect
            seen["index_shrink"] += expect and len(ref.pivots) == rank
            seen["fill_in"] += ref.fill_in > fill_in
        seen["non_unit"] += any(row[j] > 1 for row, j in zip(ref.rows, ref.pivots))
        for vec in vectors(rng, n, 8, inserted):
            combo = ref.member_combo(vec)
            assert lat.member_combo(vec) == combo
            assert lat.contains(vec) is plain.contains(vec) is (combo is not None)
            dense = ref.reduce_mod(vec)
            assert lat.reduce_mod(vec) == dense
            assert plain.reduce_mod(dict(enumerate(vec))) == {
                j: v for j, v in enumerate(dense) if v}
        assert lat.torsion() == sorted(d for d in smith_divisors(lat.matrix())
                                       if d != 1)
    assert all(seen.values()), seen


def test_torsion_clears_unit_columns_in_ascending_order():
    # rows e1 + e2 and e2 have unit pivots; 2e0 + e1 must be reduced by the
    # first and then by the second, or -e2 is left in a dropped column
    lat = IntLattice(4)
    for vec in ([0, 1, 1, 0], [0, 0, 1, 0], [2, 1, 0, 0]):
        lat.add(vec)
    assert lat.matrix() == [[2, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 0]]
    assert lat.torsion() == [2]


def test_smith_divisors_examples():
    assert smith_divisors([[1, 0], [0, 1]]) == [1, 1]
    assert sorted(smith_divisors([[2, 0], [0, 3]])) == [1, 6]
    assert smith_divisors([[2, 0], [0, 2]]) == [2, 2]
    assert smith_divisors([[2, 1]]) == [1]
    assert smith_divisors([[0, 0], [0, 0]]) == []
    # regression: a near-identity matrix once looped forever
    m = [[1, 0, 0, 0, 0, 0],
         [0, 1, 0, 0, 0, 0],
         [0, 0, 1, 0, 0, 0],
         [0, 0, 0, 1, 0, -1],
         [0, 0, 0, 0, 1, 0],
         [0, 0, 0, 0, 0, 1]]
    assert smith_divisors(m) == [1] * 6


def test_smith_divisors_random_rank():
    rng = random.Random(42)
    for _ in range(20):
        rows = [[rng.randint(-4, 4) for _ in range(4)] for _ in range(3)]
        divs = smith_divisors(rows)
        lat = IntLattice(4)
        for r in rows:
            lat.add(r)
        assert len(divs) == lat.rank


def _minor_gcd(a, i):
    """gcd of the i x i minors of a, each from a Fraction determinant."""
    m, n = len(a), len(a[0]) if a else 0
    out = 0
    for rows in combinations(range(m), i):
        for cols in combinations(range(n), i):
            det = _frac_det([[a[r][c] for c in cols] for r in rows])
            assert det.denominator == 1
            out = gcd(out, int(det))
    return out


def test_smith_divisors_against_minor_gcds():
    # d_1 ... d_i is the gcd of the i x i minors, 0 beyond the rank
    rng = random.Random(31)
    cases = [[], [[]], [[0, 0, 0]], [[0], [0]], [[0, 0], [0, 0], [0, 0]]]
    for _ in range(120):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        bound = rng.choice([1, 3, 12, 200])
        a = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]
        kind = rng.randrange(3)
        if kind == 1 and m > 1:
            # a row replaced by a combination of two rows, often of lower rank
            r, s = rng.randrange(m), rng.randrange(m)
            a[rng.randrange(m)] = [rng.randint(-3, 3) * x + rng.randint(-3, 3) * y
                                   for x, y in zip(a[r], a[s])]
        elif kind == 2:
            # a product through a narrow middle: rank at most k
            k = rng.randint(0, min(m, n))
            left = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(m)]
            right = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)]
            a = [[sum(left[i][t] * right[t][j] for t in range(k))
                  for j in range(n)] for i in range(m)]
        cases.append(a)
    seen = {"deficient": 0, "non_square": 0, "chain": 0}
    for a in cases:
        divs = smith_divisors(a)
        size = min(len(a), len(a[0])) if a else 0
        assert all(d > 0 for d in divs)
        for i in range(1, size + 1):
            assert (prod(divs[:i]) if i <= len(divs) else 0) == _minor_gcd(a, i)
        seen["deficient"] += len(divs) < size
        seen["non_square"] += a != [] and len(a) != len(a[0])
        seen["chain"] += any(d > 1 for d in divs[:-1])
    assert all(seen.values()), seen


def _package_calls(name):
    """(module, qualified function) of every call of `name` in the package."""
    calls = set()

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                walk(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                f = child.func
                called = (f.id if isinstance(f, ast.Name)
                          else getattr(f, "attr", None))
                if called == name:
                    calls.add((scope[0], ".".join(scope[1:])))
            walk(child, scope)

    paths = sorted(Path(intlinalg.__file__).parent.glob("*.py"))
    assert len(paths) > 10
    for path in paths:
        walk(ast.parse(path.read_text(), str(path)), (path.stem,))
    return calls


def test_xgcd_is_called_only_in_lattice_insertion():
    """Every elimination goes through `IntLattice.add`: no other function
    in the package calls xgcd."""
    assert _package_calls("xgcd") == {("intlinalg", "IntLattice.add")}


def test_min_positive_degree_is_called_only_in_magnus():
    """Every cap-by-cap walk goes through `magnus.walk`, and every "lower
    degree, or the class at k" question through `magnus.leading_class`: no
    other function in the package reads a series' least degree."""
    assert _package_calls("min_positive_degree") == {
        ("magnus", "walk"), ("magnus", "leading_class")}


def test_hermite_rows_canonical():
    rows = [[2, 4, 0], [1, 1, 1]]
    h1 = hermite_rows(rows, 3)
    # any unimodular recombination gives the same canonical form
    h2 = hermite_rows([[3, 5, 1], [1, 1, 1]], 3)
    assert h1 == h2


def test_relations_complete_a_unimodular_transform():
    # 6 and 4 force an xgcd step at column 0; the rest are dependent or zero
    vecs = [[6, 4, 2, 0], [4, 2, 0, 2], [2, 2, 2, -2], [0, 0, 0, 0],
            [10, 6, 2, 2], [3, 1, -1, 3]]
    lat = IntLattice(4, track=True)
    for i, v in enumerate(vecs):
        lat.add(v, i)
    assert lat.rank == 2
    assert len(lat.relations) == len(vecs) - lat.rank
    for rel in lat.relations:
        assert all(sum(c * vecs[i][j] for i, c in rel.items()) == 0
                   for j in range(4))
    combos = [lat.combos[j] for j in lat.pivots] + lat.relations
    square = [[c.get(i, 0) for i in range(len(vecs))] for c in combos]
    assert abs(_frac_det(square)) == 1


def _rank(mat, ncols):
    lat = IntLattice(ncols)
    for row in mat:
        lat.add(row)
    return lat.rank


@given(st.integers(0, 6).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
             max_size=4),
    st.just(n))))
@example(([], 3))
@example(([[0, 0, 0], [0, 0, 0]], 3))
def test_int_kernel_basis_properties(case):
    mat, ncols = case
    ker = int_kernel_basis(mat, ncols)
    for x in ker:
        assert not any(mat_vec(mat, x))
    assert len(ker) + _rank(mat, ncols) == ncols
    assert smith_divisors(ker) == [1] * len(ker)
    assert hermite_rows(ker, ncols) == ker


def test_int_kernel():
    ker = int_kernel_basis([[1, 2, 3]], 3)
    assert len(ker) == 2
    for row in ker:
        assert row[0] + 2 * row[1] + 3 * row[2] == 0
    # saturated: (1,1,-1) is in the kernel and must be expressible
    lat = IntLattice(3)
    for r in ker:
        lat.add(list(r))
    assert lat.contains([1, 1, -1])


def test_saturate_rows():
    assert saturate_rows([[2, 0]], 2) == [[1, 0]]
    assert saturate_rows([[2, 2], [0, 4]], 2) == [[1, 0], [0, 1]]
    assert saturate_rows([[2, 4, 6]], 3) == [[1, 2, 3]]


def test_charpoly_companion():
    # companion of t^4 + 1
    m = [[0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
    assert charpoly(m) == [1, 0, 0, 0, 1]
    ident = [[1, 0], [0, 1]]
    assert charpoly(ident) == [1, -2, 1]


def test_charpoly_refuses_an_inexact_trace():
    # integer matrices always divide exactly; a rational entry shows the guard
    with pytest.raises(InternalFault):
        charpoly([[Fraction(1, 2)]])


def test_mat_helpers():
    a = [[1, 2], [3, 4]]
    assert transpose(a) == [[1, 3], [2, 4]]
    assert mat_vec(a, [1, 1]) == [3, 7]
