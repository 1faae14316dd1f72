import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from lietau.errors import (GenusTooLargeError, NotDirectSummandError,
                           NotIsotropicError, PreconditionError)
from lietau.intlinalg import (charpoly, hermite_rows, identity_matrix,
                              int_kernel_basis, mat_mul)
from lietau.symplectic import (Lagrangian, _factor_reciprocal, _poly_str,
                               adapt_symplectic_basis, dual, eigen_pm1_condition,
                               gram_matrix, invariant_lagrangian_report,
                               invariant_lagrangian_search, is_invariant,
                               is_symplectic, omega)

SRC = Path(__file__).resolve().parent.parent / "src"

TREFOIL = [[0, -1], [1, 1]]
COMPANION = [[0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]


def basis_vec(n, i):
    return [1 if j == i else 0 for j in range(n)]


def test_omega_basis_pairings():
    g = 3
    n = 2 * g
    for i in range(g):
        for j in range(g):
            assert omega(basis_vec(n, i), basis_vec(n, g + j)) == (1 if i == j else 0)
            assert omega(basis_vec(n, i), basis_vec(n, j)) == 0
            assert omega(basis_vec(n, g + i), basis_vec(n, g + j)) == 0


@given(st.lists(st.integers(-5, 5), min_size=4, max_size=4),
       st.lists(st.integers(-5, 5), min_size=4, max_size=4))
def test_omega_antisymmetric(u, v):
    assert omega(u, v) == -omega(v, u)
    assert omega(u, u) == 0


@given(st.lists(st.integers(-5, 5), min_size=6, max_size=6),
       st.lists(st.integers(-5, 5), min_size=6, max_size=6))
def test_omega_is_dual_dot(u, v):
    assert omega(u, v) == sum(a * b for a, b in zip(dual(u), v))


def test_omega_dimension_mismatch():
    import pytest as _pytest
    from lietau.errors import DimensionMismatchError
    with _pytest.raises(DimensionMismatchError):
        omega([1, 0], [0, 1, 0, 0])
    with _pytest.raises(DimensionMismatchError):
        omega([1, 0, 0], [0, 1, 0])


def test_is_symplectic_examples():
    assert is_symplectic(identity_matrix(4))
    assert is_symplectic(TREFOIL)
    assert is_symplectic(COMPANION)
    assert not is_symplectic([[1, 1], [1, 1]])
    assert not is_symplectic([[2, 0], [0, 2]])


def test_eigen_pm1_examples():
    assert eigen_pm1_condition(identity_matrix(2))
    assert not eigen_pm1_condition(TREFOIL)
    assert not eigen_pm1_condition(COMPANION)
    with pytest.raises(PreconditionError):
        eigen_pm1_condition([[2, 0], [0, 2]])


def test_lagrangian_validation():
    with pytest.raises(NotIsotropicError):
        Lagrangian(2, [[1, 0, 0, 1], [0, 1, 0, 0]])  # omega = -1
    with pytest.raises(NotDirectSummandError):
        Lagrangian(2, [[1, 0, 0, 0], [2, 0, 0, 0]])  # rank 1
    with pytest.raises(NotDirectSummandError):
        Lagrangian(1, [[2, 0]])  # index 2 in its saturation


def test_lagrangian_refuses_genus_below_one():
    for genus in (0, -1):
        with pytest.raises(PreconditionError):
            Lagrangian(genus, [])


def test_lagrangian_canonical_equality():
    l1 = Lagrangian(2, [[1, 0, 0, 1], [0, 1, 1, 0]])
    l2 = Lagrangian(2, [[1, 1, 1, 1], [0, 1, 1, 0]])  # recombined spanning set
    assert l1 == l2


def test_is_invariant_examples():
    ident = identity_matrix(4)
    std = Lagrangian.standard(2)
    assert is_invariant(ident, std)
    assert not is_invariant(TREFOIL, Lagrangian.standard(1))
    block = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    block[0][2] = 0
    assert is_invariant(block, std)


def test_is_invariant_basis_independent():
    m = [[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    # m is symplectic? not needed for is_invariant; use the standard span
    l1 = Lagrangian.standard(2)
    l2 = Lagrangian(2, [[1, 1, 0, 0], [1, 2, 0, 0]])  # same subspace, recombined
    assert l1 == l2
    assert is_invariant(m, l1) == is_invariant(m, l2)


def test_search_identity_picks_alpha_span():
    got = invariant_lagrangian_search(identity_matrix(2))
    assert got == Lagrangian.standard(1)
    got2 = invariant_lagrangian_search(identity_matrix(4))
    assert got2 == Lagrangian.standard(2)


def test_search_trefoil_none():
    rep = invariant_lagrangian_report(TREFOIL)
    assert rep.found is None
    assert rep.rational_eigenvalues == []
    assert len(rep.pair_checks) == 1
    assert rep.pair_checks[0].nonzero


def test_search_companion_none_with_certificate():
    rep = invariant_lagrangian_report(COMPANION)
    assert rep.found is None
    assert rep.candidates_tested == 0
    [pc] = rep.pair_checks
    assert "x**4 + 1" in pc.factor
    assert pc.nonzero
    assert pc.value_str not in ("", "0")


def test_search_shear_finds_invariant():
    # the shear alpha -> alpha, beta -> alpha + beta fixes span{alpha}
    m = [[1, 1], [0, 1]]
    got = invariant_lagrangian_search(m)
    assert got == Lagrangian.standard(1)


# diag(1, -1, 1, -1) in the order (alpha1, alpha2, beta1, beta2): the
# eigenvalue 1 on span{alpha1, beta1}, -1 on span{alpha2, beta2}
DIAG = [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]]


def test_search_skips_non_isotropic_candidate():
    # candidate 1, span{alpha2, beta2}, is skipped; candidate 2 is found
    rep = invariant_lagrangian_report(DIAG)
    assert rep.found == Lagrangian(2, [[1, 0, 0, 0], [0, 1, 0, 0]])
    assert rep.candidates_tested == 2
    assert rep.notes == []


def test_search_bound_counts_only_tested_candidates():
    rep = invariant_lagrangian_report(DIAG, bound=1)
    assert rep.found is None
    assert rep.notes == ["candidate bound reached"]
    assert rep.candidates_tested == 1


# rotation by a quarter turn in both handles: charpoly (x^2 + 1)^2
QUARTER = [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]]
# a quarter turn in the first handle, the identity in the second
QUARTER_ONE = [[0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]]


def test_search_repeated_quadratic_factor():
    rep = invariant_lagrangian_report(QUARTER)
    assert rep.found is None
    assert rep.rational_eigenvalues == []
    assert rep.candidates_tested == 0
    assert [(pc.factor, pc.value_str, pc.nonzero)
            for pc in rep.pair_checks] == [("x**2 + 1", "2*z", True)]
    assert not eigen_pm1_condition(QUARTER)


def test_search_rational_and_quadratic_factors():
    rep = invariant_lagrangian_report(QUARTER_ONE)
    assert rep.found is None
    assert rep.rational_eigenvalues == [1]
    assert rep.candidates_tested == 2
    assert [(pc.factor, pc.value_str, pc.nonzero)
            for pc in rep.pair_checks] == [("x**2 + 1", "2*z", True)]
    assert eigen_pm1_condition(QUARTER_ONE)


def test_eigen_pm1_is_a_kernel_of_m_minus_plus_one():
    # the characteristic polynomial at +-1 against the definition, and no
    # factor of degree >= 2 anti-palindromic (each such would vanish at 1)
    rng = random.Random(7)
    seen = set()
    for g in (1, 2, 3):
        n = 2 * g
        for _ in range(40):
            m = _random_symplectic(g, rng)
            shifted = [[[m[i][j] - s * (i == j) for j in range(n)]
                        for i in range(n)] for s in (1, -1)]
            expect = any(int_kernel_basis(t, n) for t in shifted)
            assert eigen_pm1_condition(m) == expect
            seen.add(expect)
            for fc, _ in _factor_reciprocal(charpoly(m)):
                assert len(fc) == 2 or fc != [-c for c in fc[::-1]]
    assert seen == {False, True}


def test_search_genus_cap():
    with pytest.raises(GenusTooLargeError):
        invariant_lagrangian_search(identity_matrix(8))


def test_adapt_standard_and_beta():
    std = Lagrangian.standard(2)
    assert adapt_symplectic_basis(std) == identity_matrix(4)
    beta = Lagrangian(2, [[0, 0, 1, 0], [0, 0, 0, 1]])
    s = adapt_symplectic_basis(beta)
    assert is_symplectic(s)
    assert s == [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]]


def _random_symplectic(g, rng, steps=6):
    n = 2 * g
    m = identity_matrix(n)
    j = gram_matrix(g)
    for _ in range(steps):
        # symplectic transvection: x -> x + c * omega(x, v) v
        v = [rng.randint(-1, 1) for _ in range(n)]
        if all(x == 0 for x in v):
            continue
        c = rng.choice([-1, 1])
        cols = []
        for col in range(n):
            e = basis_vec(n, col)
            w = [e[i] + c * omega(e, v) * v[i] for i in range(n)]
            cols.append(w)
        t = [[cols[col][row] for col in range(n)] for row in range(n)]
        m = mat_mul(t, m)
    assert is_symplectic(m)
    return m


def test_adapt_random_lagrangians():
    rng = random.Random(2024)
    j2 = gram_matrix(2)
    for g in (1, 2, 3):
        n = 2 * g
        j = gram_matrix(g)
        for _ in range(6):
            m = _random_symplectic(g, rng)
            rows = [[m[r][c] for r in range(n)] for c in range(g)]
            lag = Lagrangian(g, rows)
            s = adapt_symplectic_basis(lag)
            assert is_symplectic(s)
            cols = [[s[r][c] for r in range(n)] for c in range(g)]
            assert hermite_rows(cols, n) == [list(r) for r in lag.rows]


def test_scan_family_rows_are_unchanged():
    # Lagrangian reads its Hermite rows off the lattice it checks; over the
    # height-3 genus-3 family they are canonical, also from a unimodular mix
    # of the rows that leaves entries above the pivots, and are the rows
    # recorded when they came from a second lattice built on the echelon rows
    from enginedigest import lagrangian_digest
    from lietau.obstruction import scan_family
    for lag in scan_family(3, 3):
        r0, r1, r2 = lag.rows
        mixed = [[a + b + c for a, b, c in zip(r0, r1, r2)],
                 [b - 2 * c for b, c in zip(r1, r2)], r2]
        assert hermite_rows(mixed, 6) == [list(r) for r in lag.rows]
        assert Lagrangian(3, mixed).rows == lag.rows
    assert lagrangian_digest() == (
        "fdca1f61d01fdec6e355c25faee44aea0cee4846184c050f619065a560593dd6")


def test_adapt_mixed_example():
    lag = Lagrangian(2, [[1, 0, 0, 1], [0, 1, 1, 0]])
    s = adapt_symplectic_basis(lag)
    assert is_symplectic(s)
    cols = [[s[r][c] for r in range(4)] for c in range(2)]
    assert hermite_rows(cols, 4) == [list(r) for r in lag.rows]


def test_import_leaves_sympy_unloaded():
    # sympy is only the tests' reference factorizer, never a runtime import
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c",
         "import lietau, sys; print('sympy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


def _factor_both_ways(coeffs):
    """(ours, sympy's) factorization: [(coeffs, multiplicity, str)] each."""
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    _, factors = sympy.Poly(coeffs, x).factor_list()
    factors = sorted(factors, key=lambda fk: (fk[0].degree(), fk[0].all_coeffs()))
    ref = [([int(c) for c in f.all_coeffs()], k, str(f.as_expr()))
           for f, k in factors]
    ours = [(f, k, _poly_str(f)) for f, k in _factor_reciprocal(coeffs)]
    return ours, ref


def test_poly_str_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    for coeffs in ([-41, 0, 0, 0], [1, 0, -3, 0, 1], [1, -1], [-1, 2, -1],
                   [3, 1, 0, -7], [-5], [1, 0]):
        assert _poly_str(coeffs) == str(sympy.Poly(coeffs, x).as_expr())


def test_factor_matches_sympy_on_test_matrices():
    mats = [TREFOIL, COMPANION] + [identity_matrix(n) for n in (2, 4, 6)]
    for m in mats + [[[-v for v in row] for row in m] for m in mats]:
        ours, ref = _factor_both_ways(charpoly(m))
        assert ours == ref


def test_factor_matches_sympy_on_random_symplectic():
    rng = random.Random(11)
    for g in (1, 2, 3):
        for _ in range(60):
            ours, ref = _factor_both_ways(charpoly(_random_symplectic(g, rng)))
            assert ours == ref


def test_charpoly_matches_sympy():
    # integer Faddeev-LeVerrier against sympy on 200 matrices up to 8x8
    sympy = pytest.importorskip("sympy")
    rng = random.Random(29)
    mats = [[[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            for n in range(1, 9) for _ in range(20)]
    mats += [_random_symplectic(g, rng) for g in (1, 2, 3, 4) for _ in range(10)]
    for m in mats:
        ref = sympy.Matrix(m).charpoly().all_coeffs()
        assert charpoly(m) == [int(c) for c in ref]


def test_factor_matches_sympy_on_large_coefficients():
    # integer roots are found by bisection, so huge coefficients stay cheap
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    t, a = 10 ** 12 + 39, 10 ** 6
    for expr in ((x**2 - t*x + 1) ** 2 * (x**2 + 1),
                 (x**2 + t*x + 1) * (x**2 - a*x - 1) * (x**2 + a*x - 1),
                 (x**3 + t*x**2 - a*x - 1) * (x**3 + a*x**2 - t*x - 1),
                 (x - 1) ** 2 * (x**4 + t*x**3 - 3*x**2 + t*x + 1),
                 x**6 + t*x**5 - t*x**4 + 5*x**3 - t*x**2 + t*x + 1):
        coeffs = [int(c) for c in sympy.Poly(expr, x).all_coeffs()]
        ours, ref = _factor_both_ways(coeffs)
        assert ours == ref


def test_factor_matches_sympy_on_all_small_palindromes():
    # every monic palindromic polynomial of degree 2, 4 and 6 with middle
    # coefficients in [-5, 5]
    shapes = set()
    for half in range(1, 4):
        for mid in itertools.product(range(-5, 6), repeat=half):
            coeffs = [1, *mid] + [1, *mid][-2::-1]
            ours, ref = _factor_both_ways(coeffs)
            assert ours == ref, coeffs
            for f, k, _ in ours:
                if len(f) > 2 and f != f[::-1]:
                    shapes.add("s s* of degree %d" % (len(f) - 1))
                elif len(f) == 3 and k > 1:
                    shapes.add("repeated x^2 - t x + 1")
    assert shapes == {"s s* of degree 2", "s s* of degree 3",
                      "repeated x^2 - t x + 1"}
