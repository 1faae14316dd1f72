"""Closed-form values the benchmark checks lietau's results against.

Nothing here imports lietau: every value is computed from its textbook
formula, so a defect in the library cannot hide in its own oracle.
"""

from fractions import Fraction


def mobius(n):
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def _divisors(k):
    return [d for d in range(1, k + 1) if k % d == 0]


def witt(k, n):
    """Rank of the weight-k layer of the free Lie ring on n letters (necklaces)."""
    total = sum(mobius(d) * n ** (k // d) for d in _divisors(k))
    q, r = divmod(total, k)
    if r:
        raise ArithmeticError("necklace sum not divisible by k")
    return q


def labute(k, g):
    """Rank of the weight-k layer of the closed genus-g surface Lie ring.

    Labute (J. Algebra 14, 1970): prod (1 - t^k)^{r_k} = 1 - 2g t + t^2, so
    r_k = (1/k) sum_{d | k} mu(k/d) s_d with s_d = 2g s_{d-1} - s_{d-2},
    s_0 = 2 and s_1 = 2g.
    """
    s = [2, 2 * g]
    while len(s) <= k:
        s.append(2 * g * s[-1] - s[-2])
    total = sum(mobius(k // d) * s[d] for d in _divisors(k))
    q, r = divmod(total, k)
    if r:
        raise ArithmeticError("Labute sum not divisible by k")
    return q


def region_lhs(g):
    return g * (g + 1) // 2


def region_rhs(k, g):
    """Pure-braid layer rank: sum over m = 3..g of witt(k, m - 1)."""
    return sum(witt(k, m - 1) for m in range(3, g + 1))


def region_rhs_csv(kmax, gmax):
    cols = range(2, gmax + 1)
    lines = ["k\\g," + ",".join(str(g) for g in cols)]
    for k in range(kmax, 1, -1):
        lines.append("%d," % k + ",".join(str(region_rhs(k, g)) for g in cols))
    lines.append("g(g+1)/2," + ",".join(str(region_lhs(g)) for g in cols))
    return "\n".join(lines) + "\n"


def region_holds(k, g):
    return region_lhs(g) < region_rhs(k, g)


def det(mat):
    """Exact determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(v) for v in row] for row in mat]
    n = len(a)
    d = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            d = -d
        d *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return int(d)


def is_symplectic(m):
    """M^T J M == J for J = [[0, I], [-I, 0]]."""
    n = len(m)
    g = n // 2

    def omega(u, v):
        return sum(u[i] * v[g + i] - u[g + i] * v[i] for i in range(g))

    cols = [[m[r][c] for r in range(n)] for c in range(n)]
    return all(omega(cols[i], cols[j]) == (1 if j == i + g else -1 if i == j + g else 0)
               for i in range(n) for j in range(n))


def eigen_pm1(m):
    """True iff +1 or -1 is an eigenvalue of M."""
    n = len(m)
    shifted = [[[m[i][j] - s * (i == j) for j in range(n)] for i in range(n)]
               for s in (1, -1)]
    return any(det(a) == 0 for a in shifted)


def scan_family_size(g, height):
    """2^g coordinate Lagrangians plus 2 graphs per (i <= j, c), 0 < |c| <= h.

    The alpha-side graph of a symmetric S equals the beta-side graph of S^-1
    when S is unimodular.  The family's S have at most two nonzero rows, so
    that happens only at g = 2 for the off-diagonal S with c = +-1.
    """
    size = 2 ** g + 2 * (g * (g + 1) // 2) * (2 * height)
    return size - 2 if g == 2 and height >= 1 else size
