"""Symplectic homology of the surface: the intersection form, integer
symplectic matrices, Lagrangian subspaces, basis adaptation, and the
homology-level extension obstructions.

Coordinates are always (alpha_1..alpha_g, beta_1..beta_g), in which the form
has Gram matrix J = [[0, I], [-I, 0]].
"""

from fractions import Fraction
from itertools import combinations, product
from math import isqrt

from .errors import (DimensionMismatchError, GenusTooLargeError, InternalFault,
                     NotDirectSummandError, NotIsotropicError, PreconditionError)
from .intlinalg import (IntLattice, charpoly, identity_matrix,
                        int_kernel_basis, mat_mul, mat_vec, poly_eval_matrix,
                        saturate_rows, transpose)


def gram_matrix(g):
    j = [[0] * (2 * g) for _ in range(2 * g)]
    for i in range(g):
        j[i][g + i] = 1
        j[g + i][i] = -1
    return j


def dual(u):
    """The covector omega(u, .): u's halves swapped, the new first half
    negated, so that omega(u, v) = dual(u) . v."""
    g = len(u) // 2
    return [-v for v in u[g:]] + list(u[:g])


def omega(u, v):
    """Algebraic intersection pairing in the standard symplectic basis."""
    if len(u) != len(v) or len(u) % 2:
        raise DimensionMismatchError("vectors must share an even dimension",
                                     lengths=(len(u), len(v)))
    return sum(a * b for a, b in zip(dual(u), v))


def is_symplectic(m):
    """True iff M^T J M = J, that is omega(c_i, c_j) = J_ij on the columns."""
    n = len(m)
    if n % 2 or any(len(r) != n for r in m):
        return False
    cols = transpose(m)
    return [mat_vec(cols, dual(c)) for c in cols] == gram_matrix(n // 2)


def _symplectic_charpoly(m, poly):
    """charpoly(m), after checking that m is symplectic; a poly passed in
    is taken as both, from a caller that has checked m itself."""
    if poly is not None:
        return poly
    if not is_symplectic(m):
        raise PreconditionError("matrix is not symplectic")
    return charpoly(m)


def eigen_pm1_condition(m, *, poly=None):
    """Necessary homology condition for extension: +1 or -1 is an eigenvalue.

    Any extension forces an invariant primitive vector with eigenvalue +-1 in
    genus one, so failing this certifies non-extension at the H_1 level.
    A caller that has checked `is_symplectic(m)` may pass poly=charpoly(m).
    """
    # det(M -+ I) = 0 iff M -+ I has a nonzero integer kernel; the degree is
    # even, so p(1) and p(-1) are e + o and e - o for the sums e and o of
    # the coefficients at even and odd positions
    p = _symplectic_charpoly(m, poly)
    even, odd = sum(p[::2]), sum(p[1::2])
    return even == -odd or even == odd


class Lagrangian:
    """Rank-g isotropic direct summand of Z^{2g}, stored by its canonical
    Hermite-form spanning rows so equality is equality of subspaces."""

    __slots__ = ("genus", "rows")

    def __init__(self, genus, spanning_rows):
        if genus < 1:
            raise PreconditionError("genus must be >= 1, got %d" % genus)
        rows = [list(map(int, r)) for r in spanning_rows]
        if any(len(r) != 2 * genus for r in rows):
            raise DimensionMismatchError("spanning vectors must have length 2g")
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                if omega(rows[i], rows[j]) != 0:
                    raise NotIsotropicError(
                        "spanning vectors %d and %d pair nontrivially" % (i, j))
        lat = IntLattice(2 * genus)
        for r in rows:
            lat.add(r)
        if lat.rank != genus:
            raise NotDirectSummandError(
                "spanning set has rank %d, expected %d" % (lat.rank, genus))
        if lat.torsion():
            raise NotDirectSummandError(
                "span is not a direct summand (non-unit elementary divisors)")
        canon = lat.hermite()
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "rows", tuple(tuple(r) for r in canon))

    def __setattr__(self, *a):
        raise AttributeError("Lagrangian is immutable")

    def __eq__(self, other):
        return (isinstance(other, Lagrangian) and self.genus == other.genus
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.genus, self.rows))

    def __repr__(self):
        return "Lagrangian(g=%d, %r)" % (self.genus, [list(r) for r in self.rows])

    @staticmethod
    def standard(genus):
        """span{alpha_1..alpha_g}."""
        return Lagrangian.coordinate(genus, ())

    @staticmethod
    def coordinate(genus, beta_indices):
        """One of alpha_i / beta_i per index; beta_indices lists the i with beta."""
        chosen = set(beta_indices)
        rows = []
        for i in range(genus):
            col = (genus + i) if i in chosen else i
            rows.append([1 if j == col else 0 for j in range(2 * genus)])
        return Lagrangian(genus, rows)


def is_invariant(m, lagrangian):
    """True iff M maps the rational span of the Lagrangian into itself.

    A Lagrangian is a direct summand, so its rational span meets Z^2g in the
    Lagrangian itself, and the integer images M r must lie in its lattice.
    """
    if len(m) != 2 * lagrangian.genus:
        raise DimensionMismatchError("matrix size does not match the genus")
    lat = IntLattice(len(m))
    for r in lagrangian.rows:
        lat.add(r)
    return all(lat.contains(mat_vec(m, r)) for r in lagrangian.rows)


def adapt_symplectic_basis(lagrangian):
    """An integer symplectic matrix whose first g columns span the Lagrangian.

    The x-side is the canonical Hermite basis of the subspace; the y-side is
    the deterministic integer solution of the duality equations, corrected to
    be isotropic.  Column pivots are processed in index order, so the output
    is reproducible.
    """
    g = lagrangian.genus
    n = 2 * g
    x_rows = [list(r) for r in lagrangian.rows]
    # pairing matrix: A[i][m] = omega(x_i, e_m)
    a = [dual(x) for x in x_rows]
    lat = IntLattice(g, track=True)
    for mcol in range(n):
        lat.add([a[i][mcol] for i in range(g)], tag=mcol)
    ys = []
    for jcol in range(g):
        target = [1 if i == jcol else 0 for i in range(g)]
        combo = lat.member_combo(target)
        if combo is None:
            raise NotDirectSummandError(
                "duality system has no integer solution; span is not primitive")
        y = [0] * n
        for mcol, c in combo.items():
            y[mcol] += c
        ys.append(y)
    # isotropize the y side: y_j += sum_{i<j} omega(y_i, y_j) x_i
    pair = [[omega(ys[i], ys[jj]) for jj in range(g)] for i in range(g)]
    for jj in range(g):
        for i in range(jj):
            d = pair[i][jj]
            if d:
                ys[jj] = [yv + d * xv for yv, xv in zip(ys[jj], x_rows[i])]
    s = [[0] * n for _ in range(n)]
    for col in range(g):
        for row in range(n):
            s[row][col] = x_rows[col][row]
            s[row][g + col] = ys[col][row]
    if not is_symplectic(s):
        raise InternalFault("adapted basis failed the symplectic identity")
    return s


# --- polynomials: factoring the characteristic polynomial, and arithmetic
# in Q[x]/(p) for the conjugate-pair isotropy certificate ---

def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1) if p and q else []
    for i, a in enumerate(p):
        if a:
            for jj, b in enumerate(q):
                out[i + jj] += a * b
    return _poly_trim(out)


def _poly_divmod(p, q):
    p = [Fraction(v) for v in p]
    out = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    while len(p) >= len(q) and p:
        f = p[-1] / q[-1]
        deg = len(p) - len(q)
        out[deg] = f
        for i, b in enumerate(q):
            p[deg + i] -= f * b
        _poly_trim(p)
    return _poly_trim(out), p


def _poly_add(p, q, c=1):
    """p + c q."""
    out = [Fraction(v) for v in p] + [Fraction(0)] * (len(q) - len(p))
    for i, v in enumerate(q):
        out[i] += c * v
    return _poly_trim(out)


def _poly_divide_out(p, f):
    """(p / f^k, k) for the largest k; integer coefficient lists, f monic."""
    k = 0
    while True:
        quo, rem = _poly_divmod(p, f)
        if rem:
            return p, k
        p, k = [int(c) for c in quo], k + 1


# x^j + x^-j as a polynomial in y = x + 1/x, lowest coefficient first
_CHEBYSHEV = ([2], [0, 1], [-2, 0, 1], [0, -3, 0, 1])


def _integer_roots(q):
    """The integer roots of a monic integer polynomial of degree <= 3, lowest
    coefficient first, by exact bisection where it is monotone."""
    def at(y):
        return sum(c * y ** i for i, c in enumerate(q))
    bound = 1 + max(map(abs, q))  # every root lies in (-bound, bound)
    # q' changes sign only within 1 of these rounded turning points
    turns = [-q[1] // 2] if len(q) == 3 else []
    if len(q) == 4 and q[2] ** 2 >= 3 * q[1]:
        r = isqrt(q[2] ** 2 - 3 * q[1])
        turns = [(-q[2] - r) // 3, (-q[2] + r) // 3]
    ends = sorted({-bound, bound} | {t + d for t in turns for d in (-1, 0, 1, 2)})
    roots = {y for y in ends if at(y) == 0}
    for lo, hi in zip(ends, ends[1:]):
        while hi - lo > 1 and at(lo) * at(hi) < 0:
            mid = (lo + hi) // 2
            if at(mid) == 0:
                roots.add(mid)
                break
            lo, hi = (mid, hi) if (at(mid) < 0) == (at(lo) < 0) else (lo, mid)
    return sorted(roots)


def _reciprocal_pairs(h):
    """Candidates (s, s*) for h = s s*, a monic factor times its reciprocal,
    where h has degree 4 or 6; each must still be checked by multiplying."""
    if len(h) == 5 and h[2] < -2:
        # x^4 + v x^2 + 1 = (x^2 - a x - 1)(x^2 + a x - 1) with a^2 = -v - 2
        a = isqrt(-h[2] - 2)
        yield [-1, -a, 1], [-1, a, 1]
    if len(h) == 7:
        # s = x^3 + a x^2 + b x + e, s* = x^3 + e b x^2 + e a x + e with
        # e = +-1: a + e b = h_5 and a^2 + b^2 = e h_3 - 2
        for e in (1, -1):
            disc = 2 * (e * h[3] - 2) - h[5] ** 2
            if disc >= 0:
                for a in ((h[5] + isqrt(disc)) // 2, (h[5] - isqrt(disc)) // 2):
                    b = e * (h[5] - a)
                    yield [e, b, a, 1], [e, e * a, e * b, 1]


def _factor_reciprocal(coeffs):
    """Irreducible factors over Q of a monic palindromic integer polynomial
    of degree 2g <= 6 with constant term 1, the characteristic polynomial of
    a symplectic matrix of genus g <= 3.

    Returns (factor, multiplicity) pairs, factors as coefficient lists
    highest first, sorted by degree and then coefficients.
    """
    p = list(reversed(coeffs))  # lowest first from here on
    # +-1 are the only rational roots of a monic p with constant term 1
    p, k_one = _poly_divide_out(p, [-1, 1])
    p, k_minus_one = _poly_divide_out(p, [1, 1])
    found = [([-1, 1], k_one), ([1, 1], k_minus_one)]
    # the rest is x^m q(x + 1/x), and an integer root t of q is the factor
    # x^2 - t x + 1
    m = len(p) // 2
    q = [p[m]] + [0] * m
    for j in range(1, m + 1):
        for i, c in enumerate(_CHEBYSHEV[j]):
            q[i] += p[m + j] * c
    for t in _integer_roots(q):
        p, k = _poly_divide_out(p, [1, -t, 1])
        found.append(([1, -t, 1], k))
    # what is left of q has degree 0, 2 or 3 and no rational root, so it is
    # irreducible, and p is either irreducible or some s s*
    for s, s_star in _reciprocal_pairs(p):
        if _poly_mul(s, s_star) == p:
            found += [(s, 1), (s_star, 1)]
            break
    else:
        found.append((p, 1))
    return sorted(((f[::-1], k) for f, k in found if k and len(f) > 1),
                  key=lambda fk: (len(fk[0]), fk[0]))


def _poly_str(coeffs):
    """An integer polynomial in x, highest coefficient first, as sympy
    prints it: x**4 - 3*x**2 + 1."""
    out = ""
    for i, c in enumerate(coeffs):
        deg = len(coeffs) - 1 - i
        if not c:
            continue
        term = "x**%d" % deg if deg > 1 else "x" if deg == 1 else ""
        if abs(c) != 1 or not term:
            term = "%d*%s" % (abs(c), term) if term else str(abs(c))
        if out:
            out += " - " if c < 0 else " + "
        elif c < 0:
            out = "-"
        out += term
    return out


class _Field:
    """Q[x]/(p) with p monic irreducible; elements are coefficient lists."""

    def __init__(self, p_coeffs_low_first):
        self.p = [Fraction(v) for v in p_coeffs_low_first]

    def reduce(self, coeffs):
        _, r = _poly_divmod([Fraction(v) for v in coeffs], self.p)
        return r

    def mul(self, a, b):
        return self.reduce(_poly_mul(a, b))

    def inv(self, a):
        # extended Euclid in Q[x]
        r0, r1 = self.p[:], self.reduce(a)
        if not r1:
            raise ZeroDivisionError("inverting zero in the quotient field")
        s0, s1 = [], [Fraction(1)]
        while r1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_add(s0, _poly_mul(q, s1), -1)
        if len(r0) != 1:
            raise ZeroDivisionError("polynomial is not invertible (reducible modulus?)")
        c = r0[0]
        return self.reduce([v / c for v in s0])

    def subst(self, a, value):
        """a(value) for value an element of the field."""
        out = []
        for c in reversed(a):
            out = _poly_add(self.mul(out, value), [c])
        return out

    def to_str(self, a):
        if not a:
            return "0"
        parts = []
        for i, c in enumerate(a):
            if c:
                if i == 0:
                    parts.append(str(c))
                elif i == 1:
                    parts.append("%s*z" % c)
                else:
                    parts.append("%s*z^%d" % (c, i))
        return " + ".join(parts)


def _eigenvector_over_field(m, field):
    """Nonzero v with (M - x I) v = 0 over Q[x]/(p), p a factor of charpoly."""
    n = len(m)
    x = field.reduce([0, 1])
    rows = [[field.reduce([m[i][jcol]]) for jcol in range(n)] for i in range(n)]
    for i in range(n):
        rows[i][i] = _poly_add(rows[i][i], x, -1)
    # Gaussian elimination over the field
    pivots = []
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, n):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(inv, v) for v in rows[r]]
        for i in range(n):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [_poly_add(v, field.mul(f, w), -1)
                           for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(n) if c not in pivots]
    if not free:
        raise InternalFault("no eigenvector over the factor field")
    v = [[] for _ in range(n)]
    fcol = free[0]
    v[fcol] = field.reduce([1])
    for rr, pc in enumerate(pivots):
        v[pc] = [-c for c in rows[rr][fcol]]
    return v


class PairCheck:
    """Exact isotropy certificate for the real 2-planes of one conjugate
    eigenvalue pair: records omega(v, v-bar) in the factor field."""

    __slots__ = ("factor", "value_str", "nonzero")

    def __init__(self, factor, value_str, nonzero):
        self.factor = factor
        self.value_str = value_str
        self.nonzero = nonzero

    def __repr__(self):
        return "PairCheck(factor=%s, omega(v, conj v)=%s, nonzero=%s)" % (
            self.factor, self.value_str, self.nonzero)


class SearchReport:
    __slots__ = ("found", "rational_eigenvalues", "candidates_tested",
                 "pair_checks", "notes")

    def __init__(self):
        self.found = None
        self.rational_eigenvalues = []
        self.candidates_tested = 0
        self.pair_checks = []
        self.notes = []


def invariant_lagrangian_search(m, bound=None):
    """Search for an M-invariant rational Lagrangian; None when exhausted.

    Candidates are assembled from generalized eigenspaces of the rational
    eigenvalues and from whole primary components of the other irreducible
    factors of the characteristic polynomial, then filtered by isotropy and
    saturation.  A returned Lagrangian is always genuinely invariant and
    Lagrangian; a None answer is exhaustive only over this candidate family.
    """
    return invariant_lagrangian_report(m, bound).found


def invariant_lagrangian_report(m, bound=None, *, poly=None):
    """The search of `invariant_lagrangian_search`, with its counts, pair
    certificates and notes.  A caller that has checked `is_symplectic(m)`
    may pass poly=charpoly(m)."""
    if bound is not None and bound < 1:
        raise PreconditionError("bound must be >= 1")
    poly = _symplectic_charpoly(m, poly)
    n = len(m)
    g = n // 2
    if g > 3:
        raise GenusTooLargeError("search supports genus <= 3, got %d" % g)
    report = SearchReport()
    option_sets = []   # per factor: list of (dim, rows)
    for fc, mult in _factor_reciprocal(poly):  # monic, highest first
        # a rational eigenvalue offers every subset of the kernel basis of
        # each power of M - root; any other factor only its whole primary
        # component.  Kernel bases are Hermite rows, and so are their subsets.
        rational = len(fc) == 2
        if rational:
            report.rational_eigenvalues.append(-fc[1])
        options, seen = [(0, [])], set()
        pm, power = poly_eval_matrix(fc, m), identity_matrix(n)
        for level in range(1, mult + 1):
            power = mat_mul(power, pm)
            if not rational and level < mult:
                continue
            basis = int_kernel_basis(power, n)
            sizes = range(1, len(basis) + 1) if rational else [len(basis)]
            for rows in (c for size in sizes for c in combinations(basis, size)):
                key = tuple(map(tuple, rows))
                if key not in seen:
                    seen.add(key)
                    options.append((len(rows), [list(r) for r in rows]))
        option_sets.append(options)
        if rational:
            continue
        # certificate: the real 2-planes of a conjugate pair are isotropic
        # iff omega(v, v-bar) = 0; record the exact field value
        if fc == fc[::-1]:
            field = _Field(fc[::-1])
            v = _eigenvector_over_field(m, field)
            xinv = field.inv(field.reduce([0, 1]))
            vbar = [field.subst(c, xinv) for c in v]
            s = []
            for i in range(g):
                s = _poly_add(s, field.mul(v[i], vbar[g + i]))
                s = _poly_add(s, field.mul(v[g + i], vbar[i]), -1)
            report.pair_checks.append(
                PairCheck(_poly_str(fc), field.to_str(s), bool(s)))
        else:
            report.notes.append(
                "factor %s is not reciprocal; no pair certificate" % _poly_str(fc))

    for choice in product(*option_sets):
        total = sum(dim for dim, _ in choice)
        if total != g:
            continue
        if report.candidates_tested == bound:
            report.notes.append("candidate bound reached")
            break
        report.candidates_tested += 1
        sat = saturate_rows([r for _, rs in choice for r in rs], n)
        if len(sat) != g:
            continue
        try:
            lag = Lagrangian(g, sat)
        except NotIsotropicError:
            continue
        if not is_invariant(m, lag):
            continue
        report.found = lag
        return report
    return report
