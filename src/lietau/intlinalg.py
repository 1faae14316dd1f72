"""Exact integer and rational linear algebra at desk scale.

Everything here is hand-rolled over Python ints and Fractions: xgcd-pivot
echelon lattices with membership and combination tracking, Hermite and Smith
forms, Bareiss determinants, and characteristic polynomials.
"""

from bisect import bisect_left
from fractions import Fraction


def xgcd(a, b):
    """(x, y, g) with x*a + y*b == g == gcd(a, b), g >= 0 when (a, b) != (0, 0)."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


class IntLattice:
    """Row lattice in Z^N kept in echelon form with positive pivots.

    Insertion uses xgcd pivot combination, so the stored rows always form a
    basis of the lattice generated by everything inserted so far.  When
    ``track`` is set, every row carries its expression as an integer
    combination of the inserted vectors (by tag).
    """

    def __init__(self, ncols, track=False):
        self.N = ncols
        self.rows = []
        self.combos = [] if track else None
        self.pivots = []          # pivot column of each row, ascending
        self._pivot_row = {}      # pivot column -> row index

    @property
    def rank(self):
        return len(self.rows)

    def _addmul_combo(self, dst, src, factor):
        if self.combos is None:
            return
        for tag, c in src.items():
            v = dst.get(tag, 0) + factor * c
            if v:
                dst[tag] = v
            else:
                dst.pop(tag, None)

    def add(self, vec, tag=None):
        """Insert a vector; returns True when the lattice changed.

        The lattice changes when a new pivot appears or when a gcd step
        shrinks the index (the vector was not already a member); a vector
        already in the lattice reduces away by exact divisions only.
        """
        vec = list(vec)
        if len(vec) != self.N:
            raise ValueError("vector length %d != %d" % (len(vec), self.N))
        combo = {tag: 1} if self.combos is not None else None
        changed = False
        j = 0
        while j < self.N:
            if not vec[j]:
                j += 1
                continue
            p = self._pivot_row.get(j)
            if p is None:
                if vec[j] < 0:
                    vec = [-v for v in vec]
                    if combo is not None:
                        combo = {t: -c for t, c in combo.items()}
                where = bisect_left(self.pivots, j)
                self.rows.insert(where, vec)
                self.pivots.insert(where, j)
                if self.combos is not None:
                    self.combos.insert(where, combo)
                self._pivot_row = {c: i for i, c in enumerate(self.pivots)}
                return True
            row = self.rows[p]
            a, b = row[j], vec[j]
            if b % a == 0:
                q = b // a
                for jj in range(j, self.N):
                    vec[jj] -= q * row[jj]
                if combo is not None:
                    rc = self.combos[p]
                    self._addmul_combo(combo, rc, -q)
            else:
                changed = True
                x, y, g = xgcd(a, b)
                ag, bg = a // g, b // g
                for jj in range(j, self.N):
                    ra, va = row[jj], vec[jj]
                    row[jj] = x * ra + y * va
                    vec[jj] = -bg * ra + ag * va
                if combo is not None:
                    rc = self.combos[p]
                    new_rc = {}
                    self._addmul_combo(new_rc, rc, x)
                    self._addmul_combo(new_rc, combo, y)
                    new_combo = {}
                    self._addmul_combo(new_combo, rc, -bg)
                    self._addmul_combo(new_combo, combo, ag)
                    self.combos[p] = new_rc
                    combo = new_combo
            j += 1
        return changed

    def member_combo(self, vec):
        """If vec is in the lattice, an {tag: coeff} expression for it; else None.

        Requires combination tracking.
        """
        if self.combos is None:
            raise ValueError("lattice built without tracking")
        vec = list(vec)
        acc = {}
        for j in range(self.N):
            if not vec[j]:
                continue
            p = self._pivot_row.get(j)
            if p is None:
                return None
            a = self.rows[p][j]
            if vec[j] % a:
                return None
            q = vec[j] // a
            row = self.rows[p]
            for jj in range(j, self.N):
                vec[jj] -= q * row[jj]
            self._addmul_combo(acc, self.combos[p], q)
        return acc

    def contains(self, vec):
        vec = list(vec)
        for j in range(self.N):
            if not vec[j]:
                continue
            p = self._pivot_row.get(j)
            if p is None or vec[j] % self.rows[p][j]:
                return False
            q = vec[j] // self.rows[p][j]
            row = self.rows[p]
            for jj in range(j, self.N):
                vec[jj] -= q * row[jj]
        return True

    def reduce_mod(self, vec):
        """Canonical coset representative: floor-reduce at each pivot column."""
        vec = list(vec)
        for i, j in enumerate(self.pivots):
            if vec[j]:
                q = vec[j] // self.rows[i][j]
                if q:
                    row = self.rows[i]
                    for jj in range(j, self.N):
                        vec[jj] -= q * row[jj]
        return vec

    def matrix(self):
        return [row[:] for row in self.rows]


def smith_divisors(rows):
    """Nonzero diagonal entries of the Smith normal form (no transforms)."""
    a = [list(map(int, r)) for r in rows]
    if not a or not a[0]:
        return []
    m, n = len(a), len(a[0])
    divisors = []
    top = 0
    while top < min(m, n):
        # find a nonzero entry at or below/right of (top, top)
        found = None
        for i in range(top, m):
            for j in range(top, n):
                if a[i][j]:
                    found = (i, j)
                    break
            if found:
                break
        if not found:
            break
        i, j = found
        a[top], a[i] = a[i], a[top]
        for r in a:
            r[top], r[j] = r[j], r[top]
        while True:
            # clear column `top`; exact division is pure elimination, which
            # leaves the pivot row untouched, so only gcd steps can re-dirty
            for i in range(top + 1, m):
                if a[i][top]:
                    if a[i][top] % a[top][top] == 0:
                        q = a[i][top] // a[top][top]
                        for jj in range(n):
                            a[i][jj] -= q * a[top][jj]
                    else:
                        x, y, g = xgcd(a[top][top], a[i][top])
                        p, q = a[top][top] // g, a[i][top] // g
                        for jj in range(n):
                            u, v = a[top][jj], a[i][jj]
                            a[top][jj] = x * u + y * v
                            a[i][jj] = -q * u + p * v
            # clear row `top`
            for j in range(top + 1, n):
                if a[top][j]:
                    if a[top][j] % a[top][top] == 0:
                        q = a[top][j] // a[top][top]
                        for ii in range(m):
                            a[ii][j] -= q * a[ii][top]
                    else:
                        x, y, g = xgcd(a[top][top], a[top][j])
                        p, q = a[top][top] // g, a[top][j] // g
                        for ii in range(m):
                            u, v = a[ii][top], a[ii][j]
                            a[ii][top] = x * u + y * v
                            a[ii][j] = -q * u + p * v
            if (all(a[i][top] == 0 for i in range(top + 1, m))
                    and all(a[top][j] == 0 for j in range(top + 1, n))):
                break
        # ensure divisibility into the remaining block
        d = abs(a[top][top])
        fixed = False
        for i in range(top + 1, m):
            for j in range(top + 1, n):
                if a[i][j] % d:
                    for jj in range(n):
                        a[top][jj] += a[i][jj]
                    fixed = True
                    break
            if fixed:
                break
        if fixed:
            continue
        divisors.append(d)
        top += 1
    return divisors


def bareiss_det(mat):
    """Exact determinant of a square integer matrix."""
    a = [list(map(int, r)) for r in mat]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not a[k][k]:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


def charpoly(mat):
    """Coefficients [1, c_{n-1}, ..., c_0] of det(xI - M), exact integers."""
    n = len(mat)
    m = [[Fraction(v) for v in row] for row in mat]
    coeffs = [Fraction(1)]
    mk = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        mk = mat_mul(m, mk)
        tr = sum(mk[i][i] for i in range(n))
        c = -tr / k
        coeffs.append(c)
        for i in range(n):
            mk[i][i] += c
    out = []
    for c in coeffs:
        if c.denominator != 1:
            raise AssertionError("non-integer characteristic coefficient")
        out.append(int(c))
    return out


def mat_mul(a, b):
    n, mdim, p = len(a), len(b), len(b[0])
    return [[sum(a[i][k] * b[k][j] for k in range(mdim)) for j in range(p)]
            for i in range(n)]


def mat_vec(a, v):
    return [sum(a[i][k] * v[k] for k in range(len(v))) for i in range(len(a))]


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(a):
    return [list(col) for col in zip(*a)]


def poly_eval_matrix(coeffs, mat):
    """p(M) for p given by coefficients [c_k, ..., c_0] (leading first)."""
    n = len(mat)
    acc = [[0] * n for _ in range(n)]
    for c in coeffs:
        acc = mat_mul(acc, mat)
        for i in range(n):
            acc[i][i] += c
    return acc


def hnf_with_transform(rows, ncols):
    """(H, U) with U unimodular, U * rows = H in echelon form."""
    m = len(rows)
    a = [list(map(int, r)) for r in rows]
    u = identity_matrix(m)
    rank = 0
    for j in range(ncols):
        piv = None
        for i in range(rank, m):
            if a[i][j]:
                piv = i
                break
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        u[rank], u[piv] = u[piv], u[rank]
        for i in range(rank + 1, m):
            while a[i][j]:
                x, y, g = xgcd(a[rank][j], a[i][j])
                p, q = a[rank][j] // g, a[i][j] // g
                a[rank], a[i] = ([x * r + y * s for r, s in zip(a[rank], a[i])],
                                 [-q * r + p * s for r, s in zip(a[rank], a[i])])
                u[rank], u[i] = ([x * r + y * s for r, s in zip(u[rank], u[i])],
                                 [-q * r + p * s for r, s in zip(u[rank], u[i])])
        if a[rank][j] < 0:
            a[rank] = [-v for v in a[rank]]
            u[rank] = [-v for v in u[rank]]
        rank += 1
    return a, u


def int_kernel_basis(mat, ncols):
    """Rows spanning {x in Z^ncols : mat . x = 0}; always a saturated lattice."""
    if not mat:
        return hermite_rows(identity_matrix(ncols), ncols)
    cols = transpose(mat)  # cols[j] is the j-th column of mat, one per unknown
    h, u = hnf_with_transform(cols, len(mat))
    out = []
    for i, row in enumerate(h):
        if all(v == 0 for v in row):
            out.append(u[i])
    return hermite_rows(out, ncols)


def hermite_rows(rows, ncols):
    """Canonical HNF rows (drops the zero rows); used for lattice equality.

    Above-pivot reduction runs left to right so later reductions never touch
    an already-reduced pivot column.
    """
    lat = IntLattice(ncols)
    for r in rows:
        lat.add(list(r))
    out = lat.matrix()
    for i in range(len(out)):
        j = lat.pivots[i]
        p = out[i][j]
        for i2 in range(i):
            q = out[i2][j] // p
            if q:
                for jj in range(ncols):
                    out[i2][jj] -= q * out[i][jj]
    return out


def saturate_rows(rows, ncols):
    """Canonical basis of the saturation (rowspace_Q intersected with Z^n)."""
    if not rows:
        return []
    ker = int_kernel_basis([list(r) for r in rows], ncols)
    if not ker:
        return hermite_rows(identity_matrix(ncols), ncols)
    return int_kernel_basis(ker, ncols)

