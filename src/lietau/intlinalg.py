"""Exact integer linear algebra at desk scale.

Everything here is hand-rolled over Python ints; no Fraction is needed.
`IntLattice` is the one echelon engine: it keeps a row lattice in echelon
form with xgcd pivots, with membership, canonical coset representatives,
torsion and, on request, combination tracking.  A tracked lattice also
records the combinations of inserted vectors that reduce to zero; its xgcd
steps are unimodular, so these relations span the integer kernel (Cohen,
GTM 138, section 2.4), and `int_kernel_basis` and `saturate_rows` are built
on them.  It is the only elimination here: Hermite rows, Smith divisors
and kernels are all read from lattices, and only the characteristic
polynomial (Faddeev-LeVerrier, whose traces divide exactly) is computed
beside it.  Fractions remain only in the number-field arithmetic of
`symplectic`, which is rational by nature.

Lattice rows are sparse and packed: each is one flat tuple
``(pivot column, pivot, column, value, ...)`` of its nonzero entries, the
pivot pair first, keyed by its pivot column; a tuple of a few pairs takes a
third of the memory of a dict.  Insertion reduces a vector, held as a
{column: value} dict, at its least nonzero column, by exact division when
the pivot divides it and by an xgcd step otherwise, so the rows are exactly
those of dense echelon elimination in column order; bracket vectors fill few
columns of their block, and so do the rows.  The least column is found by
`min` over the dict at each step: a worklist of sorted columns, fed the
columns that row subtraction brings in, visits each column once, but its
bookkeeping per new column cost more than the C-level scan it saves once
rows fill in (about 4 new columns a step at genus 3, weight 7).

Torsion skips the unit pivots (Cohen, GTM 138, section 2.4; Dumas, Saunders
and Villard, J. Symbolic Comput. 32, 2001).  The rows with pivot 1 span a
direct summand: reducing every other row by them, in ascending pivot order,
clears their pivot columns, and column operations then clear the rest of
the unit rows, so Z^N/L = Z^(N-u)/L' with L' spanned by the reduced non-unit
rows restricted to the other columns.  The Smith form runs on that small
matrix only.
"""

from bisect import insort
from math import gcd

from .errors import InternalFault


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


def _sparse(vec, n):
    """A fresh {column: value} copy of vec without zeros; vec is such a dict
    or a dense sequence of length n."""
    if isinstance(vec, dict):
        return {j: v for j, v in vec.items() if v}
    if len(vec) != n:
        raise ValueError("vector length %d != %d" % (len(vec), n))
    return {j: v for j, v in enumerate(vec) if v}


def _pairs(row):
    """The (column, value) pairs of a packed row, the pivot pair first."""
    it = iter(row)
    return zip(it, it)


def _pack(j, vec):
    """The packed row of vec, a {column: value} dict without zeros whose
    least column is j, scaled by -1 if needed to make its pivot positive."""
    s = 1 if vec[j] > 0 else -1
    row = [j, s * vec[j]]
    for c, v in vec.items():
        if c != j:
            row += (c, s * v)
    return tuple(row)


def _dense(pairs, n):
    """The (column, value) pairs as a dense list of length n."""
    out = [0] * n
    for j, v in pairs:
        out[j] = v
    return out


def _addmul(dst, pairs, factor):
    """dst += factor * src on a {key: int} dict, for src given by its
    (key, value) pairs; drops zeros."""
    for key, c in pairs:
        v = dst.get(key, 0) + factor * c
        if v:
            dst[key] = v
        else:
            dst.pop(key, None)


def _lincomb(x, u, y, v):
    """x*u + y*v as a new {key: int} dict without zeros."""
    out = {key: x * c for key, c in u.items()} if x else {}
    if y:
        _addmul(out, v.items(), y)
    return out


class IntLattice:
    """Row lattice in Z^N kept in echelon form with positive pivots.

    ``pivots`` lists the pivot columns in ascending order and ``rows`` maps
    each to its packed row ``(pivot column, pivot, column, value, ...)``,
    one flat tuple of the row's nonzero entries with the pivot pair first
    (see the module docstring); `pivot` reads a row's pivot.  Vectors are
    given as dense sequences or as {column: value} dicts.  Insertion uses
    xgcd pivot combination, so the rows always form a basis of the lattice
    generated by everything inserted so far.  When ``track`` is set,
    ``combos`` maps each pivot column to its row's expression, a {tag:
    coeff} dict, as an integer combination of the inserted vectors (by
    tag), and ``relations`` lists, for every inserted vector that reduced
    to zero, its combination; the relations span the integer kernel of the
    inserted vectors.
    """

    def __init__(self, ncols, track=False):
        self.N = ncols
        self.rows = {}            # pivot column -> packed row
        self.combos = {} if track else None
        self.relations = [] if track else None
        self.pivots = []          # ascending

    @property
    def rank(self):
        return len(self.pivots)

    def pivot(self, j):
        """The pivot of the row whose pivot column is j."""
        return self.rows[j][1]

    def add(self, vec, tag=None, owned=False):
        """Insert a vector; returns True when the lattice changed.

        The lattice changes when a new pivot appears or when a gcd step
        shrinks the index (the vector was not already a member); a vector
        already in the lattice reduces away by exact divisions only.  A
        dict without zeros is read as given and copied only when a step
        changes it, so a dict given is never modified; with ``owned`` set,
        vec is a fresh dict without zeros that the caller hands over, and
        it is reduced in place with no scan for zeros and no copy.
        """
        own = owned or not isinstance(vec, dict) or 0 in vec.values()
        if own and not owned:
            vec = _sparse(vec, self.N)
        rows, combos = self.rows, self.combos
        combo = {tag: 1} if combos is not None else None
        changed = False
        while vec:
            j = min(vec)
            row = rows.get(j)
            if row is None:
                if vec[j] < 0 and combo is not None:
                    combo = {t: -c for t, c in combo.items()}
                rows[j] = _pack(j, vec)
                insort(self.pivots, j)
                if combos is not None:
                    combos[j] = combo
                return True
            a, b = row[1], vec[j]
            if b % a == 0:
                q = b // a
                if not own:
                    vec, own = dict(vec), True
                # each loop step takes a column, and next(it) its value
                it = iter(row)
                for c in it:
                    v = vec.get(c, 0) - q * next(it)
                    if v:
                        vec[c] = v
                    else:
                        del vec[c]
                if combo is not None:
                    _addmul(combo, combos[j].items(), -q)
            else:
                changed = True
                x, y, g = xgcd(a, b)
                ag, bg = a // g, b // g
                row = dict(_pairs(row))
                rows[j] = _pack(j, _lincomb(x, row, y, vec))
                vec, own = _lincomb(-bg, row, ag, vec), True
                if combo is not None:
                    rc = combos[j]
                    combos[j] = _lincomb(x, rc, y, combo)
                    combo = _lincomb(-bg, rc, ag, combo)
        if combo is not None:
            self.relations.append(combo)
        return changed

    def _divide_out(self, vec, acc):
        """Whether exact pivot divisions take vec to zero; the quotients'
        combinations are added into acc unless it is None."""
        rows = self.rows
        while vec:
            j = min(vec)
            if j not in rows:
                return False
            q, r = divmod(vec[j], self.pivot(j))
            if r:
                return False
            _addmul(vec, _pairs(rows[j]), -q)
            if acc is not None:
                _addmul(acc, self.combos[j].items(), q)
        return True

    def member_combo(self, vec):
        """If vec is in the lattice, an {tag: coeff} expression for it; else None.

        Requires combination tracking.
        """
        if self.combos is None:
            raise ValueError("lattice built without tracking")
        acc = {}
        return acc if self._divide_out(_sparse(vec, self.N), acc) else None

    def contains(self, vec):
        return self._divide_out(_sparse(vec, self.N), None)

    def reduce_mod(self, vec):
        """Canonical coset representative, of the kind vec was given as
        (dense or a dict): floor-reduce at each pivot column, left to right."""
        out = _sparse(vec, self.N)
        for j in self.pivots:
            v = out.get(j)
            if v:
                q = v // self.pivot(j)
                if q:
                    _addmul(out, _pairs(self.rows[j]), -q)
        return out if isinstance(vec, dict) else _dense(out.items(), self.N)

    def torsion(self):
        """The Smith divisors of Z^N / L other than 1, ascending.

        Every non-unit row is reduced by the unit-pivot rows in ascending
        pivot order, and the Smith form runs on those rows alone, over the
        columns they still touch (see the module docstring).
        """
        units = [j for j in self.pivots if self.pivot(j) == 1]
        rest = []
        for j in self.pivots:
            if self.pivot(j) == 1:
                continue
            vec = dict(_pairs(self.rows[j]))
            for u in units:
                v = vec.get(u)
                if v:
                    _addmul(vec, _pairs(self.rows[u]), -v)
            rest.append(vec)
        if not rest:
            return []
        cols = sorted(set().union(*rest))
        return sorted(d for d in smith_divisors(
            [[r.get(c, 0) for c in cols] for r in rest]) if d != 1)

    def matrix(self):
        """The rows as dense lists, in pivot order."""
        return [_dense(_pairs(self.rows[j]), self.N) for j in self.pivots]

    def hermite(self):
        """The rows in Hermite normal form, as dense lists in pivot order:
        every entry above a pivot is reduced into [0, pivot).

        Above-pivot reduction runs left to right so later reductions never
        touch an already-reduced pivot column.
        """
        out = self.matrix()
        for i, j in enumerate(self.pivots):
            p = out[i][j]
            for i2 in range(i):
                q = out[i2][j] // p
                if q:
                    out[i2] = [a - q * b for a, b in zip(out[i2], out[i])]
        return out


def smith_divisors(rows):
    """Nonzero diagonal entries of the Smith normal form, ascending.

    Kannan-Bachem (Cohen, GTM 138, section 2.4): echelon the rows in an
    `IntLattice`, then the rows of the transpose (the columns), and so on
    until every row holds only its pivot.  Each pass is unimodular, so the
    Smith form is kept; a pivot that does not divide the rest of its row
    drops to a proper divisor in the next pass, and one that does has the
    row cleared.  The diagonal then becomes a divisor chain by (gcd, lcm)
    swaps.
    """
    rows = [list(map(int, r)) for r in rows]
    while True:
        lat = IntLattice(len(rows[0]) if rows else 0)
        for r in rows:
            lat.add(r)
        if all(len(lat.rows[j]) == 2 for j in lat.pivots):
            break
        rows = transpose(lat.matrix())
    divisors = [lat.pivot(j) for j in lat.pivots]
    for i in range(len(divisors)):
        for j in range(i + 1, len(divisors)):
            a, b = divisors[i], divisors[j]
            g = gcd(a, b)
            divisors[i], divisors[j] = g, a // g * b
    return divisors


def charpoly(mat):
    """Coefficients [1, c_{n-1}, ..., c_0] of det(xI - M) for an integer M.

    Faddeev-LeVerrier: with M_1 = I, c_{n-k} = -tr(M M_k) / k and
    M_{k+1} = M M_k + c_{n-k} I.  Every M_k is an integer matrix and k
    divides tr(M M_k), so an inexact division is an internal fault.
    """
    n = len(mat)
    coeffs = [1]
    mk = identity_matrix(n)
    for k in range(1, n + 1):
        mk = mat_mul(mat, mk)
        tr = sum(mk[i][i] for i in range(n))
        if tr % k:
            raise InternalFault("characteristic polynomial trace not "
                                "divisible by its index", k=k, trace=tr)
        c = -(tr // k)
        coeffs.append(c)
        for i in range(n):
            mk[i][i] += c
    return coeffs


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


def int_kernel_basis(mat, ncols):
    """Canonical rows spanning {x in Z^ncols : mat . x = 0}, a saturated
    lattice: the relations among the columns of mat, inserted by index into
    a tracked lattice."""
    lat = IntLattice(len(mat), track=True)
    for j in range(ncols):
        lat.add([row[j] for row in mat], j)
    return hermite_rows(lat.relations, ncols)


def hermite_rows(rows, ncols):
    """Canonical HNF rows (drops the zero rows); used for lattice equality."""
    lat = IntLattice(ncols)
    for r in rows:
        lat.add(r)
    return lat.hermite()


def saturate_rows(rows, ncols):
    """Canonical basis of the saturation (rowspace_Q intersected with Z^n)."""
    return int_kernel_basis(int_kernel_basis(rows, ncols), ncols)

