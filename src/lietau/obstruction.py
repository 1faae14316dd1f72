"""The handlebody obstruction through the Lagrangian-adapted grading.

For a handlebody whose homology kernel is a Lagrangian L, pick a symplectic
basis adapted to L and grade everything by the number of occurrences of the
kernel-side letters.  The induced map kills exactly the positive grades, so
the obstruction vanishes iff the grade-0 component of the Johnson value does.
"""

from .errors import DimensionMismatchError, PreconditionError
from .hall import HallTree
from .intlinalg import mat_mul
from .johnson import TauValue, tau
from .lie import LieElement, substitute, x_count_split
from .symplectic import Lagrangian, adapt_symplectic_basis, gram_matrix


def _symplectic_inverse(s, g):
    """S^-1 = -J S^T J, exact for integer symplectic S."""
    n = 2 * g
    j = gram_matrix(g)
    st = [[s[r][c] for r in range(n)] for c in range(n)]
    minus_j = [[-v for v in row] for row in j]
    return mat_mul(minus_j, mat_mul(st, j))


class GradedDecomposition:
    """Components of a Johnson value by kernel-letter count, in the adapted
    coordinates; they always sum back to the substituted input."""

    __slots__ = ("model", "k", "lagrangian", "adapted", "components", "total")

    def __init__(self, model, k, lagrangian, adapted, components, total):
        self.model = model
        self.k = k
        self.lagrangian = lagrangian
        self.adapted = adapted
        self.components = components
        self.total = total

    def component(self, i):
        return self.components.get(i, TauValue.zero(self.model, self.k))

    def grades(self):
        return sorted(self.components)

    def __repr__(self):
        return "GradedDecomposition(k=%d, grades=%r)" % (self.k, self.grades())


def grade_decompose(value, lagrangian):
    """Split a surface-reduced value by occurrences of the Lagrangian side.

    The value is rewritten in a symplectic basis adapted to the Lagrangian
    (an integer change of letters), re-reduced modulo the symplectic ideal,
    which is basis-invariant, and split by the total count of x-letters in
    the tensor factor plus the Lie part.
    """
    if value.free:
        raise PreconditionError("grade decomposition expects a surface-reduced value")
    model = value.model
    g = model.genus
    if lagrangian.genus != g:
        raise DimensionMismatchError(
            "Lagrangian of genus %d for a value of genus %d"
            % (lagrangian.genus, g))
    s = adapt_symplectic_basis(lagrangian)
    sinv = _symplectic_inverse(s, g)
    images = []
    for m in range(2 * g):
        images.append(LieElement(1, [(HallTree.make_leaf(jj), sinv[jj][m])
                                     for jj in range(2 * g)]))
    terms = {}
    for m, e in value.terms.items():
        sub = substitute(e, images)
        for jj in range(2 * g):
            c = sinv[jj][m]
            if c and not sub.is_zero():
                terms[jj] = terms.get(jj, LieElement.zero(value.k)) + sub.scale(c)
    total = TauValue(model, value.k, False, terms).renormalize()
    components = {}
    for m, e in total.terms.items():
        base = 1 if m < g else 0
        for i, part in x_count_split(e, g).items():
            comp = components.setdefault(base + i, {})
            comp[m] = comp.get(m, LieElement.zero(value.k)) + part
    components = {i: TauValue(model, value.k, False, tm)
                  for i, tm in components.items()}
    components = {i: tv for i, tv in components.items() if not tv.is_zero()}
    return GradedDecomposition(model, value.k, lagrangian, s, components, total)


def obstruction_vanishes(f, k, lagrangian):
    """True iff the image of tau_k(f) dies in the handlebody with kernel L.

    The ideal killed by the filling is generated in positive grades, so the
    grade-0 component decides.
    """
    value = tau(f, k)
    return value_obstruction_vanishes(value, lagrangian)


def value_obstruction_vanishes(value, lagrangian):
    gd = grade_decompose(value, lagrangian)
    return gd.component(0).is_zero()


class ScanReport:
    __slots__ = ("k", "scanned", "results", "vanishing")

    def __init__(self, k, results):
        self.k = k
        self.results = results
        self.scanned = len(results)
        self.vanishing = [lag for lag, v in results if v]

    def __repr__(self):
        return "ScanReport(scanned=%d, vanishing=%d)" % (
            self.scanned, len(self.vanishing))


def coordinate_lagrangians(g):
    """The 2^g choices of alpha_i / beta_i per index, in bitmask order."""
    out = []
    for mask in range(1 << g):
        out.append(Lagrangian.coordinate(g, [i for i in range(g) if mask >> i & 1]))
    return out


def perturbed_lagrangians(g, height):
    """Symmetric elementary perturbations of the two coordinate axes.

    For each index pair i <= j and 0 < |c| <= height, the graph Lagrangian
    spanned by alpha_m + c (delta_mi beta_j + delta_mj beta_i), and its
    mirror over the beta side.
    """
    out = []
    n = 2 * g
    for i in range(g):
        for jj in range(i, g):
            for c in [v for h in range(1, height + 1) for v in (h, -h)]:
                rows = []
                for m in range(g):
                    row = [0] * n
                    row[m] = 1
                    if m == i:
                        row[g + jj] += c
                    if m == jj:
                        row[g + i] += c
                    rows.append(row)
                out.append(Lagrangian(g, rows))
                rows = []
                for m in range(g):
                    row = [0] * n
                    row[g + m] = 1
                    if m == i:
                        row[jj] += c
                    if m == jj:
                        row[i] += c
                    rows.append(row)
                out.append(Lagrangian(g, rows))
    return out


def scan_family(g, height=2, extra=()):
    seen = set()
    family = []
    for lag in (list(coordinate_lagrangians(g))
                + perturbed_lagrangians(g, height) + list(extra)):
        if lag.rows not in seen:
            seen.add(lag.rows)
            family.append(lag)
    return family


def robustness_scan(f, k, lagrangians=None, height=2):
    """Evaluate the obstruction over a deterministic family of Lagrangians.

    A nonempty vanishing list certifies non-robustness over the family; an
    empty list is evidence only, since robustness quantifies over all
    handlebodies.
    """
    value = tau(f, k)
    family = scan_family(f.model.genus, height, lagrangians or ())
    results = []
    for lag in family:
        results.append((lag, value_obstruction_vanishes(value, lag)))
    return ScanReport(k, results)
