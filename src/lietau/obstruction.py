"""The handlebody obstruction through the Lagrangian-adapted grading.

For a handlebody whose homology kernel is a Lagrangian L, pick a symplectic
basis x_1..x_g, y_1..y_g adapted to L and grade everything by the number of
occurrences of the kernel-side letters x_i.  The induced map kills exactly
the positive grades, so the obstruction vanishes iff the grade-0 component
of the Johnson value does.

Grade 0 needs neither the adapted basis nor a reduction.  Row g+i of S^-1 is
omega(x_i, .), so the y-side coordinates of a vector v are its image
pi(v) = sum_i omega(x_i, v) b_i in H/L.  The x-free part of a substitution
is the substitution by the images' y-parts alone.  And the symplectic class
is sum_i [x_i, y_i] in any adapted basis, so every term of every element of
its ideal has an x-letter: reducing modulo the ideal moves positive grades
only.  `_handlebody_image` therefore applies pi to every tensor index and
every leaf of the reduced value and stops there; `grade_decompose` keeps the
full split, which the CLI prints.
"""

from .errors import DimensionMismatchError, PreconditionError
from .hall import HallTree
from .johnson import TauValue, tau
from .lie import LieElement, substitute, x_count_split
from .symplectic import Lagrangian, adapt_symplectic_basis


def _symplectic_inverse(s, g):
    """S^-1 = -J S^T J for integer symplectic S = [[A, B], [C, D]]: the
    signed block transpose [[D^T, -B^T], [-C^T, A^T]]."""
    swap = list(range(g, 2 * g)) + list(range(g))
    sign = [1] * g + [-1] * g
    return [[sign[r] * sign[c] * s[swap[c]][swap[r]] for c in range(2 * g)]
            for r in range(2 * g)]


def _check_reduced(value, lagrangian):
    if value.free:
        raise PreconditionError("grade decomposition expects a surface-reduced value")
    if lagrangian.genus != value.model.genus:
        raise DimensionMismatchError(
            "Lagrangian of genus %d for a value of genus %d"
            % (lagrangian.genus, value.model.genus))


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
    _check_reduced(value, lagrangian)
    model = value.model
    g = model.genus
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


def _handlebody_image(value, lagrangian):
    """The image of a surface-reduced value under pi: H -> H/L, written in the
    letters b_i = y_i (index g + i); term for term it is
    `grade_decompose(value, lagrangian).component(0)`."""
    _check_reduced(value, lagrangian)
    g = lagrangian.genus
    # pairs[c][i] = omega(x_i, e_c), the b_i coordinate of pi(e_c)
    pairs = [[-x[c + g] if c < g else x[c - g] for x in lagrangian.rows]
             for c in range(2 * g)]
    leaves = [HallTree.make_leaf(g + i) for i in range(g)]
    images = [LieElement(1, zip(leaves, row)) for row in pairs]
    terms = {}
    for m, e in value.terms.items():
        if not any(pairs[m]):
            continue
        sub = substitute(e, images)
        if sub.is_zero():
            continue
        for i, c in enumerate(pairs[m]):
            if c:
                terms[g + i] = (terms[g + i] + sub.scale(c) if g + i in terms
                                else sub.scale(c))
    return TauValue(value.model, value.k, False, terms)


def obstruction_vanishes(f, k, lagrangian):
    """True iff the image of tau_k(f) dies in the handlebody with kernel L.

    The ideal killed by the filling is generated in positive grades, so the
    grade-0 component decides.
    """
    value = tau(f, k)
    return value_obstruction_vanishes(value, lagrangian)


def value_obstruction_vanishes(value, lagrangian):
    return _handlebody_image(value, lagrangian).is_zero()


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
