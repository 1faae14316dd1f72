"""The handlebody obstruction through the Lagrangian-adapted grading.

For a handlebody whose homology kernel is a Lagrangian L, pick a symplectic
basis x_1..x_g, y_1..y_g adapted to L and grade everything by the number of
occurrences of the kernel-side letters x_i.  The induced map kills exactly
the positive grades, so the obstruction vanishes iff the grade-0 component
of the Johnson value does.

The adapted coordinates are read off the form: the x_i-coordinate of v is
omega(v, y_i) = -dual(y_i) . v and its y_i-coordinate is
omega(x_i, v) = dual(x_i) . v, so these 2g covectors are the rows of S^-1.

Grade 0 needs neither the adapted basis nor a reduction.  The y-side
coordinates of v are its image pi(v) = sum_i omega(x_i, v) b_i in H/L, and
the x-free part of a substitution is the substitution by the images' y-parts
alone.  And the symplectic class is sum_i [x_i, y_i] in any adapted basis,
so every term of every element of its ideal has an x-letter: reducing modulo
the ideal moves positive grades only.  So the grade-0 component is pi
applied to the tensor index and every leaf of the reduced value.

Nor does it need Hall rewriting.  The free Lie ring over Z embeds in the
free associative ring ([u, v] -> uv - vu, `lie.expand`), and pi commutes
with that embedding, so the image dies exactly when pi kills the value's
tensor expansion {(m, i_1, ..., i_k): c}.  A scan expands the value
once and applies pi to every slot of it for each Lagrangian;
`grade_decompose` keeps the full split in Hall coordinates, which the CLI
prints.
"""

from functools import lru_cache
from itertools import product
from math import prod

from .errors import DimensionMismatchError, PreconditionError
from .hall import HallTree
from .johnson import TauValue, tau
from .lie import LieElement, expand, substitute, x_count_split
from .symplectic import Lagrangian, adapt_symplectic_basis, dual


def _check_reduced(value, lagrangian):
    if value.free:
        raise PreconditionError("grade decomposition expects a surface-reduced value")
    if lagrangian.genus != value.model.genus:
        raise DimensionMismatchError(
            "Lagrangian of genus %d for a value of genus %d"
            % (lagrangian.genus, value.model.genus))


class GradedDecomposition:
    """Components of a Johnson value by kernel-letter count, in the letters
    of a basis adapted to the Lagrangian: `total` is the value rewritten in
    those letters and re-reduced, and the components sum back to it."""

    __slots__ = ("model", "k", "components", "total")

    def __init__(self, model, k, components, total):
        self.model = model
        self.k = k
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
    cols = list(zip(*adapt_symplectic_basis(lagrangian)))  # x_i, then y_i
    coords = ([[-v for v in dual(y)] for y in cols[g:]]
              + [dual(x) for x in cols[:g]])
    total = _change_letters(value, coords)
    parts = {}
    for m, e in total.terms.items():
        base = 1 if m < g else 0
        for i, part in x_count_split(e, g).items():
            parts.setdefault(base + i, {})[m] = part
    components = {i: TauValue(model, value.k, False, tm)
                  for i, tm in parts.items()}
    return GradedDecomposition(model, value.k, components, total)


def _change_letters(value, rows):
    """The value with each tensor index and leaf m replaced by sum_j
    rows[j][m] letter(j): the rows of S^-1, an automorphism, kill no term."""
    leaves = [HallTree.make_leaf(j) for j in range(len(rows))]
    images = [LieElement(1, zip(leaves, col)) for col in zip(*rows)]
    terms = {}
    for m, e in value.terms.items():
        sub = substitute(e, images)
        for j, c in enumerate(row[m] for row in rows):
            if c:
                terms[j] = (terms[j] + sub.scale(c) if j in terms
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
    _check_reduced(value, lagrangian)
    return _image_vanishes(_tensor_expansion(value), lagrangian)


def _tensor_expansion(value):
    """The value in the tensor algebra, {(m, i_1, ..., i_k): c} for index m."""
    return {(m,) + mono: c for m, e in value.terms.items()
            for mono, c in expand(e).items()}


def _image_vanishes(expansion, lagrangian):
    """True iff pi: H -> H/L, letter l -> sum_i dual(x_i)[l] b_i, applied to
    every slot kills the expansion.  A monomial maps to the sum, over every
    choice of one term from each of its letters' images, of the product; one
    with a letter in L, whose image is empty, maps to zero and is skipped up
    front."""
    covectors = [dual(x) for x in lagrangian.rows]
    index, coeff = [], []
    for l in range(2 * lagrangian.genus):
        index.append([i for i, cov in enumerate(covectors) if cov[l]])
        coeff.append([cov[l] for cov in covectors if cov[l]])
    dead = {l for l, ii in enumerate(index) if not ii}
    image = {}
    for key, c in expansion.items():
        if dead.isdisjoint(key):
            for new, ds in zip(product(*map(index.__getitem__, key)),
                               product(*map(coeff.__getitem__, key))):
                image[new] = image.get(new, 0) + c * prod(ds)
    return not any(image.values())


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
    mirror over the beta side: the same rows with the halves swapped.
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
                out.append(Lagrangian(g, [r[g:] + r[:g] for r in rows]))
    return out


@lru_cache(maxsize=None)
def _base_family(g, height):
    """The coordinate and perturbed Lagrangians: they depend only on
    (g, height), so each is built once."""
    return tuple(coordinate_lagrangians(g) + perturbed_lagrangians(g, height))


def scan_family(g, height=2, extra=()):
    seen = set()
    family = []
    for lag in _base_family(g, height) + tuple(extra):
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
    for lag in family:
        _check_reduced(value, lag)
    expansion = _tensor_expansion(value)
    return ScanReport(k, [(lag, _image_vanishes(expansion, lag))
                          for lag in family])
