"""The Witt/Levine feasibility region and the pure-braid layer ranks.

The obstruction-counting inequality compares the dimension g(g+1)/2 of the
space of Lagrangian kernels against the rank that point-push classes
contribute, which is a sum of Witt numbers over sub-braid layers.
"""

from math import comb

from .errors import InternalFault
from .hall import witt


def region_lhs(g):
    return g * (g + 1) // 2


def purebraid_rank(k, g):
    """Rank of the weight-k layer of the pure braid group on g strands.

    Splitting off one strand at a time exactly (the conjugation action lands
    in commutators, so the layer sequences stay exact) gives the sum of free
    layers: sum over m = 3..g of witt(k, m-1).
    """
    if k < 1:
        raise ValueError("weight must be >= 1")
    if g < 2:
        raise ValueError("strand count must be >= 2")
    return sum(witt(k, m - 1) for m in range(3, g + 1))


def region_rhs(k, g):
    """Lower bound for the rank of the handlebody-pushed Johnson image.

    For k >= 3 this is the pure-braid layer rank; at k = 2 the image is
    known exactly and its dimension binom(g, 3) happens to equal the same
    sum, so one formula serves the whole table.
    """
    if k < 2:
        raise ValueError("weight must be >= 2")
    if g < 2:
        raise ValueError("genus must be >= 2")
    if g < 3:
        return 0
    rhs = purebraid_rank(k, g)
    if k == 2 and rhs != comb(g, 3):
        raise InternalFault("pure-braid rank at k = 2 is not C(%d, 3)" % g)
    return rhs


def region_holds(k, g):
    """g(g+1)/2 < region_rhs(k, g), plus how the verdict is derivable."""
    holds = region_lhs(g) < region_rhs(k, g)
    return holds, _provenance(k, g, holds)


def _provenance(k, g, holds):
    if not holds:
        return "explicit"
    # weight monotonicity: layer ranks are nondecreasing in k for rank >= 2
    if k >= 3 and g >= 3 and region_lhs(g) < region_rhs(k - 1, g):
        return "monotone-k"
    # genus monotonicity along k = 3: the increment witt(3, g-1) covers g+1
    if k == 3 and g >= 4 and region_lhs(g - 1) < region_rhs(3, g - 1):
        return "monotone-g"
    # k = 2 holds for every genus from 7 on
    if k == 2 and g >= 8 and region_lhs(g - 1) < region_rhs(2, g - 1):
        return "monotone-g"
    return "explicit"


class RegionCell:
    __slots__ = ("k", "g", "lhs", "rhs", "holds", "provenance")

    def __init__(self, k, g):
        self.k = k
        self.g = g
        self.lhs = region_lhs(g)
        self.rhs = region_rhs(k, g)
        self.holds, self.provenance = region_holds(k, g)

    def to_json(self):
        return {"k": self.k, "g": self.g, "lhs": self.lhs, "rhs": self.rhs,
                "holds": self.holds, "provenance": self.provenance}

    def __repr__(self):
        return "RegionCell(k=%d, g=%d, %d %s %d, %s)" % (
            self.k, self.g, self.lhs, "<" if self.holds else "!<", self.rhs,
            self.provenance)


def region_table(kmax, gmax):
    """Every cell with 2 <= k <= kmax, 2 <= g <= gmax, k descending."""
    if kmax < 2 or gmax < 2:
        raise ValueError("bounds must be >= 2")
    return [RegionCell(k, g)
            for k in range(kmax, 1, -1) for g in range(2, gmax + 1)]


def tau2_image_dims(g):
    """(dimension of the weight-2 image, its grade-0 part for the standard
    Lagrangian): the image is the third exterior power of homology modulo
    the wedge line of the symplectic class."""
    if g < 1:
        raise ValueError("genus must be >= 1")
    total = comb(2 * g, 3) - (2 * g if g >= 2 else 0)
    return total, comb(g, 3)


def rhs_csv(kmax, gmax):
    """The feasibility grid plus the Lagrangian-dimension row, as CSV."""
    lines = ["k\\g," + ",".join(str(g) for g in range(2, gmax + 1))]
    for k in range(kmax, 1, -1):
        lines.append("%d," % k + ",".join(
            str(region_rhs(k, g)) for g in range(2, gmax + 1)))
    lines.append("g(g+1)/2," + ",".join(
        str(region_lhs(g)) for g in range(2, gmax + 1)))
    return "\n".join(lines) + "\n"


def holds_csv(kmax, gmax):
    lines = ["k\\g," + ",".join(str(g) for g in range(2, gmax + 1))]
    for k in range(kmax, 1, -1):
        row = []
        for g in range(2, gmax + 1):
            holds, prov = region_holds(k, g)
            row.append(("holds:" + prov) if holds else "fails")
        lines.append("%d," % k + ",".join(row))
    return "\n".join(lines) + "\n"


def region_text_table(kmax, gmax):
    """Human-oriented fixed-width rendering of both tables."""
    width = max(len(str(region_rhs(k, g)))
                for k in range(2, kmax + 1) for g in range(2, gmax + 1)) + 1
    width = max(width, 6)
    out = []
    header = "  k\\g |" + "".join(str(g).rjust(width) for g in range(2, gmax + 1))
    out.append(header)
    out.append("-" * len(header))
    for k in range(kmax, 1, -1):
        row = str(k).rjust(5) + " |"
        for g in range(2, gmax + 1):
            holds, _ = region_holds(k, g)
            cell = str(region_rhs(k, g)) + ("*" if holds else "")
            row += cell.rjust(width)
        out.append(row)
    out.append("-" * len(header))
    row = "g(g+1)/2".rjust(5) + "|"
    for g in range(2, gmax + 1):
        row += str(region_lhs(g)).rjust(width)
    out.append(row)
    out.append("(* = inequality holds)")
    return "\n".join(out) + "\n"
