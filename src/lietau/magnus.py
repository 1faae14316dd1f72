"""Truncated Magnus expansions: the bridge from group words to Lie classes.

A generator maps to 1 + X and its inverse to the truncated geometric series
1 - X + X^2 - ...; the map is multiplicative, and for a word lying in the
k-th lower central term the lowest nonvanishing degree is k and that
component is the word's class in the weight-k layer, re-expressed in the Hall
basis by an exact integer solve against the associative expansions of basic
commutators.  Each leaf-multidegree block keeps those expansions in an
`IntLattice` with combination tracking, and the solve is echelon membership
by exact pivot divisions.  That finds every Lie component's coordinates
because the free Lie ring is a direct summand of the free associative ring
over Z (Reutenauer, Free Lie Algebras, 1993): a component in the Lie span
has integer Hall coordinates, so it lies in the lattice the expansions span.

A word's expansion is built in one left-to-right pass over its letters,
keeping the series S of the prefix read so far split by degree.  A letter
+i adds S X_i to S.  A letter -i multiplies S by 1 - X_i + X_i^2 - ..., that
is adds the sum over j of (-1)^j S X_i^j; by Horner's rule that product is
the T with T = S - T X_i, filled degree by degree upwards.  Both steps touch
each term of S below the cap once and drop everything above it, so a letter
costs O(|S|) and long words never form products of two large series.
"""

from functools import lru_cache

from .errors import InternalFault, PreconditionError
from .hall import basis_block
from .intlinalg import IntLattice
from .lie import LieElement, expand_associative


class MagnusSeries:
    """Integer coefficients on noncommutative monomials up to a degree cap.

    Monomials are tuples of 0-based letter indices.  Truncation is exact: all
    stored degrees are the true coefficients of the full expansion.
    """

    __slots__ = ("cap", "coeffs")

    def __init__(self, cap, coeffs=None):
        if cap < 1:
            raise ValueError("cap must be >= 1")
        object.__setattr__(self, "cap", cap)
        cc = {}
        if coeffs:
            for m, c in (coeffs.items() if isinstance(coeffs, dict) else coeffs):
                if len(m) <= cap and c:
                    cc[tuple(m)] = int(c)
        object.__setattr__(self, "coeffs", cc)

    def __setattr__(self, *a):
        raise AttributeError("MagnusSeries is immutable")

    @staticmethod
    def one(cap):
        return MagnusSeries(cap, {(): 1})

    @staticmethod
    def letter(i, cap, exponent=1):
        if exponent == 1:
            return MagnusSeries(cap, {(): 1, (i,): 1})
        if exponent == -1:
            return MagnusSeries(cap, {(i,) * d: (-1) ** d for d in range(cap + 1)})
        raise ValueError("exponent must be +-1")

    def __eq__(self, other):
        return (isinstance(other, MagnusSeries) and self.cap == other.cap
                and self.coeffs == other.coeffs)

    def __mul__(self, other):
        cap = min(self.cap, other.cap)
        out = {}
        for m1, c1 in self.coeffs.items():
            room = cap - len(m1)
            if room < 0:
                continue
            for m2, c2 in other.coeffs.items():
                if len(m2) > room:
                    continue
                m = m1 + m2
                v = out.get(m, 0) + c1 * c2
                if v:
                    out[m] = v
                else:
                    del out[m]
        s = MagnusSeries.__new__(MagnusSeries)
        object.__setattr__(s, "cap", cap)
        object.__setattr__(s, "coeffs", out)
        return s

    def inverse(self):
        c0 = self.coeffs.get((), 0)
        if c0 not in (1, -1):
            raise ValueError("series with constant term %r has no inverse" % c0)
        n = MagnusSeries(self.cap,
                         {m: c0 * c for m, c in self.coeffs.items() if m != ()})
        # (1 + N)^-1 = 1 - N + N^2 - ... computed by X <- 1 - N X.
        one = MagnusSeries.one(self.cap)
        x = one
        for _ in range(self.cap):
            nx = n * x
            x = MagnusSeries(self.cap,
                             {m: (1 if m == () else 0) - nx.coeffs.get(m, 0)
                              for m in set(nx.coeffs) | {()}})
        if c0 == -1:
            x = MagnusSeries(self.cap, {m: -c for m, c in x.coeffs.items()})
        return x

    def degree_component(self, d):
        return {m: c for m, c in self.coeffs.items() if len(m) == d}

    def min_positive_degree(self):
        best = None
        for m in self.coeffs:
            if m and (best is None or len(m) < best):
                best = len(m)
        return best

    def is_one(self):
        return self.coeffs == {(): 1}

    def __repr__(self):
        items = sorted(self.coeffs.items(), key=lambda mc: (len(mc[0]), mc[0]))
        return "MagnusSeries(cap=%d, %s)" % (self.cap, dict(items))


@lru_cache(maxsize=4096)
def _magnus_cached(w, cap):
    s = MagnusSeries.one(cap)
    by_deg = [s.coeffs] + [{} for _ in range(cap)]
    for x in w.buf:
        # a letter's code x names generator x, or ~x inverted (words.py);
        # +i: degree d + 1 is read before degree d adds into it (S + S X_i);
        # -i: degree d is final before it subtracts from d + 1 (S - T X_i)
        i, sgn, degrees = (((x,), 1, range(cap - 1, -1, -1)) if x >= 0
                           else ((~x,), -1, range(cap)))
        for d in degrees:
            dst = by_deg[d + 1]
            for m, c in by_deg[d].items():
                m += i
                v = dst.get(m, 0) + sgn * c
                if v:
                    dst[m] = v
                else:
                    del dst[m]
    for part in by_deg[1:]:
        s.coeffs.update(part)
    return s


def magnus(w, cap):
    """Magnus expansion of a word, exact through the cap."""
    return _magnus_cached(w, cap)


def series_commutator(su, sv):
    return su * sv * su.inverse() * sv.inverse()


def weight_of(w, cap):
    """Least k <= cap with a nonzero degree-k term, or None when there is none.

    This equals the lower-central depth of the word since the Magnus
    filtration of a free group agrees with its lower central series.
    """
    if not w or cap < 1:
        return None
    if any(w.exponent_sums()):  # degree 1, read off without series
        return 1
    for m in range(2, cap + 1):
        s = magnus(w, m)
        d = s.min_positive_degree()
        if d is not None:
            return d
    return None


@lru_cache(maxsize=None)
def _block_solver(k, n, mdeg):
    """The block's trees, a {monomial: column} map numbered in order of first
    appearance in their expansions, and an `IntLattice` holding each
    expansion tagged by its tree's index."""
    trees = basis_block(k, n, mdeg)
    cols = {}
    for t in trees:
        for m in expand_associative(t):
            cols.setdefault(m, len(cols))
    lat = IntLattice(len(cols), track=True)
    for i, t in enumerate(trees):
        lat.add({cols[m]: c for m, c in expand_associative(t).items()}, i)
    return trees, cols, lat


def component_to_lie(component, k, n):
    """Re-express a degree-k associative component in the Hall basis."""
    blocks = {}
    for m, c in component.items():
        if c:
            blocks.setdefault(tuple(sorted(m)), {})[m] = c
    terms = {}  # blocks hold disjoint trees
    for sig, target in blocks.items():
        trees, cols, lat = _block_solver(k, n, sig)
        combo = None
        if all(m in cols for m in target):
            combo = lat.member_combo({cols[m]: c for m, c in target.items()})
        if combo is None:
            raise InternalFault("degree component outside the Lie span")
        terms.update((trees[i], c) for i, c in combo.items())
    return LieElement._of(k, terms)


def leading_class(w, k):
    """(low, None) when w's expansion has a nonzero term in some degree
    below k, low the least of them; otherwise (None, the class of w in the
    weight-k layer of the free Lie ring).

    One cap-k expansion gives both, since it is exact in every degree below
    the cap; a nonzero exponent sum gives low = 1 without expanding.
    """
    if k >= 2 and any(w.exponent_sums()):
        return 1, None
    s = magnus(w, k)
    low = s.min_positive_degree()
    if low is not None and low < k:
        return low, None
    return None, component_to_lie(s.degree_component(k), k, len(w.alphabet))


def lie_class_at(w, k, cap=None):
    """Class of a word in the weight-k layer of the free Lie ring.

    Requires the word to lie in the k-th lower central term: the expansion
    must have no nonzero terms in degrees 1..k-1.  Returns the zero element
    when the word lies deeper than k.
    """
    if cap is not None and k > cap:
        raise PreconditionError("weight %d exceeds cap %d" % (k, cap))
    low, e = leading_class(w, k)
    if low is not None:
        raise PreconditionError(
            "word has a nonzero degree-%d term, so it is not in F_%d" % (low, k),
            weight=low)
    return e


def induced_lie_map(phi, e, cap):
    """Image of a homogeneous class under the graded map induced by phi.

    Lifts each basic commutator to its group word, pushes it through phi, and
    takes the degree-(weight) component; the result is zero when every image
    sits deeper.
    """
    i = e.weight
    if i > cap:
        raise PreconditionError("weight %d exceeds cap %d" % (i, cap))
    if e.is_zero():
        return e
    n = len(phi.alphabet)
    leaf_series = {}
    memo = {}

    def ser(t):
        got = memo.get(t)
        if got is not None:
            return got
        if t.is_leaf():
            got = leaf_series.get(t.leaf)
            if got is None:
                got = magnus(phi.images[t.leaf], i)
                leaf_series[t.leaf] = got
        else:
            got = series_commutator(ser(t.left), ser(t.right))
        memo[t] = got
        return got

    component = {}
    for t, c in e.terms.items():
        for m, v in ser(t).degree_component(i).items():
            val = component.get(m, 0) + c * v
            if val:
                component[m] = val
            else:
                del component[m]
    return component_to_lie(component, i, n)
