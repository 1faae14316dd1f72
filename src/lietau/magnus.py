"""Truncated Magnus expansions: the bridge from group words to Lie classes.

A generator maps to 1 + X and its inverse to the truncated geometric series
1 - X + X^2 - ...; the map is multiplicative, and for a word lying in the
k-th lower central term the lowest nonvanishing degree is k and that
component is the word's class in the weight-k layer.  Its Hall
coordinates come from the Dynkin-Specht-Wever identity, which inverts the
embedding of the free Lie ring over Z in the free associative ring: the
left-normed brackets of a degree-k Lie element's monomials, summed with
its coefficients, give k times it (Reutenauer, Free Lie Algebras, 1993,
ch. 1).  `component_to_lie` takes those brackets with `lie._bracket_into`
and divides by k exactly.

A word's expansion is built in one left-to-right pass over its letters,
keeping the series S of the prefix read so far split by degree.  A letter
+i adds S X_i to S.  A letter -i multiplies S by 1 - X_i + X_i^2 - ..., that
is adds the sum over j of (-1)^j S X_i^j; by Horner's rule that product is
the T with T = S - T X_i, filled degree by degree upwards.  Both steps touch
each term of S below the cap once and drop everything above it, so a letter
costs O(|S|) and long words never form products of two large series.

A mapping class is read through its truncated Magnus action, a
`NilpotentAction`: the series A_i = M(phi(x_i)) of its generator images at
one cap.  The action of a composite is one factor's series substituted into
the other's (X_i -> A_i - 1), and a generator defect's series is the
product A_i M(x_i)^-1, so depths and Johnson values of a long composite
come from its short factors.  Words are expanded only at the leaves of a
composite, the classes given by image words, on which the boundary
relator is checked; when a composite builds its own words is said at
`johnson.MappingClassData`.

Every truncated product is `_times`, every cap-by-cap search for a weight
or class is `walk`, and every series read at a known weight
`leading_class`.
"""

from functools import lru_cache, partial
from itertools import count, islice

from .errors import InternalFault, PreconditionError, UnexpectedTorsionError
from .hall import HallTree
from .lie import LieElement, _bracket_into, expand, substitute


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
        return MagnusSeries._of(
            cap, _times(self.coeffs, _by_degree(other, cap), cap))

    @staticmethod
    def _of(cap, coeffs):
        """A series owning coeffs, known to hold only nonzero integer
        coefficients on monomial tuples of degree <= cap."""
        s = MagnusSeries.__new__(MagnusSeries)
        object.__setattr__(s, "cap", cap)
        object.__setattr__(s, "coeffs", coeffs)
        return s

    def degree_component(self, d):
        return {m: c for m, c in self.coeffs.items() if len(m) == d}

    def min_positive_degree(self):
        best = None
        for m in self.coeffs:
            if m and (best is None or len(m) < best):
                best = len(m)
        return best

    def __repr__(self):
        items = sorted(self.coeffs.items(), key=lambda mc: (len(mc[0]), mc[0]))
        return "MagnusSeries(cap=%d, %s)" % (self.cap, dict(items))


@lru_cache(maxsize=4096)
def _magnus_cached(w, cap):
    if cap == 1:  # degree 1 holds the exponent sums
        coeffs = {(j,): s for j, s in enumerate(w.exponent_sums()) if s}
        coeffs[()] = 1
        return MagnusSeries._of(1, coeffs)
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


def _by_degree(s, cap):
    """y with y[d] listing the (monomial, coefficient) pairs of the series
    s in degree d, for d = 0..cap."""
    y = [[] for _ in range(cap + 1)]
    for m, c in s.coeffs.items():
        if len(m) <= cap:
            y[len(m)].append((m, c))
    return y


def _times(p, y, cap):
    """p * y through degree cap, for a coefficient dict p and a series y
    listed by `_by_degree`."""
    out = {}
    for m1, c1 in p.items():
        for d in range(cap - len(m1) + 1):
            for m2, c2 in y[d]:
                m = m1 + m2
                out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


class NilpotentAction:
    """The action of an endomorphism phi of the free group on the quotient
    by its (cap+1)-th lower central term, held as the series
    A_i = M(phi(x_i)) of the generator images, exact through the cap.

    It determines every Magnus invariant of phi through the cap without the
    image words: the image of any word is its expansion with X_i read as
    A_i - 1, so composing maps is series substitution, whose cost does not
    depend on how long the words are.
    """

    __slots__ = ("cap", "images")

    def __init__(self, cap, images):
        self.cap = cap
        self.images = tuple(images)

    @staticmethod
    def of_words(images, cap):
        """The action of the endomorphism with these generator images, each
        expanded by `magnus`."""
        return NilpotentAction(cap, [magnus(w, cap) for w in images])

    def after(self, inner):
        """The action of this map after inner's: each series of inner with
        every X_i read as A_i - 1.

        The products of the A_i - 1 along a monomial's prefixes are kept,
        so monomials sharing a prefix, in one image or another, share its
        product; each is truncated at the cap as it is formed.
        """
        cap = self.cap
        if inner.cap != cap:
            raise ValueError("actions at caps %d and %d" % (cap, inner.cap))
        # X_i reads A_i - 1: the constant term is dropped
        ys = [[[]] + _by_degree(s, cap)[1:] for s in self.images]
        prods = {(): {(): 1}}
        images = []
        for s in inner.images:
            acc = {}
            for m, c in s.coeffs.items():
                p = prods.get(m)
                if p is None:
                    j = len(m) - 1
                    while m[:j] not in prods:
                        j -= 1
                    p = prods[m[:j]]
                    for t in range(j, len(m)):
                        p = _times(p, ys[m[t]], cap)
                        prods[m[:t + 1]] = p
                for mm, v in p.items():
                    acc[mm] = acc.get(mm, 0) + c * v
            images.append(MagnusSeries._of(
                cap, {m: v for m, v in acc.items() if v}))
        return NilpotentAction(cap, images)

    def defect(self, i):
        """The series of phi(x_i) x_i^-1, that is A_i (1 - X_i + X_i^2 - ...)."""
        return self.images[i] * MagnusSeries.letter(i, self.cap, -1)

    def __eq__(self, other):
        return (isinstance(other, NilpotentAction) and self.cap == other.cap
                and self.images == other.images)

    def __repr__(self):
        return "NilpotentAction(cap=%d, %r)" % (self.cap, list(self.images))


def component_to_lie(component, k):
    """A degree-k associative component in the Hall basis: its monomials'
    left-normed brackets, each built from its prefix's, summed and divided
    by k.  A remainder, or a quotient that does not expand back to the
    component, puts the component outside the Lie span."""
    prefixes = {}  # monomial prefix -> its left-normed bracket's terms

    def add(acc, m, c):
        """acc += c * the left-normed bracket of the monomial m."""
        leaf = HallTree.make_leaf(m[-1])
        if len(m) == 1:  # acc holds no term of this leaf yet
            acc[leaf] = c
            return
        p = m[:-1]
        if p not in prefixes:
            prefixes[p] = {}
            add(prefixes[p], p, 1)
        for u, d in prefixes[p].items():
            _bracket_into(acc, u, leaf, c * d)

    total = {}
    for m, c in component.items():
        if c:
            add(total, m, c)
    e = LieElement._of(k, {t: v // k for t, v in total.items()})
    if (any(v % k for v in total.values())
            or expand(e) != {m: c for m, c in component.items() if c}):
        raise InternalFault("degree component outside the Lie span")
    return e


def walk(series, ideal=None):
    """Yield None at each cap 1, 2, ... while an element's class vanishes,
    then (weight, class) once; series(c) is its series exact through c.

    The least positive degree k is the free weight and the degree-k part
    the class.  Modulo an ideal, a nonzero normal form is the class; a zero
    one is undone by the inverses of the ideal's lift words, whose series
    multiply the element's at every later cap.
    """
    fixes = []  # words whose series multiply the element's, in order
    low = 1     # every degree below low vanishes
    for c in count(1):
        s = series(c)
        for u in fixes:
            s = s * magnus(u, c)
        k = s.min_positive_degree()
        if k is None:
            yield None
            continue
        if k < low:
            raise InternalFault("correction did not deepen the word",
                                weight=low - 1)
        e = component_to_lie(s.degree_component(k), k)
        if ideal is None:
            yield k, e
            return
        torsion = ideal.level(k).torsion
        if torsion:
            raise UnexpectedTorsionError(
                "torsion %r in the quotient at weight %d" % (torsion, k),
                weight=k)
        q = ideal.reduce(e)
        if not q.is_zero():
            yield k, q
            return
        combo = ideal.solve_in_span(e)
        if combo is None:
            raise InternalFault(
                "normal form vanished but no integer combination found",
                weight=k)
        fixes.extend(lift ** (-coeff) for coeff, lift in combo)
        low = k + 1
        yield None


def weight_of(w, cap):
    """Least k <= cap with a nonzero degree-k term, or None when there is none.

    This equals the lower-central depth of the word since the Magnus
    filtration of a free group agrees with its lower central series.
    """
    got = next(filter(None, islice(walk(partial(magnus, w)), cap)), None)
    return None if got is None else got[0]


def leading_class(s, k):
    """(low, None) when the series s has a nonzero term in some degree below
    k, low the least of them; otherwise (None, its degree-k part as a class
    in the weight-k layer of the free Lie ring).

    s must be exact through degree k; one cap-k series gives both.
    """
    low = s.min_positive_degree()
    if low is not None and low < k:
        return low, None
    return None, component_to_lie(s.degree_component(k), k)


def lie_class_at(w, k):
    """Class of a word in the weight-k layer of the free Lie ring.

    Requires the word to lie in the k-th lower central term: the expansion
    must have no nonzero terms in degrees 1..k-1.  Returns the zero element
    when the word lies deeper than k.
    """
    low, e = leading_class(magnus(w, k), k)
    if low is not None:
        raise PreconditionError(
            "word has a nonzero degree-%d term, so it is not in F_%d" % (low, k),
            weight=low)
    return e


def induced_lie_map(phi, e, cap):
    """Image of a homogeneous class under the graded map induced by phi.

    On the weight-i layer the map reads only phi's action on homology: each
    generator goes to the exponent sums of its image word, and the class is
    substituted multiplicatively (`lie.substitute`).  Its image is zero when
    every image sits deeper.
    """
    if e.weight > cap:
        raise PreconditionError("weight %d exceeds cap %d" % (e.weight, cap))
    images = [LieElement(1, [(HallTree.make_leaf(j), c)
                             for j, c in enumerate(w.exponent_sums())])
              for w in phi.images]
    return substitute(e, images)
