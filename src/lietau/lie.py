"""Exact free-Lie-ring arithmetic in Hall coordinates.

A LieElement is a homogeneous integer combination of basic commutators of one
weight.  Brackets of basic commutators are rewritten into the basis by the
classical recursion: flip when the arguments are out of order, and when the
pair [w1, w2] = [[v1, v2], w2] violates the basis condition (v2 > w2) apply

    [[v1, v2], w2] = [[v1, w2], v2] + [v1, [v2, w2]]

and recurse.  Each recursive call strictly decreases the well-founded measure
(total weight, weight of the smaller argument, its rank within that weight),
so the rewriting terminates.  Only the pairs that need the Jacobi rewrite are
memoized, each as one flat tuple ``(t1, c1, t2, c2, ...)`` of its terms: a
pair in Hall order is the one-term tuple of its interned node, and a
reversed pair is its flip with the sign folded into the coefficient.  One
routine, `_bracket_into`, adds ``c * [u, v]`` into an accumulator and drops
zeros as they occur; `bracket`, the ideal builds, `magnus` and the memo's
own rewrites all go through it.  `expand` maps into the associative ring.
"""

import threading
from functools import lru_cache
from itertools import chain

from .hall import HallTree
from .words import Word, commutator as word_commutator


class LieElement:
    """weight plus a map from basic commutators of that weight to nonzero ints."""

    __slots__ = ("weight", "terms")

    def __init__(self, weight, terms=()):
        if weight < 1:
            raise ValueError("weight must be >= 1")
        tm = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for t, c in items:
            c = int(c)
            if c == 0:
                continue
            if t.weight != weight:
                raise ValueError("tree of weight %d in weight-%d element"
                                 % (t.weight, weight))
            tm[t] = tm.get(t, 0) + c
            if tm[t] == 0:
                del tm[t]
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "terms", tm)

    @classmethod
    def _of(cls, weight, terms):
        """A LieElement owning `terms`, a dict already known to map basic
        commutators of this weight to nonzero ints."""
        e = cls.__new__(cls)
        object.__setattr__(e, "weight", weight)
        object.__setattr__(e, "terms", terms)
        return e

    def __setattr__(self, *a):
        raise AttributeError("LieElement is immutable")

    @staticmethod
    def zero(weight):
        return LieElement(weight)

    @staticmethod
    def from_tree(t, coeff=1):
        return LieElement(t.weight, [(t, coeff)])

    @staticmethod
    def generator(i, coeff=1):
        return LieElement(1, [(HallTree.make_leaf(i), coeff)])

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, LieElement) and self.weight == other.weight
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.weight, frozenset(self.terms.items())))

    def __add__(self, other):
        if self.weight != other.weight:
            raise ValueError("weights differ: %d vs %d" % (self.weight, other.weight))
        tm = dict(self.terms)
        for t, c in other.terms.items():
            v = tm.get(t, 0) + c
            if v:
                tm[t] = v
            else:
                tm.pop(t, None)
        return LieElement._of(self.weight, tm)

    def __neg__(self):
        return LieElement._of(self.weight, {t: -c for t, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = int(c)
        if c == 0:
            return LieElement(self.weight)
        return LieElement._of(self.weight, {t: c * v for t, v in self.terms.items()})

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda tc: tc[0].key)

    def __repr__(self):
        if not self.terms:
            return "0_(w=%d)" % self.weight
        parts = []
        for t, c in self.sorted_terms():
            parts.append(("%+d*%r" % (c, t)))
        return " ".join(parts)


_bracket_memo = {}
_bracket_lock = threading.Lock()


def _bracket_into(acc, u, v, c):
    """acc += c * [u, v] for basic commutators u, v and a nonzero int c.

    acc maps trees to nonzero ints; a coefficient that reaches zero is
    dropped.  This is the one reader of the flip, the Hall-order test and
    the memo."""
    if u is v:
        return
    if u.key < v.key:
        u, v, c = v, u, -c
    if u.leaf is not None or u.right.key <= v.key:
        terms = (HallTree.make_node(u, v), 1)
    else:
        terms = _bracket_memo.get((u, v))
        if terms is None:
            terms = _rewrite(u, v)
    # each loop step takes a tree, and next(it) its coefficient
    it = iter(terms)
    for t in it:
        val = acc.get(t, 0) + c * next(it)
        if val:
            acc[t] = val
        else:
            del acc[t]


def _rewrite(u, v):
    """The memo entry of [u, v] for u = [v1, v2] with v2 > v, where u > v:
    [[v1, v], v2] + [v1, [v2, v]].  [v1, v] and [v2, v] are built first,
    then each of their terms is bracketed into the entry, all through
    `_bracket_into`, so zeros drop as they occur."""
    v1, v2 = u.left, u.right
    a, b, res = {}, {}, {}
    _bracket_into(a, v1, v, 1)
    _bracket_into(b, v2, v, 1)
    for h, c in a.items():
        _bracket_into(res, h, v2, c)
    for h, c in b.items():
        _bracket_into(res, v1, h, c)
    terms = tuple(chain.from_iterable(res.items()))
    with _bracket_lock:
        _bracket_memo[u, v] = terms
    return terms


def bracket(e1, e2):
    """Bilinear bracket; the result is homogeneous of weight w1 + w2."""
    acc = {}
    for u, c in e1.terms.items():
        for v, d in e2.terms.items():
            _bracket_into(acc, u, v, c * d)
    return LieElement._of(e1.weight + e2.weight, acc)


def tree_to_lie(t):
    """Any binary tree, rewritten into Hall coordinates."""
    if t.is_leaf():
        return LieElement.from_tree(t)
    return bracket(tree_to_lie(t.left), tree_to_lie(t.right))


def lift_word(t, alphabet):
    """Group-word lift: leaf -> generator, node -> group commutator of lifts."""
    if t.is_leaf():
        return Word(alphabet, (t.leaf + 1,))
    return word_commutator(lift_word(t.left, alphabet), lift_word(t.right, alphabet))


@lru_cache(maxsize=None)
def expand_associative(t):
    """Expansion of a tree in the free associative ring: [u,v] -> uv - vu.

    Monomials are tuples of leaf indices; this realizes the embedding of the
    free Lie ring into noncommutative polynomials.
    """
    if t.is_leaf():
        return {(t.leaf,): 1}
    res = {}
    for m1, c1 in expand_associative(t.left).items():
        for m2, c2 in expand_associative(t.right).items():
            m = m1 + m2
            res[m] = res.get(m, 0) + c1 * c2
            m = m2 + m1
            res[m] = res.get(m, 0) - c1 * c2
    return {m: c for m, c in res.items() if c}


def expand(e):
    """A Lie element's image in the free associative ring, as
    {monomial: coefficient} without zeros, summed over its trees."""
    out = {}
    for t, c in e.terms.items():
        for m, d in expand_associative(t).items():
            out[m] = out.get(m, 0) + c * d
    return {m: v for m, v in out.items() if v}


def substitute(e, images):
    """Apply the degree-1 substitution leaf i -> images[i] multiplicatively.

    images[i] must be a weight-1 LieElement; the substitution extends to a Lie
    ring endomorphism, so each tree expands multilinearly and is re-reduced
    into Hall coordinates.
    """
    memo = {}

    def sub_tree(t):
        got = memo.get(t)
        if got is not None:
            return got
        if t.is_leaf():
            res = images[t.leaf]
        else:
            res = bracket(sub_tree(t.left), sub_tree(t.right))
        memo[t] = res
        return res

    out = LieElement.zero(e.weight)
    for t, c in e.terms.items():
        out = out + sub_tree(t).scale(c)
    return out


def x_count_split(e, g):
    """Split by the number of leaves among the first g letters; returns {i: part}."""
    parts = {}
    for t, c in e.terms.items():
        i = t.x_count(g)
        parts.setdefault(i, {})[t] = c
    return {i: LieElement(e.weight, tm) for i, tm in parts.items()}
