"""Hall basic-commutator trees and the Witt rank formula.

Trees are interned, keyed by their child pair, so structural equality is
identity and they hash fast; trees of equal multidegree share one `mdeg`
tuple.  Leaves hold 0-based indices into an ordered alphabet.  The total
order on trees is weight first, then the leaf sequence (the foliage),
compared lexicographically with leaves ordered by the alphabet: a tree's
`key` is ``(weight,) + leaves``.  Any such order yields a valid
basic-commutator family, and fixing this one makes every basis and every
rewriting deterministic.  Distinct basic commutators of one weight have
distinct foliage, so the order is total on them.

One constructor, `_node`, makes every node, under `HallTree._lock`:
`make_node` calls it on a registry miss, and `hall_basis` interns a whole
weight in one locked pass, after building its lower bases (the lock is not
reentrant), looking each [u, v] up and making the missing ones.
"""

import threading
from bisect import bisect_left
from functools import lru_cache

from .errors import InternalFault, PreconditionError, UnknownGeneratorError

_set = object.__setattr__   # HallTree's own __setattr__ refuses


class HallTree:
    """leaf(i) or node(left, right); weight = number of leaves."""

    __slots__ = ("leaf", "left", "right", "weight", "key", "mdeg")

    _registry = {}      # ("L", i) or the child pair -> the one tree
    _mdegs = {}         # multidegree -> the one tuple its trees share
    _lock = threading.Lock()

    def __init__(self, *a, **kw):
        raise TypeError("use HallTree.make_leaf / HallTree.make_node")

    def __setattr__(self, *a):
        raise AttributeError("HallTree is immutable")

    @staticmethod
    def make_leaf(i):
        t = HallTree._registry.get(("L", i))
        if t is not None:
            return t
        i = int(i)
        if i < 0:
            raise ValueError("leaf index must be >= 0")
        with HallTree._lock:
            t = HallTree._registry.get(("L", i))
            if t is None:
                t = object.__new__(HallTree)
                _set(t, "leaf", i)
                _set(t, "left", None)
                _set(t, "right", None)
                _set(t, "weight", 1)
                _set(t, "key", (1, i))
                _set(t, "mdeg", HallTree._mdegs.setdefault((i,), (i,)))
                HallTree._registry["L", i] = t
        return t

    @staticmethod
    def make_node(left, right):
        t = HallTree._registry.get((left, right))
        if t is not None:
            return t
        with HallTree._lock:
            return HallTree._registry.get((left, right)) or _node(left, right)

    def is_leaf(self):
        return self.leaf is not None

    def __repr__(self):
        return tree_to_str(self)


def _node(left, right):
    """The one node constructor: the new tree [left, right], registered.
    The caller holds `HallTree._lock` and found no tree under the pair."""
    t = object.__new__(HallTree)
    w = left.weight + right.weight
    mdeg = tuple(sorted(left.mdeg + right.mdeg))
    _set(t, "leaf", None)
    _set(t, "left", left)
    _set(t, "right", right)
    _set(t, "weight", w)
    _set(t, "key", (w,) + left.key[1:] + right.key[1:])
    _set(t, "mdeg", HallTree._mdegs.setdefault(mdeg, mdeg))
    HallTree._registry[left, right] = t
    return t


def is_basic(t):
    """The defining condition: at [w1,w2], w1 > w2 and, if w1 = [v1,v2], v2 <= w2."""
    if t.is_leaf():
        return True
    if not (t.left.key > t.right.key):
        return False
    if not t.left.is_leaf() and not (t.left.right.key <= t.right.key):
        return False
    return is_basic(t.left) and is_basic(t.right)


def mobius(d):
    """Mobius mu: 0 unless square-free, else (-1)^(number of prime factors)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    count = 0
    p = 2
    while p * p <= d:
        if d % p == 0:
            d //= p
            if d % p == 0:
                return 0
            count += 1
        else:
            p += 1
    if d > 1:
        count += 1
    return 1 if count % 2 == 0 else -1


def divisors(k):
    small = [d for d in range(1, int(k ** 0.5) + 1) if k % d == 0]
    large = [k // d for d in reversed(small) if d * d != k]
    return small + large


def witt(k, g):
    """Rank of the weight-k layer of the free Lie ring on g generators.

    (1/k) * sum over d | k of mu(d) * g^(k/d); the division is exact.
    """
    if k < 1:
        raise ValueError("weight must be >= 1")
    if g < 0:
        raise ValueError("rank must be >= 0")
    total = sum(mobius(d) * g ** (k // d) for d in divisors(k))
    q, r = divmod(total, k)
    if r:
        raise InternalFault("Witt sum not divisible by k = %d" % k)
    return q


@lru_cache(maxsize=None)
def hall_basis(k, n):
    """All weight-k basic commutators on n letters, sorted in the fixed order.

    Its length always equals witt(k, n).
    """
    if k < 1:
        raise ValueError("weight must be >= 1")
    if n < 1:
        raise ValueError("alphabet size must be >= 1")
    if k == 1:
        return tuple(HallTree.make_leaf(i) for i in range(n))
    # the lower bases first: the lock below is not reentrant
    parts = [(hall_basis(w1, n), hall_basis(k - w1, n)) for w1 in range(1, k)]
    reg = HallTree._registry
    out = []
    with HallTree._lock:
        for upper, lower in parts:
            keys = [v.key for v in lower]
            for u in upper:
                # the v with [u, v] basic are one run of the sorted lower
                # basis: u.right.key <= v.key < u.key, or every v < u for a
                # leaf u
                lo = 0 if u.leaf is not None else bisect_left(keys, u.right.key)
                for v in lower[lo:bisect_left(keys, u.key)]:
                    out.append(reg.get((u, v)) or _node(u, v))
    out.sort(key=lambda t: t.key)
    return tuple(out)


@lru_cache(maxsize=None)
def basis_block(k, n, mdeg):
    """The weight-k basic commutators with the given leaf multidegree."""
    return tuple(t for t in hall_basis(k, n) if t.mdeg == mdeg)


def tree_to_str(t, alphabet=None):
    """Nested bracket form, e.g. ``[[b1,a1],b2]``; indices if no alphabet given."""
    if t.is_leaf():
        return alphabet.names[t.leaf] if alphabet is not None else "x%d" % t.leaf
    return "[%s,%s]" % (tree_to_str(t.left, alphabet), tree_to_str(t.right, alphabet))


def tree_from_str(s, alphabet):
    """The tree of the nested bracket form over a given alphabet.  That form
    is the JSON form with its names unquoted, so each name is quoted and
    `tree_from_json` reads the result, refusing malformed input."""
    import json
    import re
    try:
        obj = json.loads(re.sub(r"[^\[\],]+", lambda m: json.dumps(m.group()),
                                s.replace(" ", "")))
    except json.JSONDecodeError:
        raise PreconditionError("not a bracketed tree: %.60r" % (s,)) from None
    return tree_from_json(obj, alphabet)


def tree_to_json(t, alphabet=None):
    if t.is_leaf():
        return alphabet.names[t.leaf] if alphabet is not None else t.leaf
    return [tree_to_json(t.left, alphabet), tree_to_json(t.right, alphabet)]


def tree_from_json(obj, alphabet=None):
    """A tree from nested [left, right] pairs with leaves that are names or
    indices of the alphabet (any index >= 0 if none is given)."""
    if isinstance(obj, list):
        if len(obj) != 2:
            raise PreconditionError("not a two-child tree node: %.60r" % (obj,))
        return HallTree.make_node(tree_from_json(obj[0], alphabet),
                                  tree_from_json(obj[1], alphabet))
    if isinstance(obj, str):
        i = None if alphabet is None else alphabet.index.get(obj)
    elif isinstance(obj, int) and not isinstance(obj, bool):
        n = obj + 1 if alphabet is None else len(alphabet)
        i = obj if 0 <= obj < n else None
    else:
        raise PreconditionError("not a tree leaf name or index: %.60r" % (obj,))
    if i is None:
        raise UnknownGeneratorError("unknown generator %.60r" % (obj,))
    return HallTree.make_leaf(i)
