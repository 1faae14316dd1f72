"""Graded Lie ring ideals with group-word lifts, and quotient normal forms.

A graded ideal is generated by homogeneous elements, each paired with a group
word whose leading Lie term is that element.  The weight-k span is built
inductively: generator vectors of weight k together with brackets of the
weight-(k-1) spanning set against all weight-1 leaves, each new spanning
vector inheriting the lift [lift, generator].  A level stores only the recipe
(parent vector, letter) of such a lift; the word is built on first use and
cached, so ranks, torsion and normal forms never build one.

The spans split into independent blocks.  A basic commutator's block is its
leaf multidegree modulo the lattice spanned by the multidegree differences
within each generator, so every generator, and every bracket of a spanning
vector with a leaf, lies in a single block.  For generators that are single
letters the block is the plain multidegree; for the symplectic class it is
the torus weight.  This keeps the row reduction small even at weight 6 on six
letters.

A candidate [v, x_i] lies in v's block plus letter i, reduced modulo the
same lattice, so its block is known before bracketing.  When that block's
lattice is already Z^N (rank N and every pivot 1; rank N alone may leave
Z/3) the candidate is skipped: it would reduce to zero by exact divisions
and change no row, tag or member.  Otherwise it is accumulated by trees as
`lie.bracket` does it and handed to the block's lattice by columns; only a
kept candidate becomes a `LieElement`, a compact copy of the accumulator.

Block lattices are built without combination tracking; only `solve_in_span`
needs the combinations.  The first time it reads a block, that block's
tracked lattice is built by re-inserting, in tag order, the kept vectors
that changed that block's lattice.  This gives exactly the rows and
combinations of tracking every insertion at build time: a vector that left
a block's lattice unchanged reduced away there by exact divisions, which
touch neither the rows nor their combinations.

`level` pauses the cyclic garbage collector while it builds missing levels
and restores the caller's setting afterwards.  A build allocates millions of
dicts and tuples but makes no reference cycle (a `gc.collect()` after the
builds finds nothing unreachable), so every collection pass it would
trigger walks the young objects for nothing; reference counting alone
frees what a build drops.
"""

import gc
import threading

from .hall import HallTree, hall_basis, witt
from .intlinalg import IntLattice
from .lie import LieElement, _bracket_into
from .words import Word, commutator


class QuotientClass:
    """Canonical representative of a Lie element modulo a graded ideal."""

    __slots__ = ("weight", "vector")

    def __init__(self, weight, vector):
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "vector", vector)

    def __setattr__(self, *a):
        raise AttributeError("QuotientClass is immutable")

    def is_zero(self):
        return self.vector.is_zero()

    def __eq__(self, other):
        return (isinstance(other, QuotientClass) and self.weight == other.weight
                and self.vector == other.vector)

    def __hash__(self):
        return hash((self.weight, self.vector))

    def __repr__(self):
        return "QuotientClass(%r)" % (self.vector,)


class _Level:
    __slots__ = ("vectors", "lifts", "keys", "blocks", "columns", "lattices",
                 "members", "tracked", "rank", "torsion")

    def __init__(self):
        self.vectors = []       # LieElement, an independent set
        self.lifts = []         # per vector: lift Word, or the recipe
                                # (parent tag one weight down, letter index)
        self.keys = {}          # multidegree -> its block key, stored once
                                # for all the trees of that multidegree
        self.blocks = {}        # block key -> its basic commutators, Hall order
        self.columns = {}       # basic commutator -> its column in its block,
                                # the block being keys[tree.mdeg]
        self.lattices = {}      # block key -> IntLattice over that block
        self.members = {}       # block key -> tags of the vectors that
                                # changed its lattice, ascending
        self.tracked = {}       # block key -> its IntLattice with combinations,
                                # built on the block's first solve_in_span
        self.rank = 0
        self.torsion = ()


def _leaf_counts(tree, n):
    counts = [0] * n
    for i in tree.mdeg:
        counts[i] += 1
    return counts


class GradedIdeal:
    """Ideal of the free Lie ring on an ordered alphabet, with lifts."""

    def __init__(self, alphabet, generators):
        self.alphabet = alphabet
        self.n = len(alphabet)
        gens = []
        for e, lift in generators:
            if e.is_zero():
                raise ValueError("zero ideal generator")
            if not isinstance(lift, Word) or lift.alphabet != alphabet:
                raise ValueError("generator lift must be a word over the alphabet")
            gens.append((e, lift))
        self.generators = tuple(gens)
        self._letters = [Word(alphabet, (i + 1,)) for i in range(self.n)]
        self.min_weight = min(e.weight for e, _ in gens) if gens else 1
        # multidegree differences within each generator; block keys are
        # multidegrees reduced modulo this lattice
        self._grading = IntLattice(self.n)
        for e, _ in gens:
            first, *rest = (_leaf_counts(t, self.n) for t in e.terms)
            for counts in rest:
                self._grading.add([c - f for c, f in zip(counts, first)])
        self._levels = {}
        self._lock = threading.RLock()

    def level(self, k):
        """Build (and cache) the weight-k span; levels build bottom-up, with
        the cyclic collector paused (see the module docstring)."""
        if k < 1:
            raise ValueError("weight must be >= 1")
        with self._lock:
            if k not in self._levels:
                enabled = gc.isenabled()
                gc.disable()
                try:
                    for kk in range(1, k + 1):
                        if kk not in self._levels:
                            self._levels[kk] = self._build_level(kk)
                finally:
                    if enabled:
                        gc.enable()
            return self._levels[k]

    def _build_level(self, k):
        lv = _Level()
        keys = lv.keys
        for t in hall_basis(k, self.n):
            key = keys.get(t.mdeg)
            if key is None:
                key = keys[t.mdeg] = tuple(self._grading.reduce_mod(
                    _leaf_counts(t, self.n)))
            block = lv.blocks.setdefault(key, [])
            lv.columns[t] = len(block)
            block.append(t)
        saturated = set()       # block keys whose lattice is all of Z^N
        for e, lift in self.generators:
            if e.weight == k:
                (key, vec), = self._split(lv, e).items()
                if self._keep(lv, key, vec, saturated):
                    lv.vectors.append(e)
                    lv.lifts.append(lift)
        if k > 1:
            prev = self._levels[k - 1]
            columns = lv.columns
            leaves = [HallTree.make_leaf(i) for i in range(self.n)]
            targets = {}        # block key one weight down -> per letter i,
                                # the block key of [v, x_i]
            for tag, v in enumerate(prev.vectors):
                src = prev.keys[next(iter(v.terms)).mdeg]
                keys_i = targets.get(src)
                if keys_i is None:
                    keys_i = targets[src] = [
                        tuple(self._grading.reduce_mod(
                            [c + (j == i) for j, c in enumerate(src)]))
                        for i in range(self.n)]
                for i, key in enumerate(keys_i):
                    if key in saturated:
                        continue
                    # [v, x_i] by trees, as `lie.bracket` builds it; kept
                    # as a copy grown entry by entry, since acc's table
                    # keeps cancelled slots and dict(acc) may oversize
                    leaf = leaves[i]
                    acc = {}
                    for u, c in v.terms.items():
                        _bracket_into(acc, u, leaf, c)
                    vec = {columns[t]: c for t, c in acc.items()}
                    if vec and self._keep(lv, key, vec, saturated):
                        lv.vectors.append(LieElement._of(
                            k, {t: c for t, c in acc.items()}))
                        lv.lifts.append((tag, i))
        lv.rank = sum(lat.rank for lat in lv.lattices.values())
        lv.torsion = tuple(sorted(d for lat in lv.lattices.values()
                                  for d in lat.torsion()))
        return lv

    def _lift(self, k, tag):
        """The lift of spanning vector `tag` at weight k, built on first use."""
        with self._lock:
            lifts = self._levels[k].lifts
            lift = lifts[tag]
            if not isinstance(lift, Word):
                parent, i = lift
                lift = lifts[tag] = commutator(self._lift(k - 1, parent),
                                               self._letters[i])
            return lift

    @staticmethod
    def _split(lv, e):
        """e's coordinates block by block: {block key: {column: coeff}}."""
        out = {}
        for t, c in e.terms.items():
            key = lv.keys[t.mdeg]
            i = lv.columns[t]
            vec = out.get(key)
            if vec is None:
                vec = out[key] = {}
            vec[i] = c
        return out

    @staticmethod
    def _keep(lv, key, vec, saturated):
        """Add vec, a vector's coordinates in block `key` as a fresh dict
        without zeros that the lattice may consume, to that block's
        lattice.  True iff the lattice grew; the caller then keeps the
        vector, with its lift or lift recipe, as the next tag, so the kept
        lifts always generate the span lattice over the integers."""
        lat = lv.lattices.get(key)
        if lat is None:
            lat = lv.lattices[key] = IntLattice(len(lv.blocks[key]))
        if not lat.add(vec, owned=True):
            return False
        lv.members.setdefault(key, []).append(len(lv.vectors))
        if lat.rank == lat.N and all(lat.pivot(j) == 1 for j in lat.pivots):
            saturated.add(key)
        return True

    def _tracked(self, lv, key):
        """Block `key`'s lattice with combinations, built on first use from
        its members in tag order (see the module docstring)."""
        with self._lock:
            lat = lv.tracked.get(key)
            if lat is None:
                lat = IntLattice(len(lv.blocks[key]), track=True)
                for tag in lv.members[key]:
                    lat.add(self._split(lv, lv.vectors[tag])[key], tag)
                lv.tracked[key] = lat
            return lat

    def span(self, k):
        """The independent spanning set [(LieElement, lift)] at weight k.

        Builds (and caches) every weight-k lift not built yet.
        """
        lv = self.level(k)
        with self._lock:
            return [(e, self._lift(k, tag)) for tag, e in enumerate(lv.vectors)]

    def quotient_rank(self, k):
        return witt(k, self.n) - self.level(k).rank

    def reduce(self, e):
        """Canonical normal form of e modulo the weight-(e.weight) span."""
        k = e.weight
        lv = self.level(k)
        terms = []
        for key, vec in self._split(lv, e).items():
            lat = lv.lattices.get(key)
            if lat is not None:
                vec = lat.reduce_mod(vec)
            block = lv.blocks[key]
            terms.extend((block[i], c) for i, c in vec.items())
        return QuotientClass(k, LieElement(k, terms))

    def solve_in_span(self, e):
        """Integer combination of spanning vectors equal to e, with lifts.

        Returns [(coeff, lift)] or None when e is not in the integer span.
        Only the lifts in the combination are built (and cached).
        """
        k = e.weight
        lv = self.level(k)
        acc = {}
        for key, vec in self._split(lv, e).items():
            combo = (None if key not in lv.members
                     else self._tracked(lv, key).member_combo(vec))
            if combo is None:
                return None
            for tag, c in combo.items():
                acc[tag] = acc.get(tag, 0) + c
        return [(acc[tag], self._lift(k, tag)) for tag in sorted(acc)
                if acc[tag]]
