"""The genus-g surface model: relator, graded ideals, and graded classes.

The once-punctured genus-g surface has free fundamental group on
a_1..a_g, b_1..b_g with boundary word r0 = [a1,b1]...[ag,bg].  Closing the
puncture imposes r0, and the associated graded Lie ring is the free Lie ring
modulo the ideal generated by the symplectic class; filling the standard
handlebody kills the a-generators instead, leaving the free Lie ring on the
b-letters.
"""

import threading

from .errors import InternalFault, UnexpectedTorsionError
from .hall import HallTree
from .ideals import GradedIdeal
from .lie import LieElement, bracket
from .magnus import lie_class_at, weight_of
from .words import Alphabet, Word, commutator, surface_alphabet


class SurfaceModel:
    """Fixed-genus bundle of alphabet, relator, and the two graded ideals."""

    def __init__(self, genus):
        if genus < 1:
            raise ValueError("genus must be >= 1")
        self.genus = genus
        self.alphabet = surface_alphabet(genus)
        self._lock = threading.Lock()
        self._symplectic_ideal = None
        self._handlebody_ideal = None

    def a(self, i):
        """The generator a_i (1-based)."""
        if not 1 <= i <= self.genus:
            raise ValueError("index out of range")
        return Word(self.alphabet, (i,))

    def b(self, i):
        if not 1 <= i <= self.genus:
            raise ValueError("index out of range")
        return Word(self.alphabet, (self.genus + i,))

    @property
    def relator(self):
        """r0 = [a1,b1][a2,b2]...[ag,bg]."""
        w = Word(self.alphabet)
        for i in range(1, self.genus + 1):
            w = w * commutator(self.a(i), self.b(i))
        return w

    def symplectic_class(self):
        """Omega = sum over i of [alpha_i, beta_i], in Hall coordinates."""
        g = self.genus
        omega = LieElement.zero(2)
        for i in range(g):
            omega = omega + bracket(LieElement.generator(i),
                                    LieElement.generator(g + i))
        return omega

    def symplectic_ideal(self):
        """The ideal generated by the symplectic class, lifted by the relator."""
        with self._lock:
            if self._symplectic_ideal is None:
                self._symplectic_ideal = GradedIdeal(
                    self.alphabet, [(self.symplectic_class(), self.relator)])
            return self._symplectic_ideal

    def handlebody_ideal(self):
        """The ideal generated by the a-classes, lifted by the a-generators."""
        with self._lock:
            if self._handlebody_ideal is None:
                gens = [(LieElement.generator(i), self.a(i + 1))
                        for i in range(self.genus)]
                self._handlebody_ideal = GradedIdeal(self.alphabet, gens)
            return self._handlebody_ideal

    def b_alphabet(self):
        return Alphabet(["b%d" % i for i in range(1, self.genus + 1)])

    def drop_a(self, w):
        """Substitute a_i -> 1, re-reading the result over the b alphabet."""
        g = self.genus
        ba = self.b_alphabet()
        # code x names generator x, or ~x inverted (words.py); b_i is
        # generator g + i here and i in ba
        return Word(ba, [x - g + 1 if x >= 0 else x + g
                         for x in w.buf if x >= g or x < -g])

    def __repr__(self):
        return "SurfaceModel(genus=%d)" % self.genus


def surface_class(model, w, cap):
    """Leading graded class of a word in the closed-surface Lie ring.

    Walks up the weights: the free leading term is reduced modulo the
    symplectic ideal; a nonzero normal form is the answer.  Otherwise the
    leading term is expressed as an integer combination of spanning vectors
    and the word is multiplied by the inverses of their group-word lifts,
    pushing it one weight deeper, and the walk continues up to the cap.

    Returns (weight, QuotientClass) or None for trivial-up-to-cap.
    """
    if w.alphabet != model.alphabet:
        raise ValueError("word is not over the surface alphabet")
    ideal = model.symplectic_ideal()
    k = weight_of(w, cap)
    while k is not None:
        e = lie_class_at(w, k)
        q = ideal.reduce(e)
        if q.torsion:
            raise UnexpectedTorsionError(
                "torsion %r in the symplectic quotient at weight %d"
                % (q.torsion, k), weight=k)
        if not q.is_zero():
            return k, q
        combo = ideal.solve_in_span(e)
        if combo is None:
            raise InternalFault(
                "normal form vanished but no integer combination found",
                weight=k)
        for c, lift in combo:
            w = w * lift ** (-c)
        nk = weight_of(w, cap)
        if nk is not None and nk <= k:
            raise InternalFault("correction did not deepen the word", weight=k)
        k = nk
    return None


def handlebody_class(model, w, cap):
    """Leading class after filling the standard handlebody (a_i bound disks).

    Substitutes a_i -> 1 and takes the free leading term over the b-letters.
    Returns (weight, LieElement over the b alphabet) or None.
    """
    wb = model.drop_a(w)
    k = weight_of(wb, cap)
    if k is None:
        return None
    return k, lie_class_at(wb, k)


def b_only_part(model, e):
    """The coefficients of e on basic commutators with no a-leaves, reindexed
    to the b alphabet; this realizes the standard-handlebody projection on
    Hall coordinates."""
    g = model.genus
    out = {}

    def relabel(t):
        if t.is_leaf():
            return HallTree.make_leaf(t.leaf - g)
        return HallTree.make_node(relabel(t.left), relabel(t.right))

    for t, c in e.terms.items():
        if t.x_count(g) == 0:
            out[relabel(t)] = c
    return LieElement(e.weight, out)
