"""The genus-g surface model: relator, graded ideals, and graded classes.

The once-punctured genus-g surface has free fundamental group on
a_1..a_g, b_1..b_g with boundary word r0 = [a1,b1]...[ag,bg].  Closing the
puncture imposes r0, and the associated graded Lie ring is the free Lie ring
modulo the ideal generated by the symplectic class; filling the standard
handlebody kills the a-generators instead, leaving the free Lie ring on the
b-letters, onto which `b_only_part` projects by `lie.substitute`.

`surface_class` and `handlebody_class` take the first class that
`magnus.walk` finds, cap by cap: modulo the symplectic ideal, correcting
the element by the series of the ideal's lift words, for a word's
expansion or a mapping-class defect read from the class's truncated
action; and freely, for a word with its a-letters dropped.
"""

import threading
from functools import partial
from itertools import islice

from .ideals import GradedIdeal
from .lie import LieElement, bracket, substitute
from .magnus import magnus, walk
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
    """Leading graded class of a group element in the closed-surface Lie ring.

    w is a Word over the surface alphabet, or a series source: a function
    giving, for a cap, the element's Magnus series exact through that cap
    (a mapping class's defect reads its action this way).  A Word is read
    through `magnus`.  The class is the first one `walk` finds modulo the
    symplectic ideal within caps 1..cap.

    Returns (weight, QuotientClass) or None for trivial-up-to-cap.
    """
    if isinstance(w, Word):
        if w.alphabet != model.alphabet:
            raise ValueError("word is not over the surface alphabet")
        series = partial(magnus, w)
    else:
        series = w
    steps = walk(series, model.symplectic_ideal())
    return next(filter(None, islice(steps, cap)), None)


def handlebody_class(model, w, cap):
    """Leading class after filling the standard handlebody (a_i bound disks).

    Substitutes a_i -> 1 and takes the free leading term over the b-letters,
    the first class `walk` finds within caps 1..cap.
    Returns (weight, LieElement over the b alphabet) or None.
    """
    steps = walk(partial(magnus, model.drop_a(w)))
    return next(filter(None, islice(steps, cap)), None)


def b_only_part(model, e):
    """The standard-handlebody projection a_i -> 0, b_i -> b_i on Hall
    coordinates, over the b alphabet: the shift keeps the b-letters' order,
    so a basic commutator without an a-leaf maps to its relabelled tree."""
    g = model.genus
    return substitute(e, [LieElement.zero(1)] * g
                      + [LieElement.generator(i) for i in range(g)])
