"""Johnson filtration depths and the homomorphisms sigma, eta, tau.

A mapping class is carried by its action on the free fundamental group of
the once-punctured surface; fixing the boundary pointwise means fixing the
relator r0 on the nose, which is checked at construction.  Depth in the
filtration is the least lower-central weight of a generator defect
phi(x) x^-1; tau_k is eta^-1 after the defect-class homomorphism sigma.
"""

from .errors import (DepthTooShallowError, PreconditionError,
                     RelationViolatedError, WeightTooLowError)
from .lie import LieElement
from .magnus import leading_class, weight_of
from .surface import surface_class
from .words import GroupEndomorphism, Word

DEFAULT_CAP = 8


class MappingClassData:
    """A boundary-fixing mapping class, given by generator images."""

    def __init__(self, model, endo):
        if endo.alphabet != model.alphabet:
            raise RelationViolatedError("endomorphism over the wrong alphabet")
        if endo.apply(model.relator) != model.relator:
            raise RelationViolatedError(
                "generator images do not fix the boundary relator")
        self.model = model
        self.endo = endo
        self._invertible_checked = False

    def __eq__(self, other):
        return (isinstance(other, MappingClassData)
                and self.model.genus == other.model.genus
                and self.endo == other.endo)

    def __hash__(self):
        return hash(self.endo)

    def h1_matrix(self):
        """Induced matrix on homology; column j is the class of phi(gen j)."""
        cols = [img.exponent_sums() for img in self.endo.images]
        return [list(row) for row in zip(*cols)]

    def check_invertible(self):
        """Invertibility on every nilpotent quotient reduces to homology."""
        if self._invertible_checked:
            return
        from .intlinalg import bareiss_det
        if bareiss_det(self.h1_matrix()) not in (1, -1):
            raise PreconditionError(
                "generator images are not invertible on homology")
        self._invertible_checked = True

    def defect(self, index):
        """phi(x) x^-1 for the 0-based generator index."""
        x = Word(self.model.alphabet, (index + 1,))
        return self.endo.apply(x) * ~x

    def compose(self, other):
        """self after other, as mapping classes."""
        if self.model.genus != other.model.genus:
            raise PreconditionError("genus mismatch in composition")
        return MappingClassData(self.model, self.endo.compose(other.endo))

    def __repr__(self):
        return "MappingClassData(genus=%d, %r)" % (self.model.genus, self.endo)


def identity_mapping_class(model):
    return MappingClassData(model, GroupEndomorphism.identity(model.alphabet))


def boundary_twist(model):
    """Twist about a curve parallel to the boundary: conjugation by r0."""
    r0 = model.relator
    images = []
    for i in range(len(model.alphabet)):
        x = Word(model.alphabet, (i + 1,))
        images.append(r0 * x * ~r0)
    return MappingClassData(model, GroupEndomorphism(model.alphabet, images))


def _as_b_word(model, w):
    """Accept a word over the surface alphabet (b-letters only) or over the
    plain b alphabet; return it over the surface alphabet."""
    g = model.genus
    if w.alphabet == model.alphabet:
        # the a-letters are generators i < g, with the codes i and ~i
        if any(-g <= x < g for x in set(w.buf)):
            raise PreconditionError("push words must use only b-letters")
        return w
    if len(w.alphabet) == g:
        # code x is generator x, or ~x inverted (words.py); generator i of
        # the b alphabet is generator g + i of the surface
        return Word(model.alphabet,
                    [x + g + 1 if x >= 0 else x - g for x in w.buf])
    raise PreconditionError("push word over an unexpected alphabet")


def _push_data(model, lambdas):
    """Conjugated b-images and the telescoping a-corrections for a push tuple.

    The tuple is admissible when the conjugated b-images multiply back to the
    boundary product, i.e. c_g ... c_1 = b_g ... b_1 read right to left; the
    corrections u_i then make the full endomorphism fix r0 exactly.
    """
    g = model.genus
    if len(lambdas) != g:
        raise PreconditionError("need one push word per handle")
    lams = [_as_b_word(model, w) for w in lambdas]
    cs = [~lams[i] * model.b(i + 1) * lams[i] for i in range(g)]
    lhs = Word(model.alphabet)
    rhs = Word(model.alphabet)
    for i in range(g - 1, -1, -1):
        lhs = lhs * cs[i]
        rhs = rhs * model.b(i + 1)
    if lhs != rhs:
        raise RelationViolatedError(
            "push words do not satisfy the boundary product relation")
    us = []
    acc_c = Word(model.alphabet)
    acc_b = Word(model.alphabet)
    for i in range(g):
        us.append(acc_c * ~acc_b)
        acc_c = cs[i] * acc_c
        acc_b = model.b(i + 1) * acc_b
    return lams, cs, us


def braid_automorphism(model, lambdas):
    """The mapping class pushing handle i along the loop lambda_i.

    b_i is conjugated by the push loop and a_i picks up the loop on the
    right, together with the telescoping correction that keeps the boundary
    relator fixed letter for letter.
    """
    g = model.genus
    lams, cs, us = _push_data(model, lambdas)
    images = []
    for i in range(g):
        images.append(us[i] * model.a(i + 1) * lams[i])
    images.extend(cs)
    f = MappingClassData(model, GroupEndomorphism(model.alphabet, images))
    return f


def johnson_depth(f, cap=DEFAULT_CAP):
    """Least lower-central weight of a generator defect, or None for >= cap."""
    f.check_invertible()
    best = None
    for i in range(len(f.model.alphabet)):
        w = weight_of(f.defect(i), cap)
        if w is not None and (best is None or w < best):
            best = w
            if best == 1:
                break
    return best


def jprime_depth(f, cap=DEFAULT_CAP):
    """Same as johnson_depth but with defects measured in the closed-surface
    group: a defect only counts with its leading weight modulo the relator."""
    f.check_invertible()
    best = None
    for i in range(len(f.model.alphabet)):
        got = surface_class(f.model, f.defect(i), cap)
        if got is not None and (best is None or got[0] < best):
            best = got[0]
    return best


class HomValue:
    """A homomorphism from homology to the weight-k layer, on basis classes."""

    __slots__ = ("model", "k", "reduced", "values")

    def __init__(self, model, k, values, reduced):
        vals = {}
        for m, e in (values.items() if isinstance(values, dict) else values):
            if e.weight != k:
                raise ValueError("value of weight %d in weight-%d homomorphism"
                                 % (e.weight, k))
            if not e.is_zero():
                vals[m] = e
        self.model = model
        self.k = k
        self.reduced = reduced
        self.values = vals

    def value(self, m):
        return self.values.get(m, LieElement.zero(self.k))

    def __eq__(self, other):
        return (isinstance(other, HomValue) and self.k == other.k
                and self.reduced == other.reduced and self.values == other.values)

    def is_zero(self):
        return not self.values

    def __repr__(self):
        names = self.model.alphabet.names
        inner = ", ".join("%s->%r" % (names[m], e)
                          for m, e in sorted(self.values.items()))
        return "HomValue(k=%d, %s)" % (self.k, inner or "0")


class TauValue:
    """An element of H_1 tensor the weight-k layer, as basis-indexed terms.

    ``free`` values live over the free Lie ring of the punctured surface;
    otherwise every Lie part is stored in its symplectic-quotient normal
    form, so equality of values is equality of classes.
    """

    __slots__ = ("model", "k", "free", "terms")

    def __init__(self, model, k, free, terms):
        tm = {}
        for m, e in (terms.items() if isinstance(terms, dict) else terms):
            if e.weight != k:
                raise ValueError("term of weight %d in weight-%d value"
                                 % (e.weight, k))
            if not e.is_zero():
                tm[m] = e
        self.model = model
        self.k = k
        self.free = free
        self.terms = tm

    @staticmethod
    def zero(model, k, free=False):
        return TauValue(model, k, free, {})

    def term(self, m):
        return self.terms.get(m, LieElement.zero(self.k))

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, TauValue) and self.k == other.k
                and self.free == other.free and self.terms == other.terms)

    def __add__(self, other):
        if self.k != other.k or self.free != other.free:
            raise ValueError("cannot add values of different weight or kind")
        tm = dict(self.terms)
        for m, e in other.terms.items():
            tm[m] = tm[m] + e if m in tm else e
        out = TauValue(self.model, self.k, self.free, tm)
        return out if self.free else out.renormalize()

    def __neg__(self):
        return TauValue(self.model, self.k, self.free,
                        {m: -e for m, e in self.terms.items()})

    def renormalize(self):
        """The closed-surface value: every Lie part reduced modulo the
        symplectic ideal (coefficient reduction when the value is free)."""
        ideal = self.model.symplectic_ideal()
        return TauValue(self.model, self.k, False,
                        {m: ideal.reduce(e).vector for m, e in self.terms.items()})

    def __repr__(self):
        names = self.model.alphabet.names
        inner = " + ".join("%s(x)%r" % (names[m], e)
                           for m, e in sorted(self.terms.items()))
        return "TauValue(k=%d, %s, %s)" % (
            self.k, "free" if self.free else "reduced", inner or "0")


def _defect_classes(f, k):
    """Free weight-k class of every generator defect, in generator order.

    Raises DepthTooShallowError for the first defect with a nonzero term in
    a degree below k; the class and that check come from one expansion.
    """
    if k < 1:
        raise PreconditionError("weight must be >= 1")
    out = []
    for i, name in enumerate(f.model.alphabet.names):
        w, e = leading_class(f.defect(i), k)
        if w is not None:
            raise DepthTooShallowError(
                "defect of generator %s has weight %d < %d" % (name, w, k),
                weight=w)
        out.append(e)
    return out


def sigma(f, k, free=False):
    """[x] -> class of phi(x) x^-1 in the weight-k layer of the closed
    surface, or of the free Lie ring when free is set."""
    f.check_invertible()
    classes = _defect_classes(f, k)
    if not free:
        ideal = f.model.symplectic_ideal()
        classes = [ideal.reduce(e).vector for e in classes]
    return HomValue(f.model, k, dict(enumerate(classes)), reduced=not free)


def _omega_basis(g, i, m):
    if m == i + g:
        return 1
    if m == i - g:
        return -1
    return 0


def eta(tv):
    """h (x) l  |->  ([x] -> omega(h, [x]) l), on basis-indexed terms."""
    g = tv.model.genus
    vals = {}
    for m in range(2 * g):
        acc = LieElement.zero(tv.k)
        for i, e in tv.terms.items():
            c = _omega_basis(g, i, m)
            if c:
                acc = acc + e.scale(c)
        vals[m] = acc
    return HomValue(tv.model, tv.k, vals, reduced=not tv.free)


def eta_inverse(h):
    """sum over i of alpha_i (x) h(beta_i) - beta_i (x) h(alpha_i)."""
    g = h.model.genus
    terms = {}
    for i in range(g):
        hb = h.value(g + i)
        if not hb.is_zero():
            terms[i] = hb
        ha = h.value(i)
        if not ha.is_zero():
            terms[g + i] = -ha
    return TauValue(h.model, h.k, free=not h.reduced, terms=terms)


def tau(f, k):
    """The weight-k Johnson value in the closed-surface coefficients."""
    return eta_inverse(sigma(f, k))


def tau1(f, k):
    """The weight-k Johnson value with free (punctured-surface) coefficients."""
    return eta_inverse(sigma(f, k, free=True))


def point_push_tau(model, lambdas, k):
    """Johnson value of the push along lambda, straight from the loops.

    Requires every loop to lie in weight >= k; the value is
    - sum over i of beta_i (x) [lambda_i], surface-reduced.
    """
    g = model.genus
    lams, _, _ = _push_data(model, lambdas)
    ideal = model.symplectic_ideal()
    terms = {}
    for i in range(g):
        if not lams[i]:
            continue
        w, e = leading_class(lams[i], k)
        if w is not None:
            raise WeightTooLowError(
                "push word %d has weight %d < %d" % (i + 1, w, k), weight=w)
        e = ideal.reduce(e).vector
        if not e.is_zero():
            terms[g + i] = -e
    return TauValue(model, k, free=False, terms=terms)


def push_tuple_of(f):
    """Recover the push words of a braid-type mapping class.

    Each b-image must be a conjugate of its generator; the conjugator is
    normalized to have zero net b_i-exponent so that deep tuples stay deep.
    Returns None when some image is not of that shape.
    """
    model = f.model
    g = model.genus
    out = []
    for i in range(g):
        c = f.endo.images[g + i]
        # peel matched conjugating pairs: c = w b_i^e w^-1 with e = +-1;
        # b_i has the code g + i and a letter's inverse the code ~x (words.py)
        target = g + i
        buf = c.buf
        lo, hi = 0, len(buf)
        while hi - lo > 1 and buf[lo] == ~buf[hi - 1]:
            lo += 1
            hi -= 1
        if hi - lo != 1 or buf[lo] != target:
            return None
        lam = ~Word._reduced(model.alphabet, buf[:lo])
        # left b_i-powers do not change the conjugate; normalize to zero net
        # exponent so that deep tuples stay deep
        net = lam.buf.count(target) - lam.buf.count(~target)
        if net:
            lam = model.alphabet.letter(target, -net) ** abs(net) * lam
        if any(-g <= x < g for x in set(lam.buf)):  # an a-letter
            return None
        out.append(lam)
    return out
