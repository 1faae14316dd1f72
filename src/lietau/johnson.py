"""Johnson filtration depths and the homomorphisms sigma, eta, tau.

A mapping class is given by its action on the free fundamental group of
the once-punctured surface, as generator image words; fixing the boundary
pointwise means fixing the relator r0 on the nose, which is checked on the
given words at construction.  Every depth and Johnson value is read from
the truncated Magnus action X_i -> M(phi(x_i)) at the cap it needs (Morita,
Duke Math. J. 70, 1993; Kitano, Topology Appl. 69, 1996).  Depth in the
filtration is the least positive degree of a generator defect series
D_i = M(phi(x_i)) M(x_i)^-1, walked up the caps together (`magnus.walk`).
One value type, `TauValue`, whose constructor alone puts a closed-surface
value in normal form, holds every Johnson value.  sigma reads the degree-k
classes of the D_i (`magnus.leading_class`) as one in Hom(H, L_k), term m
the image of basis class m.  eta, the duality omega gives between H (x) L_k
and Hom(H, L_k), is the signed swap of the basis halves alpha_i, beta_i:
alpha_i (x) l -> (beta_i -> l), beta_i (x) l -> (alpha_i -> -l).  So
eta^-1 = -eta, and tau_k is eta^-1 after sigma.

A class built by `compose` holds its two factors and nothing else.  It
needs no relator check, since phi(r0) = r0 and psi(r0) = r0 give
phi(psi(r0)) = r0.  Its action at a cap is its factors' actions composed by
series substitution, and its image words are its factors' words composed,
built only when `endo` is read (`MappingClassData` lists the readers).  So
no depth or Johnson value of a long composite of short factors expands or
even forms its image words.
"""

import threading
from itertools import islice

from .errors import (DepthTooShallowError, PreconditionError,
                     RelationViolatedError, WeightTooLowError)
from .lie import LieElement
from .magnus import NilpotentAction, leading_class, magnus, walk
from .surface import surface_class
from .words import GroupEndomorphism, Word

DEFAULT_CAP = 8


class MappingClassData:
    """A boundary-fixing mapping class: given by generator images, or the
    composite of two classes, `outer` after `inner` (both None when the
    images are given).

    The image words (key None) and the action at each cap are cached on
    every class of a composition tree, under its own lock.  A composite's
    words are built only when `endo` is read: by equality, hashing and
    repr, `defect` and `push_tuple_of`.
    """

    def __init__(self, model, endo):
        if endo.alphabet != model.alphabet:
            raise RelationViolatedError("endomorphism over the wrong alphabet")
        # This check also makes phi invertible on homology, hence on every
        # nilpotent quotient: r0 has class omega = sum a_i ^ b_i in
        # Gamma_2/Gamma_3 = Lambda^2 H, and phi(r0) = r0 gives
        # Lambda^2 M (omega) = omega for the matrix M of phi on H, that is
        # M^T J M = J, so det M = +-1.
        if endo.apply(model.relator) != model.relator:
            raise RelationViolatedError(
                "generator images do not fix the boundary relator")
        self.model, self.outer, self.inner = model, None, None
        self._cache, self._lock = {None: endo}, threading.Lock()

    def _get(self, key):
        with self._lock:
            return self._cache.get(key)

    def _put(self, key, value):
        with self._lock:
            self._cache.setdefault(key, value)

    def _value(self, key, leaf, combine):
        """The value under key: leaf(endo) at a class given by images,
        combine(outer's, inner's) at a composite.  Evaluated with an
        explicit stack, so a chain of any depth evaluates, and cached on
        every class it passes."""
        stack = [self]
        while stack:
            f = stack[-1]
            if f._get(key) is not None:
                stack.pop()
            elif f.outer is None:
                f._put(key, leaf(f._get(None)))
            else:
                todo = [c for c in (f.inner, f.outer) if c._get(key) is None]
                if todo:
                    stack += todo
                else:
                    f._put(key, combine(f.outer._get(key), f.inner._get(key)))
        return self._get(key)

    @property
    def endo(self):
        """The generator images, as a GroupEndomorphism."""
        return self._value(None, None, GroupEndomorphism.compose)

    def __eq__(self, other):
        return (isinstance(other, MappingClassData)
                and self.model.genus == other.model.genus
                and self.endo == other.endo)

    def __hash__(self):
        return hash(self.endo)

    def action(self, cap):
        """The truncated Magnus action through cap, as a NilpotentAction;
        cached per cap."""
        if cap < 1:
            raise PreconditionError("cap must be >= 1")
        return self._value(
            cap, lambda endo: NilpotentAction.of_words(endo.images, cap),
            NilpotentAction.after)

    def defect(self, index):
        """phi(x) x^-1 for the 0-based generator index."""
        x = Word(self.model.alphabet, (index + 1,))
        return self.endo.apply(x) * ~x

    def compose(self, other):
        """self after other, as mapping classes."""
        if self.model.genus != other.model.genus:
            raise PreconditionError("genus mismatch in composition")
        out = MappingClassData.__new__(MappingClassData)
        out.model, out.outer, out.inner = self.model, self, other
        out._cache, out._lock = {}, threading.Lock()
        return out

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


def _push_data(model, lambdas):
    """The push words, checked, and their conjugated b-images.

    Each word must be over the surface alphabet in b-letters only.  The
    tuple is admissible when the conjugated b-images multiply back to the
    boundary product, i.e. c_g ... c_1 = b_g ... b_1 read right to left.
    """
    g = model.genus
    if len(lambdas) != g:
        raise PreconditionError("need one push word per handle")
    for w in lambdas:
        if w.alphabet != model.alphabet:
            raise PreconditionError("push word over an unexpected alphabet")
        # the a-letters are generators i < g, with the codes i and ~i
        if any(-g <= x < g for x in set(w.buf)):
            raise PreconditionError("push words must use only b-letters")
    lams = list(lambdas)
    cs = [~lams[i] * model.b(i + 1) * lams[i] for i in range(g)]
    lhs = rhs = Word(model.alphabet)
    for i in range(g - 1, -1, -1):
        lhs = lhs * cs[i]
        rhs = rhs * model.b(i + 1)
    if lhs != rhs:
        raise RelationViolatedError(
            "push words do not satisfy the boundary product relation")
    return lams, cs


def braid_automorphism(model, lambdas):
    """The mapping class pushing handle i along the loop lambda_i.

    b_i is conjugated by the push loop and a_i picks up the loop on the
    right, after the telescoping correction (c_{i-1} ... c_1)(b_{i-1} ...
    b_1)^-1 that keeps the boundary relator fixed letter for letter.
    """
    lams, cs = _push_data(model, lambdas)
    images = []
    acc_c = acc_b = Word(model.alphabet)
    for i, (lam, c) in enumerate(zip(lams, cs)):
        images.append(acc_c * ~acc_b * model.a(i + 1) * lam)
        acc_c = c * acc_c
        acc_b = model.b(i + 1) * acc_b
    return MappingClassData(model, GroupEndomorphism(model.alphabet, images + cs))


def johnson_depth(f, cap=DEFAULT_CAP):
    """Least lower-central weight of a generator defect, or None for >= cap.

    Walks every defect's series together, one cap at a time, so no cap
    above the depth is read: the first cap where some defect has a class
    gives the depth.
    """
    n = len(f.model.alphabet)
    walks = [walk(_defect_series(f, i)) for i in range(n)]
    step = next(filter(any, islice(zip(*walks), cap)), None)
    return None if step is None else next(filter(None, step))[0]


def jprime_depth(f, cap=DEFAULT_CAP):
    """Same as johnson_depth but with defects measured in the closed-surface
    group: a defect only counts with its leading weight modulo the relator.

    Each defect's class lies at or above its free weight, so once a weight
    is found, the later defects are walked only below it.
    """
    best = None
    for i in range(len(f.model.alphabet)):
        top = cap if best is None else best - 1
        if top < 1:
            break
        got = surface_class(f.model, _defect_series(f, i), top)
        if got is not None:
            best = got[0]
    return best


def _defect_series(f, i):
    """The series source of f's i-th defect, for `walk` and `surface_class`."""
    return lambda cap: f.action(cap).defect(i)


class TauValue:
    """An element of H_1 tensor the weight-k layer as basis-indexed terms;
    `sigma` returns one read in Hom(H_1, L_k), term m the image of class m.

    ``free`` values live over the free Lie ring of the punctured surface;
    otherwise the constructor stores every Lie part in its
    symplectic-quotient normal form, so equality of values is equality of
    classes.  A value with no nonzero term builds no ideal level.
    """

    __slots__ = ("model", "k", "free", "terms")

    def __init__(self, model, k, free, terms):
        self.model, self.k, self.free, self.terms = model, k, free, {}
        for m, e in terms.items():
            if e.weight != k:
                raise ValueError("term of weight %d in weight-%d value"
                                 % (e.weight, k))
            if not (free or e.is_zero()):
                e = model.symplectic_ideal().reduce(e).vector
            if not e.is_zero():
                self.terms[m] = e

    @staticmethod
    def zero(model, k, free=False):
        return TauValue(model, k, free, {})

    def term(self, m):
        return self.terms.get(m, LieElement.zero(self.k))

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, TauValue)
                and self.model.genus == other.model.genus
                and self.k == other.k and self.free == other.free
                and self.terms == other.terms)

    def __add__(self, other):
        if (self.model.genus != other.model.genus or self.k != other.k
                or self.free != other.free):
            raise ValueError("cannot add values of different genus, weight "
                             "or kind")
        tm = dict(self.terms)
        for m, e in other.terms.items():
            tm[m] = tm[m] + e if m in tm else e
        return TauValue(self.model, self.k, self.free, tm)

    def __neg__(self):
        return TauValue(self.model, self.k, self.free,
                        {m: -e for m, e in self.terms.items()})

    def renormalize(self):
        """The closed-surface value: every Lie part in its normal form."""
        return TauValue(self.model, self.k, False, self.terms)

    def __repr__(self):
        names = self.model.alphabet.names
        inner = " + ".join("%s(x)%r" % (names[m], e)
                           for m, e in sorted(self.terms.items()))
        return "TauValue(k=%d, %s, %s)" % (
            self.k, "free" if self.free else "reduced", inner or "0")


def _defect_classes(f, k):
    """Free weight-k class of every generator defect, in generator order.

    Raises DepthTooShallowError for the first defect with a nonzero term in
    a degree below k, with the least such degree; the classes and that
    check come from the one action at cap k.
    """
    if k < 1:
        raise PreconditionError("weight must be >= 1")
    act = f.action(k)
    out = []
    for i, name in enumerate(f.model.alphabet.names):
        low, e = leading_class(act.defect(i), k)
        if low is not None:
            raise DepthTooShallowError(
                "defect of generator %s has weight %d < %d" % (name, low, k),
                weight=low)
        out.append(e)
    return out


def sigma(f, k, free=False):
    """[x] -> class of phi(x) x^-1 in the weight-k layer of the closed
    surface, or of the free Lie ring when free is set: the value whose
    term m is the image of basis class m."""
    return TauValue(f.model, k, free, dict(enumerate(_defect_classes(f, k))))


def _swap(value, sign, free):
    """The value with the basis halves swapped: the term on alpha_i moves
    to beta_i times sign, the one on beta_i to alpha_i times -sign."""
    g = value.model.genus
    return TauValue(value.model, value.k, free,
                    {(m + g) % (2 * g): e if (m < g) == (sign > 0) else -e
                     for m, e in value.terms.items()})


def eta(tv):
    """h (x) l  |->  ([x] -> omega(h, [x]) l): the signed swap sending
    alpha_i (x) l to beta_i -> l and beta_i (x) l to alpha_i -> -l."""
    return _swap(tv, 1, tv.free)


def eta_inverse(h):
    """sum over i of alpha_i (x) h(beta_i) - beta_i (x) h(alpha_i), that
    is -eta(h)."""
    return _swap(h, -1, h.free)


def tau(f, k):
    """The weight-k Johnson value in the closed-surface coefficients: the
    free defect classes swapped, each nonzero term then reduced once."""
    return _swap(sigma(f, k, free=True), -1, False)


def tau1(f, k):
    """The weight-k Johnson value with free (punctured-surface) coefficients."""
    return eta_inverse(sigma(f, k, free=True))


def point_push_tau(model, lambdas, k):
    """Johnson value of the push along lambda, straight from the loops.

    Requires every loop to lie in weight >= k; the value is
    - sum over i of beta_i (x) [lambda_i], surface-reduced.
    """
    g = model.genus
    lams, _ = _push_data(model, lambdas)
    terms = {}
    for i in range(g):
        if not lams[i]:
            continue
        w, e = leading_class(magnus(lams[i], k), k)
        if w is not None:
            raise WeightTooLowError(
                "push word %d has weight %d < %d" % (i + 1, w, k), weight=w)
        terms[g + i] = -e
    return TauValue(model, k, False, terms)


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
