"""Test-only generators for braid-type mapping classes.

Provides the canonical-order bounded word search for admissible push tuples
(the cross-validation oracle), exact inverses of elementary push braids, and
commutator composites that reach depth 3.
"""

from lietau.johnson import braid_automorphism, push_tuple_of
from lietau.magnus import weight_of
from lietau.words import GroupEndomorphism, Word, word_from_str


def reduced_b_words(model, maxlen, balanced=False):
    """Freely reduced words in the b-letters, shortest first, lexicographic
    within a length; generated depth-first per length to keep memory flat.

    With balanced=True only the words whose exponent sum in every b-letter
    is 0 are generated, in the same order: a prefix is dropped as soon as
    its exponent sums cannot return to 0 within the letters left.
    """
    g = model.genus
    letters = []
    for i in range(g):
        letters.extend((g + 1 + i, -(g + 1 + i)))

    def emit(prefix, sums, remaining):
        if balanced and sum(map(abs, sums)) > remaining:
            return
        if remaining == 0:
            yield Word(model.alphabet, prefix)
            return
        for x in letters:
            if prefix and prefix[-1] == -x:
                continue
            step = list(sums)
            step[abs(x) - g - 1] += 1 if x > 0 else -1
            yield from emit(prefix + (x,), step, remaining - 1)

    for length in range(maxlen + 1):
        yield from emit((), [0] * g, length)


def _conjugator_to(word, target_letter):
    """w with word == w * letter * w^-1, or None; the letter must be positive."""
    letters = list(word.letters)
    lo, hi = 0, len(letters)
    while hi - lo > 1 and letters[lo] == -letters[hi - 1]:
        lo += 1
        hi -= 1
    if hi - lo != 1 or letters[lo] != target_letter:
        return None
    return letters[:lo]


def search_push_tuples_g2(model, maxlen, min_weight=2, cap=6, prune=True):
    """Bounded search for admissible genus-2 push tuples, canonical order.

    Enumerates lambda_1 over reduced b-words of length <= maxlen whose
    lower-central weight is at least min_weight, solves the boundary product
    relation for lambda_2, and keeps the solutions meeting the same bounds.
    A word of weight >= 2 has exponent sum 0 in every letter, so for
    min_weight >= 2 the enumeration skips the other words unless prune=False;
    the result is the same.
    """
    assert model.genus == 2
    b1, b2 = model.b(1), model.b(2)
    found = []
    balanced = prune and min_weight >= 2
    for lam1 in reduced_b_words(model, maxlen, balanced):
        if min_weight >= 2 and lam1 and weight_of(lam1, min_weight - 1) is not None:
            continue
        c1 = ~lam1 * b1 * lam1
        c2 = b2 * b1 * ~c1
        peel = _conjugator_to(c2, 4)  # letter b2 is index 4 at genus 2
        if peel is None:
            continue
        lam2 = ~Word(model.alphabet, peel)
        net = sum(1 if x == 4 else -1 if x == -4 else 0 for x in lam2.letters)
        if net:
            lam2 = Word(model.alphabet, (-4 if net > 0 else 4,) * abs(net)) * lam2
        if len(lam2) > maxlen:
            continue
        if min_weight >= 2 and lam2 and weight_of(lam2, min_weight - 1) is not None:
            continue
        found.append((lam1, lam2))
    return found


class Braid:
    """A mapping class carried together with its exact inverse.

    The pair is not checked here: the words of fwd o bwd grow exponentially
    with commutator weight.  An elementary pair comes from
    `invert_elementary`, which checks both orders on words, and a product
    pairs x y with y^-1 x^-1, which is exact when its factors are.
    """

    def __init__(self, fwd, bwd):
        self.fwd = fwd
        self.bwd = bwd

    def __mul__(self, other):
        return Braid(self.fwd.compose(other.fwd), other.bwd.compose(self.bwd))

    def inv(self):
        return Braid(self.bwd, self.fwd)


def commutator_braid(x, y):
    return x * y * x.inv() * y.inv()


def invert_elementary(f, search_len=6):
    """Exact inverse of a push braid whose inverse tuple is short.

    Finds the preimage of each b-generator by bounded search, reads off the
    inverse push tuple, and fixes the leftover framing twists.
    """
    model = f.model
    g = model.genus
    targets = [model.b(i + 1) for i in range(g)]
    pre = [None] * g
    for w in reduced_b_words(model, search_len):
        img = f.endo.apply(w)
        for i in range(g):
            if pre[i] is None and img == targets[i]:
                pre[i] = w
    if any(p is None for p in pre):
        raise AssertionError("inverse tuple not found within the length bound")

    class _Carrier:
        pass

    carrier = _Carrier()
    carrier.model = model
    carrier.endo = GroupEndomorphism(
        model.alphabet, [model.a(i + 1) for i in range(g)] + pre)
    nu = push_tuple_of(carrier)
    assert nu is not None
    g0 = braid_automorphism(model, nu)
    residual = f.compose(g0)
    lam_fix = []
    for i in range(g):
        im = residual.endo.images[i]
        assert im.letters and im.letters[0] == i + 1
        m = sum(1 if x > 0 else -1 for x in im.letters[1:])
        s = -m
        lam_fix.append(Word(model.alphabet,
                            (g + 1 + i,) * s if s >= 0 else (-(g + 1 + i),) * (-s)))
    inv = g0.compose(braid_automorphism(model, lam_fix))
    assert f.compose(inv).endo == GroupEndomorphism.identity(model.alphabet)
    assert inv.compose(f).endo == GroupEndomorphism.identity(model.alphabet)
    return inv


def elementary_braids_g3(model):
    """The two adjacent-strand full twists at genus 3, with inverses."""
    assert model.genus == 3
    ab = model.alphabet
    a12 = braid_automorphism(model, [
        word_from_str(ab, "b2^-1"), word_from_str(ab, "b1^-1 b2^-1"), Word(ab)])
    a23 = braid_automorphism(model, [
        Word(ab), word_from_str(ab, "b3^-1"), word_from_str(ab, "b2^-1 b3^-1")])
    return Braid(a12, invert_elementary(a12)), Braid(a23, invert_elementary(a23))


def depth_three_braid(model):
    """[[A12, A23], A12]: a push braid three deep in the filtration."""
    b12, b23 = elementary_braids_g3(model)
    return commutator_braid(commutator_braid(b12, b23), b12)


def depth_two_braid(model):
    b12, b23 = elementary_braids_g3(model)
    return commutator_braid(b12, b23)
