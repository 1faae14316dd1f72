"""Reduced words and endomorphisms of finitely generated free groups.

Letters are stored as nonzero integers: ``+i`` is the i-th generator of the
alphabet (1-based) and ``-i`` its inverse.  Words are always freely reduced;
all values here are immutable and safe to share between threads.

Products, inverses and endomorphism images are built by appending reduced
words to a reduced letter list.  When both sides are reduced, all free
cancellation happens at the junction: the appended word's prefix cancels
against the list's suffix, and once a letter pair survives nothing further
cancels.  `_append` finds that cancelled length with slice compares and
splices the rest in, so these results come out reduced without a second
pass.  `Word(alphabet, letters)` reduces and range-checks any letter
sequence; `Word._reduced` trusts its letters and is only fed results of
`_append` on validated Words.

An appended inverse is either read from a tuple of negated letters or
negated as it is read.  `GroupEndomorphism.compose` appends each image of
self once per letter of other's images, so it negates every image of
self once, up front, and all its junctions only slice (a slice extend
takes about 4 ns a letter, a negating one 27 ns, Python 3.11), and the
composite shares its int objects with those tuples instead of holding a
fresh one for each negated letter.  `apply`, `*` and `~` negate on the
fly, because each image is appended there about once (the relator check
applies a 4g-letter word to the images); caching the inverses in `apply`
left the time of composing two depth-3 genus-3 braids and checking the
relator unchanged but raised its peak RSS from 103 to 174 MB.
"""

from itertools import islice
from operator import neg

from .errors import UnknownGeneratorError


class Alphabet:
    """An ordered, duplicate-free tuple of generator names.

    The position of a name is its rank in the total order consumed by the
    Hall-basis machinery, so two alphabets with the same names in a different
    order are different alphabets.
    """

    __slots__ = ("names", "index")

    def __init__(self, names):
        names = tuple(str(n) for n in names)
        if not names:
            raise ValueError("alphabet must have at least one generator")
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names: %r" % (names,))
        self.names = names
        self.index = {nm: i for i, nm in enumerate(names)}

    def __len__(self):
        return len(self.names)

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return "Alphabet(%s)" % ",".join(self.names)

    def generator(self, name):
        """The one-letter word for a generator name."""
        try:
            i = self.index[name]
        except KeyError:
            raise UnknownGeneratorError("unknown generator %r" % name,
                                        alphabet=self.names) from None
        return Word(self, (i + 1,))

    def letter(self, i, exponent=1):
        """One-letter word from a 0-based generator index."""
        if not 0 <= i < len(self.names):
            raise UnknownGeneratorError("generator index %d out of range" % i)
        return Word(self, (i + 1 if exponent >= 0 else -(i + 1),))


def surface_alphabet(genus):
    """a_1 < ... < a_g < b_1 < ... < b_g, the order everything downstream uses."""
    if genus < 1:
        raise ValueError("genus must be >= 1")
    return Alphabet(["a%d" % i for i in range(1, genus + 1)]
                    + ["b%d" % i for i in range(1, genus + 1)])


def _append(out, img, sign, inv=None):
    """Append the reduced letter tuple img (sign > 0) or its inverse
    (sign < 0) to the reduced letter list out, cancelling at the junction.

    inv, if given, is img's inverse as a tuple; then the junction only
    slices.  Without it the letters of the inverse are negated on the fly.
    """
    # fwd is the appended word and back its inverse; None means "negate the
    # other one as it is read"
    fwd, back = (img, inv) if sign > 0 else (inv, img)
    n, m = len(out), len(img)
    lim = n if n < m else m
    c = 0
    if lim and out[-1] == (back[-1] if back is not None else -fwd[0]):
        # out[n-e:n-c] cancels against letters c..e-1 of the appended word;
        # that holds for every e up to the cancelled length and for none
        # beyond it, so gallop up by doubling steps, then halve back down
        c, step, grow = 1, 1, True
        while step:
            e = c + step
            if e > lim:
                e = lim
            if e > c and (
                    tuple(out[n - e:n - c]) == back[m - e:m - c]
                    if back is not None else
                    out[n - e:n - c] == list(map(neg, reversed(fwd[c:e])))):
                c = e
                if grow:
                    step *= 2
            else:
                grow = False
                step //= 2
    del out[n - c:]
    if fwd is not None:
        out.extend(fwd[c:])
    else:
        out.extend(map(neg, islice(reversed(back), c, None)))


def _substitute(fwd, inv, letters):
    """The reduced letter list of the word letters with each +i read as the
    tuple fwd[i-1] and each -i as its inverse inv[i-1] (None: negate fwd[i-1]
    on the fly)."""
    out = []
    for x in letters:
        i = abs(x) - 1
        _append(out, fwd[i], x, inv[i])
    return out


def _reduce_letters(letters):
    out = []
    for x in letters:
        if x == 0:
            raise ValueError("0 is not a letter")
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


class Word:
    """A freely reduced word.  Construction reduces, so reduction is idempotent."""

    __slots__ = ("alphabet", "letters", "_hash")

    def __init__(self, alphabet, letters=()):
        n = len(alphabet)
        letters = _reduce_letters(letters)
        for x in letters:
            if abs(x) > n:
                raise UnknownGeneratorError("letter %d outside alphabet of size %d" % (x, n))
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _reduced(cls, alphabet, letters):
        """A Word from letters known to be reduced and inside the alphabet."""
        w = cls.__new__(cls)
        object.__setattr__(w, "alphabet", alphabet)
        object.__setattr__(w, "letters", tuple(letters))
        object.__setattr__(w, "_hash", None)
        return w

    def __setattr__(self, *a):
        raise AttributeError("Word is immutable")

    def __len__(self):
        return len(self.letters)

    def __bool__(self):
        return bool(self.letters)

    def __eq__(self, other):
        return (isinstance(other, Word) and self.alphabet == other.alphabet
                and self.letters == other.letters)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.alphabet, self.letters))
            object.__setattr__(self, "_hash", h)
        return h

    def __mul__(self, other):
        if self.alphabet != other.alphabet:
            raise UnknownGeneratorError("words over different alphabets")
        out = list(self.letters)
        _append(out, other.letters, 1)
        return Word._reduced(self.alphabet, out)

    def __invert__(self):
        out = []
        _append(out, self.letters, -1)
        return Word._reduced(self.alphabet, out)

    def __pow__(self, n):
        if n == 0:
            return Word(self.alphabet)
        base = self if n > 0 else ~self
        out = base
        for _ in range(abs(n) - 1):
            out = out * base
        return out

    def __repr__(self):
        return "Word(%s)" % (word_to_str(self) or "1")

    def conjugate(self, by):
        """by * self * by^-1."""
        return by * self * ~by


def commutator(w1, w2):
    """w1 w2 w1^-1 w2^-1, reduced."""
    return w1 * w2 * ~w1 * ~w2


class GroupEndomorphism:
    """An endomorphism of the free group, given by the images of all generators."""

    __slots__ = ("alphabet", "images")

    def __init__(self, alphabet, images):
        images = tuple(images)
        if len(images) != len(alphabet):
            raise UnknownGeneratorError(
                "need an image for each of the %d generators" % len(alphabet))
        for w in images:
            if w.alphabet != alphabet:
                raise UnknownGeneratorError("image word over a different alphabet")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "images", images)

    def __setattr__(self, *a):
        raise AttributeError("GroupEndomorphism is immutable")

    @staticmethod
    def identity(alphabet):
        return GroupEndomorphism(
            alphabet, [Word(alphabet, (i + 1,)) for i in range(len(alphabet))])

    @staticmethod
    def from_dict(alphabet, image_map):
        """Build from {name: Word}; omitted generators map to themselves.
        A name outside the alphabet raises UnknownGeneratorError."""
        for nm in image_map:
            if nm not in alphabet.index:
                raise UnknownGeneratorError("unknown generator %r" % (nm,),
                                            alphabet=alphabet.names)
        images = []
        for i, nm in enumerate(alphabet.names):
            images.append(image_map.get(nm, Word(alphabet, (i + 1,))))
        return GroupEndomorphism(alphabet, images)

    def __eq__(self, other):
        return (isinstance(other, GroupEndomorphism)
                and self.alphabet == other.alphabet and self.images == other.images)

    def __hash__(self):
        return hash((self.alphabet, self.images))

    def apply(self, w):
        """Homomorphic image of w, freely reduced; inverse images are
        negated on the fly (see the module docstring)."""
        if w.alphabet != self.alphabet:
            raise UnknownGeneratorError("word over a different alphabet")
        fwd = [v.letters for v in self.images]
        return Word._reduced(
            self.alphabet, _substitute(fwd, (None,) * len(fwd), w.letters))

    def compose(self, other):
        """self after other: (self.compose(other))(w) == self(other(w)).

        Every image of self is appended at every letter of other's images,
        so each is negated once here and the junctions only slice; `apply`
        negates on the fly instead (see the module docstring).
        """
        if other.alphabet != self.alphabet:
            raise UnknownGeneratorError("word over a different alphabet")
        fwd = [v.letters for v in self.images]
        inv = [tuple(map(neg, reversed(t))) for t in fwd]
        return GroupEndomorphism(self.alphabet, [
            Word._reduced(self.alphabet, _substitute(fwd, inv, w.letters))
            for w in other.images])

    def __repr__(self):
        parts = ("%s->%s" % (nm, word_to_str(w) or "1")
                 for nm, w in zip(self.alphabet.names, self.images))
        return "GroupEndomorphism(%s)" % ", ".join(parts)


def word_to_str(w):
    """Compact string form, e.g. ``a1 b1 a1^-1 b1^-1``; runs merge as ``a1^3``."""
    toks = []
    i = 0
    lets = w.letters
    while i < len(lets):
        j = i
        while j < len(lets) and lets[j] == lets[i]:
            j += 1
        name = w.alphabet.names[abs(lets[i]) - 1]
        exp = (j - i) * (1 if lets[i] > 0 else -1)
        toks.append(name if exp == 1 else "%s^%d" % (name, exp))
        i = j
    return " ".join(toks)


def word_from_str(alphabet, s):
    """Parse the compact string form (whitespace-separated ``name`` / ``name^k``)."""
    letters = []
    for tok in s.split():
        if "^" in tok:
            name, _, exps = tok.partition("^")
            try:
                exp = int(exps)
            except ValueError:
                raise UnknownGeneratorError("bad exponent in token %r" % tok) from None
        else:
            name, exp = tok, 1
        if name not in alphabet.index:
            raise UnknownGeneratorError("unknown generator %r" % name,
                                        alphabet=alphabet.names)
        i = alphabet.index[name] + 1
        letters.extend([i if exp > 0 else -i] * abs(exp))
    return Word(alphabet, letters)


def word_from_pairs(alphabet, pairs):
    """Parse the JSON array form [[name, exponent], ...]."""
    letters = []
    for name, exp in pairs:
        if name not in alphabet.index:
            raise UnknownGeneratorError("unknown generator %r" % name,
                                        alphabet=alphabet.names)
        i = alphabet.index[name] + 1
        exp = int(exp)
        letters.extend([i if exp > 0 else -i] * abs(exp))
    return Word(alphabet, letters)


def word_to_pairs(w):
    out = []
    for x in w.letters:
        name = w.alphabet.names[abs(x) - 1]
        exp = 1 if x > 0 else -1
        if out and out[-1][0] == name and (out[-1][1] > 0) == (exp > 0):
            out[-1][1] += exp
        else:
            out.append([name, exp])
    return out
