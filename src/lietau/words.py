"""Reduced words and endomorphisms of finitely generated free groups.

A letter is a nonzero integer: ``+i`` is the i-th generator of the alphabet
(1-based) and ``-i`` its inverse.  Words are always freely reduced; all
values here are immutable and safe to share between threads.

A `Word` keeps its reduced letters in one ``array('i')``, ``buf``, as codes:
``+i`` is stored as ``i-1`` and ``-i`` as ``~(i-1)``.  A code ``s`` is thus
generator ``s`` if ``s >= 0`` and the inverse of generator ``~s`` otherwise,
and inverting a letter maps its code ``s`` to ``~s``, which complements
every byte of it, whatever the int width and byte order.  So the inverse of
a word is its buffer reversed by a slice and passed once through
`bytes.translate` with a complementing table, about 7 ns a letter in C.
`Word.letters` decodes the buffer to a tuple of signed ints for I/O; the hot readers in
other modules iterate ``buf``.

Products and endomorphism images are built by appending reduced words to a
reduced code array.  When both sides are reduced, all free cancellation
happens at the junction: the appended word's prefix cancels against the
array's suffix, and once a letter pair survives nothing further cancels.
`_append` finds that cancelled length by galloping compares of array
slices against the appended word's inverse and splices the rest in with one
slice, so results come out reduced without a second pass and no letter is
read in Python.  `apply` and `compose` invert an image once, the first
time it is appended inverted or cancels at the junction; an image appended
forward onto a letter it does not cancel is only copied.  Composing the
words of the benchmark's two depth-3 genus-3 push braids (5.7M letters)
takes 0.09-0.11 s (Python 3.11, 2-core VM).  Which readers build a
composite mapping class's words is listed at `johnson.MappingClassData`.
`Word(alphabet, letters)` reduces and range-checks any letter sequence;
`Word._reduced` trusts its buffer and is only fed results of `_append` on
validated Words.
"""

from array import array
from collections import Counter
from itertools import groupby
from sys import maxsize

from .errors import UnknownGeneratorError

# maps each byte to its complement, so translating the bytes of a code
# buffer negates every letter in it
_COMPLEMENT = bytes(range(255, -1, -1))


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
        for nm in names:
            if not nm or any(ch.isspace() or ch in ",[]^" for ch in nm):
                raise ValueError("generator name %r is empty or holds "
                                 "whitespace, ',', '[', ']' or '^'" % nm)
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names: %r" % (names,))
        self.names = names
        self.index = {nm: i for i, nm in enumerate(names)}

    def __len__(self):
        return len(self.names)

    def __eq__(self, other):
        # words compare alphabets on every product and image: skip the
        # name-by-name compare for the one alphabet they share
        return self is other or (isinstance(other, Alphabet)
                                 and self.names == other.names)

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


def _inverse(buf):
    """The code array of the inverse of the word with codes buf."""
    out = array("i")
    out.frombytes(buf[::-1].tobytes().translate(_COMPLEMENT))
    return out


def _append(out, fwd, back):
    """Append the word with reduced codes fwd to the reduced code array
    out, cancelling at the junction.  back holds the codes of the inverse
    of fwd's first m letters, for some m >= min(len(out), len(fwd)): all
    of fwd, or only the stretch the junction can compare."""
    n, m = len(out), len(back)
    lim = n if n < len(fwd) else len(fwd)
    c = 0
    if lim and out[-1] == back[-1]:
        # out[n-e:n-c] cancels against letters c..e-1 of fwd, that is, it
        # equals back[m-e:m-c]; that holds for every e up to the cancelled
        # length and for none beyond it, so gallop up by doubling steps,
        # then halve back down
        c, step, grow = 1, 1, True
        while step:
            e = c + step
            if e > lim:
                e = lim
            if e > c and out[n - e:n - c] == back[m - e:m - c]:
                c = e
                if grow:
                    step *= 2
            else:
                grow = False
                step //= 2
    del out[n - c:]
    out.extend(fwd[c:] if c else fwd)


def _substitute(images, inverses, codes):
    """The reduced codes of the word with codes `codes`, each generator i
    read as the Word images[i].  inverses caches {i: the codes of the inverse
    of images[i]}; an image is inverted when first appended inverted, or
    appended with its first letter cancelling against out's last."""
    out = array("i")
    for s in codes:
        i = s if s >= 0 else ~s
        img = images[i].buf
        if s >= 0 and not (out and img and out[-1] == ~img[0]):
            out.extend(img)
            continue
        inv = inverses.get(i)
        if inv is None:
            inv = inverses[i] = _inverse(img)
        if s >= 0:
            _append(out, img, inv)
        else:
            _append(out, inv, img)
    return out


class Word:
    """A freely reduced word.  Construction reduces, so reduction is idempotent.

    `buf` holds the reduced letters as codes (see the module docstring);
    `letters` decodes them to a tuple of signed ints.
    """

    __slots__ = ("alphabet", "buf", "_hash")

    def __init__(self, alphabet, letters=()):
        codes = []
        for x in letters:
            if x == 0:
                raise ValueError("0 is not a letter")
            s = x - 1 if x > 0 else x
            if codes and codes[-1] == ~s:
                codes.pop()
            else:
                codes.append(s)
        n = len(alphabet)
        hi, lo = (max(codes), min(codes)) if codes else (0, 0)
        if hi >= n or lo < -n:
            raise UnknownGeneratorError("letter %d outside alphabet of size %d"
                                        % (hi + 1 if hi >= n else lo, n))
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "buf", array("i", codes))
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _reduced(cls, alphabet, buf):
        """A Word owning buf, a code array known to be reduced and inside
        the alphabet."""
        w = cls.__new__(cls)
        object.__setattr__(w, "alphabet", alphabet)
        object.__setattr__(w, "buf", buf)
        object.__setattr__(w, "_hash", None)
        return w

    def __setattr__(self, *a):
        raise AttributeError("Word is immutable")

    @property
    def letters(self):
        """The reduced letters as a tuple of signed ints: +i is the i-th
        generator (1-based) and -i its inverse."""
        return tuple(s + 1 if s >= 0 else s for s in self.buf)

    def __len__(self):
        return len(self.buf)

    def __bool__(self):
        return bool(self.buf)

    def exponent_sums(self):
        """The exponent sum of each generator, in alphabet order."""
        counts = Counter(self.buf)
        return [counts[i] - counts[~i] for i in range(len(self.alphabet))]

    def __eq__(self, other):
        return (isinstance(other, Word) and self.alphabet == other.alphabet
                and self.buf == other.buf)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.alphabet, self.buf.tobytes()))
            object.__setattr__(self, "_hash", h)
        return h

    def __mul__(self, other):
        if self.alphabet != other.alphabet:
            raise UnknownGeneratorError("words over different alphabets")
        out = self.buf[:]
        fwd = other.buf
        if out and fwd and out[-1] == ~fwd[0]:
            # the junction compares at most len(out) letters of fwd
            _append(out, fwd, _inverse(fwd[:len(out)]))
        else:
            out.extend(fwd)
        return Word._reduced(self.alphabet, out)

    def __invert__(self):
        return Word._reduced(self.alphabet, _inverse(self.buf))

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
        """Homomorphic image of w, freely reduced."""
        if w.alphabet != self.alphabet:
            raise UnknownGeneratorError("word over a different alphabet")
        return Word._reduced(self.alphabet,
                             _substitute(self.images, {}, w.buf))

    def compose(self, other):
        """self after other: (self.compose(other))(w) == self(other(w))."""
        if other.alphabet != self.alphabet:
            raise UnknownGeneratorError("word over a different alphabet")
        inverses = {}
        return GroupEndomorphism(self.alphabet, [
            Word._reduced(self.alphabet,
                          _substitute(self.images, inverses, w.buf))
            for w in other.images])

    def __repr__(self):
        parts = ("%s->%s" % (nm, word_to_str(w) or "1")
                 for nm, w in zip(self.alphabet.names, self.images))
        return "GroupEndomorphism(%s)" % ", ".join(parts)


def word_to_str(w):
    """Compact string form, e.g. ``a1 b1 a1^-1 b1^-1``; runs merge as ``a1^3``."""
    return " ".join(nm if e == 1 else "%s^%d" % (nm, e)
                    for nm, e in word_to_pairs(w))


def _power(alphabet, name, exp):
    """The letters of name^exp, for an exponent int() reads."""
    if name not in alphabet.index:
        raise UnknownGeneratorError("unknown generator %r" % name,
                                    alphabet=alphabet.names)
    i = alphabet.index[name] + 1
    exp = int(exp)
    if abs(exp) > maxsize:
        # longer than any sequence can be; refused before allocating
        raise UnknownGeneratorError("bad exponent for %r: more than %d letters"
                                    % (name, maxsize))
    return [i if exp > 0 else -i] * abs(exp)


def word_from_str(alphabet, s):
    """Parse the compact string form (whitespace-separated ``name`` / ``name^k``)."""
    letters = []
    for tok in s.split():
        name, hat, exps = tok.partition("^")
        try:
            exp = int(exps) if hat else 1
        except ValueError:
            raise UnknownGeneratorError("bad exponent in token %r" % tok) from None
        letters += _power(alphabet, name, exp)
    return Word(alphabet, letters)


def word_from_pairs(alphabet, pairs):
    """Parse the JSON array form [[name, exponent], ...]."""
    letters = []
    for name, exp in pairs:
        letters += _power(alphabet, name, exp)
    return Word(alphabet, letters)


def word_to_pairs(w):
    """The JSON array form; each run of one letter becomes one pair."""
    names, out = w.alphabet.names, []
    for s, run in groupby(w.buf):
        n = len(list(run))
        out.append([names[s], n] if s >= 0 else [names[~s], -n])
    return out
