import random

import pytest
from hypothesis import given, strategies as st

from lietau.errors import UnknownGeneratorError
from lietau.words import (Alphabet, GroupEndomorphism, Word, commutator,
                          surface_alphabet, word_from_pairs, word_from_str,
                          word_to_pairs, word_to_str)

AB = Alphabet(["x", "y"])
X, Y = AB.generator("x"), AB.generator("y")


def letters(*xs):
    return tuple(xs)


def test_cancellation():
    assert Word(AB, letters(1, -1)) == Word(AB)


def test_single_cancellation():
    sa = surface_alphabet(1)
    # a1 b1 b1^-1 a1 -> a1^2
    w = Word(sa, letters(1, 2, -2, 1))
    assert w == Word(sa, letters(1, 1))


def test_reduce_idempotent_on_reduced():
    w = Word(AB, letters(1, 2, -1))
    assert Word(AB, w.letters) == w


small_letters = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=20)


@given(small_letters)
def test_reduce_idempotent_and_nonincreasing(ls):
    w = Word(AB, ls)
    assert Word(AB, w.letters) == w
    assert len(w) <= len(ls)


def test_commutator_self_trivial():
    assert commutator(X, X) == Word(AB)
    assert commutator(X, ~X) == Word(AB)


def test_commutator_a1_b1():
    sa = surface_alphabet(1)
    a1, b1 = Word(sa, (1,)), Word(sa, (2,))
    assert commutator(a1, b1) == Word(sa, letters(1, 2, -1, -2))


def test_commutator_with_identity():
    assert commutator(X * Y, Word(AB)) == Word(AB)


def test_apply_identity():
    phi = GroupEndomorphism.identity(AB)
    w = X * Y * ~X
    assert phi.apply(w) == w


def test_apply_nilpotent_example():
    # x maps to [[y,x],x] and y to [[y,x],y]
    c = commutator(commutator(Y, X), X)
    d = commutator(commutator(Y, X), Y)
    phi = GroupEndomorphism(AB, [c, d])
    assert phi.apply(X) == c
    assert phi.apply(X * Y) == c * d


@given(small_letters, small_letters, small_letters, small_letters, small_letters)
def test_apply_compose_functorial(im1, im2, jm1, jm2, ws):
    phi = GroupEndomorphism(AB, [Word(AB, im1), Word(AB, im2)])
    psi = GroupEndomorphism(AB, [Word(AB, jm1), Word(AB, jm2)])
    w = Word(AB, ws)
    assert phi.compose(psi).apply(w) == phi.apply(psi.apply(w))


def test_unknown_generator():
    with pytest.raises(UnknownGeneratorError):
        Word(AB, (3,))
    with pytest.raises(UnknownGeneratorError):
        AB.generator("z")


def test_word_string_roundtrip():
    sa = surface_alphabet(2)
    w = word_from_str(sa, "a1 b1 a1^-1 b1^-1 b2^3")
    assert word_to_str(w) == "a1 b1 a1^-1 b1^-1 b2^3"
    assert word_from_str(sa, word_to_str(w)) == w


def test_word_pairs_roundtrip():
    sa = surface_alphabet(2)
    w = word_from_pairs(sa, [["a1", 2], ["b2", -1]])
    assert word_to_pairs(w) == [["a1", 2], ["b2", -1]]


def test_alphabet_duplicate_rejected():
    with pytest.raises(ValueError):
        Alphabet(["x", "x"])


@pytest.mark.parametrize("name", ["", " ", "y z", "y\t", ",", "y[1]", "]",
                                  "y^2"])
def test_alphabet_refuses_names_no_parser_reads_back(name):
    # trees print as [u,v] and words as whitespace-separated name^k tokens
    with pytest.raises(ValueError, match="generator name"):
        Alphabet(["x", name])


def test_conjugate_and_pow():
    w = X * Y
    assert w.conjugate(Y) == Y * w * ~Y
    assert X ** 3 == Word(AB, (1, 1, 1))
    assert X ** -2 == Word(AB, (-1, -1))
    assert (X ** 0) == Word(AB)


def reference_reduce(letters):
    """Free reduction letter by letter, the route the kernel must match."""
    out = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def reference_inverse(letters):
    return tuple(-x for x in reversed(letters))


def reference_apply(images, letters):
    out = []
    for x in letters:
        img = images[abs(x) - 1].letters
        out.extend(img if x > 0 else reference_inverse(img))
    return reference_reduce(out)


AB4 = Alphabet(["p", "q", "r", "s"])
AB4_LETTERS = [Word(AB4, (i + 1,)) for i in range(4)]


def random_reduced(rng, length, alphabet=AB4, pool=None):
    """A reduced word of exactly the given length, over the generators in
    pool (1-based; all of the alphabet by default)."""
    out = []
    while len(out) < length:
        x = rng.choice([1, -1]) * (rng.randint(1, len(alphabet)) if pool is None
                                   else rng.choice(pool))
        if not out or out[-1] != -x:
            out.append(x)
    return Word(alphabet, out)


def random_endo(rng, alphabet=AB4, pool=None):
    """Images mixing random words and conjugates u x u^-1, which cancel in
    long runs wherever two of them meet; generators outside pool are fixed."""
    images = [Word(alphabet, (i + 1,)) for i in range(len(alphabet))]
    for i in pool or range(1, len(alphabet) + 1):
        u = random_reduced(rng, rng.randint(0, 40), alphabet, pool)
        x = Word(alphabet, (i,))
        images[i - 1] = (u * x * ~u if rng.random() < 0.6 else
                         random_reduced(rng, rng.randint(0, 15), alphabet, pool))
    return GroupEndomorphism(alphabet, images)


def check_reduced_result(w, expected):
    # the trusted constructor agrees with the validating one
    assert w.letters == expected
    assert type(w.letters) is tuple
    assert w == Word(w.alphabet, expected)


def check_against_reference(rng, phi, alphabet=AB4, pool=None):
    u = random_reduced(rng, rng.randint(0, 30), alphabet, pool)
    v = random_reduced(rng, rng.randint(0, 30), alphabet, pool)
    # a shared stretch makes u * ~v cancel far into both
    v = (random_reduced(rng, rng.randint(0, 5), alphabet, pool) * u
         if rng.random() < 0.5 else v)
    check_reduced_result(phi.apply(u), reference_apply(phi.images, u.letters))
    check_reduced_result(u * v, reference_reduce(u.letters + v.letters))
    check_reduced_result(u * ~v, reference_reduce(
        u.letters + reference_inverse(v.letters)))
    check_reduced_result(~u, reference_inverse(u.letters))
    n = rng.randint(-3, 3)
    base = u.letters if n >= 0 else reference_inverse(u.letters)
    check_reduced_result(u ** n, reference_reduce(base * abs(n)))


def check_compose_against_reference(phi, psi, generators):
    both = phi.compose(psi)
    for i in generators:
        check_reduced_result(both.images[i - 1], reference_apply(
            phi.images, psi.images[i - 1].letters))


def test_kernel_matches_reference_route():
    rng = random.Random(3)
    for _ in range(300):
        phi, psi = random_endo(rng), random_endo(rng)
        check_against_reference(rng, phi)
        check_compose_against_reference(phi, psi, range(1, len(AB4) + 1))


# Codes of generators 256 and up fill more than one byte of the stored int
# and those of 65536 and up three; the codes of inverse letters set all four.
# The pool sits at both ends of each byte boundary.
WIDE = Alphabet(["g%d" % i for i in range(1, 70001)])
WIDE_POOL = (1, 2, 255, 256, 257, 65535, 65536, 65537, 69999, 70000)


def test_kernel_matches_reference_route_on_a_wide_alphabet():
    rng = random.Random(8)
    phi, psi = (random_endo(rng, WIDE, WIDE_POOL) for _ in range(2))
    for _ in range(300):
        check_against_reference(rng, phi if rng.random() < 0.5 else psi,
                                WIDE, WIDE_POOL)
    # the images of the pool, and two that both maps fix
    check_compose_against_reference(phi, psi, WIDE_POOL + (3, 40000))
    with pytest.raises(UnknownGeneratorError):
        Word(WIDE, (70001,))


def test_kernel_on_a_long_word():
    rng = random.Random(4)
    w = random_reduced(rng, 12000)
    phi = random_endo(rng)
    check_reduced_result(phi.apply(w), reference_apply(phi.images, w.letters))
    # conjugation by one u: 2|u| letters cancel at every junction
    u = random_reduced(rng, 60)
    inner = GroupEndomorphism(AB4, [u * Word(AB4, (i + 1,)) * ~u
                                    for i in range(len(AB4))])
    check_reduced_result(inner.apply(w), reference_apply(inner.images, w.letters))
    assert inner.apply(w) == u * w * ~u
    # ~cut starts by undoing the last 9000 letters of w
    cut = random_reduced(rng, 7) * Word(AB4, w.letters[-9000:])
    check_reduced_result(w * ~cut, reference_reduce(
        w.letters + reference_inverse(cut.letters)))
    check_reduced_result(~w * w, ())


def block_word(rng, length):
    """A reduced word of about the given length: runs of r and s letters
    between short runs of p, q and s.  Under the phi of the tests below, r is
    a letter, s is erased and p, q are long conjugates by one stem, so two p/q
    letters with only s letters between them meet in a junction that
    cancels the whole stem on both sides."""
    out = []
    while len(out) < length:
        if rng.random() < 0.5:
            pool, size = (3, 4), rng.randint(60, 140)
        else:
            pool, size = (1, 2, 4), rng.randint(1, 4)
        for _ in range(size):
            out.append(rng.choice(pool) * rng.choice([1, -1]))
    return Word(AB4, out)


def long_conjugates(rng):
    # conjugators of about 2060-2100 letters sharing one stem: a p/q junction
    # cancels over 2^12 letters in all, and p s p^-1 cancels a whole image
    stem = random_reduced(rng, 2060)
    conj = []
    for i in (0, 1):
        u = stem * random_reduced(rng, 40)
        conj.append(u * Word(AB4, (i + 1,)) * ~u)
    return conj


def check_compose(phi, psi):
    both = phi.compose(psi)
    for img, inner in zip(both.images, psi.images):
        assert img == phi.apply(inner)
        check_reduced_result(img, reference_apply(phi.images, inner.letters))
    return both


def test_compose_on_long_conjugate_images():
    rng = random.Random(5)
    p, q = long_conjugates(rng)
    assert all(3900 < len(w) < 4300 for w in (p, q))
    phi = GroupEndomorphism(AB4, [p, q, Word(AB4, (3,)), Word(AB4)])
    psi = GroupEndomorphism(AB4, [block_word(rng, 12000), block_word(rng, 12000),
                                  Word(AB4), Word(AB4, (-2,))])
    both = check_compose(phi, psi)
    assert both.images[2] == Word(AB4)
    assert both.images[3] == ~q


def test_compose_junction_cancels_all_of_out():
    rng = random.Random(6)
    p, q = long_conjugates(rng)
    # r's image starts with all of p's inverse and s's image ends with all
    # of p, so after a p the junction of r or of s^-1 cancels all of out
    y = z = Word(AB4)
    while len(~p * y) != len(p) + 30:
        y = random_reduced(rng, 30)
    while len(z * p) != len(p) + 30:
        z = random_reduced(rng, 30)
    phi = GroupEndomorphism(AB4, [p, q, ~p * y, z * p])
    for first in ((1, 3), (1, -4), (-3, -1), (4, -1)):
        tails = [random_reduced(rng, 20) for _ in range(3)]
        psi = GroupEndomorphism(AB4, [Word(AB4, first) * t for t in tails]
                                + [Word(AB4, first)])
        check_compose(phi, psi)


def test_conjugations_compose_to_identity():
    rng = random.Random(7)
    ident = GroupEndomorphism.identity(AB4)
    for length in (1, 50, 400):
        u = random_reduced(rng, length)
        by_u, by_inv = (GroupEndomorphism(AB4, [v * Word(AB4, (i + 1,)) * ~v
                                                for i in range(len(AB4))])
                        for v in (u, ~u))
        assert by_u.compose(by_inv) == ident
        assert by_inv.compose(by_u) == ident


def test_equal_words_hash_equal_from_every_constructor():
    rng = random.Random(9)
    for _ in range(50):
        w = random_reduced(rng, rng.randint(0, 25))
        u = random_reduced(rng, rng.randint(0, 10))
        # p -> w, q -> u^-1, r and s fixed
        p, q, r, s = AB4_LETTERS
        phi = GroupEndomorphism(AB4, [w, ~u, r, s])
        ident = GroupEndomorphism.identity(AB4)
        built = [
            Word(AB4, w.letters),
            Word(AB4, u.letters + reference_inverse(u.letters) + w.letters),
            w * u * ~u,
            (w * u) * ~u,
            ~Word(AB4, reference_inverse(w.letters)),
            ~~w,
            phi.apply(p),
            ~u * phi.apply(~q * p * q) * u,
            phi.compose(ident).images[0],
            ident.compose(phi).images[0],
        ]
        for v in built:
            assert v == w and hash(v) == hash(w)
            assert type(v.letters) is tuple and v.letters == w.letters
            assert all(type(x) is int for x in v.letters)
        assert len(set(built)) == 1
        assert Word(AB, [1 + (abs(x) - 1) % 2 for x in w.letters]) != w


def test_from_dict_refuses_unknown_names():
    sa = surface_alphabet(2)
    b1 = sa.generator("b1")
    with pytest.raises(UnknownGeneratorError, match="'zz'"):
        GroupEndomorphism.from_dict(sa, {"zz": b1})
    with pytest.raises(UnknownGeneratorError, match="'zz'"):
        GroupEndomorphism.from_dict(sa, {"a1": b1, "zz": b1})
    assert GroupEndomorphism.from_dict(sa, {"a1": b1}).images[0] == b1
