import random

from hypothesis import given, strategies as st

from liegen import random_like
from lietau.hall import HallTree, hall_basis, is_basic, tree_from_str
from lietau import lie
from lietau.lie import (LieElement, _bracket_into, bracket, expand,
                        expand_associative, lift_word, substitute, tree_to_lie)
from lietau.magnus import lie_class_at
from lietau.words import Alphabet

AB2 = Alphabet(["x", "y"])


def gen(i):
    return LieElement.generator(i)


def test_bracket_alternating():
    assert bracket(gen(0), gen(0)).is_zero()


def test_bracket_skew_on_generators():
    xy = bracket(gen(0), gen(1))
    yx = bracket(gen(1), gen(0))
    assert xy == -yx
    # with x < y the basic commutator is [y,x]
    t = tree_from_str("[y,x]", AB2)
    assert yx == LieElement.from_tree(t)


def test_bracket_already_basic():
    yx = tree_from_str("[y,x]", AB2)
    out = bracket(LieElement.from_tree(yx), gen(1))
    assert out == LieElement.from_tree(tree_from_str("[[y,x],y]", AB2))


@given(st.permutations([0, 1, 2]))
def test_jacobi_on_letters(perm):
    a, b, c = (gen(i) for i in perm)
    total = (bracket(a, bracket(b, c)) + bracket(b, bracket(c, a))
             + bracket(c, bracket(a, b)))
    assert total.is_zero()


def test_jacobi_and_skew_random_homogeneous():
    rng = random.Random(20240211)
    for n in (2, 3):
        for wa, wb in [(1, 2), (2, 2), (1, 3), (2, 3), (3, 3), (1, 4), (2, 4)]:
            a = random_like(wa, n, rng)
            b = random_like(wb, n, rng)
            assert bracket(a, b) == -bracket(b, a)
        for wa, wb, wc in [(1, 1, 2), (1, 2, 2), (1, 2, 3), (2, 2, 2)]:
            a = random_like(wa, n, rng)
            b = random_like(wb, n, rng)
            c = random_like(wc, n, rng)
            total = (bracket(a, bracket(b, c)) + bracket(b, bracket(c, a))
                     + bracket(c, bracket(a, b)))
            assert total.is_zero()


def test_bracket_output_is_basic():
    rng = random.Random(7)
    for _ in range(20):
        a = random_like(rng.randint(1, 3), 3, rng)
        b = random_like(rng.randint(1, 3), 3, rng)
        for t in bracket(a, b).terms:
            assert is_basic(t)


def _commutator(p, q):
    """pq - qp for {monomial: coeff} maps."""
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            out[m1 + m2] = out.get(m1 + m2, 0) + c1 * c2
            out[m2 + m1] = out.get(m2 + m1, 0) - c1 * c2
    return {m: c for m, c in out.items() if c}


def _plus(p, q, c=1):
    """p + c * q for {monomial: coeff} maps, without zeros."""
    out = dict(p)
    for m, d in q.items():
        out[m] = out.get(m, 0) + c * d
    return {m: d for m, d in out.items() if d}


def test_bracket_into_adds_the_associative_commutator():
    # the free Lie ring embeds in the free associative ring, so adding
    # c * [u, v] in Hall coordinates into an accumulator must add
    # c * (uv - vu) to its expansion, whichever route the bracket took, and
    # a term that cancels exactly must leave the accumulator
    rng = random.Random(20261019)
    routes = set()
    cancelled = set()           # the routes whose term cancelled exactly
    for n in (3, 4):
        for _ in range(120):
            wu = rng.randint(1, 5)
            u = rng.choice(hall_basis(wu, n))
            v = rng.choice(hall_basis(rng.randint(1, 6 - wu), n))
            w = u.weight + v.weight
            for a, b in ((u, v), (v, u)):
                hi, lo = (a, b) if a.key > b.key else (b, a)
                if a is b:
                    route = "equal"
                elif not (hi.is_leaf() or hi.right.key <= lo.key):
                    route = "rewritten"
                elif a.key < b.key:
                    route = "reversed"
                else:
                    route = "direct"
                routes.add(route)
                c = rng.choice((1, -1, 2, -3, 5))
                want = _commutator(expand_associative(a), expand_associative(b))
                fresh = {}
                _bracket_into(fresh, a, b, c)
                assert all(is_basic(t) and t.weight == w and d
                           for t, d in fresh.items())
                assert expand(LieElement(w, fresh)) == _plus({}, want, c)
                basis = hall_basis(w, n)
                start = {t: rng.choice((1, -2, 3))
                         for t in rng.sample(basis, min(3, len(basis)))}
                gone = list(fresh)[:1]
                for t in gone:
                    start[t] = -fresh[t]
                acc = dict(start)
                _bracket_into(acc, a, b, c)
                assert 0 not in acc.values()
                assert not any(t in acc for t in gone)
                if gone:
                    cancelled.add(route)
                assert expand(LieElement(w, acc)) == _plus(
                    expand(LieElement(w, start)), want, c)
    assert routes >= {"direct", "reversed", "rewritten"}
    assert cancelled >= {"direct", "reversed", "rewritten"}
    # a Hall-ordered pair adds at its node: an entry of -c there cancels
    # exactly, and the other entries stay as they were
    x, y, z = (HallTree.make_leaf(i) for i in range(3))
    yx, zx = HallTree.make_node(y, x), HallTree.make_node(z, x)
    yxz = HallTree.make_node(yx, z)
    for a, b, c, t in ((y, x, 3, yx), (x, y, 3, yx), (yx, z, -2, yxz)):
        added = c if a.key > b.key else -c
        acc = {t: -added, zx: 7}
        _bracket_into(acc, a, b, c)
        assert acc == {zx: 7}


def test_memo_holds_only_rewritten_pairs(model_of):
    model_of(2).symplectic_ideal().level(5)
    assert lie._bracket_memo
    for (u, v), entry in lie._bracket_memo.items():
        assert u.key > v.key and not u.is_leaf() and u.right.key > v.key
        # a flat tuple (t1, c1, t2, c2, ...) of distinct trees, no zero
        assert type(entry) is tuple and entry and len(entry) % 2 == 0
        trees, coeffs = entry[::2], entry[1::2]
        assert len(set(trees)) == len(trees)
        assert all(t.weight == u.weight + v.weight for t in trees)
        assert all(type(c) is int and c for c in coeffs)


def test_bilinearity():
    rng = random.Random(99)
    a = random_like(2, 2, rng)
    b = random_like(2, 2, rng)
    c = random_like(1, 2, rng)
    assert bracket(a + b, c) == bracket(a, c) + bracket(b, c)
    assert bracket(c, a + b) == bracket(c, a) + bracket(c, b)


def test_lift_roundtrip_two_letters():
    for k in range(1, 6):
        for t in hall_basis(k, 2):
            w = lift_word(t, AB2)
            assert lie_class_at(w, k) == LieElement.from_tree(t)


def test_lift_roundtrip_three_letters():
    ab = Alphabet(["x", "y", "z"])
    for k in range(1, 5):
        for t in hall_basis(k, 3):
            w = lift_word(t, ab)
            assert lie_class_at(w, k) == LieElement.from_tree(t)


def test_tree_to_lie_rewrites_non_basic():
    # [x,y] is not basic; its Hall form is -[y,x]
    t = HallTree.make_node(HallTree.make_leaf(0), HallTree.make_leaf(1))
    assert tree_to_lie(t) == -LieElement.from_tree(tree_from_str("[y,x]", AB2))


def test_substitute_identity_and_swap():
    rng = random.Random(5)
    e = random_like(3, 2, rng)
    ident = [gen(0), gen(1)]
    assert substitute(e, ident) == e
    swap = [gen(1), gen(0)]
    a = random_like(2, 2, rng)
    b = random_like(2, 2, rng)
    assert (substitute(bracket(a, b), swap)
            == bracket(substitute(a, swap), substitute(b, swap)))


def test_expand_associative_antisymmetry():
    t = tree_from_str("[y,x]", AB2)
    assert expand_associative(t) == {(1, 0): 1, (0, 1): -1}
