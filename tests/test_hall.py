import random
import sys
import threading

import pytest
from liegen import enumerate_trees

from lietau.hall import (HallTree, basis_block, hall_basis, is_basic, mobius,
                         tree_from_json, tree_from_str, tree_to_json,
                         tree_to_str, witt)
from lietau.errors import PreconditionError, UnknownGeneratorError
from lietau.words import Alphabet, surface_alphabet


def naive_mobius(d):
    # independent oracle by trial-division factorization
    factors = []
    p = 2
    while p * p <= d:
        while d % p == 0:
            factors.append(p)
            d //= p
        p += 1
    if d > 1:
        factors.append(d)
    if len(set(factors)) != len(factors):
        return 0
    return (-1) ** len(factors)


def naive_basic_commutators(k, n):
    # independent oracle: enumerate all trees, filter by the definition
    def less(u, v):
        return u.key < v.key

    def basic(t):
        if t.is_leaf():
            return True
        if not basic(t.left) or not basic(t.right):
            return False
        if not less(t.right, t.left):
            return False
        if not t.left.is_leaf() and less(t.right, t.left.right):
            return False
        return True

    return [t for t in enumerate_trees(k, n) if basic(t)]


def test_mobius_values():
    assert mobius(1) == 1
    assert mobius(4) == 0
    assert mobius(6) == 1


def test_mobius_against_factorization():
    for d in range(1, 200):
        assert mobius(d) == naive_mobius(d)


def test_witt_weight_one():
    for g in range(0, 8):
        assert witt(1, g) == g


def test_witt_known_values():
    assert witt(3, 2) == 2
    assert witt(6, 2) == 9
    # brute-force enumeration oracle for weight 4 on 3 letters
    assert len(naive_basic_commutators(4, 3)) == 18
    assert witt(4, 3) == 18


def test_hall_basis_small():
    xy = [tree_to_str(t, Alphabet(["x", "y"])) for t in hall_basis(1, 2)]
    assert xy == ["x", "y"]
    assert [tree_to_str(t, Alphabet(["x", "y"])) for t in hall_basis(2, 2)] == ["[y,x]"]
    assert ([tree_to_str(t, Alphabet(["x", "y"])) for t in hall_basis(3, 2)]
            == ["[[y,x],x]", "[[y,x],y]"])


def test_hall_basis_counts_match_witt():
    for k in range(1, 7):
        for g in range(1, 4):
            assert len(hall_basis(k, g)) == witt(k, g)


def test_hall_basis_matches_naive_enumeration():
    for k in range(1, 6):
        for n in (2, 3, 4):
            got = set(hall_basis(k, n))
            want = set(naive_basic_commutators(k, n))
            assert got == want


def test_hall_basis_matches_the_pair_filter():
    # [u, v] with u, v basic is basic iff u > v and (u is a leaf or
    # u.right <= v); every such pair, tested one by one, in key order
    for k, n in ((6, 6), (7, 4)):
        want = []
        for w1 in range(1, k):
            for u in hall_basis(w1, n):
                for v in hall_basis(k - w1, n):
                    if u.key > v.key and (u.is_leaf()
                                          or u.right.key <= v.key):
                        want.append(HallTree.make_node(u, v))
        want.sort(key=lambda t: t.key)
        assert hall_basis(k, n) == tuple(want)
        assert len(want) == witt(k, n)


def test_hall_basis_sorted_and_basic():
    for k in range(1, 7):
        basis = hall_basis(k, 3)
        keys = [t.key for t in basis]
        assert keys == sorted(keys)
        assert all(is_basic(t) for t in basis)


def test_witt_monotone_in_weight():
    # layer ranks never drop with the weight once k >= 2 and rank >= 2
    for m in range(2, 7):
        for k in range(2, 11):
            assert witt(k + 1, m) >= witt(k, m)


def test_basis_block_partition():
    basis = hall_basis(4, 2)
    blocks = {}
    for t in basis:
        blocks.setdefault(t.mdeg, []).append(t)
    for sig, trees in blocks.items():
        assert list(basis_block(4, 2, sig)) == trees


def test_tree_string_roundtrip():
    ab = Alphabet(["a1", "b1"])
    t = tree_from_str("[[b1,a1],b1]", ab)
    assert tree_to_str(t, ab) == "[[b1,a1],b1]"
    assert is_basic(t)
    assert tree_from_str(tree_to_str(t, ab), ab) is t


def test_tree_json_roundtrip():
    ab = Alphabet(["x", "y"])
    t = tree_from_str("[[y,x],y]", ab)
    assert tree_to_json(t, ab) == [["y", "x"], "y"]
    assert tree_from_json(tree_to_json(t, ab), ab) is t


def test_tree_from_json_refuses_malformed_trees():
    ab = surface_alphabet(2)  # a1, a2, b1, b2
    for obj in (["a1", "b1", "a2"], [True, "b1"], [{"x": 1}, "b1"]):
        with pytest.raises(PreconditionError):
            tree_from_json(obj, ab)
    for obj in (["zz", "b1"], [-1, "b1"], [7, "b1"]):
        with pytest.raises(UnknownGeneratorError):
            tree_from_json(obj, ab)
    # leaves may be given by index
    assert tree_from_json([3, "b1"], ab) is tree_from_json(["b2", "b1"], ab)
    assert tree_from_json([["b2", 0], 2], ab) is tree_from_str(
        "[[b2,a1],b1]", ab)


def test_hall_trees_roundtrip_through_json():
    ab = Alphabet(["x", "y", "z"])
    for n in range(1, 4):
        sub = Alphabet(ab.names[:n])
        for k in range(1, 6):
            for t in hall_basis(k, n):
                assert tree_from_json(tree_to_json(t, sub), sub) is t
                assert tree_from_json(tree_to_json(t)) is t


def test_tree_from_str_refuses_malformed_strings():
    ab = Alphabet(["x", "y", "z"])
    for s in ("", "[x,y", "[x,y,z]", "x]", "[x,,y]", "[]", "[x]"):
        with pytest.raises(PreconditionError):
            tree_from_str(s, ab)
    with pytest.raises(UnknownGeneratorError):
        tree_from_str("[x,q]", ab)


def test_tree_from_str_reads_names_json_would_quote():
    # names that need escaping in JSON, and names that are JSON literals,
    # read back as names and never as values
    rng = random.Random(11)
    ab = Alphabet(['"', "\\", "é", "true", "null", "0", "-1", 'a"b\\c'])

    def random_tree(k):
        if k == 1:
            return HallTree.make_leaf(rng.randrange(len(ab)))
        w = rng.randint(1, k - 1)
        return HallTree.make_node(random_tree(w), random_tree(k - w))

    trees = [t for k in range(1, 5) for t in enumerate_trees(k, 3)]
    trees += [random_tree(rng.randint(1, 7)) for _ in range(200)]
    for t in trees:
        assert tree_from_str(tree_to_str(t, ab), ab) is t
    assert tree_from_str(" [ true , 0 ] ", ab) is HallTree.make_node(
        HallTree.make_leaf(3), HallTree.make_leaf(5))


def test_interning_identity():
    t1 = HallTree.make_node(HallTree.make_leaf(1), HallTree.make_leaf(0))
    t2 = HallTree.make_node(HallTree.make_leaf(1), HallTree.make_leaf(0))
    assert t1 is t2
    # nodes are interned by their child pair
    rng = random.Random(5)
    for n in range(1, 5):
        for k in range(2, 7):
            for t in hall_basis(k, n):
                assert HallTree.make_node(t.left, t.right) is t
        trees = [t for k in range(1, 4) for t in hall_basis(k, n)]
        for _ in range(50):
            u, v = rng.choice(trees), rng.choice(trees)
            assert HallTree.make_node(u, v) is HallTree.make_node(u, v)


def _old_key(t):
    """The order's earlier encoding, a 0 before every leaf: (w, 0, i1, 0, i2, ...)."""
    if t.is_leaf():
        return (1, 0, t.leaf)
    return (t.weight,) + _old_key(t.left)[1:] + _old_key(t.right)[1:]


def _foliage(t):
    return (t.leaf,) if t.is_leaf() else _foliage(t.left) + _foliage(t.right)


def test_key_is_weight_then_foliage_in_the_old_order():
    for n in range(1, 5):
        trees = []
        for k in range(1, 7):
            basis = hall_basis(k, n)
            assert all(t.key == (k,) + _foliage(t) for t in basis)
            # the foliage identifies a basic commutator
            assert len({t.key for t in basis}) == len(basis)
            trees.extend(basis)
        # the same total order, within a weight and across weights
        assert (sorted(trees, key=lambda t: t.key)
                == sorted(trees, key=_old_key) == trees)


def test_equal_multidegrees_share_one_tuple():
    for n in range(1, 5):
        for k in range(1, 7):
            shared = {}
            for t in hall_basis(k, n):
                assert t.mdeg == tuple(sorted(_foliage(t)))
                assert shared.setdefault(t.mdeg, t.mdeg) is t.mdeg
    # a non-basic tree shares its multidegree's tuple too
    x, y = HallTree.make_leaf(0), HallTree.make_leaf(1)
    basic = HallTree.make_node(HallTree.make_node(y, x), x)
    other = HallTree.make_node(x, HallTree.make_node(x, y))
    assert other.mdeg is basic.mdeg == (0, 0, 1)


def test_interning_from_threads_is_identical():
    # leaves 40..43 appear in no other test, so the threads race to make
    # every node and to intern every multidegree
    leaves = [HallTree.make_leaf(i) for i in range(40, 44)]
    pairs = [(u, v) for u in leaves for v in leaves]
    start = threading.Barrier(4)
    made = [None] * 4

    def build(i):
        start.wait()
        level = [HallTree.make_node(u, v) for u, v in pairs]
        made[i] = level + [HallTree.make_node(t, u) for t in level
                           for u in leaves]

    threads = [threading.Thread(target=build, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(a is b for trees in made for a, b in zip(trees, made[0]))
    shared = {}
    for t in made[0]:
        assert shared.setdefault(t.mdeg, t.mdeg) is t.mdeg


def test_witt_validates_input():
    with pytest.raises(ValueError):
        witt(0, 2)
    with pytest.raises(ValueError):
        mobius(0)


def test_leaves_and_nodes_come_only_from_the_registry():
    # a registry hit returns the leaf for any index equal to it, a miss
    # coerces the index first, and a negative index is refused either way
    x1 = HallTree.make_leaf(1)
    assert HallTree.make_leaf(1.0) is HallTree.make_leaf("1") is x1
    assert (x1.leaf, x1.weight, x1.key, x1.mdeg) == (1, 1, (1, 1), (1,))
    for bad in (-1, "-2", -3.0):
        with pytest.raises(ValueError):
            HallTree.make_leaf(bad)
    with pytest.raises(ValueError):
        HallTree.make_leaf("x")
    with pytest.raises(TypeError):
        HallTree()
    t = HallTree.make_node(x1, HallTree.make_leaf(0))
    assert (t.left, t.right, t.weight, t.key) == (x1, HallTree.make_leaf(0),
                                                  2, (2, 1, 0))
    with pytest.raises(AttributeError):
        t.weight = 3
