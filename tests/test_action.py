"""The truncated Magnus action of a mapping class: the series route against
the word route.

A composite's action is its factors' actions composed by series
substitution; the word route expands the composite's own image words.  The
two must agree on the action itself and on everything read from it.
"""

import json
import random
import sys
import threading

import pytest

from lietau.cli import main
from lietau.errors import DepthTooShallowError
from lietau.johnson import (MappingClassData, boundary_twist, johnson_depth,
                            jprime_depth, tau, tau1)
from lietau.magnus import MagnusSeries, NilpotentAction, magnus
from lietau.symplectic import is_symplectic
from lietau.words import GroupEndomorphism, Word, commutator, word_to_str


def _random_endo(rng, alphabet, maxlen):
    n = len(alphabet)
    letters = [i for i in range(-n, n + 1) if i]
    return GroupEndomorphism(alphabet, [
        Word(alphabet, [rng.choice(letters) for _ in range(rng.randint(0, maxlen))])
        for _ in range(n)])


def test_substitution_matches_composed_words(model_of):
    rng = random.Random(13)
    ab = model_of(2).alphabet
    for _ in range(6):
        phi, psi = _random_endo(rng, ab, 6), _random_endo(rng, ab, 6)
        for cap in (1, 2, 3, 4):
            got = NilpotentAction.of_words(phi.images, cap).after(
                NilpotentAction.of_words(psi.images, cap))
            assert got == NilpotentAction.of_words(
                phi.compose(psi).images, cap)


def test_defect_series_matches_defect_word(model_of):
    rng = random.Random(17)
    ab = model_of(2).alphabet
    for _ in range(6):
        phi = _random_endo(rng, ab, 7)
        for cap in (1, 3, 5):
            act = NilpotentAction.of_words(phi.images, cap)
            for i in range(len(ab)):
                x = ab.letter(i)
                assert act.defect(i) == magnus(phi.apply(x) * ~x, cap)


def test_cap_one_reads_exponent_sums(model_of):
    ab = model_of(2).alphabet
    w = Word(ab, (1, 3, 3, -2, -1, 4))
    got, = NilpotentAction.of_words([w], 1).images
    assert got == magnus(w, 1) == MagnusSeries(1, {(): 1, (2,): 2, (1,): -1,
                                                   (3,): 1})


def _assert_routes_agree(f, k, cap=4):
    """The action at caps 1..4 equals the expansions of f's own images, and
    the depths and Johnson values equal those of the class given by f's
    words alone."""
    for c in (1, 2, 3, 4):
        assert f.action(c).images == tuple(magnus(img, c)
                                           for img in f.endo.images)
    plain = MappingClassData(f.model, f.endo)
    assert plain.outer is None  # the word route
    assert johnson_depth(f, cap) == johnson_depth(plain, cap)
    assert jprime_depth(f, cap) == jprime_depth(plain, cap)
    assert tau(f, k) == tau(plain, k)
    assert tau1(f, k) == tau1(plain, k)


def _composite_depth(f):
    """The most composites on one path down from f."""
    best, stack = 0, [(f, 0)]
    while stack:
        s, d = stack.pop()
        if s.outer is not None:
            stack += [(s.outer, d + 1), (s.inner, d + 1)]
        best = max(best, d)
    return best


def test_braid_commutators_agree(g3_braids):
    for name, k in (("c", 2), ("d", 3)):
        braid = g3_braids[name]
        for f in (braid.fwd, braid.bwd):
            assert _composite_depth(f) > 0
            assert johnson_depth(f, 4) == k
            _assert_routes_agree(f, k)


def test_braid_products_carry_exact_inverses(model_of, g3_braids):
    # braidgen pairs a product x y with y^-1 x^-1 unchecked; check that on
    # the words of the commutators the tests use
    ident = GroupEndomorphism.identity(model_of(3).alphabet)
    for name in ("c", "d"):
        braid = g3_braids[name]
        assert braid.fwd.compose(braid.bwd).endo == ident
        assert braid.bwd.compose(braid.fwd).endo == ident


def _twist(model, name, by):
    """The Dehn twist sending one generator x to x * by."""
    x = model.alphabet.generator(name)
    return MappingClassData(model, GroupEndomorphism.from_dict(
        model.alphabet, {name: x * by}))


def test_conjugated_braid_agrees(model_of, g3_braids):
    m = model_of(3)
    h = _twist(m, "b2", m.a(2)).compose(_twist(m, "a1", m.b(1)))
    h_inv = _twist(m, "a1", ~m.b(1)).compose(_twist(m, "b2", ~m.a(2)))
    assert h.compose(h_inv).endo == GroupEndomorphism.identity(m.alphabet)
    f = h.compose(g3_braids["d"].fwd).compose(h_inv)
    assert _composite_depth(f) >= 2
    assert johnson_depth(f, 4) == 3
    _assert_routes_agree(f, 3)


def _h1_matrix(f):
    """f on homology: column j is the class of the j-th generator image."""
    return [[s.coeffs.get((i,), 0) for s in f.action(1).images]
            for i in range(len(f.model.alphabet))]


def test_fixing_the_relator_makes_the_homology_action_symplectic(
        model_of, g3_braids):
    # r0 has class omega = sum a_i ^ b_i in Gamma_2/Gamma_3 = Lambda^2 H, so
    # phi(r0) = r0 gives Lambda^2 M (omega) = omega for phi's matrix M on H:
    # M^T J M = J and det M = +-1, so a class is invertible on homology (and
    # on every nilpotent quotient) as soon as it is built
    m = model_of(3)
    h = _twist(m, "b2", m.a(2)).compose(_twist(m, "a1", m.b(1)))
    h_inv = _twist(m, "a1", ~m.b(1)).compose(_twist(m, "b2", ~m.a(2)))
    d = g3_braids["d"].fwd
    classes = [boundary_twist(model_of(g)) for g in (1, 2, 3)]
    for name in ("b12", "b23", "c"):
        classes += [g3_braids[name].fwd, g3_braids[name].bwd]
    classes += [d, d.compose(d), h.compose(d).compose(h_inv), h, h_inv]
    moved = 0
    for f in classes:
        mat = _h1_matrix(f)
        assert is_symplectic(mat)
        moved += any(mat[i][j] != (i == j) for i in range(len(mat))
                     for j in range(len(mat)))
    assert moved == 6  # b12, b23 both ways, h and h^-1 move homology


def test_boundary_twist_chain_deeper_than_the_recursion_limit(model_of):
    m = model_of(1)
    # an Anosov map: its powers' images grow geometrically, so they hold
    # far more letters than the factors', and every later composite is
    # composed by substitution
    h = _twist(m, "b1", m.a(1)).compose(_twist(m, "a1", m.b(1)))
    f = h
    for _ in range(9):
        f = f.compose(h)
    t = boundary_twist(m)
    depth = sys.getrecursionlimit() + 10
    for _ in range(depth):
        f = f.compose(t)
    assert _composite_depth(f) > depth
    _assert_routes_agree(f, 1)


def test_composing_builds_no_words(model_of, g3_braids, monkeypatch):
    m = model_of(3)
    d = g3_braids["d"].fwd
    calls = {"compose": 0, "apply": 0}

    def counted(name):
        real = getattr(GroupEndomorphism, name)

        def call(*args):
            calls[name] += 1
            return real(*args)
        return call

    with monkeypatch.context() as patch:
        for name in calls:
            patch.setattr(GroupEndomorphism, name, counted(name))
        dd = d.compose(d)
        assert johnson_depth(dd, 6) == 3
        assert jprime_depth(dd, 5) == 3
        t3 = tau(d, 3)
        assert not t3.is_zero() and tau(dd, 3) == t3 + t3
    assert calls == {"compose": 0, "apply": 0}
    # the words, built on first read, are the word route's composite, and
    # they fix the boundary relator though compose never checked it
    assert dd.endo == d.endo.compose(d.endo)
    assert dd.endo.apply(m.relator) == m.relator


def test_first_shallow_generator_is_named(model_of):
    # the handle-1 twist leaves a1 three deep and the twist about a2 moves
    # b2 on homology: a1 comes first in alphabet order, so it is named,
    # with its own least weight
    m = model_of(2)
    c = commutator(m.a(1), m.b(1))
    handle = GroupEndomorphism.from_dict(m.alphabet, {
        "a1": c * m.a(1) * ~c, "b1": c * m.b(1) * ~c})
    f = MappingClassData(m, handle).compose(_twist(m, "b2", m.a(2)))
    with pytest.raises(DepthTooShallowError) as err:
        tau(f, 4)
    assert err.value.to_json()["details"] == {"weight": "3"}
    assert str(err.value) == "defect of generator a1 has weight 3 < 4"
    assert johnson_depth(f, 4) == 1


def test_first_shallow_generator_cli_error(capsys, model_of):
    m = model_of(2)
    images = {"a1": "a1 b1 a1^-1 b1^-1 a1 b1 a1 b1^-1 a1^-1", "a2": "a2",
              "b1": "a1 b1 a1^-1 b1 a1 b1^-1 a1^-1", "b2": "b2 a2"}
    code = main(["tau", "--k", "4", "--map",
                 json.dumps({"genus": 2, "images": images})])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (
        1, "",
        '{"details": {"weight": "3"}, "error": "depth-too-shallow", '
        '"message": "defect of generator a1 has weight 3 < 4"}\n')
    # the same map as composed in the test above
    c = commutator(m.a(1), m.b(1))
    assert [word_to_str(w) for w in (c * m.a(1) * ~c, c * m.b(1) * ~c)] == [
        images["a1"], images["b1"]]


def test_action_cache_is_shared_between_threads(g3_braids):
    f = g3_braids["d"].fwd.compose(g3_braids["c"].fwd)
    assert _composite_depth(f) >= 2
    got = []
    caps = [3, 1, 2] * 4

    def ask():
        got.extend((c, f.action(c)) for c in caps)
        got.append((None, f.endo))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 8 * (len(caps) + 1)
    # every thread reads the one cached action per cap and the one word map
    for c, value in got:
        assert value is (f.endo if c is None else f.action(c))
    assert f.action(3).images == tuple(magnus(img, 3) for img in f.endo.images)
