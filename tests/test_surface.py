import random

import pytest

from liegen import random_like
from lietau.errors import UnknownGeneratorError
from lietau.hall import hall_basis
from lietau.lie import LieElement
from lietau.magnus import lie_class_at, magnus
from lietau.surface import b_only_part, handlebody_class, surface_class
from lietau.words import Word, commutator, word_from_str


def test_relator_class_is_symplectic_class(model_of):
    for g in range(1, 5):
        m = model_of(g)
        assert lie_class_at(m.relator, 2) == m.symplectic_class()


def test_surface_class_generator(model_of):
    m = model_of(2)
    got = surface_class(m, m.a(1), 6)
    assert got is not None
    k, q = got
    assert k == 1
    assert q.vector == LieElement.generator(0)


def test_surface_class_relator_trivial(model_of):
    m = model_of(2)
    for cap in (2, 4, 6):
        assert surface_class(m, m.relator, cap) is None


def test_surface_class_boundary_defect_trivial(model_of):
    # conjugation by the relator is trivial in the closed surface group
    for g in (2, 3):
        m = model_of(g)
        w = commutator(m.relator, m.b(g))
        assert surface_class(m, w, 6) is None


def test_surface_class_relator_power(model_of):
    m = model_of(2)
    assert surface_class(m, m.relator ** 3, 5) is None


def test_surface_class_conjugation_invariant(model_of):
    m = model_of(2)
    rng = random.Random(23)
    letters = [1, -1, 2, -2, 3, -3, 4, -4]
    for _ in range(12):
        w = Word(m.alphabet, [rng.choice(letters) for _ in range(6)])
        u = Word(m.alphabet, [rng.choice(letters) for _ in range(4)])
        a = surface_class(m, w, 4)
        b = surface_class(m, u * w * ~u, 4)
        if a is None:
            assert b is None
        else:
            assert b is not None
            assert a[0] == b[0]
            assert a[1] == b[1]


def test_handlebody_class_examples(model_of):
    m = model_of(2)
    got = handlebody_class(m, m.b(1), 6)
    assert got == (1, LieElement.generator(0))
    assert handlebody_class(m, m.a(1), 6) is None
    got = handlebody_class(m, commutator(m.b(2), m.b(1)), 6)
    assert got is not None
    assert got[0] == 2


def test_handlebody_class_is_the_class_of_the_dropped_word(model_of):
    m = model_of(2)
    rng = random.Random(43)
    seen = set()
    for _ in range(60):
        w = Word(m.alphabet, [rng.choice([1, -1]) * rng.randint(1, 4)
                              for _ in range(rng.randint(0, 4))])
        for _ in range(rng.randint(0, 2)):
            w = commutator(w, Word(m.alphabet, [rng.choice([1, -1])
                                                * rng.randint(1, 4)]))
        cap = rng.randint(1, 4)
        wb = m.drop_a(w)
        k = magnus(wb, cap).min_positive_degree()
        expect = None if k is None else (k, lie_class_at(wb, k))
        assert handlebody_class(m, w, cap) == expect
        seen.add(k)
    assert {None, 1, 2} <= seen


def test_b_word_weights_agree(model_of):
    # for words in the b-letters the surface weight equals the handlebody
    # weight and the surface class projects onto the handlebody class
    m = model_of(2)
    words = ["b1 b2 b1^-1 b2^-1", "b1 b2 b1 b2^-1 b1^-2", "b2 b1 b2 b1^-1 b2^-2"]
    for s in words:
        w = word_from_str(m.alphabet, s)
        hb = handlebody_class(m, w, 5)
        sc = surface_class(m, w, 5)
        if hb is None:
            assert sc is None
            continue
        assert sc is not None and sc[0] == hb[0]
        assert b_only_part(m, sc[1].vector) == hb[1]


@pytest.mark.parametrize("g", [2, 3])
def test_b_only_part_is_the_coefficient_projection(model_of, g):
    # the reference keeps the coefficients on basic commutators without an
    # a-leaf and reads each as the basic commutator over b1..bg whose leaf
    # sequence is the shifted one (distinct basic commutators of one weight
    # have distinct leaf sequences)
    m = model_of(g)
    rng = random.Random(70 + g)
    for k in range(1, 6 if g == 2 else 5):
        over_b = {t.key[1:]: t for t in hall_basis(k, g)}
        for _ in range(3):
            e = random_like(k, 2 * g, rng)
            want = LieElement(k, [
                (over_b[tuple(i - g for i in t.key[1:])], c)
                for t, c in e.terms.items() if t.mdeg[0] >= g])
            got = b_only_part(m, e)
            assert got == want and got.weight == k
            assert not want.is_zero() and len(want.terms) < len(e.terms)


def test_drop_a(model_of):
    m = model_of(2)
    w = word_from_str(m.alphabet, "a1 b1 a2^-1 b2^-1 b1")
    wb = m.drop_a(w)
    assert [x for x in wb.letters] == [1, -2, 1]


def test_surface_class_wrong_alphabet(model_of):
    m2, m3 = model_of(2), model_of(3)
    with pytest.raises((ValueError, UnknownGeneratorError)):
        surface_class(m2, m3.a(1), 4)


def test_torus_lie_ring_vanishes_above_weight_one(model_of):
    # the closed torus group is abelian, so every layer above the first is
    # zero; this drives the correction walk through several weights
    m = model_of(1)
    ideal = m.symplectic_ideal()
    for k in range(2, 7):
        assert ideal.quotient_rank(k) == 0
        assert ideal.level(k).torsion == ()
    rng = random.Random(9)
    for _ in range(6):
        u = Word(m.alphabet, [rng.choice([1, -1, 2, -2]) for _ in range(5)])
        v = Word(m.alphabet, [rng.choice([1, -1, 2, -2]) for _ in range(5)])
        assert surface_class(m, commutator(u, v), 5) is None
