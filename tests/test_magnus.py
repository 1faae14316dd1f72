import random

import pytest
from hypothesis import given, strategies as st

from liegen import block_lattice_solve, random_like
from lietau.errors import InternalFault, PreconditionError
from lietau.hall import hall_basis
from lietau.lie import LieElement, bracket, expand_associative, lift_word
from lietau.magnus import (MagnusSeries, component_to_lie, induced_lie_map,
                           lie_class_at, magnus, weight_of)
from lietau.surface import SurfaceModel
from lietau.words import Alphabet, GroupEndomorphism, Word, commutator

AB = Alphabet(["x", "y"])
X, Y = AB.generator("x"), AB.generator("y")


def test_empty_word_is_one():
    for cap in (1, 3, 6):
        assert magnus(Word(AB), cap) == MagnusSeries.one(cap)


def test_inverse_cancels_exactly():
    for cap in (1, 2, 5, 8):
        assert magnus(X * ~X, cap) == MagnusSeries.one(cap)
        w = X * Y * ~X
        assert magnus(w, cap) * magnus(~w, cap) == MagnusSeries.one(cap)


def test_commutator_series_frozen():
    # [x,y] at cap 2 is 1 + (XY - YX); the four factors multiplied by hand
    s = magnus(commutator(X, Y), 2)
    assert s.coeffs == {(): 1, (0, 1): 1, (1, 0): -1}


small_words = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=12)


@given(small_words, small_words)
def test_multiplicative(u_letters, v_letters):
    u, v = Word(AB, u_letters), Word(AB, v_letters)
    cap = 4
    assert magnus(u * v, cap) == magnus(u, cap) * magnus(v, cap)


def test_weight_of_examples():
    sa = SurfaceModel(2)
    assert weight_of(sa.a(1), 6) == 1
    assert weight_of(Word(sa.alphabet), 6) is None
    w = commutator(sa.relator, sa.b(2))
    assert weight_of(w, 6) == 3
    m3 = SurfaceModel(3)
    assert weight_of(commutator(m3.relator, m3.b(3)), 6) == 3


def random_deep_word(rng, ab, depth):
    """A random word, bracketed depth - 1 times with further random words,
    so its weight is at least depth; short words keep the caps cheap."""
    def short():
        return Word(ab, [rng.choice([1, -1]) * rng.randint(1, len(ab))
                         for _ in range(rng.randint(0, 3))])
    w = short()
    for _ in range(depth - 1):
        w = commutator(w, short())
    return w


def test_weight_of_reads_what_one_top_cap_expansion_reads():
    ab = Alphabet(["x", "y", "z"])
    rng = random.Random(41)
    weights = set()
    for _ in range(120):
        w = random_deep_word(rng, ab, rng.randint(1, 3))
        cap = rng.randint(1, 5)
        got = weight_of(w, cap)
        assert got == magnus(w, cap).min_positive_degree()
        weights.add(got)
    assert {None, 1, 2, 3} <= weights


def test_weight_of_commutator_depth():
    c = commutator(X, Y)
    assert weight_of(c, 6) == 2
    assert weight_of(commutator(c, X), 6) == 3


def test_lie_class_generator():
    assert lie_class_at(X, 1) == LieElement.generator(0)


def test_lie_class_commutator():
    got = lie_class_at(commutator(X, Y), 2)
    assert got == bracket(LieElement.generator(0), LieElement.generator(1))


def test_lie_class_relator_is_symplectic_class():
    for g in range(1, 5):
        m = SurfaceModel(g)
        assert lie_class_at(m.relator, 2) == m.symplectic_class()


def test_lie_class_precondition():
    with pytest.raises(PreconditionError):
        lie_class_at(X, 2)
    with pytest.raises(PreconditionError):
        lie_class_at(X * Y, 3)


def test_lie_class_zero_when_deeper():
    c = commutator(commutator(Y, X), X)
    assert lie_class_at(c, 2).is_zero()
    assert lie_class_at(c, 3) == bracket(
        bracket(LieElement.generator(1), LieElement.generator(0)),
        LieElement.generator(0))


def test_induced_identity():
    phi = GroupEndomorphism.identity(AB)
    rng = random.Random(11)
    for w in (1, 2, 3, 4):
        e = random_like(w, 2, rng)
        assert induced_lie_map(phi, e, 6) == e


def test_induced_zero_map_example():
    c = commutator(commutator(Y, X), X)
    d = commutator(commutator(Y, X), Y)
    phi = GroupEndomorphism(AB, [c, d])
    for w in (1, 2):
        for t in hall_basis(w, 2):
            assert induced_lie_map(phi, LieElement.from_tree(t), 6).is_zero()


def test_induced_conjugation_trivial():
    rng = random.Random(13)
    for conj_letters in [(1,), (2, 1), (1, -2, 1)]:
        u = Word(AB, conj_letters)
        phi = GroupEndomorphism(AB, [u * X * ~u, u * Y * ~u])
        for w in (1, 2, 3, 4):
            e = random_like(w, 2, rng)
            assert induced_lie_map(phi, e, 6) == e


def test_induced_respects_brackets_for_permutation():
    swap = GroupEndomorphism(AB, [Y, X])
    rng = random.Random(17)
    for wa, wb in [(1, 1), (1, 2), (2, 2), (1, 3)]:
        a = random_like(wa, 2, rng)
        b = random_like(wb, 2, rng)
        lhs = induced_lie_map(swap, bracket(a, b), 6)
        rhs = bracket(induced_lie_map(swap, a, 6), induced_lie_map(swap, b, 6))
        assert lhs == rhs


def test_series_letter_expansion():
    s = MagnusSeries.letter(0, 3, -1)
    assert s.coeffs == {(): 1, (0,): -1, (0, 0): 1, (0, 0, 0): -1}


def test_lift_word_series_depth():
    # the expansion of a lift of a weight-k tree starts in degree k
    for k in (2, 3, 4):
        for t in hall_basis(k, 2):
            s = magnus(lift_word(t, AB), k)
            assert s.min_positive_degree() == k


def balanced_product(w, cap):
    """Product of the letters' series by a balanced tree, the reference
    route for the one-pass expansion."""
    level = [MagnusSeries.letter(abs(x) - 1, cap, 1 if x > 0 else -1)
             for x in w.letters] or [MagnusSeries.one(cap)]
    while len(level) > 1:
        level = [level[i] * level[i + 1] if i + 1 < len(level) else level[i]
                 for i in range(0, len(level), 2)]
    return level[0]


def test_one_pass_matches_balanced_product():
    ab = Alphabet(["x", "y", "z"])
    rng = random.Random(19)
    for _ in range(200):
        w = Word(ab, [rng.choice([1, -1]) * rng.randint(1, 3)
                      for _ in range(rng.randint(0, 6))])
        for cap in range(1, 6):
            got = magnus(w, cap)
            assert got == balanced_product(w, cap)
            assert all(c for c in got.coeffs.values())


def test_component_to_lie_round_trip():
    rng = random.Random(23)
    for k in range(1, 6):
        for n in range(1, 5):
            basis = hall_basis(k, n)
            for t in basis:
                assert (component_to_lie(expand_associative(t), k)
                        == LieElement.from_tree(t))
            for _ in range(20):
                combo = {t: rng.randint(-9, 9)
                         for t in rng.sample(basis, min(len(basis), 4))}
                component = {}
                for t, c in combo.items():
                    for m, v in expand_associative(t).items():
                        component[m] = component.get(m, 0) + c * v
                assert component_to_lie(component, k) == LieElement(k, combo)
    # x0 x1 alone leaves a remainder on division by 2; x0 x1 + x1 x0 has
    # bracket sum 0, which expands to 0, and x0^3 has bracket sum 0 too
    for component, k in (({(0, 1): 1}, 2), ({(0, 1): 1, (1, 0): 1}, 2),
                         ({(0, 0, 0): 1}, 3)):
        with pytest.raises(InternalFault):
            component_to_lie(component, k)


def test_component_to_lie_matches_block_lattice_solve():
    # the Dynkin-Specht-Wever reading against exact membership in each
    # multidegree block's lattice of expansions.  Each seeded component
    # keeps zero entries: x0^k's, and those of a tree added and taken away
    # again.  One monomial added once or k times then moves it off the Lie
    # span, and both routes refuse it.
    rng = random.Random(20261020)
    for k in range(1, 7):
        for n in range(1, 7):
            basis = hall_basis(k, n)
            for _ in range(4 if len(basis) < 100 else 2):
                picks = rng.sample(basis, min(len(basis), 3))
                coeffs = [rng.choice((-5, -2, -1, 1, 3, 7)) for _ in picks]
                want = LieElement(k, zip(picks[1:], coeffs[1:]))
                component = {}
                for t, c in zip(picks + picks[:1],
                                coeffs + [-c for c in coeffs[:1]]):
                    for m, v in expand_associative(t).items():
                        component[m] = component.get(m, 0) + c * v
                component.setdefault((0,) * k, 0)  # no Lie term for k > 1
                assert block_lattice_solve(component, k, n) == want
                assert component_to_lie(component, k) == want
                if k == 1:
                    continue
                m = rng.choice(sorted(component))
                component[m] += rng.choice((1, k))
                assert block_lattice_solve(component, k, n) is None
                with pytest.raises(InternalFault):
                    component_to_lie(component, k)
