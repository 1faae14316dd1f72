import random

import pytest

from braidgen import (commutator_braid, reduced_b_words,
                      search_push_tuples_g2)
from liegen import random_like
from twistgen import separating_twist
from lietau.errors import (DepthTooShallowError, PreconditionError,
                           RelationViolatedError, WeightTooLowError)
from lietau.hall import hall_basis
from lietau.johnson import (MappingClassData, TauValue,
                            boundary_twist, braid_automorphism, eta,
                            eta_inverse, identity_mapping_class, johnson_depth,
                            jprime_depth, point_push_tau, push_tuple_of, sigma,
                            tau, tau1)
from lietau.lie import LieElement, bracket
from lietau.magnus import MagnusSeries, lie_class_at
from lietau.surface import SurfaceModel
from lietau.words import GroupEndomorphism, Word, commutator, word_from_str


def test_mapping_class_requires_fixed_relator(model_of):
    m = model_of(2)
    images = [m.b(1)] + [Word(m.alphabet, (i,)) for i in range(2, 5)]
    with pytest.raises(RelationViolatedError):
        MappingClassData(m, GroupEndomorphism(m.alphabet, images))
    # conjugating the relator is not enough: it must be fixed on the nose
    u = m.a(1)
    images = [u * Word(m.alphabet, (i,)) * ~u for i in range(1, 5)]
    with pytest.raises(RelationViolatedError):
        MappingClassData(m, GroupEndomorphism(m.alphabet, images))


def test_identity_depths(model_of):
    m = model_of(2)
    f = identity_mapping_class(m)
    assert johnson_depth(f, 6) is None
    assert jprime_depth(f, 6) is None
    assert tau(f, 3).is_zero()


def test_boundary_twist_fixes_relator(model_of):
    for g in (1, 2, 3):
        m = model_of(g)
        t = boundary_twist(m)
        assert t.endo.apply(m.relator) == m.relator
        # the b_g defect is the commutator of the relator with b_g
        bg = m.b(g)
        assert t.endo.apply(bg) * ~bg == commutator(m.relator, bg)


def test_boundary_twist_depths(model_of):
    for g in (1, 2, 3):
        m = model_of(g)
        t = boundary_twist(m)
        assert johnson_depth(t, 6) == 3
    for g in (2, 3):
        assert jprime_depth(boundary_twist(model_of(g)), 6) is None


def test_boundary_twist_tau1_class(model_of):
    for g in (2, 3):
        m = model_of(g)
        t = boundary_twist(m)
        value = tau1(t, 3)
        # the alpha_g-column holds the class of t(b_g) b_g^-1
        expected = LieElement.zero(3)
        for i in range(g):
            expected = expected + bracket(
                bracket(LieElement.generator(i), LieElement.generator(g + i)),
                LieElement.generator(2 * g - 1))
        assert not expected.is_zero()
        assert value.term(g - 1) == expected
        assert value.term(g - 1) == lie_class_at(t.defect(2 * g - 1), 3)


def test_boundary_twist_tau_surface_zero(model_of):
    for g in (2, 3):
        t = boundary_twist(model_of(g))
        assert sigma(t, 3).is_zero()
        assert tau(t, 3).is_zero()


def test_eta_examples(model_of):
    m = model_of(2)
    zero = TauValue.zero(m, 2, free=True)
    assert eta_inverse(zero).is_zero()
    ell = LieElement.from_tree(hall_basis(2, 4)[0])
    h = TauValue(m, 2, True, {0: ell})
    got = eta_inverse(h)
    # h supported on alpha_1 pulls back to -beta_1 tensor ell
    assert got.term(2) == -ell
    assert set(got.terms) == {2}


def test_eta_is_the_signed_swap(model_of):
    m = model_of(2)
    ell = LieElement.from_tree(hall_basis(2, 4)[0])
    # alpha_1 (x) ell <-> (beta_1 -> ell); beta_2 (x) ell <-> (alpha_2 -> -ell)
    pairs = [({0: ell}, {2: ell}), ({3: ell}, {1: -ell})]
    for free in (True, False):
        for terms, values in pairs:
            tv = TauValue(m, 2, free, terms)
            h = TauValue(m, 2, free, values)
            assert eta(tv) == h
            assert eta_inverse(h) == tv


def test_values_of_different_genera_do_not_mix(model_of):
    m2, m3 = model_of(2), model_of(3)
    with pytest.raises(ValueError):
        TauValue(m2, 1, True, {}) + TauValue(
            m3, 1, True, {5: LieElement.generator(5)})
    assert TauValue.zero(m2, 3) != TauValue.zero(m3, 3)
    # values compare by genus, not by model: a second genus-2 model agrees
    e = LieElement.generator(1)
    other = SurfaceModel(2)
    assert TauValue(other, 1, True, {0: e}) == TauValue(m2, 1, True, {0: e})
    assert (TauValue(other, 1, True, {0: e}) + TauValue(m2, 1, True, {0: e})
            == TauValue(m2, 1, True, {0: e + e}))


def test_eta_of_tau_is_sigma(model_of, g3_braids):
    t = boundary_twist(model_of(3))
    c, d = g3_braids["c"].fwd, g3_braids["d"].fwd
    for f, depth in ((t, 3), (c, 2), (d, 3), (t.compose(d), 3)):
        for k in range(2, depth + 1):
            assert eta(tau(f, k)) == sigma(f, k)
            assert eta(tau1(f, k)) == sigma(f, k, free=True)


def test_reduced_values_stay_in_normal_form(model_of):
    # reduction floor-reduces each pivot coordinate into [0, p), so a
    # negated normal form is one only where every pivot is 1; genus 3,
    # weight 6 has a block with a pivot of 2
    m = model_of(3)
    lv = m.symplectic_ideal().level(6)
    tree = next(lv.blocks[key][j] for key, lat in lv.lattices.items()
                for j in lat.pivots if lat.pivot(j) > 1)
    e = LieElement.from_tree(tree)
    v = TauValue(m, 6, True, {0: e, 3: e}).renormalize()
    assert v.term(0) == e
    for op in (TauValue.__neg__, eta, eta_inverse, lambda x: x + x):
        x = op(v)
        assert x == TauValue(m, 6, True, x.terms).renormalize()


def test_push_word_over_b_alphabet_is_refused(model_of):
    m = model_of(2)
    empty = [Word(m.b_alphabet()), Word(m.b_alphabet())]
    with pytest.raises(PreconditionError, match="unexpected alphabet"):
        braid_automorphism(m, empty)
    with pytest.raises(PreconditionError, match="unexpected alphabet"):
        point_push_tau(m, empty, 2)


def test_eta_round_trips(model_of):
    rng = random.Random(77)
    for g in (2, 3):
        m = model_of(g)
        for k in (2, 3, 4):
            for _ in range(5):
                vals = {mm: random_like(k, 2 * g, rng) for mm in range(2 * g)}
                h = TauValue(m, k, True, vals)
                assert eta(eta_inverse(h)) == h
                terms = {mm: random_like(k, 2 * g, rng) for mm in range(2 * g)}
                tv = TauValue(m, k, True, terms)
                assert eta_inverse(eta(tv)) == tv
                for v in (tv, tv.renormalize()):
                    assert eta_inverse(v) == -eta(v)


def test_braid_empty_tuple_is_identity(model_of):
    m = model_of(2)
    f = braid_automorphism(m, [Word(m.alphabet), Word(m.alphabet)])
    assert f.endo == GroupEndomorphism.identity(m.alphabet)


def test_braid_relation_violated(model_of):
    m = model_of(2)
    with pytest.raises(RelationViolatedError):
        braid_automorphism(m, [m.b(2), Word(m.alphabet)])


def test_braid_must_use_b_letters(model_of):
    m = model_of(2)
    with pytest.raises(Exception):
        braid_automorphism(m, [m.a(1), Word(m.alphabet)])


def test_braid_fixes_relator_and_framing(model_of):
    m = model_of(2)
    # framing tuples b_i^s are always admissible
    f = braid_automorphism(m, [m.b(1) ** 2, m.b(2) ** -1])
    assert f.endo.apply(m.relator) == m.relator
    assert f.endo.images[0] == m.a(1) * m.b(1) ** 2


def test_braid_depth_two_and_three(model_of, g3_braids):
    c = g3_braids["c"]
    assert johnson_depth(c.fwd, 5) == 2
    d = g3_braids["d"]
    assert johnson_depth(d.fwd, 5) == 3
    assert jprime_depth(c.fwd, 3) == 2


def test_sigma_depth_guard(model_of, g3_braids):
    m = model_of(3)
    d = g3_braids["d"]
    with pytest.raises(DepthTooShallowError):
        sigma(d.fwd, 4)
    with pytest.raises(DepthTooShallowError):
        tau(boundary_twist(m), 4)


def test_depth_guard_error_objects(model_of, g3_braids):
    # each guard names the first failing generator or push word, in order,
    # with the least degree below k where its expansion is nonzero
    m = model_of(3)
    c, d, b23 = g3_braids["c"], g3_braids["d"], g3_braids["b23"]

    def error_of(fn, *args):
        try:
            fn(*args)
        except (DepthTooShallowError, WeightTooLowError) as e:
            return e.to_json()
        raise AssertionError("no error")

    def shallow(gen, w, k):
        return {"error": "depth-too-shallow",
                "message": "defect of generator %s has weight %d < %d" % (gen, w, k),
                "details": {"weight": str(w)}}

    def low(i, w, k):
        return {"error": "weight-too-low",
                "message": "push word %d has weight %d < %d" % (i, w, k),
                "details": {"weight": str(w)}}

    assert error_of(sigma, c.fwd, 3) == shallow("a1", 2, 3)
    assert error_of(sigma, d.fwd, 4) == shallow("a1", 3, 4)
    assert error_of(tau1, d.fwd, 5) == shallow("a1", 3, 5)
    # a1 is fixed by b23, so a2 is the first defect named
    assert error_of(sigma, b23.fwd, 2) == shallow("a2", 1, 2)
    assert error_of(point_push_tau, m, push_tuple_of(c.fwd), 3) == low(1, 2, 3)
    assert error_of(point_push_tau, m, push_tuple_of(d.fwd), 4) == low(1, 3, 4)
    assert error_of(point_push_tau, m, push_tuple_of(b23.fwd), 2) == low(2, 1, 2)


def test_braid_sigma_columns(model_of, g3_braids):
    # alpha_i goes to the class of lambda_i, beta_i to zero
    m = model_of(3)
    d = g3_braids["d"]
    lam = push_tuple_of(d.fwd)
    assert lam is not None
    s = sigma(d.fwd, 3, free=True)
    for i in range(3):
        assert s.term(i) == lie_class_at(lam[i], 3)
        assert s.term(3 + i).is_zero()


def test_point_push_matches_tau_on_deep_braid(model_of, g3_braids):
    m = model_of(3)
    d = g3_braids["d"]
    lam = push_tuple_of(d.fwd)
    assert point_push_tau(m, lam, 3) == tau(d.fwd, 3)
    assert point_push_tau(m, lam, 2) == tau(d.fwd, 2)


def test_point_push_empty_zero(model_of):
    m = model_of(2)
    e = Word(m.alphabet)
    assert point_push_tau(m, [e, e], 2).is_zero()


def test_point_push_weight_guard(model_of):
    m = model_of(2)
    with pytest.raises(WeightTooLowError):
        point_push_tau(m, [m.b(1) ** 2, m.b(2) ** -2], 2)


def test_point_push_relation_guard(model_of):
    m = model_of(2)
    with pytest.raises(RelationViolatedError):
        point_push_tau(m, [m.b(2), Word(m.alphabet)], 1)


def test_push_tuple_of_boundary_twist_is_none(model_of):
    # the twist conjugates by the relator, which is not a b-word
    assert push_tuple_of(boundary_twist(model_of(2))) is None


def test_additivity_and_kernel_property(model_of, g3_braids):
    m = model_of(3)
    t = boundary_twist(m)
    d = g3_braids["d"]
    # composites of two deep pushes square the word lengths, so pairs mix a
    # twist power with a push (plus the inverse-pair sanity case)
    pool = [t, t.compose(t), d.fwd, d.bwd]
    taus = [tau(f, 3) for f in pool]
    taus1 = [tau1(f, 3) for f in pool]
    pairs = [(0, 0), (0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1),
             (0, 3), (3, 0), (2, 3), (3, 2)]
    for i, j in pairs:
        f, h = pool[i], pool[j]
        assert tau(f.compose(h), 3) == taus[i] + taus[j]
        assert tau1(f.compose(h), 3) == taus1[i] + taus1[j]
    # kernel property: tau1 vanishes at k exactly when the depth exceeds k
    c = g3_braids["c"]
    assert johnson_depth(c.fwd, 4) == 2
    assert not tau1(c.fwd, 2).is_zero()
    assert tau1(d.fwd, 2).is_zero()          # depth 3 >= 2+1
    assert not tau1(d.fwd, 3).is_zero()      # not in the next stage
    assert not tau1(t, 3).is_zero()


def test_tau1_compatible_with_tau(model_of, g3_braids):
    m = model_of(3)
    d = g3_braids["d"]
    t = boundary_twist(m)
    for f in (d.fwd, t, t.compose(d.fwd)):
        assert tau1(f, 3).renormalize() == tau(f, 3)


def _contraction(value):
    """The bracket H (x) L_k -> L_{k+1}: sum_j [x_j, terms[j]]."""
    out = LieElement.zero(value.k + 1)
    for j, e in value.terms.items():
        out = out + bracket(LieElement.generator(j), e)
    return out


def test_tau1_lies_in_the_bracket_kernel(model_of, g3_braids):
    # the derivation condition D(omega) = 0 (Morita 1993): a Johnson value
    # with free coefficients is killed by the bracket, and doubling any one
    # of its terms breaks that
    t2, t3 = boundary_twist(model_of(2)), boundary_twist(model_of(3))
    c, d = g3_braids["c"].fwd, g3_braids["d"].fwd
    d_a23 = commutator_braid(g3_braids["d"], g3_braids["b23"]).fwd
    s1, s2 = (separating_twist(model_of(3), h) for h in (1, 2))
    cases = [(t2, 3), (t3, 3), (c, 2), (d, 3), (d_a23, 4),
             (d.compose(d), 3), (t3.compose(d), 3), (s1, 3), (s2, 3)]
    for f, k in cases:
        value = tau1(f, k)
        assert value.terms and _contraction(value).is_zero()
        for j, e in value.terms.items():
            doubled = TauValue(value.model, k, True,
                               {**value.terms, j: e.scale(2)})
            assert not _contraction(doubled).is_zero()


def test_separating_twist_sigma_brackets_with_omega_h(model_of):
    # the twist about gamma_h = [a1,b1]...[ah,bh] has defect
    # [gamma_h, x] on a letter x of the first h handles and none elsewhere,
    # so sigma_3 sends x to [omega_h, x] there, omega_h = sum over i <= h
    # of [alpha_i, beta_i], and to 0 elsewhere; h = g is the boundary twist
    for g in (2, 3):
        m = model_of(g)
        for h in range(1, g + 1):
            omega_h = LieElement.zero(2)
            for i in range(h):
                omega_h = omega_h + bracket(LieElement.generator(i),
                                            LieElement.generator(g + i))
            letters = [*range(h), *range(g, g + h)]
            want = {j: bracket(omega_h, LieElement.generator(j))
                    for j in letters}
            f = separating_twist(m, h)
            assert sigma(f, 3, free=True) == TauValue(m, 3, True, want)
        assert separating_twist(m, g) == boundary_twist(m)


def test_jprime_at_least_johnson(model_of, g3_braids):
    m = model_of(3)
    t = boundary_twist(m)
    maps = [t] + [g3_braids[name].fwd for name in ("b12", "b23", "c", "d")]
    maps += [g3_braids[name].bwd for name in ("b12", "b23")]
    for f in maps:
        jd = johnson_depth(f, 4)
        jp = jprime_depth(f, 4)
        if jp is not None:
            assert jd is not None and jp >= jd


def test_elementary_push_depths_with_a_trivial_defect(model_of, g3_braids):
    # A23 fixes a1, so its first defect is trivial at every cap; the depths
    # come from the other defects, and johnson_depth reads no cap above 1
    m = model_of(3)
    ab = m.alphabet
    a23 = braid_automorphism(m, [Word(ab), word_from_str(ab, "b3^-1"),
                                 word_from_str(ab, "b2^-1 b3^-1")])
    assert a23 == g3_braids["b23"].fwd
    assert a23.defect(0) == Word(ab)
    assert johnson_depth(a23, 6) == 1
    assert [c for c in a23._cache if c is not None] == [1]
    assert a23.action(6).defect(0) == MagnusSeries.one(6)
    assert jprime_depth(a23, 6) == 1


def test_defect_classes_vanish_on_commutators(model_of, g3_braids):
    # the defect homomorphism only sees homology: commutator words have
    # trivial defect class at the filtration weight
    m = model_of(3)
    ideal = m.symplectic_ideal()
    rng = random.Random(71)
    letters = [i for i in range(-6, 7) if i]
    for f, k in ((boundary_twist(m), 3), (g3_braids["c"].fwd, 2)):
        for _ in range(4):
            u = Word(m.alphabet, [rng.choice(letters) for _ in range(3)])
            v = Word(m.alphabet, [rng.choice(letters) for _ in range(3)])
            c = commutator(u, v)
            d = f.endo.apply(c) * ~c
            cls = ideal.reduce(lie_class_at(d, k)).vector
            assert cls.is_zero()
            # and shifting a generator by a commutator keeps its class
            w1 = m.b(1)
            w2 = w1 * c
            d1 = f.endo.apply(w1) * ~w1
            d2 = f.endo.apply(w2) * ~w2
            cls1 = ideal.reduce(lie_class_at(d1, k)).vector
            cls2 = ideal.reduce(lie_class_at(d2, k)).vector
            assert cls1 == cls2


def test_search_oracle_g2_weight_one(model_of):
    # with no depth requirement the bounded search finds real braid tuples
    m = model_of(2)
    found = search_push_tuples_g2(m, maxlen=4, min_weight=1)
    assert any(lam1 or lam2 for lam1, lam2 in found)
    for lam1, lam2 in found[:40]:
        f = braid_automorphism(m, [lam1, lam2])
        if lam1 or lam2:
            assert point_push_tau(m, [lam1, lam2], 1) == tau(f, 1)


def test_braid_inverse_exactness(model_of, g3_braids):
    m = model_of(3)
    b12, b23 = g3_braids["b12"], g3_braids["b23"]
    ident = GroupEndomorphism.identity(m.alphabet)
    assert b12.fwd.compose(b12.bwd).endo == ident
    assert b23.bwd.compose(b23.fwd).endo == ident
    c = g3_braids["c"]
    assert c.fwd.compose(c.bwd).endo == ident


def test_pruned_push_search_matches_full_enumeration(model_of):
    m = model_of(2)
    for maxlen in range(9):
        assert (search_push_tuples_g2(m, maxlen)
                == search_push_tuples_g2(m, maxlen, prune=False))
    for g, maxlen in ((2, 8), (3, 6)):
        m = model_of(g)
        balanced = [w for w in reduced_b_words(m, maxlen)
                    if all(sum(x == y for x in w.letters)
                           == sum(x == -y for x in w.letters)
                           for y in range(g + 1, 2 * g + 1))]
        assert len(balanced) > 100
        assert list(reduced_b_words(m, maxlen, balanced=True)) == balanced
