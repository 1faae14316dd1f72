import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from liegen import random_like

from lietau.errors import DimensionMismatchError, PreconditionError
from lietau.intlinalg import identity_matrix, mat_mul
from lietau.johnson import (TauValue, boundary_twist, identity_mapping_class,
                            tau, tau1)
from lietau.lie import LieElement, bracket, substitute, x_count_split
from lietau.obstruction import (_handlebody_image, _symplectic_inverse,
                                coordinate_lagrangians, grade_decompose,
                                obstruction_vanishes, perturbed_lagrangians,
                                robustness_scan, scan_family,
                                value_obstruction_vanishes)
from lietau.surface import b_only_part
from lietau.symplectic import Lagrangian, adapt_symplectic_basis


def b_tree(model, *indices):
    g = model.genus
    out = LieElement.generator(g + indices[0] - 1)
    for i in indices[1:]:
        out = bracket(out, LieElement.generator(g + i - 1))
    return out


def test_pure_b_value_is_grade_zero(model_of):
    m = model_of(2)
    ell = b_tree(m, 2, 1)  # [beta_2, beta_1]
    value = TauValue(m, 2, False, {2: -ell}).renormalize()
    gd = grade_decompose(value, Lagrangian.standard(2))
    assert gd.grades() == [0]
    assert gd.component(0) == gd.total


def test_alpha_tensor_factor_has_positive_grade(model_of):
    m = model_of(2)
    ell = b_tree(m, 2, 1)
    value = TauValue(m, 2, False, {0: ell}).renormalize()
    gd = grade_decompose(value, Lagrangian.standard(2))
    assert gd.grades() == [1]


def test_symplectic_class_has_grade_one(model_of):
    # the defining class is invariant under any symplectic change of letters,
    # so it always has exactly one kernel-side letter
    for g in (2, 3):
        m = model_of(g)
        omega_elt = m.symplectic_class()
        for lag in scan_family(g, height=1)[:6]:
            s = adapt_symplectic_basis(lag)
            sinv = _symplectic_inverse(s, g)
            images = [
                LieElement(1, [(LieElement.generator(jj).sorted_terms()[0][0],
                                sinv[jj][mm]) for jj in range(2 * g)])
                for mm in range(2 * g)]
            moved = substitute(omega_elt, images)
            assert moved == omega_elt
            assert list(x_count_split(moved, g)) == [1]


def test_components_sum_to_total(model_of):
    m = model_of(3)
    rng = random.Random(404)
    value = TauValue(m, 3, False, {0: random_like(3, 6, rng),
                                   2: random_like(3, 6, rng),
                                   4: random_like(3, 6, rng)}).renormalize()
    assert not value.is_zero()
    for lag in scan_family(3, height=1)[:6]:
        gd = grade_decompose(value, lag)
        total = TauValue(m, 3, False, {})
        for i in gd.grades():
            total = total + gd.component(i)
            # every component is x-count homogeneous of its grade
            for mm, e in gd.component(i).terms.items():
                base = 1 if mm < 3 else 0
                for t in e.terms:
                    assert base + t.x_count(3) == i
        assert total == gd.total
        assert 0 <= min(gd.grades()) and max(gd.grades()) <= 3 + 1


def test_obstruction_identity_vanishes_everywhere(model_of):
    m = model_of(2)
    f = identity_mapping_class(m)
    for lag in scan_family(2, height=1):
        assert obstruction_vanishes(f, 2, lag)


def test_obstruction_boundary_twist_vanishes(model_of):
    m = model_of(2)
    t = boundary_twist(m)
    for lag in coordinate_lagrangians(2):
        assert obstruction_vanishes(t, 3, lag)


def test_obstruction_deep_push_nonvanishing(model_of, g3_braids):
    d = g3_braids["d"]
    assert not obstruction_vanishes(d.fwd, 3, Lagrangian.standard(3))


def test_obstruction_unimodular_recombination(model_of, g3_braids):
    d = g3_braids["d"]
    value = tau(d.fwd, 3)
    l1 = Lagrangian(3, [[1, 0, 0, 0, 0, 0],
                        [0, 1, 0, 0, 0, 0],
                        [0, 0, 1, 0, 0, 0]])
    l2 = Lagrangian(3, [[1, 1, 0, 0, 0, 0],
                        [0, 1, 1, 0, 0, 0],
                        [0, 0, 1, 0, 0, 0]])
    assert l1 == l2
    assert (value_obstruction_vanishes(value, l1)
            == value_obstruction_vanishes(value, l2))


def test_cross_route_standard_lagrangian(model_of, g3_braids):
    # grade-0 vanishing at the alpha-span agrees with the group-level route
    # that kills the a-generators
    m = model_of(3)
    d = g3_braids["d"]
    t = boundary_twist(m)
    for f, k in ((d.fwd, 3), (t, 3), (t.compose(d.fwd), 3)):
        value = tau(f, k)
        route1 = value_obstruction_vanishes(value, Lagrangian.standard(3))
        # tensor factors alpha_i die; beta_i columns map through a_i -> 1
        route2 = all(
            b_only_part(m, value.term(m.genus + i)).is_zero()
            for i in range(m.genus))
        from lietau.surface import handlebody_class
        route3 = True
        for i in range(m.genus):
            # the beta_i tensor coefficient is the class of the a_i defect
            defect = f.defect(i)
            got = handlebody_class(m, defect, k)
            if got is not None and got[0] == k and not got[1].is_zero():
                route3 = False
        assert route1 == route2 == route3


def test_scan_identity_all_vanish(model_of):
    m = model_of(2)
    rep = robustness_scan(identity_mapping_class(m), 2, height=1)
    assert rep.scanned == len(rep.vanishing)


def test_scan_boundary_twist_all_vanish(model_of):
    m = model_of(2)
    rep = robustness_scan(boundary_twist(m), 3, height=1)
    assert len(rep.vanishing) == rep.scanned


def test_scan_deep_push_reports_exactly_the_vanishing(model_of, g3_braids):
    d = g3_braids["d"]
    value = tau(d.fwd, 3)
    rep = robustness_scan(d.fwd, 3, height=0)
    direct = [lag for lag in coordinate_lagrangians(3)
              if value_obstruction_vanishes(value, lag)]
    assert rep.vanishing == direct
    assert Lagrangian.standard(3) not in rep.vanishing


def test_scan_family_deterministic_and_deduped():
    fam1 = scan_family(2, height=2)
    fam2 = scan_family(2, height=2)
    assert fam1 == fam2
    assert len({lag.rows for lag in fam1}) == len(fam1)
    assert len(coordinate_lagrangians(2)) == 4
    assert all(isinstance(lag, Lagrangian) for lag in perturbed_lagrangians(2, 1))


def test_user_supplied_lagrangian_included(model_of):
    m = model_of(2)
    extra = Lagrangian(2, [[1, 0, 0, 5], [0, 1, 5, 0]])
    rep = robustness_scan(identity_mapping_class(m), 2,
                          lagrangians=[extra], height=0)
    assert any(lag == extra for lag, _ in rep.results)


def test_lagrangian_of_another_genus_is_refused(model_of):
    # a smaller genus used to fail inside the basis change, and a larger one
    # to decide the obstruction against the wrong surface
    f = boundary_twist(model_of(2))
    value = tau(f, 2)
    for lag in (Lagrangian.standard(1), Lagrangian.coordinate(3, [1])):
        with pytest.raises(DimensionMismatchError):
            grade_decompose(value, lag)
        with pytest.raises(DimensionMismatchError):
            _handlebody_image(value, lag)
        with pytest.raises(DimensionMismatchError):
            obstruction_vanishes(f, 2, lag)
        with pytest.raises(DimensionMismatchError):
            robustness_scan(f, 2, lagrangians=[lag], height=0)


def test_free_value_is_refused(model_of):
    f = boundary_twist(model_of(2))
    lag = Lagrangian.standard(2)
    with pytest.raises(PreconditionError):
        value_obstruction_vanishes(tau1(f, 3), lag)
    with pytest.raises(PreconditionError):
        grade_decompose(tau1(f, 3), lag)


def test_symplectic_inverse_is_the_inverse():
    for lag in scan_family(3, 2):
        s = adapt_symplectic_basis(lag)
        assert mat_mul(_symplectic_inverse(s, 3), s) == identity_matrix(6)


def graph_lagrangian(g, sym):
    """span{alpha_i + sum_j S_ij beta_j} for the symmetric S read from the
    upper-triangle entries `sym`, row by row."""
    s = [[0] * g for _ in range(g)]
    it = iter(sym)
    for i in range(g):
        for jj in range(i, g):
            s[i][jj] = s[jj][i] = next(it)
    return Lagrangian(g, [[int(i == jj) for jj in range(g)] + s[i]
                          for i in range(g)])


def _image_values(model, g3_braids, rng):
    """Johnson values of maps, then renormalized random values, k = 2..4."""
    g = model.genus
    t = boundary_twist(model)
    values = [tau(t, 3)]
    if g == 3:
        c, d = g3_braids["c"].fwd, g3_braids["d"].fwd
        values += [tau(c, 2), tau(d, 3), tau(t.compose(d), 3),
                   tau(d.compose(d), 3)]
    for k in (2, 3, 4):
        idx = rng.sample(range(2 * g), 2)
        values.append(TauValue(model, k, False, {
            m: random_like(k, 2 * g, rng) for m in idx}).renormalize())
    return values


@pytest.mark.parametrize("g", [2, 3])
def test_handlebody_image_is_grade_zero(model_of, g3_braids, g):
    # the image in H/L is the grade-0 component of the full decomposition,
    # term for term, and it decides the obstruction
    rng = random.Random(1700 + g)
    lags = scan_family(g, 2) + [
        graph_lagrangian(g, [rng.randint(-3, 3) for _ in range(g * (g + 1) // 2)])
        for _ in range(4)]
    seen = set()
    for value in _image_values(model_of(g), g3_braids, rng):
        for lag in lags:
            image = _handlebody_image(value, lag)
            assert image == grade_decompose(value, lag).component(0)
            assert value_obstruction_vanishes(value, lag) == image.is_zero()
            seen.add(image.is_zero())
    assert seen == {True, False}


# model_of hands out the session's shared models, so it holds no state
# that a generated input could leave behind
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(2, 3).flatmap(lambda g: st.tuples(
    st.just(g), st.lists(st.integers(-4, 4), min_size=g * (g + 1) // 2,
                         max_size=g * (g + 1) // 2))),
       st.integers(2, 4), st.integers(0, 2 ** 16))
def test_handlebody_image_on_graph_lagrangians(model_of, g_sym, k, seed):
    g, sym = g_sym
    lag = graph_lagrangian(g, sym)
    rng = random.Random(seed)
    value = TauValue(model_of(g), k, False, {
        m: random_like(k, 2 * g, rng) for m in rng.sample(range(2 * g), 2)
    }).renormalize()
    image = _handlebody_image(value, lag)
    assert image == grade_decompose(value, lag).component(0)
    assert value_obstruction_vanishes(value, lag) == image.is_zero()
