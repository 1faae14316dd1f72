import json
import threading

import pytest

from liegen import random_like
from lietau.errors import PreconditionError, UnknownGeneratorError
from lietau.hall import hall_basis, witt
from lietau.johnson import boundary_twist, tau1
from lietau.lie import bracket
from lietau.serialize import (dumps, mapping_class_json, parse_mapping_class,
                              parse_tau, tau_json)
from lietau.surface import SurfaceModel
from lietau.johnson import sigma


def test_tau_json_roundtrip():
    m = SurfaceModel(2)
    t = boundary_twist(m)
    value = tau1(t, 3)
    blob = dumps(tau_json(value))
    back = parse_tau(json.loads(blob), m)
    assert back == value


def test_parse_tau_refuses_malformed_json():
    m = SurfaceModel(2)
    zero = {"weight": 2, "terms": []}
    for obj, error in (({"terms": []}, PreconditionError),
                       ({"k": 2, "terms": 5}, PreconditionError),
                       ([2, []], PreconditionError),
                       ({"k": 2, "terms": [["zz", zero]]},
                        UnknownGeneratorError),
                       ({"k": 2, "terms": [["a1", zero, 1]]},
                        PreconditionError)):
        with pytest.raises(error):
            parse_tau(obj, m)
    # "free" is JSON true or false, or absent for false
    for free in ("false", "no", "true", 2, 1, 0, None, [], {}):
        with pytest.raises(PreconditionError):
            parse_tau({"k": 2, "free": free, "terms": []}, m)
    for free, want in ((True, True), (False, False)):
        assert parse_tau({"k": 2, "free": free, "terms": []}, m).free is want
    assert parse_tau({"k": 2, "terms": []}, m).free is False
    # a malformed Lie element as the a1 term
    for lie, error in (({}, PreconditionError),
                       (5, PreconditionError),
                       ({"weight": 2, "terms": 5}, PreconditionError),
                       ({"weight": 2, "terms": [[1]]}, PreconditionError),
                       ({"weight": 2, "terms": [["x", ["a1", "b1"]]]},
                        PreconditionError),
                       ({"weight": "w", "terms": []}, PreconditionError),
                       ({"weight": 2, "terms": [[1, ["a1", "b1", "a2"]]]},
                        PreconditionError),
                       ({"weight": 3, "terms": [[1, ["a1", "b1"]]]},
                        PreconditionError),
                       ({"weight": 3, "terms": [[1, [["a1", "b1"], "b2"]]]},
                        PreconditionError),
                       ({"weight": 2, "terms": [[1, [True, "b1"]]]},
                        PreconditionError),
                       ({"weight": 2, "terms": [[1, ["zz", "b1"]]]},
                        UnknownGeneratorError),
                       ({"weight": 2, "terms": [[1, [-1, "b1"]]]},
                        UnknownGeneratorError),
                       ({"weight": 2, "terms": [[1, [7, "b1"]]]},
                        UnknownGeneratorError)):
        with pytest.raises(error):
            parse_tau({"k": 2, "terms": [["a1", lie]]}, m)
    # leaves may be given by index
    e = parse_tau({"k": 2, "terms": [["a1", {"weight": 2, "terms": [
        [1, [3, "b1"]], ["-2", ["b2", 0]]]}]]}, m)
    assert e == parse_tau({"k": 2, "terms": [["a1", {"weight": 2, "terms": [
        [1, ["b2", "b1"]], [-2, ["b2", "a1"]]]}]]}, m)
    assert not e.is_zero()


def test_mapping_class_json_roundtrip():
    m = SurfaceModel(2)
    t = boundary_twist(m)
    back = parse_mapping_class(mapping_class_json(t))
    assert back.endo == t.endo


def test_sigma_surface_reduced_on_twist():
    # every generator class of the twist dies in the closed-surface layer
    m = SurfaceModel(2)
    s = sigma(boundary_twist(m), 3)
    assert not s.free and s.is_zero()


def test_shared_caches_are_thread_safe():
    # hammer the interned-tree and bracket caches from several threads
    errors = []

    def work(seed):
        try:
            import random
            rng = random.Random(seed)
            for _ in range(40):
                a = random_like(rng.randint(1, 3), 4, rng)
                b = random_like(rng.randint(1, 3), 4, rng)
                assert bracket(a, b) == -bracket(b, a)
            assert len(hall_basis(5, 4)) == witt(5, 4)
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(s,)) for s in range(6)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert not errors
