import json
import threading

from liegen import random_like
from lietau.hall import hall_basis, witt
from lietau.johnson import boundary_twist
from lietau.lie import bracket
from lietau.serialize import dumps, parse_mapping_class
from lietau.surface import SurfaceModel
from lietau.johnson import sigma
from lietau.words import word_to_pairs


def test_parse_mapping_class_reads_word_pairs():
    # the [[name, exponent], ...] form of every image word
    m = SurfaceModel(2)
    t = boundary_twist(m)
    obj = {"genus": 2,
           "images": {nm: word_to_pairs(w)
                      for nm, w in zip(m.alphabet.names, t.endo.images)}}
    back = parse_mapping_class(json.loads(dumps(obj)))
    assert back == t and back.endo == t.endo


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
