"""JSON interchange for the domain values.

JSON is the single interchange format; integers whose magnitude exceeds
53 bits are emitted as decimal strings so lossy consumers cannot corrupt
them, and the parsers accept both representations.

Only `json` and `errors` load with this module: each parser and formatter
imports the layers it reads, so a CLI call that never reads a mapping class
does not load the Johnson layer.
"""

import json

from .errors import PreconditionError, UnknownGeneratorError

_BIG = 1 << 53


def _guard_ints(obj):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj) if abs(obj) >= _BIG else obj
    if isinstance(obj, (list, tuple)):
        return [_guard_ints(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _guard_ints(v) for k, v in obj.items()}
    return obj


def dumps(obj):
    return json.dumps(_guard_ints(obj), sort_keys=True)


def parse_int(v):
    if isinstance(v, bool):
        raise PreconditionError("expected an integer, got a boolean")
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        try:
            return int(v)
        except ValueError:
            pass
    raise PreconditionError("expected an integer, got %r" % (v,))


def _iterable(v, what, size=None):
    """v, refused unless it is a JSON array, of `size` items if one is given."""
    if not isinstance(v, list):
        raise PreconditionError("%s must be an array, got %r" % (what, v))
    if size is not None and len(v) != size:
        raise PreconditionError("%s must have %d items, got %r" % (what, size, v))
    return v


def parse_word(alphabet, obj):
    """Accept the compact string form or the [[name, exponent], ...] array."""
    from .words import word_from_pairs, word_from_str
    if isinstance(obj, str):
        return word_from_str(alphabet, obj)
    if isinstance(obj, list):
        return word_from_pairs(alphabet, [
            (n, parse_int(e))
            for n, e in (_iterable(p, "a word pair", 2) for p in obj)])
    raise PreconditionError("cannot parse a word from %r" % (obj,))


def parse_matrix(obj):
    if not isinstance(obj, list) or not obj:
        raise PreconditionError("matrix must be a nonempty array of rows")
    rows = []
    for row in obj:
        if not isinstance(row, list):
            raise PreconditionError("matrix rows must be arrays")
        rows.append([parse_int(v) for v in row])
    if any(len(r) != len(rows) for r in rows):
        raise PreconditionError("matrix must be square")
    return rows


def parse_lagrangian(obj):
    from .symplectic import Lagrangian
    if not isinstance(obj, dict) or "genus" not in obj or "span" not in obj:
        raise PreconditionError('Lagrangian JSON needs "genus" and "span"')
    genus = parse_int(obj["genus"])
    span = [[parse_int(v) for v in _iterable(row, "a span row")]
            for row in _iterable(obj["span"], '"span"')]
    return Lagrangian(genus, span)


def lagrangian_json(lag):
    return {"genus": lag.genus, "span": [list(r) for r in lag.rows]}


def parse_mapping_class(obj):
    from .johnson import MappingClassData
    from .surface import SurfaceModel
    from .words import GroupEndomorphism
    if not isinstance(obj, dict) or "genus" not in obj:
        raise PreconditionError('mapping class JSON needs "genus" and "images"')
    model = SurfaceModel(parse_int(obj["genus"]))
    raw = obj.get("images", {})
    if not isinstance(raw, dict):
        raise PreconditionError('"images" must be an object {name: word}')
    images = {}
    for name, wobj in raw.items():
        if name not in model.alphabet.index:
            raise UnknownGeneratorError(
                "unknown generator %r in images" % (name,))
        images[name] = parse_word(model.alphabet, wobj)
    endo = GroupEndomorphism.from_dict(model.alphabet, images)
    return MappingClassData(model, endo)


def mapping_class_json(f):
    from .words import word_to_pairs
    return {"genus": f.model.genus,
            "images": {nm: word_to_pairs(w)
                       for nm, w in zip(f.model.alphabet.names, f.endo.images)}}


def lie_to_json(e, alphabet):
    from .hall import tree_to_json
    return {"weight": e.weight,
            "terms": [[c, tree_to_json(t, alphabet)] for t, c in e.sorted_terms()]}


def lie_from_json(obj, alphabet):
    """A Lie element from {"weight": k, "terms": [[c, tree], ...]}; a tree
    need not be basic and is rewritten into Hall coordinates."""
    from .hall import tree_from_json
    from .lie import LieElement, tree_to_lie
    if not isinstance(obj, dict) or "weight" not in obj or "terms" not in obj:
        raise PreconditionError('Lie element JSON needs "weight" and "terms"')
    weight = parse_int(obj["weight"])
    terms = [(parse_int(c), tree_from_json(tj, alphabet))
             for c, tj in (_iterable(p, "a Lie term", 2)
                           for p in _iterable(obj["terms"], '"terms"'))]
    if weight < 1 or any(t.weight != weight for _, t in terms):
        raise PreconditionError("tree weights must equal the element's "
                                "weight %d, which must be >= 1" % weight)
    return sum((tree_to_lie(t).scale(c) for c, t in terms),
               LieElement.zero(weight))


def tau_json(tv):
    names = tv.model.alphabet.names
    return {"k": tv.k,
            "free": tv.free,
            "terms": [[names[m], lie_to_json(e, tv.model.alphabet)]
                      for m, e in sorted(tv.terms.items())]}


def parse_tau(obj, model):
    from .johnson import TauValue
    if not isinstance(obj, dict) or "k" not in obj or "terms" not in obj:
        raise PreconditionError('Johnson value JSON needs "k" and "terms"')
    k = parse_int(obj["k"])
    free = obj.get("free", False)
    if not isinstance(free, bool):
        raise PreconditionError('"free" must be true or false: %r' % (free,))
    terms = {}
    for name, lj in (_iterable(p, "a term pair", 2)
                     for p in _iterable(obj["terms"], '"terms"')):
        if not isinstance(name, str) or name not in model.alphabet.index:
            raise UnknownGeneratorError(
                "unknown generator %r in terms" % (name,))
        e = lie_from_json(lj, model.alphabet)
        if e.weight != k:
            raise PreconditionError("term of weight %d in a weight-%d value"
                                    % (e.weight, k))
        terms[model.alphabet.index[name]] = e
    return TauValue(model, k, free, terms)
