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
    if isinstance(obj, list):
        return [_guard_ints(v) for v in obj]
    if isinstance(obj, tuple):
        return [_guard_ints(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _guard_ints(v) for k, v in obj.items()}
    return obj


def dumps(obj, indent=None):
    return json.dumps(_guard_ints(obj), indent=indent, sort_keys=True)


def parse_int(v):
    if isinstance(v, bool):
        raise PreconditionError("expected an integer, got a boolean")
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        return int(v)
    raise PreconditionError("expected an integer, got %r" % (v,))


def _iterable(v, what):
    """v, refused unless it is a JSON array."""
    if not isinstance(v, list):
        raise PreconditionError("%s must be an array, got %r" % (what, v))
    return v


def parse_word(alphabet, obj):
    """Accept the compact string form or the [[name, exponent], ...] array."""
    from .words import word_from_pairs, word_from_str
    if isinstance(obj, str):
        return word_from_str(alphabet, obj)
    if isinstance(obj, list):
        return word_from_pairs(alphabet, [
            (n, parse_int(e))
            for n, e in (_iterable(p, "a word pair") for p in obj)])
    raise PreconditionError("cannot parse a word from %r" % (obj,))


def word_json(w):
    from .words import word_to_pairs
    return word_to_pairs(w)


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
    return {"genus": f.model.genus,
            "images": {nm: word_json(w)
                       for nm, w in zip(f.model.alphabet.names, f.endo.images)}}


def tau_json(tv):
    from .lie import lie_to_json
    names = tv.model.alphabet.names
    return {"k": tv.k,
            "free": tv.free,
            "terms": [[names[m], lie_to_json(e, tv.model.alphabet)]
                      for m, e in sorted(tv.terms.items())]}


def parse_tau(obj, model):
    from .johnson import TauValue
    from .lie import lie_from_json
    if not isinstance(obj, dict) or "k" not in obj or "terms" not in obj:
        raise PreconditionError('Johnson value JSON needs "k" and "terms"')
    k = parse_int(obj["k"])
    terms = {}
    for name, lj in (_iterable(p, "a term pair")
                     for p in _iterable(obj["terms"], '"terms"')):
        if not isinstance(name, str) or name not in model.alphabet.index:
            raise UnknownGeneratorError(
                "unknown generator %r in terms" % (name,))
        terms[model.alphabet.index[name]] = lie_from_json(lj, model.alphabet)
    return TauValue(model, k, bool(obj.get("free", False)), terms)
