"""JSON interchange for the CLI: a reader for each input it takes
(`parse_mapping_class`, `parse_lagrangian`, `parse_matrix`) and a writer
for each value it prints (`tau_json`, `lagrangian_json`), and no others.
Integers whose magnitude exceeds 53 bits are emitted as decimal strings so
lossy consumers cannot corrupt them, and the parsers accept both forms.
`decimal` writes those strings, and the CLI's bare integers, with no
bound on their length, and `parse_int` reads them back: Python's `str`
and `int` refuse more digits than its int-to-str limit (4,300 by default).

Only `json` and `errors` load with this module: each parser and formatter
imports the layers it reads, so a CLI call that never reads a mapping class
does not load the Johnson layer.
"""

import json

from .errors import PreconditionError, UnknownGeneratorError

_BIG = 1 << 53
_PIECE = 500                # digits; Python's int-to-str limit is >= 640
_PIECE_POW = 10 ** _PIECE


def decimal(n):
    """The decimal digits of the int n, as str(n) writes them, whatever
    Python's int-to-str limit.  Divide and conquer: n is split by
    10^(500 * 2^i) for the largest i that leaves two parts, each part
    converted the same way and the lower one padded with zeros, so str()
    only ever sees pieces below 10^500."""
    if n < 0:
        return "-" + decimal(-n)
    if n < _PIECE_POW:
        return str(n)
    pows = [_PIECE_POW]         # pows[i] = 10^(500 * 2^i) while pows[i]^2 <= n
    while pows[-1] * pows[-1] <= n:
        pows.append(pows[-1] * pows[-1])

    def digits(m, i, width):
        # m < pows[i]^2 (10^500 for i = -1), written in `width` digits if
        # width is nonzero, else in as many as it needs
        if i < 0:
            return str(m).zfill(width)
        hi, lo = divmod(m, pows[i])
        size = _PIECE << i      # the digits of a part below pows[i]
        if not hi and not width:
            return digits(lo, i - 1, 0)
        return (digits(hi, i - 1, width and width - size)
                + digits(lo, i - 1, size))

    return digits(n, len(pows) - 1, 0)


def _from_decimal(s):
    """The int that `decimal` writes as s, whatever Python's int-to-str
    limit: the low 500 * 2^i digits are split off for the largest i that
    leaves two parts, and each part is read the same way, so int() only
    ever sees pieces of at most 500 digits."""
    if s[:1] == "-":
        return -_from_decimal(s[1:])
    if len(s) <= _PIECE:
        return int(s)
    size = _PIECE
    while 2 * size < len(s):
        size *= 2
    return _from_decimal(s[:-size]) * 10 ** size + _from_decimal(s[-size:])


def _guard_ints(obj):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return decimal(obj) if abs(obj) >= _BIG else obj
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
        except ValueError:  # all digits, then past int's limit
            if v.removeprefix("-").isdigit() and v.isascii():
                return _from_decimal(v)
    raise PreconditionError("expected an integer, got %.60r" % (v,))


def _iterable(v, what, size=None):
    """v, refused unless it is a JSON array, of `size` items if one is given."""
    if not isinstance(v, list):
        raise PreconditionError("%s must be an array, got %.60r" % (what, v))
    if size is not None and len(v) != size:
        raise PreconditionError("%s must have %d items, got %.60r" % (what, size, v))
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
    raise PreconditionError("cannot parse a word from %.60r" % (obj,))


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
                "unknown generator %.60r in images" % (name,))
        images[name] = parse_word(model.alphabet, wobj)
    endo = GroupEndomorphism.from_dict(model.alphabet, images)
    return MappingClassData(model, endo)


def lie_to_json(e, alphabet):
    from .hall import tree_to_json
    return {"weight": e.weight,
            "terms": [[c, tree_to_json(t, alphabet)] for t, c in e.sorted_terms()]}


def tau_json(tv):
    names = tv.model.alphabet.names
    return {"k": tv.k,
            "free": tv.free,
            "terms": [[names[m], lie_to_json(e, tv.model.alphabet)]
                      for m, e in sorted(tv.terms.items())]}
