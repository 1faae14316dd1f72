"""Digests of the graded-ideal engine's state, for regression checks.

Run as a script in a fresh interpreter (``PYTHONPATH=src python
tests/enginedigest.py``), it builds the symplectic and handlebody ideals'
levels for genus 1 and 2 up to weight 7 and genus 3 up to weight 6 and
prints a JSON object of SHA-256 digests, with the memo's size:

- ``levels``: every level's kept vectors with their term order, lift
  recipes, and each block's dense echelon rows, pivot columns, members,
  rank and torsion, with the level's rank and torsion;
- ``memo``: `lie._bracket_memo` after those builds, in insertion order,
  each entry's terms in their stored order;
- ``lagrangians``: the Hermite rows of `scan_family(3, 3)`.

The memo's insertion order depends on every bracket taken before, so its
digest is only meaningful from a fresh process.
"""

import hashlib
import json

from lietau import SurfaceModel, lie
from lietau.hall import tree_to_str
from lietau.obstruction import scan_family
from lietau.words import Word

BUILDS = ((1, 7), (2, 7), (3, 6))


def _sha(obj):
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def _terms(pairs):
    return [[tree_to_str(t), c] for t, c in pairs]


def _level(lv):
    blocks = []
    for key, lat in lv.lattices.items():
        blocks.append([list(key), lat.matrix(), lat.pivots,
                       lv.members.get(key, []), lat.rank, lat.torsion()])
    lifts = [["word", list(lift.letters)] if isinstance(lift, Word)
             else list(lift) for lift in lv.lifts]
    return [[_terms(e.terms.items()) for e in lv.vectors], lifts, blocks,
            lv.rank, list(lv.torsion)]


def digests():
    levels = []
    for g, kmax in BUILDS:
        m = SurfaceModel(g)
        for ideal in (m.symplectic_ideal(), m.handlebody_ideal()):
            levels.append([_level(ideal.level(k)) for k in range(1, kmax + 1)])
    memo = []
    for (u, v), entry in lie._bracket_memo.items():
        it = iter(entry)
        memo.append([tree_to_str(u), tree_to_str(v), _terms(zip(it, it))])
    return {"levels": _sha(levels), "memo": _sha(memo),
            "memo_entries": len(memo)}


def lagrangian_digest():
    """The digest of `scan_family(3, 3)`'s Hermite rows; any process."""
    return _sha([lag.rows for lag in scan_family(3, 3)])


if __name__ == "__main__":
    print(json.dumps(dict(digests(), lagrangians=lagrangian_digest()),
                     sort_keys=True))
