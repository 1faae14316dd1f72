"""Test-only generators of binary trees and small pseudo-random free Lie
elements, and a second route from associative components to Hall
coordinates."""

from lietau.hall import HallTree, basis_block, hall_basis
from lietau.intlinalg import IntLattice
from lietau.lie import LieElement, expand_associative


def random_like(weight, n, rng, coeff_range=(-3, 3)):
    """Small pseudo-random element; deterministic given the rng."""
    basis = hall_basis(weight, n)
    tm = {}
    for t in basis:
        c = rng.randint(*coeff_range)
        if c:
            tm[t] = c
    return LieElement(weight, tm)


def enumerate_trees(k, n):
    """Every binary tree of weight k on n letters (not only basic ones)."""
    if k == 1:
        return [HallTree.make_leaf(i) for i in range(n)]
    out = []
    for w1 in range(1, k):
        for u in enumerate_trees(w1, n):
            for v in enumerate_trees(k - w1, n):
                out.append(HallTree.make_node(u, v))
    return out


def block_lattice_solve(component, k, n):
    """Hall coordinates of a degree-k component over n letters by exact
    membership, or None outside the Lie span.

    Monomials split into blocks by multidegree; each block's basic
    commutators (`basis_block`) have their expansions in a tracked
    `IntLattice`, and the block's part of the component is solved as an
    integer combination of them (`member_combo`).
    """
    blocks = {}
    for m, c in component.items():
        if c:
            blocks.setdefault(tuple(sorted(m)), {})[m] = c
    terms = {}  # blocks hold disjoint trees
    for sig, target in blocks.items():
        trees = basis_block(k, n, sig)
        cols = {}
        for t in trees:
            for m in expand_associative(t):
                cols.setdefault(m, len(cols))
        if any(m not in cols for m in target):
            return None
        lat = IntLattice(len(cols), track=True)
        for i, t in enumerate(trees):
            lat.add({cols[m]: c for m, c in expand_associative(t).items()}, i)
        combo = lat.member_combo({cols[m]: c for m, c in target.items()})
        if combo is None:
            return None
        terms.update((trees[i], c) for i, c in combo.items())
    return LieElement(k, terms)
