"""Test-only generators of binary trees and small pseudo-random free Lie
elements."""

from lietau.hall import HallTree, hall_basis
from lietau.lie import LieElement


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
