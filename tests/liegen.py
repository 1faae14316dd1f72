"""Test-only generator of small pseudo-random free Lie elements."""

from lietau.hall import hall_basis
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
