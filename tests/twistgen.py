"""Test-only Dehn twists as free-group automorphisms fixing the boundary word.

The twist about a_i sends b_i to b_i a_i and fixes every other generator;
its inverse sends b_i to b_i a_i^-1.  Either fixes [a_i, b_i] =
a_i b_i a_i^-1 b_i^-1 letter for letter, so either fixes r0.

The twist about the separating curve gamma_h = [a1,b1]...[ah,bh], which
cuts off the first h handles, conjugates a_i and b_i (i <= h) by gamma_h
and fixes every other generator (Morita, Topology 28, 1989).  It fixes
gamma_h, a product of the letters it conjugates, so it fixes r0.
"""

from braidgen import Braid
from lietau.johnson import MappingClassData
from lietau.words import GroupEndomorphism, Word, commutator


def twist_a(model, i):
    """The twist about a_i (1-based) with its inverse, checked to compose to
    the identity in both orders."""
    a, name = model.a(i), model.alphabet.names[model.genus + i - 1]

    def twist(tail):
        return MappingClassData(model, GroupEndomorphism.from_dict(
            model.alphabet, {name: model.b(i) * tail}))

    fwd, bwd = twist(a), twist(~a)
    ident = GroupEndomorphism.identity(model.alphabet)
    assert fwd.compose(bwd).endo == ident and bwd.compose(fwd).endo == ident
    return Braid(fwd, bwd)


def homology_matrix(f):
    """M[j][m]: the exponent sum of generator j in f's image of generator m,
    the matrix of f on H_1 in the generator basis."""
    sums = [img.exponent_sums() for img in f.endo.images]
    return [list(row) for row in zip(*sums)]


def separating_twist(model, h):
    """The twist about gamma_h, for 1 <= h <= genus; h = genus is the
    boundary twist."""
    gamma = Word(model.alphabet)
    for i in range(1, h + 1):
        gamma = gamma * commutator(model.a(i), model.b(i))
    names, g = model.alphabet.names, model.genus
    images = {}
    for i in range(1, h + 1):
        images[names[i - 1]] = gamma * model.a(i) * ~gamma
        images[names[g + i - 1]] = gamma * model.b(i) * ~gamma
    return MappingClassData(model, GroupEndomorphism.from_dict(
        model.alphabet, images))
