"""Exact computation in free Lie rings, Johnson homomorphisms, and
handlebody extension obstructions for surface mapping classes.

The public names below are imported from their modules on first access
(PEP 562), so ``import lietau`` loads no submodule and a caller pays only
for the layers it reads; ``from lietau import X`` works as for any package.
"""

import sys as _sys
from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

_EXPORTS = {
    "errors": (
        "DepthTooShallowError", "DimensionMismatchError",
        "GenusTooLargeError", "InternalFault", "LietauError",
        "NotDirectSummandError", "NotIsotropicError", "PreconditionError",
        "RelationViolatedError", "UnexpectedTorsionError",
        "UnknownGeneratorError", "WeightTooLowError"),
    "words": (
        "Alphabet", "GroupEndomorphism", "Word", "commutator",
        "surface_alphabet", "word_from_str", "word_to_str"),
    "hall": (
        "HallTree", "hall_basis", "is_basic", "mobius", "tree_from_str",
        "tree_to_str", "witt"),
    "lie": ("LieElement", "bracket", "lift_word", "substitute", "tree_to_lie"),
    "magnus": (
        "MagnusSeries", "induced_lie_map", "lie_class_at", "magnus",
        "weight_of"),
    "ideals": ("GradedIdeal", "QuotientClass"),
    "surface": (
        "SurfaceModel", "b_only_part", "handlebody_class", "surface_class"),
    "symplectic": (
        "Lagrangian", "adapt_symplectic_basis", "eigen_pm1_condition",
        "gram_matrix", "invariant_lagrangian_report",
        "invariant_lagrangian_search", "is_invariant", "is_symplectic",
        "omega"),
    "johnson": (
        "DEFAULT_CAP", "MappingClassData", "TauValue",
        "boundary_twist", "braid_automorphism", "eta", "eta_inverse",
        "identity_mapping_class", "johnson_depth", "jprime_depth",
        "point_push_tau", "push_tuple_of", "sigma", "tau", "tau1"),
    "obstruction": (
        "GradedDecomposition", "ScanReport", "coordinate_lagrangians",
        "grade_decompose", "obstruction_vanishes", "robustness_scan",
        "scan_family", "value_obstruction_vanishes"),
    "region": (
        "RegionCell", "purebraid_rank", "region_holds", "region_rhs",
        "region_table", "tau2_image_dims"),
}

# public name -> the module that defines it
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}
_SUBMODULES = {*_EXPORTS, "intlinalg"}

__all__ = sorted(_MODULE_OF.keys() | _SUBMODULES)


def __getattr__(name):
    if name in _MODULE_OF:
        value = getattr(_import_module("." + _MODULE_OF[name], __name__), name)
    elif name in _SUBMODULES:
        value = _import_module("." + name, __name__)
    else:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | set(__all__))


class _Package(_ModuleType):
    """Keeps ``lietau.magnus`` the function `magnus.magnus`.

    The import system binds each submodule it loads as an attribute of the
    package, and the submodule `magnus` would shadow the public function
    of the same name whenever another layer happened to import it first.
    """

    def __setattr__(self, name, value):
        if not (name in _MODULE_OF and isinstance(value, _ModuleType)):
            super().__setattr__(name, value)


_sys.modules[__name__].__class__ = _Package
