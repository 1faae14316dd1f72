"""Exact computation in free Lie rings, Johnson homomorphisms, and
handlebody extension obstructions for surface mapping classes."""

from .errors import (DepthTooShallowError, DimensionMismatchError,
                     GenusTooLargeError, InternalFault, LietauError,
                     NotDirectSummandError, NotIsotropicError,
                     PreconditionError, RelationViolatedError,
                     UnexpectedTorsionError, UnknownGeneratorError,
                     WeightTooLowError)
from .words import (Alphabet, GroupEndomorphism, Word, commutator,
                    surface_alphabet, word_from_str, word_to_str)
from .hall import (HallTree, hall_basis, is_basic, mobius, tree_from_str,
                   tree_to_str, witt)
from .lie import LieElement, bracket, lift_word, substitute, tree_to_lie
from .magnus import (MagnusSeries, induced_lie_map, lie_class_at, magnus,
                     weight_of)
from .ideals import GradedIdeal, QuotientClass
from .surface import SurfaceModel, b_only_part, handlebody_class, surface_class
from .symplectic import (Lagrangian, adapt_symplectic_basis,
                         eigen_pm1_condition, gram_matrix,
                         invariant_lagrangian_report,
                         invariant_lagrangian_search, is_invariant,
                         is_symplectic, omega)
from .johnson import (DEFAULT_CAP, HomValue, MappingClassData, TauValue,
                      boundary_twist, braid_automorphism, eta, eta_inverse,
                      identity_mapping_class, johnson_depth, jprime_depth,
                      point_push_tau, push_tuple_of, sigma, tau, tau1)
from .obstruction import (GradedDecomposition, ScanReport,
                          coordinate_lagrangians, grade_decompose,
                          obstruction_vanishes, robustness_scan, scan_family,
                          value_obstruction_vanishes)
from .region import (RegionCell, purebraid_rank, region_holds, region_rhs,
                     region_table, tau2_image_dims)

__all__ = [name for name in dir() if not name.startswith("_")]
