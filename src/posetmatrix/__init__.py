"""Finite posets as Boolean lower-triangular matrices.

A poset on {0..n-1} whose order refines the integer order is the same
thing as a unit lower-triangular Boolean matrix that is idempotent over
the (or, and) semiring.  This package validates such matrices, embeds
them into binary Pascal matrices by index vectors, classifies them up to
isomorphism, walks domination-preserving rewrite orbits, takes duals,
and counts antichains/order ideals of the Pascal posets themselves.

Importing the package loads none of its modules: each public name is
imported from its module on first access, so a `pm` command compiles
only the layers it runs.
"""

from importlib import import_module
from operator import index

__version__ = "0.1.0"

# Defined here, not in domination and enumeration, so that `pm orbit --help` and the side check of
# `pm enumerate --emit counts` run without loading the search.
DEFAULT_ORBIT_BUDGET = 10**6
MAX_CLASS_SIDE = 9


def _check_size(n: int, top: int, what: str) -> int:
    """n as an int in [0, top]; what operator.index refuses (a float, a str, None) raises ValueError too.

    The one range check on sizes and exponents; it lives here so that a counts cache hit checks its side
    without loading a layer.
    """
    try:
        size = index(n)
    except TypeError:
        size = None
    if size is None or not 0 <= size <= top:
        raise ValueError(f"{what} in [0, {top}], got {n!r}")
    return size


_EXPORTS = {
    "bmatrix": (
        "BoolMatrix",
        "NotSquareError",
        "Permutation",
        "bool_mul",
        "flip_transpose",
        "format_index_vector",
        "identity",
        "is_idempotent",
        "parse_index_vector",
        "permute",
        "permute_similar",
    ),
    "domination": (
        "NotChangeableError",
        "OrbitResult",
        "changeable_entries",
        "domination_orbit",
        "domination_relations",
        "flip_entry",
        "incidence_matrix",
        "index_of",
        "reduce_to_poset_matrix",
    ),
    "enumeration": (
        "ClassReport",
        "canonical_form",
        "canonical_labelling",
        "classify_index_vectors",
        "count_isomorphism_classes",
        "count_poset_matrices",
        "dual_class_check",
        "enumerate_poset_matrices",
        "pascal_class",
    ),
    "ideals": (
        "antichain_table",
        "antichain_to_ideal",
        "count_fixed_points",
        "count_ideals",
        "dedekind",
        "ideal_to_antichain",
        "identity_antichain_check",
        "is_antichain",
        "is_fixed_point",
        "is_ideal",
        "iter_ideals",
        "principal_ideal",
    ),
    "pascal": (
        "check_index_vector",
        "induced_submatrix",
        "lucas_entry",
        "pascal_matrix",
        "support",
        "support_poset_matrix",
    ),
    "posetcore": (
        "NotTransitiveError",
        "NotUnitLowerTriangularError",
        "PosetMatrix",
        "PosetValidationError",
        "dual",
        "dual_index",
        "embed",
        "even_odd_moves",
        "is_self_dual_index",
        "realize",
        "validate",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """A public name, imported from its module on first access and kept in the package namespace."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _MODULE_OF.keys())
