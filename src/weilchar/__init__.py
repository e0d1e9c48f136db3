"""Weil representation of the metaplectic group over odd prime fields.

The package builds the representation three ways and checks them against
each other: explicit operator matrices in a lattice model (`schrodinger`),
a closed character formula from the displacement form (`charformula`), and
a Lagrangian-indexed factor built from polygon Maslov indices (`maslov`,
`metaplectic`).  `verify` bundles the cross-checks; `cli` exposes them.
"""

from .characters import AdditiveCharacter, approx_eq
from .charformula import (
    CheckReport,
    DiagonalForm,
    check_inverse_identity,
    check_kernel_dims,
    check_maslov_class,
    check_transfer_isometry,
    diagonal_form,
    trace_closed_form,
    trace_from_factor,
)
from .errors import (
    ArityError,
    DimensionMismatch,
    EnumerationTooLarge,
    SingularGMinusOne,
    ZeroFormClass,
)
from .field import Fp, FpMatrix, RowSolver, SquareClass, Subspace
from .maslov import (
    Orientation,
    edge_factors,
    lagrangian_intersections,
    maslov_form,
    maslov_gamma,
    maslov_invariants,
    orientation_pairing,
    orientation_pairings,
    predicted_rank_discs,
)
from .metaplectic import (
    MpElement,
    character_factor,
    character_factor_doubled,
    character_factor_table,
    embed_doubled,
    mp_cocycle,
    mp_cocycles,
    mp_identity,
    mp_products,
    split_lift,
    split_lifts,
    split_value,
    split_values,
)
from .quadform import (
    BRUTE_CAP,
    QuadraticSpace,
    WittInvariants,
    weil_index,
    weil_index_bruteforce,
    witt_invariants,
)
from .schrodinger import (
    check_diagonal_kernel,
    intertwiner,
    trace_oracle,
    weil_operator,
)
from .symplectic import (
    Lagrangian,
    SpElement,
    SymplecticSpace,
    diagonal_lagrangian,
    displacement_disc,
    kernel_of_displacement,
    standard_gram,
)

__version__ = "0.1.0"

__all__ = [
    "AdditiveCharacter",
    "ArityError",
    "BRUTE_CAP",
    "CheckReport",
    "DiagonalForm",
    "DimensionMismatch",
    "EnumerationTooLarge",
    "Fp",
    "FpMatrix",
    "Lagrangian",
    "MpElement",
    "Orientation",
    "QuadraticSpace",
    "RowSolver",
    "SingularGMinusOne",
    "SpElement",
    "SquareClass",
    "Subspace",
    "SymplecticSpace",
    "WittInvariants",
    "ZeroFormClass",
    "approx_eq",
    "character_factor",
    "character_factor_doubled",
    "character_factor_table",
    "check_diagonal_kernel",
    "check_inverse_identity",
    "check_kernel_dims",
    "check_maslov_class",
    "check_transfer_isometry",
    "diagonal_form",
    "diagonal_lagrangian",
    "displacement_disc",
    "edge_factors",
    "embed_doubled",
    "intertwiner",
    "kernel_of_displacement",
    "lagrangian_intersections",
    "maslov_form",
    "maslov_gamma",
    "maslov_invariants",
    "mp_cocycle",
    "mp_cocycles",
    "mp_identity",
    "mp_products",
    "orientation_pairing",
    "orientation_pairings",
    "predicted_rank_discs",
    "split_lift",
    "split_lifts",
    "split_value",
    "split_values",
    "standard_gram",
    "trace_closed_form",
    "trace_from_factor",
    "trace_oracle",
    "weil_index",
    "weil_index_bruteforce",
    "weil_operator",
    "witt_invariants",
]
