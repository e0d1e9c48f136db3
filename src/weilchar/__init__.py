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
    MaslovClass,
    Orientation,
    edge_factor,
    maslov_class,
    maslov_form,
    maslov_gamma,
    orientation_pairing,
    predicted_rank_disc,
)
from .metaplectic import (
    MpElement,
    character_factor,
    character_factor_doubled,
    character_factors,
    embed_doubled,
    mp_cocycle,
    mp_cocycles,
    mp_identity,
    split_lift,
    split_value,
    split_values,
)
from .quadform import (
    BRUTE_CAP,
    QuadraticSpace,
    WittInvariants,
    hyperbolic_plane,
    weil_index,
    weil_index_bruteforce,
    witt_invariants,
)
from .schrodinger import (
    SectionBasis,
    check_diagonal_kernel,
    intertwiner,
    kernel_value,
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
    "MaslovClass",
    "MpElement",
    "Orientation",
    "QuadraticSpace",
    "RowSolver",
    "SectionBasis",
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
    "character_factors",
    "check_diagonal_kernel",
    "check_inverse_identity",
    "check_kernel_dims",
    "check_maslov_class",
    "check_transfer_isometry",
    "diagonal_form",
    "diagonal_lagrangian",
    "displacement_disc",
    "edge_factor",
    "embed_doubled",
    "hyperbolic_plane",
    "intertwiner",
    "kernel_of_displacement",
    "kernel_value",
    "maslov_class",
    "maslov_form",
    "maslov_gamma",
    "mp_cocycle",
    "mp_cocycles",
    "mp_identity",
    "orientation_pairing",
    "predicted_rank_disc",
    "split_lift",
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
