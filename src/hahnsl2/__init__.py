"""Exact-arithmetic toolkit for U(sl2), the universal Hahn algebra, and the
Terwilliger algebras of hypercubes and halved hypercubes.

Everything runs over exact rationals: PBW normal forms, free-algebra ideal
membership certificates, module decompositions and matrix-algebra closures.
"""

from .linalg import (
    EchelonBasis,
    SparseMatrix,
    commutator,
    kernel_basis,
    rref,
)
from .usl2 import (
    USL2Element,
    casimir,
    degree_components,
    is_even,
    multiply,
    power_identity_suite,
    rho,
    verify_ue_presentation,
)
from .freealg import FreePoly, MembershipCertificate, fmultiply, ideal_membership, substitute
from .hahn import natural, presentation, tilde_rho
from .reps import (
    IsoSignature,
    ModuleLabel,
    SL2Rep,
    UeRep,
    build_L,
    classify_ue_irreducible,
    evaluate,
    is_irreducible,
    restrict_even,
    verify_ladder_modules,
)
from .terwilliger import (
    CubeAlgebra,
    decompose_halved,
    decompose_standard,
    te_dimension,
    te_dimension_formula,
)

__version__ = "0.1.0"

__all__ = [
    "EchelonBasis",
    "SparseMatrix",
    "commutator",
    "kernel_basis",
    "rref",
    "USL2Element",
    "casimir",
    "degree_components",
    "is_even",
    "multiply",
    "power_identity_suite",
    "rho",
    "verify_ue_presentation",
    "FreePoly",
    "MembershipCertificate",
    "fmultiply",
    "ideal_membership",
    "substitute",
    "natural",
    "presentation",
    "tilde_rho",
    "IsoSignature",
    "ModuleLabel",
    "SL2Rep",
    "UeRep",
    "build_L",
    "classify_ue_irreducible",
    "evaluate",
    "is_irreducible",
    "restrict_even",
    "verify_ladder_modules",
    "CubeAlgebra",
    "decompose_halved",
    "decompose_standard",
    "te_dimension",
    "te_dimension_formula",
]
