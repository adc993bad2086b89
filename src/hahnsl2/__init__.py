"""Exact-arithmetic toolkit for U(sl2), the universal Hahn algebra, and the
Terwilliger algebras of hypercubes and halved hypercubes.

Everything runs over exact rationals: PBW normal forms, free-algebra ideal
membership certificates, module decompositions and matrix-algebra closures.
"""

from .linalg import (
    EchelonBasis,
    Rational,
    SparseMatrix,
    eigenspace,
    kernel_basis,
    rational_eigenvalues,
    rref,
    span_closure,
)
from .usl2 import (
    USL2Element,
    casimir,
    commutator,
    degree_components,
    is_even,
    multiply,
    power_identity_suite,
    rho,
    ue_basis_decompose,
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
    build_L0,
    build_L1,
    classify_ue_irreducible,
    evaluate,
    is_irreducible,
    restrict_even,
    signature,
    verify_pullback_splitting,
)
from .terwilliger import (
    CubeContext,
    HalvedContext,
    adjacency,
    cube_rho,
    decompose_halved,
    decompose_standard,
    dual_adjacency,
    halved_operators,
    te_dimension,
    te_dimension_formula,
)

__version__ = "0.1.0"

__all__ = [
    "EchelonBasis",
    "Rational",
    "SparseMatrix",
    "eigenspace",
    "kernel_basis",
    "rational_eigenvalues",
    "rref",
    "span_closure",
    "USL2Element",
    "casimir",
    "commutator",
    "degree_components",
    "is_even",
    "multiply",
    "power_identity_suite",
    "rho",
    "ue_basis_decompose",
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
    "build_L0",
    "build_L1",
    "classify_ue_irreducible",
    "evaluate",
    "is_irreducible",
    "restrict_even",
    "signature",
    "verify_pullback_splitting",
    "CubeContext",
    "HalvedContext",
    "adjacency",
    "cube_rho",
    "decompose_halved",
    "decompose_standard",
    "dual_adjacency",
    "halved_operators",
    "te_dimension",
    "te_dimension_formula",
]
