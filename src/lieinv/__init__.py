"""Exact invariants of finite-dimensional Lie algebras.

The package computes generalized Casimir invariants with the moving-frames
construction (inner automorphism matrix, lifted invariants, normalization)
and verifies them independently through the coadjoint PDE system and
degree-bounded centrality in the enveloping algebra.
"""

from .expr import (
    EXPR_ONE,
    EXPR_ZERO,
    Expr,
    KernelError,
    SingularPoint,
    atan_of,
    coord,
    coord_atom,
    cos_of,
    differentiate,
    evaluate,
    exp_of,
    log_of,
    param,
    param_atom,
    pow_rational,
    rational,
    sin_of,
    substitute,
    theta,
    theta_atom,
)
from .algebra import (
    LieAlgebra,
    StructureError,
    center,
    is_nilpotent,
    is_solvable,
    jacobi_defects,
    lie_algebra,
    num_invariants,
    rank_coadjoint,
    validate,
)
from .frame import (
    MovingFrame,
    RecipeNeeded,
    exp_ad,
    jacobian_rank,
    lifted_invariants,
)
from .normalize import (
    EliminationResult,
    eliminate,
    functionally_equivalent,
    rescale_to_polynomial,
)
from .verify import (
    InvariantCheck,
    NCPoly,
    check_all,
    check_invariant,
    is_central,
    pbw_normal_form,
    symmetrize,
)
from .families import (
    FamilyInstance,
    b_coefficients,
    builtin_instances,
    make_g6_38,
    make_jordan,
    make_s1,
    make_s2,
    make_s3,
    make_s4,
    make_t0,
    polynomial_basis_predicate,
)
