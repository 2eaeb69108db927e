"""Exact decision and construction of invariant non-degenerate bilinear
forms for linear maps over Q and prime fields, with the companion
analyses: infinitesimal invariance, reality in the general linear group,
orthogonal decomposition under unipotent isometries, and level bounds.
"""

from .canonical import (ElementaryDivisor, IndecomposableSummand,
                        ModuleStructure, elementary_divisors,
                        indecomposable_decomposition, invariant_factors,
                        min_poly, smith_normal_form)
from .certificates import (INFINITESIMAL, INVARIANT, SKEW, SYMMETRIC,
                           FormCertificate, make_certificate, symmetry_of,
                           verify_gram)
from .construction import (construct_infinitesimal_form,
                           construct_invariant_form, convert_symmetry,
                           hyperbolic_pairing, self_dual_block_form,
                           skew_symmetric_converter, unipotent_block_form)
from .decision import (DecisionReport, ObstructionRecord, RealityReport,
                       decide_infinitesimal_form, decide_invariant_form,
                       decide_real)
from .fields import PrimeField, QQ, RationalField
from .isometry import (LevelReport, OrthogonalSummandReport, level_analysis,
                       orthogonal_decomposition, witt_index)
from .linalg import Matrix, char_poly
from .oracle import InvariantFormSpace, find_nondegenerate, solve_form_space
from .poly import (Factorization, Poly, additive_dual_poly, dual_poly, factor,
                   is_self_dual, poly_gcd, substitute_x_plus_inverse,
                   substitute_x_squared)

__version__ = "0.1.0"
