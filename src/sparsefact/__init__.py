"""Deterministic factorization of sparse multivariate polynomials over
finite fields, with a Newton-polytope engine for factor-sparsity analytics."""

from .field import make_field, FieldCtx, FieldElem
from .sparsepoly import (SparsePoly, Factorization, parse_poly, format_poly,
                         make_monic, sparse_divide, phi_score,
                         restrict_to_line, normalize_scalar)
from .polytope import (in_hull, support_of, newton_vertices, minkowski_sum,
                       sparsity_cap, caratheodory_check, hadamard_example)
from .hitting import HittingSet, gen_hitting_set
from .unifactor import UniPoly, UniFactorization, factor_univariate, \
    squarefree_decompose, is_irreducible
from .resultant import (sylvester_matrix, resultant_univariate,
                        resultant_at_point)
from .factorizer import factor, factor_monic, verify_factorization

__all__ = [
    "make_field", "FieldCtx", "FieldElem",
    "SparsePoly", "Factorization", "parse_poly", "format_poly",
    "make_monic", "sparse_divide", "phi_score", "restrict_to_line",
    "normalize_scalar",
    "in_hull", "support_of", "newton_vertices", "minkowski_sum",
    "sparsity_cap", "caratheodory_check", "hadamard_example",
    "HittingSet", "gen_hitting_set",
    "UniPoly", "UniFactorization", "factor_univariate",
    "squarefree_decompose", "is_irreducible",
    "sylvester_matrix", "resultant_univariate", "resultant_at_point",
    "factor", "factor_monic", "verify_factorization",
]
