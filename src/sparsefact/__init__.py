"""Deterministic factorization of sparse multivariate polynomials over
finite fields, with a Newton-polytope engine for factor-sparsity analytics.

Start-up: importing the package loads none of its engines.  A name is
imported from its home module on first use (PEP 562), so `make_field`
loads only `field` and `errors`, and each CLI subcommand loads only the
engine it runs.  Without a bytecode cache, compiling those modules is
the start-up cost.
"""

import importlib

# each exported name under its home module; __all__ and the lookup on
# first use both read this table
_HOMES = {
    "field": ("make_field", "FieldCtx", "FieldElem"),
    "sparsepoly": ("SparsePoly", "Factorization", "parse_poly", "format_poly",
                   "make_monic", "sparse_divide", "phi_score",
                   "restrict_to_line", "normalize_scalar"),
    "polytope": ("in_hull", "support_of", "newton_vertices", "minkowski_sum",
                 "sparsity_cap", "caratheodory_check", "hadamard_example"),
    "hitting": ("HittingSet", "gen_hitting_set"),
    "unifactor": ("UniPoly", "UniFactorization", "factor_univariate",
                  "squarefree_decompose", "is_irreducible"),
    "resultant": ("sylvester_matrix", "resultant_univariate",
                  "resultant_at_point"),
    "factorizer": ("factor", "factor_monic", "verify_factorization"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
# the modules reachable as sparsefact.<module> without importing them first
_SUBMODULES = frozenset(_HOMES) | {"errors", "bifactor"}

__all__ = list(_HOME)


def __getattr__(name):
    # called only for a name not (yet) in the package globals
    if name in _SUBMODULES:
        return importlib.import_module("." + name, __name__)
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    value = getattr(importlib.import_module("." + _HOME[name], __name__),
                    name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _SUBMODULES | set(__all__))
