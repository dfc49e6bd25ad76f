"""Exact lex Groebner bases of zero-dimensional trivariate ideals over F_p,
with generators for test instances and a verifier for the structural
divisibility and specialization properties of such bases."""

from .field import PrimeField
from .poly import (
    Monomial,
    Polynomial,
    ZeroPolynomialError,
    parse_polynomial,
    poly_from_dict,
)
from .groebner import (
    GroebnerBasis,
    buchberger,
    elimination_basis,
    is_groebner_basis,
    normal_form,
    quotient_dimension,
    s_polynomial,
    standard_monomials,
    structure_facts,
)
from .instances import (
    Instance,
    InstanceRecipe,
    PointSet,
    build_instance,
    random_points,
    random_triangular_basis,
    squared_vanishing_basis,
    vanishing_basis,
)
from .report import CheckReport
from .checks import all_ok, verify_all
from .specialize import NonSplitError, roots_univariate, solve_system
from .campaign import CampaignConfig, run_campaign

__version__ = "0.1.0"

__all__ = [
    "CampaignConfig",
    "CheckReport",
    "GroebnerBasis",
    "Instance",
    "InstanceRecipe",
    "Monomial",
    "NonSplitError",
    "PointSet",
    "Polynomial",
    "PrimeField",
    "ZeroPolynomialError",
    "all_ok",
    "buchberger",
    "build_instance",
    "elimination_basis",
    "is_groebner_basis",
    "normal_form",
    "parse_polynomial",
    "poly_from_dict",
    "quotient_dimension",
    "random_points",
    "random_triangular_basis",
    "roots_univariate",
    "run_campaign",
    "s_polynomial",
    "solve_system",
    "squared_vanishing_basis",
    "standard_monomials",
    "structure_facts",
    "vanishing_basis",
    "verify_all",
]
