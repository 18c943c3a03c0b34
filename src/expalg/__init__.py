"""Symbolic and certified-numeric analysis of real exponential-algebraic sets.

The package works with functions f(x) = P(x1..xn, e^x1..e^xn) for a
polynomial P over Q: exact polynomial and exponential-polynomial arithmetic,
the candidate family of rational hyperplanes through the origin determined
by the u-monomials of P, symbolic certification of hyperplane components,
classification drivers (conditional on Schanuel's conjecture in the
multi-exponential case, unconditional for a single exponential), and
certified interval numerics for roots, zero cells and graph transversality.
"""

from .classify import (
    ComponentReport,
    IrredVerdict,
    classify_codim1,
    classify_single_exp,
    irreducibility_oracle,
)
from .epoly import EPoly
from .errors import (
    DimensionError,
    DriverError,
    ExpalgError,
    HyperplaneError,
    HypothesisViolation,
    InternalInvariantError,
    ParseError,
)
from .factor import factor_univariate
from .hyperplanes import Hyperplane, candidate_hyperplanes, primitive_normalize
from .intervals import Interval
from .numeric import (
    RootCert,
    TransversalityReport,
    check_transversality,
    interval_eval,
    isolate_roots_1d,
    sample_zero_cells_2d,
)
from .parsing import (
    format_epoly,
    format_hyperplane,
    format_poly,
    parse_epoly,
    parse_poly,
)
from .poly import Poly, Rat

__version__ = "0.1.0"

__all__ = [
    "ComponentReport",
    "DimensionError",
    "DriverError",
    "EPoly",
    "ExpalgError",
    "Hyperplane",
    "HyperplaneError",
    "HypothesisViolation",
    "InternalInvariantError",
    "Interval",
    "IrredVerdict",
    "ParseError",
    "Poly",
    "Rat",
    "RootCert",
    "TransversalityReport",
    "candidate_hyperplanes",
    "check_transversality",
    "classify_codim1",
    "classify_single_exp",
    "factor_univariate",
    "format_epoly",
    "format_hyperplane",
    "format_poly",
    "interval_eval",
    "irreducibility_oracle",
    "isolate_roots_1d",
    "parse_epoly",
    "parse_poly",
    "primitive_normalize",
    "sample_zero_cells_2d",
    "__version__",
]
