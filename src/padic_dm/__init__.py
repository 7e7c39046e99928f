"""Exact computation of radii of convergence for differential modules
over concrete non-archimedean fields, and their radius decompositions."""

from .errors import (AllZero, CertificateFailure, FieldMismatch,
                     IntegrabilityError, IterationBudget, NoGap, NotExpandable,
                     NotMonic, OutputError, PadicDMError, ParseError,
                     PrecisionLoss, SearchExhausted, StabilityFailure,
                     ZeroDegree, ZeroPolynomial)
from .logval import INF, LogVal
from .scalarfield import FieldSpec, Scalar
from .precision import (ApproxDomain, ApproxScalar, ExactDomain, PrecisionCtx,
                        reduce_scalar)
from .twisted import (NewtonPolygon, TwistedPoly, check_condition_c,
                      divmod_left, divmod_right, monicize, mul, mul_relation,
                      newton_polygon, pi_norm)
from .diffmod import (DiffModule, ModuleMorphism, RadiusEstimate,
                      cyclic_data, direct_sum, dual, from_operator,
                      iterate_G, spectral_radius_bruteforce)
from .radii import (MultiRadiusProfile, RadiusProfile, RationalityReport,
                    check_profile, check_rationality, profile,
                    radii_from_polygon)
from .factorize import (Certificate, Component, Decomposition,
                        SlopeFactorization, decompose, factor_by_radii,
                        multi_decompose, reduce_operator, slope_factorize)
from .taylor import (TruncSeries, biduality_transform, dual_pairing,
                     hadamard_radius, solution_matrix, taylor_map)
from .grammar import matrix_str, parse_matrix, parse_operator, parse_scalar

__all__ = [
    "AllZero", "ApproxDomain", "ApproxScalar", "Certificate",
    "CertificateFailure", "Component", "Decomposition", "DiffModule",
    "ExactDomain", "FieldMismatch", "FieldSpec", "INF",
    "IntegrabilityError",
    "IterationBudget", "LogVal", "ModuleMorphism", "MultiRadiusProfile",
    "NewtonPolygon", "NoGap", "NotExpandable", "NotMonic", "OutputError",
    "PadicDMError",
    "ParseError", "PrecisionCtx",
    "PrecisionLoss", "RadiusEstimate", "RadiusProfile", "RationalityReport",
    "Scalar", "SearchExhausted", "SlopeFactorization", "StabilityFailure",
    "TruncSeries", "TwistedPoly", "ZeroDegree", "ZeroPolynomial",
    "biduality_transform", "check_condition_c",
    "check_profile", "check_rationality", "cyclic_data", "decompose",
    "direct_sum", "divmod_left", "divmod_right", "dual",
    "dual_pairing", "factor_by_radii", "from_operator", "hadamard_radius",
    "iterate_G", "matrix_str", "monicize", "mul", "mul_relation",
    "multi_decompose", "newton_polygon", "parse_matrix",
    "parse_operator", "parse_scalar", "pi_norm", "profile",
    "radii_from_polygon", "reduce_operator", "reduce_scalar",
    "slope_factorize", "solution_matrix", "spectral_radius_bruteforce",
    "taylor_map",
]
