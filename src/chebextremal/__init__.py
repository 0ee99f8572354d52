"""Extremal polynomial families with maximal squared leading coefficients.

Solves, by a dual canonical-moment construction, the problem of maximizing
the sum of squared leading coefficients of a family of polynomials with
prescribed degrees, subject to a sup-norm bound on the (optionally
endpoint-weighted) sum of their squares over [-b, b].  Ships an independent
oracle, which brackets the optimum from the duality by a master LP, and
duality-certificate checks.
"""

from .canonical import (
    CanonicalMomentSeq,
    DiscreteMeasure,
    jacobi_coefficients,
    l2_norms,
    monic_orthopolys,
    reflected,
    support_measure,
    zetas,
)
from .errors import DegreeLimitError, InsufficientDataError, InvalidInputError
from .oracle import (
    CertificateReport,
    OracleBracket,
    duality_certificate,
    oracle_bracket,
)
from .polynomials import Polynomial, SupNormReport, sup_sum_squares
from .solver import (
    ExtremalSolution,
    ProblemSpec,
    VerificationReport,
    active_set,
    alpha_weights,
    dual_moments,
    solve,
    verify_solution,
)

__version__ = "0.1.0"

__all__ = [
    "CanonicalMomentSeq",
    "CertificateReport",
    "DegreeLimitError",
    "DiscreteMeasure",
    "ExtremalSolution",
    "InsufficientDataError",
    "InvalidInputError",
    "OracleBracket",
    "Polynomial",
    "ProblemSpec",
    "SupNormReport",
    "VerificationReport",
    "active_set",
    "alpha_weights",
    "dual_moments",
    "duality_certificate",
    "jacobi_coefficients",
    "l2_norms",
    "monic_orthopolys",
    "oracle_bracket",
    "reflected",
    "solve",
    "sup_sum_squares",
    "support_measure",
    "verify_solution",
    "zetas",
]
