"""Canonical moment sequences and the machinery hanging off them.

A probability measure on [-b, b] is described here by its canonical moments
p_1, p_2, ... in [0, 1].  An entry equal to 0 or 1 terminates the sequence
(the underlying continued fraction stops and the measure has finite
support).  From the zeta transform

    zeta_1 = p_1,    zeta_j = (1 - p_{j-1}) p_j   (j >= 2)

the monic orthogonal polynomials follow a three-term recurrence whose
coefficients also assemble the symmetric tridiagonal (Jacobi) matrix used
to recover support points and weights of a terminating measure, and to
modify the measure by the weight b^2 - x^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.polynomial.chebyshev as cheb

from .errors import InsufficientDataError, InvalidInputError
from .polynomials import Polynomial


@dataclass(frozen=True)
class CanonicalMomentSeq:
    """Canonical moments p_1..p_L of a measure on [-b, b].

    Any entry in {0, 1} must be the last one: beyond it the continued
    fraction terminates and further canonical moments are undefined.
    """

    b: float
    p: tuple[float, ...]

    def __post_init__(self):
        if not self.b > 0.0:
            raise InvalidInputError(f"half-width must be positive, got {self.b}")
        p = tuple(float(v) for v in self.p)
        for k, v in enumerate(p):
            if not 0.0 <= v <= 1.0:
                raise InvalidInputError(f"canonical moment p_{k + 1}={v} outside [0, 1]")
            if v in (0.0, 1.0) and k != len(p) - 1:
                raise InvalidInputError(
                    f"p_{k + 1}={v} terminates the sequence but is not the last entry"
                )
        object.__setattr__(self, "p", p)

    @property
    def terminating(self) -> bool:
        return bool(self.p) and self.p[-1] in (0.0, 1.0)


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely supported probability measure: increasing points, positive weights."""

    points: tuple[float, ...]
    weights: tuple[float, ...]


def zetas(cm: CanonicalMomentSeq) -> tuple[float, ...]:
    """Zeta transform of the sequence, same length as ``cm.p``."""
    return tuple(_zetas_padded(cm, len(cm.p)))


def _zetas_padded(cm: CanonicalMomentSeq, length: int) -> list[float]:
    """Zetas up to ``length`` entries, zero past a terminating index."""
    p = cm.p
    out = []
    for j in range(1, length + 1):
        if j > len(p):
            out.append(0.0)
        elif j == 1:
            out.append(p[0])
        else:
            out.append((1.0 - p[j - 2]) * p[j - 1])
    return out


def _require_moments(cm: CanonicalMomentSeq, needed: int, what: str) -> None:
    if len(cm.p) < needed and not cm.terminating:
        raise InsufficientDataError(
            f"{what} needs p_1..p_{needed} but only {len(cm.p)} canonical "
            "moments are available and the sequence does not terminate"
        )


def monic_orthopolys(cm: CanonicalMomentSeq, n: int) -> list[Polynomial]:
    """Monic orthogonal polynomials P_0..P_n of the measure behind ``cm``.

    They follow the recurrence of ``jacobi_coefficients`` (the
    continued-fraction denominators).  Zeta entries past a terminating
    index are taken as 0, which stops the recurrence consistently with the
    terminating continued fraction.
    """
    if n < 0:
        raise InvalidInputError(f"n must be nonnegative, got {n}")
    if n >= 1:
        _require_moments(cm, 2 * n - 1, f"P_{n}")
    return monic_from_recurrence(*jacobi_coefficients(cm, n), cm.b)


def monic_from_recurrence(diag, squares, b: float) -> list[Polynomial]:
    """Monic P_0..P_m from P_{j+1} = (x - a_j) P_j - beta_j^2 P_{j-1}.

    ``diag`` holds the m entries a_0..a_{m-1}, ``squares`` the m - 1
    entries beta_1^2..beta_{m-1}^2, as ``jacobi_coefficients`` and
    ``weighted_recurrence`` return them.  The recurrence runs on Chebyshev
    series in x/b, where multiplying by x is b times ``chebmulx``.
    """
    out = [np.ones(1)]
    for j, a in enumerate(diag):
        nxt = b * cheb.chebmulx(out[j])
        nxt[: j + 1] -= a * out[j]
        if j:
            nxt[:j] -= squares[j - 1] * out[j - 1]
        out.append(nxt)
    return [Polynomial(tuple(c), b) for c in out]


def weighted_recurrence(diag, squares, b: float):
    """Recurrence of (b^2 - x^2) d(mu) from the Jacobi matrix of mu.

    ``diag`` and ``squares`` are the N x N Jacobi matrix J of a measure mu
    on (-b, b) symmetric about 0, as ``jacobi_coefficients`` returns it:
    ``diag`` must be exact zeros, as on every dual measure of the solver,
    or ``InvalidInputError`` is raised.  Two Christoffel steps by Cholesky
    (Gautschi, *Orthogonal Polynomials*, 2004, sec. 2.4; Galant 1971):
    bI - J = L L' makes bI - L'L the Jacobi matrix of (b - x) d(mu), and
    that plus bI = L2 L2' makes L2'L2 - bI the one of (b^2 - x^2) d(mu).
    Returns its leading N - 1 diagonal and N - 2 squared off-diagonal
    entries, in the same form: the recurrence of the monic polynomials of
    degree 0..N - 1.  Both factors are positive definite while mu's support
    is interior, and with at most 31 rows a dense Cholesky costs nothing.
    (b^2 - x^2) d(mu) is symmetric too, so the diagonal returned is exact
    zeros, not the Cholesky factors' rounding: each monic polynomial has
    the parity of its degree.
    """
    if any(diag):
        raise InvalidInputError("the weighted recurrence needs a zero diagonal")
    off = np.sqrt(squares)
    eye = b * np.eye(len(diag))
    low = np.linalg.cholesky(eye - (np.diag(off, 1) + np.diag(off, -1)))
    low2 = np.linalg.cholesky((eye - low.T @ low) + eye)
    jac = low2.T @ low2 - eye
    return np.zeros(len(diag))[:-1], np.diag(jac, 1)[:-1] ** 2


def l2_norms(cm: CanonicalMomentSeq, n: int) -> list[float]:
    """Squared L2 norms k_1..k_n, k_j = integral of P_j^2 d(xi).

    k_j = (2b)^{2j} * prod_{i=1}^{j} zeta_{2i-1} zeta_{2i}; it is positive
    exactly when all zetas through index 2j are, which is the membership
    test for measures whose top-degree norm has not collapsed.
    """
    if n < 1:
        raise InvalidInputError(f"n must be at least 1, got {n}")
    _require_moments(cm, 2 * n, f"k_{n}")
    z = _zetas_padded(cm, 2 * n)
    out = []
    acc = 1.0
    for j in range(1, n + 1):
        acc *= z[2 * j - 2] * z[2 * j - 1]
        out.append((2.0 * cm.b) ** (2 * j) * acc)
    return out


def jacobi_coefficients(cm: CanonicalMomentSeq, size: int):
    """Diagonal a_0..a_{size-1} and squared off-diagonal beta_1^2..beta_{size-1}^2.

    These are the recurrence coefficients written as
    P_{j+1} = (x - a_j) P_j - beta_j^2 P_{j-1}, so
    a_j = b (2 zeta_{2j} + 2 zeta_{2j+1} - 1) with zeta_0 = 0, and
    beta_j^2 = (2b)^2 zeta_{2j-1} zeta_{2j}.
    """
    z = [0.0] + _zetas_padded(cm, 2 * size - 1)  # z[j] = zeta_j
    b = cm.b
    diag = [b * (2.0 * z[2 * j] + 2.0 * z[2 * j + 1] - 1.0) for j in range(size)]
    squares = [(2.0 * b) ** 2 * z[2 * j - 1] * z[2 * j] for j in range(1, size)]
    return diag, squares


def support_measure(cm: CanonicalMomentSeq) -> DiscreteMeasure:
    """Support points and weights of a terminating canonical moment sequence.

    Requires an even-length sequence ending in 0 or 1.  Ending in 1 at index
    2n gives n+1 support points (endpoints included); ending in 0 at index
    2n gives n interior points.  Points are the eigenvalues of the symmetric
    tridiagonal Jacobi matrix (at most 31 rows, so numpy's dense ``eigh``
    of it costs no more than a tridiagonal solver), weights the squared
    first components of its unit eigenvectors.

    A solution's measure is computed once, as ``ExtremalSolution.support``,
    which ``verify_solution`` and ``duality_certificate`` both read.
    """
    if not cm.terminating:
        raise InvalidInputError("support recovery needs a terminating sequence")
    length = len(cm.p)
    if length % 2 != 0:
        raise InvalidInputError(
            f"terminating sequence must have even length, got {length}"
        )
    size = length // 2 + 1 if cm.p[-1] == 1.0 else length // 2
    diag, squares = jacobi_coefficients(cm, size)
    off = np.sqrt(squares)
    vals, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    weights = vecs[0, :] ** 2
    return DiscreteMeasure(points=tuple(float(v) for v in vals),
                           weights=tuple(float(w) for w in weights))


def reflected(cm: CanonicalMomentSeq) -> CanonicalMomentSeq:
    """Entrywise reflection p_j -> 1 - p_j (an involution).

    For the terminating dual sequences produced by the solver, reflection
    maps the measure carrying the unweighted problem's attainment points to
    the one carrying the (b^2 - x^2)-weighted problem's attainment points,
    one degree down.  Their entries lie in [1/2, 1], where 1 - p is exact
    (Sterbenz), so reflecting them twice gives back the same doubles:
    ``family_norms`` reflects a second-kind solution's moments back to the
    lift's own.
    """
    return CanonicalMomentSeq(b=cm.b, p=tuple(1.0 - v for v in cm.p))
