"""Dense real polynomials, Chebyshev U values, and sup norms.

Polynomials are stored as ascending monomial coefficients at double
precision.  Degrees are capped at 30 so that squared sums (degree up to 60,
62 with the endpoint weight) stay acceptably conditioned in the monomial
basis for |x| <= 10.

The sup of a (weighted) sum of squares over [-b, b] is exact up to
rounding: the sum is converted to a Chebyshev series in x/b, the roots of
its derivative are found as colleague-matrix eigenvalues, and the family
is evaluated at those critical points and at the endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.polynomial.chebyshev as cheb

from .errors import DegreeLimitError, InvalidInputError

MAX_DEGREE = 30


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial with ascending monomial coefficients.

    ``coeffs[i]`` multiplies ``x**i``; trailing zeros are trimmed on
    construction so the leading coefficient of a nonzero polynomial is
    nonzero.  The zero polynomial is the empty tuple and has ``degree``
    ``None``; it is a first-class value because optimal families routinely
    contain vanishing members.
    """

    coeffs: tuple[float, ...] = ()

    def __post_init__(self):
        c = tuple(float(v) for v in self.coeffs)
        while c and c[-1] == 0.0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int | None:
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def leading(self) -> float:
        """Leading coefficient; 0 for the zero polynomial."""
        return self.coeffs[-1] if self.coeffs else 0.0

    def coeff(self, i: int) -> float:
        """Coefficient of ``x**i`` (0 beyond the degree)."""
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0.0

    def __call__(self, x):
        """Evaluate by Horner's scheme; accepts scalars or numpy arrays."""
        result = x * 0.0
        for c in reversed(self.coeffs):
            result = result * x + c
        return result

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        summed = list(a)
        for i, v in enumerate(b):
            summed[i] += v
        return Polynomial(tuple(summed))

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if self.is_zero or other.is_zero:
                return Polynomial.zero()
            prod = np.convolve(np.asarray(self.coeffs), np.asarray(other.coeffs))
            return Polynomial(tuple(prod))
        return Polynomial(tuple(float(other) * c for c in self.coeffs))

    __rmul__ = __mul__

    def stretch(self, s: float) -> "Polynomial":
        """Compose with ``x -> x/s``: the result evaluates self(x/s)."""
        if s == 0:
            raise InvalidInputError("stretch factor must be nonzero")
        return Polynomial(tuple(c / s**i for i, c in enumerate(self.coeffs)))


@dataclass(frozen=True)
class SupNormReport:
    """Result of maximizing a (weighted) sum of squares over [-b, b]."""

    sup: float
    argmax: float


def chebyshev_u_value(n: int, t: float) -> float:
    """U_n(t) by forward recurrence, with U_{-1} = 0 and U_{-2} = -1."""
    if n == -1:
        return 0.0
    if n == -2:
        return -1.0
    if n < -2:
        raise InvalidInputError(f"U_n undefined for n={n}")
    prev, cur = 1.0, 2.0 * t
    if n == 0:
        return prev
    for _ in range(n - 1):
        prev, cur = cur, 2.0 * t * cur - prev
    return cur


def sup_sum_squares(polys, b: float, weighted: bool = False) -> SupNormReport:
    """Maximize sum(P_j(x)^2), optionally times (b^2 - x^2), over [-b, b].

    The squared sum g is formed as a Chebyshev series in x/b (weight
    included) and its maximum is taken over the endpoints and the real
    parts of every root of g', clipped to [-b, b].  Complex roots are not
    discarded: where g is nearly flat, rounding moves real critical points
    off the axis.  Candidates are evaluated with the Horner
    ``Polynomial.__call__``, so ``sup`` is the family's value at ``argmax``.

    Parameters
    ----------
    polys : iterable of Polynomial
        The family whose squared sum is bounded.  Must be nonempty; zero
        polynomials are allowed.
    b : float
        Interval half-width, in (0, 10].
    weighted : bool
        When set, maximize (b^2 - x^2) * sum(P_j^2) instead.
    """
    polys = list(polys)
    if not polys:
        raise InvalidInputError("polynomial list must be nonempty")
    if not 0.0 < b <= 10.0:
        raise InvalidInputError(f"half-width must lie in (0, 10], got {b}")
    live = [p for p in polys if not p.is_zero]
    maxdeg = max((p.degree for p in live), default=0)
    if maxdeg > MAX_DEGREE:
        raise DegreeLimitError(
            f"polynomial degree {maxdeg} exceeds the cap {MAX_DEGREE}"
        )

    g = np.zeros(1)
    for p in live:
        c = cheb.poly2cheb(np.asarray(p.coeffs) * b ** np.arange(len(p.coeffs)))
        g = cheb.chebadd(g, cheb.chebmul(c, c))
    if weighted:
        g = cheb.chebmul(g, [0.5 * b * b, 0.0, -0.5 * b * b])
    # trailing terms below rounding of g' would blow up the colleague matrix
    dg = cheb.chebder(g)
    dg = cheb.chebtrim(dg, np.finfo(float).eps * np.abs(dg).max())
    critical = np.clip(b * cheb.chebroots(dg).real, -b, b)

    xs = np.concatenate(([-b, b], critical))
    values = sum(p(xs) ** 2 for p in polys)
    if weighted:
        values = values * (b * b - xs * xs)
    i_best = int(np.argmax(values))
    return SupNormReport(sup=float(values[i_best]), argmax=float(xs[i_best]))
