"""Polynomials as Chebyshev series on [-b, b] and exact sup norms.

A polynomial on [-b, b] is stored by its coefficients in the Chebyshev
basis of that interval, T_k(x/b).  Those coefficients are bounded by twice
the polynomial's sup norm on [-b, b] (Trefethen, *Approximation Theory and
Approximation Practice*, ch. 3), so the solver's three-term recurrence,
squaring, summing and evaluation (Clenshaw) run without cancellation at
every degree.

The sup of a (weighted) sum of squares over [-b, b], with b read off the
family, whose members must share it, is exact up to rounding: the sum is
formed as a Chebyshev series in x/b, the roots of its derivative are
colleague-matrix eigenvalues, and the family is evaluated at those
critical points and at the endpoints in one Clenshaw pass.  An even sum,
as every solved family gives, is a polynomial in T_2(x/b), whose
derivative has half the degree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.polynomial.chebyshev as cheb

from .errors import InvalidInputError


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial on [-b, b] as the Chebyshev series sum_k c_k T_k(x/b).

    ``coeffs[k]`` is c_k; trailing zeros are trimmed on construction so the
    top coefficient of a nonzero polynomial is nonzero.  The zero
    polynomial is the empty tuple and has ``degree`` ``None``; it is a
    first-class value because optimal families routinely contain vanishing
    members.  Keeping the same coefficients and doubling ``b`` gives
    x -> p(x/2).
    """

    coeffs: tuple[float, ...]
    b: float

    def __post_init__(self):
        if not self.b > 0.0:
            raise InvalidInputError(f"half-width must be positive, got {self.b}")
        c = tuple(float(v) for v in self.coeffs)
        while c and c[-1] == 0.0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "b", float(self.b))

    @classmethod
    def zero(cls, b: float) -> "Polynomial":
        return cls((), b)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int | None:
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def leading(self) -> float:
        """Coefficient of x**degree, c_d 2^(d-1) / b^d; 0 for the zero polynomial."""
        if not self.coeffs:
            return 0.0
        d = len(self.coeffs) - 1
        return self.coeffs[-1] * 2.0 ** (d - 1) / self.b**d if d else self.coeffs[0]

    def __call__(self, x):
        """Evaluate by Clenshaw's recurrence; accepts scalars or numpy arrays."""
        if not self.coeffs:
            return x * 0.0
        return cheb.chebval(x / self.b, self.coeffs)

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs), self.b)

    def __mul__(self, scalar: float) -> "Polynomial":
        return Polynomial(tuple(float(scalar) * c for c in self.coeffs), self.b)

    __rmul__ = __mul__


@dataclass(frozen=True)
class SupNormReport:
    """Result of maximizing a (weighted) sum of squares over [-b, b]."""

    sup: float
    argmax: float


def _interval(polys: list[Polynomial]) -> float:
    """The half-width b of a nonempty family whose members share one [-b, b]."""
    widths = {p.b for p in polys}
    if len(widths) != 1:
        raise InvalidInputError(f"family must be nonempty, on one interval: {sorted(widths)}")
    return widths.pop()


def sum_squares(polys, x, *, weighted: bool = False) -> np.ndarray:
    """sum_j P_j(x)^2 at the points x, times (b^2 - x^2) when ``weighted``.

    All members, on the family's [-b, b], are evaluated in one Clenshaw
    pass over their coefficients stacked column by column into a
    zero-padded matrix.  The recurrence passes leading zeros through
    exactly, so each member's values are the same doubles as its own call
    gives, and the squares are summed in member order.
    """
    polys = list(polys)
    b = _interval(polys)
    stacked = np.zeros((max([1] + [len(p.coeffs) for p in polys]), len(polys)))
    for col, p in enumerate(polys):
        stacked[: len(p.coeffs), col] = p.coeffs
    values = sum(row**2 for row in cheb.chebval(x / b, stacked))
    if weighted:
        values = values * (b * b - x * x)
    return values


def _squared_sum(polys, weighted: bool) -> tuple[float, np.ndarray]:
    """The family's half-width b and its (weighted) sum of squares g in x/b."""
    b = _interval(polys)
    live = [p for p in polys if not p.is_zero]
    maxdeg = max((p.degree for p in live), default=0)
    # zeros at the top of g (a square whose top coefficient underflows) are
    # trimmed off g' in ``_stationary``
    g = np.zeros(2 * maxdeg + 1)
    for p in live:
        square = cheb.chebmul(p.coeffs, p.coeffs)
        g[: len(square)] += square
    if weighted:
        g = cheb.chebmul(g, [0.5 * b * b, 0.0, -0.5 * b * b])
    return b, g


def _stationary(g: np.ndarray) -> np.ndarray:
    """Real parts of every root of the Chebyshev series g', ascending."""
    # trailing terms below rounding of g' would blow up the colleague matrix
    dg = cheb.chebder(g)
    dg = cheb.chebtrim(dg, np.finfo(float).eps * np.abs(dg).max())
    return cheb.chebroots(dg).real


def _critical(b: float, g: np.ndarray) -> np.ndarray:
    """-b, b and the stationary points of g on [-b, b], in x."""
    return np.concatenate(([-b, b], np.clip(b * _stationary(g), -b, b)))


def critical_points(polys, *, weighted: bool = False) -> np.ndarray:
    """Endpoints of [-b, b] and the critical points of the (weighted) sum of squares.

    The squared sum g is formed from the members' own Chebyshev series in
    x/b (weight included); the critical points are the real parts of every
    root of g', clipped to [-b, b].  Complex roots are not discarded: where
    g is nearly flat, rounding moves real critical points off the axis.
    ``polys`` must be nonempty, every member on one [-b, b], which sets b;
    zero members are allowed.  ``weighted`` takes g = (b^2 - x^2) sum P_j^2.
    """
    return _critical(*_squared_sum(list(polys), weighted))


def sup_sum_squares(polys, *, weighted: bool = False) -> SupNormReport:
    """Maximize sum(P_j(x)^2), optionally times (b^2 - x^2), over [-b, b].

    The squared sum g is formed as in ``critical_points`` (which validates
    the family and reads b off it).  Where every odd coefficient of g is
    exactly 0, as on a family whose members each have the parity of their
    degree, g(x) = h(T_2(x/b)) with h = g[::2].  Then g' = 4 (x/b) h'(T_2(x/b))
    and the critical points are x = 0 and +-b sqrt((1 + v)/2) for the real
    part v of every root of h', clipped to [-1, 1]: an eigenproblem of half
    the size.  The test is for exact zeros, with no tolerance.  Any other g
    takes the points of ``critical_points``.  Either way the family is
    evaluated there by ``sum_squares``, at -b, b, then the other points
    ascending, so ``sup`` is the family's value at ``argmax`` and a tie
    between x and -x reports -x.
    """
    polys = list(polys)
    b, g = _squared_sum(polys, weighted)
    if g[1::2].any():
        xs = _critical(b, g)
    else:
        half = b * np.sqrt((1.0 + np.clip(_stationary(g[::2]), -1.0, 1.0)) / 2.0)
        xs = np.concatenate(([-b, b], -half[::-1], [0.0], half))
    values = sum_squares(polys, xs, weighted=weighted)
    i_best = int(np.argmax(values))
    return SupNormReport(sup=float(values[i_best]), argmax=float(xs[i_best]))
