"""Closed forms of the extremal problem, kept as test oracles.

The plain problem on {1..n} and {n-1, n} and the weighted problem on
{0..n} and {n-1, n} have explicit solutions in Chebyshev polynomials of
both kinds.  ``solve`` never reaches them: the tests compare its general
dual pipeline against these formulas.

The formulas are evaluated in monomial coefficients with numpy's
``Polynomial``, independently of the library's Chebyshev series, and each
member is handed back as a library ``Polynomial`` through ``poly2cheb``
(``to_library``).  Tests compare coefficients through ``monomial``.

The phase index has two oracles here: ``threshold_index`` finds it for
full sets by signs of Chebyshev U values, and ``reference_phase_index``
for any set from a 60-digit run of the dual recurrence.  ``solve`` reads
it off its own dual weights instead.

``critical_points_by_chebadd`` is the reference for the library's
``critical_points``: it builds the squared sum one ``chebadd`` per member.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import numpy.polynomial.chebyshev as cheb

from chebextremal.canonical import CanonicalMomentSeq, reflected
from chebextremal.errors import InvalidInputError
from chebextremal.polynomials import Polynomial
from chebextremal.solver import (
    KIND_FIRST,
    KIND_SECOND,
    MAX_DEGREE,
    ExtremalSolution,
    ProblemSpec,
    _lift,
    active_set,
    alpha_weights,
    dual_moments,
)


#: monomial polynomials of the test oracle
Monomial = np.polynomial.Polynomial

#: strict-positivity threshold for the phase-index test
THRESHOLD_EPS = 1e-12


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


def threshold_index(n: int, b: float, kind: str) -> int:
    """Phase index k: smallest start of an all-positive run of U values.

    first kind:  k = min{ j in 1..n   : U_{2n-2i+1}(b/2) > eps for i = j..n }
    second kind: k = min{ j in 1..n+1 : U_{2n-2i+3}(b/2) > eps for i = j..n+1 }

    Strict positivity is implemented as "> 1e-12"; at an exact structural
    threshold both adjacent phases produce the same solution, so the side
    chosen there is observationally irrelevant.  Raises
    ``InvalidInputError`` for any (n, b, kind) that ``ProblemSpec`` rejects.
    """
    spec = ProblemSpec(kind, (n,), b)
    n, t = spec.n, spec.b / 2.0
    if kind == KIND_FIRST:
        i_range = range(1, n + 1)
        deg = lambda i: 2 * n - 2 * i + 1
    else:
        i_range = range(1, n + 2)
        deg = lambda i: 2 * n - 2 * i + 3
    k = max(i_range)
    # conditions nest: the run for j contains the run for j+1, so scan down
    for i in reversed(i_range):
        if chebyshev_u_value(deg(i), t) > THRESHOLD_EPS:
            k = i
        else:
            break
    return k


def reference_phase_index(spec: ProblemSpec, dps: int = 60) -> int:
    """Phase index from a ``dps``-digit run of the dual recurrence.

    The recurrence is ``dual_moments``'s on the problem that ``solve``
    runs: the first kind on I itself, or on I + 1 for the second kind.  The
    phase index is that problem's lowest index m with p_{2m} > 1/2, the
    lowest with a positive dual weight.  At this precision no entry below
    the top rounds to 1.
    """
    lifted, _ = _lift(spec)
    n, members = lifted.n, set(lifted.indices)
    with mpmath.workdps(dps):
        b, half = mpmath.mpf(lifted.b), mpmath.mpf(0.5)
        p = {n: mpmath.mpf(1)}
        tail = mpmath.mpf(1)  # running product of q_{2i} p_{2i} over i = m+1 .. n-1
        for m in range(n - 1, 0, -1):
            p[m] = max(1 - b ** (-2 * (n - m)) / tail, half) if m in members else half
            tail *= (1 - p[m]) * p[m]
    return next(m for m in lifted.indices if p[m] > half)


def _positive_leading(p: Polynomial) -> Polynomial:
    """``p`` or ``-p``, whichever has a nonnegative leading coefficient."""
    return -p if p.leading < 0.0 else p


def monomial(p: Polynomial, length: int | None = None) -> np.ndarray:
    """Ascending monomial coefficients of a library polynomial.

    The Chebyshev series sum_k c_k T_k(x/b) has x^k coefficient
    cheb2poly(c)[k] / b^k.  With ``length`` the result is zero-padded to
    that many entries.
    """
    c = cheb.cheb2poly(p.coeffs) / p.b ** np.arange(len(p.coeffs)) if p.coeffs else np.zeros(0)
    return c if length is None else np.pad(c, (0, length - len(c)))


def to_library(q: Monomial, b: float) -> Polynomial:
    """The library polynomial on [-b, b] equal to the monomial q(x)."""
    return Polynomial(tuple(cheb.poly2cheb(q.coef * b ** np.arange(len(q.coef)))), b)


def stretched(q: Monomial, s: float) -> Monomial:
    """x -> q(x/s)."""
    return Monomial(q.coef / s ** np.arange(len(q.coef)))


def critical_points_by_chebadd(polys, b: float, weighted: bool = False) -> np.ndarray:
    """``critical_points`` of valid arguments, summing squares with ``chebadd``.

    ``chebadd`` trims the trailing zeros of every partial sum, so the sum
    here is never longer than its last nonzero coefficient.
    """
    g = np.zeros(1)
    for p in polys:
        if not p.is_zero:
            g = cheb.chebadd(g, cheb.chebmul(p.coeffs, p.coeffs))
    if weighted:
        g = cheb.chebmul(g, [0.5 * b * b, 0.0, -0.5 * b * b])
    dg = cheb.chebder(g)
    dg = cheb.chebtrim(dg, np.finfo(float).eps * np.abs(dg).max())
    critical = np.clip(b * cheb.chebroots(dg).real, -b, b)
    return np.concatenate(([-b, b], critical))


def chebyshev_t(n: int) -> Monomial:
    """Chebyshev polynomial of the first kind T_n on [-1, 1].

    Built from T_0 = 1, T_1 = x, T_{k+1} = 2x T_k - T_{k-1}.  For an
    interval [-b, b] compose with x/b via ``stretched(chebyshev_t(n), b)``.
    """
    _check_degree(n)
    if n == 0:
        return Monomial([1.0])
    prev, cur = Monomial([1.0]), Monomial([0.0, 1.0])
    two_x = Monomial([0.0, 2.0])
    for _ in range(n - 1):
        prev, cur = cur, two_x * cur - prev
    return cur


def chebyshev_u(n: int) -> Monomial:
    """Chebyshev polynomial of the second kind U_n on [-1, 1]."""
    _check_degree(n)
    if n == 0:
        return Monomial([1.0])
    prev, cur = Monomial([1.0]), Monomial([0.0, 2.0])
    two_x = Monomial([0.0, 2.0])
    for _ in range(n - 1):
        prev, cur = cur, two_x * cur - prev
    return cur


def _check_degree(n: int) -> None:
    if n < 0:
        raise InvalidInputError(f"degree must be nonnegative, got {n}")
    if n > MAX_DEGREE:
        raise InvalidInputError(f"degree {n} exceeds the cap {MAX_DEGREE}")


def _u_poly(m: int) -> Monomial:
    """U_m, honoring U_{-1} = 0 and U_{-2} = -1."""
    if m == -1:
        return Monomial([0.0])
    if m == -2:
        return Monomial([-1.0])
    return chebyshev_u(m)


def closed_form_first_full(n: int, b: float) -> ExtremalSolution:
    """Closed form for the unweighted problem on I = {1..n}.

    With phase index k, the polynomials of degree l < k vanish and

        P_l = beta_l [ T_k(x/b) U_{l-k}(x/2)
                       - (U_{n-k+1}(b/2) / U_{n-k}(b/2)) T_{k-1}(x/b) U_{l-1-k}(x/2) ]

        beta_l = sqrt(b U_{2n-2l+1}(b/2)) / U_{n-k+1}(b/2)

    for l = k..n.  The optimum is (2^{2k-2} / b^{2k-1}) U_{n-k}(b/2) / U_{n-k+1}(b/2).
    """
    ProblemSpec(KIND_FIRST, range(1, n + 1), b)  # validates n and b
    k = threshold_index(n, b, KIND_FIRST)
    t = b / 2.0
    u = lambda m: chebyshev_u_value(m, t)
    ratio = u(n - k + 1) / u(n - k)

    t_k = stretched(chebyshev_t(k), b)
    t_km1 = stretched(chebyshev_t(k - 1), b)
    polys: dict[int, Polynomial] = {}
    alphas: dict[int, float] = {}
    denom = u(n - k) * u(n - k + 1)
    for l in range(1, n + 1):
        if l <= k - 1:
            polys[l] = Polynomial.zero(b)
            alphas[l] = 0.0
            continue
        beta = math.sqrt(b * u(2 * n - 2 * l + 1)) / u(n - k + 1)
        shape = t_k * stretched(_u_poly(l - k), 2.0) - ratio * (
            t_km1 * stretched(_u_poly(l - 1 - k), 2.0)
        )
        polys[l] = _positive_leading(to_library(beta * shape, b))
        alphas[l] = u(2 * n - 2 * l + 1) / denom
    objective = 2.0 ** (2 * k - 2) / b ** (2 * k - 1) * u(n - k) / u(n - k + 1)

    # dual moments straight from the phase formula: p_{2j} = U_{n-j+1} / (b U_{n-j})
    p = [0.5] * (2 * n)
    for j in range(k, n + 1):
        p[2 * j - 1] = u(n - j + 1) / (b * u(n - j))
    p[2 * n - 1] = 1.0
    return ExtremalSolution(
        polys=polys,
        alphas=alphas,
        objective=objective,
        dual_moments=CanonicalMomentSeq(b=b, p=tuple(p)),
        active_set=tuple(range(k, n + 1)),
        phase_index=k,
    )


def closed_form_first_pair(n: int, b: float) -> ExtremalSolution:
    """Closed form for the unweighted problem on I = {n-1, n}.

    Below b = sqrt(2) the rescaled first-kind Chebyshev polynomial alone is
    optimal; above it both members are nonzero and the optimum drops to
    2^{2n-4} b^{-(2n-4)} / (b^2 - 1).  The branches agree at sqrt(2).
    """
    ProblemSpec(KIND_FIRST, (n - 1, n), b)  # validates n and b
    two_regime = chebyshev_u_value(3, b / 2.0) > THRESHOLD_EPS  # b > sqrt(2)
    p = [0.5] * (2 * n)
    p[2 * n - 1] = 1.0
    if not two_regime:
        polys = {n - 1: Polynomial.zero(b), n: to_library(stretched(chebyshev_t(n), b), b)}
        alphas = {n - 1: 0.0, n: 1.0}
        objective = 2.0 ** (2 * n - 2) / b ** (2 * n)
        active: tuple[int, ...] = (n,)
        phase = n
    else:
        b2 = b * b
        p_n1 = (b * math.sqrt(b2 - 2.0) / (b2 - 1.0)) * stretched(chebyshev_t(n - 1), b)
        p_n = (1.0 / (2.0 * (b2 - 1.0))) * (
            b2 * stretched(chebyshev_t(n), b) - (b2 - 2.0) * stretched(chebyshev_t(n - 2), b)
        )
        polys = {
            n - 1: _positive_leading(to_library(p_n1, b)),
            n: _positive_leading(to_library(p_n, b)),
        }
        alphas = {n - 1: (b2 - 2.0) / (b2 - 1.0), n: 1.0 / (b2 - 1.0)}
        objective = 2.0 ** (2 * n - 4) * b ** (-(2 * n - 4)) / (b2 - 1.0)
        p[2 * n - 3] = 1.0 - 1.0 / b2
        active = (n - 1, n)
        phase = n - 1
    return ExtremalSolution(
        polys=polys,
        alphas=alphas,
        objective=objective,
        dual_moments=CanonicalMomentSeq(b=b, p=tuple(p)),
        active_set=active,
        phase_index=phase,
    )


def closed_form_second_full(n: int, b: float) -> ExtremalSolution:
    """Closed form for the weighted problem on I = {0..n}.

    With phase index k (in 1..n+1), degrees l < k-1 vanish and

        P_l = beta_l [ U_{k-1}(x/b) U_{l-k+1}(x/2)
                       - (U_{n-k+2}(b/2) / U_{n-k+1}(b/2)) U_{k-2}(x/b) U_{l-k}(x/2) ]

        beta_l = sqrt(U_{2n-2l+1}(b/2)) / (sqrt(b) U_{n-k+2}(b/2))

    for l = k-1..n, with optimum (2^{2k-2} / b^{2k-1}) U_{n-k+1}(b/2) / U_{n-k+2}(b/2).
    For b <= sqrt(2) this collapses to the single rescaled second-kind
    Chebyshev polynomial U_n(x/b) / b.
    """
    ProblemSpec(KIND_SECOND, range(0, n + 1), b)  # validates n and b
    k = threshold_index(n, b, KIND_SECOND)
    t = b / 2.0
    u = lambda m: chebyshev_u_value(m, t)
    ratio = u(n - k + 2) / u(n - k + 1)

    u_kb = stretched(_u_poly(k - 1), b)
    u_km2b = stretched(_u_poly(k - 2), b)
    polys: dict[int, Polynomial] = {}
    for l in range(0, n + 1):
        if l <= k - 2:
            polys[l] = Polynomial.zero(b)
            continue
        beta = math.sqrt(u(2 * n - 2 * l + 1)) / (math.sqrt(b) * u(n - k + 2))
        shape = u_kb * stretched(_u_poly(l - k + 1), 2.0) - ratio * (
            u_km2b * stretched(_u_poly(l - k), 2.0)
        )
        polys[l] = _positive_leading(to_library(beta * shape, b))
    objective = 2.0 ** (2 * k - 2) / b ** (2 * k - 1) * u(n - k + 1) / u(n - k + 2)

    lifted, _ = _lift(ProblemSpec(KIND_SECOND, range(0, n + 1), b))
    cm_lift = dual_moments(lifted)
    alphas_lift = alpha_weights(cm_lift, n + 1)
    act_lift = active_set(cm_lift, lifted)
    return ExtremalSolution(
        polys=polys,
        alphas={l: alphas_lift[l] for l in range(0, n + 1)},
        objective=objective,
        dual_moments=reflected(cm_lift),
        active_set=tuple(j - 1 for j in act_lift),
        phase_index=k,
    )


def closed_form_second_pair(n: int, b: float) -> ExtremalSolution:
    """Closed form for the weighted problem on I = {n-1, n}.

    For b <= sqrt(2) the solution is (0, U_n(x/b)/b) with optimum
    2^{2n} b^{-(2n+2)} (the squared leading coefficient of U_n(x/b)/b);
    above sqrt(2) both members are nonzero with optimum
    (2/b)^{2(n-1)} / (b^2 - 1).  The branches agree at sqrt(2).
    """
    ProblemSpec(KIND_SECOND, (n - 1, n), b)  # validates n and b
    two_regime = chebyshev_u_value(3, b / 2.0) > THRESHOLD_EPS  # b > sqrt(2)
    if not two_regime:
        polys = {
            n - 1: Polynomial.zero(b),
            n: to_library((1.0 / b) * stretched(chebyshev_u(n), b), b),
        }
        objective = 2.0 ** (2 * n) / b ** (2 * n + 2)
        phase = n + 1
    else:
        b2 = b * b
        p_n1 = (math.sqrt(b2 - 2.0) / (b2 - 1.0)) * stretched(chebyshev_u(n - 1), b)
        p_n = (b / (2.0 * (b2 - 1.0))) * (
            stretched(chebyshev_u(n), b)
            - ((b2 - 2.0) / b2) * stretched(_u_poly(n - 2), b)
        )
        polys = {
            n - 1: _positive_leading(to_library(p_n1, b)),
            n: _positive_leading(to_library(p_n, b)),
        }
        objective = (2.0 / b) ** (2 * (n - 1)) / (b2 - 1.0)
        phase = n

    lifted, _ = _lift(ProblemSpec(KIND_SECOND, (n - 1, n), b))
    cm_lift = dual_moments(lifted)
    alphas_lift = alpha_weights(cm_lift, n + 1)
    act_lift = active_set(cm_lift, lifted)
    return ExtremalSolution(
        polys=polys,
        alphas={n - 1: alphas_lift[n - 1], n: alphas_lift[n]},
        objective=objective,
        dual_moments=reflected(cm_lift),
        active_set=tuple(j - 1 for j in act_lift),
        phase_index=phase,
    )
