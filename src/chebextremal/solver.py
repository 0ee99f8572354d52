"""Solvers for the extremal problems and verification of their output.

Two problem kinds are supported on an index set I of prescribed degrees
with n = max(I):

* ``first``: maximize sum of squared leading coefficients subject to
  sup_{[-b,b]} sum_j P_j(x)^2 <= 1.  Solved for arbitrary I by a dual
  canonical-moment construction, plus closed forms for I = {1..n} and
  I = {n-1, n}.
* ``second``: the (b^2 - x^2)-weighted variant on I subset of {0..n}.
  Closed forms for I = {0..n} and I = {n-1, n}; no general solver (the
  dual construction is only available for the first kind).

The optimum of the first kind equals 1/k_n(xi*) where xi* minimizes, over
probability measures on [-b, b], the largest reciprocal squared norm of
its monic orthogonal polynomials across I.  The solution family is
sqrt(alpha_j / k_j(xi*)) P_j(x, xi*) with convex weights alpha supported
on the indices attaining the minimal norm.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

from .canonical import (
    CanonicalMomentSeq,
    l2_norms,
    monic_orthopolys,
    reflected,
    support_measure,
)
from .errors import InvalidInputError
from .polynomials import (
    MAX_DEGREE,
    Polynomial,
    SupNormReport,
    chebyshev_t,
    chebyshev_u,
    chebyshev_u_value,
    sup_sum_squares,
)

KIND_FIRST = "first"
KIND_SECOND = "second"

#: strict-positivity threshold for the phase-index test
THRESHOLD_EPS = 1e-12

#: relative tolerance for detecting indices of minimal squared norm
ACTIVE_SET_RTOL = 1e-9

FEASIBILITY_TOL = 1e-8
ATTAINMENT_TOL = 1e-8
EQUIMAX_TOL = 1e-9
DUALITY_TOL = 1e-9
OBJECTIVE_CONSISTENCY_RTOL = 1e-12


@dataclass(frozen=True)
class ProblemSpec:
    """Problem statement: kind, prescribed degrees, interval half-width."""

    kind: str
    indices: tuple[int, ...]
    b: float

    def __post_init__(self):
        if self.kind not in (KIND_FIRST, KIND_SECOND):
            raise InvalidInputError(f"kind must be 'first' or 'second', got {self.kind!r}")
        raw = tuple(self.indices)
        ints = tuple(int(i) for i in raw)
        if ints != raw:
            raise InvalidInputError(f"indices must be integers, got {raw}")
        idx = tuple(sorted(set(ints)))
        if not idx:
            raise InvalidInputError("index set must be nonempty")
        low = 1 if self.kind == KIND_FIRST else 0
        if idx[0] < low:
            raise InvalidInputError(
                f"{self.kind}-kind indices must be >= {low}, got {idx[0]}"
            )
        # the second kind solves through the first kind on I + 1
        cap = MAX_DEGREE if self.kind == KIND_FIRST else MAX_DEGREE - 1
        if idx[-1] > cap:
            raise InvalidInputError(
                f"{self.kind}-kind max index {idx[-1]} exceeds the cap {cap}"
            )
        if not 0.0 < self.b <= 10.0:
            raise InvalidInputError(f"half-width must lie in (0, 10], got {self.b}")
        # the optimum is at least the lone-Chebyshev value 4^(d-1)/b^(2d),
        # d = n for the first kind and n + 1 for the second
        d = idx[-1] if self.kind == KIND_FIRST else idx[-1] + 1
        if (d - 1) * math.log(4.0) - 2 * d * math.log(self.b) >= math.log(sys.float_info.max):
            raise InvalidInputError(
                f"half-width {self.b} is too small: the optimum overflows a double"
            )
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "b", float(self.b))

    @property
    def n(self) -> int:
        return self.indices[-1]


@dataclass(frozen=True)
class ExtremalSolution:
    """Optimal polynomial family plus the dual data that certifies it."""

    polys: dict[int, Polynomial]
    alphas: dict[int, float]
    objective: float
    dual_moments: CanonicalMomentSeq
    active_set: tuple[int, ...]
    phase_index: int | None = None


@dataclass(frozen=True)
class VerificationReport:
    """Feasibility, attainment, equimax and duality residuals of a solution."""

    constraint_sup: SupNormReport
    objective: float
    equimax_spread: float
    support_attainment: float
    duality_residual: float
    checks: dict[str, bool] = field(default_factory=dict)
    passed: bool = False


def dual_moments(spec: ProblemSpec) -> CanonicalMomentSeq:
    """Canonical moments of the dual optimal measure (first kind only).

    Odd entries are 1/2, p_{2n} = 1, and the remaining even entries are
    filled from the top down:

        p_{2m} = max( z_m * [1 - b^{-2(n-m)} / prod_{i=m+1}^{n-1} q_{2i} p_{2i}],
                      1/2 )

    with z_m = 1 iff m is a prescribed degree, the empty product being 1.
    The descending order matters: each entry depends on those above it.
    """
    if spec.kind != KIND_FIRST:
        raise InvalidInputError("dual moments are defined for the first kind only")
    n = spec.n
    members = set(spec.indices)
    p = [0.5] * (2 * n)
    p[2 * n - 1] = 1.0
    tail = 1.0  # running product of q_{2i} p_{2i} over i = m+1 .. n-1
    for m in range(n - 1, 0, -1):
        if m in members:
            val = 1.0 - spec.b ** (-2 * (n - m)) / tail
            p2m = max(val, 0.5)
            if p2m >= 1.0:
                raise InvalidInputError(
                    f"{spec}: even dual moment p_{2 * m} rounds to 1 at m = {m},"
                    " before the terminal index"
                )
        else:
            p2m = 0.5
        p[2 * m - 1] = p2m
        tail *= (1.0 - p2m) * p2m
    return CanonicalMomentSeq(b=spec.b, p=tuple(p))


def active_set(cm: CanonicalMomentSeq, spec: ProblemSpec) -> tuple[int, ...]:
    """Indices whose squared norm attains the minimum over the index set."""
    ks = l2_norms(cm, spec.n)
    k_by_index = {j: ks[j - 1] for j in spec.indices}
    kmin = min(k_by_index.values())
    act = tuple(j for j in spec.indices if k_by_index[j] <= (1.0 + ACTIVE_SET_RTOL) * kmin)
    return act


def alpha_weights(cm: CanonicalMomentSeq, n: int) -> list[float]:
    """Convex weights alpha_1..alpha_n from the even canonical moments.

    alpha_j = prod_{i<j} (q_{2i}/p_{2i}) * (1 - q_{2j}/p_{2j}).  The sum
    telescopes to 1 because p_{2n} = 1, and every even entry >= 1/2 keeps
    each factor, hence each weight, nonnegative.
    """
    p = cm.p
    if len(p) < 2 * n:
        raise InvalidInputError(f"need p_1..p_{2 * n} for alpha weights")
    out = []
    prefix = 1.0
    for j in range(1, n + 1):
        p2j = p[2 * j - 1]
        ratio = (1.0 - p2j) / p2j
        out.append(max(prefix * (1.0 - ratio), 0.0))
        prefix *= ratio
    return out


def threshold_index(n: int, b: float, kind: str) -> int:
    """Phase index k: smallest start of an all-positive run of U values.

    first kind:  k = min{ j in 1..n   : U_{2n-2i+1}(b/2) > eps for i = j..n }
    second kind: k = min{ j in 1..n+1 : U_{2n-2i+3}(b/2) > eps for i = j..n+1 }

    Strict positivity is implemented as "> 1e-12"; at an exact structural
    threshold both adjacent phases produce the same solution, so the side
    chosen there is observationally irrelevant.
    """
    if kind not in (KIND_FIRST, KIND_SECOND):
        raise InvalidInputError(f"kind must be 'first' or 'second', got {kind!r}")
    low = 1 if kind == KIND_FIRST else 0
    if not low <= n <= MAX_DEGREE:
        raise InvalidInputError(f"{kind}-kind n must lie in {low}..{MAX_DEGREE}, got {n}")
    if not 0.0 < b <= 10.0:
        raise InvalidInputError(f"half-width must lie in (0, 10], got {b}")
    t = b / 2.0
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


def solve_first_kind(spec: ProblemSpec) -> ExtremalSolution:
    """Solve the unweighted problem for an arbitrary index set.

    Chains the dual construction: dual moments -> monic orthogonal
    polynomials -> squared norms -> alpha weights, then scales each active
    polynomial by sqrt(alpha_j / k_j).  The objective is 1/k_n.
    """
    if spec.kind != KIND_FIRST:
        raise InvalidInputError("solve_first_kind expects a first-kind spec")
    n = spec.n
    cm = dual_moments(spec)
    monics = monic_orthopolys(cm, n)
    ks = l2_norms(cm, n)
    act = active_set(cm, spec)
    alphas_all = alpha_weights(cm, n)

    polys: dict[int, Polynomial] = {}
    alphas: dict[int, float] = {}
    for j in spec.indices:
        a = alphas_all[j - 1]
        alphas[j] = a
        if a <= 0.0:
            polys[j] = Polynomial.zero()
        else:
            scaled = math.sqrt(a / ks[j - 1]) * monics[j]
            polys[j] = _positive_leading(scaled)
    objective = 1.0 / ks[n - 1]

    phase = None
    if spec.indices == tuple(range(1, n + 1)):
        phase = threshold_index(n, spec.b, KIND_FIRST)
    return ExtremalSolution(
        polys=polys,
        alphas=alphas,
        objective=objective,
        dual_moments=cm,
        active_set=act,
        phase_index=phase,
    )


def _positive_leading(p: Polynomial) -> Polynomial:
    return -p if p.leading < 0.0 else p


def _u_poly(m: int) -> Polynomial:
    """U_m as a Polynomial, honoring U_{-1} = 0 and U_{-2} = -1."""
    if m == -1:
        return Polynomial.zero()
    if m == -2:
        return Polynomial((-1.0,))
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

    t_k = chebyshev_t(k).stretch(b)
    t_km1 = chebyshev_t(k - 1).stretch(b)
    polys: dict[int, Polynomial] = {}
    alphas: dict[int, float] = {}
    denom = u(n - k) * u(n - k + 1)
    for l in range(1, n + 1):
        if l <= k - 1:
            polys[l] = Polynomial.zero()
            alphas[l] = 0.0
            continue
        beta = math.sqrt(b * u(2 * n - 2 * l + 1)) / u(n - k + 1)
        shape = t_k * _u_poly(l - k).stretch(2.0) - ratio * (
            t_km1 * _u_poly(l - 1 - k).stretch(2.0)
        )
        polys[l] = _positive_leading(beta * shape)
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
        polys = {n - 1: Polynomial.zero(), n: chebyshev_t(n).stretch(b)}
        alphas = {n - 1: 0.0, n: 1.0}
        objective = 2.0 ** (2 * n - 2) / b ** (2 * n)
        active: tuple[int, ...] = (n,)
        phase = n
    else:
        b2 = b * b
        p_n1 = (b * math.sqrt(b2 - 2.0) / (b2 - 1.0)) * chebyshev_t(n - 1).stretch(b)
        p_n = (1.0 / (2.0 * (b2 - 1.0))) * (
            b2 * chebyshev_t(n).stretch(b) - (b2 - 2.0) * chebyshev_t(n - 2).stretch(b)
        )
        polys = {n - 1: _positive_leading(p_n1), n: _positive_leading(p_n)}
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


def _lifted_first_spec(indices, b: float) -> ProblemSpec:
    """First-kind spec with every prescribed degree shifted up by one.

    The weighted problem on I inherits its dual data from the unweighted
    problem on I + 1: the optimal values coincide and the attainment
    measure is the reflection of the lifted dual measure.
    """
    return ProblemSpec(kind=KIND_FIRST, indices=tuple(i + 1 for i in indices), b=b)


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

    u_kb = _u_poly(k - 1).stretch(b)
    u_km2b = _u_poly(k - 2).stretch(b)
    polys: dict[int, Polynomial] = {}
    for l in range(0, n + 1):
        if l <= k - 2:
            polys[l] = Polynomial.zero()
            continue
        beta = math.sqrt(u(2 * n - 2 * l + 1)) / (math.sqrt(b) * u(n - k + 2))
        shape = u_kb * _u_poly(l - k + 1).stretch(2.0) - ratio * (
            u_km2b * _u_poly(l - k).stretch(2.0)
        )
        polys[l] = _positive_leading(beta * shape)
    objective = 2.0 ** (2 * k - 2) / b ** (2 * k - 1) * u(n - k + 1) / u(n - k + 2)

    lifted = _lifted_first_spec(range(0, n + 1), b)
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
        polys = {n - 1: Polynomial.zero(), n: (1.0 / b) * chebyshev_u(n).stretch(b)}
        objective = 2.0 ** (2 * n) / b ** (2 * n + 2)
        phase = n + 1
    else:
        b2 = b * b
        p_n1 = (math.sqrt(b2 - 2.0) / (b2 - 1.0)) * chebyshev_u(n - 1).stretch(b)
        p_n = (b / (2.0 * (b2 - 1.0))) * (
            chebyshev_u(n).stretch(b)
            - ((b2 - 2.0) / b2) * _u_poly(n - 2).stretch(b)
        )
        polys = {n - 1: _positive_leading(p_n1), n: _positive_leading(p_n)}
        objective = (2.0 / b) ** (2 * (n - 1)) / (b2 - 1.0)
        phase = n

    lifted = _lifted_first_spec((n - 1, n), b)
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


def solve(spec: ProblemSpec) -> ExtremalSolution:
    """Dispatch to the general first-kind solver or a second-kind closed form."""
    if spec.kind == KIND_FIRST:
        return solve_first_kind(spec)
    n = spec.n
    if spec.indices == tuple(range(0, n + 1)):
        return closed_form_second_full(n, spec.b)
    if n >= 1 and spec.indices == (n - 1, n):
        return closed_form_second_pair(n, spec.b)
    raise InvalidInputError(
        "second-kind solving covers only index sets {0..n} and {n-1, n}"
    )


def verify_solution(sol: ExtremalSolution, spec: ProblemSpec) -> VerificationReport:
    """Check feasibility, attainment, equimax property and duality of ``sol``.

    Feasibility: the (weighted) constraint sup must not exceed 1 + 1e-8.
    Attainment: the constraint function must equal 1 at every support point
    of the dual measure.  Equimax: the squared norms over the active set
    must agree.  Duality: objective * k_top = 1 for the relevant measure.
    Check failures are reported in flags, never raised.
    """
    b = spec.b
    n = spec.n
    weighted = spec.kind == KIND_SECOND
    family = [sol.polys[j] for j in spec.indices]
    sup_report = sup_sum_squares(family, b, weighted=weighted)

    objective = sum(p.coeff(j) ** 2 for j, p in sol.polys.items())

    if weighted:
        cm_lift = reflected(sol.dual_moments)
        ks = l2_norms(cm_lift, n + 1)
        k_top = ks[n]
        active_ks = [ks[j] for j in sol.active_set]  # lifted index j+1 -> ks[j]
    else:
        ks = l2_norms(sol.dual_moments, n)
        k_top = ks[n - 1]
        active_ks = [ks[j - 1] for j in sol.active_set]
    equimax_spread = (max(active_ks) - min(active_ks)) / min(active_ks)
    duality_residual = abs(sol.objective * k_top - 1.0)

    measure = support_measure(sol.dual_moments)
    attain = 0.0
    for x in measure.points:
        g = sum(p(x) ** 2 for p in family)
        if weighted:
            g *= b * b - x * x
        attain = max(attain, abs(g - 1.0))

    checks = {
        "feasible": sup_report.sup <= 1.0 + FEASIBILITY_TOL,
        "attainment": attain <= ATTAINMENT_TOL,
        "equimax": equimax_spread <= EQUIMAX_TOL,
        "duality": duality_residual <= DUALITY_TOL,
        "objective_consistent": abs(objective - sol.objective)
        <= OBJECTIVE_CONSISTENCY_RTOL * max(1.0, abs(sol.objective)),
    }
    return VerificationReport(
        constraint_sup=sup_report,
        objective=objective,
        equimax_spread=equimax_spread,
        support_attainment=attain,
        duality_residual=duality_residual,
        checks=checks,
        passed=all(checks.values()),
    )
