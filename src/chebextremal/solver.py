"""Solvers for the extremal problems and verification of their output.

Two problem kinds are supported on an index set I of prescribed degrees
with n = max(I):

* ``first``: maximize sum of squared leading coefficients subject to
  sup_{[-b,b]} sum_j P_j(x)^2 <= 1.  Solved for arbitrary I by a dual
  canonical-moment construction.
* ``second``: the (b^2 - x^2)-weighted variant on I subset of {0..n}.
  Solved for arbitrary I by the same construction on the first kind on
  I + 1.  Its family is orthogonal for (b^2 - x^2) times the reflected
  dual measure, whose recurrence follows from the reflected measure's
  Jacobi matrix by a Christoffel step.

The optimum of the first kind equals 1/k_n(xi*) where xi* minimizes, over
probability measures on [-b, b], the largest reciprocal squared norm of
its monic orthogonal polynomials across I.  The solution family is
sqrt(alpha_j / k_j(xi*)) P_j(x, xi*) with convex weights alpha supported
on the indices attaining the minimal norm.  The phase index, the lowest
index with alpha_j > 0, is read off those same weights.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from .canonical import (
    CanonicalMomentSeq,
    jacobi_coefficients,
    l2_norms,
    monic_from_recurrence,
    monic_orthopolys,
    reflected,
    support_measure,
    weighted_recurrence,
)
from .errors import InvalidInputError
from .polynomials import (
    Polynomial,
    SupNormReport,
    sum_squares,
    sup_sum_squares,
)

KIND_FIRST = "first"
KIND_SECOND = "second"

#: largest dual degree ``ProblemSpec`` accepts, the library's only degree cap
MAX_DEGREE = 31

#: relative tolerance for detecting indices of minimal squared norm
ACTIVE_SET_RTOL = 1e-9

FEASIBILITY_TOL = 1e-8
ATTAINMENT_TOL = 1e-8
EQUIMAX_TOL = 1e-9
DUALITY_TOL = 1e-9
OBJECTIVE_CONSISTENCY_RTOL = 1e-12


def _dual_degree(kind: str, n: int) -> int:
    """Top degree of the first-kind problem that a ``kind`` problem solves.

    That is n for the first kind and n + 1 for the second, which solves
    through the first kind on I + 1.  ``MAX_DEGREE`` caps it.
    """
    return n if kind == KIND_FIRST else n + 1


@dataclass(frozen=True)
class ProblemSpec:
    """Problem statement: kind, prescribed degrees, interval half-width."""

    kind: str
    indices: tuple[int, ...]
    b: float

    def __post_init__(self):
        if self.kind not in (KIND_FIRST, KIND_SECOND):
            raise InvalidInputError(f"kind must be 'first' or 'second', got {self.kind!r}")
        try:
            raw = tuple(self.indices)
            ints = tuple(int(i) for i in raw)
        except (TypeError, ValueError, OverflowError):
            raw, ints = self.indices, None
        if ints is None or ints != raw:
            raise InvalidInputError(f"indices must be integers, got {raw}")
        idx = tuple(sorted(set(ints)))
        if not idx:
            raise InvalidInputError("index set must be nonempty")
        low = 1 if self.kind == KIND_FIRST else 0
        if idx[0] < low:
            raise InvalidInputError(
                f"{self.kind}-kind indices must be >= {low}, got {idx[0]}"
            )
        d = _dual_degree(self.kind, idx[-1])
        if d > MAX_DEGREE:
            raise InvalidInputError(
                f"{self.kind}-kind max index {idx[-1]} has dual degree {d},"
                f" above the cap {MAX_DEGREE}"
            )
        if not isinstance(self.b, numbers.Real) or not 0.0 < self.b <= 10.0:
            raise InvalidInputError(f"half-width must lie in (0, 10], got {self.b!r}")
        # the optimum is at least the lone-Chebyshev value 4^(d-1)/b^(2d)
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
    """Optimal polynomial family plus the dual data that certifies it.

    ``phase_index`` is the lowest index of the first-kind problem that
    ``solve`` runs whose dual weight alpha is positive; every member below
    it vanishes.  That problem is I itself for the first kind and the lift
    I + 1 for the second, so a second-kind phase index k counts in the
    lift: its lowest nonvanishing member has degree k - 1.
    """

    polys: dict[int, Polynomial]
    alphas: dict[int, float]
    objective: float
    dual_moments: CanonicalMomentSeq
    active_set: tuple[int, ...]
    phase_index: int


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


def _positive_leading(p: Polynomial) -> Polynomial:
    return -p if p.leading < 0.0 else p


def _lifted_first_spec(indices, b: float) -> ProblemSpec:
    """First-kind spec with every prescribed degree shifted up by one.

    The weighted problem on I inherits its dual data from the unweighted
    problem on I + 1: the optimal values coincide and the attainment
    measure is the reflection of the lifted dual measure.
    """
    return ProblemSpec(kind=KIND_FIRST, indices=tuple(i + 1 for i in indices), b=b)


def solve(spec: ProblemSpec) -> ExtremalSolution:
    """Solve either kind for an arbitrary index set by the dual construction.

    The first kind runs dual moments -> squared norms k_j -> alpha weights
    on I itself, and its family is built on the monic orthogonal
    polynomials P_j of the dual measure.  The second kind runs the same
    chain on the first-kind problem on I + 1; its family is built on the
    monic orthogonal polynomials Q_j of (b^2 - x^2) d(eta), where eta is
    the reflected lifted dual measure (n + 1 interior points).  Their
    recurrence is ``weighted_recurrence`` of eta's exact Jacobi matrix, so
    no support point or weight is computed.  Either way member j is
    sqrt(alpha / k) times its monic polynomial, with alpha and k taken at
    the (lifted) index, and the objective is 1/k at the top (lifted) index.
    The phase index is the lowest (lifted) index with alpha > 0.
    """
    weighted = spec.kind == KIND_SECOND
    lifted = _lifted_first_spec(spec.indices, spec.b) if weighted else spec
    try:
        cm = dual_moments(lifted)
    except InvalidInputError as exc:
        if not weighted:
            raise
        detail = str(exc).removeprefix(f"{lifted}: ")
        raise InvalidInputError(
            f"{spec}: {detail}, in the dual of the first kind on I + 1 = {lifted.indices}"
        ) from exc
    shift = 1 if weighted else 0  # lifted index = index + shift
    ks = l2_norms(cm, lifted.n)
    alphas_all = alpha_weights(cm, lifted.n)
    if weighted:
        dual = reflected(cm)
        recurrence = weighted_recurrence(*jacobi_coefficients(dual, lifted.n), spec.b)
        monics = monic_from_recurrence(*recurrence, spec.b)
    else:
        dual = cm
        monics = monic_orthopolys(cm, spec.n)

    polys: dict[int, Polynomial] = {}
    alphas: dict[int, float] = {}
    for j in spec.indices:
        a = alphas_all[j + shift - 1]
        alphas[j] = a
        if a <= 0.0:
            polys[j] = Polynomial.zero(spec.b)
        else:
            scaled = math.sqrt(a / ks[j + shift - 1]) * monics[j]
            polys[j] = _positive_leading(scaled)
    objective = 1.0 / ks[lifted.n - 1]

    return ExtremalSolution(
        polys=polys,
        alphas=alphas,
        objective=objective,
        dual_moments=dual,
        active_set=tuple(j - shift for j in active_set(cm, lifted)),
        phase_index=next(j for j in lifted.indices if alphas_all[j - 1] > 0.0),
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

    objective = sum(p.leading**2 for p in sol.polys.values())

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

    x = np.asarray(support_measure(sol.dual_moments).points)
    g = sum_squares(family, x, b, weighted)
    attain = float(np.max(np.abs(g - 1.0)))

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
