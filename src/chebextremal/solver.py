"""Solvers for the extremal problems and verification of their output.

Two problem kinds are supported on an index set I of prescribed degrees
with n = max(I):

* ``first``: maximize sum of squared leading coefficients subject to
  sup_{[-b,b]} sum_j P_j(x)^2 <= 1.  Solved for arbitrary I by a dual
  canonical-moment construction.
* ``second``: the (b^2 - x^2)-weighted variant on I subset of {0..n}.
  Solved for arbitrary I by the same construction on the first kind on
  I + 1, its lift.  Its family is orthogonal for (b^2 - x^2) times the
  reflected dual measure, whose recurrence follows from the reflected
  measure's Jacobi matrix by a Christoffel step.

Both kinds run one dual pipeline.  ``_lift`` is the only place that maps
I to I + 1, and ``family_norms`` the only place that reads the family's
squared norms off a solution's dual moments; ``solve``, ``verify_solution``
and ``duality_certificate`` see the lift through these two alone.

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
from functools import cached_property

import numpy as np

from .canonical import (
    CanonicalMomentSeq,
    DiscreteMeasure,
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
        d = idx[-1] + 1 - low  # the top degree of ``_lift``: n + 1 for the second kind
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

    ``dual_moments`` are those of the measure the family is orthogonal
    for: the dual measure itself for the first kind, the reflection of the
    lift's for the second.  ``support`` is that measure's support, computed
    once per solution and shared by ``verify_solution`` and
    ``duality_certificate``.
    """

    polys: dict[int, Polynomial]
    alphas: dict[int, float]
    objective: float
    dual_moments: CanonicalMomentSeq
    active_set: tuple[int, ...]
    phase_index: int

    @cached_property
    def support(self) -> DiscreteMeasure:
        """Support points and weights of ``dual_moments``, by ``support_measure``."""
        return support_measure(self.dual_moments)


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


def _lift(spec: ProblemSpec) -> tuple[ProblemSpec, int]:
    """The first-kind problem that ``spec`` solves through, and the index shift.

    The first kind solves on I itself, with shift 0.  The weighted problem
    on I inherits its dual data from the unweighted problem on I + 1, with
    shift 1: the optimal values coincide and the attainment measure is the
    reflection of the lifted dual measure (Dette & Studden, *The Theory of
    Canonical Moments*, 1997).  A degree j of ``spec`` is j + shift in the lift.
    """
    if spec.kind == KIND_FIRST:
        return spec, 0
    return ProblemSpec(KIND_FIRST, tuple(j + 1 for j in spec.indices), spec.b), 1


def family_norms(dual: CanonicalMomentSeq, spec: ProblemSpec) -> list[float]:
    """Squared norms k_0..k_n, by degree, of the monic polynomials of the family.

    ``dual`` is a solution's ``dual_moments``.  For the first kind these are
    the norms of its measure, k_0 = 1 for a probability measure.  For the
    second they are the (b^2 - x^2)-weighted ones, which equal the lift's
    unweighted norms k_1..k_{n+1}: those of the reflection of ``dual``.
    """
    if spec.kind == KIND_FIRST:
        return [1.0] + l2_norms(dual, spec.n)
    return l2_norms(reflected(dual), spec.n + 1)


def dual_moments(spec: ProblemSpec) -> CanonicalMomentSeq:
    """Canonical moments of the dual optimal measure of ``spec``'s lift.

    For either kind the recurrence runs on the first-kind problem of
    ``_lift``, on I with n = max(I).  Odd entries are 1/2, p_{2n} = 1, and
    the remaining even entries are filled from the top down:

        p_{2m} = max( z_m * [1 - b^{-2(n-m)} / prod_{i=m+1}^{n-1} q_{2i} p_{2i}],
                      1/2 )

    with z_m = 1 iff m is a prescribed degree, the empty product being 1.
    The descending order matters: each entry depends on those above it.
    An entry below the top that rounds to 1 raises ``InvalidInputError``
    naming ``spec`` and, for the second kind, the lift's indices.
    """
    lift, shift = _lift(spec)
    n = lift.n
    members = set(lift.indices)
    p = [0.5] * (2 * n)
    p[2 * n - 1] = 1.0
    tail = 1.0  # running product of q_{2i} p_{2i} over i = m+1 .. n-1
    for m in range(n - 1, 0, -1):
        if m in members:
            val = 1.0 - spec.b ** (-2 * (n - m)) / tail
            p2m = max(val, 0.5)
            if p2m >= 1.0:
                where = f", in the dual of the first kind on I + 1 = {lift.indices}" if shift else ""
                raise InvalidInputError(
                    f"{spec}: even dual moment p_{2 * m} rounds to 1 at m = {m},"
                    f" before the terminal index{where}"
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


def solve(spec: ProblemSpec) -> ExtremalSolution:
    """Solve either kind for an arbitrary index set by the dual construction.

    Either kind runs dual moments -> alpha weights -> active set on its
    ``_lift``: I itself for the first kind, I + 1 for the second.  The
    first kind's family is built on the monic orthogonal polynomials P_j of
    the dual measure.  The second kind's is built on the monic orthogonal
    polynomials Q_j of (b^2 - x^2) d(eta), where eta is the reflected
    lifted dual measure (n + 1 interior points).  Their recurrence is
    ``weighted_recurrence`` of eta's exact Jacobi matrix, so no support
    point or weight is computed.  Either way member j is sqrt(alpha / k_j)
    times its monic polynomial, with alpha taken at the lifted index and
    k_j from ``family_norms``, and the objective is 1/k_n.  The phase index
    is the lowest lifted index with alpha > 0.  Both measures are symmetric
    about 0, with an exact zero Jacobi diagonal, so member j has the parity
    of j: its coefficients of the other parity are exactly 0, which lets
    ``sup_sum_squares`` take its even route.
    """
    cm = dual_moments(spec)
    lift, shift = _lift(spec)
    alphas_all = alpha_weights(cm, lift.n)
    if shift:
        dual = reflected(cm)
        recurrence = weighted_recurrence(*jacobi_coefficients(dual, lift.n), spec.b)
        monics = monic_from_recurrence(*recurrence, spec.b)
    else:
        dual = cm
        monics = monic_orthopolys(cm, spec.n)
    ks = family_norms(dual, spec)

    polys: dict[int, Polynomial] = {}
    alphas: dict[int, float] = {}
    for j in spec.indices:
        a = alphas_all[j + shift - 1]
        alphas[j] = a
        polys[j] = math.sqrt(a / ks[j]) * monics[j] if a > 0.0 else Polynomial.zero(spec.b)

    return ExtremalSolution(
        polys=polys,
        alphas=alphas,
        objective=1.0 / ks[spec.n],
        dual_moments=dual,
        active_set=tuple(j - shift for j in active_set(cm, lift)),
        phase_index=next(j for j in lift.indices if alphas_all[j - 1] > 0.0),
    )


def _require_interval(sol: ExtremalSolution, spec: ProblemSpec) -> None:
    """Reject ``sol`` unless its members and dual moments are all on spec.b.

    The one comparison of a solution's half-width with the spec's.  Both
    checks read k_j and the support off ``sol.dual_moments``, which on a
    wider interval pass a family that is optimal only there.
    """
    widths = {p.b for p in sol.polys.values()} | {sol.dual_moments.b}
    if widths != {spec.b}:
        raise InvalidInputError(f"solution on half-widths {sorted(widths)}, spec on {spec.b}")


def verify_solution(sol: ExtremalSolution, spec: ProblemSpec) -> VerificationReport:
    """Check feasibility, attainment, equimax property and duality of ``sol``.

    Feasibility: the (weighted) constraint sup must not exceed 1 + 1e-8.
    Attainment: the constraint function must equal 1 at every support point
    of the dual measure.  Equimax: the squared norms over the active set
    must agree.  Duality: objective * k_top = 1 for the relevant measure.
    Check failures are flags; a solution not on spec.b raises ``InvalidInputError``.
    """
    _require_interval(sol, spec)
    weighted = spec.kind == KIND_SECOND
    family = [sol.polys[j] for j in spec.indices]
    sup_report = sup_sum_squares(family, weighted=weighted)

    objective = sum(p.leading**2 for p in sol.polys.values())

    ks = family_norms(sol.dual_moments, spec)
    active_ks = [ks[j] for j in sol.active_set]
    equimax_spread = (max(active_ks) - min(active_ks)) / min(active_ks)
    duality_residual = abs(sol.objective * ks[spec.n] - 1.0)

    x = np.asarray(sol.support.points)
    g = sum_squares(family, x, weighted=weighted)
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
