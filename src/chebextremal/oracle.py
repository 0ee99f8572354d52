"""Independent verification: an LP bracket from the duality, and duality certificates.

The bracket never touches the canonical-moment machinery.  It rests on the
duality of the paper: the optimum equals the minimum, over probability
measures xi on [-b, b], of max_{j in I} 1/k_j(xi), where k_j(xi) is the
squared norm of the monic orthogonal polynomial P_j of W d(xi) (W = 1, or
b^2 - x^2 for the weighted kind).  Weak duality makes max_j 1/k_j(xi) an
upper bound for every xi, and any feasible family a lower bound, so the
oracle returns a rigorous bracket rather than a best guess.  The bounds come
from a master LP over mixtures of squared polynomials (Fedorov's
vertex-direction design method, *Theory of Optimal Experiments*, 1972,
with a fully corrective step), see ``oracle_bracket``.

The certificate checker rebuilds the discrete dual measure and, in double
precision, its moment matrices M_j in the Chebyshev basis of the support's
hull, each as R_j' R_j from one QR of the weighted Chebyshev-Vandermonde
matrix, so that e_j' M_j^{-1} e_j = 1/R_jj^2.  With the rank-one dual
variables N_j = alpha_j k_j M_j^{-1} e_j e_j' M_j^{-1} it evaluates the
optimality equalities: sum_j trace(M_j N_j) = 1, the norm identity per
index, and the min-equality tying the weights to the indices of minimal
norm.

Only the bracket uses scipy (``scipy.optimize`` for the LP and the polish,
``scipy.linalg.solve_triangular`` for the orthogonal polynomials of a
measure), and it imports it on its first call, so importing this module,
and with it the solver, the certificate and the CLI ``solve`` path, loads
numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.chebyshev import chebder, chebval, chebvander

from .canonical import l2_norms, reflected, support_measure
from .errors import InvalidInputError
from .polynomials import Polynomial, critical_points, sum_squares, sup_sum_squares
from .solver import KIND_SECOND, ExtremalSolution, ProblemSpec

ORACLE_MAX_N = 5
#: relative bracket width (upper - lower) / upper at which the oracle stops
BRACKET_RTOL = 1e-6
#: master-LP iterations after which the bracket is returned as it stands
MAX_ITERATIONS = 200
#: SLSQP iterations of one polish of a dual measure
POLISH_ITERATIONS = 100
#: a round that leaves more than this share of the bracket width has stalled
STALL = 0.9
#: consecutive stalled rounds after which the dual measure is searched more widely
STALL_ROUNDS = 3


@dataclass(frozen=True)
class OracleBracket:
    """Two-sided bound on the optimum from the duality.

    ``family`` is feasible (its exact constraint sup is 1 up to rounding)
    and ``lower`` is its objective, the sum of its squared leading
    coefficients; ``upper`` is max_j 1/k_j(xi) for the best measure xi
    found, which bounds every feasible family.  ``iterations`` counts the
    master-LP rounds.
    """

    lower: float
    upper: float
    family: dict[int, Polynomial]
    iterations: int


@dataclass
class CertificateReport:
    """Residuals of the duality equality conditions.

    ``trace_residual`` is |sum_j trace(M_j N_j) - 1|;
    ``min_equality_residuals`` the two min-equality defects, the second of
    which is the same sum as the trace; and ``norm_identity_residuals`` the
    defect of e_j' M_j^{-1} e_j * k_j = 1.  ``structure_residuals`` is
    always empty: the rank-one equation M_j N_j = e_j e_j' N_j /
    (e_j' M_j^{-1} e_j) holds for any N_j built from M_j^{-1} e_j, so it is
    not checked, and the field stays only because the benchmark reads it.
    A singular moment matrix, or a pivot R_jj whose 1/R_jj^2 is not
    finite, marks ``failed_index`` instead of raising.
    """

    trace_residual: float
    structure_residuals: dict[int, float] = field(default_factory=dict)
    min_equality_residuals: tuple[float, float] = (math.inf, math.inf)
    norm_identity_residuals: dict[int, float] = field(default_factory=dict)
    failed_index: int | None = None

    @property
    def ok(self) -> bool:
        return self.failed_index is None

    def residuals(self) -> list[float]:
        out = [self.trace_residual]
        out.extend(self.min_equality_residuals)
        out.extend(self.norm_identity_residuals.values())
        return out


def _weight(spec: ProblemSpec, x):
    """The constraint weight W at x: 1, or b^2 - x^2 for the weighted kind."""
    b = spec.b
    return (b - x) * (b + x) if spec.kind == KIND_SECOND else np.ones_like(x)


def _orthogonal(spec: ProblemSpec, lam, points, weights):
    """QR factor of W d(xi) in the Chebyshev basis, and max_{j in I} 1/k_j(xi).

    R is the triangular factor of sqrt(xi W) times the Chebyshev-Vandermonde
    matrix in x/b, so the monic P_j has squared norm k_j = (R_jj/lambda_j)^2,
    lambda_j = 2^(j-1)/b^j being the leading coefficient of T_j(x/b).  A
    measure with too few points gives k_j = 0 and an infinite bound.
    """
    n = spec.n
    scaled = np.sqrt(weights * _weight(spec, points))[:, None] * chebvander(points / spec.b, n)
    # zero rows keep R square when xi has fewer than n + 1 points
    R = np.linalg.qr(np.vstack([scaled, np.zeros((n + 1, n + 1))]), mode="r")
    ks = (np.diag(R) / lam) ** 2
    bound = max(1.0 / float(ks[j]) if ks[j] > 0.0 else math.inf for j in spec.indices)
    return R, bound


def _monic(R, lam, j: int, floor: float = 1e-12):
    """Chebyshev coefficients (padded to R's size) of the monic P_j, or None.

    Minimizing |R_j c| over c with c_j = 1/lambda_j gives R_j c = e_j
    R_jj/lambda_j.  None when the measure is too thin to fix P_j, that is
    when |R_jj| is at most ``floor`` times the largest |R_ii|, i <= j.
    """
    import scipy.linalg

    diag = np.abs(np.diag(R)[: j + 1])
    if not diag[j] > floor * diag.max():
        return None
    rhs = np.zeros(j + 1)
    rhs[j] = R[j, j] / lam[j]
    c = np.zeros(len(R))
    c[: j + 1] = scipy.linalg.solve_triangular(R[: j + 1, : j + 1], rhs)
    return c


def _support_candidates(spec: ProblemSpec, members: dict[int, Polynomial]):
    """Points where W times a family's sum of squares comes within 1e-4 of its max.

    The optimal dual measure lives on n + 1 points where the optimal
    family's constraint attains 1; a nearly optimal family has its highest
    maxima there, and where the constraint is nearly flat a few more.
    Only points with W > 0 count, highest first; a family missing a member
    may have fewer than n + 1.
    """
    family = list(members.values())
    weighted = spec.kind == KIND_SECOND
    xs = critical_points(family, spec.b, weighted)
    values = sum_squares(family, xs, spec.b, weighted)
    points: list[float] = []
    for i in np.argsort(-values):
        if values[i] < (1.0 - 1e-4) * values.max():
            break
        x = xs[i]
        if _weight(spec, x) > 0.0 and all(abs(x - p) > 1e-9 * spec.b for p in points):
            points.append(x)
    return np.array(points)


def _closed_form_weights(spec: ProblemSpec, top: Polynomial, x):
    """Weights on n + 1 points that make the top member orthogonal, or None.

    On n + 1 points the functionals that vanish on polynomials of degree
    below n are the multiples of the divided difference
    sum_i p(x_i)/omega'(x_i), so orthogonality of the top member Q_n fixes
    xi_i as proportional to 1/(W(x_i) Q_n(x_i) omega'(x_i)).  Where the
    top member is only a sliver of the optimum it is too noisy for this,
    and the weights change sign.
    """
    gaps = (x[:, None] - x[None, :]) / spec.b
    np.fill_diagonal(gaps, 1.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        weights = 1.0 / (_weight(spec, x) * top(x) * gaps.prod(axis=1))
    if weights[0] < 0.0:
        weights = -weights
    if not (np.all(weights > 0.0) and np.all(np.isfinite(weights))):
        return None
    return weights / weights.sum()


def _log_norms(spec: ProblemSpec, lam, u, weights):
    """log k_j(xi) for j in I and their gradients in the weights and in u = x/b.

    Each k_j is a minimum over monic polynomials attained at P_j, so
    (Danskin) d k_j / d w_i = W(x_i) P_j(x_i)^2 and
    d k_j / d u_i = w_i (W P_j^2)'(x_i), the derivative taken in u.
    """
    b = spec.b
    x = b * u
    W = _weight(spec, x)
    dW = -2.0 * b * x if spec.kind == KIND_SECOND else np.zeros_like(x)
    R, _ = _orthogonal(spec, lam, x, weights)
    logs, by_weight, by_point = [], [], []
    for j in spec.indices:
        # a step may thin the measure a lot; only a singular one is fatal
        c = _monic(R, lam, j, floor=0.0)
        if c is None:
            raise np.linalg.LinAlgError("singular measure")
        k = (R[j, j] / lam[j]) ** 2
        p, dp = chebval(u, c), chebval(u, chebder(c))
        logs.append(math.log(k))
        by_weight.append(W * p * p / k)
        by_point.append(weights * (dW * p * p + 2.0 * W * p * dp) / k)
    return np.array(logs), np.array(by_weight), np.array(by_point)


def _polish(spec: ProblemSpec, lam, points, weights, move_points: bool = True):
    """Locally minimize max_{j in I} 1/k_j over a measure's points and weights.

    SLSQP on the epigraph: minimize s subject to log k_j + s >= 0 for every
    j in I, weights summing to 1, points in [-b, b].  Where several indices
    are active, the maxima of a nearly optimal family misplace the support
    to first order, and so would the bound; the polish takes that error to
    second order.  With the points held (``move_points`` false) the
    problem is convex, as each k_j is concave in the weights.  None when
    a step makes the measure singular.
    """
    import scipy.optimize

    m, count = len(points), len(spec.indices)
    cache: dict[bytes, tuple] = {}

    def terms(z):
        key = z.tobytes()
        if key not in cache:
            cache.clear()
            cache[key] = _log_norms(spec, lam, z[:m], z[m : 2 * m])
        return cache[key]

    def epigraph(z):
        return terms(z)[0] + z[-1]

    def epigraph_jac(z):
        _, by_weight, by_point = terms(z)
        return np.column_stack([by_point, by_weight, np.ones(count)])

    u = points / spec.b
    # W vanishes at +-b for the weighted kind, where a point would carry nothing
    edge = 1.0 - 1e-12 if spec.kind == KIND_SECOND else 1.0
    try:
        start = np.concatenate([u, weights, [-_log_norms(spec, lam, u, weights)[0].min()]])
        res = scipy.optimize.minimize(
            lambda z: z[-1],
            start,
            jac=lambda z: np.append(np.zeros(2 * m), 1.0),
            method="SLSQP",
            bounds=[(-edge, edge) if move_points else (v, v) for v in u]
            + [(1e-12, 1.0)] * m
            + [(None, None)],
            constraints=[
                {"type": "ineq", "fun": epigraph, "jac": epigraph_jac},
                {
                    "type": "eq",
                    "fun": lambda z: z[m : 2 * m].sum() - 1.0,
                    "jac": lambda z: np.concatenate([np.zeros(m), np.ones(m), [0.0]]),
                },
            ],
            options={"ftol": 1e-16, "maxiter": POLISH_ITERATIONS},
        )
    except (np.linalg.LinAlgError, ValueError):
        return None
    w = np.maximum(res.x[m : 2 * m], 0.0)
    if not (np.all(np.isfinite(res.x)) and w.sum() > 0.0):
        return None
    return spec.b * np.clip(res.x[:m], -1.0, 1.0), w / w.sum()


def oracle_bracket(spec: ProblemSpec) -> OracleBracket:
    """Bracket the optimum between a feasible family and a dual measure.

    A master LP over finitely many columns, monic polynomials Q_s of one
    degree j in I each (Chebyshev series in x/b, scaled to max 1 on the
    rows), and rows, points x_i of [-b, b] that start as the Chebyshev
    extrema, maximizes sum_s mu_s lc(Q_s)^2 subject to
    sum_s mu_s W(x_i) Q_s(x_i)^2 <= 1, its objective divided by its largest
    entry.  Each round

    * prices at the best measure so far and at its even blend with the
      LP's normalized row prices: one QR gives every k_j and P_j, the
      bound max_j 1/k_j, and a new column P_j per index (a vertex of the
      LP's dual alone is often too thin to fix P_n, and stalls);
    * solves the LP (HiGHS dual simplex) for the mixture weights mu;
    * truncates each degree's block sum_s mu_s c_s c_s' of the mixture to
      its top eigenpair and rescales that family by its exact
      ``sup_sum_squares``: its value is a ``lower`` candidate;
    * takes the measure on that family's n + 1 highest maxima that makes
      its top member orthogonal, and polishes it by SLSQP: two more
      ``upper`` candidates.  If the round stalled (the bracket shrank by
      less than a tenth), it also optimizes the weights on all of the
      family's near-top maxima, or on the best measure's points where
      those are too few, and polishes that measure;
    * adds as rows the critical points where the LP mixture exceeds 1 and
      the best measure's points, and drops the columns the LP leaves
      nonbasic.  Rows stay: dropping the unpriced ones lets a cut that
      was just left come back, and the LP cycles.

    It stops once (upper - lower) / upper <= ``BRACKET_RTOL``, or after
    ``MAX_ITERATIONS`` rounds with the bracket as it stands.
    """
    import scipy.optimize

    n, b = spec.n, spec.b
    if n > ORACLE_MAX_N:
        raise InvalidInputError(f"oracle is desk-scale only (n <= {ORACLE_MAX_N})")
    weighted = spec.kind == KIND_SECOND
    lam = np.array([2.0 ** (j - 1) / b**j if j else 1.0 for j in range(n + 1)])

    rows = b * np.cos(np.linspace(math.pi, 0.0, 4 * n + 5))
    best = (rows, np.full(len(rows), 1.0 / len(rows)))
    priced = None  # the LP's normalized row prices as a measure
    cols = np.zeros((n + 1, 0))
    degrees = np.zeros(0, dtype=int)
    lower, upper = 0.0, math.inf
    family = {j: Polynomial.zero(b) for j in spec.indices}
    stalls = 0  # consecutive rounds that left the bracket nearly as wide

    def consider(measure):
        nonlocal upper, best
        R, bound = _orthogonal(spec, lam, *measure)
        if bound < upper:
            upper, best = bound, measure
        return R

    def refine(points, weights):
        consider((points, weights))
        if upper - lower > BRACKET_RTOL * upper:
            polished = _polish(spec, lam, points, weights)
            if polished is not None:
                consider(polished)

    for iteration in range(1, MAX_ITERATIONS + 1):
        gap = upper - lower
        measures = [best]
        if priced is not None:
            measures.append(
                (np.concatenate([best[0], priced[0]]), 0.5 * np.concatenate([best[1], priced[1]]))
            )
        for measure in measures:
            R = consider(measure)
            for j in spec.indices:
                c = _monic(R, lam, j)
                if c is not None:
                    cols = np.column_stack([cols, c])
                    degrees = np.append(degrees, j)

        table = _weight(spec, rows)[:, None] * (chebvander(rows / b, n) @ cols) ** 2
        peak = table.max(axis=0)
        usable = np.isfinite(peak) & (peak > 0.0)
        if not usable.any():
            break
        cols, degrees = cols[:, usable] / np.sqrt(peak[usable]), degrees[usable]
        table = table[:, usable] / peak[usable]
        gains = (cols[degrees, np.arange(len(degrees))] * lam[degrees]) ** 2
        res = scipy.optimize.linprog(
            -gains / gains.max(), A_ub=table, b_ub=np.ones(len(rows)), method="highs-ds"
        )
        if res.status != 0:
            break
        mu = res.x

        members = {}
        for j in spec.indices:
            block = cols[: j + 1, degrees == j]
            w, v = np.linalg.eigh((block * mu[degrees == j]) @ block.T)
            top = math.sqrt(max(w[-1], 0.0)) * v[:, -1]
            members[j] = Polynomial(tuple(top if top[j] >= 0.0 else -top), b)
        sup = sup_sum_squares(list(members.values()), b, weighted=weighted).sup
        if sup > 0.0:
            scaled = {j: p * (1.0 / math.sqrt(sup)) for j, p in members.items()}
            value = sum(p.leading**2 for p in scaled.values())
            if value > lower:
                lower, family = value, scaled

        points = _support_candidates(spec, members)
        if len(points) > n and not members[n].is_zero:
            highest = np.sort(points[: n + 1])
            weights = _closed_form_weights(spec, members[n], highest)
            if weights is not None:
                refine(highest, weights)
        stalls = stalls + 1 if upper - lower > max(STALL * gap, BRACKET_RTOL * upper) else 0
        if stalls == STALL_ROUNDS:
            # the top member is too noisy, or a member below the tolerance
            # left too few maxima, and the best measure stands in: optimize
            # the weights on those points first, a convex problem.  Once per
            # stall, as a second try from the same state ends the same way
            if len(points) > n:
                start = (np.sort(points), np.full(len(points), 1.0 / len(points)))
            else:
                start = best
            held = _polish(spec, lam, *start, move_points=False)
            if held is not None:
                live = held[1] > 1e-11  # above the floor of the weight bounds
                refine(held[0][live], held[1][live] / held[1][live].sum())
        if upper - lower <= BRACKET_RTOL * upper:
            break

        w, v = np.linalg.eigh((cols * mu) @ cols.T)
        mixture = [Polynomial(tuple(math.sqrt(wk) * v[:, k]), b) for k, wk in enumerate(w) if wk > 0.0]
        fresh = list(best[0])
        if mixture:
            xs = critical_points(mixture, b, weighted)
            fresh += list(xs[sum_squares(mixture, xs, b, weighted) > 1.0])
        prices = np.maximum(-res.ineqlin.marginals, 0.0)
        if prices.sum() > 0.0:
            priced = (rows[prices > 0.0], prices[prices > 0.0] / prices.sum())
        for x in fresh:
            if np.abs(rows - x).min() > 1e-13 * b:
                rows = np.append(rows, x)
        # a nonbasic column carries a positive reduced cost
        keep = (mu > 0.0) | (res.lower.marginals <= 1e-9)
        cols, degrees = cols[:, keep], degrees[keep]
    return OracleBracket(lower=lower, upper=upper, family=family, iterations=iteration)


def duality_certificate(sol: ExtremalSolution, spec: ProblemSpec) -> CertificateReport:
    """Evaluate the duality equality conditions for a solved instance.

    For the weighted kind the moment matrices absorb the weight
    (b^2 - x^2), under which the same equalities characterize optimality.
    M_j is taken in the Chebyshev basis T_i((x - c)/h) of the hull
    [c - h, c + h] of the support: one QR of sqrt(W) times the
    Chebyshev-Vandermonde matrix at the support points gives
    M_j = R_j' R_j for the leading (j+1)x(j+1) block R_j of R, so no
    moment matrix is formed or factored.  This basis is a congruence of the
    monomial Hankel matrices by a triangular matrix with diagonal
    lambda_i = 2^(i-1)/h^i, the leading coefficients of T_i((x - c)/h), so
    each equality keeps its meaning once k_j is scaled by lambda_j^2; the
    cross-index min-equality undoes that scaling.
    """
    if not sol.dual_moments.terminating:
        raise InvalidInputError("certificate needs a terminating dual sequence")
    b = spec.b
    measure = support_measure(sol.dual_moments)
    x = np.asarray(measure.points)
    w = np.asarray(measure.weights)
    # squared norms k_j by degree; for the weighted kind the norm of degree j
    # equals the unweighted one of degree j+1 under the reflected sequence
    if spec.kind == KIND_SECOND:
        w = w * (b - x) * (b + x)
        ks = l2_norms(reflected(sol.dual_moments), spec.n + 1)
    else:
        ks = [1.0] + l2_norms(sol.dual_moments, spec.n)
    c = 0.5 * (x[0] + x[-1])
    h = 0.5 * (x[-1] - x[0]) if len(x) > 1 else 1.0
    R = np.linalg.qr(np.sqrt(w)[:, None] * chebvander((x - c) / h, spec.n), mode="r")

    report = CertificateReport(trace_residual=math.inf)
    trace_total = weight_total = 0.0
    kmin = math.inf
    for j in spec.indices:
        # M_j is singular when fewer than j+1 support points carry weight
        if np.count_nonzero(w) < j + 1:
            report.failed_index = j
            return report
        lam = 2.0 ** (j - 1) / h**j if j else 1.0
        k = ks[j] * lam * lam
        # M_j^{-1} e_j = R_j^{-1} (e_j / R_jj), whose last entry is the last
        # step of the back-substitution
        r = float(R[j, j])
        inv_entry = 1.0 / r / r if r else math.inf
        if not math.isfinite(inv_entry):
            report.failed_index = j
            return report
        report.norm_identity_residuals[j] = float(abs(inv_entry * k - 1.0))
        # N_j = alpha_j a a' with a = sqrt(k_j) M_j^{-1} e_j has
        # trace(M_j N_j) = alpha_j k_j e_j' M_j^{-1} e_j, which is also
        # e_j' N_j e_j / (e_j' M_j^{-1} e_j); the min-equality compares
        # across indices, so it restores the original variable:
        # e_j' N_j e_j and 1/(e_j' M_j^{-1} e_j) pick up lambda_j^2
        trace_total += sol.alphas[j] * k * inv_entry
        weight_total += sol.alphas[j] * k * inv_entry * inv_entry * lam * lam
        kmin = min(kmin, 1.0 / inv_entry / lam / lam)
    report.trace_residual = float(abs(trace_total - 1.0))
    report.min_equality_residuals = (
        float(abs(kmin * weight_total - 1.0)),
        report.trace_residual,
    )
    return report
