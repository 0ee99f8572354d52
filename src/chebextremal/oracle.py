"""Independent verification: brute-force search and duality certificates.

The brute-force maximizer never touches the canonical-moment machinery.
It optimizes the scale-invariant ratio

    R(c) = sum_j m_j(c)^2 / sup_x W(x) sum_j P_j(x, c)^2

over raw coefficient vectors (W = 1, or b^2 - x^2 for the weighted kind).
Because numerator and constraint are both homogeneous of degree two, the
maximum of R over all coefficient vectors equals the optimum of the
constrained problem, so no penalty tuning is needed.

The certificate checker rebuilds the discrete dual measure and, in double
precision, its moment matrices M_j in the Chebyshev basis of the support's
hull, each as R_j' R_j from one QR of the weighted Chebyshev-Vandermonde
matrix.  It forms the rank-one dual variables N_j = alpha_j a_j a_j' with
a_j = sqrt(k_j) M_j^{-1} e_j and evaluates the optimality equalities:
sum_j trace(M_j N_j) = 1, the rank-one structure equation per index, and
the min-equality tying the weights to the indices of minimal norm.

Only these two checks use scipy (``scipy.optimize`` for the search,
``scipy.linalg.solve_triangular`` for the certificate), and each imports it
on its first call, so importing this module, and with it the solver and the
CLI ``solve`` path, loads numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.chebyshev import chebvander, poly2cheb

from .canonical import l2_norms, reflected, support_measure
from .errors import InvalidInputError
from .polynomials import Polynomial, sup_sum_squares
from .solver import KIND_SECOND, ExtremalSolution, ProblemSpec

ORACLE_MAX_N = 5
DEFAULT_RESTARTS = 50


@dataclass(frozen=True)
class OracleResult:
    """Best feasible family found by the derivative-free search."""

    best_value: float
    best_coeffs: dict[int, Polynomial]
    evaluations: int
    seed: int


@dataclass
class CertificateReport:
    """Residuals of the duality equality conditions.

    ``trace_residual`` is |sum_j trace(M_j N_j) - 1|; ``structure_residuals``
    the per-index relative Frobenius defect of the rank-one equation;
    ``min_equality_residuals`` the two min-equality defects; and
    ``norm_identity_residuals`` the defect of e_j' M_j^{-1} e_j * k_j = 1.
    A singular moment matrix marks ``failed_index`` instead of raising.
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
        out.extend(self.structure_residuals.values())
        out.extend(self.min_equality_residuals)
        out.extend(self.norm_identity_residuals.values())
        return out


def brute_force_max(
    spec: ProblemSpec,
    budget: int,
    seed: int,
    restarts: int = DEFAULT_RESTARTS,
) -> OracleResult:
    """Derivative-free multistart maximization of the coefficient ratio.

    Runs ``restarts`` Nelder-Mead descents on -R from points drawn
    deterministically from ``seed``, then polishes the best one with the
    remaining budget.  During the search the constraint sup is taken on a
    fixed dense Chebyshev grid; the returned family is rescaled by the
    rigorous sup so it is feasible and ``best_value`` is honest; only that
    winner is converted to Chebyshev series on [-b, b].  Runs are
    merged by (value, restart index), so the output is reproducible.
    """
    import scipy.optimize

    n = spec.n
    if n > ORACLE_MAX_N:
        raise InvalidInputError(f"oracle is desk-scale only (n <= {ORACLE_MAX_N})")
    if budget < 1000:
        raise InvalidInputError(f"budget must be at least 1000, got {budget}")
    if restarts < 1:
        raise InvalidInputError(f"need at least one restart, got {restarts}")
    if seed < 0:
        raise InvalidInputError(f"seed must be nonnegative, got {seed}")
    b = spec.b
    weighted = spec.kind == KIND_SECOND
    sizes = [j + 1 for j in spec.indices]
    dim = sum(sizes)

    total_deg = 2 * n + (2 if weighted else 0)
    npts = 128 * (total_deg + 1)
    x = b * np.cos(np.linspace(math.pi, 0.0, npts))
    powers = np.vstack([x**i for i in range(n + 1)])
    wgrid = (b * b - x * x) if weighted else None

    evals = 0

    def neg_ratio(c):
        nonlocal evals
        evals += 1
        num = 0.0
        squares = np.zeros(npts)
        off = 0
        for size in sizes:
            cj = c[off : off + size]
            off += size
            num += cj[-1] ** 2
            vals = cj @ powers[:size]
            squares += vals * vals
        if weighted:
            squares = squares * wgrid
        den = squares.max()
        if den <= 0.0 or not np.isfinite(den):
            return 0.0
        return -num / den

    # deterministic start points, one block per prescribed degree, scaled
    # to the coefficient magnitudes typical of feasible families
    rng = np.random.default_rng(seed)
    starts = rng.standard_normal((restarts, dim))
    off = 0
    for j, size in zip(spec.indices, sizes):
        starts[:, off : off + size] *= b ** (-j)
        off += size

    best_fun = 0.0
    best_c = starts[0].copy()
    per_run = max(200, int(0.5 * budget) // restarts)
    for idx in range(restarts):
        remaining = budget - evals
        if remaining < dim + 2:
            break
        res = scipy.optimize.minimize(
            neg_ratio,
            starts[idx],
            method="Nelder-Mead",
            options={
                "maxfev": min(per_run, remaining),
                "xatol": 1e-10,
                "fatol": 1e-12,
                "adaptive": True,
            },
        )
        if res.fun < best_fun:
            best_fun, best_c = res.fun, np.asarray(res.x, dtype=float)

    # polish in rounds: a fresh simplex around the (normalized) incumbent
    # breaks the stagnation Nelder-Mead is prone to at higher dimensions
    for _ in range(5):
        remaining = budget - evals
        if remaining < dim + 2:
            break
        norm = np.linalg.norm(best_c)
        c0 = best_c / norm if norm > 0 else best_c
        res = scipy.optimize.minimize(
            neg_ratio,
            c0,
            method="Nelder-Mead",
            options={
                "maxfev": min(remaining, int(0.1 * budget) + 1),
                "xatol": 1e-12,
                "fatol": 1e-14,
                "adaptive": True,
            },
        )
        if res.fun < best_fun:
            best_fun, best_c = res.fun, np.asarray(res.x, dtype=float)

    # rescale the winner by the rigorous sup so the family is feasible
    family: dict[int, Polynomial] = {}
    off = 0
    num = 0.0
    for j, size in zip(spec.indices, sizes):
        cj = best_c[off : off + size]
        off += size
        num += cj[-1] ** 2
        family[j] = Polynomial(tuple(poly2cheb(cj * b ** np.arange(size))), b)
    sup = sup_sum_squares(list(family.values()), b, weighted=weighted).sup
    if sup <= 0.0:
        return OracleResult(0.0, {j: Polynomial.zero(b) for j in spec.indices}, evals, seed)
    scale = 1.0 / math.sqrt(sup)
    rescaled = {j: scale * p for j, p in family.items()}
    return OracleResult(
        best_value=float(num / sup),
        best_coeffs=rescaled,
        evaluations=evals,
        seed=seed,
    )


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
    import scipy.linalg

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
    trace_total = weight_total = weighted_sum = 0.0
    kmin = math.inf
    for j in spec.indices:
        # M_j is singular when fewer than j+1 support points carry weight
        if np.count_nonzero(w) < j + 1:
            report.failed_index = j
            return report
        Rj = R[: j + 1, : j + 1]
        lam = 2.0 ** (j - 1) / h**j if j else 1.0
        k = ks[j] * lam * lam
        # M_j^{-1} e_j: R_j' y = e_j is lower triangular, so y = e_j / R_jj
        e = np.zeros(j + 1)
        e[j] = 1.0
        minv_e = scipy.linalg.solve_triangular(Rj, e / Rj[j, j])
        inv_entry = minv_e[j]
        report.norm_identity_residuals[j] = float(abs(inv_entry * k - 1.0))

        a = math.sqrt(k) * minv_e
        N = sol.alphas[j] * np.outer(a, a)
        lhs = Rj.T @ (Rj @ N)
        rhs = np.outer(e, N[j]) / inv_entry
        trace_total += np.trace(lhs)
        scale = max(np.linalg.norm(lhs), np.linalg.norm(rhs), 1e-300)
        report.structure_residuals[j] = float(np.linalg.norm(lhs - rhs) / scale)
        # the min-equality compares across indices, so restore the original
        # variable: e_j' N_j e_j and 1/(e_j' M_j^{-1} e_j) pick up lambda_j^2
        weight_total += N[j, j] * lam * lam
        weighted_sum += N[j, j] / inv_entry
        kmin = min(kmin, 1.0 / inv_entry / lam / lam)
    report.trace_residual = float(abs(trace_total - 1.0))
    report.min_equality_residuals = (
        float(abs(kmin * weight_total - 1.0)),
        float(abs(weighted_sum - 1.0)),
    )
    return report
