"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s to see them all;
a FAIL also fails the test).  Desk scale: the whole module stays well
under two minutes.
"""

import math
import time

import numpy as np
import pytest

from chebextremal import (
    Polynomial,
    ProblemSpec,
    alpha_weights,
    dual_moments,
    duality_certificate,
    l2_norms,
    monic_orthopolys,
    oracle_bracket,
    solve,
    sup_sum_squares,
    support_measure,
    verify_solution,
)
from closed_forms import (
    chebyshev_u_value,
    closed_form_first_full,
    closed_form_second_full,
    closed_form_second_pair,
    monomial,
    threshold_index,
)

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)

GOLDEN_CASES = (
    [(b, lambda b: 16.0 * b**-6) for b in (0.8, 1.0, SQRT2)]
    + [(b, lambda b: 4.0 / (b * b * (b * b - 1.0))) for b in (1.5, 1.6, SQRT3)]
    + [(b, lambda b: (b * b - 1.0) / (b * b * (b * b - 2.0))) for b in (SQRT3, 2.0, 3.0)]
)

AGREEMENT_BS = [0.5, 1.0, 1.4, 1.45, 1.6, 1.75, 1.9, 2.0, 3.0]

ORACLE_INSTANCES = [
    ((1, 2), 1.0),
    ((1, 2), 2.0),
    ((1, 2, 3), 1.0),
    ((1, 2, 3), 1.6),
    ((1, 2, 3), 2.0),
    ((2, 3), 1.0),
    ((2, 3), 2.0),
    ((1, 3), 1.5),
]

CERTIFICATE_BS = [0.5, 1.0, 1.5, 2.0, 3.0]


def _first_kind_specs():
    """Every first-kind instance exercised by the golden, agreement,
    oracle, and certificate criteria."""
    specs = [ProblemSpec("first", (1, 2, 3), b) for b, _ in GOLDEN_CASES]
    specs += [
        ProblemSpec("first", tuple(range(1, n + 1)), b)
        for n in range(1, 9)
        for b in AGREEMENT_BS
    ]
    specs += [ProblemSpec("first", idx, b) for idx, b in ORACLE_INSTANCES]
    specs += [
        ProblemSpec("first", tuple(range(1, n + 1)), b)
        for n in range(1, 9)
        for b in CERTIFICATE_BS
    ]
    return specs


def _report(tag, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} [{tag}] {detail}")
    assert ok, f"{tag}: {detail}"


def test_01_golden_objective_values():
    worst = 0.0
    for b, formula in GOLDEN_CASES:
        sol = solve(ProblemSpec("first", (1, 2, 3), b))
        expected = formula(b)
        worst = max(worst, abs(sol.objective - expected) / abs(expected))
    # adjacent case formulas agree at the shared boundaries
    boundary = max(
        abs(16.0 * SQRT2**-6 - 4.0 / (2.0 * 1.0)) / (16.0 * SQRT2**-6),
        abs(4.0 / (3.0 * 2.0) - 2.0 / 3.0) / (2.0 / 3.0),
    )
    ok = worst <= 1e-9 and boundary <= 1e-9
    _report(
        "1 golden-values",
        ok,
        f"objective rel err {worst:.2e}, boundary agreement {boundary:.2e} (tol 1e-9)",
    )


def test_02_closed_form_matches_general_solver():
    worst_obj = 0.0
    worst_coeff = 0.0
    for n in range(1, 9):
        for b in AGREEMENT_BS:
            cf = closed_form_first_full(n, b)
            gen = solve(ProblemSpec("first", tuple(range(1, n + 1)), b))
            worst_obj = max(
                worst_obj, abs(cf.objective - gen.objective) / abs(gen.objective)
            )
            for j in range(1, n + 1):
                diff = monomial(cf.polys[j], n + 1) - monomial(gen.polys[j], n + 1)
                worst_coeff = max(worst_coeff, float(np.max(np.abs(diff))))
    ok = worst_obj <= 1e-9 and worst_coeff <= 1e-8
    _report(
        "2 closed-form-vs-solver",
        ok,
        f"n<=8 x 9 widths: objective rel {worst_obj:.2e} (tol 1e-9), "
        f"coeff abs {worst_coeff:.2e} (tol 1e-8)",
    )


def test_03_oracle_equivalence():
    worst_gap = 0.0
    worst_time = 0.0
    ok = True
    for idx, b in ORACLE_INSTANCES:
        spec = ProblemSpec("first", idx, b)
        sol = solve(spec)
        start = time.perf_counter()
        result = oracle_bracket(spec)
        elapsed = time.perf_counter() - start
        tol = 1e-3 * max(1.0, abs(sol.objective))
        gap = max(sol.objective - result.lower, result.upper - sol.objective)
        worst_gap = max(worst_gap, gap / tol)
        worst_time = max(worst_time, elapsed)
        ok = ok and gap <= tol and elapsed <= 10.0
    _report(
        "3 oracle-equivalence",
        ok,
        f"8 instances, bracket: worst gap {worst_gap:.2f}x tolerance, "
        f"slowest run {worst_time:.1f}s (cap 10s)",
    )


def test_04_feasibility_and_attainment():
    worst_sup = 0.0
    worst_attain = 0.0
    for spec in _first_kind_specs():
        report = verify_solution(solve(spec), spec)
        worst_sup = max(worst_sup, report.constraint_sup.sup - 1.0)
        worst_attain = max(worst_attain, report.support_attainment)
    ok = worst_sup <= 1e-8 and worst_attain <= 1e-8
    _report(
        "4 feasibility-attainment",
        ok,
        f"sup excess {worst_sup:.2e}, support attainment {worst_attain:.2e} (tol 1e-8)",
    )


def test_05_duality_certificate():
    worst_eq = 0.0
    worst_id = 0.0
    for n in range(1, 17):
        for b in CERTIFICATE_BS:
            spec = ProblemSpec("first", tuple(range(1, n + 1)), b)
            cert = duality_certificate(solve(spec), spec)
            assert cert.ok
            worst_eq = max(
                worst_eq,
                cert.trace_residual,
                max(cert.min_equality_residuals),
            )
            worst_id = max(worst_id, max(cert.norm_identity_residuals.values()))
    ok = worst_eq <= 1e-8 and worst_id <= 1e-9
    _report(
        "5 duality-certificate",
        ok,
        f"n<=16, 5 widths: equality residuals {worst_eq:.2e} (tol 1e-8), "
        f"norm identity {worst_id:.2e} (tol 1e-9)",
    )


def test_06_alpha_telescoping_and_orthogonality():
    worst_alpha = 0.0
    worst_orth = 0.0
    for spec in _first_kind_specs():
        n = spec.n
        cm = dual_moments(spec)
        alphas = alpha_weights(cm, n)
        worst_alpha = max(worst_alpha, abs(sum(alphas) - 1.0))
        measure = support_measure(cm)
        pts = np.asarray(measure.points)
        wts = np.asarray(measure.weights)
        polys = monic_orthopolys(cm, n)
        ks = [1.0] + l2_norms(cm, n)
        vals = np.vstack([p(pts) for p in polys])
        gram = (vals * wts) @ vals.T
        for i in range(n + 1):
            for j in range(n + 1):
                if i == j:
                    worst_orth = max(worst_orth, abs(gram[i, i] - ks[i]) / ks[i])
                else:
                    worst_orth = max(worst_orth, abs(gram[i, j]) / max(ks[i], ks[j]))
    ok = worst_alpha <= 1e-12 and worst_orth <= 1e-9
    _report(
        "6 alpha-and-orthogonality",
        ok,
        f"alpha sum defect {worst_alpha:.2e} (tol 1e-12), "
        f"orthogonality defect {worst_orth:.2e} (tol 1e-9)",
    )


def _bisect_jumps(n, lo, hi):
    bs = np.linspace(lo, hi, 4001)
    ks = [threshold_index(n, float(b), "first") for b in bs]
    jumps = []
    for i in range(len(bs) - 1):
        if ks[i] != ks[i + 1]:
            a, c = float(bs[i]), float(bs[i + 1])
            ka = ks[i]
            while c - a > 1e-10:
                mid = 0.5 * (a + c)
                if threshold_index(n, mid, "first") == ka:
                    a = mid
                else:
                    c = mid
            jumps.append(0.5 * (a + c))
    return jumps


def test_07_phase_diagram_jump_points():
    """Successive structural thresholds sqrt(2), sqrt(3), sqrt(2+sqrt(2)),
    sqrt((5+sqrt(5))/2).  A degree-4 family exhibits exactly the first
    three jumps (its phase runs 4..1); the fourth threshold is the next
    member of the same sequence and appears once the top degree reaches 5,
    so it is located on the degree-5 phase function.
    """
    targets = [SQRT2, SQRT3, math.sqrt(2.0 + SQRT2), math.sqrt((5.0 + math.sqrt(5.0)) / 2.0)]
    jumps4 = _bisect_jumps(4, 1.2, 2.0)
    jumps5 = _bisect_jumps(5, 1.2, 2.0)
    ok = len(jumps4) == 3 and len(jumps5) == 4
    worst = 0.0
    if ok:
        for found, target in zip(jumps4, targets[:3]):
            worst = max(worst, abs(found - target))
        for found, target in zip(jumps5, targets):
            worst = max(worst, abs(found - target))
        ok = worst <= 1e-9
    _report(
        "7 phase-diagram",
        ok,
        f"n=4 jumps at first three thresholds, n=5 adds the fourth; "
        f"worst offset {worst:.2e} (tol 1e-9)",
    )


def test_08_second_kind():
    worst = 0.0
    # pair, narrow branch: the optimum is the squared leading coefficient
    # of U_n(x/b)/b, i.e. 2^{2n} b^{-(2n+2)}
    for n, b in [(2, 1.0), (3, 1.2)]:
        sol = closed_form_second_pair(n, b)
        expected = 2.0 ** (2 * n) * b ** (-(2 * n + 2))
        worst = max(worst, abs(sol.objective - expected) / expected)
    # pair, wide branch
    for n, b in [(2, 2.0), (3, 2.0)]:
        sol = closed_form_second_pair(n, b)
        expected = (2.0 / b) ** (2 * (n - 1)) / (b * b - 1.0)
        worst = max(worst, abs(sol.objective - expected) / expected)
    # full range at wide widths
    for n in range(0, 5):
        for b in (2.0, 3.0):
            sol = closed_form_second_full(n, b)
            t = b / 2.0
            expected = chebyshev_u_value(n, t) / (b * chebyshev_u_value(n + 1, t))
            worst = max(worst, abs(sol.objective - expected) / expected)
    values_ok = worst <= 1e-9

    # weighted feasibility of every output above
    worst_sup = 0.0
    outputs = [closed_form_second_pair(n, b) for n, b in [(2, 1.0), (3, 1.2), (2, 2.0), (3, 2.0)]]
    outputs += [closed_form_second_full(n, b) for n in range(0, 5) for b in (2.0, 3.0)]
    for sol in outputs:
        family = list(sol.polys.values())
        b = sol.dual_moments.b
        worst_sup = max(worst_sup, sup_sum_squares(family, weighted=True).sup - 1.0)
    feasible_ok = worst_sup <= 1e-8

    # oracle agreement on the desk-scale cases
    worst_gap = 0.0
    oracle_cases = [ProblemSpec("second", (n - 1, n), b) for n, b in [(2, 1.0), (3, 1.2), (2, 2.0), (3, 2.0)]]
    oracle_cases += [
        ProblemSpec("second", tuple(range(0, n + 1)), b)
        for n in range(0, 4)
        for b in (2.0, 3.0)
    ]
    for spec in oracle_cases:
        sol = solve(spec)
        result = oracle_bracket(spec)
        tol = 1e-3 * max(1.0, abs(sol.objective))
        gap = max(sol.objective - result.lower, result.upper - sol.objective)
        worst_gap = max(worst_gap, gap / tol)
    oracle_ok = worst_gap <= 1.0

    ok = values_ok and feasible_ok and oracle_ok
    _report(
        "8 second-kind",
        ok,
        f"values rel {worst:.2e} (tol 1e-9), sup excess {worst_sup:.2e} (tol 1e-8), "
        f"oracle worst gap {worst_gap:.2f}x tolerance",
    )


def test_09_non_invariance_witness():
    narrow = solve(ProblemSpec("first", (1, 2, 3), 1.0))
    # the same Chebyshev coefficients on [-2, 2] give x -> p(x/2)
    rescaled = [Polynomial(narrow.polys[j].coeffs, 2.0) for j in (1, 2, 3)]
    sup = sup_sum_squares(rescaled).sup
    feasible = [p * (1.0 / math.sqrt(sup)) for p in rescaled]
    value = sum(monomial(p, j + 1)[j] ** 2 for j, p in zip((1, 2, 3), feasible))
    optimum = 0.375
    margin = optimum - value
    ok = margin >= 1e-3
    _report(
        "9 non-invariance",
        ok,
        f"rescaled narrow-interval family reaches {value:.6f} on [-2,2], "
        f"{margin:.4f} below the optimum {optimum} (needs >= 1e-3)",
    )
