"""Tests for the first-kind solver, closed forms, and verification."""

import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chebextremal import (
    InvalidInputError,
    Polynomial,
    ProblemSpec,
    active_set,
    alpha_weights,
    dual_moments,
    duality_certificate,
    solve,
    sup_sum_squares,
    verify_solution,
)
from closed_forms import (
    Monomial,
    chebyshev_t,
    chebyshev_u_value,
    closed_form_first_full,
    closed_form_first_pair,
    monomial,
    reference_phase_index,
    stretched,
    threshold_index,
)

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)

B_GRID = [0.5, 1.0, 1.4, 1.45, 1.6, 1.75, 1.9, 2.0, 3.0]


class TestProblemSpec:
    def test_indices_sorted_and_deduplicated(self):
        spec = ProblemSpec("first", (3, 1, 3, 2), 1.0)
        assert spec.indices == (1, 2, 3)
        assert spec.n == 3

    @pytest.mark.parametrize(
        "indices",
        [
            (2.5, 3),
            (1, 2, 3.000001),
            np.array([1.5, 2.0]),
            (1, math.inf),
            (math.nan,),
            ("x",),
            (None, 2),
            3,
        ],
    )
    def test_non_integral_index_rejected(self, indices):
        with pytest.raises(InvalidInputError, match="integers"):
            ProblemSpec("first", indices, 1.0)

    def test_integral_index_types_accepted(self):
        assert ProblemSpec("first", np.array([1, 2, 3]), 2.0).indices == (1, 2, 3)
        assert ProblemSpec("first", (np.int64(2), 3.0), 2.0).indices == (2, 3)

    def test_first_kind_rejects_zero_degree(self):
        with pytest.raises(InvalidInputError):
            ProblemSpec("first", (0, 1), 1.0)

    def test_second_kind_allows_zero_degree(self):
        assert ProblemSpec("second", (0, 1), 1.0).n == 1

    def test_bad_kind(self):
        with pytest.raises(InvalidInputError):
            ProblemSpec("third", (1,), 1.0)

    def test_bad_half_width(self):
        for b in (10.5, "2", None):
            with pytest.raises(InvalidInputError):
                ProblemSpec("first", (1,), b)

    def test_empty_indices(self):
        with pytest.raises(InvalidInputError):
            ProblemSpec("first", (), 1.0)

    def test_degree_caps(self):
        # the second kind solves through the first kind on I + 1, so both
        # kinds stop at dual degree 31
        assert ProblemSpec("first", range(1, 32), 2.0).n == 31
        assert ProblemSpec("second", range(0, 31), 2.0).n == 30
        with pytest.raises(InvalidInputError):
            ProblemSpec("first", (32,), 2.0)
        with pytest.raises(InvalidInputError):
            ProblemSpec("second", range(0, 32), 2.0)

    @pytest.mark.parametrize(
        "kind, indices, b",
        # each optimum overflows a double, so solve could not represent it
        [("first", (30,), 1e-6), ("first", (1,), 1e-300), ("second", (0,), 1e-200)],
    )
    def test_half_width_whose_optimum_overflows_is_rejected(self, kind, indices, b):
        with pytest.raises(InvalidInputError):
            ProblemSpec(kind, indices, b)

    def test_smallest_half_widths_still_solve(self):
        # 1/b^2 = 1e300 and 4^29/b^60 ~ 2.5e299 are finite optima
        assert solve(ProblemSpec("first", (1,), 1e-150)).objective == pytest.approx(1e300)
        sol = solve(ProblemSpec("first", (30,), 2e-5))
        assert sol.objective == pytest.approx(4.0**29 / 2e-5**60, rel=1e-9)


class TestDualMoments:
    def test_singleton_clamps_everything(self):
        cm = dual_moments(ProblemSpec("first", (4,), 1.3))
        assert cm.p == (0.5,) * 7 + (1.0,)

    def test_full_set_small_interval(self):
        cm = dual_moments(ProblemSpec("first", (1, 2, 3), 1.0))
        assert cm.p == (0.5,) * 5 + (1.0,)

    def test_full_pair_wide_interval(self):
        cm = dual_moments(ProblemSpec("first", (1, 2), 2.0))
        assert cm.p == (0.5, 0.75, 0.5, 1.0)

    def test_odd_positions_are_half_and_last_is_one(self):
        for idx in [(1, 2, 3, 4), (2, 5), (1, 4, 6)]:
            for b in (0.8, 1.5, 2.7):
                cm = dual_moments(ProblemSpec("first", idx, b))
                assert cm.p[-1] == 1.0
                assert all(cm.p[i] == 0.5 for i in range(0, len(cm.p), 2))
                assert all(0.5 <= cm.p[i] <= 1.0 for i in range(1, len(cm.p), 2))

    def test_moment_rounding_to_one_is_rejected(self):
        # b^{-38} vanishes against 1, so p_22 rounds to 1 before p_60
        spec = ProblemSpec("first", (11, 30), 9.312980080348801)
        with pytest.raises(InvalidInputError, match="m = 11"):
            dual_moments(spec)


class TestActiveSet:
    def test_small_interval_only_top(self):
        spec = ProblemSpec("first", (1, 2, 3), 1.0)
        assert active_set(dual_moments(spec), spec) == (3,)

    def test_wide_interval_everything(self):
        spec = ProblemSpec("first", (1, 2, 3), 2.0)
        assert active_set(dual_moments(spec), spec) == (1, 2, 3)

    def test_pair_small_interval(self):
        spec = ProblemSpec("first", (2, 3), 1.0)
        assert active_set(dual_moments(spec), spec) == (3,)

    def test_always_contains_top_degree(self):
        for idx in [(1, 3), (2, 4), (1, 2, 5)]:
            for b in (0.7, 1.5, 2.5):
                spec = ProblemSpec("first", idx, b)
                assert spec.n in active_set(dual_moments(spec), spec)


class TestAlphaWeights:
    def test_singleton(self):
        cm = dual_moments(ProblemSpec("first", (4,), 2.0))
        alphas = alpha_weights(cm, 4)
        assert alphas[:3] == [0.0, 0.0, 0.0]
        assert alphas[3] == pytest.approx(1.0, abs=1e-15)

    def test_pair_wide_interval(self):
        cm = dual_moments(ProblemSpec("first", (1, 2), 2.0))
        alphas = alpha_weights(cm, 2)
        assert alphas[0] == pytest.approx(2.0 / 3.0, rel=1e-14)
        assert alphas[1] == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_telescoping_sum(self):
        for idx in [(1, 2, 3), (2, 3), (1, 3), (1, 2, 3, 4, 5, 6)]:
            for b in (0.6, 1.5, 2.2, 3.0):
                spec = ProblemSpec("first", idx, b)
                alphas = alpha_weights(dual_moments(spec), spec.n)
                assert sum(alphas) == pytest.approx(1.0, abs=1e-12)
                assert all(a >= 0.0 for a in alphas)


class TestThresholdIndex:
    def test_example_phases(self):
        assert threshold_index(3, 1.0, "first") == 3
        assert threshold_index(3, 1.6, "first") == 2
        assert threshold_index(3, 2.0, "first") == 1

    @pytest.mark.parametrize("n", range(1, 9))
    def test_wide_interval_gives_one(self, n):
        for b in (2.0, 2.5, 3.0, 10.0):
            assert threshold_index(n, b, "first") == 1

    @pytest.mark.parametrize("n", range(0, 7))
    def test_second_kind_narrow_interval(self, n):
        assert threshold_index(n, 1.0, "second") == n + 1

    def test_smallest_n_per_kind(self):
        with pytest.raises(InvalidInputError):
            threshold_index(0, 1.0, "first")
        with pytest.raises(InvalidInputError):
            threshold_index(-1, 1.0, "second")
        assert threshold_index(1, 1.0, "first") == 1
        assert threshold_index(0, 1.0, "second") == 1

    def test_cap_is_the_problem_spec_cap(self):
        # the second kind solves through the first on I + 1, so both
        # ProblemSpec and threshold_index stop it one degree early
        with pytest.raises(InvalidInputError):
            threshold_index(31, 1.0, "second")
        with pytest.raises(InvalidInputError):
            ProblemSpec("second", (31,), 1.0)
        with pytest.raises(InvalidInputError):
            threshold_index(32, 1.0, "first")
        with pytest.raises(InvalidInputError):
            ProblemSpec("first", (32,), 1.0)
        assert threshold_index(30, 1.0, "second") == 31
        assert threshold_index(31, 1.0, "first") == 31
        # ProblemSpec rejects this b (the optimum overflows) and this n
        with pytest.raises(InvalidInputError):
            threshold_index(3, 1e-300, "first")
        with pytest.raises(InvalidInputError):
            threshold_index(2.5, 1.0, "first")

    def test_second_kind_wide_interval_floors_at_one(self):
        for n in range(0, 7):
            for b in (2.0, 3.0, 10.0):
                assert threshold_index(n, b, "second") == 1

    def test_nonincreasing_in_b(self):
        for n in (3, 4, 5):
            for kind in ("first", "second"):
                ks = [threshold_index(n, float(b), kind)
                      for b in np.linspace(0.5, 3.0, 400)]
                assert all(a >= c for a, c in zip(ks, ks[1:]))

    def test_jump_points_up_to_n4(self):
        targets = [SQRT2, SQRT3, math.sqrt(2.0 + SQRT2)]
        jumps = _locate_jumps(4, "first", 1.0, 2.0)
        assert len(jumps) == 3
        for found, target in zip(jumps, targets):
            assert found == pytest.approx(target, abs=1e-9)

    def test_fourth_family_jump_appears_at_n5(self):
        jumps = _locate_jumps(5, "first", 1.0, 2.0)
        assert len(jumps) == 4
        assert jumps[3] == pytest.approx(math.sqrt((5.0 + math.sqrt(5.0)) / 2.0), abs=1e-9)


def _clenshaw(coeffs, t):
    """sum_k coeffs[k] T_k(t) by Clenshaw's recurrence in mpmath arithmetic."""
    b1 = b2 = mpmath.mpf(0)
    for c in reversed(coeffs[1:]):
        b1, b2 = 2 * t * b1 - b2 + mpmath.mpf(c), b1
    return t * b1 - b2 + (mpmath.mpf(coeffs[0]) if coeffs else 0)


def _locate_jumps(n, kind, lo, hi, coarse=4001):
    """All discontinuities of the phase index on (lo, hi), bisected to 1e-10."""
    bs = np.linspace(lo, hi, coarse)
    ks = [threshold_index(n, float(b), kind) for b in bs]
    jumps = []
    for i in range(len(bs) - 1):
        if ks[i] != ks[i + 1]:
            a, c = float(bs[i]), float(bs[i + 1])
            ka = ks[i]
            while c - a > 1e-10:
                mid = 0.5 * (a + c)
                if threshold_index(n, mid, kind) == ka:
                    a = mid
                else:
                    c = mid
            jumps.append(0.5 * (a + c))
    return jumps


class TestSolveFirstKind:
    def test_singleton_is_rescaled_chebyshev(self):
        spec = ProblemSpec("first", (3,), 1.0)
        sol = solve(spec)
        np.testing.assert_allclose(monomial(sol.polys[3]), (0.0, -3.0, 0.0, 4.0), atol=1e-12)
        assert sol.objective == pytest.approx(16.0, rel=1e-12)

    def test_example_full_set_wide(self):
        sol = solve(ProblemSpec("first", (1, 2, 3), 2.0))
        assert sol.objective == pytest.approx(0.375, rel=1e-12)

    def test_example_pair(self):
        sol = solve(ProblemSpec("first", (2, 3), 2.0))
        assert sol.objective == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_inactive_indices_carry_zero_polynomials(self):
        sol = solve(ProblemSpec("first", (1, 2, 3), 1.0))
        assert sol.polys[1].is_zero
        assert sol.polys[2].is_zero
        assert not sol.polys[3].is_zero

    def test_objective_is_sum_of_squared_leading_coefficients(self):
        for idx in [(1, 2, 3), (2, 3), (1, 3), (2, 4)]:
            for b in (0.8, 1.5, 2.3):
                sol = solve(ProblemSpec("first", idx, b))
                total = sum(monomial(p, j + 1)[j] ** 2 for j, p in sol.polys.items())
                assert total == pytest.approx(sol.objective, rel=1e-12)

    def test_positive_leading_signs(self):
        sol = solve(ProblemSpec("first", (1, 2, 3, 4), 2.1))
        for p in sol.polys.values():
            if not p.is_zero:
                assert p.leading > 0.0

    @pytest.mark.parametrize("b", [1.0, SQRT2, 1.7, SQRT3, 2.0, 3.0])
    def test_singleton_invariance(self, b):
        """The one-polynomial solution is always the rescaled Chebyshev."""
        sol = solve(ProblemSpec("first", (4,), b))
        expected = stretched(chebyshev_t(4), b)
        np.testing.assert_allclose(monomial(sol.polys[4]), expected.coef,
                                   rtol=1e-12, atol=1e-12)

    def test_non_invariance_for_richer_sets(self):
        """Rescaling the narrow-interval family does not stay optimal."""
        narrow = solve(ProblemSpec("first", (1, 2, 3), 1.0))
        # the same Chebyshev coefficients on [-2, 2] give x -> p(x/2)
        rescaled = [Polynomial(narrow.polys[j].coeffs, 2.0) for j in (1, 2, 3)]
        sup = sup_sum_squares(rescaled).sup
        feasible_value = sum(monomial(p, j + 1)[j] ** 2 for j, p in zip((1, 2, 3), rescaled)) / sup
        wide = solve(ProblemSpec("first", (1, 2, 3), 2.0))
        assert feasible_value < wide.objective - 1e-3

    def test_objective_nonincreasing_in_b(self):
        for idx in [(1, 2, 3), (2, 3), (1, 3)]:
            values = [solve(ProblemSpec("first", idx, float(b))).objective
                      for b in np.linspace(0.5, 3.0, 20)]
            assert all(u >= v - 1e-12 for u, v in zip(values, values[1:]))

    def test_equimax_property(self):
        from chebextremal import l2_norms
        for idx in [(1, 2, 3), (1, 3), (2, 4), (1, 2, 3, 4, 5)]:
            for b in (0.7, 1.6, 2.4):
                spec = ProblemSpec("first", idx, b)
                sol = solve(spec)
                ks = l2_norms(sol.dual_moments, spec.n)
                k_top = ks[spec.n - 1]
                for j in idx:
                    if j in sol.active_set:
                        assert ks[j - 1] == pytest.approx(k_top, rel=1e-9)
                    else:
                        assert ks[j - 1] >= k_top * (1.0 - 1e-12)

    def test_weights_vanish_off_active_set(self):
        for idx in [(1, 2, 3), (1, 3), (2, 4, 5)]:
            for b in (0.7, 1.6, 2.4):
                sol = solve(ProblemSpec("first", idx, b))
                for j in idx:
                    if j not in sol.active_set:
                        assert sol.alphas[j] == 0.0
                        assert sol.polys[j].is_zero

    def test_objective_identity(self):
        """objective = sum over active of alpha_j / k_j = 1 / k_n."""
        from chebextremal import l2_norms
        for idx in [(1, 2, 3), (2, 3), (1, 4, 6)]:
            for b in (0.8, 1.7, 2.5):
                spec = ProblemSpec("first", idx, b)
                sol = solve(spec)
                ks = l2_norms(sol.dual_moments, spec.n)
                mixed = sum(sol.alphas[j] / ks[j - 1] for j in sol.active_set)
                assert mixed == pytest.approx(sol.objective, rel=1e-10)
                assert 1.0 / ks[spec.n - 1] == pytest.approx(sol.objective, rel=1e-10)


class TestClosedFormFirstFull:
    def test_case_b_value(self):
        b = 1.6
        sol = closed_form_first_full(3, b)
        assert sol.objective == pytest.approx(4.0 / (b * b * (b * b - 1.0)), rel=1e-12)
        assert sol.phase_index == 2

    def test_boundary_value_agreement(self):
        sol = closed_form_first_full(3, SQRT3)
        case_b = 4.0 / (3.0 * 2.0)
        case_c = (3.0 - 1.0) / (3.0 * (3.0 - 2.0))
        assert case_b == pytest.approx(case_c, rel=1e-15)
        assert sol.objective == pytest.approx(case_b, rel=1e-9)

    def test_k1_value_small_example(self):
        # U_1(1.5) = 3, U_2(1.5) = 8
        sol = closed_form_first_full(2, 3.0)
        assert sol.phase_index == 1
        assert sol.objective == pytest.approx(1.0 / 8.0, rel=1e-13)

    @pytest.mark.parametrize("b", B_GRID)
    @pytest.mark.parametrize("n", range(1, 9))
    def test_agreement_with_general_solver(self, n, b):
        cf = closed_form_first_full(n, b)
        gen = solve(ProblemSpec("first", tuple(range(1, n + 1)), b))
        assert cf.objective == pytest.approx(gen.objective, rel=1e-9)
        for j in range(1, n + 1):
            cc, gc = monomial(cf.polys[j], n + 1), monomial(gen.polys[j], n + 1)
            for i in range(n + 1):
                assert abs(cc[i] - gc[i]) <= 1e-8

    def test_case_b_displayed_polynomials(self):
        """The two printed forms of the top polynomial coincide, and the
        closed form reproduces them."""
        for b in (1.5, 1.6):
            t1 = stretched(chebyshev_t(1), b)
            t2 = stretched(chebyshev_t(2), b)
            t3 = stretched(chebyshev_t(3), b)
            x = Monomial([0.0, 1.0])
            form_a = (b / (b * b - 1.0)) * (x * t2 - ((b * b - 1.0) / b) * t1)
            form_b = (1.0 / (2.0 * (b * b - 1.0))) * (b * b * t3 - (b * b - 2.0) * t1)
            np.testing.assert_allclose(form_a.coef, form_b.coef, atol=1e-12)
            sol = closed_form_first_full(3, b)
            np.testing.assert_allclose(monomial(sol.polys[3]), form_b.coef, atol=1e-12)
            p2 = (b * math.sqrt(b * b - 2.0) / (b * b - 1.0)) * t2
            np.testing.assert_allclose(monomial(sol.polys[2]), p2.coef, atol=1e-12)
            assert sol.polys[1].is_zero

    def test_wide_interval_second_kind_shape(self):
        """For b >= 2 the family reduces to combinations of U_l(x/2)."""
        from closed_forms import chebyshev_u
        n, b = 3, 2.5
        sol = closed_form_first_full(n, b)
        t = b / 2.0
        for l in range(1, n + 1):
            beta = math.sqrt(chebyshev_u_value(2 * n - 2 * l + 1, t)) / (
                math.sqrt(b) * chebyshev_u_value(n, t)
            )
            ratio = chebyshev_u_value(n + 1, t) / chebyshev_u_value(n - 1, t)
            shape = stretched(chebyshev_u(l), 2.0)
            if l >= 2:
                shape = shape - ratio * stretched(chebyshev_u(l - 2), 2.0)
            expected = beta * shape
            np.testing.assert_allclose(monomial(sol.polys[l]), expected.coef, atol=1e-12)

    def test_boundary_continuity_at_jumps(self):
        """At a structural threshold the adjacent phase formulas agree."""
        n = 4
        for b in (SQRT2, SQRT3, math.sqrt(2.0 + SQRT2)):
            t = b / 2.0
            k_hi = threshold_index(n, b, "first")
            values = []
            for k in (k_hi, k_hi - 1):
                values.append(
                    2.0 ** (2 * k - 2)
                    / b ** (2 * k - 1)
                    * chebyshev_u_value(n - k, t)
                    / chebyshev_u_value(n - k + 1, t)
                )
            assert values[0] == pytest.approx(values[1], rel=1e-9)


class TestClosedFormFirstPair:
    def test_narrow_interval(self):
        sol = closed_form_first_pair(3, 1.0)
        assert sol.objective == pytest.approx(16.0, rel=1e-13)
        assert sol.polys[2].is_zero

    def test_wide_interval(self):
        sol = closed_form_first_pair(2, 2.0)
        assert sol.objective == pytest.approx(1.0 / 3.0, rel=1e-13)

    def test_branches_agree_at_sqrt2(self):
        n = 2
        narrow = 2.0 ** (2 * n - 2) * SQRT2 ** (-2 * n)
        wide = 2.0 ** (2 * n - 4) * SQRT2 ** (-(2 * n - 4)) / (2.0 - 1.0)
        assert narrow == pytest.approx(wide, rel=1e-14)
        sol = closed_form_first_pair(n, SQRT2)
        assert sol.objective == pytest.approx(narrow, rel=1e-12)

    @pytest.mark.parametrize("b", B_GRID)
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_agreement_with_general_solver(self, n, b):
        cf = closed_form_first_pair(n, b)
        gen = solve(ProblemSpec("first", (n - 1, n), b))
        assert cf.objective == pytest.approx(gen.objective, rel=1e-9)
        for j in (n - 1, n):
            cc, gc = monomial(cf.polys[j], n + 1), monomial(gen.polys[j], n + 1)
            for i in range(n + 1):
                assert abs(cc[i] - gc[i]) <= 1e-8


class TestVerifySolution:
    def test_chebyshev_case(self):
        spec = ProblemSpec("first", (3,), 1.0)
        report = verify_solution(solve(spec), spec)
        assert report.passed
        assert report.constraint_sup.sup == pytest.approx(1.0, abs=1e-10)
        assert report.duality_residual <= 1e-10

    def test_example_case_c(self):
        spec = ProblemSpec("first", (1, 2, 3), 2.0)
        report = verify_solution(solve(spec), spec)
        assert report.passed
        assert report.objective == pytest.approx(0.375, rel=1e-12)
        assert report.support_attainment <= 1e-8
        assert report.equimax_spread <= 1e-9

    def test_scaled_family_fails_feasibility(self):
        spec = ProblemSpec("first", (1, 2, 3), 2.0)
        sol = solve(spec)
        scaled = replace(sol, polys={j: 1.01 * p for j, p in sol.polys.items()})
        report = verify_solution(scaled, spec)
        assert not report.checks["feasible"]
        assert report.constraint_sup.sup == pytest.approx(1.0201, rel=1e-10)

    def test_plateau_family_is_feasible_to_rounding(self):
        # in monomial coefficients this family's exact sup was 1 + 7.03e-9
        # and a Horner scan once read 1 + 1.065e-8; as Chebyshev series its
        # exact sup is 1 + 2.8e-15
        spec = ProblemSpec("first", range(1, 31), 2.005474766178676)
        sol = solve(spec)
        report = verify_solution(sol, spec)
        assert report.checks["feasible"]
        with mpmath.workdps(50):
            t = mpmath.mpf(report.constraint_sup.argmax) / mpmath.mpf(spec.b)
            exact = sum(_clenshaw(p.coeffs, t) ** 2 for p in sol.polys.values())
            assert abs(report.constraint_sup.sup - exact) <= 2e-9



@st.composite
def _first_kind_specs(draw):
    n = draw(st.integers(1, 31))
    below = draw(st.sets(st.integers(1, n - 1))) if n > 1 else set()
    return ProblemSpec("first", below | {n}, draw(st.floats(1e-3, 2.2)))


@settings(max_examples=200, deadline=None)
@given(spec=_first_kind_specs())
# in monomial coefficients: sup - 1 = 2.7e-5
@example(spec=ProblemSpec("first", (29, 30), 1.2504396527030315))
def test_any_first_kind_set_verifies(spec):
    assert verify_solution(solve(spec), spec).passed


@st.composite
def _accepted_specs(draw):
    """Any index set of either kind up to the cap, b log-uniform in [1e-3, 10]."""
    kind = draw(st.sampled_from(["first", "second"]))
    low, cap = (1, 31) if kind == "first" else (0, 30)
    n = draw(st.integers(low, cap))
    below = draw(st.sets(st.integers(low, n - 1))) if n > low else set()
    b = min(math.exp(draw(st.floats(math.log(1e-3), math.log(10.0)))), 10.0)
    return ProblemSpec(kind, below | {n}, b)


@settings(max_examples=300, deadline=None)
@given(spec=_accepted_specs())
# both have alpha > 0 below their active set (9,) and (3,), so the phase
# index is not min(active_set); it counts in the lift I + 1
@example(spec=ProblemSpec("second", (0, 9), 6.878622827603265))
@example(spec=ProblemSpec("second", (2, 3, 15), 7.688380830499254))
def test_phase_index_is_the_lowest_live_dual_index(spec):
    # ROADMAP item 3 (exact complements in the canonical moments) is still
    # open: some accepted specs raise "rounds to 1" in the dual recurrence
    try:
        sol = solve(spec)
    except InvalidInputError as exc:
        assert "rounds to 1" in str(exc)
        return
    assert sol.phase_index == reference_phase_index(spec)
    low = 1 if spec.kind == "first" else 0
    if spec.indices == tuple(range(low, spec.n + 1)):
        assert sol.phase_index == threshold_index(spec.n, spec.b, spec.kind)


@st.composite
def _wider_interval_cases(draw):
    """An accepted spec with b log-uniform in [1e-3, 10/(1 + delta)], and delta
    log-uniform in [1e-8, 1e-2]."""
    delta = math.exp(draw(st.floats(math.log(1e-8), math.log(1e-2))))
    kind = draw(st.sampled_from(["first", "second"]))
    low, cap = (1, 31) if kind == "first" else (0, 30)
    n = draw(st.integers(low, cap))
    below = draw(st.sets(st.integers(low, n - 1))) if n > low else set()
    top = 10.0 / (1.0 + delta)
    b = min(math.exp(draw(st.floats(math.log(1e-3), math.log(top)))), top)
    return ProblemSpec(kind, below | {n}, b), delta


def _on_interval(p, b):
    """``p`` re-expressed as a Chebyshev series on [-b, b]."""
    if p.is_zero:
        return Polynomial.zero(b)
    series = np.polynomial.Chebyshev(p.coeffs, domain=[-p.b, p.b]).convert(domain=[-b, b])
    return Polynomial(tuple(series.coef), b)


@settings(max_examples=100, deadline=None)
@given(case=_wider_interval_cases())
# the family's value sits 3.3e-4, 4.1e-4, 4.0e-3 and 1.2e-3 (relative) below the optimum
@example(case=(ProblemSpec("first", (1, 2, 3), 2.0), 1e-4))
@example(case=(ProblemSpec("first", (2, 5, 9), 3.0), 1e-4))
@example(case=(ProblemSpec("first", range(1, 21), 1.5), 1e-4))
@example(case=(ProblemSpec("second", (0, 3, 5), 1.7), 1e-4))
def test_family_optimal_on_a_wider_interval_is_rejected(case):
    """The optimal family for [-b(1 + delta), b(1 + delta)], re-expressed on
    [-b, b], is suboptimal there: both checks reject it."""
    spec, delta = case
    try:
        wide = solve(ProblemSpec(spec.kind, spec.indices, min(spec.b * (1.0 + delta), 10.0)))
    except InvalidInputError as exc:
        # ROADMAP item 3: some accepted specs raise in the dual recurrence
        assert "rounds to 1" in str(exc)
        return
    kept = replace(wide, polys={j: _on_interval(p, spec.b) for j, p in wide.polys.items()})
    # the dual moments still carry the wider half-width
    with pytest.raises(InvalidInputError):
        verify_solution(kept, spec)
    with pytest.raises(InvalidInputError):
        duality_certificate(kept, spec)
    relabelled = replace(kept, dual_moments=replace(wide.dual_moments, b=spec.b))
    assert not verify_solution(relabelled, spec).passed
