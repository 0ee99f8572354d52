"""Tests for the weighted (second-kind) problem and its closed forms."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chebextremal import (
    InvalidInputError,
    ProblemSpec,
    solve,
    sup_sum_squares,
    verify_solution,
)
from closed_forms import (
    chebyshev_u,
    chebyshev_u_value,
    closed_form_first_full,
    closed_form_second_full,
    closed_form_second_pair,
    monomial,
    stretched,
)

SQRT2 = math.sqrt(2.0)

B_GRID = [0.6, 1.0, 1.2, SQRT2, 1.5, 1.7, math.sqrt(3.0), 1.9, 2.0, 2.5, 3.0]


class TestClosedFormSecondFull:
    def test_narrow_interval_unit_case(self):
        sol = closed_form_second_full(2, 1.0)
        assert sol.objective == pytest.approx(16.0, rel=1e-13)
        assert sol.phase_index == 3
        np.testing.assert_allclose(monomial(sol.polys[2]), (-1.0, 0.0, 4.0), atol=1e-13)
        assert sol.polys[0].is_zero and sol.polys[1].is_zero

    def test_wide_interval_example(self):
        # U_2(1) = 3, U_3(1) = 4
        sol = closed_form_second_full(2, 2.0)
        assert sol.phase_index == 1
        assert sol.objective == pytest.approx(3.0 / 8.0, rel=1e-13)

    @pytest.mark.parametrize("b", [0.5, 1.0, 2.0, 3.0])
    def test_degree_zero(self, b):
        sol = closed_form_second_full(0, b)
        assert sol.objective == pytest.approx(1.0 / (b * b), rel=1e-13)
        np.testing.assert_allclose(monomial(sol.polys[0]), (1.0 / b,), rtol=1e-14)

    @pytest.mark.parametrize("b", [2.0, 2.4, 3.0])
    @pytest.mark.parametrize("n", range(0, 5))
    def test_wide_interval_value_formula(self, n, b):
        t = b / 2.0
        expected = chebyshev_u_value(n, t) / (b * chebyshev_u_value(n + 1, t))
        assert closed_form_second_full(n, b).objective == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("b", [2.0, 2.5, 3.0])
    def test_wide_interval_polynomials_proportional_to_u(self, b):
        n = 3
        sol = closed_form_second_full(n, b)
        t = b / 2.0
        for l in range(0, n + 1):
            beta = math.sqrt(chebyshev_u_value(2 * n - 2 * l + 1, t)) / (
                math.sqrt(b) * chebyshev_u_value(n + 1, t)
            )
            expected = beta * stretched(chebyshev_u(l), 2.0)
            np.testing.assert_allclose(monomial(sol.polys[l]), expected.coef, atol=1e-13)

    def test_narrow_interval_single_u(self):
        for n, b in [(1, 0.9), (3, 1.2), (4, 1.0)]:
            sol = closed_form_second_full(n, b)
            expected = (1.0 / b) * stretched(chebyshev_u(n), b)
            np.testing.assert_allclose(monomial(sol.polys[n]), expected.coef, rtol=1e-13)
            for l in range(0, n):
                assert sol.polys[l].is_zero

    @pytest.mark.parametrize("b", B_GRID)
    @pytest.mark.parametrize("n", range(0, 5))
    def test_value_matches_lifted_unweighted_problem(self, n, b):
        lifted = closed_form_first_full(n + 1, b)
        assert closed_form_second_full(n, b).objective == pytest.approx(
            lifted.objective, rel=1e-12
        )

    @pytest.mark.parametrize("b", B_GRID)
    @pytest.mark.parametrize("n", range(0, 5))
    def test_verification_passes(self, n, b):
        spec = ProblemSpec("second", tuple(range(0, n + 1)), b)
        sol = closed_form_second_full(n, b)
        report = verify_solution(sol, spec)
        assert report.passed, report.checks
        assert report.constraint_sup.sup <= 1.0 + 1e-8
        assert report.support_attainment <= 1e-8

    def test_objective_is_sum_of_squared_leading_coefficients(self):
        for n, b in [(2, 1.1), (3, 1.8), (4, 2.6)]:
            sol = closed_form_second_full(n, b)
            total = sum(monomial(p, j + 1)[j] ** 2 for j, p in sol.polys.items())
            assert total == pytest.approx(sol.objective, rel=1e-12)


class TestClosedFormSecondPair:
    def test_narrow_interval_values(self):
        assert closed_form_second_pair(2, 1.0).objective == pytest.approx(16.0, rel=1e-13)
        b = 1.2
        expected = 2.0**6 * b ** (-8)  # squared leading coefficient of U_3(x/b)/b
        assert closed_form_second_pair(3, b).objective == pytest.approx(expected, rel=1e-13)

    def test_wide_interval_values(self):
        assert closed_form_second_pair(2, 2.0).objective == pytest.approx(1.0 / 3.0, rel=1e-13)
        b = 2.0
        expected = (2.0 / b) ** 4 / (b * b - 1.0)
        assert closed_form_second_pair(3, b).objective == pytest.approx(expected, rel=1e-13)

    def test_branches_agree_at_sqrt2(self):
        for n in (1, 2, 4):
            narrow = 2.0 ** (2 * n) * SQRT2 ** (-(2 * n + 2))
            wide = (2.0 / SQRT2) ** (2 * (n - 1)) / (2.0 - 1.0)
            assert narrow == pytest.approx(wide, rel=1e-13)
            sol = closed_form_second_pair(n, SQRT2)
            assert sol.objective == pytest.approx(narrow, rel=1e-12)

    def test_displayed_wide_interval_polynomials(self):
        n, b = 3, 2.2
        sol = closed_form_second_pair(n, b)
        b2 = b * b
        p_low = (math.sqrt(b2 - 2.0) / (b2 - 1.0)) * stretched(chebyshev_u(n - 1), b)
        p_top = (b / (2.0 * (b2 - 1.0))) * (
            stretched(chebyshev_u(n), b)
            - ((b2 - 2.0) / b2) * stretched(chebyshev_u(n - 2), b)
        )
        np.testing.assert_allclose(monomial(sol.polys[n - 1]), p_low.coef, atol=1e-13)
        np.testing.assert_allclose(monomial(sol.polys[n]), p_top.coef, atol=1e-13)

    def test_min_degree(self):
        with pytest.raises(InvalidInputError):
            closed_form_second_pair(0, 1.0)

    @pytest.mark.parametrize("b", B_GRID)
    @pytest.mark.parametrize("n", range(1, 5))
    def test_verification_passes(self, n, b):
        spec = ProblemSpec("second", (n - 1, n), b)
        sol = closed_form_second_pair(n, b)
        report = verify_solution(sol, spec)
        assert report.passed, report.checks

    def test_pair_consistent_with_full_for_n1(self):
        # {0, 1} is both the bottom pair and the full range
        for b in (0.9, 1.7, 2.6):
            pair = closed_form_second_pair(1, b)
            full = closed_form_second_full(1, b)
            assert pair.objective == pytest.approx(full.objective, rel=1e-13)
            for j in (0, 1):
                np.testing.assert_allclose(
                    monomial(pair.polys[j]), monomial(full.polys[j]), atol=1e-13
                )


class TestSecondKindDispatch:
    def test_full_range(self):
        spec = ProblemSpec("second", (0, 1, 2), 2.0)
        assert solve(spec).objective == pytest.approx(0.375, rel=1e-13)

    def test_pair(self):
        spec = ProblemSpec("second", (2, 3), 2.0)
        assert solve(spec).objective == pytest.approx((2.0 / 2.0) ** 4 / 3.0, rel=1e-13)

    def test_gapped_set_solves_through_lift(self):
        spec = ProblemSpec("second", (0, 2), 1.5)
        sol = solve(spec)
        assert verify_solution(sol, spec).passed
        assert sol.objective == 1.4046639231824416
        assert sol.objective == solve(ProblemSpec("first", (1, 3), 1.5)).objective

    def test_moment_rounding_names_the_callers_spec(self):
        # the lift (4, 20, 21) is what the dual recurrence sees; the error
        # must still name the spec that was passed in
        spec = ProblemSpec("second", (3, 19, 20), 6.4307446722708725)
        with pytest.raises(InvalidInputError, match="rounds to 1") as info:
            solve(spec)
        message = str(info.value)
        assert str(spec) in message
        assert "kind='first'" not in message

    def test_weighted_feasibility_of_family(self):
        sol = solve(ProblemSpec("second", (0, 1, 2, 3), 1.9))
        report = sup_sum_squares(list(sol.polys.values()), weighted=True)
        assert report.sup <= 1.0 + 1e-8


class TestClosedFormsAgainstSolver:
    """The general path against the closed forms, as test_02 does for the
    first kind: objective within 1e-13 relative, coefficients within 1e-12
    of the family's largest."""

    @pytest.mark.parametrize("b", B_GRID + [4.0, 5.0])
    @pytest.mark.parametrize("shape", ["full", "pair"])
    def test_agreement(self, shape, b):
        for n in range(0 if shape == "full" else 1, 21):
            if shape == "full":
                spec = ProblemSpec("second", range(0, n + 1), b)
                cf = closed_form_second_full(n, b)
            else:
                spec = ProblemSpec("second", (n - 1, n), b)
                cf = closed_form_second_pair(n, b)
            gen = solve(spec)
            assert gen.objective == pytest.approx(cf.objective, rel=1e-13), n
            scale = max(abs(c) for p in cf.polys.values() for c in monomial(p))
            for j in spec.indices:
                gc, cc = monomial(gen.polys[j], n + 1), monomial(cf.polys[j], n + 1)
                for i in range(n + 1):
                    assert abs(gc[i] - cc[i]) <= 1e-12 * scale, (n, j, i)


@st.composite
def _second_kind_specs(draw, b_max=2.2):
    n = draw(st.integers(0, 30))
    below = draw(st.sets(st.integers(0, n - 1))) if n > 0 else set()
    return ProblemSpec("second", below | {n}, draw(st.floats(1e-3, b_max)))


@settings(max_examples=200, deadline=None)
@given(spec=_second_kind_specs())
# in monomial coefficients: sup - 1 = 6.3e-8 and attainment 1.2e-7
@example(
    spec=ProblemSpec("second", (1, 4, 6, 9, 14, 15, 16, 20, 21, 23, 26), 0.021281189614325118)
)
# dual degree 31, above the former second-kind cap of 29
@example(spec=ProblemSpec("second", range(0, 31), 1.2))
def test_any_second_kind_set_solves_through_the_lift(spec):
    sol = solve(spec)
    assert verify_solution(sol, spec).passed
    lift = solve(ProblemSpec("first", tuple(j + 1 for j in spec.indices), spec.b))
    assert sol.objective == lift.objective
    assert sol.alphas == {j - 1: a for j, a in lift.alphas.items()}
    assert sol.active_set == tuple(j - 1 for j in lift.active_set)
    assert sol.dual_moments.p == tuple(1.0 - v for v in lift.dual_moments.p)


@settings(max_examples=200, deadline=None)
@given(spec=_second_kind_specs(b_max=10.0))
# both failed feasible and attainment (by 1.0e-7 and 1.9e-8) when the
# family came from Lanczos on eta's support points and weights
@example(spec=ProblemSpec("second", (7, 30), 3.89368771644021))
@example(spec=ProblemSpec("second", (1, 3, 23), 4.0))
def test_any_accepted_second_kind_set_is_feasible_and_attained(spec):
    # ROADMAP item 3 (exact complements in the canonical moments) is still
    # open: some accepted specs raise "rounds to 1" in the dual recurrence,
    # and objective_consistent can fail at large b, so neither is asserted
    try:
        sol = solve(spec)
    except InvalidInputError as exc:
        assert "rounds to 1" in str(exc)
        return
    checks = verify_solution(sol, spec).checks
    for name in ("feasible", "attainment", "equimax", "duality"):
        assert checks[name], name
