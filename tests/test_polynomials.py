"""Tests for polynomial representation, Chebyshev bases, and sup norms."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chebextremal import (
    InvalidInputError,
    Polynomial,
    sup_sum_squares,
)
from chebextremal.polynomials import critical_points, sum_squares
from closed_forms import (
    Monomial,
    chebyshev_t,
    chebyshev_u,
    chebyshev_u_value,
    critical_points_by_chebadd,
    monomial,
    stretched,
    to_library,
)


class TestPolynomial:
    def test_constant_eval(self):
        assert Polynomial((1.0,), 1.0)(7.3) == 1.0

    def test_quadratic_eval(self):
        # x^2 - 1 = (T_2(x) - T_0(x)) / 2
        assert Polynomial((-0.5, 0.0, 0.5), 1.0)(2.0) == 3.0

    def test_eval_matches_naive_power_sum(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            coeffs = tuple(rng.uniform(-1.0, 1.0, size=9))
            p = to_library(Monomial(coeffs), 3.0)
            for x in (-2.0, 0.5, 3.0):
                naive = sum(c * x**i for i, c in enumerate(coeffs))
                assert abs(p(x) - naive) <= 1e-12 * max(1.0, abs(naive))

    def test_trailing_zeros_trimmed(self):
        p = Polynomial((1.0, 2.0, 0.0, 0.0), 2.0)
        assert p.coeffs == (1.0, 2.0)
        assert p.degree == 1
        assert p.leading == 1.0  # 2 T_1(x/2) = x

    def test_zero_polynomial(self):
        z = Polynomial.zero(1.0)
        assert z.is_zero
        assert z.degree is None
        assert z.leading == 0.0
        assert z(3.7) == 0.0
        assert (3.0 * z).is_zero

    def test_arithmetic(self):
        p = Polynomial((1.0, 1.0), 1.5)
        assert (2.0 * p).coeffs == (2.0, 2.0)
        assert (p * 2.0).coeffs == (2.0, 2.0)
        assert (-p).coeffs == (-1.0, -1.0)
        assert (2.0 * p).b == (-p).b == 1.5
        with pytest.raises(TypeError):
            p * p

    def test_stretch(self):
        # the same coefficients on a twice wider interval evaluate p(x/2)
        p = Polynomial((0.5, 0.0, 0.5), 1.0)  # x^2
        q = Polynomial(p.coeffs, 2.0)
        assert q(3.0) == p(1.5)
        assert q.leading == 0.25
        with pytest.raises(InvalidInputError):
            Polynomial(p.coeffs, 0.0)

    @pytest.mark.parametrize("b", [0.3, 1.0, 2.5])
    @pytest.mark.parametrize("d", range(0, 8))
    def test_leading_is_top_monomial_coefficient(self, d, b):
        coeffs = tuple(np.linspace(-1.0, 1.0, d + 1) + 0.25)
        p = Polynomial(coeffs, b)
        assert p.leading == pytest.approx(monomial(p)[-1], rel=1e-14)


class TestChebyshev:
    def test_t1(self):
        assert tuple(chebyshev_t(1).coef) == (0.0, 1.0)

    def test_t3(self):
        assert tuple(chebyshev_t(3).coef) == (0.0, -3.0, 0.0, 4.0)

    def test_t2_at_half(self):
        assert chebyshev_t(2)(0.5) == pytest.approx(-0.5, abs=1e-15)

    def test_u2_at_one(self):
        assert chebyshev_u(2)(1.0) == pytest.approx(3.0, abs=1e-15)

    def test_u3_coeffs_and_root(self):
        u3 = chebyshev_u(3)
        assert tuple(u3.coef) == (0.0, -4.0, 0.0, 8.0)
        assert u3(math.sqrt(2.0) / 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_u5_root(self):
        # x^2 = 3/4 annihilates 32x^5 - 32x^3 + 6x
        assert chebyshev_u(5)(math.sqrt(3.0) / 2.0) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n", range(0, 12))
    def test_value_evaluator_matches_polynomial(self, n):
        poly = chebyshev_u(n)
        for t in (-1.3, -0.4, 0.0, 0.7, 1.0, 2.5):
            assert chebyshev_u_value(n, t) == pytest.approx(poly(t), rel=1e-13, abs=1e-13)

    def test_value_evaluator_negative_orders(self):
        assert chebyshev_u_value(-1, 0.3) == 0.0
        assert chebyshev_u_value(-2, 0.3) == -1.0

    def test_degree_cap(self):
        with pytest.raises(InvalidInputError):
            chebyshev_t(-1)


class TestSupSumSquares:
    def test_rescaled_t3_attains_one_at_endpoints(self):
        b = 1.7
        report = sup_sum_squares([to_library(stretched(chebyshev_t(3), b), b)], b)
        assert report.sup == pytest.approx(1.0, abs=1e-12)
        assert abs(report.argmax) == pytest.approx(b, abs=1e-9)

    def test_plain_x_on_wide_interval(self):
        report = sup_sum_squares([to_library(Monomial([0.0, 1.0]), 2.0)], 2.0)
        assert report.sup == pytest.approx(4.0, abs=1e-12)
        assert abs(report.argmax) == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("b", [0.7, 1.0, 2.5])
    @pytest.mark.parametrize("n", range(0, 7))
    def test_weighted_second_kind_family_attains_one(self, n, b):
        p = to_library((1.0 / b) * stretched(chebyshev_u(n), b), b)
        report = sup_sum_squares([p], b, weighted=True)
        assert report.sup == pytest.approx(1.0, rel=1e-10)

    def test_sup_equals_value_at_argmax(self):
        qs = (stretched(chebyshev_t(4), 1.3), Monomial([0.1, 0.2, 0.3]))
        polys = [to_library(q, 1.3) for q in qs]
        report = sup_sum_squares(polys, 1.3)
        value = sum(p(report.argmax) ** 2 for p in polys)
        assert report.sup == pytest.approx(value, rel=1e-14)

    @pytest.mark.parametrize("t", [0.5, 2.0])
    def test_homogeneity(self, t):
        polys = [to_library(Monomial(c), 1.9) for c in ([0.3, -1.0, 0.5], [0.0, 0.7, 0.0, -0.2])]
        base = sup_sum_squares(polys, 1.9).sup
        scaled = sup_sum_squares([t * p for p in polys], 1.9).sup
        assert scaled == pytest.approx(t * t * base, rel=1e-10)

    def test_refinement_dominates_raw_grid(self):
        b = 2.2
        qs = (stretched(chebyshev_t(5), b), Monomial([0.0, 0.0, 0.11]))
        polys = [to_library(q, b) for q in qs]
        report = sup_sum_squares(polys, b)
        deg = 2 * 5
        npts = 64 * (deg + 1)
        grid = b * np.cos(np.linspace(math.pi, 0.0, npts))
        raw = max(sum(p(float(x)) ** 2 for p in polys) for x in grid)
        assert report.sup >= raw - 1e-15

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("degree", [40, 100])
    def test_degrees_past_the_spec_cap_match_a_fine_grid(self, degree, weighted):
        # the degree cap is ProblemSpec's alone: the sup has no limit of its own
        rng = np.random.default_rng(degree + weighted)
        b = float(rng.uniform(0.1, 10.0))
        polys = [
            Polynomial(tuple(rng.standard_normal(d + 1)), b)
            for d in (degree, int(rng.integers(0, degree)))
        ]
        report = sup_sum_squares(polys, b, weighted=weighted)
        grid = sum_squares(polys, np.linspace(-b, b, 200001), b, weighted)
        assert report.sup >= grid.max() * (1.0 - 1e-13)
        # the grid misses a peak of width ~b/degree by a few 1e-6 of its height
        assert report.sup == pytest.approx(grid.max(), rel=1e-5)

    def test_symmetric_input_matches_half_interval_scan(self):
        # all-even family: the sup over [0, b] equals the full sup
        b = 1.6
        polys = [to_library(Monomial(c), b) for c in ([0.2, 0.0, -0.4, 0.0, 0.15], [0.5])]
        report = sup_sum_squares(polys, b)
        xs = np.linspace(0.0, b, 200001)
        half = max(sum(p(float(x)) ** 2 for p in polys) for x in xs)
        assert report.sup >= half - 1e-12
        assert report.sup == pytest.approx(half, rel=1e-9)

    def test_empty_list_rejected(self):
        with pytest.raises(InvalidInputError):
            sup_sum_squares([], 1.0)

    def test_bad_half_width_rejected(self):
        with pytest.raises(InvalidInputError):
            sup_sum_squares([Polynomial((1.0,), 11.0)], 11.0)
        with pytest.raises(InvalidInputError):
            sup_sum_squares([Polynomial((1.0,), 1.0)], 0.0)

    def test_member_on_another_interval_rejected(self):
        with pytest.raises(InvalidInputError):
            sup_sum_squares([Polynomial((1.0,), 1.0), Polynomial((0.0, 1.0), 2.0)], 1.0)

    def test_all_zero_family(self):
        report = sup_sum_squares([Polynomial.zero(1.0)], 1.0)
        assert report.sup == 0.0

    @pytest.mark.parametrize("weighted", [False, True])
    def test_constant_family(self, weighted):
        # g' vanishes identically when unweighted: only the endpoints remain
        polys = [Polynomial((0.6,), 1.5), Polynomial.zero(1.5), Polynomial((-0.8,), 1.5)]
        report = sup_sum_squares(polys, 1.5, weighted=weighted)
        if weighted:
            assert report.sup == pytest.approx(1.5**2, rel=1e-15)
            assert report.argmax == pytest.approx(0.0, abs=1e-15)
        else:
            assert report.sup == pytest.approx(1.0, rel=1e-15)
            assert abs(report.argmax) == 1.5


def _family_value(polys, x, b, weighted):
    total = sum(p(x) ** 2 for p in polys)
    return total * (b * b - x * x) if weighted else total


_coeff = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(
    family=st.lists(st.lists(_coeff, min_size=1, max_size=9), min_size=1, max_size=4),
    b=st.floats(0.0, 10.0, exclude_min=True),
    weighted=st.booleans(),
)
def test_sup_dominates_dense_grid(family, b, weighted):
    polys = [to_library(Monomial(cs), b) for cs in family]
    report = sup_sum_squares(polys, b, weighted=weighted)
    assert -b <= report.argmax <= b
    at_argmax = _family_value(polys, np.array([report.argmax]), b, weighted)
    assert report.sup == at_argmax[0]
    grid = np.linspace(-b, b, 2001)
    grid_max = float(np.max(_family_value(polys, grid, b, weighted)))
    # below the normal range doubles carry no relative precision at all
    assert report.sup >= grid_max - 1e-12 * abs(grid_max) - np.finfo(float).tiny


@settings(max_examples=200, deadline=None)
@given(
    family=st.lists(st.lists(_coeff, min_size=0, max_size=9), min_size=1, max_size=4),
    b=st.floats(0.0, 10.0, exclude_min=True),
    weighted=st.booleans(),
)
def test_stacked_evaluation_is_bitwise_per_member(family, b, weighted):
    """One Clenshaw pass over the zero-padded stacked coefficients gives the
    same doubles as evaluating and squaring member by member."""
    polys = [Polynomial(tuple(cs), b) for cs in family]
    x = np.linspace(-b, b, 41)
    assert np.array_equal(sum_squares(polys, x, b, weighted), _family_value(polys, x, b, weighted))


#: a top coefficient whose square underflows to 0.0
_UNDERFLOWING = 1e-170

_member = st.one_of(
    st.lists(_coeff, min_size=0, max_size=9),
    st.lists(_coeff, min_size=0, max_size=8).map(lambda cs: cs + [_UNDERFLOWING]),
)


@settings(max_examples=300, deadline=None)
@given(
    family=st.lists(_member, min_size=1, max_size=4),
    b=st.floats(0.0, 10.0, exclude_min=True),
    weighted=st.booleans(),
)
@example(family=[[], [0.0, 0.0]], b=1.0, weighted=False)
@example(family=[[0.6], [], [-0.8]], b=1.5, weighted=True)
@example(family=[[0.3, -0.2, _UNDERFLOWING], [0.5]], b=2.0, weighted=False)
@example(family=[[0.1, 0.4, -0.3, _UNDERFLOWING], [0.2, 0.7]], b=3.0, weighted=True)
def test_squared_sum_in_one_array_matches_chebadd(family, b, weighted):
    """Summing the squares into one zero-padded array gives the same critical
    points as a chebadd per member, which trims trailing zeros as it goes."""
    polys = [Polynomial(tuple(cs), b) for cs in family]
    assert np.array_equal(
        critical_points(polys, b, weighted), critical_points_by_chebadd(polys, b, weighted)
    )
