"""Tests for the parity of solved families and the even route of the sup.

On [-b, b] every dual measure is symmetric, so member j of a solved family
has the parity of j and the constraint is an even polynomial.
``sup_sum_squares`` then takes its critical points from a derivative of
half the degree; these tests hold it to the general route,
``max(sum_squares(f, critical_points(f)))``.
"""

import numpy as np
import numpy.polynomial.chebyshev as cheb
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chebextremal import Polynomial, ProblemSpec, solve, sup_sum_squares
from chebextremal.polynomials import critical_points, sum_squares

#: (kind, lowest index, largest prescribed degree the cap allows)
KINDS = [("first", 1, 31), ("second", 0, 30)]


def _index_sets(low: int, n: int) -> dict[str, tuple[int, ...]]:
    return {
        "full": tuple(range(low, n + 1)),
        "pair": (n - 1, n),
        "gapped": tuple(range(low, n, 3)) + (n,),
    }


SOLVER_CASES = [
    pytest.param(kind, idx, b, id=f"{kind}-{name}-{n}-b{b}")
    for kind, low, cap in KINDS
    for n in (3, 10, 20, cap)
    for name, idx in _index_sets(low, n).items()
    for b in (1.2, 5.0, 9.5)
]


def _family(kind, idx, b):
    sol = solve(ProblemSpec(kind, idx, b))
    return [sol.polys[j] for j in idx], kind == "second"


def _general_sup(family, weighted) -> float:
    return float(np.max(sum_squares(family, critical_points(family, weighted=weighted),
                                    weighted=weighted)))


@pytest.fixture
def eigen_sizes(monkeypatch):
    """Lengths of the Chebyshev series whose roots the sup asks for."""
    sizes = []
    roots = cheb.chebroots

    def spy(c):
        sizes.append(len(c))
        return roots(c)

    monkeypatch.setattr(cheb, "chebroots", spy)
    return sizes


@pytest.mark.parametrize("kind, idx, b", SOLVER_CASES)
def test_solved_members_have_exact_parity(kind, idx, b):
    sol = solve(ProblemSpec(kind, idx, b))
    for j, p in sol.polys.items():
        wrong = p.coeffs[1 - j % 2 :: 2]
        assert all(c == 0.0 for c in wrong), (j, max(map(abs, wrong)))


@pytest.mark.parametrize("kind, idx, b", SOLVER_CASES)
def test_even_route_matches_general_route_on_solver_families(kind, idx, b, eigen_sizes):
    family, weighted = _family(kind, idx, b)
    report = sup_sum_squares(family, weighted=weighted)
    # the even route roots h' of length at most maxdeg (+ 1 with the weight),
    # the general route g', about twice as long
    assert len(eigen_sizes) == 1
    assert eigen_sizes[0] <= max(p.degree for p in family if not p.is_zero) + weighted
    assert report.sup == pytest.approx(_general_sup(family, weighted), rel=1e-13)
    assert sum_squares(family, np.array([report.argmax]), weighted=weighted)[0] == report.sup


@pytest.mark.parametrize("kind, idx, b", [
    ("first", tuple(range(1, 11)), 1.2),
    ("first", (2, 5, 8, 10), 5.0),
    ("second", tuple(range(0, 21)), 1.2),
    ("second", (29, 30), 9.5),
])
def test_odd_coefficient_takes_the_general_route(kind, idx, b, eigen_sizes):
    family, weighted = _family(kind, idx, b)
    top = family[-1]
    wrong = 1 - top.degree % 2
    nudged = list(top.coeffs)
    nudged[wrong] += 1e-3 * max(map(abs, nudged))
    family[-1] = Polynomial(tuple(nudged), b)
    report = sup_sum_squares(family, weighted=weighted)
    assert eigen_sizes[0] > top.degree + weighted
    eigen_sizes.clear()
    xs = critical_points(family, weighted=weighted)
    values = sum_squares(family, xs, weighted=weighted)
    assert report.sup == values.max()
    assert report.argmax == xs[np.argmax(values)]


@pytest.mark.parametrize("weighted, coeffs, where", [
    # u - u^3 = (T_1 - T_3)/4 peaks in square at u = +-1/sqrt(3)
    (False, (0.0, 0.25, 0.0, -0.25), 1.0 / np.sqrt(3.0)),
    # (1 - u^2) u^2 peaks at u = +-1/sqrt(2)
    (True, (0.0, 1.0), 1.0 / np.sqrt(2.0)),
])
def test_symmetric_tie_reports_the_negative_point(weighted, coeffs, where):
    b = 1.7
    family = [Polynomial(coeffs, b)]
    report = sup_sum_squares(family, weighted=weighted)
    assert report.argmax == pytest.approx(-b * where, rel=1e-12)
    mirror = sum_squares(family, np.array([report.argmax, -report.argmax]), weighted=weighted)
    assert mirror[0] == mirror[1] == report.sup


_coeff = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def _symmetric_families(draw):
    """Members of random degree whose wrong-parity coefficients are exactly 0."""
    family = []
    for _ in range(draw(st.integers(1, 4))):
        degree = draw(st.integers(0, 12))
        coeffs = [0.0] * (degree + 1)
        for k in range(degree % 2, degree + 1, 2):
            coeffs[k] = draw(_coeff)
        family.append(coeffs)
    return family


@settings(max_examples=200, deadline=None)
@given(
    family=_symmetric_families(),
    b=st.floats(0.0, 10.0, exclude_min=True),
    weighted=st.booleans(),
)
@example(family=[[0.6], [], [-0.8]], b=1.5, weighted=True)
@example(family=[[0.0, 0.3, 0.0, -0.1], [0.2, 0.0, 0.5]], b=2.0, weighted=False)
def test_even_route_matches_general_route_on_random_symmetric_families(family, b, weighted):
    polys = [Polynomial(tuple(cs), b) for cs in family]
    report = sup_sum_squares(polys, weighted=weighted)
    general = _general_sup(polys, weighted)
    # below the normal range doubles carry no relative precision at all
    assert abs(report.sup - general) <= 1e-13 * general + np.finfo(float).tiny
    assert sum_squares(polys, np.array([report.argmax]), weighted=weighted)[0] == report.sup
