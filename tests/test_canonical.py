"""Tests for canonical moment sequences, recurrences, and measure recovery."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from chebextremal import (
    CanonicalMomentSeq,
    InsufficientDataError,
    InvalidInputError,
    ProblemSpec,
    dual_moments,
    jacobi_coefficients,
    l2_norms,
    monic_orthopolys,
    reflected,
    solve,
    support_measure,
    zetas,
)
from chebextremal.canonical import weighted_recurrence
from chebextremal.solver import MAX_DEGREE, _lift
from closed_forms import monomial


def arcsine_like(b, n):
    """All-1/2 sequence of length n (no termination)."""
    return CanonicalMomentSeq(b=b, p=(0.5,) * n)


class TestSequenceValidation:
    def test_entries_must_lie_in_unit_interval(self):
        with pytest.raises(InvalidInputError):
            CanonicalMomentSeq(b=1.0, p=(0.5, 1.2))

    def test_terminating_entry_must_be_last(self):
        with pytest.raises(InvalidInputError):
            CanonicalMomentSeq(b=1.0, p=(1.0, 0.5))

    def test_terminating_flag(self):
        assert CanonicalMomentSeq(b=1.0, p=(0.5, 1.0)).terminating
        assert CanonicalMomentSeq(b=1.0, p=(0.5, 0.0)).terminating
        assert not CanonicalMomentSeq(b=1.0, p=(0.5, 0.5)).terminating

    def test_positive_half_width(self):
        with pytest.raises(InvalidInputError):
            CanonicalMomentSeq(b=0.0, p=(0.5,))


class TestZetas:
    def test_all_half(self):
        cm = CanonicalMomentSeq(b=1.0, p=(0.5, 0.5, 0.5, 0.5))
        assert zetas(cm) == (0.5, 0.25, 0.25, 0.25)

    def test_short_terminating(self):
        cm = CanonicalMomentSeq(b=1.0, p=(0.5, 1.0))
        assert zetas(cm) == (0.5, 0.5)

    def test_dual_sequence(self):
        cm = CanonicalMomentSeq(b=2.0, p=(0.5, 0.75, 0.5, 1.0))
        assert zetas(cm) == (0.5, 0.375, 0.125, 0.5)

    def test_first_entry_is_p1_and_range(self):
        cm = CanonicalMomentSeq(b=1.5, p=(0.3, 0.9, 0.2, 0.6))
        z = zetas(cm)
        assert z[0] == cm.p[0]
        assert all(0.0 <= v <= 1.0 for v in z)
        assert len(z) == len(cm.p)


class TestMonicOrthopolys:
    @pytest.mark.parametrize("b", [1.0, 2.5])
    def test_all_half_gives_scaled_chebyshev(self, b):
        cm = arcsine_like(b, 7)
        polys = monic_orthopolys(cm, 2)
        assert tuple(monomial(polys[0])) == (1.0,)
        assert tuple(monomial(polys[1])) == (0.0, 1.0)
        np.testing.assert_allclose(monomial(polys[2]), (-b * b / 2.0, 0.0, 1.0), atol=1e-15)

    def test_single_moment(self):
        cm = CanonicalMomentSeq(b=1.0, p=(0.75,))
        polys = monic_orthopolys(cm, 1)
        np.testing.assert_allclose(monomial(polys[1]), (-0.5, 1.0), atol=1e-15)

    def test_dual_sequence_p2(self):
        cm = CanonicalMomentSeq(b=2.0, p=(0.5, 0.75, 0.5, 1.0))
        polys = monic_orthopolys(cm, 2)
        np.testing.assert_allclose(monomial(polys[2]), (-3.0, 0.0, 1.0), atol=1e-14)

    def test_insufficient_moments(self):
        cm = CanonicalMomentSeq(b=1.0, p=(0.5, 0.5))  # non-terminating, too short
        with pytest.raises(InsufficientDataError):
            monic_orthopolys(cm, 3)

    def test_terminating_sequence_extends_with_zeros(self):
        cm = CanonicalMomentSeq(b=1.0, p=(0.5, 1.0))
        polys = monic_orthopolys(cm, 2)  # allowed: zetas past termination vanish
        assert polys[2].degree == 2


class TestL2Norms:
    @pytest.mark.parametrize("b", [1.0, 1.7, 3.0])
    def test_all_half_values(self, b):
        cm = arcsine_like(b, 8)
        ks = l2_norms(cm, 2)
        assert ks[0] == pytest.approx(b * b / 2.0, rel=1e-14)
        assert ks[1] == pytest.approx(b**4 / 8.0, rel=1e-14)

    def test_vanishing_entry_kills_norms(self):
        cm = CanonicalMomentSeq(b=1.0, p=(0.5, 0.5, 0.5, 0.0))
        ks = l2_norms(cm, 3)
        assert ks[0] > 0.0
        assert ks[1] == 0.0  # a zeta factor vanishes at p_4 = 0
        assert ks[2] == 0.0

    def test_insufficient_moments(self):
        cm = CanonicalMomentSeq(b=1.0, p=(0.5, 0.5, 0.5))
        with pytest.raises(InsufficientDataError):
            l2_norms(cm, 2)


class TestSupportMeasure:
    @pytest.mark.parametrize("b", [1.0, 3.0])
    def test_two_point_endpoint_measure(self, b):
        cm = CanonicalMomentSeq(b=b, p=(0.5, 1.0))
        measure = support_measure(cm)
        np.testing.assert_allclose(measure.points, (-b, b), atol=1e-14)
        np.testing.assert_allclose(measure.weights, (0.5, 0.5), atol=1e-14)

    def test_non_terminating_rejected(self):
        with pytest.raises(InvalidInputError):
            support_measure(arcsine_like(1.0, 4))

    def test_odd_length_rejected(self):
        with pytest.raises(InvalidInputError):
            support_measure(CanonicalMomentSeq(b=1.0, p=(0.5, 0.5, 0.0)))

    def test_quadrature_reproduces_jacobi_coefficients(self):
        cm = dual_moments(ProblemSpec("first", (1, 2, 3), 2.0))
        measure = support_measure(cm)
        pts = np.asarray(measure.points)
        wts = np.asarray(measure.weights)
        assert wts.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(pts) > 0.0)
        assert np.max(np.abs(pts)) <= cm.b + 1e-10
        diag, squares = jacobi_coefficients(cm, 2)
        assert np.sum(wts * pts) == pytest.approx(diag[0], abs=1e-13)
        assert np.sum(wts * pts**2) == pytest.approx(diag[0] ** 2 + squares[0], rel=1e-13)

    @pytest.mark.parametrize(
        "spec",
        [ProblemSpec("first", range(1, 31), b) for b in (1.2, 2.0, 5.0)]
        + [
            ProblemSpec("first", (29, 30), 5.0),
            ProblemSpec("first", (2, 5, 9, 16, 23, 30), 2.0),
            ProblemSpec("second", range(0, 30), 2.0),
        ],
    )
    def test_agrees_with_tridiagonal_solver(self, spec):
        # numpy's dense eigh of the Jacobi matrix against scipy's
        # tridiagonal solver on the largest dual measures the solver builds
        cm = solve(spec).dual_moments
        size = len(cm.p) // 2 + (1 if cm.p[-1] == 1.0 else 0)
        diag, squares = jacobi_coefficients(cm, size)
        points, vecs = scipy.linalg.eigh_tridiagonal(np.asarray(diag), np.sqrt(squares))
        measure = support_measure(cm)
        np.testing.assert_allclose(measure.points, points, rtol=0, atol=1e-14 * spec.b)
        np.testing.assert_allclose(measure.weights, vecs[0, :] ** 2, rtol=0, atol=1e-14)

    def test_interior_termination_point_count(self):
        # p ending in 0 at index 2n carries n interior points
        cm = CanonicalMomentSeq(b=1.0, p=(0.5, 0.5, 0.5, 0.0))
        measure = support_measure(cm)
        assert len(measure.points) == 2
        assert max(abs(p) for p in measure.points) < 1.0


def gegenbauer(lam, b, length):
    """Canonical moments of the weight (b^2 - x^2)^(lam - 1/2) on [-b, b]."""
    p = [0.5 if j % 2 else j / 2 / (j + 2 * lam) for j in range(1, length + 1)]
    return CanonicalMomentSeq(b=b, p=tuple(p))


class TestWeightedRecurrence:
    @pytest.mark.parametrize("size", [3, 12, 31])
    @pytest.mark.parametrize("b", [0.01, 1.0, 2.0, 7.5])
    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.3, 4.0])
    def test_gegenbauer_weight_moves_up_by_one(self, lam, b, size):
        # (b^2 - x^2) times the weight of lam is the weight of lam + 1, so
        # the step must give lam + 1's recurrence in its leading entries
        diag, squares = weighted_recurrence(
            *jacobi_coefficients(gegenbauer(lam, b, 2 * size - 1), size), b
        )
        want_diag, want_squares = jacobi_coefficients(gegenbauer(lam + 1, b, 2 * size - 3), size - 1)
        assert len(diag) == size - 1 and len(squares) == size - 2
        np.testing.assert_allclose(diag, want_diag, rtol=0, atol=1e-14 * b)
        np.testing.assert_allclose(squares, want_squares, rtol=1e-14, atol=0)

    def test_nonzero_diagonal_rejected(self):
        # a measure that is not symmetric about 0 is outside the step's contract
        diag, squares = jacobi_coefficients(gegenbauer(0.5, 1.0, 5), 3)
        diag[1] = 1e-300
        with pytest.raises(InvalidInputError):
            weighted_recurrence(diag, squares, 1.0)


@pytest.mark.parametrize(
    "spec",
    [
        ProblemSpec("first", (1, 2), 2.0),
        ProblemSpec("first", (1, 2, 3), 1.0),
        ProblemSpec("first", (1, 2, 3), 2.0),
        ProblemSpec("first", (2, 3), 1.5),
        ProblemSpec("first", (1, 3), 1.5),
        ProblemSpec("first", (1, 2, 3, 4, 5), 2.4),
    ],
)
class TestOrthogonalityCertificate:
    def test_discrete_orthogonality(self, spec):
        """Quadrature over the recovered measure certifies the recurrence
        and the norm product formula simultaneously."""
        n = spec.indices[-1]
        cm = dual_moments(spec)
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
                    assert gram[i, i] == pytest.approx(ks[i], rel=1e-9)
                else:
                    assert abs(gram[i, j]) <= 1e-9 * max(ks[i], ks[j])


class TestSymmetry:
    def test_symmetric_sequences_have_centered_jacobi(self):
        cm = dual_moments(ProblemSpec("first", (1, 2, 3, 4), 1.9))
        size = len(cm.p) // 2 + 1
        diag, _ = jacobi_coefficients(cm, size)
        assert max(abs(a) for a in diag) <= 1e-14
        measure = support_measure(cm)
        pts = np.asarray(measure.points)
        np.testing.assert_allclose(pts, -pts[::-1], atol=1e-12)
        polys = monic_orthopolys(cm, 4)
        for j, p in enumerate(polys):
            for i, c in enumerate(monomial(p)):
                if (i - j) % 2 != 0:
                    assert abs(c) <= 1e-12  # P_j has the parity of j


class TestReflection:
    def test_involution(self):
        cm = CanonicalMomentSeq(b=2.0, p=(0.5, 0.75, 0.5, 1.0))
        assert reflected(reflected(cm)) == cm

    def test_maps_termination_kind(self):
        cm = CanonicalMomentSeq(b=2.0, p=(0.5, 0.75, 0.5, 1.0))
        ref = reflected(cm)
        assert ref.p == (0.5, 0.25, 0.5, 0.0)
        assert ref.terminating


@st.composite
def _accepted_specs(draw):
    """Any spec of either kind up to the degree cap, b log-uniform in [1e-3, 10]."""
    kind = draw(st.sampled_from(("first", "second")))
    low = 1 if kind == "first" else 0
    # the second kind's dual degree is n + 1
    n = draw(st.integers(low, MAX_DEGREE - 1 + low))
    below = draw(st.sets(st.integers(low, n - 1))) if n > low else set()
    return ProblemSpec(kind, below | {n}, 10.0 ** draw(st.floats(-3.0, 1.0)))


@settings(max_examples=200, deadline=None)
@given(spec=_accepted_specs())
def test_solutions_reflect_back_bit_for_bit_and_lead_positive(spec):
    """Either kind's dual moments are its lift's, a solution's moments
    reflect twice to the same doubles (which ``family_norms`` rests on), and
    every nonzero member has a positive leading coefficient."""
    lift, _ = _lift(spec)
    try:
        cm = dual_moments(spec)
    except InvalidInputError:
        with pytest.raises(InvalidInputError):
            dual_moments(lift)
        return
    assert cm == dual_moments(lift)
    sol = solve(spec)
    twice = reflected(reflected(sol.dual_moments))
    assert np.array(twice.p).tobytes() == np.array(sol.dual_moments.p).tobytes()
    assert all(p.leading > 0.0 for p in sol.polys.values() if not p.is_zero)
