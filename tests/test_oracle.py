"""Tests for the brute-force oracle and the duality certificate."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chebextremal import (
    CanonicalMomentSeq,
    ExtremalSolution,
    InvalidInputError,
    Polynomial,
    ProblemSpec,
    brute_force_max,
    duality_certificate,
    solve,
    sup_sum_squares,
)


class TestBruteForce:
    def test_linear_singleton(self):
        spec = ProblemSpec("first", (1,), 2.0)
        result = brute_force_max(spec, budget=20000, seed=0)
        assert result.best_value == pytest.approx(0.25, abs=1e-6)

    def test_full_set_wide(self):
        spec = ProblemSpec("first", (1, 2, 3), 2.0)
        result = brute_force_max(spec, budget=200000, seed=0)
        assert result.best_value == pytest.approx(0.375, abs=1e-3)

    def test_pair_narrow(self):
        spec = ProblemSpec("first", (2, 3), 1.0)
        result = brute_force_max(spec, budget=120000, seed=0)
        assert result.best_value == pytest.approx(16.0, abs=1e-2)

    def test_seed_determinism(self):
        spec = ProblemSpec("first", (1, 2), 1.3)
        a = brute_force_max(spec, budget=20000, seed=11)
        b = brute_force_max(spec, budget=20000, seed=11)
        assert a == b

    def test_different_seeds_still_close(self):
        spec = ProblemSpec("first", (1, 2), 1.3)
        sol = solve(spec)
        for seed in (1, 2):
            result = brute_force_max(spec, budget=60000, seed=seed)
            assert abs(result.best_value - sol.objective) <= 1e-3 * max(1.0, sol.objective)

    def test_never_exceeds_solver(self):
        for idx, b in [((1, 2), 1.0), ((2, 3), 2.0), ((1, 3), 1.5)]:
            spec = ProblemSpec("first", idx, b)
            sol = solve(spec)
            result = brute_force_max(spec, budget=30000, seed=5)
            assert result.best_value <= sol.objective + 1e-6

    def test_reported_family_is_feasible_and_consistent(self):
        spec = ProblemSpec("first", (1, 2), 1.8)
        result = brute_force_max(spec, budget=30000, seed=9)
        family = list(result.best_coeffs.values())
        sup = sup_sum_squares(family, spec.b).sup
        assert sup <= 1.0 + 1e-9
        total = sum(p.leading**2 for p in result.best_coeffs.values())
        assert total == pytest.approx(result.best_value, abs=1e-9)

    def test_weighted_kind(self):
        spec = ProblemSpec("second", (0, 1), 2.0)
        sol = solve(spec)
        result = brute_force_max(spec, budget=60000, seed=0)
        assert abs(result.best_value - sol.objective) <= 1e-3

    def test_scale_limits(self):
        with pytest.raises(InvalidInputError):
            brute_force_max(ProblemSpec("first", (6,), 1.0), budget=10000, seed=0)
        with pytest.raises(InvalidInputError):
            brute_force_max(ProblemSpec("first", (1,), 1.0), budget=10, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidInputError, match="seed"):
            brute_force_max(ProblemSpec("first", (1,), 1.0), budget=10000, seed=-1)


class TestDualityCertificate:
    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("b", [0.5, 1.0, 2.0, 3.0])
    def test_singleton_norm_identity(self, n, b):
        """The moment-matrix route reproduces the Chebyshev optimum."""
        spec = ProblemSpec("first", (n,), b)
        sol = solve(spec)
        cert = duality_certificate(sol, spec)
        assert cert.ok
        assert max(cert.residuals()) <= 1e-9
        target = 2.0 ** (2 * n - 2) * b ** (-2 * n)
        assert sol.objective == pytest.approx(target, rel=1e-9)

    def test_full_set_residuals(self):
        for idx, b in [
            ((1, 2, 3), 2.0),
            ((2, 3), 1.5),
            ((1, 3), 1.5),
            ((1, 2, 3, 4), 2.8),
            ((29, 30), 2.0),
            (tuple(range(1, 21)), 2.0),
        ]:
            spec = ProblemSpec("first", idx, b)
            cert = duality_certificate(solve(spec), spec)
            assert cert.ok
            assert cert.trace_residual <= 1e-9
            assert max(cert.structure_residuals.values()) <= 1e-9
            assert max(cert.min_equality_residuals) <= 1e-9
            assert max(cert.norm_identity_residuals.values()) <= 1e-9

    def test_second_kind_residuals(self):
        # (10, 5.0) fails in a Chebyshev basis on [-b, b] instead of the hull
        for n, b in [(2, 1.0), (2, 2.0), (3, 1.6), (20, 1.95), (10, 5.0)]:
            spec = ProblemSpec("second", tuple(range(0, n + 1)), b)
            cert = duality_certificate(solve(spec), spec)
            assert cert.ok
            assert max(cert.residuals()) <= 1e-9

    def test_singular_moment_matrix_flags_index(self):
        # a two-point measure cannot support a degree-2 moment matrix
        doctored = ExtremalSolution(
            polys={2: Polynomial((0.0, 0.0, 1.0), 1.0)},
            alphas={2: 1.0},
            objective=1.0,
            dual_moments=CanonicalMomentSeq(b=1.0, p=(0.5, 1.0)),
            active_set=(2,),
            phase_index=2,
        )
        spec = ProblemSpec("first", (2,), 1.0)
        cert = duality_certificate(doctored, spec)
        assert not cert.ok
        assert cert.failed_index == 2

    def test_non_terminating_rejected(self):
        sol = solve(ProblemSpec("first", (2,), 1.0))
        bad = ExtremalSolution(
            polys=sol.polys,
            alphas=sol.alphas,
            objective=sol.objective,
            dual_moments=CanonicalMomentSeq(b=1.0, p=(0.5, 0.5, 0.5, 0.5)),
            active_set=sol.active_set,
            phase_index=sol.phase_index,
        )
        with pytest.raises(InvalidInputError):
            duality_certificate(bad, ProblemSpec("first", (2,), 1.0))


@st.composite
def _certified_specs(draw):
    b = draw(st.floats(1e-3, 2.2))
    if draw(st.booleans()):
        n = draw(st.integers(1, 31))
        below = draw(st.sets(st.integers(1, n - 1))) if n > 1 else set()
        return ProblemSpec("first", below | {n}, b)
    n = draw(st.integers(0, 30))
    below = draw(st.sets(st.integers(0, n - 1))) if n > 0 else set()
    return ProblemSpec("second", below | {n}, b)


@settings(max_examples=200, deadline=None)
@given(spec=_certified_specs())
# a Cholesky of the formed Gram matrix misses the norm identity here (8.4e-9)
@example(spec=ProblemSpec("first", range(2, 9), 6.656434012344055))
def test_certificate_holds(spec):
    cert = duality_certificate(solve(spec), spec)
    assert cert.ok
    assert cert.trace_residual <= 1e-8
    assert max(cert.structure_residuals.values()) <= 1e-8
    assert max(cert.min_equality_residuals) <= 1e-8
    assert max(cert.norm_identity_residuals.values()) <= 1e-9
