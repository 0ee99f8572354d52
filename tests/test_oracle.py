"""Tests for the oracle bracket and the duality certificate."""

import dataclasses
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chebextremal import (
    CanonicalMomentSeq,
    DiscreteMeasure,
    ExtremalSolution,
    InvalidInputError,
    Polynomial,
    ProblemSpec,
    duality_certificate,
    oracle_bracket,
    solve,
    sup_sum_squares,
    support_measure,
    verify_solution,
)
from chebextremal.oracle import ORACLE_MAX_N


class TestBruteForce:
    """The oracle bracket: a feasible family below, a dual measure above."""

    def test_linear_singleton(self):
        spec = ProblemSpec("first", (1,), 2.0)
        result = oracle_bracket(spec)
        assert result.lower == pytest.approx(0.25, abs=1e-6)
        assert result.upper == pytest.approx(0.25, abs=1e-6)

    def test_full_set_wide(self):
        spec = ProblemSpec("first", (1, 2, 3), 2.0)
        result = oracle_bracket(spec)
        assert result.lower == pytest.approx(0.375, abs=1e-3)

    def test_pair_narrow(self):
        spec = ProblemSpec("first", (2, 3), 1.0)
        result = oracle_bracket(spec)
        assert result.lower == pytest.approx(16.0, abs=1e-2)

    def test_never_exceeds_solver(self):
        for idx, b in [((1, 2), 1.0), ((2, 3), 2.0), ((1, 3), 1.5)]:
            spec = ProblemSpec("first", idx, b)
            sol = solve(spec)
            result = oracle_bracket(spec)
            assert result.lower <= sol.objective + 1e-6
            assert sol.objective <= result.upper + 1e-6

    def test_reported_family_is_feasible_and_consistent(self):
        spec = ProblemSpec("first", (1, 2), 1.8)
        result = oracle_bracket(spec)
        family = list(result.family.values())
        sup = sup_sum_squares(family).sup
        assert sup <= 1.0 + 1e-9
        total = sum(p.leading**2 for p in result.family.values())
        assert total == pytest.approx(result.lower, abs=1e-9)

    def test_weighted_kind(self):
        spec = ProblemSpec("second", (0, 1), 2.0)
        sol = solve(spec)
        result = oracle_bracket(spec)
        assert abs(result.lower - sol.objective) <= 1e-3
        assert abs(result.upper - sol.objective) <= 1e-3

    def test_scale_limits(self):
        with pytest.raises(InvalidInputError):
            oracle_bracket(ProblemSpec("first", (6,), 1.0))

    def test_bounds_are_python_floats(self):
        # the CLI writes them, and its pass flag compared from them, as JSON;
        # a numpy bool there is not serializable
        result = oracle_bracket(ProblemSpec("second", (1, 2), 2.4473412364436427))
        assert type(result.lower) is float and type(result.upper) is float

    def test_deterministic(self):
        spec = ProblemSpec("first", (1, 2), 1.3)
        assert oracle_bracket(spec) == oracle_bracket(spec)


@st.composite
def _oracle_specs(draw):
    b = min(10.0, math.exp(draw(st.floats(math.log(0.05), math.log(10.0)))))
    kind = draw(st.sampled_from(["first", "second"]))
    low = 1 if kind == "first" else 0
    n = draw(st.integers(low, ORACLE_MAX_N))
    below = draw(st.sets(st.integers(low, n - 1))) if n > low else set()
    return ProblemSpec(kind, below | {n}, b)


@settings(max_examples=100, deadline=None)
@given(spec=_oracle_specs())
@example(spec=ProblemSpec("first", (3, 4, 5), 2.0))
@example(spec=ProblemSpec("second", tuple(range(6)), 0.7103))
@example(spec=ProblemSpec("second", (0, 5), 0.0548))
@example(spec=ProblemSpec("first", (5,), 0.1931))
def test_bracket_holds(spec):
    """The solver objective lies in a bracket at most 1e-6 wide whose lower
    end is the value of a feasible family."""
    objective = solve(spec).objective
    result = oracle_bracket(spec)
    assert result.lower <= objective * (1.0 + 1e-10)
    assert objective <= result.upper * (1.0 + 1e-10)
    assert result.upper - result.lower <= 1e-6 * result.upper
    family = list(result.family.values())
    weighted = spec.kind == "second"
    assert sup_sum_squares(family, weighted=weighted).sup <= 1.0 + 1e-9
    assert sum(p.leading**2 for p in family) == pytest.approx(result.lower, rel=1e-12)


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

    def test_degenerate_pivot_flags_index(self, monkeypatch):
        # a subnormal weight leaves R_33 about 1e-162, so 1/R_33^2 overflows
        spec = ProblemSpec("first", (1, 2, 3), 2.0)
        sol = solve(spec)
        measure = sol.support
        thin = DiscreteMeasure(measure.points, (*measure.weights[:-1], 5e-324))
        monkeypatch.setitem(vars(sol), "support", thin)
        cert = duality_certificate(sol, spec)
        assert not cert.ok
        assert cert.failed_index == 3
        assert set(cert.norm_identity_residuals) == {1, 2}

    @pytest.mark.parametrize(
        "spec",
        [ProblemSpec("first", range(1, 7), 1.4), ProblemSpec("second", range(0, 5), 1.2)],
        ids=str,
    )
    def test_weight_on_a_dead_degree_fails_the_min_equality(self, spec):
        """Moving the dual weight onto a dead degree, one of zero dual
        weight, fails the min-equality."""
        sol = solve(spec)
        assert sol.phase_index > 1
        zero = [j for j in spec.indices if sol.alphas[j] == 0.0]
        assert zero
        cert = duality_certificate(sol, spec)
        assert max(cert.residuals()) <= 1e-9

        top = max(spec.indices, key=sol.alphas.__getitem__)
        alphas = dict(sol.alphas)
        alphas[zero[0]], alphas[top] = alphas[top], 0.0
        doctored = duality_certificate(dataclasses.replace(sol, alphas=alphas), spec)
        assert doctored.ok
        assert doctored.min_equality_residuals[0] > 0.5

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
    assert max(cert.min_equality_residuals) <= 1e-8
    assert max(cert.norm_identity_residuals.values()) <= 1e-9


@pytest.mark.parametrize(
    "spec",
    [
        ProblemSpec("first", (1, 2, 3), 2.0),
        ProblemSpec("first", (3, 7, 12), 5.0),
        ProblemSpec("second", range(0, 11), 1.2),
        ProblemSpec("second", (4, 5), 2.5),
    ],
    ids=str,
)
def test_reports_do_not_depend_on_the_support_memo(spec):
    """``verify_solution`` and ``duality_certificate`` share the support
    measure computed once per solution; the call order does not change them,
    nor does computing it afresh for a new solution."""
    sol = solve(spec)
    cert_first = repr(duality_certificate(sol, spec)), repr(verify_solution(sol, spec))
    report = repr(verify_solution(sol, spec))
    verify_first = repr(duality_certificate(sol, spec)), report
    sol = solve(spec)
    certificate = repr(duality_certificate(sol, spec))
    cleared = certificate, repr(verify_solution(sol, spec))
    assert cert_first == verify_first == cleared

    twin = CanonicalMomentSeq(b=sol.dual_moments.b, p=list(sol.dual_moments.p))
    assert twin is not sol.dual_moments
    fresh = support_measure(twin)
    assert sol.support == fresh
    assert solve(spec).support == fresh
