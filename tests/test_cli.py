"""Tests for the command-line interface and its serialization contract."""

import json
import math
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import pytest

from chebextremal import (
    CanonicalMomentSeq,
    ExtremalSolution,
    Polynomial,
    ProblemSpec,
    verify_solution,
)
from chebextremal.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolveCommand:
    def test_chebyshev_instance(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--kind", "first",
                               "--indices", "3", "--b", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["version"] == "2"
        assert doc["spec"] == {"kind": "first", "indices": [3], "b": 1}
        assert doc["solution"]["objective"] == pytest.approx(16.0, rel=1e-12)
        assert doc["verification"]["pass"] is True

    def test_full_set_wide(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--kind", "first",
                               "--indices", "1,2,3", "--b", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["solution"]["objective"] == pytest.approx(0.375, rel=1e-12)
        assert doc["solution"]["active_set"] == [1, 2, 3]
        assert doc["solution"]["phase_index"] == 1

    def test_second_kind(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--kind", "second",
                               "--indices", "0,1,2", "--b", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["solution"]["objective"] == pytest.approx(0.375, rel=1e-12)

    def test_malformed_indices(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--kind", "first",
                               "--indices", "1,x", "--b", "1")
        assert code == 1
        assert "error" in err

    def test_out_of_range_half_width(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--kind", "first",
                               "--indices", "1,2", "--b", "12")
        assert code == 1
        assert "error" in err

    def test_gapped_second_kind_set(self, capsys):
        # the weighted problem on (0, 2) shares its optimum with first (1, 3)
        code, out, _ = run_cli(capsys, "solve", "--kind", "second",
                               "--indices", "0,2", "--b", "1.5")
        assert code == 0
        doc = json.loads(out)
        assert doc["solution"]["objective"] == 1.4046639231824416
        assert doc["verification"]["pass"] is True

    def test_gapped_set_carries_phase_index(self, capsys):
        # the lowest degree with a positive dual weight; a second-kind
        # phase index counts in the lift I + 1
        for kind, indices, b, phase in (("first", "1,4,6", "1.7", 4),
                                        ("second", "0,2", "1.5", 3)):
            code, out, _ = run_cli(capsys, "solve", "--kind", kind,
                                   "--indices", indices, "--b", b)
            assert code == 0
            assert json.loads(out)["solution"]["phase_index"] == phase

    def test_serialization_round_trips_bit_exactly(self, capsys):
        _, out, _ = run_cli(capsys, "solve", "--kind", "first",
                            "--indices", "1,2,3", "--b", "1.7")
        doc = json.loads(out)
        spec = ProblemSpec(
            kind=doc["spec"]["kind"],
            indices=tuple(doc["spec"]["indices"]),
            b=float(doc["spec"]["b"]),
        )
        dm = doc["solution"]["dual_moments"]
        sol = ExtremalSolution(
            polys={
                entry["index"]: Polynomial(tuple(float(c) for c in entry["cheb"]), spec.b)
                for entry in doc["solution"]["polys"]
            },
            alphas={int(j): float(a) for j, a in doc["solution"]["alphas"].items()},
            objective=float(doc["solution"]["objective"]),
            dual_moments=CanonicalMomentSeq(
                b=float(dm["b"]), p=tuple(float(v) for v in dm["p"])
            ),
            active_set=tuple(doc["solution"]["active_set"]),
            phase_index=doc["solution"]["phase_index"],
        )
        report = verify_solution(sol, spec)
        ver = doc["verification"]
        assert report.constraint_sup.sup == pytest.approx(ver["constraint_sup"], abs=1e-12)
        assert report.equimax_spread == pytest.approx(ver["equimax_spread"], abs=1e-12)
        assert report.support_attainment == pytest.approx(ver["support_attainment"], abs=1e-12)
        assert report.duality_residual == pytest.approx(ver["duality_residual"], abs=1e-12)
        assert report.passed is ver["pass"]

    def test_identical_runs_identical_bytes(self, capsys):
        _, out1, _ = run_cli(capsys, "solve", "--kind", "first",
                             "--indices", "2,4", "--b", "1.5")
        _, out2, _ = run_cli(capsys, "solve", "--kind", "first",
                             "--indices", "2,4", "--b", "1.5")
        assert out1 == out2


class TestSweepCommand:
    def test_phase_descent(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--kind", "first",
                               "--indices", "1,2,3",
                               "--b-min", "1", "--b-max", "2", "--steps", "101")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "b,k,objective,active_set"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 101
        ks = [int(r[1]) for r in rows]
        assert sorted(set(ks), reverse=True) == [3, 2, 1]
        objectives = [float(r[2]) for r in rows]
        assert all(u >= v - 1e-12 for u, v in zip(objectives, objectives[1:]))
        # change points bracket sqrt(2) and sqrt(3)
        bs = [float(r[0]) for r in rows]
        drop_32 = next(bs[i] for i in range(1, 101) if ks[i] == 2 and ks[i - 1] == 3)
        drop_21 = next(bs[i] for i in range(1, 101) if ks[i] == 1 and ks[i - 1] == 2)
        assert abs(drop_32 - math.sqrt(2.0)) <= 0.011
        assert abs(drop_21 - math.sqrt(3.0)) <= 0.011

    def test_singleton_constant_phase(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--kind", "first", "--indices", "4",
                               "--b-min", "0.5", "--b-max", "3", "--steps", "26")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert all(int(r[1]) == 4 for r in rows)
        for r in rows:
            b = float(r[0])
            assert float(r[2]) == pytest.approx(2.0**6 * b**-8, rel=1e-12)

    def test_second_kind_descends_to_one(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--kind", "second",
                               "--indices", "0,1,2",
                               "--b-min", "1", "--b-max", "2.5", "--steps", "61")
        assert code == 0
        ks = [int(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
        assert ks[0] == 3
        assert ks[-1] == 1
        assert sorted(set(ks), reverse=True) == [3, 2, 1]

    def test_gapped_second_kind_reads_phase_off_the_dual(self, capsys):
        # the active set is (9,) and then (0,), but alpha_0 > 0 on both rows,
        # so the phase index is 1 (in the lift I + 1) throughout
        code, out, _ = run_cli(capsys, "sweep", "--kind", "second", "--indices", "0,9",
                               "--b-min", "6.878622827603265", "--b-max", "6.9",
                               "--steps", "2")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [r[3] for r in rows] == ["9", "0"]
        assert [int(r[1]) for r in rows] == [1, 1]

    @pytest.mark.parametrize("b_max", ["20", "inf"])
    def test_out_of_range_endpoint_is_named(self, capsys, b_max):
        # the endpoint itself is rejected, not a grid point, and before any
        # grid is formed, so no numpy warning is raised
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "sweep", "--indices", "1,2", "--b-min", "1",
                                     "--b-max", b_max, "--steps", "3")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert f"got {float(b_max)!r}" in err

    def test_bad_range(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--kind", "first", "--indices", "1,2",
                               "--b-min", "2", "--b-max", "1", "--steps", "5")
        assert code == 1
        assert "error" in err


class TestOracleCommand:
    def test_linear_gap(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--kind", "first", "--indices", "1",
                               "--b", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["gap"] <= 1e-6
        assert doc["pass"] is True

    def test_determinism(self, capsys):
        args = ["oracle", "--kind", "first", "--indices", "2,3", "--b", "1.3"]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_oversized_index_rejected(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "--kind", "first", "--indices", "6",
                               "--b", "1")
        assert code == 1
        assert "error" in err

    def test_gapped_set_cross_check(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--kind", "first", "--indices", "2,4",
                               "--b", "1.5")
        doc = json.loads(out)
        assert code == 0
        assert doc["gap"] <= 1e-3 * max(1.0, doc["solver_objective"])

    def test_record_brackets_the_objective(self, capsys):
        # the spec the CI runs from an installed package
        code, out, _ = run_cli(capsys, "oracle", "--kind", "first", "--indices", "3,4,5",
                               "--b", "2.0")
        assert code == 0
        doc = json.loads(out)
        objective = doc["solver_objective"]
        assert doc["oracle_value"] <= objective * (1.0 + 1e-10)
        assert objective <= doc["oracle_upper"] * (1.0 + 1e-10)
        assert doc["oracle_upper"] - doc["oracle_value"] <= 1e-6 * doc["oracle_upper"]
        assert doc["gap"] == max(objective - doc["oracle_value"],
                                 doc["oracle_upper"] - objective)
        assert doc["iterations"] >= 1
        assert "seed" not in doc and "evaluations" not in doc

    def test_search_options_are_gone(self, capsys):
        for flag in ("--budget", "--seed"):
            code, out, err = run_cli(capsys, "oracle", "--indices", "1", "--b", "1",
                                     flag, "5")
            assert code == 1
            assert out == ""
            assert "unrecognized arguments" in err


class TestArgumentErrors:
    def test_unknown_command_exit_code(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_missing_required_flag(self, capsys):
        code, _, _ = run_cli(capsys, "solve", "--kind", "first", "--b", "1")
        assert code == 1


_NUMPY_ONLY_SCRIPT = textwrap.dedent(
    """
    import json, sys
    from chebextremal import cli

    codes = [
        cli.main(["solve", "--kind", "first", "--indices", "1,2,3", "--b", "2"]),
        cli.main(["solve", "--kind", "second", "--indices", "0,1,2", "--b", "2"]),
        cli.main(["sweep", "--indices", "1,3", "--b-min", "1", "--b-max", "2",
                  "--steps", "5"]),
    ]
    def scipy_modules():
        return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

    scipy_loaded = scipy_modules()

    from chebextremal import (ProblemSpec, duality_certificate, oracle_bracket, solve,
                              verify_solution)

    spec = ProblemSpec("first", (1, 2), 2.0)
    sol = solve(spec)
    verified = verify_solution(sol, spec).passed
    cert = duality_certificate(sol, spec)
    scipy_after_checks = scipy_modules()
    bracket = oracle_bracket(spec)
    print(json.dumps({
        "codes": codes,
        "scipy_loaded": scipy_loaded,
        "scipy_after_checks": scipy_after_checks,
        "verified": verified,
        "certificate_ok": cert.ok,
        "certificate_max_residual": max(cert.residuals()),
        "objective": sol.objective,
        "oracle_value": bracket.lower,
        "oracle_upper": bracket.upper,
    }))
    """
)


class TestStartup:
    def test_solve_path_loads_numpy_alone(self):
        # a fresh interpreter, because pytest plugins may load scipy here
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-c", _NUMPY_ONLY_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        assert record["codes"] == [0, 0, 0]
        assert record["scipy_loaded"] == []
        # verify_solution and the certificate run on numpy too; only the
        # oracle bracket imports scipy, on its first call
        assert record["scipy_after_checks"] == []
        assert record["verified"]
        assert record["certificate_ok"]
        assert record["certificate_max_residual"] <= 1e-8
        objective = record["objective"]
        assert 0.9 * objective <= record["oracle_value"] <= objective * (1.0 + 1e-9)
        assert objective <= record["oracle_upper"] * (1.0 + 1e-9)
