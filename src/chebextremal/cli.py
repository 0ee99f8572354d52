"""Command-line front end: solve, sweep, oracle.

Single solutions are emitted as one JSON document on stdout, sweeps as
CSV.  A solution's member j is listed by its Chebyshev coefficients
``cheb``: it is sum_k cheb[k] T_k(x/b), with b from ``spec``.  JSON reals
are written as the shortest string that parses back to the same double;
the CSV uses 17 significant digits.  Exit codes: 0 on
success, 1 on invalid input, 2 when verification (or the oracle gap
check) fails.  ``oracle`` brackets the optimum between a feasible family
(``oracle_value``) and a dual bound (``oracle_upper``); ``gap`` is how far
the solver objective lies from the farther end of that bracket.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import InvalidInputError
from .oracle import oracle_bracket
from .solver import ProblemSpec, solve, verify_solution

SCHEMA_VERSION = "2"

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_FAILED = 2


def _parse_indices(text: str) -> tuple[int, ...]:
    try:
        parts = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise InvalidInputError(f"malformed index list {text!r}") from exc
    if not parts:
        raise InvalidInputError("index list must be nonempty")
    return tuple(parts)


def _solution_record(spec, sol, report) -> dict:
    solution = {
        "phase_index": sol.phase_index,
        "dual_moments": {
            "b": sol.dual_moments.b,
            "p": list(sol.dual_moments.p),
            "terminating": sol.dual_moments.terminating,
        },
        "alphas": {str(j): sol.alphas[j] for j in spec.indices},
        "polys": [{"index": j, "cheb": list(sol.polys[j].coeffs)} for j in spec.indices],
        "objective": sol.objective,
        "active_set": list(sol.active_set),
    }
    return {
        "version": SCHEMA_VERSION,
        "spec": {"kind": spec.kind, "indices": list(spec.indices), "b": spec.b},
        "solution": solution,
        "verification": {
            "constraint_sup": report.constraint_sup.sup,
            "argmax": report.constraint_sup.argmax,
            "equimax_spread": report.equimax_spread,
            "support_attainment": report.support_attainment,
            "duality_residual": report.duality_residual,
            "pass": report.passed,
        },
    }


def cmd_solve(args) -> int:
    spec = ProblemSpec(kind=args.kind, indices=_parse_indices(args.indices), b=args.b)
    sol = solve(spec)
    report = verify_solution(sol, spec)
    print(json.dumps(_solution_record(spec, sol, report), indent=2))
    return EXIT_OK if report.passed else EXIT_FAILED


def cmd_sweep(args) -> int:
    indices = _parse_indices(args.indices)
    # the endpoints as given, so an error names them and not a grid point
    for b in (args.b_min, args.b_max):
        ProblemSpec(kind=args.kind, indices=indices, b=b)
    if args.b_min >= args.b_max:
        raise InvalidInputError("--b-min must be smaller than --b-max")
    if args.steps < 2:
        raise InvalidInputError("--steps must be at least 2")
    lines = ["b,k,objective,active_set"]
    for b in np.linspace(args.b_min, args.b_max, args.steps):
        spec = ProblemSpec(kind=args.kind, indices=indices, b=float(b))
        sol = solve(spec)
        active = ";".join(str(j) for j in sol.active_set)
        lines.append(
            f"{format(spec.b, '.17g')},{sol.phase_index},{format(sol.objective, '.17g')},{active}"
        )
    print("\n".join(lines))
    return EXIT_OK


def cmd_oracle(args) -> int:
    spec = ProblemSpec(kind=args.kind, indices=_parse_indices(args.indices), b=args.b)
    sol = solve(spec)
    bracket = oracle_bracket(spec)
    gap = max(sol.objective - bracket.lower, bracket.upper - sol.objective)
    tolerance = 1e-3 * max(1.0, sol.objective)
    record = {
        "version": SCHEMA_VERSION,
        "spec": {"kind": spec.kind, "indices": list(spec.indices), "b": spec.b},
        "solver_objective": sol.objective,
        "oracle_value": bracket.lower,
        "oracle_upper": bracket.upper,
        "gap": gap,
        "iterations": bracket.iterations,
        "pass": gap <= tolerance,
    }
    print(json.dumps(record, indent=2))
    return EXIT_OK if gap <= tolerance else EXIT_FAILED


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="chebextremal",
        description=(
            "Maximize the sum of squared leading coefficients of a polynomial "
            "family under a sup-norm bound on its sum of squares over [-b, b]."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--kind", choices=["first", "second"], default="first")
    common.add_argument(
        "--indices", required=True, help="comma-separated prescribed degrees, e.g. 1,2,3"
    )

    p_solve = sub.add_parser("solve", parents=[common], help="solve one instance")
    p_solve.add_argument("--b", type=float, required=True, help="interval half-width")
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser(
        "sweep", parents=[common], help="sweep b and emit a CSV phase diagram"
    )
    p_sweep.add_argument("--b-min", type=float, required=True)
    p_sweep.add_argument("--b-max", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_oracle = sub.add_parser(
        "oracle",
        parents=[common],
        help="bracket the optimum independently of the solver and cross-check it",
    )
    p_oracle.add_argument("--b", type=float, required=True)
    p_oracle.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
