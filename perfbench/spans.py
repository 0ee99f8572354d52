"""Span and counter recorder wrapped around the library's public functions.

Tracing lives in the benchmark, not in the library: ``patched`` swaps each
named function for a timing wrapper in every loaded ``chebextremal`` module
that binds it, and restores the originals on exit.  A function that no
longer exists is reported absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
from contextlib import contextmanager
from time import perf_counter

#: layer module -> public functions timed in the traced run
LAYERS = {
    "solver": ("solve", "dual_moments", "alpha_weights", "active_set", "verify_solution"),
    "canonical": ("monic_orthopolys", "l2_norms", "support_measure"),
    "polynomials": ("sup_sum_squares",),
    "oracle": ("duality_certificate", "brute_force_max"),
    "cli": ("main", "process"),
}

#: spans not wrapped around a function; the CLI import is timed by the child shim
EXTRA_SPANS = ("cli.import",)

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns) + EXTRA_SPANS

COUNTERS = (
    "polynomials.sup_sum_squares.degree_sum",
    "canonical.support_measure.points",
    "oracle.brute_force_max.evaluations",
    "oracle.duality_certificate.singular",
)

RATIOS = (
    "solver.verify_solution.pass_ratio",
    "oracle.duality_certificate.pass_ratio",
    "cli.oracle.gap_ok_ratio",
)

#: prefix of the stderr line on which a traced child reports its spans
CHILD_MARK = "perfbench-trace:"

#: certificate tolerances of the acceptance suite (equalities, norm identity)
CERT_EQ_TOL = 1e-8
CERT_ID_TOL = 1e-9


def certificate_residuals(cert) -> tuple[float, float]:
    """Largest equality residual and largest norm-identity residual."""
    eq = max(
        [cert.trace_residual, *cert.structure_residuals.values(), *cert.min_equality_residuals]
    )
    ident = max(cert.norm_identity_residuals.values(), default=0.0)
    return eq, ident


def certificate_passes(cert) -> bool:
    if not cert.ok:
        return False
    eq, ident = certificate_residuals(cert)
    return eq <= CERT_EQ_TOL and ident <= CERT_ID_TOL


def _count_sup(rec, args, kwargs, result):
    polys = args[0] if args else kwargs["polys"]
    weighted = args[2] if len(args) > 2 else kwargs.get("weighted", False)
    degrees = [p.degree for p in polys if p.degree is not None]
    rec.count("polynomials.sup_sum_squares.degree_sum", 2 * max(degrees, default=0) + 2 * bool(weighted))


def _count_support(rec, args, kwargs, result):
    rec.count("canonical.support_measure.points", len(result.points))


def _count_oracle(rec, args, kwargs, result):
    rec.count("oracle.brute_force_max.evaluations", result.evaluations)


def _count_verify(rec, args, kwargs, result):
    rec.ratio("solver.verify_solution.pass_ratio", bool(result.passed))


def _count_certificate(rec, args, kwargs, result):
    rec.count("oracle.duality_certificate.singular", int(not result.ok))
    rec.ratio("oracle.duality_certificate.pass_ratio", certificate_passes(result))


HOOKS = {
    "polynomials.sup_sum_squares": _count_sup,
    "canonical.support_measure": _count_support,
    "oracle.brute_force_max": _count_oracle,
    "solver.verify_solution": _count_verify,
    "oracle.duality_certificate": _count_certificate,
}


class Recorder:
    """Inclusive time and call count per span name, plus counters and ratios.

    A call nested inside another call of the same name is not counted again,
    so a name's time is the wall time during which it was on the stack.
    """

    def __init__(self):
        self.ms: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self.ratios: dict[str, list[int]] = {}  # name -> [hits, trials]
        self.hook_errors: dict[str, str] = {}
        self._active: set[str] = set()

    def add_span(self, name: str, ms: float, calls: int = 1) -> None:
        self.ms[name] = self.ms.get(name, 0.0) + ms
        self.calls[name] = self.calls.get(name, 0) + calls

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def ratio(self, name: str, hit: bool) -> None:
        entry = self.ratios.setdefault(name, [0, 0])
        entry[0] += int(hit)
        entry[1] += 1

    def merge(self, other: dict) -> None:
        """Fold in a ``summary()`` produced by another process."""
        for name, ms in other["ms"].items():
            self.add_span(name, ms, other["calls"][name])
        for name, value in other["counts"].items():
            self.count(name, value)
        for name, (hits, trials) in other["ratios"].items():
            entry = self.ratios.setdefault(name, [0, 0])
            entry[0] += hits
            entry[1] += trials
        self.hook_errors.update(other["hook_errors"])

    def summary(self) -> dict:
        return {
            "ms": self.ms,
            "calls": self.calls,
            "counts": self.counts,
            "ratios": self.ratios,
            "hook_errors": self.hook_errors,
        }

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name in self._active:
                return fn(*args, **kwargs)
            self._active.add(name)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.add_span(name, (perf_counter() - t0) * 1e3)
                self._active.discard(name)
            if hook is not None:
                try:
                    hook(self, args, kwargs, result)
                except (AttributeError, KeyError, TypeError, ValueError) as exc:
                    # a changed return type must not break the run; report it
                    self.hook_errors[name] = f"{type(exc).__name__}: {exc}"
            return result

        return traced


@contextmanager
def patched(recorder: Recorder):
    """Wrap every function in ``LAYERS``; yields the names found absent."""
    absent: list[str] = []
    swaps = []
    for mod, names in LAYERS.items():
        try:
            module = importlib.import_module(f"chebextremal.{mod}")
        except ImportError:
            absent.extend(f"{mod}.{fn}" for fn in names)
            continue
        for fn in names:
            original = getattr(module, fn, None)
            if not callable(original):
                absent.append(f"{mod}.{fn}")
                continue
            wrapper = recorder.wrap(f"{mod}.{fn}", original)
            for m in list(sys.modules.values()):
                if not getattr(m, "__name__", "").startswith("chebextremal"):
                    continue
                for attr in [a for a, v in vars(m).items() if v is original]:
                    swaps.append((m, attr, original))
                    setattr(m, attr, wrapper)
    try:
        yield absent
    finally:
        for m, attr, original in reversed(swaps):
            setattr(m, attr, original)
