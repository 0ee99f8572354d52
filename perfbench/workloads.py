"""The benchmark's four workloads: their seeded inputs, one op, and its check.

Each workload builds rounds of ops from the seed; a run repeats the whole
rounds that fit its time, so every run sees the same mix.  ``execute``
is the timed part of an op; ``judge`` checks its output against the
60-digit reference afterwards and names every reason it failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import selectors
import subprocess
import sys
from dataclasses import dataclass, field

from refvalues import REFERENCE_RTOL, reference_objective, relative_error
from spans import CERT_EQ_TOL, CERT_ID_TOL, CHILD_MARK, certificate_residuals

#: tolerances of ``verify_solution``, used for the health margins
SUP_TOL = 1e-8
ATTAIN_TOL = 1e-8

#: ``fail.<reason>`` names; a failing verify check not listed here is ``verify_other``
VERIFY_REASONS = ("feasible", "attainment", "equimax", "duality")
FAIL_REASONS = (
    "exception", *VERIFY_REASONS, "verify_other", "certificate", "reference", "oracle_gap",
)

#: health number -> the tolerance its margin is measured against
HEALTH_TOLS = {
    "sup_excess_max": SUP_TOL,
    "attainment_max": ATTAIN_TOL,
    "certificate_residual_max": CERT_EQ_TOL,
    "certificate_norm_identity_max": CERT_ID_TOL,
    "reference_rel_err_max": REFERENCE_RTOL,
    "oracle_gap_share_max": 1.0,
}


@dataclass(frozen=True)
class Op:
    kind: str
    indices: tuple[int, ...]
    b: float
    ref: float

    @property
    def label(self) -> str:
        return f"{self.kind}({','.join(map(str, self.indices))})@b={self.b:.6g}"


@dataclass
class Outcome:
    reasons: list[str] = field(default_factory=list)
    error: str | None = None
    health: dict[str, float] = field(default_factory=dict)
    gap_ok: bool | None = None
    child_rss_kb: int = 0


def make_op(kind: str, indices, b: float) -> Op:
    indices = tuple(indices)
    return Op(kind, indices, b, reference_objective(kind, indices, b))


def jitter(rng: random.Random, b: float) -> float:
    """A half-width within +-5% of its nominal value."""
    return b * (1.0 + rng.uniform(-0.05, 0.05))


def gapped_set(rng: random.Random, n: int, size: int | None = None) -> tuple[int, ...]:
    """A random index set with maximum n that is not a contiguous run.

    It holds n and ``size`` of the degrees below n, by default a size drawn
    uniformly from 1..n-2.
    """
    while True:
        k = rng.randint(1, n - 2) if size is None else size
        idx = tuple(sorted(rng.sample(range(1, n), k))) + (n,)
        if idx[-1] - idx[0] + 1 != len(idx):
            return idx


def _objective_check(op: Op, objective: float, out: Outcome) -> None:
    err = relative_error(objective, op.ref)
    out.health["reference_rel_err_max"] = err
    if not err <= REFERENCE_RTOL:
        out.reasons.append("reference")


class CertifyMatrix:
    name = "certify_matrix"

    #: one pass over the matrix per entry, each with its own draw of
    #: half-widths and of gapped sets holding this share of the degrees
    #: below n.  Sparse sets at large b reach the precision loss of the
    #: double-precision recurrence; dense ones the plateau that makes the
    #: sup slow.  A fixed share keeps the cost of a pass, which grows about
    #: 100-fold with the size of the gapped set at n = 30, alike across
    #: seeds, and the second pass fills the gaps between the cost clusters
    #: of cells that the median falls in.
    GAPPED_SHARES = (0.25, 0.75)

    def __init__(self, lib):
        self.lib = lib

    def plan(self, rng: random.Random) -> list[list[Op]]:
        ops = []
        for share in self.GAPPED_SHARES:
            for n in (3, 10, 20, 30):
                gapped = gapped_set(rng, n, size=min(max(1, int(share * (n - 1))), n - 2))
                for b in (1.2, 2.0, 5.0):
                    for kind, idx in (
                        ("first", range(1, n + 1)),
                        ("first", (n - 1, n)),
                        ("first", gapped),
                        ("second", range(0, n + 1)),
                        ("second", (n - 1, n)),
                    ):
                        ops.append(make_op(kind, idx, jitter(rng, b)))
        rng.shuffle(ops)
        return [ops]

    def execute(self, op: Op, recorder=None):
        lib = self.lib
        spec = lib.ProblemSpec(op.kind, op.indices, op.b)
        sol = lib.solve(spec)
        report = lib.verify_solution(sol, spec)
        cert = lib.duality_certificate(sol, spec)
        return sol, report, cert

    def judge(self, op: Op, raw, recorder=None) -> Outcome:
        return judge_certified(op, *raw)


def judge_certified(op: Op, sol, report, cert) -> Outcome:
    out = Outcome()
    for check, ok in report.checks.items():
        if not ok:
            out.reasons.append(check if check in VERIFY_REASONS else "verify_other")
    out.health["sup_excess_max"] = report.constraint_sup.sup - 1.0
    out.health["attainment_max"] = report.support_attainment
    if cert.ok:
        eq, ident = certificate_residuals(cert)
        out.health["certificate_residual_max"] = eq
        out.health["certificate_norm_identity_max"] = ident
        if not (eq <= CERT_EQ_TOL and ident <= CERT_ID_TOL):
            out.reasons.append("certificate")
    else:
        out.reasons.append("certificate")
        out.error = f"certificate: singular moment matrix at index {cert.failed_index}"
    _objective_check(op, sol.objective, out)
    return out


class PhaseSweep:
    name = "phase_sweep"

    def __init__(self, lib):
        self.lib = lib

    def plan(self, rng: random.Random) -> list[list[Op]]:
        import numpy as np  # after the caller has pinned BLAS threads

        grid = np.linspace(0.5, 6.0, 1001)  # the b grid of the sweep command
        sweeps = [
            ("first", tuple(range(1, 11))),
            ("first", (29, 30)),
            # half of the degrees: sparse sets at large b hit the precision
            # loss of the double-precision recurrence, which certify_matrix
            # shows; this sweep times solve and must not fail
            ("first", gapped_set(rng, 20, size=9)),
            ("second", tuple(range(0, 21))),
            ("second", (9, 10)),
        ]
        order = list(range(len(grid)))
        rng.shuffle(order)
        # one round = the same grid point on every sweep, so any prefix of
        # the run keeps the five sweeps in equal proportion
        return [[make_op(kind, idx, float(grid[i])) for kind, idx in sweeps] for i in order]

    def execute(self, op: Op, recorder=None):
        return self.lib.solve(self.lib.ProblemSpec(op.kind, op.indices, op.b))

    def judge(self, op: Op, sol, recorder=None) -> Outcome:
        out = Outcome()
        _objective_check(op, sol.objective, out)
        return out


#: child used in the traced run of ``cli_cold``: times the CLI import, then
#: runs ``main`` under the span recorder and reports on stderr
CHILD_SHIM = """
import json, sys, time
t0 = time.perf_counter()
import chebextremal.cli as cli
import_ms = (time.perf_counter() - t0) * 1e3
import spans
rec = spans.Recorder()
rec.add_span("cli.import", import_ms)
with spans.patched(rec):
    rc = cli.main(sys.argv[1:])
sys.stdout.flush()
print(spans.CHILD_MARK + json.dumps(rec.summary()), file=sys.stderr)
sys.exit(rc)
"""


def run_child(argv: list[str], env: dict, cwd: str):
    """Run a child to completion; returns exit code, stdout, stderr, max RSS (KiB)."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=cwd)
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for stream in chunks:
            sel.register(stream, selectors.EVENT_READ)
        while sel.get_map():
            for key, _ in sel.select():
                data = os.read(key.fd, 65536)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    out, err = (b"".join(chunks[s]).decode() for s in (proc.stdout, proc.stderr))
    return proc.returncode, out, err, usage.ru_maxrss


class CliCold:
    name = "cli_cold"

    def __init__(self, root: str):
        self.root = root
        src = os.path.join(root, "src")
        here = os.path.dirname(os.path.abspath(__file__))
        self.env = dict(os.environ, PYTHONPATH=src)
        self.trace_env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, here]))

    def plan(self, rng: random.Random) -> list[list[Op]]:
        ops = [
            make_op("first", range(1, 7), jitter(rng, 1.5)),
            make_op("first", (7, 8), jitter(rng, 2.5)),
            make_op("first", gapped_set(rng, 7), jitter(rng, 2.0)),
            make_op("second", range(0, 6), jitter(rng, 1.8)),
            make_op("second", (7, 8), jitter(rng, 2.8)),
        ]
        rng.shuffle(ops)
        # ops cost alike, so each is its own round and runs end close to time
        return [[op] for op in ops]

    def argv(self, op: Op, traced: bool) -> list[str]:
        args = ["solve", "--kind", op.kind, "--indices", ",".join(map(str, op.indices)),
                "--b", repr(op.b)]
        head = ["-c", CHILD_SHIM] if traced else ["-m", "chebextremal.cli"]
        return [sys.executable, *head, *args]

    def execute(self, op: Op, recorder=None):
        traced = recorder is not None
        return run_child(self.argv(op, traced), self.trace_env if traced else self.env, self.root)

    def judge(self, op: Op, raw, recorder=None) -> Outcome:
        rc, stdout, stderr, rss = raw
        out = Outcome(child_rss_kb=rss)
        if recorder is not None:
            for line in stderr.splitlines():
                if line.startswith(CHILD_MARK):
                    recorder.merge(json.loads(line[len(CHILD_MARK):]))
        if rc not in (0, 2):
            out.reasons.append("exception")
            out.error = f"exit code {rc}: {stderr.strip()[-300:]}"
            return out
        doc = json.loads(stdout)
        verification = doc["verification"]
        if rc != 0 or not verification["pass"]:
            out.reasons.append("verify_other")
        out.health["sup_excess_max"] = verification["constraint_sup"] - 1.0
        out.health["attainment_max"] = verification["support_attainment"]
        _objective_check(op, doc["solution"]["objective"], out)
        return out


class OracleCrosscheck:
    name = "oracle_crosscheck"

    def __init__(self, cli):
        self.cli = cli

    def plan(self, rng: random.Random) -> list[list[Op]]:
        # (3,4,5) at b ~ 2 misses the gap tolerance at every b in range; the
        # others pass with a wide margin, so the verdicts do not hang on the seed
        ops = [
            make_op("first", (2, 3), jitter(rng, 2.5)),
            make_op("first", (3, 4, 5), jitter(rng, 2.0)),
            make_op("first", gapped_set(rng, 3), jitter(rng, 1.5)),
            make_op("second", (0, 1, 2), jitter(rng, 2.0)),
            make_op("second", (1, 2), jitter(rng, 2.5)),
            make_op("second", (0, 1), jitter(rng, 1.5)),
        ]
        rng.shuffle(ops)
        return [ops]

    def execute(self, op: Op, recorder=None):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = self.cli.main(["oracle", "--kind", op.kind,
                                "--indices", ",".join(map(str, op.indices)), "--b", repr(op.b)])
        return rc, stdout.getvalue(), stderr.getvalue()

    def judge(self, op: Op, raw, recorder=None) -> Outcome:
        rc, stdout, stderr = raw
        out = Outcome()
        if rc not in (0, 2):
            out.reasons.append("exception")
            out.error = f"exit code {rc}: {stderr.strip()[-300:]}"
            return out
        doc = json.loads(stdout)
        out.gap_ok = bool(doc["pass"])
        if rc == 2:
            out.reasons.append("oracle_gap")
            out.error = f"oracle gap {doc['gap']:.3g}"
        # the CLI passes a gap up to 1e-3 * max(1, objective)
        tolerance = 1e-3 * max(1.0, doc["solver_objective"])
        out.health["oracle_gap_share_max"] = doc["gap"] / tolerance
        _objective_check(op, doc["solver_objective"], out)
        return out


def build(name: str, lib, cli, root: str):
    """The workload called ``name``; raises KeyError for an unknown name."""
    factories = {
        CertifyMatrix.name: lambda: CertifyMatrix(lib),
        PhaseSweep.name: lambda: PhaseSweep(lib),
        CliCold.name: lambda: CliCold(root),
        OracleCrosscheck.name: lambda: OracleCrosscheck(cli),
    }
    return factories[name]()


WORKLOAD_NAMES = (CertifyMatrix.name, PhaseSweep.name, CliCold.name, OracleCrosscheck.name)
