"""High-precision reference objectives for the benchmark.

The reference re-derives the optimum from the paper's dual canonical-moment
recurrence at 60 significant digits with ``mpmath``, independently of the
library's own code: odd canonical moments are 1/2, p_{2n} = 1, and the even
entries are filled from the top down,

    p_{2m} = max(z_m [1 - b^{-2(n-m)} / prod_{i=m+1}^{n-1} q_{2i} p_{2i}], 1/2),

with z_m = 1 iff m is a prescribed degree.  The optimum is 1/k_n with
k_n = (2b)^{2n} prod_{i=1}^{n} zeta_{2i-1} zeta_{2i}.  The weighted
(second-kind) problem on I inherits its optimum from the unweighted one on
I + 1.
"""

from __future__ import annotations

import mpmath

DIGITS = 60

#: relative tolerance an objective must meet against the reference
REFERENCE_RTOL = 1e-9


def reference_objective(kind: str, indices, b: float) -> float:
    """Optimal objective, computed at 60 digits and rounded to a double."""
    idx = sorted(set(int(i) for i in indices))
    if kind == "second":
        idx = [i + 1 for i in idx]
    n = idx[-1]
    members = set(idx)
    with mpmath.workdps(DIGITS):
        bb = mpmath.mpf(b)
        half = mpmath.mpf(1) / 2
        p_even = {n: mpmath.mpf(1)}
        tail = mpmath.mpf(1)  # prod of q_{2i} p_{2i} over i = m+1 .. n-1
        for m in range(n - 1, 0, -1):
            pm = max(1 - bb ** (-2 * (n - m)) / tail, half) if m in members else half
            p_even[m] = pm
            tail *= (1 - pm) * pm
        # zeta_{2i-1} = q_{2i-2} p_{2i-1} and zeta_{2i} = q_{2i-1} p_{2i}, odd p = 1/2
        k = (2 * bb) ** (2 * n)
        for i in range(1, n + 1):
            zeta_odd = half if i == 1 else (1 - p_even[i - 1]) * half
            k *= zeta_odd * half * p_even[i]
        return float(1 / k)


def relative_error(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


def anchor_errors() -> dict[str, float]:
    """Relative errors of the reference at two known closed-form optima.

    (1, 2, 3) at b = 2 has optimum 3/8; the singleton {n} has optimum
    2^{2n-2} / b^{2n} (the squared leading coefficient of T_n(x/b)).
    """
    out = {"first(1,2,3)@b=2": relative_error(reference_objective("first", (1, 2, 3), 2.0), 0.375)}
    for n, b in ((1, 0.7), (7, 1.3), (30, 5.0)):
        exact = 2.0 ** (2 * n - 2) / b ** (2 * n)
        out[f"first({n},)@b={b}"] = relative_error(reference_objective("first", (n,), b), exact)
    return out
