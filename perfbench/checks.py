"""Correctness checks on the outputs of the perfbench workloads.

Each check is a pure function of outputs the workload already computed,
returns ``(ok, detail)`` and never raises on a wrong value, so that a failed
check is counted and reported rather than aborting the run.  The workloads
call them outside their timed regions.  Tolerances were fixed before
anything was measured: 1e-9 between evaluation paths of the same circuit, 1e-10
between the tape loss and the fused loss, 1e-12 for normalized sum rows and
1e-4 relative for a finite-difference directional derivative.
"""

from __future__ import annotations

import numpy as np
from picirc import circuit


def _max_diff(a, b) -> float:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        return float("inf")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        return float("inf")
    return float(np.max(np.abs(a - b), initial=0.0))


def paths_agree(reference, others: dict, tol: float = 1e-9) -> tuple[bool, str]:
    """Every named array equals the reference to ``tol`` (absolute) and is finite."""
    diffs = {name: _max_diff(reference, values) for name, values in others.items()}
    ok = all(d <= tol for d in diffs.values())
    return ok, ", ".join(f"{name} max|diff| {d:.3e}" for name, d in diffs.items()) + f" (tol {tol:g})"


def close(a: float, b: float, tol: float) -> tuple[bool, str]:
    """Two finite scalars agree to ``tol`` absolute."""
    d = _max_diff(a, b)
    return d <= tol, f"{a!r} vs {b!r}: |diff| {d:.3e} (tol {tol:g})"


def relative_close(a: float, b: float, rtol: float) -> tuple[bool, str]:
    """Two finite scalars agree to ``rtol`` relative to the larger magnitude."""
    d = _max_diff(a, b)
    scale = max(abs(a), abs(b))
    rel = d / scale if scale > 0 else d
    return rel <= rtol, f"{a!r} vs {b!r}: relative diff {rel:.3e} (rtol {rtol:g})"


def all_finite(values, what: str) -> tuple[bool, str]:
    arr = np.asarray(values, dtype=np.float64)
    bad = int(np.count_nonzero(~np.isfinite(arr)))
    return bad == 0, f"{bad} non-finite of {arr.size} {what}"


def all_equal(values, what: str) -> tuple[bool, str]:
    """Repeated rounds of the same deterministic work gave identical outputs."""
    distinct = {repr(v) for v in values}
    return len(distinct) == 1, f"{len(distinct)} distinct {what} over {len(values)} rounds"


def categorical_support(samples, num_states: int) -> tuple[bool, str]:
    """Sampled values are integers in 0..num_states-1, none missing."""
    s = np.asarray(samples, dtype=np.float64)
    ok_cells = np.isfinite(s) & (s == np.round(s)) & (s >= 0) & (s < num_states)
    bad = int(np.count_nonzero(~ok_cells))
    return bad == 0, f"{bad} of {s.size} sampled cells outside categorical({num_states})"


def sum_rows_normalized(weight_rows, tol: float = 1e-12) -> tuple[bool, str]:
    """Every log-weight row logsumexps to zero."""
    worst = 0.0
    for w in weight_rows:
        w = np.asarray(w, dtype=np.float64)
        m = np.max(w)
        lse = m + np.log(np.sum(np.exp(w - m))) if np.isfinite(m) else np.inf
        worst = max(worst, abs(lse)) if np.isfinite(lse) else np.inf
    return worst <= tol, f"worst |logsumexp| {worst:.3e} over {len(weight_rows)} sum rows (tol {tol:g})"


def round_trip(qpc, restored) -> tuple[bool, str]:
    """The deserialized circuit is structurally and bit-exactly the original."""
    equal = circuit.structurally_equal(qpc, restored)
    return equal, "structurally equal" if equal else "deserialize(serialize(qpc)) differs from qpc"
