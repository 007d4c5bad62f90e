"""Numerical integration rules on closed intervals.

Four rule families are provided: midpoint, trapezoidal, composite Simpson,
and Gauss-Legendre.  Every rule is represented the same way, as a set of
points and positive weights whose weighted sum approximates the integral
over ``[a, b]``.  The default domain is ``[-1, 1]``, which is the canonical
latent domain used elsewhere in the package.  A rule's arrays are
read-only.  The Gauss-Legendre nodes on ``[-1, 1]`` are cached per point
count, because the Gaussian study builds one rule per latent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import NumericError

RULE_KINDS = ("midpoint", "trapezoidal", "simpson", "gauss_legendre")


@dataclass(frozen=True)
class QuadratureRule:
    """Points and weights approximating an integral over ``[a, b]``."""

    kind: str
    points: np.ndarray
    weights: np.ndarray
    domain: tuple[float, float] = field(default=(-1.0, 1.0))

    @property
    def n(self) -> int:
        return self.points.shape[0]


@lru_cache(maxsize=32)
def _legendre_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Roots and weights of the degree-n Legendre polynomial on [-1, 1], read-only.

    Newton iteration on the three-term recurrence, started from the
    Chebyshev-like initial guesses cos(pi (k - 1/4) / (n + 1/2)).  It costs
    O(n^2), about 20 ms at n = 512, so the last 32 point counts are cached.
    """
    k = np.arange(1, n + 1, dtype=np.float64)
    x = np.cos(np.pi * (k - 0.25) / (n + 0.5))
    dp = np.ones_like(x)
    for _ in range(100):
        p_prev = np.ones_like(x)
        p = x.copy()
        for m in range(2, n + 1):
            p_prev, p = p, ((2 * m - 1) * x * p - (m - 1) * p_prev) / m
        # P_n'(x) = n (x P_n - P_{n-1}) / (x^2 - 1); guesses never hit +-1
        dp = n * (x * p - p_prev) / (x * x - 1.0)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) < 1e-14:
            break
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    order = np.argsort(x)
    x, w = x[order], w[order]
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def make_rule(kind: str, n: int, a: float = -1.0, b: float = 1.0) -> QuadratureRule:
    """Build an n-point rule of the given kind on ``[a, b]``.

    The trapezoidal rule needs at least two points and composite Simpson
    needs an odd point count of at least three; other kinds accept any
    ``n >= 1``.
    """
    if kind not in RULE_KINDS:
        raise ValueError(f"unknown quadrature kind {kind!r}; expected one of {RULE_KINDS}")
    if not np.isfinite(a) or not np.isfinite(b) or a >= b:
        raise ValueError(f"domain must satisfy a < b, got [{a}, {b}]")
    n = int(n)
    if n < 1:
        raise ValueError(f"rule needs at least one point, got n={n}")

    width = b - a
    if kind == "midpoint":
        h = width / n
        points = a + (np.arange(n) + 0.5) * h
        weights = np.full(n, h)
    elif kind == "trapezoidal":
        if n < 2:
            raise ValueError("trapezoidal rule needs n >= 2")
        h = width / (n - 1)
        points = a + np.arange(n) * h
        weights = np.full(n, h)
        weights[0] = weights[-1] = h / 2.0
    elif kind == "simpson":
        if n < 3 or n % 2 == 0:
            raise ValueError(f"simpson rule needs an odd n >= 3, got n={n}")
        h = width / (n - 1)
        points = a + np.arange(n) * h
        weights = np.full(n, 2.0 * h / 3.0)
        weights[1::2] = 4.0 * h / 3.0
        weights[0] = weights[-1] = h / 3.0
    else:
        x, w = _legendre_nodes(n)
        points = 0.5 * width * x + 0.5 * (a + b)
        weights = 0.5 * width * w

    points.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(kind=kind, points=points, weights=weights, domain=(float(a), float(b)))


def integrate(rule: QuadratureRule, f) -> float:
    """Apply the rule to a scalar function: sum of w_i * f(z_i)."""
    values = np.array([float(f(z)) for z in rule.points])
    bad = ~np.isfinite(values)
    if bad.any():
        z = rule.points[np.argmax(bad)]
        raise NumericError(f"integrand returned a non-finite value at z={z!r}")
    return float(values @ rule.weights)
