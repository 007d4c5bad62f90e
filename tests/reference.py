"""Slow reference implementations of the explicit-circuit paths.

Each walks a circuit one unit at a time, independently of the layered
evaluator in ``picirc.runtime`` and ``picirc.training.em_step``, and
exists only to pin those fast paths in the tests.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from scipy.special import gammaln

from picirc.autodiff import _logsumexp_data
from picirc.circuit import Circuit
from picirc.errors import CircuitError
from picirc.runtime import gaussian_logpdf, observed_evidence


def copy_circuit(pc: Circuit) -> Circuit:
    """Fresh unit list with independently owned weight arrays, for ``em_step`` to update."""
    units = [replace(u, weights=None if u.weights is None else u.weights.copy()) for u in pc.units]
    return Circuit(units=units, root=pc.root, num_vars=pc.num_vars)


def post_order(circuit: Circuit) -> list[int]:
    """Children-before-parents order, one (unit, next child) stack frame per edge."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = [WHITE] * len(circuit.units)
    order: list[int] = []
    stack: list[tuple[int, int]] = [(circuit.root, 0)]
    color[circuit.root] = GRAY
    while stack:
        uid, child_pos = stack[-1]
        children = circuit.units[uid].children
        if child_pos < len(children):
            stack[-1] = (uid, child_pos + 1)
            c = children[child_pos]
            if color[c] == GRAY:
                raise CircuitError(f"cycle detected at unit {c}")
            if color[c] == WHITE:
                color[c] = GRAY
                stack.append((c, 0))
        else:
            stack.pop()
            color[uid] = BLACK
            order.append(uid)
    return order


def evidence_rows(table: np.ndarray, family: str, num_states, x_col: np.ndarray) -> np.ndarray:
    """Evidence log-likelihoods (N, B) by a boolean-mask assignment into zeros."""
    observed, v = observed_evidence(family, num_states, x_col)
    out = np.zeros((table.shape[0], len(x_col)))
    if family == "categorical":
        out[:, observed] = table[:, v]
    elif family == "binomial":
        k = num_states
        p = table[:, :1]
        out[:, observed] = gammaln(k + 1) - gammaln(v + 1) - gammaln(k - v + 1) + v * np.log(p) + (k - v) * np.log1p(-p)
    else:
        out[:, observed] = gaussian_logpdf(v, table[:, :1], table[:, 1:2])
    return out


def forward_values(qpc: Circuit, ev: np.ndarray) -> np.ndarray:
    """Per-unit log values (units, B), one logsumexp per sum unit."""
    values = np.empty((len(qpc.units), ev.shape[0]))
    for uid in post_order(qpc):
        u = qpc.units[uid]
        if u.kind == "input":
            d = u.dist
            values[uid] = evidence_rows(d.params[None, :], d.family, d.num_states, ev[:, u.var])[0]
        elif u.kind == "product":
            values[uid] = values[list(u.children)].sum(axis=0)
        else:
            values[uid] = _logsumexp_data(values[list(u.children)] + u.weights[:, None], 0, False)
    return values


def em_step(pc: Circuit, batch: np.ndarray, eta: float) -> float:
    """EM with explicit per-unit flows; a sum unit without incoming flow keeps its weights."""
    order = post_order(pc)
    values = forward_values(pc, batch)
    flows = np.zeros_like(values)
    flows[pc.root] = 1.0
    counts: dict[int, np.ndarray] = {}
    for uid in order[::-1]:
        u = pc.units[uid]
        fl = flows[uid]
        if u.kind == "product":
            for c in u.children:
                flows[c] += fl
        elif u.kind == "sum":
            kids = list(u.children)
            with np.errstate(invalid="ignore"):
                ratio = np.exp(values[kids] + u.weights[:, None] - values[uid][None, :])
            ratio[:, ~np.isfinite(values[uid])] = 0.0
            child_flow = fl[None, :] * ratio
            counts[uid] = child_flow.sum(axis=1)
            for k, c in enumerate(kids):
                flows[c] += child_flow[k]
    for uid, cnt in counts.items():
        total = cnt.sum()
        if total <= 0.0:
            continue
        u = pc.units[uid]
        theta = np.exp(u.weights - _logsumexp_data(u.weights, None, False))
        theta = (1.0 - eta) * theta + eta * (cnt / total)
        with np.errstate(divide="ignore"):
            w = np.log(theta)
        w.setflags(write=False)
        pc.units[uid] = replace(u, weights=w)
    return float(values[pc.root].mean())


def sample_pc(qpc: Circuit, n: int, seed: int) -> np.ndarray:
    """Ancestral sampling one row and one unit at a time."""
    rng = np.random.default_rng(seed)
    out = np.full((n, qpc.num_vars), np.nan)
    child_probs = {}
    for u in qpc.units:
        if u.kind == "sum":
            p = np.exp(u.weights - _logsumexp_data(u.weights, 0, False))
            child_probs[u.uid] = p / p.sum()
    for row in range(n):
        stack = [qpc.root]
        while stack:
            u = qpc.units[stack.pop()]
            if u.kind == "sum":
                stack.append(u.children[rng.choice(len(u.children), p=child_probs[u.uid])])
            elif u.kind == "product":
                stack.extend(u.children)
            else:
                d = u.dist
                if d.family == "categorical":
                    val = rng.choice(d.num_states, p=np.exp(d.params))
                elif d.family == "binomial":
                    val = rng.binomial(d.num_states, d.params[0])
                else:
                    val = d.params[0] + np.exp(d.params[1]) * rng.standard_normal()
                out[row, u.var] = val
    return out
