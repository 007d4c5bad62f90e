"""Numerically stable evaluation of materialized circuits.

Everything here works in log space.  ``log_forward`` is the single-pass
bottom-up evaluator over an explicit circuit.  Circuits in latent-tree
tensor form (the shape produced by materialization) are evaluated by the
one latent-tree engine, ``upward_pass``, fed by the one vectorized
evidence kernel, ``evidence_rows``.  The engine only adds blocks and
hands them to a per-latent ``contract`` callback, so it serves ndarrays
here (``latent_tree_loglik``, for ``gaussian``'s closed-form blocks) and
tape nodes alike: every neural and free-tensor log-likelihood goes
through ``training.tree_loglik_node``.  On ndarrays each latent is
contracted by ``autodiff._lse_matmul_data``, the kernel of the tape
primitive ``lse_matmul``, which stays exact when the row and column
maxima misalign.  NaN marks a marginalized evidence cell, in training too:
``evidence_rows`` is the forward of the tape's ``evidence`` op.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.special import gammaln

from .autodiff import _logsumexp_data, _lse_matmul_data
from .circuit import Circuit, in_support, post_order
from .errors import NumericError, UnsupportedStructureError
from .structures import top_down_order

LOG_2PI = float(np.log(2.0 * np.pi))


def observed_evidence(family: str, num_states, x_col: np.ndarray, var=None) -> tuple[np.ndarray, np.ndarray]:
    """Observed-cell mask of one evidence column and its checked values.

    NaN marks a marginalized cell.  Observed values must lie in the
    family's support: integers in [0, k) for categorical(k) and [0, k]
    for binomial(k), returned as int64; finite reals for gaussian.
    """
    observed = ~np.isnan(x_col)
    xv = x_col[observed]
    where = "" if var is None else f" for variable {var}"
    if not in_support(family, num_states, xv).all():
        raise ValueError(f"evidence{where} outside {family}{f'({num_states})' if num_states else ''} support")
    return observed, xv if family == "gaussian" else xv.astype(np.int64)


def gaussian_logpdf(x, mean, log_sigma):
    """Gaussian log-density log N(x; mean, exp(log_sigma)^2), broadcasting."""
    z = (x - mean) * np.exp(-log_sigma)
    return -0.5 * z * z - log_sigma - 0.5 * LOG_2PI


def evidence_rows(table: np.ndarray, family: str, num_states, x_col: np.ndarray, var=None) -> np.ndarray:
    """Evidence log-likelihoods of one observable under N parameter rows, (N, B).

    table is the observable's (N, I) parameter block: log-probabilities
    for categorical, the success probability for binomial, (mu, log sigma)
    for gaussian.  x_col is the batch column; NaN cells are marginalized
    out and contribute log 1 = 0.
    """
    observed, v = observed_evidence(family, num_states, x_col, var)
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


def _check_concrete(qpc: Circuit) -> None:
    for u in qpc.units:
        if u.kind == "integral":
            raise UnsupportedStructureError(
                f"unit {u.uid} is symbolic (integral); materialize the circuit first"
            )
        if u.kind == "input" and u.dist.symbolic:
            raise UnsupportedStructureError(
                f"input unit {u.uid} has symbolic parameters; materialize the circuit first"
            )


def forward_values(qpc: Circuit, ev: np.ndarray, order=None) -> np.ndarray:
    """Per-unit log values of one evidence block, shape (units, B)."""
    if order is None:
        order = post_order(qpc)
    values = np.empty((len(qpc.units), ev.shape[0]))
    for uid in order:
        u = qpc.units[uid]
        if u.kind == "input":
            d = u.dist
            vals = evidence_rows(d.params[None, :], d.family, d.num_states, ev[:, u.var], u.var)[0]
        elif u.kind == "product":
            vals = values[list(u.children)].sum(axis=0)
        else:
            vals = _logsumexp_data(values[list(u.children)] + u.weights[:, None], 0, False)
        if np.isnan(vals).any() or np.isposinf(vals).any():
            raise NumericError(f"non-finite value at unit {uid}")
        values[uid] = vals
    return values


def log_forward(qpc: Circuit, evidence: np.ndarray, chunk: int = 4096) -> np.ndarray:
    """Batched log-likelihoods of evidence rows under a concrete circuit.

    evidence is (B, D) or (D,); NaN marks a variable as marginalized out.
    Returns (B,) log-likelihoods (or a scalar for 1-D input).
    """
    evidence = np.asarray(evidence, dtype=np.float64)
    single = evidence.ndim == 1
    if single:
        evidence = evidence[None, :]
    if evidence.shape[1] != qpc.num_vars:
        raise ValueError(f"evidence has {evidence.shape[1]} columns, circuit has {qpc.num_vars}")
    _check_concrete(qpc)
    order = post_order(qpc)
    out = np.empty(evidence.shape[0])
    for lo in range(0, evidence.shape[0], chunk):
        ev = evidence[lo : lo + chunk]
        out[lo : lo + chunk] = forward_values(qpc, ev, order)[qpc.root]
    return out[0] if single else out


def marginal(qpc: Circuit, evidence: np.ndarray) -> np.ndarray:
    """Log-probability of the marginal event described by the evidence.

    Identical single pass as log_forward: marginalized variables (NaN)
    contribute total mass 1 at their input units.
    """
    return log_forward(qpc, evidence)


def sample_pc(qpc: Circuit, n: int, seed: int) -> np.ndarray:
    """Ancestral sampling: n rows over the circuit's observables.

    Sum units draw a child proportionally to exp(weights), products
    descend into all children, input units draw from their family.
    """
    _check_concrete(qpc)
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


def bpd(loglik, num_vars: int):
    """Bits per dimension: -loglik / (D ln 2)."""
    if num_vars < 1:
        raise ValueError("bpd needs at least one variable")
    return -np.asarray(loglik) / (num_vars * np.log(2.0))


def upward_pass(latent_parent, obs_parent, obs_rows, contract):
    """The latent-tree engine: one bottom-up message pass.

    Adds each observable's evidence block obs_rows[j] into the
    accumulator of its latent obs_parent[j], then visits the latents
    children first: ``contract(i, acc)`` turns latent i's accumulated
    (N_i, B) block into its (J, B) message, which is added into the
    parent's accumulator.  Returns the root's message.  Blocks are only
    added and handed on, so the same pass runs on ndarrays and on tape
    nodes; obs_rows may be a generator.
    """
    order = top_down_order(latent_parent)
    acc = [None] * len(latent_parent)
    for j, (p, rows) in enumerate(zip(obs_parent, obs_rows, strict=True)):
        if not 0 <= p < len(acc):
            raise ValueError(f"observable {j}: parent latent {p} out of range")
        acc[p] = rows if acc[p] is None else acc[p] + rows
    for i in reversed(order):
        if acc[i] is None:
            raise ValueError(f"latent {i} has no children")
        up = contract(i, acc[i])
        acc[i] = None
        p = latent_parent[i]
        if p is None:
            return up
        acc[p] = up if acc[p] is None else acc[p] + up


def latent_tree_loglik(latent_parent, obs_parent, sum_rows, obs_loglik) -> np.ndarray:
    """Fused log-likelihood (B,) of a latent-tree circuit in tensor form.

    sum_rows[i] is the (N_parent, N_i) log-weight matrix of latent i
    (row j: log of quadrature weight times conditional density at parent
    point j; the root has a single prior row).  obs_loglik[j] is the
    (N_parent, B) per-point evidence log-likelihood of observable j.
    Equivalent to log_forward over the fully materialized circuit.
    """
    return upward_pass(latent_parent, obs_parent, obs_loglik, lambda i, acc: _lse_matmul_data(sum_rows[i], acc))[0]


def benchmark_eval(qpc: Circuit, batch: np.ndarray, iters: int) -> dict:
    """Wall-time per log_forward call and resulting edge throughput."""
    times = []
    for _ in range(iters):
        t0 = time.perf_counter()
        log_forward(qpc, batch)
        times.append(time.perf_counter() - t0)
    times_arr = np.array(times)
    edges = qpc.num_edges * batch.shape[0]
    return {
        "times": times_arr,
        "edges_per_second": edges / float(np.median(times_arr)),
        "num_edges": qpc.num_edges,
    }
