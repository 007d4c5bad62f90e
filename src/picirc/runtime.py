"""Numerically stable evaluation of materialized circuits.

Everything here works in log space.  An explicit circuit runs one layer at
a time: ``circuit_layers`` groups its units by shape on every call (inputs
by variable and family, sums by their shared children tuple, products by
arity, each at its depth), and ``forward_values`` (so ``log_forward`` and
``marginal``), ``training.em_step`` and ``sample_pc`` run each layer as one
array operation.  Each sum layer is one contraction by
``autodiff._lse_matmul_parts``, with a product that keeps every row's bits
independent of the chunk it is evaluated in.  Circuits in latent-tree
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
from typing import NamedTuple

import numpy as np
from scipy.special import gammaln

from .autodiff import _logsumexp_data, _lse_matmul_data, _lse_matmul_parts
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
    full = np.zeros(len(x_col), dtype=v.dtype)
    full[observed] = v
    if family == "categorical":
        out = np.take(table, full, axis=1)
    elif family == "binomial":
        k = num_states
        p = table[:, :1]
        out = gammaln(k + 1) - gammaln(full + 1) - gammaln(k - full + 1) + full * np.log(p) + (k - full) * np.log1p(-p)
    else:
        out = gaussian_logpdf(full, table[:, :1], table[:, 1:2])
    if not observed.all():
        out[:, ~observed] = 0.0
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


class Layer(NamedTuple):
    """Units of a concrete circuit evaluated together: one kind, one shape.

    ``index`` is the observable of an input layer, the (K,) child ids
    shared by every unit of a sum layer, and the (U, A) child-id matrix of
    a product layer.  A layer holds structure only: weights and input
    parameters are read from the units when it runs.
    """

    kind: str
    uids: np.ndarray
    index: object


def circuit_layers(qpc: Circuit) -> list[Layer]:
    """The units of a concrete circuit in layers, children before parents.

    One pass over ``post_order``: input units are grouped by (variable,
    family, state count), sum units by their children tuple and product
    units by arity, each at its depth (0 for inputs, else 1 + the deepest
    child).  Layers come in order of depth, so every child runs in an
    earlier layer than its parents.
    """
    units = qpc.units
    depth = [0] * len(units)
    memo: dict[tuple, int] = {}
    groups: dict[tuple, list[int]] = {}
    for uid in post_order(qpc):
        u = units[uid]
        if u.kind == "input":
            key = (0, "input", u.var, u.dist.family, u.dist.num_states)
        else:
            d = memo.get(u.children)
            if d is None:
                d = memo[u.children] = 1 + max(map(depth.__getitem__, u.children))
            depth[uid] = d
            key = (d, "sum", u.children) if u.kind == "sum" else (d, "product", len(u.children))
        groups.setdefault(key, []).append(uid)
    layers = []
    for key, uids in sorted(groups.items(), key=lambda kv: kv[0][0]):
        kind = key[1]
        if kind == "input":
            index = key[2]
        elif kind == "sum":
            index = np.array(key[2], dtype=np.intp)
        else:
            index = np.array([units[uid].children for uid in uids], dtype=np.intp)
        layers.append(Layer(kind, np.array(uids, dtype=np.intp), index))
    return layers


def _column_product(ea: np.ndarray, eb: np.ndarray) -> np.ndarray:
    """ea @ eb without BLAS, each column summed in the same order whatever its neighbours.

    ``np.einsum`` loops over the columns innermost.  A lone column would
    turn into a contiguous dot product, summed in another order, so it is
    computed as the first of two.
    """
    if eb.shape[1] == 1:
        return np.einsum("jk,kb->jb", ea, np.repeat(eb, 2, axis=1))[:, :1]
    return np.einsum("jk,kb->jb", ea, eb)


def layer_table(qpc: Circuit, layer: Layer) -> np.ndarray:
    """A layer's parameters read from its units: (U, K) log weights of a sum layer, the (U, I) table of an input layer."""
    if layer.kind == "sum":
        return np.stack([qpc.units[uid].weights for uid in layer.uids])
    return np.stack([qpc.units[uid].dist.params for uid in layer.uids])


def forward_values(qpc: Circuit, ev: np.ndarray, layers=None, product=_column_product) -> np.ndarray:
    """Per-unit log values of one evidence block, shape (units, B), one layer at a time.

    An input layer is one ``evidence_rows`` call on its parameter table, a
    product layer adds its children's rows one column of its child-index
    matrix at a time, and a sum layer is one ``autodiff._lse_matmul_parts``
    of its log weights against its children's values, multiplied by
    ``product``.  With the default product a row's values do not depend on
    the other rows of the block, bit for bit.  A NaN or +inf value raises
    NumericError naming its unit.
    """
    if layers is None:
        layers = circuit_layers(qpc)
    units = qpc.units
    values = np.empty((len(units), ev.shape[0]))
    for layer in layers:
        if layer.kind == "input":
            d = units[layer.uids[0]].dist
            vals = evidence_rows(layer_table(qpc, layer), d.family, d.num_states, ev[:, layer.index], layer.index)
        elif layer.kind == "product":
            vals = values[layer.index[:, 0]]
            for column in layer.index.T[1:]:
                vals += values[column]
        else:
            vals = _lse_matmul_parts(layer_table(qpc, layer), values[layer.index], product)[0]
        ok = vals < np.inf
        if not ok.all():
            raise NumericError(f"non-finite value at unit {layer.uids[np.flatnonzero(~ok.all(axis=1))[0]]}")
        values[layer.uids] = vals
    return values


def log_forward(qpc: Circuit, evidence: np.ndarray, chunk: int = 4096) -> np.ndarray:
    """Batched log-likelihoods of evidence rows under a concrete circuit.

    evidence is (B, D) or (D,); NaN marks a variable as marginalized out.
    Returns (B,) log-likelihoods (or a scalar for 1-D input).  The rows
    run in chunks of ``chunk`` through ``forward_values``; the result does
    not depend on the chunk size, bit for bit.
    """
    evidence = np.asarray(evidence, dtype=np.float64)
    single = evidence.ndim == 1
    if single:
        evidence = evidence[None, :]
    if evidence.shape[1] != qpc.num_vars:
        raise ValueError(f"evidence has {evidence.shape[1]} columns, circuit has {qpc.num_vars}")
    _check_concrete(qpc)
    layers = circuit_layers(qpc)
    out = np.empty(evidence.shape[0])
    for lo in range(0, evidence.shape[0], chunk):
        ev = evidence[lo : lo + chunk]
        out[lo : lo + chunk] = forward_values(qpc, ev, layers)[qpc.root]
    return out[0] if single else out


def marginal(qpc: Circuit, evidence: np.ndarray) -> np.ndarray:
    """Log-probability of the marginal event described by the evidence.

    Identical single pass as log_forward: marginalized variables (NaN)
    contribute total mass 1 at their input units.
    """
    return log_forward(qpc, evidence)


def _cdf_rows(log_p: np.ndarray) -> np.ndarray:
    """Row-wise cumulative distributions of (U, K) unnormalized log-probabilities; each ends at exactly 1."""
    cdf = np.cumsum(np.exp(log_p - _logsumexp_data(log_p, 1, True)), axis=1)
    return cdf / cdf[:, -1:]


def _draw(cdf: np.ndarray, rng) -> np.ndarray:
    """One inverse-CDF draw per row of cdf: the first index whose value exceeds a uniform."""
    return (cdf <= rng.random(len(cdf))[:, None]).sum(axis=1)


SAMPLE_BLOCK = 4096


def sample_pc(qpc: Circuit, n: int, seed: int) -> np.ndarray:
    """Ancestral sampling: n rows over the circuit's observables.

    Top-down over ``circuit_layers``, vectorized over rows: a sum layer
    sends each row that reaches one of its units to one child, drawn by
    inverse CDF from exp(weights); a product layer sends it to all
    children; an input layer draws its variable from its family.  Rows
    run in blocks of ``SAMPLE_BLOCK``, so memory grows with the rows a
    block visits, never with units times n.
    """
    _check_concrete(qpc)
    units = qpc.units
    layers = circuit_layers(qpc)
    layer_of = np.empty(len(units), dtype=np.intp)
    slot_of = np.empty(len(units), dtype=np.intp)
    tables = []
    for li, layer in enumerate(layers):
        layer_of[layer.uids] = li
        slot_of[layer.uids] = np.arange(len(layer.uids))
        if layer.kind == "product":
            tables.append(None)
        elif layer.kind == "sum" or units[layer.uids[0]].dist.family == "categorical":
            tables.append(_cdf_rows(layer_table(qpc, layer)))
        else:
            tables.append(layer_table(qpc, layer))
    rng = np.random.default_rng(seed)
    out = np.full((n, qpc.num_vars), np.nan)
    for lo in range(0, n, SAMPLE_BLOCK):
        rows = np.arange(lo, min(n, lo + SAMPLE_BLOCK))
        pending: list[list] = [[] for _ in layers]
        pending[layer_of[qpc.root]].append((np.full(len(rows), slot_of[qpc.root]), rows))
        for li in range(len(layers) - 1, -1, -1):
            if not pending[li]:
                continue
            slots = np.concatenate([s for s, _ in pending[li]])
            at = np.concatenate([r for _, r in pending[li]])
            pending[li] = None
            layer, table = layers[li], tables[li]
            if layer.kind == "input":
                d = units[layer.uids[0]].dist
                if d.family == "categorical":
                    out[at, layer.index] = _draw(table[slots], rng)
                elif d.family == "binomial":
                    out[at, layer.index] = rng.binomial(d.num_states, table[slots, 0])
                else:
                    out[at, layer.index] = table[slots, 0] + np.exp(table[slots, 1]) * rng.standard_normal(len(slots))
                continue
            if layer.kind == "sum":
                child = layer.index[_draw(table[slots], rng)]
            else:
                child = layer.index[slots].ravel()
                at = np.repeat(at, layer.index.shape[1])
            target = layer_of[child]
            for t in np.unique(target):
                hit = target == t
                pending[t].append((slot_of[child[hit]], at[hit]))
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
