"""Slow reference implementations that pin the package's fast paths in the tests.

The explicit-circuit oracles walk a circuit one unit at a time,
independently of the layered evaluator in ``picirc.runtime`` and
``picirc.training.em_step``.  ``unitwise_loglik_node`` builds one tape
node per concrete unit of the static QPC, independently of the latent-tree
engine behind ``training.batch_loglik_node``.  ``joint_gaussian`` is the
dense Gaussian joint that checks ``gaussian.exact_loglik``,
``energy_forward`` and ``decoder_forward`` evaluate an energy net and a
decoder at one point, and ``energy_grid_direct`` is an energy grid from
every point's own Fourier features, which pins ``nets.fourier_dense``.
``serialize_reference`` writes a circuit through ``json.dumps``, which pins
the bytes of ``circuit.serialize``.

The tape ops that only these oracles and the tests record live here, not
in ``picirc.autodiff``: ``gather``, ``exp``, ``log``, ``matmul`` and the
general ``logsumexp`` over any axis (with its kernel ``_logsumexp_data``),
which pins ``autodiff.log_normalize``.  Each registers its backward rule
through ``autodiff._backward_rule`` on import, as ``picirc.training``
registers ``evidence``.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
from scipy.special import gammaln

from picirc import autodiff as ad
from picirc.autodiff import Node, Tape
from picirc.circuit import Circuit, _encode_cond, _fmt
from picirc.errors import CircuitError
from picirc.gaussian import LinearGaussianLTM
from picirc.materialize import input_param_node, sum_param_node
from picirc.nets import DecoderNet, EnergyNet, ParamNets
from picirc.quadrature import QuadratureRule
from picirc.runtime import gaussian_logpdf, observed_evidence
from picirc.structures import top_down_order
from picirc.training import evidence_node


def gather(a: Node, index, axis=0) -> Node:
    index = np.asarray(index, dtype=np.intp)
    out = np.take(a.data, index, axis=axis)
    return a.tape.record("gather", out, (a,), (a.data.shape, index, axis))


@ad._backward_rule("gather")
def _gather_bwd(ctx, g):
    shape, index, axis = ctx
    out = np.zeros(shape)
    sel = (slice(None),) * axis + (index,)
    np.add.at(out, sel, g)
    return (out,)


def exp(a: Node) -> Node:
    out = np.exp(a.data)
    return a.tape.record("exp", out, (a,), out)


@ad._backward_rule("exp")
def _exp_bwd(ctx, g):
    return (g * ctx,)


def log(a: Node) -> Node:
    return a.tape.record("log", np.log(a.data), (a,), a.data)


@ad._backward_rule("log")
def _log_bwd(ctx, g):
    return (g / ctx,)


def matmul(a: Node, b: Node) -> Node:
    if a.ndim not in (1, 2) or b.ndim not in (1, 2):
        raise ValueError(f"matmul supports 1-D/2-D operands, got {a.ndim}-D @ {b.ndim}-D")
    return a.tape.record("matmul", a.data @ b.data, (a, b), (a.data, b.data))


@ad._backward_rule("matmul")
def _matmul_bwd(ctx, g):
    da, db = ctx
    if da.ndim == 2 and db.ndim == 2:
        return g @ db.T, da.T @ g
    if da.ndim == 2 and db.ndim == 1:
        return np.outer(g, db), da.T @ g
    if da.ndim == 1 and db.ndim == 2:
        return db @ g, np.outer(da, g)
    return g * db, g * da


def _logsumexp_data(x, axis, keepdims):
    m = np.max(x, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(x - m), axis=axis, keepdims=True)) + m
    if not keepdims and axis is not None:
        out = np.squeeze(out, axis=axis)
    elif not keepdims:
        out = out.reshape(())
    return out


def logsumexp(a: Node, axis=None, keepdims=False) -> Node:
    out = _logsumexp_data(a.data, axis, keepdims)
    return a.tape.record("logsumexp", out, (a,), (a.data, out, axis, keepdims))


@ad._backward_rule("logsumexp")
def _logsumexp_bwd(ctx, g):
    x, out, axis, keepdims = ctx
    if not keepdims:
        if axis is None:
            out_e = out.reshape((1,) * x.ndim)
            g_e = np.asarray(g).reshape((1,) * x.ndim)
        else:
            out_e = np.expand_dims(out, axis)
            g_e = np.expand_dims(g, axis)
    else:
        out_e, g_e = out, g
    with np.errstate(invalid="ignore"):
        p = np.where(np.isneginf(x), 0.0, np.exp(x - out_e))
    return (g_e * p,)


def copy_circuit(pc: Circuit) -> Circuit:
    """Fresh unit list with independently owned weight arrays, for ``em_step`` to update."""
    units = [replace(u, weights=None if u.weights is None else u.weights.copy()) for u in pc.units]
    return Circuit(units=units, root=pc.root, num_vars=pc.num_vars)


def serialize_reference(circuit: Circuit) -> bytes:
    """The circuit's JSON document through ``json.dumps(doc, indent=1)``: the bytes ``circuit.serialize`` must write."""
    units = []
    for u in circuit.units:
        rec: dict = {
            "id": u.uid,
            "kind": u.kind,
            "children": list(u.children),
            "scope": sorted(u.scope),
        }
        if u.weights is not None:
            rec["weights"] = [_fmt(w) for w in u.weights]
        if u.dist is not None:
            d: dict = {"family": u.dist.family}
            if u.dist.num_states is not None:
                d["k"] = u.dist.num_states
            if u.dist.params is not None:
                d["params"] = [_fmt(p) for p in u.dist.params]
            if u.dist.conditional is not None:
                d["conditional"] = _encode_cond(u.dist.conditional)
            rec["dist"] = d
        if u.latent is not None:
            rec["latent"] = {
                "var": u.latent["var"],
                "parent": u.latent["parent"],
                "cond": _encode_cond(u.latent["cond"]),
            }
        units.append(rec)
    doc = {"num_vars": circuit.num_vars, "root": circuit.root, "units": units}
    return json.dumps(doc, indent=1).encode()


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


def _row(node: Node, j: int) -> Node:
    """Row j of a 2-D node as a 1-D node."""
    picked = gather(node, np.array([j]), axis=0)
    return ad.reshape(picked, (node.shape[1],))


def _entry(row: Node, k: int) -> Node:
    return ad.reshape(gather(row, np.array([k]), axis=0), ())


def _sum_nodes(nodes: list[Node]) -> Node:
    total = nodes[0]
    for node in nodes[1:]:
        total = total + node
    return total


def _logsumexp_list(tape: Tape, nodes: list[Node]) -> Node:
    """Elementwise logsumexp over equal-shape nodes, shifted by their detached elementwise max."""
    m = np.max([n.data for n in nodes], axis=0)
    m = tape.const(np.where(np.isfinite(m), m, 0.0))
    total = exp(ad.add(nodes[0], ad.neg(m)))
    for node in nodes[1:]:
        total = total + exp(ad.add(node, ad.neg(m)))
    return log(total) + m


def unitwise_loglik_node(tape: Tape, pic: Circuit, nets: ParamNets, pnodes, rule: QuadratureRule, x: np.ndarray) -> Node:
    """Same quantity as ``training.batch_loglik_node`` via the fully materialized circuit.

    Walks the symbolic circuit exactly like the static materializer and
    creates one (B,) tape node per concrete unit it would build.  Slow by
    construction; exists to pin the fused path's loss and gradients.
    """
    tables = {}
    for j, net in enumerate(nets.decoder):
        block = input_param_node(tape, net, nets.net_pnodes(net, pnodes), rule.points)
        tables[j] = evidence_node(tape, block, nets.family, nets.num_states, x[:, j])
    srows = {}
    for i, net in enumerate(nets.energy):
        srows[i] = sum_param_node(tape, net, nets.net_pnodes(net, pnodes), rule.points, rule.weights)

    n = rule.n
    regions: dict[int, list[Node]] = {}
    for uid in post_order(pic):
        u = pic.units[uid]
        if u.kind == "input":
            regions[uid] = [_row(tables[u.var], j) for j in range(n)]
        elif u.kind == "integral":
            child = regions[u.children[0]]
            s = srows[u.latent["var"]]
            region = []
            for j in range(s.shape[0]):
                row = _row(s, j)
                region.append(_logsumexp_list(tape, [_entry(row, k) + child[k] for k in range(n)]))
            regions[uid] = region
        else:
            groups = [regions[c] for c in u.children]
            regions[uid] = [_sum_nodes([g[j] for g in groups]) for j in range(len(groups[0]))]
    return regions[pic.root][0]


def joint_gaussian(model: LinearGaussianLTM) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of the exact Gaussian joint over observables.

    Assembled by the affine recursions (latent variances/covariances top
    down, then the observable projections).  Quadratic in the node count;
    intended for small models and as the cross-check for exact_loglik.
    """
    n = model.num_latents
    order = top_down_order(model.latent_parent)
    mu_z = np.zeros(n)
    cov_z = np.zeros((n, n))
    for i in order:
        p = model.latent_parent[i]
        if p is None:
            mu_z[i] = model.b[i]
            cov_z[i, i] = model.sigma[i] ** 2
            continue
        mu_z[i] = model.a[i] * mu_z[p] + model.b[i]
        row = model.a[i] * cov_z[p]
        cov_z[i, :] = row
        cov_z[:, i] = row
        cov_z[i, i] = model.a[i] ** 2 * cov_z[p, p] + model.sigma[i] ** 2
    m = model.num_observables
    mean = np.empty(m)
    cov = np.empty((m, m))
    for u in range(m):
        pu = model.obs_parent[u]
        mean[u] = model.c[u] * mu_z[pu] + model.d[u]
        for v in range(m):
            cov[u, v] = model.c[u] * model.c[v] * cov_z[pu, model.obs_parent[v]]
        cov[u, u] += model.tau[u] ** 2
    return mean, cov


def const_weights(tape: Tape, net) -> dict[str, Node]:
    """One net's weights as tape constants, under the names its forward reads."""
    return {k: tape.const(v) for k, v in net.params.items()}


def energy_forward(net: EnergyNet, z_child: float, z_parent: float | None = None) -> float:
    """Scalar energy at one (child, parent) point; inputs must be in [-1, 1]."""
    if (z_parent is None) != (net.input_dim == 1):
        raise ValueError("parent value must match the net's conditioning arity")
    if np.any(np.abs([z_child, 0.0 if z_parent is None else z_parent]) > 1.0 + 1e-12):
        raise ValueError("latent inputs must lie in [-1, 1]")
    tape = Tape()
    parent = None if z_parent is None else [z_parent]
    return float(net.forward(tape, const_weights(tape, net), np.array([z_child]), parent).data[0, 0])


def energy_grid_direct(net: EnergyNet, child_z, parent_z=None) -> np.ndarray:
    """(J, n) energies f(child_z[k], parent_z[j]) by the direct projection, in numpy.

    Builds every grid point's features, cos and sin of x @ 2 pi F
    interleaved, and runs the dense layers and the softplus head on them:
    the (J n, 2K) array that ``nets.fourier_dense`` never forms.
    """
    child_z = np.asarray(child_z, dtype=np.float64)
    if parent_z is None:
        x, rows = child_z[:, None], 1
    else:
        parent_z = np.asarray(parent_z, dtype=np.float64)
        x, rows = np.column_stack([np.tile(child_z, len(parent_z)), np.repeat(parent_z, len(child_z))]), len(parent_z)
    proj = x @ (2.0 * np.pi * net.ffl.frequencies)
    h = np.empty((len(x), 2 * proj.shape[1]))
    h[:, 0::2], h[:, 1::2] = np.cos(proj), np.sin(proj)
    depth = len(net.params) // 2
    for layer in range(depth):
        h = h @ net.params[f"w{layer}"] + net.params[f"b{layer}"]
        if layer < depth - 1:
            h = np.tanh(h)
    return np.logaddexp(0.0, h).reshape(rows, len(child_z))


def decoder_forward(net: DecoderNet, z: float) -> np.ndarray:
    """Squashed parameter vector of one decoder at one latent point."""
    tape = Tape()
    return net.squash(net.forward(tape, const_weights(tape, net), tape.const([[z]]))).data[0]
