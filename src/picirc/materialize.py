"""Turning symbolic circuits into concrete quadrature circuits.

``_read_pic`` is the one reader of a symbolic circuit's latent tree; every
function here takes the tree from it.  Two construction modes.  The
static mode gives each input unit and each integral unit a region of
concrete units over its latent's grid, re-using child regions, so the
output size is quadratic in the number of points regardless of depth;
one region builder, ``_build_regions``, emits it for ``materialize_qpc``
and ``HcltTensors.to_circuit``.  The nested mode re-derives a fresh rule
for every parent point (the rule may depend on the conditioned density),
which permits adaptive placement but forbids re-use: the output is a
tree whose size is exponential in depth, so it is guarded by a level
limit.

Neural conditionals are first materialized into log-space parameter
tensors: S[i][j][k] = log(w_k p(z_k | z_j)) with the normalizer of the
energy model approximated by the same rule, which makes every row
logsumexp to exactly zero, and I[i][j] = decoder params at point j.
The tape nodes ``sum_param_node`` and ``input_param_node`` are the one
definition of both; the ndarray tensors are their data, computed over
the weights as tape constants, so nothing is recorded.

``streamed_loglik`` evaluates a batch without building the concrete
circuit: it is ``training.batch_loglik_node`` over the nets' weights as
tape constants, which materializes each latent's sum rows only when the
latent-tree engine reaches it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Node, Tape
from .circuit import Circuit, CircuitBuilder, InputDist, post_order
from .errors import NumericError, SizeError, UnsupportedStructureError
from .nets import ParamNets, _const_weights, decoder_forward
from .quadrature import QuadratureRule
from .runtime import gaussian_logpdf
from .runtime import evidence_rows  # noqa: F401  (looked up here by perfbench)
from .structures import top_down_order


@dataclass(frozen=True)
class SumParamTensor:
    """Log-space sum weights, one (parent point, child point) grid per latent.

    s[i][j][k] = log(w_k p(z_k | z_j)); the root latent has no parent, its
    prior row is stored broadcast along j.
    """

    s: np.ndarray
    z: np.ndarray
    w: np.ndarray


@dataclass(frozen=True)
class InputParamTensor:
    """Decoder outputs per observable and grid point: table[i][j] = g_i(z_j)."""

    table: np.ndarray
    z: np.ndarray
    family: str
    num_states: int | None


def sum_param_node(tape: Tape, net, pnodes, z: np.ndarray, w: np.ndarray, norm_rule: QuadratureRule | None = None) -> Node:
    """One latent's sum-weight rows on the tape; shape (1, N) at the root.

    Row j holds log w_k - E(z_k, z_j) - log normalizer(j).  With the
    default shared rule the normalizer is the row's own logsumexp, so
    each row logsumexps to zero identically.
    """
    n = len(z)
    if np.any(np.abs(z) > 1.0 + 1e-12):
        raise ValueError("energy-model latents live on [-1, 1]; got points outside")
    rows = 1 if net.input_dim == 1 else n
    logw = tape.const(np.log(w))
    energy = _energy_grid(tape, net, pnodes, z, z[:rows])
    raw = ad.add(logw, ad.neg(energy))
    if norm_rule is None:
        return ad.add(raw, ad.neg(ad.logsumexp(raw, axis=1, keepdims=True)))
    fine = _energy_grid(tape, net, pnodes, norm_rule.points, z[:rows])
    lognorm = ad.logsumexp(ad.add(tape.const(np.log(norm_rule.weights)), ad.neg(fine)), axis=1, keepdims=True)
    return ad.add(raw, ad.neg(lognorm))


def _energy_grid(tape, net, pnodes, child_z, parent_z) -> Node:
    """Energies on the (parent, child) grid: out[j][k] = f(child_z[k], parent_z[j])."""
    n = len(child_z)
    if net.input_dim == 1:
        x = child_z[:, None]
        rows = 1
    else:
        rows = len(parent_z)
        x = np.column_stack([np.tile(child_z, rows), np.repeat(parent_z, n)])
    e = net.forward(tape, pnodes, tape.const(x))
    return ad.reshape(e, (rows, n))


def input_param_node(tape: Tape, net, pnodes, z: np.ndarray) -> Node:
    """One observable's squashed decoder outputs over the grid, shape (N, I)."""
    raw = net.forward(tape, pnodes, tape.const(np.asarray(z)[:, None]))
    return net.squash(raw)


def materialize_sum_params(nets: ParamNets, z, w, norm_rule: QuadratureRule | None = None) -> SumParamTensor:
    """All latents' sum-weight grids, stacked into one (D', N, N) tensor.

    Each latent's block is the data of its sum_param_node (the root's
    prior row broadcast along j).  With positive weights a cell can only be
    non-finite when an energy in its row is, which raises NumericError.
    """
    z = np.asarray(z, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    n = len(z)
    tape = Tape()
    out = np.empty((len(nets.energy), n, n))
    for i, net in enumerate(nets.energy):
        s = sum_param_node(tape, net, _const_weights(tape, net), z, w, norm_rule).data
        bad = np.argwhere(~np.isfinite(s))
        if bad.size:
            j, k = bad[0]
            raise NumericError(f"non-finite energy for latent {i} at (j={j}, k={k})")
        out[i] = np.broadcast_to(s, (n, n))
    return SumParamTensor(s=out, z=z, w=w)


def materialize_input_params(nets: ParamNets, z) -> InputParamTensor:
    """All observables' decoder outputs, stacked into one (D, N, I) tensor."""
    z = np.asarray(z, dtype=np.float64)
    if np.any(np.abs(z) > 1.0 + 1e-12):
        raise ValueError("decoder latents live on [-1, 1]; got points outside")
    tape = Tape()
    rows = [input_param_node(tape, net, _const_weights(tape, net), z).data for net in nets.decoder]
    return InputParamTensor(
        table=np.stack(rows), z=z, family=nets.family, num_states=nets.num_states
    )


def _read_pic(pic: Circuit) -> tuple[tuple, tuple, list[list[int]]]:
    """(latent_parent, obs_parent, parts) of a symbolic circuit, read in one walk.

    Each parent is the latent of the nearest integral unit above; parts[i]
    lists the input and integral units directly below latent i's integral,
    through products, in circuit order.  Anything but a tree of integral,
    product and input units under a root integral, reading each observable
    once, with dense latents whose declared parents match the nesting,
    raises UnsupportedStructureError; such a tree is smooth and decomposable.
    """
    if not pic.is_symbolic:
        raise UnsupportedStructureError("circuit has no integral units; nothing to materialize")
    latents = sorted(u.latent["var"] for u in pic.integral_units())
    if latents != list(range(len(latents))):
        raise UnsupportedStructureError("latent variables must be densely numbered")
    latent_parent: list = [None] * len(latents)
    parts: list[list[int]] = [[] for _ in latents]
    obs, seen, stack = [], set(), [(pic.root, None)]
    while stack:
        uid, above = stack.pop()
        if uid in seen:
            raise UnsupportedStructureError(f"a symbolic circuit must be tree-shaped; unit {uid} is re-used")
        seen.add(uid)
        u = pic.units[uid]
        if u.kind == "sum":
            raise UnsupportedStructureError(f"a symbolic circuit takes conditionals only, no sum units; unit {uid} is one")
        if u.kind == "product":
            stack.extend((c, above) for c in reversed(u.children))
            continue
        if above is not None:
            parts[above].append(uid)
        if u.kind == "input":
            if above is None:
                raise UnsupportedStructureError(f"input unit {uid} is not below any integral unit")
            obs.append((u.var, above))
            continue
        i = u.latent["var"]
        if u.latent["parent"] != above:
            raise UnsupportedStructureError(f"latent {i} declares parent {u.latent['parent']}, but its integral unit sits below latent {above}")
        latent_parent[i] = above
        stack.append((u.children[0], i))
    if pic.units[pic.root].kind != "integral":
        raise UnsupportedStructureError("the outermost unit must integrate the root latent")
    if sorted(v for v, _ in obs) != list(range(pic.num_vars)):
        raise UnsupportedStructureError("every observable needs exactly one input unit")
    return tuple(latent_parent), tuple(p for _, p in sorted(obs)), parts


def _build_regions(pic: Circuit, parts: list[list[int]], input_dists, sum_rows) -> Circuit:
    """The static QPC of a symbolic circuit read by ``_read_pic``.

    Input unit u gets the region ``input_dists(u)``, one input per point
    of its latent; integral unit u gets one sum unit per row of its (J, N)
    block ``sum_rows(u)`` over the point-wise product of its parts.  Child
    regions are re-used by reference: O(sum N_i^2) edges.
    """
    builder = CircuitBuilder()
    regions: dict[int, list[int]] = {}
    for uid in post_order(pic):
        u = pic.units[uid]
        if u.kind == "input":
            regions[uid] = [builder.add_input(u.var, d) for d in input_dists(u)]
        elif u.kind == "integral":
            groups = [regions[c] for c in parts[u.latent["var"]]]
            body = groups[0] if len(groups) == 1 else [builder.add_product(g) for g in zip(*groups, strict=True)]
            regions[uid] = [builder.add_sum(body, row) for row in sum_rows(u)]
    return builder.finish(root=regions[pic.root][0])


def _rule_map(num_latents: int, rules) -> dict[int, QuadratureRule]:
    if isinstance(rules, QuadratureRule):
        return {i: rules for i in range(num_latents)}
    missing = [i for i in range(num_latents) if i not in rules]
    if missing:
        raise ValueError(f"no quadrature rule for latents {missing}")
    return {i: rules[i] for i in range(num_latents)}


def _linear_gaussian_input(cond: dict, z: float) -> InputDist:
    """Concrete input of a linear-Gaussian observable at latent point z."""
    return InputDist("gaussian", params=np.array([cond["c"] * z + cond["d"], np.log(cond["tau"])]))


def _input_dist_at(dist: InputDist, var: int, z: float, j: int, ip: InputParamTensor | None) -> InputDist:
    if not dist.symbolic:
        return dist
    cond = dist.conditional
    if cond["type"] == "linear-gaussian":
        return _linear_gaussian_input(cond, z)
    if ip is None:
        raise ValueError("neural input conditionals need a materialized parameter tensor")
    row = ip.table[var, j]
    return InputDist(dist.family, num_states=dist.num_states, params=row.copy())


def _linear_gaussian_rows(cond: dict, rule: QuadratureRule, parent_points) -> np.ndarray:
    """(J, N) log-weight block of a linear-Gaussian latent under one rule.

    Row j is log w_k + log p(z_k | parent point j); parent_points is None
    at the root, which gets its single prior row.
    """
    if cond.get("type") != "linear-gaussian":
        raise ValueError("only linear-gaussian conditionals have a closed form; pass parameter tensors")
    means = np.array([cond["b"]]) if parent_points is None else cond["a"] * np.asarray(parent_points) + cond["b"]
    return np.log(rule.weights) + gaussian_logpdf(rule.points[None, :], means[:, None], np.log(cond["sigma"]))


def materialize_qpc(pic: Circuit, rules, params=None) -> Circuit:
    """Static-rule compilation: the one region builder over the PIC's tree.

    ``rules`` is one rule shared by every latent or a per-latent mapping.
    ``params`` carries (SumParamTensor, InputParamTensor) for neural
    conditionals; linear-gaussian conditionals are evaluated in closed
    form and need no tensors.  Child regions are indexed by the latent's
    points and re-used by reference, so the result has O(sum N_i^2) edges.
    """
    latent_parent, obs_parent, parts = _read_pic(pic)
    rule_of = _rule_map(len(latent_parent), rules)
    ip = None
    if params is not None:
        sp, ip = params
        for i, rule in rule_of.items():
            ref = sp.z if sp is not None else ip.z
            if not np.array_equal(rule.points, ref):
                raise ValueError(f"rule for latent {i} differs from the points the tensors were built on")

    def input_dists(u):
        return [_input_dist_at(u.dist, u.var, z, j, ip) for j, z in enumerate(rule_of[obs_parent[u.var]].points)]

    return _build_regions(pic, parts, input_dists, lambda u: _sum_rows(u, latent_parent, rule_of, params))


def _sum_rows(unit, latent_parent, rule_of, params) -> np.ndarray:
    i = unit.latent["var"]
    parent = latent_parent[i]
    if params is not None and params[0] is not None:
        return params[0].s[i, :1] if parent is None else params[0].s[i]
    return _linear_gaussian_rows(unit.latent["cond"], rule_of[i], None if parent is None else rule_of[parent].points)


def sum_region_rows(pic: Circuit, rules, latent: int, params=None) -> np.ndarray:
    """The (J, N) log-weight block the sum region of one latent receives.

    Row j is the weight vector of the region's j-th sum unit (J = 1 at
    the root); materialize_qpc builds every sum region from this block.
    """
    latent_parent, _, _ = _read_pic(pic)
    unit = next((u for u in pic.integral_units() if u.latent["var"] == latent), None)
    if unit is None:
        raise ValueError(f"no integral unit for latent {latent}")
    return _sum_rows(unit, latent_parent, _rule_map(len(latent_parent), rules), params)


def materialize_nested(pic: Circuit, point_selector, nets: ParamNets | None = None, max_levels: int = 3) -> Circuit:
    """Per-parent-point compilation with integrand-dependent rules.

    ``point_selector(latent, parent_value)`` returns the rule used under
    that particular parent point (parent_value is None at the root).
    Every parent point gets its own child subtree, so unit count grows as
    N^depth; depths beyond ``max_levels`` are refused up front.
    """
    latent_parent, _, parts = _read_pic(pic)
    levels: dict[int, int] = {}
    for i in top_down_order(latent_parent):
        levels[i] = levels.get(latent_parent[i], 0) + 1
    depth = max(levels.values())
    if depth > max_levels:
        probe = point_selector(pic.units[pic.root].latent["var"], None)
        projected = int(sum(probe.n ** lvl for lvl in levels.values()))
        raise SizeError(
            f"nested materialization of {depth} latent levels would create about "
            f"{projected} sum units (guard at {max_levels} levels)"
        )

    builder = CircuitBuilder()

    def quad(int_unit, parent_value) -> int:
        var = int_unit.latent["var"]
        rule = point_selector(var, parent_value)
        cond = int_unit.latent["cond"]
        if cond.get("type") == "linear-gaussian":
            row = _linear_gaussian_rows(cond, rule, None if parent_value is None else [parent_value])[0]
        else:
            if nets is None:
                raise ValueError("neural conditionals need the parameter nets")
            row = np.log(rule.weights) + _nested_neural_density(nets.energy[var], rule, parent_value)
        below = [pic.units[c] for c in parts[var]]
        children = []
        for zn in rule.points:
            kids = [
                builder.add_input(u.var, _nested_input_dist(u.dist, u.var, zn, nets)) if u.kind == "input" else quad(u, zn)
                for u in below
            ]
            children.append(kids[0] if len(kids) == 1 else builder.add_product(kids))
        return builder.add_sum(children, row)

    return builder.finish(root=quad(pic.units[pic.root], None))


def _nested_neural_density(net, rule: QuadratureRule, parent_value) -> np.ndarray:
    bounds = rule.points if parent_value is None else np.append(rule.points, parent_value)
    if np.any(np.abs(bounds) > 1.0 + 1e-12):
        raise ValueError("energy-model latents live on [-1, 1]; got points outside")
    tape = Tape()
    parent = np.zeros(0) if parent_value is None else np.array([parent_value])
    energy = _energy_grid(tape, net, _const_weights(tape, net), rule.points, parent).data[0]
    lognorm = ad._logsumexp_data(np.log(rule.weights) - energy, None, False)
    return -energy - lognorm


def _nested_input_dist(dist: InputDist, var: int, z: float, nets: ParamNets | None) -> InputDist:
    if not dist.symbolic:
        return dist
    cond = dist.conditional
    if cond["type"] == "linear-gaussian":
        return _linear_gaussian_input(cond, z)
    if nets is None:
        raise ValueError("neural input conditionals need the parameter nets")
    row = decoder_forward(nets.decoder[var], float(z))
    return InputDist(dist.family, num_states=dist.num_states, params=row)


def pic_tree_maps(pic: Circuit) -> tuple[tuple, tuple]:
    """Recover (latent_parent, obs_parent) index maps from a symbolic circuit."""
    latent_parent, obs_parent, _ = _read_pic(pic)
    return latent_parent, obs_parent


def streamed_loglik(pic: Circuit, rule: QuadratureRule, nets: ParamNets, x: np.ndarray) -> np.ndarray:
    """Batch log-likelihood without building the concrete circuit.

    ``training.batch_loglik_node`` over the nets' weights as tape
    constants: each latent's sum rows are materialized when the engine
    reaches it and dropped right after, so peak memory stays at one (N, N)
    block plus the per-latent accumulators regardless of depth.  The
    circuit's tree must be the nets' tree.
    """
    from .training import batch_loglik_node  # training imports this module

    maps = pic_tree_maps(pic)
    if maps != (nets.latent_parent, nets.obs_parent):
        raise ValueError(f"the circuit's latent tree {maps} differs from the nets' tree {(nets.latent_parent, nets.obs_parent)}")
    tape = Tape()
    pnodes = {k: tape.const(v) for k, v in nets.param_arrays().items()}
    return batch_loglik_node(tape, nets, pnodes, rule, np.asarray(x, dtype=np.float64)).data
