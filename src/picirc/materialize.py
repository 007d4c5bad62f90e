"""Turning symbolic circuits into concrete quadrature circuits.

Two construction modes.  The static mode replaces every integral unit by
a region of sum units over one shared grid, re-using child regions, so
the output size is quadratic in the number of points regardless of
depth.  The nested mode re-derives a fresh rule for every parent point
(the rule may depend on the conditioned density), which permits adaptive
placement but forbids re-use: the output is a tree whose size is
exponential in depth, so it is guarded by a level limit.

Neural conditionals are first materialized into log-space parameter
tensors: S[i][j][k] = log(w_k p(z_k | z_j)) with the normalizer of the
energy model approximated by the same rule, which makes every row
logsumexp to exactly zero, and I[i][j] = decoder params at point j.
The tape nodes ``sum_param_node`` and ``input_param_node`` are the one
definition of both; the ndarray tensors are their data, computed over
the weights as tape constants, so nothing is recorded.

``streamed_loglik`` evaluates a batch without building the concrete
circuit: it is a thin caller of the latent-tree engine
(``runtime.upward_pass``) that materializes each latent's sum rows inside
the engine's ``contract`` step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Node, Tape, _lse_matmul_data
from .circuit import Circuit, CircuitBuilder, InputDist, check_structure, post_order
from .errors import CircuitError, NumericError, SizeError, UnsupportedStructureError
from .nets import ParamNets, _const_weights, decoder_forward
from .quadrature import QuadratureRule
from .runtime import evidence_rows, gaussian_logpdf, upward_pass


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


def _require_tree(pic: Circuit, op: str) -> None:
    refs = np.zeros(len(pic.units), dtype=int)
    for u in pic.units:
        for c in u.children:
            refs[c] += 1
    shared = [u.uid for u in pic.units if refs[u.uid] > 1]
    if shared or refs[pic.root] != 0:
        raise UnsupportedStructureError(f"{op} needs a tree-shaped circuit; units {shared or [pic.root]} are re-used")
    report = check_structure(pic)
    if not (report.smooth and report.decomposable):
        raise UnsupportedStructureError(f"{op} needs a smooth, decomposable circuit")


def _owner_map(pic: Circuit) -> dict[int, int]:
    """Nearest enclosing integrated variable for every unit, keyed by uid."""
    owner: dict[int, int] = {}
    stack = [(pic.root, None)]
    while stack:
        uid, latent = stack.pop()
        owner[uid] = latent
        u = pic.units[uid]
        down = u.latent["var"] if u.kind == "integral" else latent
        for c in u.children:
            stack.append((c, down))
    return owner


def _rule_map(pic: Circuit, rules) -> dict[int, QuadratureRule]:
    latents = [u.latent["var"] for u in pic.integral_units()]
    if isinstance(rules, QuadratureRule):
        return {i: rules for i in latents}
    missing = [i for i in latents if i not in rules]
    if missing:
        raise ValueError(f"no quadrature rule for latents {missing}")
    return {i: rules[i] for i in latents}


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
    """Static-rule compilation: one region of concrete units per symbolic unit.

    ``rules`` is one rule shared by every latent or a per-latent mapping.
    ``params`` carries (SumParamTensor, InputParamTensor) for neural
    conditionals; linear-gaussian conditionals are evaluated in closed
    form and need no tensors.  Child regions are indexed by the latent's
    points and re-used by reference, so the result has O(sum N_i^2) edges.
    """
    if not pic.is_symbolic:
        raise UnsupportedStructureError("circuit has no integral units; nothing to materialize")
    if any(u.kind == "sum" for u in pic.units):
        raise UnsupportedStructureError("static materialization expects conditionals only, no sum units")
    _require_tree(pic, "materialize_qpc")
    rule_of = _rule_map(pic, rules)
    owner = _owner_map(pic)

    sp = ip = None
    if params is not None:
        sp, ip = params
        for i, rule in rule_of.items():
            ref = sp.z if sp is not None else ip.z
            if len(rule.points) != len(ref) or not np.array_equal(rule.points, ref):
                raise ValueError(f"rule for latent {i} differs from the points the tensors were built on")

    builder = CircuitBuilder()
    regions: dict[int, list[int]] = {}
    for uid in post_order(pic):
        u = pic.units[uid]
        if u.kind == "input":
            i = owner[u.uid]
            if i is None:
                raise UnsupportedStructureError(f"input unit {u.uid} is not below any integral unit")
            z = rule_of[i].points
            regions[u.uid] = [
                builder.add_input(u.var, _input_dist_at(u.dist, u.var, z[j], j, ip)) for j in range(len(z))
            ]
        elif u.kind == "integral":
            i = u.latent["var"]
            child_region = regions[u.children[0]]
            if len(child_region) != rule_of[i].n:
                raise CircuitError(
                    f"latent {i}: child region has {len(child_region)} units, rule has {rule_of[i].n} points"
                )
            regions[u.uid] = [builder.add_sum(child_region, row) for row in sum_region_rows(pic, rule_of, i, params)]
        else:
            groups = [regions[c] for c in u.children]
            width = len(groups[0])
            if any(len(g) != width for g in groups):
                raise CircuitError(f"product unit {u.uid}: child regions have unequal sizes")
            regions[u.uid] = [builder.add_product([g[j] for g in groups]) for j in range(width)]

    top = regions[pic.root]
    if len(top) != 1:
        raise UnsupportedStructureError("the outermost unit must integrate the root latent")
    return builder.finish(root=top[0])


def sum_region_rows(pic: Circuit, rules, latent: int, params=None) -> np.ndarray:
    """The (J, N) log-weight block the sum region of one latent receives.

    Row j is the weight vector of the region's j-th sum unit (J = 1 at
    the root); materialize_qpc builds every sum region from this block.
    """
    unit = next((u for u in pic.integral_units() if u.latent["var"] == latent), None)
    if unit is None:
        raise ValueError(f"no integral unit for latent {latent}")
    rule_of = _rule_map(pic, rules)
    parent = unit.latent["parent"]
    if params is not None and params[0] is not None:
        return params[0].s[latent, :1] if parent is None else params[0].s[latent]
    return _linear_gaussian_rows(unit.latent["cond"], rule_of[latent], None if parent is None else rule_of[parent].points)


def _latent_levels(pic: Circuit) -> dict[int, int]:
    levels = {}
    stack = [(pic.root, 0)]
    while stack:
        uid, depth = stack.pop()
        u = pic.units[uid]
        below = depth
        if u.kind == "integral":
            below = depth + 1
            levels[u.latent["var"]] = below
        for c in u.children:
            stack.append((c, below))
    return levels


def materialize_nested(pic: Circuit, point_selector, nets: ParamNets | None = None, max_levels: int = 3) -> Circuit:
    """Per-parent-point compilation with integrand-dependent rules.

    ``point_selector(latent, parent_value)`` returns the rule used under
    that particular parent point (parent_value is None at the root).
    Every parent point gets its own child subtree, so unit count grows as
    N^depth; depths beyond ``max_levels`` are refused up front.
    """
    if any(u.kind == "sum" for u in pic.units):
        raise UnsupportedStructureError("nested materialization expects conditionals only, no sum units")
    if not pic.is_symbolic:
        raise UnsupportedStructureError("circuit has no integral units; nothing to materialize")
    _require_tree(pic, "materialize_nested")
    if pic.units[pic.root].kind != "integral":
        raise UnsupportedStructureError("the outermost unit must integrate the root latent")

    levels = _latent_levels(pic)
    depth = max(levels.values())
    if depth > max_levels:
        probe = point_selector(pic.units[pic.root].latent["var"], None)
        projected = int(sum(probe.n ** lvl for lvl in levels.values()))
        raise SizeError(
            f"nested materialization of {depth} latent levels would create about "
            f"{projected} sum units (guard at {max_levels} levels)"
        )

    builder = CircuitBuilder()

    def direct_parts(uid: int) -> tuple[list, list]:
        """Input units and integral units below uid, not crossing integrals."""
        inputs, integrals = [], []
        stack = [uid]
        while stack:
            u = pic.units[stack.pop()]
            if u.kind == "input":
                inputs.append(u)
            elif u.kind == "integral":
                integrals.append(u)
            else:
                stack.extend(reversed(u.children))
        return inputs, integrals

    def quad(int_unit, parent_value) -> int:
        var = int_unit.latent["var"]
        rule = point_selector(var, parent_value)
        inputs, integrals = direct_parts(int_unit.children[0])
        cond = int_unit.latent["cond"]
        if cond.get("type") == "linear-gaussian":
            row = _linear_gaussian_rows(cond, rule, None if parent_value is None else [parent_value])[0]
        else:
            if nets is None:
                raise ValueError("neural conditionals need the parameter nets")
            row = np.log(rule.weights) + _nested_neural_density(nets.energy[var], rule, parent_value)
        children = []
        for zn in rule.points:
            parts = [builder.add_input(u.var, _nested_input_dist(u.dist, u.var, zn, nets)) for u in inputs]
            parts.extend(quad(c, zn) for c in integrals)
            children.append(parts[0] if len(parts) == 1 else builder.add_product(parts))
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
    integrals = sorted(pic.integral_units(), key=lambda u: u.latent["var"])
    if [u.latent["var"] for u in integrals] != list(range(len(integrals))):
        raise UnsupportedStructureError("latent variables must be densely numbered")
    latent_parent = tuple(u.latent["parent"] for u in integrals)
    owner = _owner_map(pic)
    inputs = [u for u in pic.units if u.kind == "input"]
    obs_owner = {u.var: owner[u.uid] for u in inputs}
    if len(inputs) != pic.num_vars or sorted(obs_owner) != list(range(pic.num_vars)):
        raise UnsupportedStructureError("every observable needs exactly one input unit")
    return latent_parent, tuple(obs_owner[v] for v in range(pic.num_vars))


def streamed_loglik(pic: Circuit, rule: QuadratureRule, nets: ParamNets, x: np.ndarray) -> np.ndarray:
    """Batch log-likelihood without building the concrete circuit.

    A thin caller of the latent-tree engine: evidence rows are produced
    one observable at a time, and each latent's sum rows are materialized
    inside ``contract`` and dropped right after, so peak memory stays at
    one (N, N) block plus the per-latent accumulators regardless of depth.
    """
    latent_parent, obs_parent = pic_tree_maps(pic)
    x = np.asarray(x, dtype=np.float64)
    tape = Tape()
    ip = materialize_input_params(nets, rule.points)
    obs_rows = (evidence_rows(ip.table[j], ip.family, ip.num_states, x[:, j], var=j) for j in range(len(obs_parent)))

    def contract(i, acc):
        net = nets.energy[i]
        return _lse_matmul_data(sum_param_node(tape, net, _const_weights(tape, net), rule.points, rule.weights).data, acc)

    return upward_pass(latent_parent, obs_parent, obs_rows, contract)[0]
