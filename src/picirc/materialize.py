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
One evaluator, ``param_nodes``, turns the nets into both, through the
tape nodes ``sum_param_node`` and ``input_param_node``.  Training takes
them over the registered parameters.  The static tensors, the nested
mode's row under each parent point and its decoder blocks take their
data over the weights as tape constants, so nothing is recorded.  Both
modes build every input region with ``_input_region`` from an (N, I)
block: one ``input_param_node`` block, or ``_linear_gaussian_table``.

``dataset_loglik`` evaluates rows without building the concrete circuit:
``runtime.tree_loglik``, the one ndarray likelihood, over the static
tensors.  ``streamed_loglik`` is it once ``check_nets``, the one check
that nets fit a circuit (for it, the nested mode and the CLI), passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Node, Tape
from .circuit import Circuit, CircuitBuilder, InputDist, post_order
from .errors import NumericError, SizeError, UnsupportedStructureError
from .nets import ParamNets, _const_weights
from .quadrature import QuadratureRule
from .runtime import evidence_rows, gaussian_logpdf, tree_loglik  # noqa: F401  (evidence_rows: looked up here by perfbench)
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


def sum_param_node(tape: Tape, net, pnodes, z: np.ndarray, w: np.ndarray, parent_z=None) -> Node:
    """One latent's sum-weight rows on the tape, (J, N) under J parent points; (1, N) at the root.

    The parent points are ``parent_z``, by default z itself; the root's net
    ignores them.  Row j holds log w_k - E(z_k, parent_z[j]) - log
    normalizer(j), where the normalizer is approximated by the same rule:
    it is the row's own logsumexp (``log_normalize``), so each row
    logsumexps to zero.  Every point must lie in [-1, 1], the energy nets'
    domain.
    """
    parent_z = z if parent_z is None else parent_z
    if not (np.all(np.abs(z) <= 1.0 + 1e-12) and np.all(np.abs(parent_z) <= 1.0 + 1e-12)):
        raise ValueError("energy-model latents live on [-1, 1]; got points outside")
    logw = tape.const(np.log(w))
    energy = net.forward(tape, pnodes, z, None if net.input_dim == 1 else parent_z)
    return ad.log_normalize(ad.add(logw, ad.neg(energy)))


def input_param_node(tape: Tape, net, pnodes, z: np.ndarray) -> Node:
    """One observable's squashed decoder outputs over the grid in [-1, 1], shape (N, I)."""
    z = np.asarray(z)
    if not np.all(np.abs(z) <= 1.0 + 1e-12):
        raise ValueError("decoder latents live on [-1, 1]; got points outside")
    return net.squash(net.forward(tape, pnodes, tape.const(z[:, None])))


def param_nodes(tape: Tape, nets: ParamNets, pnodes, z: np.ndarray, w: np.ndarray):
    """The one evaluator of the nets over points z and weights w: functions (table, sum_rows).

    ``table(j)`` gives ``input_param_node`` of decoder j and ``sum_rows(i, parent_z=None)``
    ``sum_param_node`` of energy net i, built when called over pnodes: the
    registered parameters, or the weights as constants (``nets._const_weights``).
    """

    def table(j):
        net = nets.decoder[j]
        return input_param_node(tape, net, nets.net_pnodes(net, pnodes), z)

    def sum_rows(i, parent_z=None):
        net = nets.energy[i]
        return sum_param_node(tape, net, nets.net_pnodes(net, pnodes), z, w, parent_z)

    return table, sum_rows


def materialize_sum_params(nets: ParamNets, z, w) -> SumParamTensor:
    """All latents' sum-weight grids, stacked into one (D', N, N) tensor.

    Each latent's block is the data of its sum_param_node (the root's
    prior row broadcast along j).  With positive weights a cell can only be
    non-finite when an energy in its row is, which raises NumericError.
    """
    z = np.asarray(z, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    n = len(z)
    tape = Tape()
    _, sum_rows = param_nodes(tape, nets, _const_weights(tape, nets), z, w)
    out = np.empty((len(nets.energy), n, n))
    for i in range(len(nets.energy)):
        s = sum_rows(i).data
        bad = np.argwhere(~np.isfinite(s))
        if bad.size:
            j, k = bad[0]
            raise NumericError(f"non-finite energy for latent {i} at (j={j}, k={k})")
        out[i] = np.broadcast_to(s, (n, n))
    return SumParamTensor(s=out, z=z, w=w)


def materialize_input_params(nets: ParamNets, z) -> InputParamTensor:
    """All observables' decoder outputs, stacked into one (D, N, I) tensor."""
    z = np.asarray(z, dtype=np.float64)
    tape = Tape()
    table, _ = param_nodes(tape, nets, _const_weights(tape, nets), z, None)
    rows = [table(j).data for j in range(len(nets.decoder))]
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
    A linear-Gaussian sigma or tau that is not positive and finite raises
    ValueError.
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
            _check_stddev(u.dist.conditional, "tau", f"observable {u.var}")
            continue
        i = u.latent["var"]
        _check_stddev(u.latent["cond"], "sigma", f"latent {i}")
        if u.latent["parent"] != above:
            raise UnsupportedStructureError(f"latent {i} declares parent {u.latent['parent']}, but its integral unit sits below latent {above}")
        latent_parent[i] = above
        stack.append((u.children[0], i))
    if pic.units[pic.root].kind != "integral":
        raise UnsupportedStructureError("the outermost unit must integrate the root latent")
    if sorted(v for v, _ in obs) != list(range(pic.num_vars)):
        raise UnsupportedStructureError("every observable needs exactly one input unit")
    return tuple(latent_parent), tuple(p for _, p in sorted(obs)), parts


def _check_stddev(cond, key: str, what: str) -> None:
    """ValueError unless a linear-Gaussian conditional's stddev ``cond[key]`` is positive and finite."""
    if cond is not None and cond.get("type") == "linear-gaussian" and not 0.0 < cond[key] < np.inf:
        raise ValueError(f"{what}: linear-gaussian {key} must be positive and finite, got {cond[key]}")


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


def _input_region(dist: InputDist, points: np.ndarray, table) -> list[InputDist]:
    """An observable's input units, one per point of its latent: a concrete dist repeated,
    or the rows of an (N, I) block: ``_linear_gaussian_table`` or ``table()``, the squashed decoder's."""
    if not dist.symbolic:
        return [dist] * len(points)
    rows = _linear_gaussian_table(dist.conditional, points) if dist.conditional["type"] == "linear-gaussian" else table()
    return [InputDist(dist.family, num_states=dist.num_states, params=row.copy()) for row in rows]


def check_nets(pic: Circuit, nets: ParamNets) -> None:
    """ValueError unless the nets were built for the circuit's latent tree and its inputs' family and state count."""
    maps = pic_tree_maps(pic)
    if maps != (nets.latent_parent, nets.obs_parent):
        raise ValueError(f"the circuit's latent tree {maps} differs from the nets' tree {(nets.latent_parent, nets.obs_parent)}")
    _check_decoders(pic, nets.family, nets.num_states)


def _check_decoders(pic: Circuit, family: str, num_states) -> None:
    """ValueError unless every neural input unit of ``pic`` has the decoders' family and state count."""
    for u in pic.units:
        d = u.dist
        if u.kind == "input" and d.symbolic and d.conditional.get("type") != "linear-gaussian" and (d.family, d.num_states) != (family, num_states):
            raise ValueError(f"observable {u.var} reads {d.family}:{d.num_states} in the circuit, but the decoders give {family}:{num_states}")


def _linear_gaussian_table(cond: dict, points) -> np.ndarray:
    """(N, 2) gaussian block of a linear-Gaussian observable over its latent's points: rows (c z + d, log tau)."""
    return np.stack(np.broadcast_arrays(cond["c"] * np.asarray(points) + cond["d"], np.log(cond["tau"])), axis=1)


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
    Decoders of another family or state count raise ValueError.
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
        if ip is not None:
            _check_decoders(pic, ip.family, ip.num_states)

    def decoder_block(var):
        if ip is None:
            raise ValueError("neural input conditionals need a materialized parameter tensor")
        return ip.table[var]

    def input_dists(u):
        return _input_region(u.dist, rule_of[obs_parent[u.var]].points, lambda: decoder_block(u.var))

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
    N^depth; depths beyond ``max_levels`` are refused up front, and so
    are nets that ``check_nets`` refuses.  The nets are evaluated by
    ``param_nodes`` over each rule, for the one parent point and only for
    the decoders that the rule's inputs read.
    """
    latent_parent, _, parts = _read_pic(pic)
    if nets is not None:
        check_nets(pic, nets)
        tape = Tape()
        pnodes = _const_weights(tape, nets)
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

    def nets_over(rule, what):
        if nets is None:
            raise ValueError(f"neural {what} need the parameter nets")
        return param_nodes(tape, nets, pnodes, rule.points, rule.weights)

    # nets_over is passed down, not closed over: quad's closure holds quad, a cycle that must not hold the tape
    def quad(int_unit, parent_value, nets_over) -> int:
        var = int_unit.latent["var"]
        rule = point_selector(var, parent_value)
        cond = int_unit.latent["cond"]
        if cond.get("type") == "linear-gaussian":
            row = _linear_gaussian_rows(cond, rule, None if parent_value is None else [parent_value])[0]
        else:
            _, sum_rows = nets_over(rule, "conditionals")
            row = sum_rows(var, None if parent_value is None else np.array([parent_value])).data[0]
        below = [pic.units[c] for c in parts[var]]
        regions = {u.uid: _input_region(u.dist, rule.points, lambda: nets_over(rule, "input conditionals")[0](u.var).data) for u in below if u.kind == "input"}
        children = []
        for j, zn in enumerate(rule.points):
            kids = [builder.add_input(u.var, regions[u.uid][j]) if u.kind == "input" else quad(u, zn, nets_over) for u in below]
            children.append(kids[0] if len(kids) == 1 else builder.add_product(kids))
        return builder.add_sum(children, row)

    return builder.finish(root=quad(pic.units[pic.root], None, nets_over))


def pic_tree_maps(pic: Circuit) -> tuple[tuple, tuple]:
    """Recover (latent_parent, obs_parent) index maps from a symbolic circuit."""
    latent_parent, obs_parent, _ = _read_pic(pic)
    return latent_parent, obs_parent


def dataset_loglik(nets: ParamNets, rule: QuadratureRule, x: np.ndarray, chunk: int = 4096) -> np.ndarray:
    """Per-row log-likelihood (B,) under the nets: ``runtime.tree_loglik`` over their tensors, materialized once."""
    sp = materialize_sum_params(nets, rule.points, rule.weights)
    ip = materialize_input_params(nets, rule.points)
    sum_rows = [sp.s[i][:1] if p is None else sp.s[i] for i, p in enumerate(nets.latent_parent)]
    return tree_loglik(nets, ip.table, sum_rows, x, chunk)


def streamed_loglik(pic: Circuit, rule: QuadratureRule, nets: ParamNets, x: np.ndarray) -> np.ndarray:
    """Batch log-likelihood (B,) without building the circuit: ``dataset_loglik`` once ``check_nets`` passes."""
    check_nets(pic, nets)
    return dataset_loglik(nets, rule, np.asarray(x, dtype=np.float64))
