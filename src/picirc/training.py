"""Optimization loops.

Two model classes are trained here.  Energy-parameterized symbolic
circuits are trained by gradient descent: every step re-materializes the
sum and input parameter tensors on a fresh tape, evaluates the batch
log-likelihood through the induced circuit, and backpropagates into the
net weights (the quadrature grid and Fourier frequencies stay fixed).
The latent-tree baseline with free categorical parameters is trained
either by mini-batch Expectation-Maximization or by Adam on log-softmax
reparameterized tensors.

Every tape loss (``batch_loglik_node`` and ``hclt_loglik_node``) is a
thin caller of the latent-tree engine, ``runtime.upward_pass``, whose
per-latent contraction is one ``autodiff.lse_matmul`` op
(``lse_matmul_node``); the unit-by-unit ``unitwise_loglik_node`` stays
independent of both as the test oracle.  EM takes its expected counts
from the same tape: the gradient of the summed log-likelihood with
respect to the normalized log sum rows is the expected count of every
sum edge.  ``train_pic``,
``train_hclt_adam`` and ``train_hclt_em`` share one mini-batch loop with
the cosine-annealed step size and best-validation early stopping.
``em_step`` on the explicit circuit is the EM oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import gammaln

from . import autodiff as ad
from .autodiff import Node, Tape, _logsumexp_data
from .circuit import Circuit, InputDist, param_width, post_order
from .errors import NumericError
from .materialize import _build_regions, _read_pic, input_param_node, materialize_input_params, materialize_sum_params, sum_param_node
from .nets import ParamNets, squash
from .quadrature import QuadratureRule, make_rule
from .runtime import LOG_2PI, bpd, evidence_rows, forward_values, latent_tree_loglik, observed_evidence, upward_pass
from .structures import LatentTree, bn_to_pic


@dataclass
class TrainConfig:
    """Hyperparameters of one run.

    The reference grid sweeps batch_size over {64, 128, 256} and n over
    {16, 32, 64, 128}; smaller values are allowed for quick experiments.
    """

    batch_size: int = 64
    n: int = 16
    max_steps: int = 30000
    lr_max: float = 1e-2
    lr_min: float = 1e-4
    restart_period: int = 500
    patience: int = 1250
    eval_interval: int = 250
    seed: int = 0
    rule_kind: str = "trapezoidal"
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def validate(self) -> None:
        if not self.lr_min < self.lr_max:
            raise ValueError("lr_min must be below lr_max")
        if not 0 <= self.patience <= self.max_steps:
            raise ValueError("patience must be in [0, max_steps]")
        if min(self.batch_size, self.n, self.restart_period, self.eval_interval) < 1:
            raise ValueError("batch_size, n, restart_period, eval_interval must be positive")


def lr_schedule(step: int, config: TrainConfig) -> float:
    """Cosine annealing with warm restarts over a fixed period."""
    phase = (step % config.restart_period) / config.restart_period
    return config.lr_min + (config.lr_max - config.lr_min) * (1.0 + np.cos(np.pi * phase)) / 2.0


class Adam:
    """Adam over a named parameter dict; updates the arrays in place.

    Also the optimizer state of the training loops: ``t`` counts the
    steps taken and feeds the annealing schedule.
    """

    def __init__(self, params: dict[str, np.ndarray], config: TrainConfig):
        self.params = params
        self.config = config
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    @property
    def lr(self) -> float:
        """Step size the next update will use."""
        return lr_schedule(self.t, self.config)

    def step(self, grads: dict[str, np.ndarray]) -> None:
        c = self.config
        lr = self.lr
        self.t += 1
        for k, p in self.params.items():
            g = grads[k]
            self.m[k] = c.beta1 * self.m[k] + (1 - c.beta1) * g
            self.v[k] = c.beta2 * self.v[k] + (1 - c.beta2) * g * g
            mhat = self.m[k] / (1 - c.beta1**self.t)
            vhat = self.v[k] / (1 - c.beta2**self.t)
            p -= lr * mhat / (np.sqrt(vhat) + c.eps)


def lse_matmul_node(tape: Tape, s: Node, acc: Node) -> Node:
    """A latent's contraction log(exp(s) @ exp(acc)) on the tape: one ``lse_matmul`` op."""
    return ad.lse_matmul(s, acc)


def evidence_node(tape: Tape, table: Node, family: str, num_states, x_col: np.ndarray) -> Node:
    """Per-point evidence log-likelihood (N, B) of one observable on the tape.

    table is the observable's (N, I) squashed parameter block; the data
    column enters as a constant, so gradients flow only into the params.
    """
    if np.isnan(x_col).any():
        raise ValueError("training evidence must be fully observed")
    _, v = observed_evidence(family, num_states, x_col)
    if family == "categorical":
        return ad.gather(table, v, axis=1)
    if family == "binomial":
        k = num_states
        comb = gammaln(k + 1) - gammaln(v + 1) - gammaln(k - v + 1)
        xs = tape.const(x_col[None, :])
        ks = tape.const((k - x_col)[None, :])
        return tape.const(comb[None, :]) + xs * ad.log(table) + ks * ad.log(tape.const(1.0) - table)
    mu = ad.gather(table, np.array([0]), axis=1)
    log_sigma = ad.gather(table, np.array([1]), axis=1)
    z = (tape.const(x_col[None, :]) - mu) * ad.exp(ad.neg(log_sigma))
    return tape.const(-0.5) * z * z - log_sigma - tape.const(0.5 * LOG_2PI)


def batch_loglik_node(tape: Tape, nets: ParamNets, pnodes, rule: QuadratureRule, x: np.ndarray) -> Node:
    """Batch log-likelihood (B,) through the circuit materialized on the tape.

    A thin caller of the latent-tree engine: each observable's parameter
    block and each latent's sum rows exist only as tape nodes, and the
    engine consumes them region by region (the concrete circuit is never
    assembled).
    """
    obs_rows = [
        evidence_node(tape, input_param_node(tape, net, nets.net_pnodes(net, pnodes), rule.points), nets.family, nets.num_states, x[:, j])
        for j, net in enumerate(nets.decoder)
    ]

    def contract(i, acc):
        net = nets.energy[i]
        return lse_matmul_node(tape, sum_param_node(tape, net, nets.net_pnodes(net, pnodes), rule.points, rule.weights), acc)

    return ad.reshape(upward_pass(nets.latent_parent, nets.obs_parent, obs_rows, contract), (x.shape[0],))


def _row(node: Node, j: int) -> Node:
    """Row j of a 2-D node as a 1-D node."""
    picked = ad.gather(node, np.array([j]), axis=0)
    return ad.reshape(picked, (node.shape[1],))


def _entry(row: Node, k: int) -> Node:
    return ad.reshape(ad.gather(row, np.array([k]), axis=0), ())


def _sum_nodes(nodes: list[Node]) -> Node:
    total = nodes[0]
    for node in nodes[1:]:
        total = total + node
    return total


def _logsumexp_list(tape: Tape, nodes: list[Node]) -> Node:
    """Elementwise logsumexp over equal-shape nodes, shifted by their detached elementwise max."""
    m = np.max([n.data for n in nodes], axis=0)
    m = tape.const(np.where(np.isfinite(m), m, 0.0))
    total = ad.exp(nodes[0] - m)
    for node in nodes[1:]:
        total = total + ad.exp(node - m)
    return ad.log(total) + m


def unitwise_loglik_node(tape: Tape, pic: Circuit, nets: ParamNets, pnodes, rule: QuadratureRule, x: np.ndarray) -> Node:
    """Same quantity as batch_loglik_node via the fully materialized circuit.

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


@dataclass
class TrainResult:
    params: dict[str, np.ndarray]
    history: list[dict]
    best_valid_nll: float
    steps: int


def _finite(loglik: Node) -> Node:
    """The batch log-likelihood of a training step, or NumericError before any update."""
    bad = np.flatnonzero(~np.isfinite(loglik.data))
    if bad.size:
        raise NumericError(f"non-finite log-likelihood at batch row {bad[0]}; step aborted")
    return loglik


def train_pic_step(nets: ParamNets, batch: np.ndarray, rule: QuadratureRule, opt: Adam) -> float:
    """One gradient step; returns the batch mean negative log-likelihood.

    Materializes parameters on a fresh tape, backpropagates the mean NLL,
    and applies one Adam update at the annealed step size.  A non-finite
    loss aborts before any parameter is touched.
    """
    tape = Tape()
    pnodes = nets.register(tape)
    loglik = _finite(batch_loglik_node(tape, nets, pnodes, rule, batch))
    loss = ad.neg(ad.mean(loglik))
    grads = tape.backward(loss)
    opt.step(grads)
    return float(loss.data)


def dataset_nll(nets: ParamNets, rule: QuadratureRule, x: np.ndarray, chunk: int = 4096) -> float:
    """Mean negative log-likelihood of a dataset under the current nets.

    Materializes the parameter tensors once and streams the data through
    the fused tensor evaluator in chunks.
    """
    sp = materialize_sum_params(nets, rule.points, rule.weights)
    ip = materialize_input_params(nets, rule.points)
    sum_rows = [sp.s[i][:1] if nets.latent_parent[i] is None else sp.s[i] for i in range(len(nets.latent_parent))]
    total = 0.0
    for lo in range(0, len(x), chunk):
        ev = x[lo : lo + chunk]
        obs_rows = [
            evidence_rows(ip.table[j], ip.family, ip.num_states, ev[:, j], var=j)
            for j in range(len(nets.obs_parent))
        ]
        total += latent_tree_loglik(nets.latent_parent, nets.obs_parent, sum_rows, obs_rows).sum()
    return float(-total / len(x))


def _fit(params: dict[str, np.ndarray], take_step, valid_nll, train_x: np.ndarray, config: TrainConfig) -> TrainResult:
    """The mini-batch loop shared by every trainer.

    ``take_step(batch)`` updates ``params`` in place and returns the batch
    mean NLL; ``valid_nll()`` scores the current parameters.  History rows:
    step, lr, mean train NLL since the previous evaluation, validation
    bpd.  Training stops once the validation NLL has not improved for
    ``patience`` steps (checked at each evaluation) or at max_steps; the
    best-validation snapshot is then copied back into ``params``.
    """
    rng = np.random.default_rng(config.seed)
    num_vars = train_x.shape[1]
    best_nll = valid_nll()
    best_params = {k: v.copy() for k, v in params.items()}
    best_step = 0
    history = [
        {"step": 0, "lr": lr_schedule(0, config), "train_nll": float("nan"), "valid_bpd": float(bpd(-best_nll, num_vars))}
    ]
    perm = rng.permutation(len(train_x))
    cursor = 0
    window: list[float] = []
    steps_run = 0
    for step in range(1, config.max_steps + 1):
        if cursor + config.batch_size > len(train_x):
            perm = rng.permutation(len(train_x))
            cursor = 0
        window.append(take_step(train_x[perm[cursor : cursor + config.batch_size]]))
        cursor += config.batch_size
        steps_run = step
        if step % config.eval_interval == 0:
            nll = valid_nll()
            history.append(
                {
                    "step": step,
                    "lr": lr_schedule(step, config),
                    "train_nll": float(np.mean(window)),
                    "valid_bpd": float(bpd(-nll, num_vars)),
                }
            )
            window = []
            if nll < best_nll:
                best_nll = nll
                best_params = {k: v.copy() for k, v in params.items()}
                best_step = step
            elif step - best_step >= config.patience:
                break
    for k, v in best_params.items():
        params[k][...] = v
    return TrainResult(params=best_params, history=history, best_valid_nll=best_nll, steps=steps_run)


def train_pic(nets: ParamNets, train_x: np.ndarray, valid_x: np.ndarray, config: TrainConfig) -> TrainResult:
    """Mini-batch gradient training of the nets with periodic validation.

    Runs the shared loop (see ``_fit``) with ``train_pic_step`` and
    ``dataset_nll``; the best-validation parameters end up in the nets.
    """
    config.validate()
    rule = make_rule(config.rule_kind, config.n, -1.0, 1.0)
    opt = Adam(nets.param_arrays(), config)
    return _fit(opt.params, lambda batch: train_pic_step(nets, batch, rule, opt), lambda: dataset_nll(nets, rule, valid_x), train_x, config)


def copy_circuit(pc: Circuit) -> Circuit:
    """Fresh unit list with independently owned weight arrays."""
    units = [
        replace(u, weights=None if u.weights is None else u.weights.copy())
        for u in pc.units
    ]
    return Circuit(units=units, root=pc.root, num_vars=pc.num_vars)


def em_step(pc: Circuit, batch: np.ndarray, eta: float) -> float:
    """One EM update on every sum unit's weights.

    Expected counts come from one forward pass and one top-down flow
    pass; a sum unit whose total incoming flow is zero keeps its old
    weights for this batch.  Updated units replace the old ones in the
    unit list (weight arrays stay immutable).  Returns the batch mean
    log-likelihood under the pre-update parameters.
    """
    order = post_order(pc)
    values = forward_values(pc, batch, order)
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


@dataclass
class HcltTensors:
    """Free parameters of a latent-tree circuit with categorical latents.

    sum_logits[i] is latent i's (J, N) unnormalized row block (J=1 at the
    root); input_raw[j] is observable j's (N, I) raw parameter block,
    squashed per family exactly like a decoder head.
    """

    latent_parent: tuple
    obs_parent: tuple
    sum_logits: list[np.ndarray]
    input_raw: list[np.ndarray]
    family: str
    num_states: int | None

    @classmethod
    def random(cls, tree: LatentTree, n: int, family: str, num_states=None, seed: int = 0, scale: float = 0.1):
        out_dim = param_width(family, num_states)
        rng = np.random.default_rng(seed)
        sum_logits = []
        for i, p in enumerate(tree.latent_parent):
            rows = 1 if p is None else n
            sum_logits.append(rng.normal(0.0, scale, (rows, n)))
        input_raw = [rng.normal(0.0, scale, (n, out_dim)) for _ in tree.obs_parent]
        return cls(tree.latent_parent, tree.obs_parent, sum_logits, input_raw, family, num_states)

    def param_arrays(self) -> dict[str, np.ndarray]:
        out = {f"s{i}": a for i, a in enumerate(self.sum_logits)}
        out.update({f"i{j}": a for j, a in enumerate(self.input_raw)})
        return out

    def input_tables(self) -> list[np.ndarray]:
        """Squashed (N, I) parameter block of every observable."""
        tape = Tape()
        return [squash(self.family, tape.const(raw)).data for raw in self.input_raw]

    def sum_rows(self) -> list[np.ndarray]:
        return [logits - _logsumexp_data(logits, 1, True) for logits in self.sum_logits]

    def loglik(self, x: np.ndarray) -> np.ndarray:
        obs_rows = [
            evidence_rows(table, self.family, self.num_states, x[:, j], var=j)
            for j, table in enumerate(self.input_tables())
        ]
        return latent_tree_loglik(self.latent_parent, self.obs_parent, self.sum_rows(), obs_rows)

    def to_circuit(self) -> Circuit:
        """The concrete circuit of these tensors, built by the static materializer's region builder."""
        obs_cond = tuple({"type": "neural", "family": self.family, "k": self.num_states} for _ in self.obs_parent)
        pic = bn_to_pic(LatentTree(self.latent_parent, self.obs_parent, tuple({"type": "neural"} for _ in self.latent_parent), obs_cond))
        _, _, parts = _read_pic(pic)
        tables, rows = self.input_tables(), self.sum_rows()

        def input_dists(u):
            return [InputDist(self.family, num_states=self.num_states, params=p.copy()) for p in tables[u.var]]

        return _build_regions(pic, parts, input_dists, lambda u: rows[u.latent["var"]])


def hclt_loglik_node(tape: Tape, tensors: HcltTensors, tables, sum_rows, batch: np.ndarray) -> Node:
    """Batch log-likelihood (B,) of the free-tensor baseline on the tape.

    tables[j] is observable j's squashed (N, I) block and sum_rows[i]
    latent i's normalized log rows, both as tape nodes; a thin caller of
    the latent-tree engine.
    """
    obs_rows = [
        evidence_node(tape, table, tensors.family, tensors.num_states, batch[:, j]) for j, table in enumerate(tables)
    ]
    loglik = upward_pass(tensors.latent_parent, tensors.obs_parent, obs_rows, lambda i, acc: lse_matmul_node(tape, sum_rows[i], acc))
    return ad.reshape(loglik, (batch.shape[0],))


def hclt_adam_step(tensors: HcltTensors, batch: np.ndarray, opt: Adam) -> float:
    """One Adam step on the log-softmax reparameterized tensors; a non-finite loss aborts it."""
    tape = Tape()
    pnodes = {k: tape.param(k, v) for k, v in tensors.param_arrays().items()}
    tables = [squash(tensors.family, pnodes[f"i{j}"]) for j in range(len(tensors.input_raw))]
    sum_rows = [
        pnodes[f"s{i}"] - ad.logsumexp(pnodes[f"s{i}"], axis=1, keepdims=True) for i in range(len(tensors.sum_logits))
    ]
    loss = ad.neg(ad.mean(_finite(hclt_loglik_node(tape, tensors, tables, sum_rows, batch))))
    grads = tape.backward(loss)
    opt.step(grads)
    return float(loss.data)


def hclt_em_step(tensors: HcltTensors, batch: np.ndarray, eta: float) -> float:
    """One EM update on every sum row; returns the pre-update batch mean NLL.

    The expected counts are the gradient of the batch's summed
    log-likelihood with respect to the normalized log sum rows (the input
    tables enter the tape as constants).  Each row moves to
    (1 - eta) theta + eta counts / rowsum in place; a row whose counts sum
    to zero keeps its weights, like ``em_step`` on the explicit circuit.
    A non-finite loss aborts before any row moves.
    """
    tape = Tape()
    sum_rows = [tape.param(f"s{i}", rows) for i, rows in enumerate(tensors.sum_rows())]
    tables = [tape.const(table) for table in tensors.input_tables()]
    loglik = _finite(hclt_loglik_node(tape, tensors, tables, sum_rows, batch))
    counts = tape.backward(ad.reduce_sum(loglik))
    for i, logits in enumerate(tensors.sum_logits):
        cnt = counts[f"s{i}"]
        total = cnt.sum(axis=1, keepdims=True)
        moved = total[:, 0] > 0.0
        theta = (1.0 - eta) * np.exp(sum_rows[i].data[moved]) + eta * (cnt[moved] / total[moved])
        with np.errstate(divide="ignore"):
            logits[moved] = np.log(theta)
    return float(-loglik.data.mean())


def train_hclt_adam(tensors: HcltTensors, train_x: np.ndarray, valid_x: np.ndarray, config: TrainConfig) -> TrainResult:
    """Adam training of the free-tensor baseline: the loop of train_pic."""
    config.validate()
    opt = Adam(tensors.param_arrays(), config)
    return _fit(opt.params, lambda batch: hclt_adam_step(tensors, batch, opt), lambda: float(-tensors.loglik(valid_x).mean()), train_x, config)


def train_hclt_em(tensors: HcltTensors, train_x: np.ndarray, valid_x: np.ndarray, config: TrainConfig) -> TrainResult:
    """Mini-batch EM training of the free-tensor baseline: the loop of train_pic.

    Step t moves the sum rows by the annealed step size lr_schedule(t);
    the input blocks never change.
    """
    config.validate()
    steps = itertools.count()
    return _fit(
        tensors.param_arrays(),
        lambda batch: hclt_em_step(tensors, batch, lr_schedule(next(steps), config)),
        lambda: float(-tensors.loglik(valid_x).mean()),
        train_x,
        config,
    )
