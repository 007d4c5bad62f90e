"""Optimization loops.

Two model classes are trained here.  Energy-parameterized symbolic
circuits are trained by gradient descent: every step re-materializes the
sum and input parameter tensors on a fresh tape, evaluates the batch
log-likelihood through the induced circuit, and backpropagates into the
net weights (the quadrature grid and Fourier frequencies stay fixed).
The latent-tree baseline with free categorical parameters is trained
either by mini-batch Expectation-Maximization or by Adam on log-softmax
reparameterized tensors.

Every log-likelihood on a tape is ``tree_loglik_node``: one ``evidence``
tape op per observable (forward ``runtime.evidence_rows``, so a NaN cell
is marginalized in training as in inference), then the latent-tree
engine, ``runtime.upward_pass``, with one ``autodiff.lse_matmul`` op per
latent (``lse_matmul_node``).  Its forward on ndarrays is
``runtime.tree_loglik``.  EM takes its expected counts from the same
tape: the gradient of the summed log-likelihood with respect to the
normalized log sum rows is the expected count of every sum edge.
``em_step`` runs the same identity on any concrete circuit, one layer at
a time: each sum layer's counts are the ``lse_matmul`` backward of its
flows.  Both move their rows by ``_em_rows``.  ``train_pic``,
``train_hclt_adam`` and ``train_hclt_em`` share one mini-batch loop with
the cosine-annealed step size and best-validation early stopping.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Node, Tape, _log_normalize_data
from .circuit import Circuit, Unit, param_width
from .errors import NumericError
from .materialize import _build_regions, _input_region, _read_pic, dataset_loglik, param_nodes
from .nets import ParamNets, squash
from .quadrature import QuadratureRule, make_rule
from .runtime import _obs_rows, _times_inv_sigma, bpd, circuit_layers, evidence_rows, forward_values, latent_tree_loglik, layer_table, observed_evidence, tree_loglik, upward_pass  # noqa: F401  (latent_tree_loglik: looked up here by perfbench)
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


def evidence_node(tape: Tape, table: Node, family: str, num_states, x_col: np.ndarray, var=None) -> Node:
    """``evidence_rows`` (N, B) of one observable's squashed (N, I) block, as one ``evidence`` op.

    The data column is a constant; a NaN cell contributes log 1 = 0 and
    passes no gradient.  ``var`` names the observable in support errors.
    """
    out = evidence_rows(table.data, family, num_states, x_col, var)
    return tape.record("evidence", out, (table,), (table.data, family, num_states, x_col))


@ad._backward_rule("evidence")
def _evidence_bwd(ctx, g):
    table, family, num_states, x_col = ctx
    observed, v = observed_evidence(family, num_states, x_col)
    g = g[:, observed]
    out = np.zeros(table.shape)
    if family == "categorical":
        np.add.at(out, (slice(None), v), g)
    elif family == "binomial":
        p = table[:, :1]
        out[:, :1] = (g * (v / p - (num_states - v) / (1.0 - p))).sum(axis=1, keepdims=True)
    else:
        log_sigma = table[:, 1:2]
        z = _times_inv_sigma(v - table[:, :1], log_sigma)
        out[:, :1] = _times_inv_sigma((g * z).sum(axis=1, keepdims=True), log_sigma)
        out[:, 1] = (g * (z * z - 1.0)).sum(axis=1)
    return (out,)


def tree_loglik_node(tape: Tape, model, tables, sum_rows, x: np.ndarray) -> Node:
    """The one latent-tree log-likelihood (B,) on the tape.

    model (a ``ParamNets`` or an ``HcltTensors``) gives the tree maps and
    family; tables yields observable j's squashed (N, I) block in order and
    sum_rows(i) latent i's normalized (J, N) log rows, both as tape nodes.
    """
    obs_rows = _obs_rows(model, tables, x, lambda *args: evidence_node(tape, *args))
    loglik = upward_pass(model.latent_parent, model.obs_parent, obs_rows, lambda i, acc: lse_matmul_node(tape, sum_rows(i), acc))
    return ad.reshape(loglik, (x.shape[0],))


def batch_loglik_node(tape: Tape, nets: ParamNets, pnodes, rule: QuadratureRule, x: np.ndarray) -> Node:
    """Batch log-likelihood (B,) through the circuit materialized on the tape.

    ``tree_loglik_node`` over ``materialize.param_nodes``: each
    observable's parameter block and each latent's sum rows exist only as
    tape nodes, built when the engine reaches them (the concrete circuit
    is never assembled).
    """
    table, sum_rows = param_nodes(tape, nets, pnodes, rule.points, rule.weights)
    return tree_loglik_node(tape, nets, map(table, range(len(nets.decoder))), sum_rows, x)


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
    """Mean negative log-likelihood of a dataset: the mean of ``dataset_loglik``.  No rows raises ValueError."""
    if not len(x):
        raise ValueError("dataset has no rows")
    return float(-dataset_loglik(nets, rule, x, chunk).mean())


def _fit(params: dict[str, np.ndarray], take_step, nll, train_x: np.ndarray, valid_x: np.ndarray, config: TrainConfig) -> TrainResult:
    """The mini-batch loop shared by every trainer.

    ``take_step(batch)`` updates ``params`` in place and returns the batch
    mean NLL; ``nll(valid_x)`` scores the current parameters.  An empty
    training or validation set raises ValueError.  History rows:
    step, lr, mean train NLL since the previous evaluation, validation
    bpd.  Training stops once the validation NLL has not improved for
    ``patience`` steps (checked at each evaluation) or at max_steps; the
    best-validation snapshot is then copied back into ``params``.
    """
    if not len(train_x) or not len(valid_x):
        raise ValueError(f"{'training' if not len(train_x) else 'validation'} set has no rows")
    rng = np.random.default_rng(config.seed)
    num_vars = train_x.shape[1]
    best_nll = nll(valid_x)
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
            valid_nll = nll(valid_x)
            history.append(
                {
                    "step": step,
                    "lr": lr_schedule(step, config),
                    "train_nll": float(np.mean(window)),
                    "valid_bpd": float(bpd(-valid_nll, num_vars)),
                }
            )
            window = []
            if valid_nll < best_nll:
                best_nll = valid_nll
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
    return _fit(opt.params, lambda batch: train_pic_step(nets, batch, rule, opt), lambda x: dataset_nll(nets, rule, x), train_x, valid_x, config)


def em_step(pc: Circuit, batch: np.ndarray, eta: float) -> float:
    """One EM update on every sum unit's weights, one layer at a time.

    The expected edge counts are the gradient of the batch's summed
    log-likelihood with respect to the log weights.  So, walking the
    layers in reverse, a sum layer's counts and its children's flows are
    the ``lse_matmul`` backward of its own flows (its contraction is run
    again there rather than kept from the forward pass, which would hold
    every sum layer's operands at once); a product layer passes its flows
    to its children.  Sum layers' rows move by ``_em_rows``; updated units
    replace the old ones (weight arrays stay immutable) with the same
    children and scope, so the layers that ``runtime.circuit_layers`` keeps
    on the circuit serve every later step: a run of steps builds them once.
    Returns the batch mean log-likelihood under the pre-update parameters.
    """
    layers = circuit_layers(pc)
    values = forward_values(pc, batch, layers, np.matmul)
    flows = np.zeros_like(values)
    flows[pc.root] = 1.0
    for layer in reversed(layers):
        if layer.kind == "product":
            _scatter_add(flows, layer, flows[layer.uids][:, None, :])
        elif layer.kind == "sum":
            weights, kids = layer_table(pc, layer), values[layer.index]
            ctx = (weights, kids, *ad._lse_matmul_parts(weights, kids))
            counts, child_flow = ad._lse_matmul_bwd(ctx, flows[layer.uids])
            _scatter_add(flows, layer, child_flow)
            moved, log_rows = _em_rows(weights, counts, eta)
            for uid, w in zip(layer.uids[moved], log_rows):
                u = pc.units[uid]
                w.setflags(write=False)
                pc.units[uid] = Unit(u.uid, "sum", u.children, u.scope, weights=w)
    return float(values[pc.root].mean())


def _em_rows(logits: np.ndarray, counts: np.ndarray, eta: float):
    """(moved, new log rows) of (U, K) log rows under their expected counts: each row moves to
    (1 - eta) softmax(logits) + eta counts / rowsum, but a row whose counts sum to zero keeps its weights."""
    total = counts.sum(axis=1, keepdims=True)
    moved = total[:, 0] > 0.0
    theta = (1.0 - eta) * np.exp(_log_normalize_data(logits[moved])) + eta * (counts[moved] / total[moved])
    with np.errstate(divide="ignore"):
        return moved, np.log(theta)


def _scatter_add(flows: np.ndarray, layer, contrib: np.ndarray) -> None:
    """flows[layer.index] += contrib, summing over repeated child ids."""
    if layer.repeats:
        np.add.at(flows, layer.index, contrib)
    else:
        flows[layer.index] += contrib


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
        return [_log_normalize_data(logits) for logits in self.sum_logits]

    def loglik(self, x: np.ndarray) -> np.ndarray:
        """Per-row log-likelihood (B,): ``tree_loglik`` of the tensors."""
        return tree_loglik(self, self.input_tables(), self.sum_rows(), x)

    def to_circuit(self) -> Circuit:
        """The concrete circuit of these tensors, built by the static materializer's region builder."""
        obs_cond = tuple({"type": "neural", "family": self.family, "k": self.num_states} for _ in self.obs_parent)
        pic = bn_to_pic(LatentTree(self.latent_parent, self.obs_parent, tuple({"type": "neural"} for _ in self.latent_parent), obs_cond))
        _, _, parts = _read_pic(pic)
        tables, rows = self.input_tables(), self.sum_rows()
        # a neural region is read from its block alone; the block's rows stand for the N points
        return _build_regions(pic, parts, lambda u: _input_region(u.dist, tables[u.var], lambda: tables[u.var]), lambda u: rows[u.latent["var"]])


def hclt_adam_step(tensors: HcltTensors, batch: np.ndarray, opt: Adam) -> float:
    """One Adam step on the log-softmax reparameterized tensors; a non-finite loss aborts it."""
    tape = Tape()
    pnodes = {k: tape.param(k, v) for k, v in tensors.param_arrays().items()}
    tables = [squash(tensors.family, pnodes[f"i{j}"]) for j in range(len(tensors.input_raw))]
    sum_rows = [ad.log_normalize(pnodes[f"s{i}"]) for i in range(len(tensors.sum_logits))]
    loss = ad.neg(ad.mean(_finite(tree_loglik_node(tape, tensors, tables, sum_rows.__getitem__, batch))))
    grads = tape.backward(loss)
    opt.step(grads)
    return float(loss.data)


def hclt_em_step(tensors: HcltTensors, batch: np.ndarray, eta: float) -> float:
    """One EM update on every sum row; returns the pre-update batch mean NLL.

    The expected counts are the gradient of the batch's summed
    log-likelihood with respect to the normalized log sum rows (the input
    tables enter the tape as constants).  Each row moves in place by
    ``_em_rows``, as in ``em_step`` on the explicit circuit.  A non-finite
    loss aborts before any row moves.
    """
    tape = Tape()
    sum_rows = [tape.param(f"s{i}", rows) for i, rows in enumerate(tensors.sum_rows())]
    tables = [tape.const(table) for table in tensors.input_tables()]
    loglik = _finite(tree_loglik_node(tape, tensors, tables, sum_rows.__getitem__, batch))
    counts = tape.backward(ad.reduce_sum(loglik))
    for i, logits in enumerate(tensors.sum_logits):
        moved, log_rows = _em_rows(logits, counts[f"s{i}"], eta)
        logits[moved] = log_rows
    return float(-loglik.data.mean())


def train_hclt_adam(tensors: HcltTensors, train_x: np.ndarray, valid_x: np.ndarray, config: TrainConfig) -> TrainResult:
    """Adam training of the free-tensor baseline: the loop of train_pic."""
    config.validate()
    opt = Adam(tensors.param_arrays(), config)
    return _fit(opt.params, lambda batch: hclt_adam_step(tensors, batch, opt), lambda x: float(-tensors.loglik(x).mean()), train_x, valid_x, config)


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
        lambda x: float(-tensors.loglik(x).mean()),
        train_x,
        valid_x,
        config,
    )
