"""The four perfbench workloads.

Every workload builds its inputs from the seed, sets up ``SETUP_REPEATS``
times (the median is ``setup_s``), runs one untimed warm-up round, checks
the warm-up outputs, and then repeats identical rounds for the requested
number of seconds.  The latency of the round's primary operation is
``step_ms``; ``rows`` counts the data rows the timed region pushed through
the package.  Work a user pays once per session (validation, export) runs
inside the timed region but outside any round.

Why each workload exists, and which layers it stresses, is in README.md.
The program sees only generated inputs: the categorical rows go through a
CSV file and ``data.load_csv``; the Gaussian samples come from
``gaussian.sample`` on a fixed set of ``gaussian.random_model`` models.
After every round the harness runs Python's cycle collector, because each
autodiff tape is a reference cycle (nodes point back at their tape) that
reference counting never frees; left to the automatic collector, tapes of
about 470 MB pile up to several GB of resident memory in pic-train.
"""

from __future__ import annotations

import csv
import gc
import time
import traceback
from dataclasses import dataclass, field

import numpy as np
from picirc import autodiff, circuit, data, gaussian, materialize, quadrature, runtime, structures, training
from picirc.nets import ParamNets

import checks

N = 64                      # quadrature points per latent
NUM_COLS, NUM_STATES = 16, 4
NOISE = 0.3                 # share of cells replaced by a uniform draw
TRAIN_ROWS, VALID_ROWS = 8192, 1024
BATCH = 64
SETUP_REPEATS = 3
FUSED_CHUNK = 4096          # rows per fused evaluation chunk, as dataset_nll uses

VALID_STEP = 6              # pic-train: validation bpd after this many steps
SAMPLE_ROWS = 256           # qpc-query: rows drawn by sample_pc per round
MARGINAL_SHARE, MISSING_CELLS = 4, 4   # a quarter of explicit rows miss 4 of 16 cells
EM_BATCH, EM_ETA = 256, 0.5
ADAM_STEPS = 8              # hclt-em: hclt_adam_step calls per round
GAUSS_MODELS, GAUSS_NODES, GAUSS_SAMPLES = 64, 16, 1000
# The Gaussian models are a fixed set, as in the criterion-1 study; the seed
# draws their samples.  Model cost varies several-fold with the model, so a
# seed-drawn set would make the spread across seeds measure the model mix.
GAUSS_MODEL_SEED = 0
GAUSS_CELLS = tuple((n, kind) for n in (64, 512) for kind in ("trapezoidal", "gauss_legendre"))
GAUSS_CHECK_N, GAUSS_CHECK_ROWS = 16, 200


@dataclass
class Session:
    """State of one workload run: inputs to the run and everything it measured."""

    seed: int
    seconds: float
    tracer: object
    workdir: object
    setup_s: list = field(default_factory=list)
    step_ms: list = field(default_factory=list)
    rows: int = 0
    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    t0: float = 0.0
    t1: float = 0.0
    checks: list = field(default_factory=list)
    named: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    def setup(self, build):
        """Run ``build`` SETUP_REPEATS times; keep each duration and the last result."""
        out = None
        self.tracer.active = True
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            out = build()
            self.setup_s.append(time.perf_counter() - t)
        self.tracer.active = False
        return out

    def op(self, fn, *args):
        """One timed operation; an exception counts it as failed and yields None."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None

    def check(self, name: str, result: tuple[bool, str]) -> None:
        ok, detail = result
        self.attempted += 1
        self.failed += 0 if ok else 1
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    def timed(self, one_round, min_rounds: int = 1, final=None) -> None:
        """Repeat rounds until ``seconds`` have passed, then run ``final`` once."""
        tracer = self.tracer
        gc.collect()
        tracer.active = True
        self.t0 = time.perf_counter()
        while self.rounds < min_rounds or time.perf_counter() - self.t0 < self.seconds:
            tracer.round_begin()
            one_round(self.rounds)
            tracer.collect_garbage()
            tracer.round_end()
            self.rounds += 1
        if final is not None:
            final()
        self.t1 = time.perf_counter()
        tracer.active = False

    def stopwatch(self, fn, *args, into: list):
        """``op`` that appends its duration in ms to ``into`` when it succeeds."""
        t = time.perf_counter()
        out = self.op(fn, *args)
        if out is not None:
            into.append(1e3 * (time.perf_counter() - t))
        return out


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else float("nan")


def timing(values) -> dict:
    """Median, p90, the highest percentile with ten samples beyond it, and n."""
    n = len(values)
    tail = int(np.floor(100.0 * (1.0 - 10.0 / n))) if n > 10 else None
    return {
        "p50": percentile(values, 50),
        "p90": percentile(values, 90),
        "tail_pct": tail,
        "tail": percentile(values, tail) if tail is not None else None,
        "n": n,
    }


# -- inputs -------------------------------------------------------------


def make_rows(rng, rows: int) -> np.ndarray:
    """Categorical rows driven by one hidden state through a fixed binary tree.

    Column 0 copies the hidden state and column j copies column (j - 1) // 2;
    each copy is replaced by a uniform draw with probability NOISE.  The
    tree is the same for every seed, so Chow-Liu learns the same structure
    and the seed changes the rows, not the shape of the circuit.
    """
    x = np.empty((rows, NUM_COLS), dtype=np.int64)
    hidden = rng.integers(0, NUM_STATES, rows)
    for j in range(NUM_COLS):
        source = hidden if j == 0 else x[:, (j - 1) // 2]
        noisy = rng.random(rows) < NOISE
        x[:, j] = np.where(noisy, rng.integers(0, NUM_STATES, rows), source)
    return x.astype(np.float64)


def write_csv(path, values: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j}" for j in range(values.shape[1])])
        writer.writerows([format(v, ".17g") for v in row] for row in values)


@dataclass
class CategoricalInputs:
    train: np.ndarray
    valid: np.ndarray
    tree: structures.LatentTree
    pic: circuit.Circuit


def categorical_inputs(s: Session) -> CategoricalInputs:
    """Rows written to CSV, loaded back, and an HCLT learned on the training part."""
    rows = make_rows(np.random.default_rng([s.seed, 0]), TRAIN_ROWS + VALID_ROWS)
    path = s.workdir / "categorical.csv"
    write_csv(path, rows)
    values = data.load_csv(path, f"categorical:{NUM_STATES}").values
    train, valid = values[:TRAIN_ROWS], values[TRAIN_ROWS:]
    clt = structures.chow_liu_tree(train)
    tree = structures.hclt_structure(clt, "categorical", num_states=NUM_STATES)
    return CategoricalInputs(train, valid, tree, structures.bn_to_pic(tree))


def batches(rows: np.ndarray, size: int, seed):
    """Batch k of a fixed seeded permutation, cycling through the rows."""
    order = np.random.default_rng(seed).permutation(len(rows))
    per_epoch = len(rows) // size
    return lambda k: rows[order[(k % per_epoch) * size : (k % per_epoch + 1) * size]]


def fused_loglik(nets: ParamNets, sp, ip, rows: np.ndarray) -> np.ndarray:
    """Per-row log-likelihood on the fused tensor path (evidence rows + upward pass)."""
    sum_rows = [sp.s[i][:1] if p is None else sp.s[i] for i, p in enumerate(nets.latent_parent)]
    out = []
    for lo in range(0, len(rows), FUSED_CHUNK):
        ev = rows[lo : lo + FUSED_CHUNK]
        obs_rows = [
            materialize.evidence_rows(ip.table[j], ip.family, ip.num_states, ev[:, j], var=j)
            for j in range(len(nets.obs_parent))
        ]
        out.append(runtime.latent_tree_loglik(nets.latent_parent, nets.obs_parent, sum_rows, obs_rows))
    return np.concatenate(out)


# -- pic-train ----------------------------------------------------------


def tape_directional_derivative(nets: ParamNets, rule, batch: np.ndarray, direction: dict) -> float:
    """d(mean NLL)/dt along ``direction``, from one backward pass on the tape."""
    tape = autodiff.Tape()
    pnodes = nets.register(tape)
    loglik = training.batch_loglik_node(tape, nets, pnodes, rule, batch)
    grads = tape.backward(autodiff.neg(autodiff.mean(loglik)))
    return sum(float(np.sum(grads[k] * d)) for k, d in direction.items())


def fd_gradient_check(nets: ParamNets, rule, batch: np.ndarray, seed) -> tuple[bool, str]:
    """Tape gradient against a central difference of dataset_nll along one direction."""
    params = nets.param_arrays()
    rng = np.random.default_rng(seed)
    direction = {k: rng.standard_normal(v.shape) for k, v in params.items()}
    analytic = tape_directional_derivative(nets, rule, batch, direction)
    saved = {k: v.copy() for k, v in params.items()}

    def nll_at(h: float) -> float:
        for k, v in params.items():
            v[...] = saved[k] + h * direction[k]
        return training.dataset_nll(nets, rule, batch)

    eps = 1e-5
    numeric = (nll_at(eps) - nll_at(-eps)) / (2 * eps)
    for k, v in params.items():
        v[...] = saved[k]
    return checks.relative_close(analytic, numeric, 1e-4)


def pic_train(s: Session) -> None:
    def build():
        inputs = categorical_inputs(s)
        return inputs, ParamNets.for_tree(inputs.tree, "categorical", num_states=NUM_STATES, seed=s.seed)

    inputs, nets = s.setup(build)
    rule = quadrature.make_rule("trapezoidal", N)
    opt = training.Adam(nets.param_arrays(), training.TrainConfig(n=N, batch_size=BATCH))
    batch = batches(inputs.train, BATCH, [s.seed, 1])

    s.check("pic-train: tape gradient matches finite difference", fd_gradient_check(nets, rule, batch(0), [s.seed, 2]))
    gc.collect()
    nll_first = training.dataset_nll(nets, rule, batch(0))
    losses = [s.op(training.train_pic_step, nets, batch(0), rule, opt)]
    s.check("pic-train: step-1 loss equals dataset_nll", checks.close(losses[0], nll_first, 1e-10))
    valid_nll = []

    def one_round(r: int) -> None:
        losses.append(s.stopwatch(training.train_pic_step, nets, batch(r + 1), rule, opt, into=s.step_ms))
        s.rows += BATCH
        if len(losses) == VALID_STEP:
            valid_nll.append(s.op(training.dataset_nll, nets, rule, inputs.valid))
            s.rows += VALID_ROWS

    s.timed(one_round, min_rounds=VALID_STEP - 1)
    s.check("pic-train: every loss is finite", checks.all_finite([np.nan if v is None else v for v in losses + valid_nll], "losses"))
    steps = timing(s.step_ms)
    s.named["train.step_ms.p50"] = (steps["p50"], "ms")
    s.named["train.step_ms.p90"] = (steps["p90"], "ms")
    s.named["train.valid_bpd"] = (float(runtime.bpd(-valid_nll[0], NUM_COLS)) if valid_nll[0] is not None else float("nan"), "bits/dim")
    s.notes["train.step_ms"] = steps


# -- qpc-query ----------------------------------------------------------


def qpc_query(s: Session) -> None:
    def build():
        inputs = categorical_inputs(s)
        nets = ParamNets.for_tree(inputs.tree, "categorical", num_states=NUM_STATES, seed=s.seed)
        rng = np.random.default_rng([s.seed, 3])
        explicit = inputs.valid.copy()
        for row in explicit[: len(explicit) // MARGINAL_SHARE]:
            row[rng.choice(NUM_COLS, MISSING_CELLS, replace=False)] = np.nan
        return inputs, nets, explicit

    inputs, nets, explicit_rows = s.setup(build)
    rule = quadrature.make_rule("trapezoidal", N)
    fused_rows = inputs.train
    parts = {"build": [], "fused": [], "explicit": [], "sample": []}
    digests = []

    def build_qpc():
        sp = materialize.materialize_sum_params(nets, rule.points, rule.weights)
        ip = materialize.materialize_input_params(nets, rule.points)
        qpc = materialize.materialize_qpc(inputs.pic, rule, (sp, ip))
        return sp, ip, qpc, circuit.deserialize(circuit.serialize(qpc))

    def session(times: dict):
        built = s.stopwatch(build_qpc, into=times["build"])
        if built is None:
            return None
        sp, ip, qpc, served = built
        fused = s.stopwatch(fused_loglik, nets, sp, ip, fused_rows, into=times["fused"])
        explicit = s.stopwatch(runtime.log_forward, served, explicit_rows, into=times["explicit"])
        samples = s.stopwatch(runtime.sample_pc, served, SAMPLE_ROWS, s.seed, into=times["sample"])
        return sp, ip, qpc, served, fused, explicit, samples

    def digest(out) -> tuple:
        if out is None or any(v is None for v in out):
            return None
        fused, explicit, samples = out[4:]
        return (float(fused.sum()), float(explicit.sum()), float(np.nansum(samples)))

    warm = session({k: [] for k in parts})
    if warm is None:
        s.check("qpc-query: warm-up session", (False, "raised"))
        return
    sp, ip, qpc, served, *_ = warm
    subset = explicit_rows[len(explicit_rows) // MARGINAL_SHARE - 64 :][:128]
    reference = runtime.log_forward(served, subset)
    s.check(
        "qpc-query: fused, explicit and streamed log-likelihoods agree",
        checks.paths_agree(reference, {
            "fused": fused_loglik(nets, sp, ip, subset),
            "streamed": materialize.streamed_loglik(inputs.pic, rule, nets, subset),
        }),
    )
    s.check("qpc-query: serialize/deserialize round trip", checks.round_trip(qpc, served))
    s.check("qpc-query: samples lie in the support", checks.categorical_support(warm[6], NUM_STATES))

    def one_round(r: int) -> None:
        start = time.perf_counter()
        digests.append(digest(session(parts)))
        s.step_ms.append(1e3 * (time.perf_counter() - start))
        s.rows += len(fused_rows) + len(explicit_rows) + SAMPLE_ROWS

    s.timed(one_round)
    s.check("qpc-query: every round answers identically", checks.all_equal([digest(warm)] + digests, "answers"))
    s.check("qpc-query: answers are finite", checks.all_finite([v for d in digests if d for v in d], "answer sums"))
    s.named["query.build_ms"] = (percentile(parts["build"], 50), "ms")
    s.named["query.fused_rows_per_s"] = (len(fused_rows) / (1e-3 * percentile(parts["fused"], 50)), "rows/s")
    s.named["query.explicit_rows_per_s"] = (len(explicit_rows) / (1e-3 * percentile(parts["explicit"], 50)), "rows/s")
    s.named["query.sample_rows_per_s"] = (SAMPLE_ROWS / (1e-3 * percentile(parts["sample"], 50)), "rows/s")
    s.notes.update({f"query.{k}_ms": timing(v) for k, v in parts.items()})


# -- hclt-em ------------------------------------------------------------


def hclt_em(s: Session) -> None:
    def build():
        inputs = categorical_inputs(s)
        em_tensors = training.HcltTensors.random(inputs.tree, N, "categorical", NUM_STATES, seed=[s.seed, 4], scale=1.0)
        adam_tensors = training.HcltTensors.random(inputs.tree, N, "categorical", NUM_STATES, seed=[s.seed, 5])
        return inputs, em_tensors.to_circuit(), adam_tensors

    inputs, pc, tensors = s.setup(build)
    opt = training.Adam(tensors.param_arrays(), training.TrainConfig(n=N, batch_size=BATCH))
    em_batch = batches(inputs.train, EM_BATCH, [s.seed, 6])
    adam_batch = batches(inputs.train, BATCH, [s.seed, 7])
    adam_ms: list = []
    outputs = [s.op(training.em_step, pc, em_batch(0), EM_ETA), s.op(training.hclt_adam_step, tensors, adam_batch(0), opt)]
    valid = {}

    def one_round(r: int) -> None:
        outputs.append(s.stopwatch(training.em_step, pc, em_batch(r + 1), EM_ETA, into=s.step_ms))
        for k in range(ADAM_STEPS):
            outputs.append(s.stopwatch(training.hclt_adam_step, tensors, adam_batch(1 + r * ADAM_STEPS + k), opt, into=adam_ms))
        s.rows += EM_BATCH + ADAM_STEPS * BATCH

    def final() -> None:
        values = s.op(runtime.forward_values, pc, inputs.valid)
        valid["em"] = None if values is None else float(values[pc.root].mean())
        loglik = s.op(tensors.loglik, inputs.valid)
        valid["adam"] = None if loglik is None else float(loglik.mean())
        valid["exported"] = s.op(tensors.to_circuit)
        s.rows += 2 * VALID_ROWS

    s.timed(one_round, final=final)
    sum_rows = [u.weights for u in pc.units if u.kind == "sum"]
    s.check("hclt-em: EM sum rows stay normalized", checks.sum_rows_normalized(sum_rows))
    subset = inputs.valid[:256]
    exported = tensors.to_circuit() if valid["exported"] is None else valid["exported"]
    s.check(
        "hclt-em: HcltTensors.loglik matches log_forward on to_circuit()",
        checks.paths_agree(runtime.log_forward(exported, subset), {"loglik": tensors.loglik(subset)}),
    )
    finals = [valid["em"], valid["adam"]] + outputs
    s.check("hclt-em: every step and validation value is finite", checks.all_finite([np.nan if v is None else v for v in finals], "values"))
    em, adam = timing(s.step_ms), timing(adam_ms)
    s.named["em.step_ms.p50"] = (em["p50"], "ms")
    s.named["em.step_ms.p90"] = (em["p90"], "ms")
    s.named["hclt_adam.step_ms.p50"] = (adam["p50"], "ms")
    s.notes.update({"em.step_ms": em, "hclt_adam.step_ms": adam})
    for key in ("em", "adam"):
        if valid[key] is not None:
            s.notes[f"{key}.valid_bpd"] = float(runtime.bpd(valid[key], NUM_COLS))


# -- gauss-sanity -------------------------------------------------------


def gauss_sanity(s: Session) -> None:
    def build():
        models = [gaussian.random_model(GAUSS_NODES, sq) for sq in np.random.SeedSequence(GAUSS_MODEL_SEED).spawn(GAUSS_MODELS)]
        return models, [gaussian.sample(m, GAUSS_SAMPLES, [s.seed, 8, k]) for k, m in enumerate(models)]

    models, samples = s.setup(build)
    mse = {cell: [] for cell in GAUSS_CELLS}

    def model_cells(m: int) -> None:
        for n, kind in GAUSS_CELLS:
            mse[(n, kind)].append(s.op(gaussian.sanity_mse, models[m], samples[m], n, kind))

    model_cells(0)
    m0, x0 = models[0], samples[0][:GAUSS_CHECK_ROWS]
    rules = gaussian.domain_rules(m0, GAUSS_CHECK_N)
    qpc = materialize.materialize_qpc(gaussian.to_pic(m0), rules)
    s.check(
        f"gauss-sanity: qpc_loglik matches log_forward at N={GAUSS_CHECK_N}",
        checks.paths_agree(runtime.log_forward(qpc, x0), {"qpc_loglik": gaussian.qpc_loglik(m0, rules, x0)}),
    )

    def one_round(r: int) -> None:
        start = time.perf_counter()
        model_cells(r % GAUSS_MODELS)
        s.step_ms.append(1e3 * (time.perf_counter() - start))
        s.rows += len(GAUSS_CELLS) * GAUSS_SAMPLES

    s.timed(one_round)
    every = [np.nan if v is None else v for values in mse.values() for v in values]
    s.check("gauss-sanity: every MSE is finite", checks.all_finite(every, "cell MSEs"))
    s.named["sanity.cells_per_s"] = (len(GAUSS_CELLS) * s.rounds / (s.t1 - s.t0), "cells/s")
    s.notes["sanity.mse"] = {f"N={n} {kind}": float(np.mean([v for v in values if v is not None])) for (n, kind), values in mse.items()}


WORKLOADS = {
    "pic-train": pic_train,
    "qpc-query": qpc_query,
    "hclt-em": hclt_em,
    "gauss-sanity": gauss_sanity,
}
