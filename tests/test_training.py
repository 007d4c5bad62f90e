import gc
import weakref

import numpy as np
import pytest
from scipy.special import gammaln

import picirc.autodiff as ad
from picirc.autodiff import Tape
from picirc.circuit import CircuitBuilder, InputDist, structurally_equal
from picirc.errors import NumericError
from picirc.materialize import (
    InputParamTensor,
    SumParamTensor,
    materialize_input_params,
    materialize_nested,
    materialize_qpc,
    materialize_sum_params,
    streamed_loglik,
)
from picirc.nets import ParamNets, decoder_forward, energy_forward, load_checkpoint, save_checkpoint
from picirc.quadrature import make_rule
from picirc.runtime import evidence_rows, latent_tree_loglik, log_forward
from picirc.structures import LatentTree, bn_to_pic
from picirc.training import (
    Adam,
    HcltTensors,
    TrainConfig,
    _logsumexp_list,
    batch_loglik_node,
    dataset_nll,
    em_step,
    evidence_node,
    hclt_adam_step,
    hclt_em_step,
    lr_schedule,
    lse_matmul_node,
    train_hclt_adam,
    train_hclt_em,
    train_pic,
    train_pic_step,
    unitwise_loglik_node,
)
from reference import copy_circuit

NEURAL = {"type": "neural"}


def neural_tree(latent_parent, obs_parent, family="categorical", k=3):
    obs_cond = tuple(
        {"type": "neural", "net": j, "family": family, **({"k": k} if k else {})}
        for j in range(len(obs_parent))
    )
    return LatentTree(
        latent_parent=tuple(latent_parent),
        obs_parent=tuple(obs_parent),
        latent_cond=tuple(NEURAL for _ in latent_parent),
        obs_cond=obs_cond,
    )


def small_nets(tree, k=3, seed=0, family="categorical"):
    return ParamNets.for_tree(
        tree, family, num_states=k, num_frequencies=2, hidden=(6, 6), decoder_hidden=(6,), seed=seed
    )


def family_data(family, k, rows, cols, seed):
    rng = np.random.default_rng(seed)
    if family == "gaussian":
        return rng.normal(0.0, 1.5, (rows, cols))
    top = k if family == "binomial" else k - 1
    return rng.integers(0, top + 1, (rows, cols)).astype(float)


def two_component_mixture(prior=(0.3, 0.7)):
    """Root sum over two products of fixed binary leaves."""
    builder = CircuitBuilder()

    def leaf(var, p1):
        dist = InputDist("categorical", num_states=2, params=np.log([1 - p1, p1]))
        return builder.add_input(var, dist)

    c0 = builder.add_product([leaf(0, 0.8), leaf(1, 0.3)])
    c1 = builder.add_product([leaf(0, 0.2), leaf(1, 0.6)])
    root = builder.add_sum([c0, c1], np.log(list(prior)))
    return builder.finish(root=root), (c0, c1)


def mixture_density(row, prior):
    comps = ([0.8, 0.3], [0.2, 0.6])
    total = 0.0
    parts = []
    for pz, ps in zip(prior, comps):
        val = pz
        for v, p1 in zip(row, ps):
            val *= p1 if v == 1 else 1 - p1
        parts.append(val)
        total += val
    return total, parts


def with_missing(x, share=0.25, seed=0):
    """A copy of x with about ``share`` of its cells set to NaN (marginalized)."""
    x = x.copy()
    x[np.random.default_rng(seed).random(x.shape) < share] = np.nan
    return x


FAMILIES = [("categorical", 3), ("binomial", 4), ("gaussian", None)]


def em_toy_data(num_rows=200, seed=7):
    rng = np.random.default_rng(seed)
    z = rng.random(num_rows) < 0.4
    p = np.where(z[:, None], [0.9, 0.2], [0.1, 0.7])
    return (rng.random((num_rows, 2)) < p).astype(float)


class TestConfigAndSchedule:
    def test_frozen_schedule_values(self):
        config = TrainConfig()
        assert lr_schedule(0, config) == pytest.approx(1e-2, abs=0)
        assert lr_schedule(250, config) == pytest.approx(5.05e-3, rel=1e-12)
        assert lr_schedule(500, config) == pytest.approx(1e-2, abs=0)
        assert lr_schedule(750, config) == pytest.approx(5.05e-3, rel=1e-12)

    def test_schedule_stays_inside_bounds(self):
        config = TrainConfig()
        vals = np.array([lr_schedule(s, config) for s in range(0, 1500, 7)])
        assert vals.min() >= config.lr_min - 1e-15
        assert vals.max() <= config.lr_max + 1e-15

    def test_validate_rejects_bad_ranges(self):
        with pytest.raises(ValueError, match="lr_min"):
            TrainConfig(lr_min=1e-2, lr_max=1e-2).validate()
        with pytest.raises(ValueError, match="patience"):
            TrainConfig(patience=-1).validate()
        with pytest.raises(ValueError, match="patience"):
            TrainConfig(max_steps=100, patience=101).validate()
        with pytest.raises(ValueError, match="positive"):
            TrainConfig(batch_size=0).validate()
        with pytest.raises(ValueError, match="eval_interval must be positive"):
            TrainConfig(eval_interval=0).validate()

    def test_patience_zero_is_legal(self):
        TrainConfig(patience=0).validate()


class TestPicStep:
    def test_loss_strictly_decreases_on_repeated_point(self):
        tree = neural_tree((None,), (0,))
        nets = small_nets(tree, seed=2)
        rule = make_rule("trapezoidal", 8, -1.0, 1.0)
        x = np.full((4, 1), 1.0)
        opt = Adam(nets.param_arrays(), TrainConfig(batch_size=4, n=8))
        losses = [train_pic_step(nets, x, rule, opt) for _ in range(50)]
        assert np.all(np.diff(losses) < 0)

    def test_constants_stay_bit_identical(self):
        tree = neural_tree((None, 0), (0, 1))
        nets = small_nets(tree, seed=3)
        rule = make_rule("trapezoidal", 6, -1.0, 1.0)
        freqs_before = {k: v.copy() for k, v in nets.frequency_arrays().items()}
        points_before = rule.points.copy()
        weights_before = rule.weights.copy()
        x = np.random.default_rng(0).integers(0, 3, size=(8, 2)).astype(float)
        opt = Adam(nets.param_arrays(), TrainConfig(batch_size=8, n=6))
        for _ in range(5):
            train_pic_step(nets, x, rule, opt)
        for k, v in nets.frequency_arrays().items():
            np.testing.assert_array_equal(v, freqs_before[k])
        np.testing.assert_array_equal(rule.points, points_before)
        np.testing.assert_array_equal(rule.weights, weights_before)

    def test_zero_gradients_leave_params_unchanged(self):
        params = {"a": np.array([1.0, -2.0]), "b": np.array([[0.5]])}
        before = {k: v.copy() for k, v in params.items()}
        opt = Adam(params, TrainConfig())
        opt.step({k: np.zeros_like(v) for k, v in params.items()})
        for k in params:
            np.testing.assert_array_equal(params[k], before[k])

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_nonfinite_loss_aborts_before_update(self):
        tree = neural_tree((None,), (0,))
        nets = small_nets(tree, seed=4)
        rule = make_rule("trapezoidal", 5, -1.0, 1.0)
        arrays = nets.param_arrays()
        arrays["g0.w0"][0, 0] = np.nan
        snapshot = {k: v.copy() for k, v in arrays.items()}
        opt = Adam(arrays, TrainConfig(batch_size=3, n=5))
        x = np.zeros((3, 1))
        with pytest.raises(NumericError, match="batch row 0"):
            train_pic_step(nets, x, rule, opt)
        for k in arrays:
            np.testing.assert_array_equal(arrays[k], snapshot[k])
        assert opt.t == 0

    @pytest.mark.parametrize("family, k", [("categorical", 3), ("binomial", 4), ("gaussian", None)])
    def test_region_and_unitwise_paths_agree(self, family, k):
        tree = neural_tree((None, 0), (0, 1, 1), family=family, k=k)
        nets = small_nets(tree, k=k, seed=1, family=family)
        rule = make_rule("trapezoidal", 5, -1.0, 1.0)
        x = family_data(family, k, 8, 3, 0)

        tape_a = Tape()
        nodes_a = nets.register(tape_a)
        loss_a = ad.neg(ad.mean(batch_loglik_node(tape_a, nets, nodes_a, rule, x)))
        grads_a = tape_a.backward(loss_a)

        pic = bn_to_pic(tree)
        tape_b = Tape()
        nodes_b = nets.register(tape_b)
        loss_b = ad.neg(ad.mean(unitwise_loglik_node(tape_b, pic, nets, nodes_b, rule, x)))
        grads_b = tape_b.backward(loss_b)

        np.testing.assert_allclose(loss_a.data, loss_b.data, rtol=0, atol=1e-12)
        assert grads_a.keys() == grads_b.keys()
        for k in grads_a:
            np.testing.assert_allclose(grads_a[k], grads_b[k], rtol=0, atol=1e-12)


def test_contraction_records_one_tape_op():
    tape = Tape()
    s = tape.param("s", np.zeros((2, 3)))
    lse_matmul_node(tape, s, tape.const(np.zeros((3, 4))))
    assert [rec[0] for rec in tape._records] == ["lse_matmul"]


def test_unitwise_logsumexp_shifts_each_row():
    # the second row sits 800 nats below the first; one batch-wide shift underflows it
    tape = Tape()
    x = tape.param("x", np.array([0.0, -800.0]))
    out = _logsumexp_list(tape, [x, x - 1.0])
    np.testing.assert_allclose(out.data, np.log1p(np.exp(-1.0)) + np.array([0.0, -800.0]), rtol=0, atol=1e-12)
    np.testing.assert_allclose(tape.backward(ad.reduce_sum(out))["x"], [1.0, 1.0], rtol=0, atol=1e-12)


def family_table(family, k, n, seed):
    """A squashed (n, I) parameter block: log-probabilities, a success probability, or (mu, log sigma)."""
    rng = np.random.default_rng(seed)
    if family == "categorical":
        logits = rng.normal(0.0, 1.0, (n, k))
        return logits - np.logaddexp.reduce(logits, axis=1, keepdims=True)
    if family == "binomial":
        return rng.uniform(0.1, 0.9, (n, 1))
    return np.column_stack([rng.normal(0.0, 1.0, n), rng.normal(0.0, 0.3, n)])


def composed_evidence(tape, table, family, k, x_col):
    """The evidence of fully observed cells as a composition of tape primitives."""
    if family == "categorical":
        return ad.gather(table, x_col.astype(np.intp), axis=1)
    if family == "binomial":
        comb = gammaln(k + 1) - gammaln(x_col + 1) - gammaln(k - x_col + 1)
        return tape.const(comb[None, :]) + tape.const(x_col[None, :]) * ad.log(table) + tape.const((k - x_col)[None, :]) * ad.log(tape.const(1.0) - table)
    mu = ad.gather(table, np.array([0]), axis=1)
    log_sigma = ad.gather(table, np.array([1]), axis=1)
    z = (tape.const(x_col[None, :]) - mu) * ad.exp(ad.neg(log_sigma))
    return tape.const(-0.5) * z * z - log_sigma - tape.const(0.5 * np.log(2.0 * np.pi))


def evidence_vjp(evidence, table, g):
    """Value and gradient of sum(g * evidence(table)) with respect to table."""
    tape = Tape()
    node = tape.param("t", table)
    loss = ad.reduce_sum(evidence(tape, node) * tape.const(g))
    return float(loss.data), tape.backward(loss)["t"]


class TestEvidenceOp:
    """``evidence_node`` is one tape op: forward ``evidence_rows``, closed-form backward per family."""

    def cells(self, family, k):
        table = family_table(family, k, 5, seed=1)
        x_col = with_missing(family_data(family, k, 12, 1, 2), seed=3)[:, 0]
        g = np.random.default_rng(4).normal(0.0, 1.0, (5, 12))
        return table, x_col, g

    @pytest.mark.parametrize("family, k", FAMILIES)
    def test_forward_is_evidence_rows(self, family, k):
        table, x_col, _ = self.cells(family, k)
        tape = Tape()
        out = evidence_node(tape, tape.param("t", table), family, k, x_col, var=2)
        np.testing.assert_array_equal(out.data, evidence_rows(table, family, k, x_col, var=2))
        assert [rec[0] for rec in tape._records] == ["evidence"]

    @pytest.mark.parametrize("family, k", FAMILIES)
    def test_vjp_matches_central_differences(self, family, k):
        table, x_col, g = self.cells(family, k)
        _, grad = evidence_vjp(lambda tape, t: evidence_node(tape, t, family, k, x_col), table, g)
        h = 1e-6
        numeric = np.zeros_like(table)
        for idx in np.ndindex(table.shape):
            up, down = table.copy(), table.copy()
            up[idx] += h
            down[idx] -= h
            numeric[idx] = np.sum(g * (evidence_rows(up, family, k, x_col) - evidence_rows(down, family, k, x_col))) / (2 * h)
        np.testing.assert_allclose(grad, numeric, rtol=1e-6, atol=1e-7)

    @pytest.mark.parametrize("family, k", FAMILIES)
    def test_vjp_matches_composition_on_observed_cells(self, family, k):
        table, x_col, g = self.cells(family, k)
        observed = ~np.isnan(x_col)
        assert 0 < observed.sum() < len(x_col)
        value, grad = evidence_vjp(lambda tape, t: evidence_node(tape, t, family, k, x_col), table, g)
        ref_value, ref_grad = evidence_vjp(lambda tape, t: composed_evidence(tape, t, family, k, x_col[observed]), table, g[:, observed])
        np.testing.assert_allclose(value, ref_value, rtol=0, atol=1e-12)
        np.testing.assert_allclose(grad, ref_grad, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("family, k", FAMILIES)
    def test_missing_cells_pass_no_gradient(self, family, k):
        table, x_col, g = self.cells(family, k)
        g[:, ~np.isnan(x_col)] = 0.0
        value, grad = evidence_vjp(lambda tape, t: evidence_node(tape, t, family, k, x_col), table, g)
        assert value == 0.0
        np.testing.assert_array_equal(grad, np.zeros_like(table))

    @pytest.mark.parametrize("family, k, value", [("categorical", 3, 3.0), ("binomial", 4, 1.5), ("gaussian", None, np.inf)])
    def test_out_of_support_names_the_variable(self, family, k, value):
        table, x_col, _ = self.cells(family, k)
        x_col[0] = value
        tape = Tape()
        with pytest.raises(ValueError, match="for variable 7"):
            evidence_node(tape, tape.param("t", table), family, k, x_col, var=7)
        tree = neural_tree((None, 0), (0, 1), family=family, k=k)
        nets = small_nets(tree, k=k, family=family)
        x = family_data(family, k, 4, 2, 0)
        x[2, 1] = value
        with pytest.raises(ValueError, match="for variable 1"):
            batch_loglik_node(tape, nets, nets.register(tape), make_rule("trapezoidal", 4, -1.0, 1.0), x)

    def test_one_evidence_record_per_observable(self):
        tree = neural_tree((None, 0, 0), (0, 1, 2, 2))
        nets = small_nets(tree, seed=5)
        tape = Tape()
        batch_loglik_node(tape, nets, nets.register(tape), make_rule("trapezoidal", 4, -1.0, 1.0), with_missing(family_data("categorical", 3, 6, 4, 5)))
        ops = [rec[0] for rec in tape._records]
        assert ops.count("evidence") == 4
        assert "gather" not in ops


class TestTrainingOnMissingCells:
    """25% of the cells are NaN: every trainer marginalizes them like inference does."""

    @pytest.mark.parametrize("family, k", [("binomial", 4), ("gaussian", None)])
    def test_pic_step_gradient_matches_dataset_nll(self, family, k):
        tree = neural_tree((None, 0, 0), (0, 1, 2, 2), family=family, k=k)
        nets = small_nets(tree, k=k, seed=7, family=family)
        rule = make_rule("trapezoidal", 5, -1.0, 1.0)
        x = with_missing(family_data(family, k, 16, 4, 8), seed=9)

        class Capture:
            def step(self, grads):
                self.grads = grads

        opt = Capture()
        loss = train_pic_step(nets, x, rule, opt)
        np.testing.assert_allclose(loss, dataset_nll(nets, rule, x), rtol=0, atol=1e-12)
        params = nets.param_arrays()
        rng = np.random.default_rng(10)
        direction = {name: rng.standard_normal(v.shape) for name, v in params.items()}
        analytic = sum(float(np.sum(opt.grads[name] * d)) for name, d in direction.items())
        saved = {name: v.copy() for name, v in params.items()}

        def nll_at(h):
            for name, v in params.items():
                v[...] = saved[name] + h * direction[name]
            return dataset_nll(nets, rule, x)

        eps = 1e-5
        numeric = (nll_at(eps) - nll_at(-eps)) / (2 * eps)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-6)

    @pytest.mark.parametrize("family, k", FAMILIES)
    def test_hclt_adam_loss_is_tensor_loglik(self, family, k):
        tree = neural_tree((None, 0, 0), (0, 1, 2, 2), family=family, k=k)
        tensors = HcltTensors.random(tree, n=4, family=family, num_states=k, seed=8)
        x = with_missing(family_data(family, k, 25, 4, 2), seed=5)
        expected = -tensors.loglik(x).mean()
        np.testing.assert_allclose(tensors.loglik(x), log_forward(tensors.to_circuit(), x), rtol=0, atol=1e-12)
        loss = hclt_adam_step(tensors, x, Adam(tensors.param_arrays(), TrainConfig(batch_size=25, n=4)))
        np.testing.assert_allclose(loss, expected, rtol=0, atol=1e-12)


def engine_callers(tree, x):
    """Every caller of the latent-tree engine that takes tree maps, as a thunk over the same maps.

    streamed_loglik reads its maps from a circuit, which always gives each
    latent a child; the circuit that used to reach it with the childless
    tree's maps declares a parent its nesting contradicts, and is tested
    with the other mismatches in test_materialize.py.
    """
    rule = make_rule("trapezoidal", 4, -1.0, 1.0)
    nets = small_nets(tree, seed=2)
    tensors = HcltTensors.random(tree, 4, "categorical", 3, seed=2)
    tape = Tape()
    obs_rows = [np.zeros((4, len(x))) for _ in tree.obs_parent]
    return {
        "latent_tree_loglik": lambda: latent_tree_loglik(tree.latent_parent, tree.obs_parent, tensors.sum_rows(), obs_rows),
        "batch_loglik_node": lambda: batch_loglik_node(tape, nets, nets.register(tape), rule, x),
        "dataset_nll": lambda: dataset_nll(nets, rule, x),
        "hclt_adam_step": lambda: hclt_adam_step(tensors, x, Adam(tensors.param_arrays(), TrainConfig())),
        "loglik": lambda: tensors.loglik(x),
    }


class TestEngineCallers:
    @pytest.mark.parametrize("caller", ["latent_tree_loglik", "batch_loglik_node", "dataset_nll", "hclt_adam_step", "loglik"])
    def test_childless_latent_raises_value_error(self, caller):
        tree = neural_tree((None, 0, 0), (0, 2))
        thunk = engine_callers(tree, np.zeros((3, 2)))[caller]
        with pytest.raises(ValueError, match="latent 1 has no children"):
            thunk()

    @pytest.mark.parametrize("caller", ["dataset_nll", "batch_loglik_node", "hclt_adam_step", "loglik"])
    def test_out_of_support_evidence_raises(self, caller):
        tree = neural_tree((None, 0), (0, 1))
        thunk = engine_callers(tree, np.array([[0.0, 1.0], [2.0, 3.0]]))[caller]
        with pytest.raises(ValueError, match=r"categorical\(3\) support"):
            thunk()


class TestTrainPic:
    def test_patience_zero_stops_at_first_flat_evaluation(self):
        tree = neural_tree((None,), (0,), k=2)
        nets = small_nets(tree, k=2, seed=0)
        train_x = np.zeros((16, 1))
        valid_x = np.ones((8, 1))
        config = TrainConfig(batch_size=8, n=8, max_steps=40, eval_interval=5, patience=0)
        result = train_pic(nets, train_x, valid_x, config)
        assert result.steps == 5
        assert len(result.history) == 2

    def test_best_checkpoint_restored_into_nets(self):
        tree = neural_tree((None,), (0, 0), k=2)
        nets = small_nets(tree, k=2, seed=5)
        rng = np.random.default_rng(3)
        train_x = rng.integers(0, 2, size=(32, 2)).astype(float)
        valid_x = rng.integers(0, 2, size=(16, 2)).astype(float)
        config = TrainConfig(batch_size=16, n=6, max_steps=30, eval_interval=10, patience=30)
        result = train_pic(nets, train_x, valid_x, config)
        rule = make_rule(config.rule_kind, config.n, -1.0, 1.0)
        np.testing.assert_allclose(dataset_nll(nets, rule, valid_x), result.best_valid_nll, rtol=0, atol=1e-12)

    def test_validation_improves_on_learnable_data(self):
        tree = neural_tree((None, 0), (0, 1), k=3)
        nets = small_nets(tree, seed=6)
        rng = np.random.default_rng(4)
        cols = rng.integers(0, 3, size=(80, 1)).astype(float)
        data = np.hstack([cols, cols])
        config = TrainConfig(batch_size=16, n=6, max_steps=60, eval_interval=20, patience=60)
        result = train_pic(nets, data[:64], data[64:], config)
        bpds = [h["valid_bpd"] for h in result.history]
        assert min(bpds[1:]) < bpds[0]
        assert result.history[0]["step"] == 0
        assert all(set(h) == {"step", "lr", "train_nll", "valid_bpd"} for h in result.history)

    def test_history_shorter_than_step_budget(self):
        tree = neural_tree((None,), (0,), k=2)
        nets = small_nets(tree, k=2, seed=0)
        x = np.zeros((8, 1))
        config = TrainConfig(batch_size=4, n=5, max_steps=20, eval_interval=5, patience=20)
        result = train_pic(nets, x, x, config)
        assert len(result.history) <= config.max_steps
        assert result.steps <= config.max_steps


class TestCheckpointLoss:
    def test_loss_identical_after_save_and_load(self, tmp_path):
        tree = neural_tree((None, 0), (0, 1), k=3)
        nets = small_nets(tree, seed=9)
        rule = make_rule("trapezoidal", 6, -1.0, 1.0)
        rng = np.random.default_rng(1)
        x = rng.integers(0, 3, size=(20, 2)).astype(float)
        opt = Adam(nets.param_arrays(), TrainConfig(batch_size=20, n=6))
        for _ in range(3):
            train_pic_step(nets, x, rule, opt)
        reference = dataset_nll(nets, rule, x)
        path = tmp_path / "ckpt.json"
        save_checkpoint(nets, path)
        loaded = load_checkpoint(path)
        assert dataset_nll(loaded, rule, x) == reference


class TestEm:
    def test_two_component_update_matches_enumeration(self):
        pc, _ = two_component_mixture(prior=(0.3, 0.7))
        rows = np.array([[0, 0], [0, 1], [1, 0], [1, 1], [1, 1], [0, 1]], dtype=float)
        pc = copy_circuit(pc)
        mean_ll = em_step(pc, rows, eta=1.0)

        posts = []
        lls = []
        for row in rows:
            total, parts = mixture_density(row, (0.3, 0.7))
            posts.append(np.array(parts) / total)
            lls.append(np.log(total))
        theta_hat = np.mean(posts, axis=0)
        np.testing.assert_allclose(np.exp(pc.units[pc.root].weights), theta_hat, rtol=1e-12)
        np.testing.assert_allclose(mean_ll, np.mean(lls), rtol=1e-12)

    def test_partial_step_interpolates_old_and_new(self):
        pc, _ = two_component_mixture(prior=(0.3, 0.7))
        rows = np.array([[1, 1], [0, 0], [1, 0]], dtype=float)
        full = copy_circuit(pc)
        em_step(full, rows, eta=1.0)
        theta_hat = np.exp(full.units[full.root].weights)
        half = copy_circuit(pc)
        em_step(half, rows, eta=0.5)
        expected = 0.5 * np.array([0.3, 0.7]) + 0.5 * theta_hat
        np.testing.assert_allclose(np.exp(half.units[half.root].weights), expected, rtol=1e-12)

    def test_full_batch_em_is_monotone(self):
        tree = neural_tree((None, 0), (0, 0, 1), k=2)
        tensors = HcltTensors.random(tree, n=3, family="categorical", num_states=2, seed=11)
        pc = copy_circuit(tensors.to_circuit())
        data = em_toy_data(num_rows=120, seed=5)
        data = np.hstack([data, data[:, :1]])
        lls = [em_step(pc, data, eta=1.0) for _ in range(20)]
        assert np.all(np.diff(lls) >= -1e-10)

    def test_weights_stay_normalized(self):
        tree = neural_tree((None, 0), (0, 1), k=2)
        tensors = HcltTensors.random(tree, n=4, family="categorical", num_states=2, seed=2)
        data = em_toy_data(num_rows=60, seed=9)
        config = TrainConfig(batch_size=16, n=4, max_steps=40, eval_interval=40, patience=40, lr_max=0.5, lr_min=0.05)
        result = train_hclt_em(tensors, data, data, config)
        assert result.history[-1]["step"] == 40
        # EM stores log theta, so the raw logits themselves are normalized rows
        for logits in tensors.sum_logits:
            m = logits.max(axis=1, keepdims=True)
            assert np.all(np.abs(m[:, 0] + np.log(np.exp(logits - m).sum(axis=1))) < 1e-9)

    @pytest.mark.filterwarnings("ignore:divide by zero")
    def test_zero_flow_keeps_old_weights(self):
        builder = CircuitBuilder()

        def leaf(var, p1):
            dist = InputDist("categorical", num_states=2, params=np.log([1 - p1, p1]))
            return builder.add_input(var, dist)

        inner = builder.add_sum([leaf(0, 0.4), leaf(0, 0.9)], np.log([0.5, 0.5]))
        dead = builder.add_product([inner, leaf(1, 0.5)])
        alive = builder.add_product([leaf(0, 0.3), leaf(1, 0.7)])
        root = builder.add_sum([dead, alive], np.array([-np.inf, 0.0]))
        pc = copy_circuit(builder.finish(root=root))
        inner_before = pc.units[inner].weights.copy()
        rows = np.array([[0, 1], [1, 0]], dtype=float)
        em_step(pc, rows, eta=1.0)
        np.testing.assert_array_equal(pc.units[inner].weights, inner_before)
        np.testing.assert_allclose(np.exp(pc.units[root].weights), [0.0, 1.0], atol=1e-15)

    def test_input_leaves_never_move(self):
        pc, _ = two_component_mixture()
        pc = copy_circuit(pc)
        before = [u.dist.params.copy() for u in pc.units if u.kind == "input"]
        em_step(pc, np.array([[1, 0], [0, 1]], dtype=float), eta=1.0)
        after = [u.dist.params for u in pc.units if u.kind == "input"]
        for a, b in zip(after, before):
            np.testing.assert_array_equal(a, b)

    def test_minibatch_converges_to_full_batch_solution(self):
        tree = neural_tree((None,), (0, 0), k=2)
        data = em_toy_data(num_rows=200, seed=7)

        full = HcltTensors.random(tree, n=2, family="categorical", num_states=2, seed=11)
        for _ in range(300):
            hclt_em_step(full, data, eta=1.0)
        mini = HcltTensors.random(tree, n=2, family="categorical", num_states=2, seed=11)
        config_mini = TrainConfig(
            batch_size=32, n=2, max_steps=800, eval_interval=800, patience=800,
            lr_max=0.5, lr_min=0.02, restart_period=200,
        )
        train_hclt_em(mini, data, data, config_mini)
        gap = abs(full.loglik(data).mean() - mini.loglik(data).mean())
        assert gap < 1e-3

    def test_input_blocks_unchanged_by_training(self):
        tree = neural_tree((None, 0), (0, 0, 1), k=2)
        tensors = HcltTensors.random(tree, n=3, family="categorical", num_states=2, seed=4, scale=1.0)
        before = [raw.copy() for raw in tensors.input_raw]
        data = np.hstack([em_toy_data(num_rows=30, seed=1), em_toy_data(num_rows=30, seed=2)[:, :1]])
        config = TrainConfig(batch_size=64, n=3, max_steps=10, eval_interval=5, patience=10)
        train_hclt_em(tensors, data, data, config)
        for raw, old in zip(tensors.input_raw, before):
            np.testing.assert_array_equal(raw, old)


class TestHcltEm:
    """One engine EM step against ``em_step`` on the exported circuit."""

    def check_against_oracle(self, tensors, x, eta):
        pc = copy_circuit(tensors.to_circuit())
        np.testing.assert_allclose(tensors.loglik(x), log_forward(pc, x), rtol=0, atol=1e-12)
        raw_before = [raw.copy() for raw in tensors.input_raw]
        expected = -em_step(pc, x, eta)
        loss = hclt_em_step(tensors, x, eta)
        np.testing.assert_allclose(loss, expected, rtol=0, atol=1e-12)
        np.testing.assert_allclose(log_forward(tensors.to_circuit(), x), log_forward(pc, x), rtol=0, atol=1e-12)
        for raw, old in zip(tensors.input_raw, raw_before):
            np.testing.assert_array_equal(raw, old)

    @pytest.mark.parametrize("family, k", [("categorical", 3), ("binomial", 4), ("gaussian", None)])
    def test_matches_em_step_oracle(self, family, k):
        tree = neural_tree((None, 0, 0, 1), (0, 1, 2, 2, 3, 3), family=family, k=k)
        tensors = HcltTensors.random(tree, n=4, family=family, num_states=k, seed=6, scale=1.0)
        self.check_against_oracle(tensors, family_data(family, k, 40, 6, 3), eta=0.7)

    @pytest.mark.parametrize("family, k", FAMILIES)
    def test_missing_cells_match_em_step_oracle(self, family, k):
        tree = neural_tree((None, 0, 0, 1), (0, 1, 2, 2, 3, 3), family=family, k=k)
        tensors = HcltTensors.random(tree, n=4, family=family, num_states=k, seed=7, scale=1.0)
        self.check_against_oracle(tensors, with_missing(family_data(family, k, 40, 6, 4), seed=6), eta=0.7)

    @pytest.mark.filterwarnings("ignore:divide by zero")
    def test_zero_flow_row_keeps_its_weights(self):
        # a -inf root logit sends no flow into row 1 of both child latents
        tree = neural_tree((None, 0, 0), (0, 1, 2, 2), k=3)
        tensors = HcltTensors.random(tree, n=3, family="categorical", num_states=3, seed=9, scale=1.0)
        tensors.sum_logits[0][0, 1] = -np.inf
        dead = [tensors.sum_logits[i][1].copy() for i in (1, 2)]
        self.check_against_oracle(tensors, family_data("categorical", 3, 30, 4, 5), eta=1.0)
        for i, row in zip((1, 2), dead):
            np.testing.assert_array_equal(tensors.sum_logits[i][1], row)
        assert tensors.sum_logits[0][0, 1] == -np.inf

    def test_peaky_tensors_match_oracle(self):
        # sum rows and input tables at -800 off permuted diagonals: the row and
        # column maxima of each contraction sit at different k
        def peaky():
            def block(perm):
                out = np.full((3, 3), -800.0)
                out[np.arange(3), perm] = 0.0
                return out

            return HcltTensors(
                (None, 0), (0, 1, 1), [np.zeros((1, 3)), block([1, 2, 0])],
                [block([0, 1, 2]), block([2, 0, 1]), block([1, 0, 2])], "categorical", 3,
            )

        x = np.array([[0, 0, 0], [1, 2, 1], [2, 1, 0], [0, 2, 2], [1, 0, 0]], dtype=float)
        self.check_against_oracle(peaky(), x, eta=0.5)
        tensors = peaky()
        opt = Adam(tensors.param_arrays(), TrainConfig())
        assert np.isfinite(hclt_adam_step(tensors, x, opt))
        # after one step Adam's first moment is (1 - beta1) times the gradient
        assert all(np.isfinite(m).all() for m in opt.m.values())

    def test_full_batch_em_is_monotone(self):
        tree = neural_tree((None, 0), (0, 0, 1), k=2)
        tensors = HcltTensors.random(tree, n=3, family="categorical", num_states=2, seed=11)
        data = em_toy_data(num_rows=120, seed=5)
        data = np.hstack([data, data[:, :1]])
        nlls = [hclt_em_step(tensors, data, eta=1.0) for _ in range(20)]
        assert np.all(np.diff(nlls) <= 1e-10)


class TestHcltAdam:
    @pytest.mark.parametrize("family, k", [("categorical", 3), ("binomial", 4), ("gaussian", None)])
    def test_tensor_loglik_matches_explicit_circuit(self, family, k):
        tree = neural_tree((None, 0, 0), (0, 1, 2, 2), family=family, k=k)
        tensors = HcltTensors.random(tree, n=4, family=family, num_states=k, seed=8)
        x = family_data(family, k, 25, 4, 2)
        loglik = tensors.loglik(x)
        np.testing.assert_allclose(loglik, log_forward(tensors.to_circuit(), x), rtol=0, atol=1e-12)
        # The tape step squashes the same raw blocks, so its loss is the pre-update mean NLL.
        loss = hclt_adam_step(tensors, x, Adam(tensors.param_arrays(), TrainConfig(batch_size=25, n=4)))
        assert np.isfinite(loss)
        np.testing.assert_allclose(loss, -loglik.mean(), rtol=0, atol=1e-12)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("step", ["hclt_adam_step", "hclt_em_step"])
    def test_nonfinite_loss_aborts_before_update(self, step):
        # log sigma = -800 makes every gaussian density of observable 0 degenerate
        tensors = HcltTensors.random(neural_tree((None, 0), (0, 1), family="gaussian", k=None), n=4, family="gaussian", seed=0)
        tensors.input_raw[0][:, 1] = -800.0
        snapshot = {k: v.copy() for k, v in tensors.param_arrays().items()}
        opt = Adam(tensors.param_arrays(), TrainConfig(batch_size=2, n=4))
        take = {"hclt_adam_step": lambda b: hclt_adam_step(tensors, b, opt), "hclt_em_step": lambda b: hclt_em_step(tensors, b, 0.5)}[step]
        with pytest.raises(NumericError, match="batch row 0"):
            take(np.array([[1.0, 0.0], [2.0, 1.0]]))
        for k, v in tensors.param_arrays().items():
            np.testing.assert_array_equal(v, snapshot[k])
        assert opt.t == 0

    @pytest.mark.parametrize("family, k", [("categorical", 3), ("binomial", 4), ("gaussian", None)])
    def test_export_is_the_static_qpc_of_its_tree(self, family, k):
        tree = neural_tree((None, 0, 0, 1), (0, 1, 2, 2, 3), family=family, k=k)
        tensors = HcltTensors.random(tree, n=5, family=family, num_states=k, seed=9)
        rule = make_rule("gauss_legendre", 5, -1.0, 1.0)
        sp = SumParamTensor(s=np.stack([np.broadcast_to(r, (5, 5)) for r in tensors.sum_rows()]), z=rule.points, w=rule.weights)
        ip = InputParamTensor(table=np.stack(tensors.input_tables()), z=rule.points, family=family, num_states=k)
        assert structurally_equal(tensors.to_circuit(), materialize_qpc(bn_to_pic(tree), rule, (sp, ip)))

    def test_training_improves_fit(self):
        tree = neural_tree((None,), (0, 0), k=2)
        tensors = HcltTensors.random(tree, n=2, family="categorical", num_states=2, seed=5)
        data = em_toy_data(num_rows=400, seed=3)
        config = TrainConfig(
            batch_size=64, n=2, max_steps=300, eval_interval=50, patience=300,
            lr_max=0.1, lr_min=1e-3, restart_period=100,
        )
        result = train_hclt_adam(tensors, data[:320], data[320:], config)
        bpds = [h["valid_bpd"] for h in result.history]
        assert min(bpds[1:]) < bpds[0]

    def test_sum_rows_normalized_by_construction(self):
        tree = neural_tree((None, 0), (0, 1), k=2)
        tensors = HcltTensors.random(tree, n=5, family="categorical", num_states=2, seed=0)
        data = em_toy_data(num_rows=40, seed=0)
        opt = Adam(tensors.param_arrays(), TrainConfig(batch_size=40, n=5))
        for _ in range(4):
            hclt_adam_step(tensors, data, opt)
        for rows in tensors.sum_rows():
            np.testing.assert_allclose(np.logaddexp.reduce(rows, axis=1), 0.0, atol=1e-12)


def tape_calls(forward_only):
    """Thunks over a small 3-latent model: every forward-only evaluation, plus the steps when asked."""
    tree = neural_tree((None, 0, 0), (0, 1, 2, 2))
    pic = bn_to_pic(tree)
    rule = make_rule("trapezoidal", 4, -1.0, 1.0)
    nets = small_nets(tree, seed=5)
    x = family_data("categorical", 3, 6, 4, 5)
    tensors = HcltTensors.random(tree, 4, "categorical", 3, seed=5)
    calls = {
        "materialize_sum_params": lambda: materialize_sum_params(nets, rule.points, rule.weights),
        "materialize_input_params": lambda: materialize_input_params(nets, rule.points),
        "dataset_nll": lambda: dataset_nll(nets, rule, x),
        "streamed_loglik": lambda: streamed_loglik(pic, rule, nets, x),
        "energy_forward": lambda: energy_forward(nets.energy[1], 0.25, -0.5),
        "decoder_forward": lambda: decoder_forward(nets.decoder[0], 0.25),
        "materialize_nested": lambda: materialize_nested(pic, lambda latent, parent_value: rule, nets),
        "hclt_loglik": lambda: tensors.loglik(x),
    }
    if not forward_only:
        calls["train_pic_step"] = lambda: train_pic_step(nets, x, rule, Adam(nets.param_arrays(), TrainConfig()))
        calls["hclt_adam_step"] = lambda: hclt_adam_step(tensors, x, Adam(tensors.param_arrays(), TrainConfig()))
        calls["hclt_em_step"] = lambda: hclt_em_step(tensors, x, 0.5)
    return calls


class TestTapeLifetime:
    """A tape holds no node, so reference counting frees it; forward-only passes record nothing."""

    @pytest.mark.parametrize("name", list(tape_calls(forward_only=False)))
    def test_no_tape_outlives_the_call(self, name, monkeypatch):
        thunk = tape_calls(forward_only=False)[name]
        live = weakref.WeakSet()
        init = Tape.__init__

        def tracked_init(tape):
            init(tape)
            live.add(tape)

        monkeypatch.setattr(Tape, "__init__", tracked_init)
        gc.disable()
        try:
            thunk()
            assert len(live) == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("name", list(tape_calls(forward_only=True)))
    def test_forward_only_records_nothing(self, name, monkeypatch):
        thunk = tape_calls(forward_only=True)[name]
        recorded = []
        record = Tape.record

        def counting_record(tape, op_name, out_data, inputs, ctx):
            if any(inp.needs_grad for inp in inputs):
                recorded.append(op_name)
            return record(tape, op_name, out_data, inputs, ctx)

        monkeypatch.setattr(Tape, "record", counting_record)
        thunk()
        assert recorded == []
