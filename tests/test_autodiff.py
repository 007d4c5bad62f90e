"""Tape engine: per-primitive gradient checks against central differences."""

import dataclasses

import numpy as np
import pytest
from scipy.special import logsumexp

from picirc import autodiff as ad
from picirc import gaussian
from picirc.autodiff import Tape
from picirc.runtime import upward_pass


def value_and_grads(build, params):
    tape, loss = build(params)
    return float(loss.data), tape.backward(loss)


def finite_diff(build, params, h=1e-4):
    grads = {}
    for name, val in params.items():
        g = np.zeros_like(val)
        flat = val.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fplus, _ = value_and_grads(build, params)
            flat[i] = orig - h
            fminus, _ = value_and_grads(build, params)
            flat[i] = orig
            gflat[i] = (fplus - fminus) / (2 * h)
        grads[name] = g
    return grads


def check_grads(build, params, tol=1e-4):
    _, got = value_and_grads(build, params)
    want = finite_diff(build, params)
    assert set(got) == set(want)
    for name in want:
        rel = np.abs(got[name] - want[name]) / np.maximum(1.0, np.abs(want[name]))
        assert rel.max() < tol, (name, rel.max())


def scalarize(tape, node, rng):
    """Project a tensor node to a scalar with a fixed random direction."""
    proj = tape.const(rng.uniform(-1, 1, size=node.shape))
    return ad.reduce_sum(ad.multiply(node, proj))


class TestPrimitiveGradients:
    def _check_unary(self, op, x0):
        rng = np.random.default_rng(0)

        def build(p):
            t = Tape()
            x = t.param("x", p["x"])
            return t, scalarize(t, op(x), np.random.default_rng(1))

        check_grads(build, {"x": np.asarray(x0, dtype=np.float64)})

    def test_exp(self):
        self._check_unary(ad.exp, [[0.3, -1.2], [1.5, 0.0]])

    def test_log(self):
        self._check_unary(ad.log, [[0.3, 1.2], [2.5, 4.0]])

    def test_softplus(self):
        self._check_unary(ad.softplus, [[-30.0, -1.2], [2.5, 30.0]])

    def test_sigmoid(self):
        self._check_unary(ad.sigmoid, [[-30.0, -1.2], [2.5, 30.0]])

    def test_tanh(self):
        self._check_unary(ad.tanh, [[-3.0, -1.2], [2.5, 3.0]])

    def test_neg(self):
        self._check_unary(ad.neg, [[1.0, -2.0]])

    def test_reshape(self):
        self._check_unary(lambda x: ad.reshape(x, (3, 2, 1)), [[1.0, -2.0, 0.5], [0.1, 4.0, -1.0]])

    def test_add_broadcast(self):
        def build(p):
            t = Tape()
            a = t.param("a", p["a"])
            b = t.param("b", p["b"])
            return t, scalarize(t, ad.add(a, b), np.random.default_rng(2))

        check_grads(build, {"a": np.ones((3, 4)), "b": np.arange(4.0)})

    def test_multiply_broadcast(self):
        def build(p):
            t = Tape()
            a = t.param("a", p["a"])
            b = t.param("b", p["b"])
            return t, scalarize(t, ad.multiply(a, b), np.random.default_rng(3))

        rng = np.random.default_rng(4)
        check_grads(build, {"a": rng.uniform(-1, 1, (2, 3, 4)), "b": rng.uniform(-1, 1, (3, 1))})

    @pytest.mark.parametrize(
        "sa,sb", [((3, 4), (4, 2)), ((3, 4), (4,)), ((3,), (3, 2)), ((3,), (3,))]
    )
    def test_matmul_shapes(self, sa, sb):
        rng = np.random.default_rng(5)

        def build(p):
            t = Tape()
            a = t.param("a", p["a"])
            b = t.param("b", p["b"])
            return t, scalarize(t, ad.matmul(a, b), np.random.default_rng(6))

        check_grads(build, {"a": rng.uniform(-1, 1, sa), "b": rng.uniform(-1, 1, sb)})

    @pytest.mark.parametrize("axis,keepdims", [(None, False), (0, False), (1, True), (2, False)])
    def test_logsumexp(self, axis, keepdims):
        rng = np.random.default_rng(7)

        def build(p):
            t = Tape()
            x = t.param("x", p["x"])
            out = ad.logsumexp(x, axis=axis, keepdims=keepdims)
            return t, scalarize(t, out, np.random.default_rng(8))

        check_grads(build, {"x": rng.uniform(-2, 2, (2, 3, 4))})

    def test_gather_with_duplicate_indices(self):
        rng = np.random.default_rng(9)

        def build(p):
            t = Tape()
            x = t.param("x", p["x"])
            out = ad.gather(x, np.array([0, 2, 2, 4]), axis=0)
            return t, scalarize(t, out, np.random.default_rng(10))

        check_grads(build, {"x": rng.uniform(-1, 1, (5, 3))})

    def test_gather_axis1(self):
        rng = np.random.default_rng(11)

        def build(p):
            t = Tape()
            x = t.param("x", p["x"])
            out = ad.gather(x, np.array([1, 1, 0]), axis=1)
            return t, scalarize(t, out, np.random.default_rng(12))

        check_grads(build, {"x": rng.uniform(-1, 1, (2, 3))})

    @pytest.mark.parametrize("axis,keepdims", [(None, False), (0, False), (1, True)])
    def test_reduce_sum(self, axis, keepdims):
        rng = np.random.default_rng(13)

        def build(p):
            t = Tape()
            x = t.param("x", p["x"])
            out = ad.reduce_sum(x, axis=axis, keepdims=keepdims)
            return t, scalarize(t, out, np.random.default_rng(14))

        check_grads(build, {"x": rng.uniform(-1, 1, (3, 4))})

    def test_mean(self):
        rng = np.random.default_rng(15)

        def build(p):
            t = Tape()
            x = t.param("x", p["x"])
            return t, ad.mean(x)

        check_grads(build, {"x": rng.uniform(-1, 1, (6,))})


class TestKnownIdentities:
    def test_linear_gradient_is_input(self):
        x = np.array([1.5, -2.0, 0.25])
        t = Tape()
        w = t.param("w", np.array([0.1, 0.2, 0.3]))
        loss = ad.reduce_sum(ad.multiply(w, t.const(x)))
        grads = t.backward(loss)
        np.testing.assert_allclose(grads["w"], x)

    def test_logsumexp_gradient_is_softmax(self):
        v = np.array([0.5, -1.0, 2.0, 0.0])
        t = Tape()
        w = t.param("v", v)
        grads = t.backward(ad.logsumexp(w))
        soft = np.exp(v) / np.exp(v).sum()
        np.testing.assert_allclose(grads["v"], soft, atol=1e-12)

    def test_logsumexp_all_neg_inf(self):
        t = Tape()
        x = t.const(np.full(3, -np.inf))
        out = ad.logsumexp(x)
        assert np.isneginf(out.data)

    def test_logsumexp_partial_neg_inf_grad(self):
        t = Tape()
        v = t.param("v", np.array([-np.inf, 0.0, 1.0]))
        grads = t.backward(ad.logsumexp(v))
        assert np.isfinite(grads["v"]).all()
        assert grads["v"][0] == 0.0

    def test_composed_net_gradcheck(self):
        rng = np.random.default_rng(18)
        params = {
            "w1": rng.normal(0, 0.5, (4, 5)),
            "b1": rng.normal(0, 0.5, 5),
            "w2": rng.normal(0, 0.5, (5, 1)),
        }
        x = rng.uniform(-1, 1, (7, 4))

        def build(p):
            t = Tape()
            w1 = t.param("w1", p["w1"])
            b1 = t.param("b1", p["b1"])
            w2 = t.param("w2", p["w2"])
            h = ad.tanh(ad.add(ad.matmul(t.const(x), w1), b1))
            out = ad.softplus(ad.matmul(h, w2))
            return t, ad.mean(ad.reshape(out, (7,)))

        check_grads(build, params)


def composed_dense(h, w, b, act):
    """The layer as separate ops: tanh(h @ w + b) = 2 sigmoid(2 (h @ w + b)) - 1."""
    tape = h.tape
    z = ad.add(ad.matmul(h, w), b)
    if not act:
        return z
    two = tape.const(2.0)
    return ad.add(ad.multiply(ad.sigmoid(ad.multiply(z, two)), two), tape.const(-1.0))


def dense_value_and_vjp(layer, arrays, act, h_grad):
    """Output of ``layer`` and the gradients of a fixed random projection of it."""
    tape = Tape()
    h = tape.param("h", arrays["h"]) if h_grad else tape.const(arrays["h"])
    out = layer(h, tape.param("w", arrays["w"]), tape.param("b", arrays["b"]), act)
    grads = tape.backward(scalarize(tape, out, np.random.default_rng(31)))
    return out.data, grads


class TestDense:
    @pytest.mark.parametrize("h_grad", [True, False], ids=["h-grad", "h-const"])
    @pytest.mark.parametrize("act", [True, False], ids=["tanh", "head"])
    def test_matches_the_composition(self, act, h_grad):
        rng = np.random.default_rng(30)
        arrays = {"h": rng.uniform(-1, 1, (9, 6)), "w": rng.normal(0, 1.5, (6, 4)), "b": rng.normal(0, 1, 4)}
        got, got_grads = dense_value_and_vjp(ad.dense, arrays, act, h_grad)
        want, want_grads = dense_value_and_vjp(composed_dense, arrays, act, h_grad)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert set(got_grads) == set(want_grads) == ({"h", "w", "b"} if h_grad else {"w", "b"})
        for name in want_grads:
            np.testing.assert_allclose(got_grads[name], want_grads[name], rtol=0, atol=1e-12)

    def test_gradcheck(self):
        rng = np.random.default_rng(32)

        def build(p):
            t = Tape()
            out = ad.dense(t.param("h", p["h"]), t.param("w", p["w"]), t.param("b", p["b"]), True)
            return t, scalarize(t, out, np.random.default_rng(33))

        check_grads(build, {"h": rng.uniform(-1, 1, (5, 3)), "w": rng.normal(0, 1, (3, 2)), "b": rng.normal(0, 1, 2)})

    def test_one_op_saving_its_input_weight_and_output(self):
        tape = Tape()
        h = tape.const(np.ones((3, 2)))
        out = ad.dense(h, tape.param("w", np.ones((2, 4))), tape.param("b", np.zeros(4)), True)
        ((op_name, _, in_idxs, ctx),) = tape._records
        assert op_name == "dense" and in_idxs[0] is None
        assert ctx[0] is h.data and ctx[2] is out.data


# Pre-activations across the whole float64 range of the squashes, the band
# where the sigmoid is subnormal included.
EXTREME = np.concatenate([[-800.0, -745.0, -720.0, -40.0, -5.0, 0.0, 5.0, 40.0, 720.0, 800.0], np.random.default_rng(34).uniform(-800, 800, 40)])


class TestSaturation:
    """No NaN, no floating-point warning, and zero gradient where the output sits at its bound."""

    @pytest.mark.parametrize(
        "op, bounds",
        [
            (ad.tanh, (-1.0, 1.0)),
            (ad.sigmoid, (0.0, 1.0)),
            (lambda x: ad.dense(x, x.tape.const(np.ones((1, 1))), x.tape.const(np.zeros(1)), True), (-1.0, 1.0)),
        ],
        ids=["tanh", "sigmoid", "dense"],
    )
    def test_extreme_pre_activations(self, op, bounds):
        with np.errstate(all="raise"):
            tape = Tape()
            out = op(tape.param("x", EXTREME[:, None]))
            grad = tape.backward(ad.reduce_sum(out))["x"]
        assert not np.isnan(out.data).any() and not np.isnan(grad).any()
        saturated = np.isin(out.data, bounds)
        assert saturated[[0, 9]].all()
        assert np.all(grad[saturated] == 0.0)
        assert np.all(grad[~saturated] > 0.0)


def dense_lse_matmul(a, b):
    """The exact contraction: logsumexp over k of a[j, k] + b[k, c], one cell at a time."""
    with np.errstate(invalid="ignore"):
        return logsumexp(a[:, :, None] + b[None], axis=1)


def dense_lse_matmul_vjp(a, b, g):
    """Exact vector-Jacobian product: per-cell weights exp(a[j, k] + b[k, c] - out[j, c])."""
    out = dense_lse_matmul(a, b)
    with np.errstate(invalid="ignore"):
        w = np.exp(a[:, :, None] + b[None] - out[:, None, :])
    w = np.where(np.isneginf(out)[:, None, :], 0.0, w)
    gw = g[:, None, :] * w
    return gw.sum(axis=2), gw.sum(axis=0)


def tape_lse_matmul(a, b, g):
    """Value of lse_matmul and its gradients for the upstream gradient g."""
    tape = Tape()
    out = ad.lse_matmul(tape.param("a", a), tape.param("b", b))
    with np.errstate(invalid="ignore"):
        loss = ad.reduce_sum(ad.multiply(out, tape.const(g)))
    grads = tape.backward(loss)
    return out.data, grads["a"], grads["b"]


def check_contraction(a, b, g):
    """Kernel, primitive and gradients against the dense exact contraction.

    assert_allclose requires -inf and NaN in the same cells, so no -inf
    may appear where the exact value is finite.
    """
    out, da, db = tape_lse_matmul(a, b, g)
    np.testing.assert_array_equal(ad._lse_matmul_data(a, b), out)
    np.testing.assert_allclose(out, dense_lse_matmul(a, b), rtol=0, atol=1e-12)
    want_da, want_db = dense_lse_matmul_vjp(a, b, g)
    np.testing.assert_allclose(da, want_da, rtol=0, atol=1e-12)
    np.testing.assert_allclose(db, want_db, rtol=0, atol=1e-12)


def lse_matmul_build(p):
    t = Tape()
    out = ad.lse_matmul(t.param("a", p["a"]), t.param("b", p["b"]))
    return t, scalarize(t, out, np.random.default_rng(21))


class TestLseMatmul:
    def test_misaligned_maxima(self):
        # the row max of a and the column max of b sit at different k
        a, b = np.array([[0.0, -800.0]]), np.array([[-800.0], [0.0]])
        out, da, db = tape_lse_matmul(a, b, np.ones((1, 1)))
        np.testing.assert_allclose(out, [[-799.3068528194401]], rtol=0, atol=1e-12)
        np.testing.assert_allclose(da, [[0.5, 0.5]], rtol=0, atol=1e-12)
        np.testing.assert_allclose(db, [[0.5], [0.5]], rtol=0, atol=1e-12)
        check_grads(lse_matmul_build, {"a": a, "b": b})

    @pytest.mark.parametrize("seed", range(8))
    def test_800_scale_with_scattered_neg_inf(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(25):
            j, k, c = rng.integers(1, 7, 3)
            a, b = rng.uniform(-800, 800, (j, k)), rng.uniform(-800, 800, (k, c))
            a[rng.random(a.shape) < 0.2] = -np.inf
            b[rng.random(b.shape) < 0.2] = -np.inf
            check_contraction(a, b, rng.normal(size=(j, c)))
            if np.isfinite(dense_lse_matmul(a, b)).all():
                check_grads(lse_matmul_build, {"a": a, "b": b})

    def test_neg_inf_rows_and_columns_keep_zero_gradient(self):
        rng = np.random.default_rng(3)
        a, b = rng.uniform(-800, 800, (3, 4)), rng.uniform(-800, 800, (4, 5))
        a[1] = -np.inf
        b[:, 2] = -np.inf
        out, da, db = tape_lse_matmul(a, b, rng.normal(size=(3, 5)))
        dead = np.zeros((3, 5), dtype=bool)
        dead[1] = dead[:, 2] = True
        np.testing.assert_array_equal(np.isneginf(out), dead)
        assert np.isfinite(out[~dead]).all()
        assert (da[1] == 0.0).all() and (db[:, 2] == 0.0).all()
        assert np.isfinite(da).all() and np.isfinite(db).all()
        check_contraction(a, b, rng.normal(size=(3, 5)))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_nan_propagates(self):
        rng = np.random.default_rng(4)
        a, b = rng.uniform(-800, 800, (3, 4)), rng.uniform(-800, 800, (4, 5))
        a[0, 1] = np.nan
        b[2, 3] = np.nan
        out, da, db = tape_lse_matmul(a, b, rng.normal(size=(3, 5)))
        assert np.isnan(out[0]).all() and np.isnan(out[:, 3]).all()
        assert np.isnan(da).any() and np.isnan(db).any()
        check_contraction(a, b, rng.normal(size=(3, 5)))

    @pytest.mark.parametrize("seed", [0, 2])
    def test_peaky_gaussian_contractions_at_n512(self, seed):
        # child and observation stddevs at a tenth of the root's scale make every
        # sum row and evidence block sharply peaked, with maxima misaligned
        model = gaussian.random_model(8, seed)
        model = dataclasses.replace(model, sigma=np.r_[model.sigma[:1], 0.1 * model.sigma[1:]], tau=0.1 * model.tau)
        x = gaussian.sample(model, 6, seed)
        sum_rows, obs_loglik = gaussian.gaussian_region_tensors(model, gaussian.domain_rules(model, 512), x)
        rng = np.random.default_rng(seed)

        def contract(i, acc):
            check_contraction(sum_rows[i], acc, rng.normal(size=(sum_rows[i].shape[0], acc.shape[1])))
            return ad._lse_matmul_data(sum_rows[i], acc)

        upward_pass(model.latent_parent, model.obs_parent, obs_loglik, contract)


class TestTapeContract:
    def test_unregistered_primitive_fails_loudly(self):
        t = Tape()
        x = t.param("x", np.ones(3))
        with pytest.raises(NotImplementedError, match="mystery"):
            t.record("mystery", x.data * 2, (x,), None)

    def test_non_scalar_loss_rejected(self):
        t = Tape()
        x = t.param("x", np.ones(3))
        with pytest.raises(ValueError, match="scalar"):
            t.backward(ad.multiply(x, x))

    def test_duplicate_param_name_rejected(self):
        t = Tape()
        t.param("x", np.ones(3))
        with pytest.raises(ValueError, match="already registered"):
            t.param("x", np.ones(3))

    def test_unused_param_gets_zero_gradient(self):
        t = Tape()
        used = t.param("used", np.array(2.0))
        t.param("unused", np.ones(4))
        grads = t.backward(ad.multiply(used, used))
        np.testing.assert_allclose(grads["unused"], np.zeros(4))
        assert grads["used"] == pytest.approx(4.0)

    def test_constants_never_in_gradient_map(self):
        t = Tape()
        w = t.param("w", np.array([1.0, 2.0]))
        c = t.const(np.array([3.0, 4.0]))
        grads = t.backward(ad.reduce_sum(ad.multiply(w, c)))
        assert set(grads) == {"w"}

    def test_operator_sugar(self):
        t = Tape()
        a = t.param("a", np.array(3.0))
        loss = a * 2.0 + 1.0 - a
        grads = t.backward(loss)
        assert grads["a"] == pytest.approx(1.0)
        assert loss.data == pytest.approx(4.0)

    def test_cross_tape_loss_rejected(self):
        t1, t2 = Tape(), Tape()
        x = t1.param("x", np.array(1.0))
        with pytest.raises(ValueError, match="different tape"):
            t2.backward(x)
