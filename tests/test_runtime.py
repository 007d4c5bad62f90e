"""Circuit evaluation: log_forward vs linear-space recursion, sampling, bpd."""

import math

import numpy as np
import pytest
from scipy import stats

from picirc.circuit import Circuit, CircuitBuilder, InputDist, Unit
from picirc.errors import UnsupportedStructureError
from picirc.runtime import benchmark_eval, bpd, evidence_rows, latent_tree_loglik, log_forward, marginal, sample_pc


def cat(probs):
    p = np.asarray(probs, dtype=np.float64)
    with np.errstate(divide="ignore"):
        return InputDist("categorical", num_states=len(p), params=np.log(p))


def linear_eval(circ, x):
    """Probability-space recursive evaluator; the independent oracle."""

    def val(uid):
        u = circ.units[uid]
        if u.kind == "input":
            v = x[u.var]
            if math.isnan(v):
                return 1.0
            d = u.dist
            if d.family == "categorical":
                return float(np.exp(d.params[int(v)]))
            if d.family == "binomial":
                k, p = d.num_states, d.params[0]
                return math.comb(k, int(v)) * p ** int(v) * (1 - p) ** (k - int(v))
            mu, log_sigma = d.params
            return float(stats.norm(mu, np.exp(log_sigma)).pdf(v))
        if u.kind == "product":
            out = 1.0
            for c in u.children:
                out *= val(c)
            return out
        return sum(np.exp(w) * val(c) for w, c in zip(u.weights, u.children))

    return math.log(val(circ.root))


def three_var_qpc(seed=0):
    """Mixture of products over three variables with random parameters."""
    rng = np.random.default_rng(seed)
    b = CircuitBuilder()
    products = []
    for _ in range(4):
        leaves = []
        for v in range(3):
            p = rng.dirichlet(np.ones(3))
            leaves.append(b.add_input(v, cat(p)))
        products.append(b.add_product(leaves))
    w = rng.dirichlet(np.ones(4))
    b.add_sum(products, np.log(w))
    return b.finish()


class TestLogForward:
    def test_single_categorical_unit(self):
        b = CircuitBuilder()
        b.add_input(0, cat([0.3, 0.7]))
        c = b.finish()
        assert log_forward(c, np.array([0.0])) == pytest.approx(np.log(0.3))

    def test_sum_of_identical_children(self):
        b = CircuitBuilder()
        i0 = b.add_input(0, cat([0.3, 0.7]))
        i1 = b.add_input(0, cat([0.3, 0.7]))
        b.add_sum([i0, i1], np.log([0.5, 0.5]))
        c = b.finish()
        assert log_forward(c, np.array([1.0])) == pytest.approx(np.log(0.7), abs=1e-14)

    def test_three_var_qpc_vs_linear_oracle(self):
        c = three_var_qpc()
        rng = np.random.default_rng(1)
        xs = rng.integers(0, 3, size=(20, 3)).astype(float)
        got = log_forward(c, xs)
        want = np.array([linear_eval(c, x) for x in xs])
        np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_binomial_and_gaussian_inputs_vs_scipy(self):
        b = CircuitBuilder()
        i0 = b.add_input(0, InputDist("binomial", num_states=7, params=np.array([0.3])))
        i1 = b.add_input(1, InputDist("gaussian", params=np.array([0.5, np.log(1.3)])))
        b.add_product([i0, i1])
        c = b.finish()
        x = np.array([4.0, -0.2])
        want = stats.binom(7, 0.3).logpmf(4) + stats.norm(0.5, 1.3).logpdf(-0.2)
        assert log_forward(c, x) == pytest.approx(want, abs=1e-12)

        # The same kernel on an (N, B) block of parameter rows, NaN cells marginalized.
        rng = np.random.default_rng(8)
        p = rng.uniform(0.05, 0.95, (5, 1))
        counts = np.array([0.0, 3.0, np.nan, 7.0, 5.0, np.nan])
        got = evidence_rows(p, "binomial", 7, counts, var=0)
        assert got.shape == (5, 6)
        seen = ~np.isnan(counts)
        np.testing.assert_allclose(got[:, seen], stats.binom(7, p).logpmf(counts[seen]), rtol=0, atol=1e-12)
        np.testing.assert_array_equal(got[:, ~seen], 0.0)
        # Row by row, as log_forward calls it, the kernel gives the same bits.
        np.testing.assert_array_equal(got, np.vstack([evidence_rows(p[j : j + 1], "binomial", 7, counts) for j in range(5)]))
        mu_logsigma = np.column_stack([rng.normal(0, 1, 5), rng.normal(0, 0.5, 5)])
        reals = np.array([np.nan, -0.2, 1.7, np.nan, 3.1, -2.5])
        got = evidence_rows(mu_logsigma, "gaussian", None, reals, var=1)
        seen = ~np.isnan(reals)
        want = stats.norm(mu_logsigma[:, :1], np.exp(mu_logsigma[:, 1:])).logpdf(reals[seen])
        np.testing.assert_allclose(got[:, seen], want, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(got[:, ~seen], 0.0)
        np.testing.assert_array_equal(got, np.vstack([evidence_rows(mu_logsigma[j : j + 1], "gaussian", None, reals) for j in range(5)]))

    def test_zero_probability_gives_neg_inf(self):
        b = CircuitBuilder()
        b.add_input(0, cat([1.0, 0.0]))
        c = b.finish()
        assert np.isneginf(log_forward(c, np.array([1.0])))

    def test_chunking_invariance(self):
        c = three_var_qpc(2)
        rng = np.random.default_rng(3)
        xs = rng.integers(0, 3, size=(11, 3)).astype(float)
        np.testing.assert_array_equal(log_forward(c, xs, chunk=2), log_forward(c, xs, chunk=4096))

    def test_unit_order_invariance(self):
        c = three_var_qpc(4)
        perm = np.random.default_rng(5).permutation(len(c.units) - 1)
        mapping = {old: new for new, old in enumerate(perm)}
        mapping[len(c.units) - 1] = len(c.units) - 1
        relabeled = [None] * len(c.units)
        for u in c.units:
            relabeled[mapping[u.uid]] = Unit(
                mapping[u.uid],
                u.kind,
                tuple(mapping[ch] for ch in u.children),
                u.scope,
                weights=u.weights,
                dist=u.dist,
            )
        c2 = Circuit(units=relabeled, root=mapping[c.root], num_vars=c.num_vars)
        c2.validate()
        xs = np.random.default_rng(6).integers(0, 3, size=(7, 3)).astype(float)
        np.testing.assert_allclose(log_forward(c, xs), log_forward(c2, xs), atol=1e-12)

    def test_out_of_support_evidence(self):
        b = CircuitBuilder()
        b.add_input(0, cat([0.25, 0.25, 0.25, 0.25]))
        c = b.finish()
        with pytest.raises(ValueError, match="support"):
            log_forward(c, np.array([4.0]))
        with pytest.raises(ValueError, match="support"):
            log_forward(c, np.array([0.5]))

    def test_symbolic_circuit_rejected(self):
        b = CircuitBuilder()
        i = b.add_input(0, InputDist("gaussian", conditional={"type": "linear-gaussian", "c": 1.0, "d": 0.0, "tau": 1.0}))
        b.add_integral(i, var=0, parent=None, cond={"type": "linear-gaussian", "a": 0.0, "b": 0.0, "sigma": 1.0})
        c = b.finish()
        with pytest.raises(UnsupportedStructureError, match="materialize"):
            log_forward(c, np.array([0.0]))


def tree_tensors(latent_parent, obs_parent):
    """Random sum rows and evidence blocks (3 points, 4 rows) for latent_tree_loglik."""
    rng = np.random.default_rng(0)
    sum_rows = [rng.normal(size=(1 if p is None else 3, 3)) for p in latent_parent]
    obs = [rng.normal(size=(3, 4)) for _ in obs_parent]
    return sum_rows, obs


class TestLatentTreeLoglik:
    @pytest.mark.parametrize(
        "latent_parent, obs_parent, message",
        [
            ((None, 2, 1), (0, 1, 2), "latent 1 is not reachable"),
            ((None, 5, 0), (0, 1, 2), "parent 5 out of range"),
            ((None, 0, 0), (0, 1, 3), "observable 2: parent latent 3 out of range"),
            ((None, 0, 0), (0, 1, -1), "observable 2: parent latent -1 out of range"),
        ],
    )
    def test_malformed_maps_raise(self, latent_parent, obs_parent, message):
        sum_rows, obs = tree_tensors(latent_parent, obs_parent)
        with pytest.raises(ValueError, match=message):
            latent_tree_loglik(latent_parent, obs_parent, sum_rows, obs)

    def test_evidence_list_must_match_observables(self):
        sum_rows, obs = tree_tensors((None,), (0, 0))
        with pytest.raises(ValueError):
            latent_tree_loglik((None,), (0, 0), sum_rows, obs[:1])


class TestMarginal:
    def test_all_marked_gives_zero_for_normalized(self):
        c = three_var_qpc(7)
        assert marginal(c, np.full(3, np.nan)) == pytest.approx(0.0, abs=1e-9)

    def test_one_variable_marked_matches_enumeration(self):
        c = three_var_qpc(8)
        ev = np.array([1.0, np.nan, 2.0])
        completions = []
        for v in range(3):
            filled = ev.copy()
            filled[1] = v
            completions.append(log_forward(c, filled))
        want = np.logaddexp.reduce(completions)
        assert marginal(c, ev) == pytest.approx(want, abs=1e-12)

    def test_no_marks_equals_log_forward(self):
        c = three_var_qpc(9)
        x = np.array([0.0, 1.0, 2.0])
        assert marginal(c, x) == log_forward(c, x)


class TestSamplePc:
    def test_single_input_unit_frequencies(self):
        b = CircuitBuilder()
        b.add_input(0, cat([0.2, 0.8]))
        c = b.finish()
        draws = sample_pc(c, 20_000, seed=0)
        assert draws.shape == (20_000, 1)
        assert abs(draws.mean() - 0.8) < 0.01

    def test_degenerate_mixture_always_first_component(self):
        b = CircuitBuilder()
        i0 = b.add_input(0, cat([1.0, 0.0]))
        i1 = b.add_input(0, cat([0.0, 1.0]))
        b.add_sum([i0, i1], [0.0, -np.inf])
        c = b.finish()
        draws = sample_pc(c, 500, seed=1)
        assert np.all(draws == 0.0)

    def test_toy_qpc_frequencies_within_multinomial_error(self):
        b = CircuitBuilder()
        pa = b.add_product([b.add_input(0, cat([0.9, 0.1])), b.add_input(1, cat([0.3, 0.7]))])
        pb = b.add_product([b.add_input(0, cat([0.2, 0.8])), b.add_input(1, cat([0.6, 0.4]))])
        b.add_sum([pa, pb], np.log([0.25, 0.75]))
        c = b.finish()
        n = 100_000
        draws = sample_pc(c, n, seed=2)
        for x0 in (0, 1):
            for x1 in (0, 1):
                p = np.exp(log_forward(c, np.array([float(x0), float(x1)])))
                freq = np.mean((draws[:, 0] == x0) & (draws[:, 1] == x1))
                assert abs(freq - p) <= 3 * np.sqrt(p * (1 - p) / n)

    def test_deterministic_under_seed(self):
        c = three_var_qpc(10)
        np.testing.assert_array_equal(sample_pc(c, 50, seed=3), sample_pc(c, 50, seed=3))


class TestBpd:
    def test_unit_conversion(self):
        assert bpd(-4 * np.log(2), 4) == pytest.approx(1.0)
        assert bpd(0.0, 13) == pytest.approx(0.0)
        assert bpd(-784 * 1.18 * np.log(2), 784) == pytest.approx(1.18)

    def test_rejects_no_variables(self):
        with pytest.raises(ValueError):
            bpd(-1.0, 0)


def test_benchmark_reports_throughput():
    c = three_var_qpc(11)
    batch = np.random.default_rng(12).integers(0, 3, size=(64, 3)).astype(float)
    report = benchmark_eval(c, batch, iters=3)
    assert report["times"].shape == (3,)
    assert report["edges_per_second"] > 0
    assert report["num_edges"] == c.num_edges
