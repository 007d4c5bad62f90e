"""Linear-Gaussian models: closed forms vs independent numerical oracles."""

import numpy as np
import pytest
from scipy.stats import multivariate_normal, norm

from picirc.circuit import check_structure, deserialize, serialize
from picirc.errors import NumericError
from picirc.gaussian import (
    LinearGaussianLTM,
    domain_rules,
    exact_loglik,
    model_from_pic,
    qpc_loglik,
    random_model,
    sample,
    sanity_check,
    sanity_mse,
    to_pic,
)
from picirc.materialize import materialize_qpc
from picirc.quadrature import make_rule
from picirc.runtime import log_forward
from reference import joint_gaussian


def single_pair_model(a0=0.0, mu1=0.0, sigma1=1.0, c=1.0, d=0.0, tau=1.0):
    return LinearGaussianLTM(
        latent_parent=(None,),
        obs_parent=(0,),
        a=np.array([a0]),
        b=np.array([mu1]),
        sigma=np.array([sigma1]),
        c=np.array([c]),
        d=np.array([d]),
        tau=np.array([tau]),
    )


def two_latent_model():
    return LinearGaussianLTM(
        latent_parent=(None, 0),
        obs_parent=(0, 1),
        a=np.array([0.0, 0.7]),
        b=np.array([0.3, 0.2]),
        sigma=np.array([1.0, 0.9]),
        c=np.array([1.3, -0.8]),
        d=np.array([0.1, -0.2]),
        tau=np.array([0.8, 1.2]),
    )


class TestExactLoglik:
    def test_shallow_model_closed_form(self):
        # X = 2 Z + 1 + noise with Z standard normal: X ~ N(1, 5)
        model = single_pair_model(c=2.0, d=1.0, tau=1.0)
        got = exact_loglik(model, np.array([1.0]))
        assert got == pytest.approx(-0.5 * np.log(10 * np.pi), abs=1e-12)
        assert got == pytest.approx(norm(1.0, np.sqrt(5.0)).logpdf(1.0), abs=1e-12)

    def test_matches_multivariate_normal_oracle(self):
        for seed in range(5):
            model = random_model(12, seed)
            x = sample(model, 50, seed + 100)
            mean, cov = joint_gaussian(model)
            want = multivariate_normal(mean, cov).logpdf(x)
            got = exact_loglik(model, x)
            np.testing.assert_allclose(got, want, atol=1e-9, rtol=1e-9)

    def test_two_latent_model_vs_riemann_grid(self):
        model = two_latent_model()
        rng = np.random.default_rng(0)
        xs = sample(model, 4, 1)
        z = np.linspace(-12.0, 12.0, 1501)
        w = np.full(z.shape, z[1] - z[0])
        w[0] = w[-1] = w[0] / 2
        prior = norm(model.b[0], model.sigma[0]).pdf(z)
        trans = norm.pdf(z[None, :], model.a[1] * z[:, None] + model.b[1], model.sigma[1])
        for x in xs:
            like0 = norm.pdf(x[0], model.c[0] * z + model.d[0], model.tau[0])
            like1 = norm.pdf(x[1], model.c[1] * z + model.d[1], model.tau[1])
            val = (w * prior * like0) @ trans @ (w * like1)
            assert exact_loglik(model, x) == pytest.approx(np.log(val), abs=1e-4)

    def test_batch_equals_per_row(self):
        model = random_model(16, 3)
        x = sample(model, 8, 4)
        batch = exact_loglik(model, x)
        rows = np.array([exact_loglik(model, xi) for xi in x])
        np.testing.assert_allclose(batch, rows, atol=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_nan_cells_are_marginalized_in_closed_form(self, seed):
        model = random_model(12, seed)
        x = sample(model, 40, seed + 7)
        x[np.random.default_rng(seed).random(x.shape) < 0.4] = np.nan
        x[0] = np.nan
        x[1] = sample(model, 1, seed + 8)[0]
        mean, cov = joint_gaussian(model)
        want = []
        for row in x:
            seen = ~np.isnan(row)
            want.append(multivariate_normal(mean[seen], cov[np.ix_(seen, seen)]).logpdf(row[seen]) if seen.any() else 0.0)
        got = exact_loglik(model, x)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
        # a row's arithmetic does not depend on the NaN cells of the others
        full = ~np.isnan(x).any(axis=1)
        np.testing.assert_array_equal(got[full], exact_loglik(model, x[full]))

    def test_covariance_entries_from_recursion(self):
        # obs 0 sits at the root latent: its variance is c^2 sigma1^2 + tau^2
        model = two_latent_model()
        _, cov = joint_gaussian(model)
        assert cov[0, 0] == pytest.approx(model.c[0] ** 2 * model.sigma[0] ** 2 + model.tau[0] ** 2)
        # cross term: c0 c1 a1 sigma1^2
        assert cov[0, 1] == pytest.approx(model.c[0] * model.c[1] * model.a[1] * model.sigma[0] ** 2)


class TestSampling:
    def test_variance_of_shallow_model(self):
        model = single_pair_model()
        x = sample(model, 100_000, 7)
        assert 1.9 <= x.var() <= 2.1

    def test_degenerate_latent_noise_means(self):
        # a = 0 everywhere: every observable has mean c*b_parent + d
        model = two_latent_model()
        model = LinearGaussianLTM(
            model.latent_parent,
            model.obs_parent,
            a=np.zeros(2),
            b=model.b,
            sigma=model.sigma,
            c=model.c,
            d=model.d,
            tau=model.tau,
        )
        x = sample(model, 200_000, 8)
        want = model.c * model.b + model.d
        np.testing.assert_allclose(x.mean(axis=0), want, atol=0.02)

    def test_empirical_covariance_within_three_se(self):
        model = random_model(16, 11)
        n = 40_000
        x = sample(model, n, 12)
        mean, cov = joint_gaussian(model)
        emp = np.cov(x.T)
        se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / n)
        assert np.all(np.abs(emp - cov) <= 3 * se)
        mean_se = np.sqrt(np.diag(cov) / n)
        assert np.all(np.abs(x.mean(axis=0) - mean) <= 3 * mean_se)

    def test_deterministic_under_seed(self):
        model = random_model(8, 0)
        np.testing.assert_array_equal(sample(model, 10, 5), sample(model, 10, 5))


class TestDomains:
    def test_root_window(self):
        model = single_pair_model(mu1=0.0, sigma1=1.0)
        assert domain_rules(model, 8)[0].domain == (-3.0, 3.0)

    def test_unlinked_child_window(self):
        model = two_latent_model()
        model = LinearGaussianLTM(
            model.latent_parent,
            model.obs_parent,
            a=np.array([0.0, 0.0]),
            b=np.array([0.3, 0.2]),
            sigma=np.array([1.0, 0.9]),
            c=model.c,
            d=model.d,
            tau=model.tau,
        )
        lo, hi = domain_rules(model, 16)[1].domain
        assert (lo, hi) == pytest.approx((0.2 - 2.7, 0.2 + 2.7))

    def test_expanding_child_window(self):
        model = LinearGaussianLTM(
            latent_parent=(None, 0),
            obs_parent=(0, 1),
            a=np.array([0.0, 2.0]),
            b=np.array([0.0, 0.0]),
            sigma=np.array([1.0, 1.0]),
            c=np.array([1.0, 1.0]),
            d=np.array([0.0, 0.0]),
            tau=np.array([1.0, 1.0]),
        )
        # trapezoid points include the parent's endpoints -3 and 3
        assert domain_rules(model, 8, "trapezoidal")[1].domain == pytest.approx((-9.0, 9.0))

    def test_margin_invariant(self):
        # child windows are the parent points' images widened by k(N) sigma
        for n in (16, 512):
            k = max(3.0, norm.isf(0.5 * n**-1.5))
            for seed in range(5):
                model = random_model(16, seed)
                rules = domain_rules(model, n)
                for i in range(model.num_latents):
                    p = model.latent_parent[i]
                    if p is None:
                        continue
                    images = model.a[i] * rules[p].points + model.b[i]
                    lo, hi = rules[i].domain
                    assert lo == pytest.approx(images.min() - k * model.sigma[i], abs=1e-12)
                    assert hi == pytest.approx(images.max() + k * model.sigma[i], abs=1e-12)

    def test_margin_rule(self):
        # k(N) = max(3, -ndtri(N^-1.5 / 2)): exactly 3 sigma up to N = 32,
        # then wide enough that each window cuts off at most N^-1.5 of its mass
        model = single_pair_model(mu1=0.4, sigma1=0.7)
        for n in (2, 8, 16, 32):
            assert domain_rules(model, n)[0].domain == (0.4 - 3 * 0.7, 0.4 + 3 * 0.7)
        lo, hi = domain_rules(model, 512)[0].domain
        assert (lo + hi) / 2 == pytest.approx(0.4, abs=1e-12)
        k = (hi - lo) / (2 * 0.7)
        assert 2 * norm.sf(k) <= 512**-1.5 * (1 + 1e-9)
        assert 2 * norm.sf(k) == pytest.approx(512**-1.5, rel=1e-6)


class TestQpcApproximation:
    def test_single_latent_fused_path_vs_direct_sum(self):
        model = single_pair_model(mu1=0.4, sigma1=0.8, c=1.2, d=-0.3, tau=0.9)
        rule = domain_rules(model, 16)[0]
        x = np.array([[0.5], [-1.0], [2.0]])
        direct = []
        for xi in x[:, 0]:
            terms = (
                rule.weights
                * norm(model.b[0], model.sigma[0]).pdf(rule.points)
                * norm(model.c[0] * rule.points + model.d[0], model.tau[0]).pdf(xi)
            )
            direct.append(np.log(terms.sum()))
        np.testing.assert_allclose(qpc_loglik(model, {0: rule}, x), direct, atol=1e-12)

    def test_nan_cells_are_marginalized_as_in_log_forward(self):
        # the fused path once built its own evidence blocks and read a NaN cell as NaN
        model = random_model(4, 0)
        rules = domain_rules(model, 16)
        x = sample(model, 12, 1)
        x[0, 0] = x[3, 1] = x[5] = np.nan
        x[7:, 0] = np.nan
        got = qpc_loglik(model, rules, x)
        assert np.isfinite(got).all()
        np.testing.assert_allclose(got, log_forward(materialize_qpc(to_pic(model), rules), x), rtol=0, atol=1e-12)

    def test_converges_to_the_closed_form_on_nan_rows(self):
        model = random_model(12, 1)
        x = sample(model, 40, 8)
        x[np.random.default_rng(1).random(x.shape) < 0.4] = np.nan
        x[0] = np.nan
        exact = exact_loglik(model, x)
        errors = [np.abs(qpc_loglik(model, domain_rules(model, n), x) - exact).max() for n in (16, 64, 256)]
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 2e-3

    def test_two_level_fused_path_vs_nested_loops(self):
        model = two_latent_model()
        rules = domain_rules(model, 6)
        x = sample(model, 3, 9)
        got = qpc_loglik(model, rules, x)
        for r, xi in enumerate(x):
            total = 0.0
            for z0, w0 in zip(rules[0].points, rules[0].weights):
                inner = 0.0
                for z1, w1 in zip(rules[1].points, rules[1].weights):
                    inner += (
                        w1
                        * norm(model.a[1] * z0 + model.b[1], model.sigma[1]).pdf(z1)
                        * norm(model.c[1] * z1 + model.d[1], model.tau[1]).pdf(xi[1])
                    )
                total += (
                    w0
                    * norm(model.b[0], model.sigma[0]).pdf(z0)
                    * norm(model.c[0] * z0 + model.d[0], model.tau[0]).pdf(xi[0])
                    * inner
                )
            assert got[r] == pytest.approx(np.log(total), abs=1e-10)

    def test_mse_small_at_large_n(self):
        model = random_model(16, 21)
        x = sample(model, 200, 22)
        assert sanity_mse(model, x, 512) < 1e-3

    def test_mse_shrinks_with_n_on_average(self):
        mses = {n: [] for n in (32, 64, 128)}
        for seed in range(5):
            model = random_model(16, seed + 40)
            x = sample(model, 200, seed + 140)
            for n in mses:
                mses[n].append(sanity_mse(model, x, n))
        means = [np.mean(mses[n]) for n in (32, 64, 128)]
        assert means[1] <= means[0] * 1.05
        assert means[2] <= means[1] * 1.05

    def test_gauss_legendre_pipeline(self):
        # at N = 64 the error comes from the k(64) = 3.10 sigma domain truncation,
        # not the rule; it keeps shrinking as the windows widen with N
        model = two_latent_model()
        x = sample(model, 100, 33)
        assert sanity_mse(model, x, 64, kind="gauss_legendre") < 1e-3


class TestPicConversion:
    def test_structure_report(self):
        pic = to_pic(random_model(16, 2))
        rep = check_structure(pic)
        assert rep.smooth and rep.decomposable and rep.structured

    def test_round_trip_through_pic_json(self):
        model = random_model(10, 5)
        pic = deserialize(serialize(to_pic(model)))
        again = model_from_pic(pic)
        assert again.latent_parent == model.latent_parent
        assert again.obs_parent == model.obs_parent
        for field in ("a", "b", "sigma", "c", "d", "tau"):
            np.testing.assert_array_equal(getattr(again, field), getattr(model, field))

    def test_one_latent_pic_is_two_units(self):
        pic = to_pic(single_pair_model())
        assert len(pic.units) == 2


class TestSanityCheck:
    def test_row_grid(self):
        rows = sanity_check(num_models=2, num_nodes=8, num_samples=50, n_list=[16, 32], seed=0)
        assert [(r[0], r[1]) for r in rows] == [(0, 16), (0, 32), (1, 16), (1, 32)]

    def test_deterministic_and_worker_invariant(self):
        kwargs = dict(num_models=3, num_nodes=8, num_samples=40, n_list=[16], seed=5)
        a = sanity_check(**kwargs)
        b = sanity_check(**kwargs)
        c = sanity_check(workers=3, **kwargs)
        assert a == b == c


def test_model_validation():
    with pytest.raises(ValueError, match="positive"):
        LinearGaussianLTM(
            latent_parent=(None,),
            obs_parent=(0,),
            a=np.zeros(1),
            b=np.zeros(1),
            sigma=np.array([-1.0]),
            c=np.ones(1),
            d=np.zeros(1),
            tau=np.ones(1),
        ).validate()
    with pytest.raises(ValueError, match="even"):
        random_model(7, 0)


def test_exact_loglik_rejects_wrong_width():
    model = random_model(8, 0)
    with pytest.raises(ValueError, match="columns"):
        exact_loglik(model, np.zeros((3, 9)))
