"""Quadrature rules: frozen values, weight sums, convergence orders, oracles."""

import numpy as np
import pytest

from picirc.errors import NumericError
from picirc.quadrature import QuadratureRule, _legendre_nodes, integrate, make_rule


def poly_integral(coeffs, a, b):
    """Exact integral of sum_k coeffs[k] x^k over [a, b] via the antiderivative."""
    k = np.arange(len(coeffs))
    anti = np.asarray(coeffs) / (k + 1.0)
    powers_b = b ** (k + 1)
    powers_a = a ** (k + 1)
    return float(anti @ (powers_b - powers_a))


class TestMakeRule:
    def test_trapezoidal_three_points(self):
        rule = make_rule("trapezoidal", 3, -1.0, 1.0)
        np.testing.assert_allclose(rule.points, [-1.0, 0.0, 1.0])
        np.testing.assert_allclose(rule.weights, [0.5, 1.0, 0.5])

    def test_midpoint_two_points(self):
        rule = make_rule("midpoint", 2, -1.0, 1.0)
        np.testing.assert_allclose(rule.points, [-0.5, 0.5])
        np.testing.assert_allclose(rule.weights, [1.0, 1.0])

    def test_simpson_weights_pattern(self):
        rule = make_rule("simpson", 5, 0.0, 4.0)
        np.testing.assert_allclose(rule.weights, np.array([1, 4, 2, 4, 1]) / 3.0)

    def test_gauss_legendre_five_points(self):
        rule = make_rule("gauss_legendre", 5, -1.0, 1.0)
        assert abs(rule.weights.sum() - 2.0) < 1e-13
        np.testing.assert_allclose(rule.points, -rule.points[::-1], atol=1e-14)

    def test_gauss_legendre_three_point_closed_form(self):
        # roots of P_3 are 0 and +-sqrt(3/5), weights 8/9 and 5/9
        rule = make_rule("gauss_legendre", 3)
        np.testing.assert_allclose(rule.points, [-np.sqrt(0.6), 0.0, np.sqrt(0.6)], atol=1e-14)
        np.testing.assert_allclose(rule.weights, [5 / 9, 8 / 9, 5 / 9], atol=1e-14)

    def test_gauss_legendre_matches_numpy_oracle(self):
        for n in (1, 2, 5, 16, 64):
            rule = make_rule("gauss_legendre", n)
            x, w = np.polynomial.legendre.leggauss(n)
            np.testing.assert_allclose(rule.points, x, atol=1e-13)
            np.testing.assert_allclose(rule.weights, w, atol=1e-13)

    def test_weight_sum_equals_width(self):
        rng = np.random.default_rng(7)
        for kind in ("midpoint", "trapezoidal", "simpson"):
            for _ in range(20):
                a = rng.uniform(-5, 0)
                b = a + rng.uniform(0.1, 10)
                n = int(rng.integers(3, 40)) * 2 + 1
                rule = make_rule(kind, n, a, b)
                assert abs(rule.weights.sum() - (b - a)) < 1e-12 * (b - a)

    def test_points_increasing_and_inside_domain(self):
        for kind in ("midpoint", "trapezoidal", "simpson", "gauss_legendre"):
            rule = make_rule(kind, 33, -2.0, 3.0)
            assert np.all(np.diff(rule.points) > 0)
            assert rule.points[0] >= -2.0 and rule.points[-1] <= 3.0

    def test_argument_errors(self):
        with pytest.raises(ValueError):
            make_rule("simpson", 4)
        with pytest.raises(ValueError):
            make_rule("simpson", 1)
        with pytest.raises(ValueError):
            make_rule("midpoint", 0)
        with pytest.raises(ValueError):
            make_rule("trapezoidal", 1)
        with pytest.raises(ValueError):
            make_rule("midpoint", 4, 1.0, 1.0)
        with pytest.raises(ValueError):
            make_rule("midpoint", 4, 2.0, -2.0)
        with pytest.raises(ValueError):
            make_rule("lobatto", 4)


class TestIntegrate:
    def test_trapezoid_on_square(self):
        rule = make_rule("trapezoidal", 3, -1.0, 1.0)
        assert integrate(rule, lambda z: z * z) == pytest.approx(1.0)

    def test_simpson_exact_on_square(self):
        rule = make_rule("simpson", 3, -1.0, 1.0)
        assert integrate(rule, lambda z: z * z) == pytest.approx(2 / 3, abs=1e-15)

    def test_gauss_exact_to_degree_2n_minus_1(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3, 5, 8):
            rule = make_rule("gauss_legendre", n, -1.0, 1.0)
            coeffs = rng.uniform(-2, 2, size=2 * n)
            exact = poly_integral(coeffs, -1.0, 1.0)
            approx = integrate(rule, lambda z: np.polynomial.polynomial.polyval(z, coeffs))
            assert abs(approx - exact) < 1e-12 * max(1.0, abs(exact))

    def test_gauss_not_exact_beyond_degree(self):
        rule = make_rule("gauss_legendre", 2, -1.0, 1.0)
        coeffs = np.zeros(5)
        coeffs[4] = 1.0
        exact = poly_integral(coeffs, -1.0, 1.0)
        assert abs(integrate(rule, lambda z: z**4) - exact) > 1e-3

    def test_linearity(self):
        rule = make_rule("gauss_legendre", 7)
        f = np.exp
        g = np.sin
        lhs = integrate(rule, lambda z: 3.5 * f(z) + g(z))
        rhs = 3.5 * integrate(rule, f) + integrate(rule, g)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))

    def test_non_finite_integrand_raises(self):
        rule = make_rule("midpoint", 4, -1.0, 1.0)
        with pytest.raises(NumericError, match="-0.75"):
            integrate(rule, lambda z: np.inf if z < -0.5 else 1.0)


class TestConvergenceOrders:
    """Error ratio when doubling panel count; panels = points for midpoint,
    points - 1 for trapezoid/simpson (simpson needs odd point counts)."""

    exact = np.e - 1.0 / np.e

    def _error(self, kind, panels):
        pts = panels if kind == "midpoint" else panels + 1
        rule = make_rule(kind, pts, -1.0, 1.0)
        return abs(integrate(rule, np.exp) - self.exact)

    @pytest.mark.parametrize("kind", ["midpoint", "trapezoidal"])
    def test_second_order(self, kind):
        for panels in (8, 16, 32, 64, 128):
            ratio = self._error(kind, panels) / self._error(kind, 2 * panels)
            assert 3.5 <= ratio <= 4.5, (kind, panels, ratio)

    def test_simpson_fourth_order(self):
        for panels in (8, 16, 32, 64, 128):
            ratio = self._error("simpson", panels) / self._error("simpson", 2 * panels)
            assert 14 <= ratio <= 18, (panels, ratio)


def test_rule_is_frozen():
    rule = make_rule("midpoint", 4)
    assert isinstance(rule, QuadratureRule)
    with pytest.raises((AttributeError, TypeError)):
        rule.kind = "other"
    with pytest.raises(ValueError):
        rule.points[0] = 99.0


@pytest.mark.parametrize("n", [1, 2, 5, 64, 512])
def test_legendre_nodes_cached_read_only(n):
    x, w = _legendre_nodes(n)
    assert not x.flags.writeable and not w.flags.writeable
    assert _legendre_nodes(n)[0] is x and _legendre_nodes(n)[1] is w
    want_x, want_w = _legendre_nodes.__wrapped__(n)
    np.testing.assert_array_equal(x, want_x)
    np.testing.assert_array_equal(w, want_w)
    # rules on other domains are new arrays and leave the cached nodes alone
    rule = make_rule("gauss_legendre", n, -3.0, 5.0)
    assert rule.points is not x and not rule.points.flags.writeable
    np.testing.assert_array_equal(_legendre_nodes(n)[0], want_x)
