"""Linear-Gaussian latent tree models with exact inference.

These models are the ground-truth oracle for approximation-quality
studies: the joint over the observables is Gaussian, so the exact
log-likelihood is available in closed form, while the same model can be
compiled into a symbolic integral circuit and approximated by quadrature.

Generative process: the root latent is N(mu1, sigma1^2); every other
latent is Z_i ~ N(a_i Z_pa(i) + b_i, sigma_i^2); every observable is
X_j ~ N(c_j Z_pa(j) + d_j, tau_j^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .circuit import Circuit
from .errors import NumericError
from .quadrature import QuadratureRule, make_rule
from .runtime import LOG_2PI, gaussian_logpdf, latent_tree_loglik
from .structures import LatentTree, bn_to_pic, top_down_order


@dataclass(frozen=True, eq=False)
class LinearGaussianLTM:
    """Coefficients of a linear-Gaussian latent tree.

    The root latent's coefficients are stored as a=0, b=mu1, sigma=sigma1,
    which makes every latent follow the same affine-conditional form.
    """

    latent_parent: tuple
    obs_parent: tuple
    a: np.ndarray
    b: np.ndarray
    sigma: np.ndarray
    c: np.ndarray
    d: np.ndarray
    tau: np.ndarray

    @property
    def num_latents(self) -> int:
        return len(self.latent_parent)

    @property
    def num_observables(self) -> int:
        return len(self.obs_parent)

    @property
    def root(self) -> int:
        return next(i for i, p in enumerate(self.latent_parent) if p is None)

    def validate(self) -> None:
        if not (np.all(self.sigma > 0) and np.all(self.tau > 0)):
            raise ValueError("all conditional stddevs must be positive")
        self.tree().validate()

    def tree(self) -> LatentTree:
        latent_cond = tuple(
            {"type": "linear-gaussian", "a": float(self.a[i]), "b": float(self.b[i]), "sigma": float(self.sigma[i])}
            for i in range(self.num_latents)
        )
        obs_cond = tuple(
            {"type": "linear-gaussian", "c": float(self.c[j]), "d": float(self.d[j]), "tau": float(self.tau[j])}
            for j in range(self.num_observables)
        )
        return LatentTree(self.latent_parent, self.obs_parent, latent_cond, obs_cond)


def random_model(num_nodes: int, seed) -> LinearGaussianLTM:
    """A random model with num_nodes total nodes (half latent, half observed).

    The latent skeleton attaches each new latent to a uniformly random
    earlier one; observable j pairs with latent j.  Coefficient ranges:
    a, c uniform on [-2, 2]; b, d uniform on [-1, 1]; sigma, tau uniform
    on [0.5, 1.5]; root mean uniform on [-1, 1], root stddev on [0.5, 1.5].
    """
    if num_nodes < 2 or num_nodes % 2:
        raise ValueError("num_nodes must be even (latent/observable pairs)")
    rng = np.random.default_rng(seed)
    n = num_nodes // 2
    latent_parent = [None] + [int(rng.integers(0, i)) for i in range(1, n)]
    a = rng.uniform(-2, 2, n)
    b = rng.uniform(-1, 1, n)
    sigma = rng.uniform(0.5, 1.5, n)
    a[0] = 0.0
    model = LinearGaussianLTM(
        latent_parent=tuple(latent_parent),
        obs_parent=tuple(range(n)),
        a=a,
        b=b,
        sigma=sigma,
        c=rng.uniform(-2, 2, n),
        d=rng.uniform(-1, 1, n),
        tau=rng.uniform(0.5, 1.5, n),
    )
    model.validate()
    return model


def sample(model: LinearGaussianLTM, n: int, seed) -> np.ndarray:
    """Ancestral sampling of n observation rows."""
    rng = np.random.default_rng(seed)
    z = np.empty((n, model.num_latents))
    for i in top_down_order(model.latent_parent):
        p = model.latent_parent[i]
        mean = model.b[i] if p is None else model.a[i] * z[:, p] + model.b[i]
        z[:, i] = mean + model.sigma[i] * rng.standard_normal(n)
    x = np.empty((n, model.num_observables))
    for j, p in enumerate(model.obs_parent):
        x[:, j] = model.c[j] * z[:, p] + model.d[j] + model.tau[j] * rng.standard_normal(n)
    return x


def exact_loglik(model: LinearGaussianLTM, x: np.ndarray) -> np.ndarray:
    """Exact log-density of observation rows, by upward message passing.

    Each subtree message is a quadratic form exp(A z^2 + B z + C) in the
    parent latent; integrating against the affine Gaussian conditional
    maps (A, B, C) to the parent in closed form.  A is data-independent,
    so only B and C are batched.
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != model.num_observables:
        raise ValueError(f"x has {x.shape[1]} columns, model has {model.num_observables}")
    nb = x.shape[0]

    acc_a = np.zeros(model.num_latents)
    acc_b = np.zeros((model.num_latents, nb))
    acc_c = np.zeros((model.num_latents, nb))
    for j, p in enumerate(model.obs_parent):
        c, d, tau = model.c[j], model.d[j], model.tau[j]
        r = x[:, j] - d
        acc_a[p] += -c * c / (2 * tau * tau)
        acc_b[p] += c * r / (tau * tau)
        acc_c[p] += -r * r / (2 * tau * tau) - np.log(tau) - 0.5 * LOG_2PI

    for i in top_down_order(model.latent_parent)[::-1]:
        a, b, s = model.a[i], model.b[i], model.sigma[i]
        s2 = s * s
        p_coef = 1.0 / (2 * s2) - acc_a[i]
        if p_coef <= 0 or not np.isfinite(p_coef):
            raise NumericError(f"message at latent {i} is not normalizable (P={p_coef})")
        q_lin = a / s2
        q_const = b / s2 + acc_b[i]
        new_a = q_lin * q_lin / (4 * p_coef) - a * a / (2 * s2)
        new_b = 2 * q_lin * q_const / (4 * p_coef) - a * b / s2
        new_c = (
            q_const * q_const / (4 * p_coef)
            - b * b / (2 * s2)
            + acc_c[i]
            - 0.5 * np.log(2 * s2 * p_coef)
        )
        parent = model.latent_parent[i]
        if parent is None:
            out = new_c
            if np.isnan(out).any() or np.isposinf(out).any():
                raise NumericError("non-finite exact log-likelihood")
            return out[0] if single else out
        acc_a[parent] += new_a
        acc_b[parent] += new_b
        acc_c[parent] += new_c
    raise AssertionError("unreachable: root handled inside the loop")


def joint_gaussian(model: LinearGaussianLTM) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of the exact Gaussian joint over observables.

    Assembled by the affine recursions (latent variances/covariances top
    down, then the observable projections).  Quadratic in the node count;
    intended for small models and as the cross-check for exact_loglik.
    """
    n = model.num_latents
    order = top_down_order(model.latent_parent)
    mu_z = np.zeros(n)
    cov_z = np.zeros((n, n))
    for i in order:
        p = model.latent_parent[i]
        if p is None:
            mu_z[i] = model.b[i]
            cov_z[i, i] = model.sigma[i] ** 2
            continue
        mu_z[i] = model.a[i] * mu_z[p] + model.b[i]
        row = model.a[i] * cov_z[p]
        cov_z[i, :] = row
        cov_z[:, i] = row
        cov_z[i, i] = model.a[i] ** 2 * cov_z[p, p] + model.sigma[i] ** 2
    m = model.num_observables
    mean = np.empty(m)
    cov = np.empty((m, m))
    for u in range(m):
        pu = model.obs_parent[u]
        mean[u] = model.c[u] * mu_z[pu] + model.d[u]
        for v in range(m):
            cov[u, v] = model.c[u] * model.c[v] * cov_z[pu, model.obs_parent[v]]
        cov[u, u] += model.tau[u] ** 2
    return mean, cov


def domain_rules(model: LinearGaussianLTM, n: int, kind: str = "trapezoidal") -> dict[int, QuadratureRule]:
    """Quadrature rule per latent on its integration window: the affine
    image of the parent's quadrature points widened by k(N) conditional
    stddevs.

    The root gets [mu1 - k sigma1, mu1 + k sigma1]; children see the
    actual points the parent's rule uses on its own window. The margin is
    k(N) = max(3, -ndtri(N^-1.5 / 2)), so each window cuts off at most
    N^-1.5 of its conditional mass and the truncation error vanishes as N
    grows: k is 3 up to N = 32, then 3.10, 3.39, 3.67 and 3.93 at N = 64,
    128, 256 and 512.
    """
    # n < 1 is left for make_rule to reject with its own error
    k = max(3.0, float(-ndtri(0.5 * max(int(n), 1) ** -1.5)))
    rules: dict[int, QuadratureRule] = {}
    for i in top_down_order(model.latent_parent):
        p = model.latent_parent[i]
        if p is None:
            lo = model.b[i] - k * model.sigma[i]
            hi = model.b[i] + k * model.sigma[i]
        else:
            images = model.a[i] * rules[p].points + model.b[i]
            lo = images.min() - k * model.sigma[i]
            hi = images.max() + k * model.sigma[i]
        rules[i] = make_rule(kind, n, lo, hi)
    return rules


def select_domains(model: LinearGaussianLTM, n: int, kind: str = "trapezoidal") -> dict[int, tuple[float, float]]:
    """Integration window (lo, hi) per latent, as chosen by ``domain_rules``."""
    return {i: rule.domain for i, rule in domain_rules(model, n, kind).items()}


def gaussian_region_tensors(model: LinearGaussianLTM, rules: dict[int, QuadratureRule], x: np.ndarray):
    """Tensor form of the quadrature approximation of a model.

    sum_rows[i][j, k] = log(w_k p(z_k | parent point j)) with a single
    prior row at the root; obs_loglik[j][n, b] = log p(x_b | parent
    point n).  Feed to latent_tree_loglik or compare against the
    materialized circuit.
    """
    with np.errstate(divide="ignore"):
        log_w = {i: np.log(rules[i].weights) for i in rules}
    sum_rows = []
    for i in range(model.num_latents):
        z = rules[i].points
        p = model.latent_parent[i]
        if p is None:
            means = np.array([model.b[i]])
        else:
            means = model.a[i] * rules[p].points + model.b[i]
        dens = gaussian_logpdf(z[None, :], means[:, None], np.log(model.sigma[i]))
        sum_rows.append(log_w[i][None, :] + dens)
    obs_loglik = []
    for j, p in enumerate(model.obs_parent):
        z = rules[p].points
        mean = model.c[j] * z[:, None] + model.d[j]
        obs_loglik.append(gaussian_logpdf(x[None, :, j], mean, np.log(model.tau[j])))
    return sum_rows, obs_loglik


def qpc_loglik(model: LinearGaussianLTM, rules: dict[int, QuadratureRule], x: np.ndarray) -> np.ndarray:
    """Quadrature-approximated log-likelihood, fused tensor path."""
    x = np.asarray(x, dtype=np.float64)
    sum_rows, obs_loglik = gaussian_region_tensors(model, rules, x)
    return latent_tree_loglik(model.latent_parent, model.obs_parent, sum_rows, obs_loglik)


def sanity_mse(model: LinearGaussianLTM, samples: np.ndarray, n: int, kind: str = "trapezoidal") -> float:
    """Mean squared error between exact and quadrature log-likelihoods."""
    rules = domain_rules(model, n, kind)
    approx = qpc_loglik(model, rules, samples)
    exact = exact_loglik(model, samples)
    return float(np.mean((approx - exact) ** 2))


def to_pic(model: LinearGaussianLTM) -> Circuit:
    """Compile the model to a symbolic integral circuit."""
    return bn_to_pic(model.tree())


def model_from_pic(pic: Circuit) -> LinearGaussianLTM:
    """Recover model coefficients from a circuit produced by to_pic."""
    integrals = sorted(pic.integral_units(), key=lambda u: u.latent["var"])
    n = len(integrals)
    if not n or [u.latent["var"] for u in integrals] != list(range(n)):
        raise ValueError("circuit does not carry a dense set of latents")
    a = np.zeros(n)
    b = np.zeros(n)
    sigma = np.ones(n)
    latent_parent = []
    for u in integrals:
        cond = u.latent["cond"]
        if cond.get("type") != "linear-gaussian":
            raise ValueError(f"latent {u.latent['var']} is not linear-gaussian")
        i = u.latent["var"]
        a[i], b[i], sigma[i] = cond["a"], cond["b"], cond["sigma"]
        latent_parent.append(u.latent["parent"])

    owner: dict[int, int] = {}
    for u in integrals:
        child = pic.units[u.children[0]]
        group = child.children if child.kind == "product" else (child.uid,)
        for cid in group:
            cu = pic.units[cid]
            if cu.kind == "input":
                owner[cu.var] = u.latent["var"]
    m = pic.num_vars
    if sorted(owner) != list(range(m)):
        raise ValueError("could not attach every observable to a latent")
    c = np.zeros(m)
    d = np.zeros(m)
    tau = np.ones(m)
    for u in pic.units:
        if u.kind != "input":
            continue
        cond = u.dist.conditional
        if cond is None or cond.get("type") != "linear-gaussian":
            raise ValueError(f"input unit {u.uid} is not linear-gaussian")
        c[u.var], d[u.var], tau[u.var] = cond["c"], cond["d"], cond["tau"]
    model = LinearGaussianLTM(
        latent_parent=tuple(latent_parent),
        obs_parent=tuple(owner[j] for j in range(m)),
        a=a,
        b=b,
        sigma=sigma,
        c=c,
        d=d,
        tau=tau,
    )
    model.validate()
    return model


def sanity_check(num_models: int, num_nodes: int, num_samples: int, n_list, seed, kind: str = "trapezoidal", workers: int = 1):
    """MSE grid over random models: rows of (model_id, N, mse).

    Each model gets an independent child seed; results are ordered by
    (model_id, N) regardless of worker count.
    """
    child_seeds = np.random.SeedSequence(seed).spawn(num_models)

    def one_model(m):
        model = random_model(num_nodes, child_seeds[m])
        samples = sample(model, num_samples, child_seeds[m].spawn(1)[0])
        return [(m, n, sanity_mse(model, samples, n, kind)) for n in n_list]

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(one_model, range(num_models)))
    else:
        chunks = [one_model(m) for m in range(num_models)]
    return [row for chunk in chunks for row in chunk]
