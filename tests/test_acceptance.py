"""Release acceptance suite: ten end-to-end criteria, one verdict line each.

Every test prints ``criterion NN <name>: PASS|FAIL`` (visible under
``pytest -s`` or in the captured output of a failing run) and then asserts.
The file is also directly executable: ``python3 tests/test_acceptance.py``
runs all ten criteria in order and exits nonzero if any fail.
"""

import itertools
import time

import numpy as np
from scipy.special import logsumexp
from scipy.stats import norm

from picirc import autodiff as ad
from picirc import gaussian
from picirc.autodiff import Tape
from picirc.circuit import check_structure, post_order
from picirc.materialize import (
    materialize_input_params,
    materialize_nested,
    materialize_qpc,
    materialize_sum_params,
)
from picirc.nets import ParamNets
from picirc.quadrature import integrate, make_rule
from picirc.runtime import bpd, log_forward
from picirc.structures import LatentTree, bn_to_pic, chow_liu_tree, hclt_structure, mutual_information
from picirc.training import (
    HcltTensors,
    TrainConfig,
    batch_loglik_node,
    dataset_nll,
    em_step,
    train_hclt_em,
    train_pic,
)


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    tail = f"  [{detail}]" if detail else ""
    print(f"criterion {num:2d} {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} {name}: FAIL{tail}"


def neural_tree(latent_parent, obs_parent, k=3):
    return LatentTree(
        latent_parent=tuple(latent_parent),
        obs_parent=tuple(obs_parent),
        latent_cond=tuple({"type": "neural"} for _ in latent_parent),
        obs_cond=tuple(
            {"type": "neural", "net": j, "family": "categorical", "k": k} for j in range(len(obs_parent))
        ),
    )


def small_nets(tree, k=3, seed=0):
    return ParamNets.for_tree(
        tree, "categorical", num_states=k, num_frequencies=2, hidden=(6, 6), decoder_hidden=(6,), seed=seed
    )


def tensors_for(nets, rule):
    sp = materialize_sum_params(nets, rule.points, rule.weights)
    ip = materialize_input_params(nets, rule.points)
    return sp, ip


def test_criterion_01_gaussian_sanity_mse_grid():
    grid = (32, 64, 128, 256, 512)
    rows = gaussian.sanity_check(num_models=20, num_nodes=16, num_samples=1000, n_list=grid, seed=0)
    per_n: dict[int, list[float]] = {}
    for _, n, mse in rows:
        per_n.setdefault(n, []).append(mse)
    means = {n: float(np.mean(v)) for n, v in per_n.items()}
    decreasing = all(means[b] <= means[a] * 1.05 for a, b in zip(grid, grid[1:]))
    final_ok = means[512] < 1e-3
    detail = "mean mse " + ", ".join(f"N={n}: {means[n]:.3g}" for n in grid) + f"; decrease ok: {decreasing}"
    _verdict(1, "linear-gaussian sanity mse grid", decreasing and final_ok, detail)


def test_criterion_02_quadrature_convergence_orders():
    exact = np.e - 1.0 / np.e

    def error(kind, panels):
        pts = panels if kind == "midpoint" else panels + 1
        return abs(integrate(make_rule(kind, pts, -1.0, 1.0), np.exp) - exact)

    ratios = {}
    ok = True
    for kind, (lo, hi) in (("trapezoidal", (3.5, 4.5)), ("midpoint", (3.5, 4.5)), ("simpson", (14.0, 18.0))):
        r = error(kind, 16) / error(kind, 32)
        ratios[kind] = r
        ok = ok and lo <= r <= hi
    detail = ", ".join(f"{k} {v:.3f}" for k, v in ratios.items())
    _verdict(2, "quadrature convergence orders", ok, detail)


def test_criterion_03_normalization():
    tree = neural_tree((None, 0, 0, 1), (0, 1, 2, 3))
    assignments = np.array(list(itertools.product(range(3), repeat=4)), dtype=np.float64)
    worst_row = 0.0
    worst_mass = 0.0
    for n in (16, 32, 64, 128):
        rule = make_rule("trapezoidal", n, -1.0, 1.0)
        for seed in range(10):
            nets = ParamNets.for_tree(tree, "categorical", num_states=3, seed=seed)
            sp, ip = tensors_for(nets, rule)
            worst_row = max(worst_row, float(np.max(np.abs(logsumexp(sp.s, axis=2)))))
            qpc = materialize_qpc(bn_to_pic(tree), rule, (sp, ip))
            mass = float(np.exp(log_forward(qpc, assignments)).sum())
            worst_mass = max(worst_mass, abs(mass - 1.0))
    ok = worst_row <= 1e-9 and worst_mass <= 1e-9
    _verdict(3, "normalization", ok, f"max |row lse| {worst_row:.2e}, max |mass-1| {worst_mass:.2e}")


def test_criterion_04_structural_checks():
    rng = np.random.default_rng(0)
    ok = True
    for trial in range(50):
        num_obs = int(rng.integers(1, 33))
        model = gaussian.random_model(2 * num_obs, np.random.SeedSequence(trial))
        pic = bn_to_pic(model.tree())
        rep = check_structure(pic)
        qpc = materialize_qpc(pic, gaussian.domain_rules(model, 4))
        qpc.validate()
        rep2 = check_structure(qpc)
        ok = ok and all(
            (r.smooth, r.decomposable, r.structured) == (True, True, True) for r in (rep, rep2)
        )
    _verdict(4, "structural checks on 50 random trees", ok)


def test_criterion_05_gradient_check():
    tree = neural_tree((None, 0, 1), (0, 1, 2))
    nets = small_nets(tree, seed=4)
    rule = make_rule("trapezoidal", 8, -1.0, 1.0)
    x = np.random.default_rng(6).integers(0, 3, size=(8, 3)).astype(np.float64)

    tape = Tape()
    pnodes = nets.register(tape)
    loss = ad.neg(ad.mean(batch_loglik_node(tape, nets, pnodes, rule, x)))
    grads = tape.backward(loss)

    arrays = nets.param_arrays()
    h = 1e-4
    worst = 0.0
    for name, a in arrays.items():
        flat = a.reshape(-1)
        g = grads[name].reshape(-1)
        for idx in range(flat.size):
            keep = flat[idx]
            flat[idx] = keep + h
            up = dataset_nll(nets, rule, x)
            flat[idx] = keep - h
            down = dataset_nll(nets, rule, x)
            flat[idx] = keep
            fd = (up - down) / (2 * h)
            worst = max(worst, abs(g[idx] - fd) / max(1.0, abs(fd)))
    _verdict(5, "gradient check vs finite differences", worst < 1e-4, f"max rel err {worst:.2e}")


def _fine_grid_loglik(model, x, m=3001):
    """Two-latent joint marginalized on a dense trapezoidal grid, log domain."""
    s0, s1 = model.sigma
    mu0 = model.b[0]
    z0 = np.linspace(mu0 - 8 * s0, mu0 + 8 * s0, m)
    images = model.a[1] * z0 + model.b[1]
    z1 = np.linspace(images.min() - 8 * s1, images.max() + 8 * s1, m)

    def logw(grid):
        w = np.full(m, grid[1] - grid[0])
        w[[0, -1]] /= 2.0
        return np.log(w)

    prior = norm.logpdf(z0, mu0, s0)
    trans = norm.logpdf(z1[None, :], model.a[1] * z0[:, None] + model.b[1], s1)
    out = []
    for x0, x1 in x:
        like0 = norm.logpdf(x0, model.c[0] * z0 + model.d[0], model.tau[0])
        like1 = norm.logpdf(x1, model.c[1] * z1 + model.d[1], model.tau[1])
        inner = logsumexp(trans + (like1 + logw(z1))[None, :], axis=1)
        out.append(logsumexp(prior + like0 + inner + logw(z0)))
    return np.array(out)


def _linear_space_loglik(qpc, row):
    """Probability-domain recursive evaluation of one fully observed row."""
    vals: dict[int, float] = {}
    for uid in post_order(qpc):
        u = qpc.units[uid]
        if u.kind == "input":
            v = row[u.var]
            if u.dist.family == "categorical":
                vals[uid] = float(np.exp(u.dist.params[int(v)]))
            else:
                mean, log_std = u.dist.params
                vals[uid] = float(norm.pdf(v, mean, np.exp(log_std)))
        elif u.kind == "product":
            vals[uid] = float(np.prod([vals[c] for c in u.children]))
        else:
            vals[uid] = float(np.dot(np.exp(u.weights), [vals[c] for c in u.children]))
    return float(np.log(vals[qpc.root]))


def test_criterion_06_oracle_equivalence():
    # (a) closed-form log-likelihood vs dense-grid integration, two latents
    model = gaussian.random_model(4, 12)
    x = gaussian.sample(model, 40, 13)
    err_a = float(np.max(np.abs(_fine_grid_loglik(model, x) - gaussian.exact_loglik(model, x))))

    # (b) per-parent-point materialization vs a direct nested-loop quadrature
    model2 = gaussian.random_model(4, 5)
    pic = gaussian.to_pic(model2)

    def selector(latent, parent_value):
        mu = model2.b[0] if parent_value is None else model2.a[1] * parent_value + model2.b[1]
        s = model2.sigma[latent]
        return make_rule("trapezoidal", 24, mu - 3 * s, mu + 3 * s)

    nested = materialize_nested(pic, selector)
    rows = gaussian.sample(model2, 20, 6)
    r0 = selector(0, None)
    oracle = []
    for x0, x1 in rows:
        outer = 0.0
        for z0, w0 in zip(r0.points, r0.weights):
            r1 = selector(1, z0)
            inner = sum(
                w1 * norm.pdf(z1, model2.a[1] * z0 + model2.b[1], model2.sigma[1])
                * norm.pdf(x1, model2.c[1] * z1 + model2.d[1], model2.tau[1])
                for z1, w1 in zip(r1.points, r1.weights)
            )
            outer += (
                w0 * norm.pdf(z0, model2.b[0], model2.sigma[0])
                * norm.pdf(x0, model2.c[0] * z0 + model2.d[0], model2.tau[0]) * inner
            )
        oracle.append(np.log(outer))
    err_b = float(np.max(np.abs(log_forward(nested, rows) - np.array(oracle))))

    # (c) log-domain evaluator vs probability-domain recursion
    tree = neural_tree((None, 0), (0, 0, 1, 1))
    nets = small_nets(tree, seed=7)
    rule = make_rule("trapezoidal", 8, -1.0, 1.0)
    qpc_n = materialize_qpc(bn_to_pic(tree), rule, tensors_for(nets, rule))
    cat_rows = np.array(list(itertools.product(range(3), repeat=4)), dtype=np.float64)[::7]
    model3 = gaussian.random_model(6, 2)
    qpc_g = materialize_qpc(gaussian.to_pic(model3), gaussian.domain_rules(model3, 10))
    g_rows = gaussian.sample(model3, 5, 3)
    err_c = 0.0
    for qpc, rows in ((qpc_n, cat_rows), (qpc_g, g_rows)):
        ll = log_forward(qpc, rows)
        for i, row in enumerate(rows):
            rel = abs(_linear_space_loglik(qpc, row) - ll[i]) / max(1.0, abs(ll[i]))
            err_c = max(err_c, rel)

    ok = err_a < 1e-4 and err_b < 1e-9 and err_c < 1e-10
    _verdict(
        6,
        "oracle equivalence",
        ok,
        f"grid {err_a:.2e} (<1e-4), nested {err_b:.2e} (<1e-9), linear {err_c:.2e} (<1e-10)",
    )


def _mixture_rows(rng, rows):
    z = (rng.random(rows) < 0.4).astype(int)
    p = np.array([[0.9, 0.2], [0.1, 0.7]])
    return (rng.random((rows, 2)) < p[z]).astype(np.float64)


def test_criterion_07_em_updates():
    # full-batch EM log-likelihood never decreases
    rng = np.random.default_rng(21)
    h = rng.integers(0, 2, 400)
    data = np.empty((400, 4))
    for j in range(4):
        flip = rng.random(400) < 0.15 + 0.1 * j
        data[:, j] = np.where(flip, 1 - h, h)
    tree = hclt_structure(chow_liu_tree(data), "categorical", num_states=2)
    pc = HcltTensors.random(tree, n=3, family="categorical", num_states=2, seed=3, scale=1.0).to_circuit()
    lls = [em_step(pc, data, 1.0) for _ in range(20)]
    diffs = np.diff(lls)
    mono_ok = bool(np.all(diffs >= -1e-10))

    # one mini-batch update matches the enumerated posterior responsibilities
    tree2 = neural_tree((None,), (0, 0), k=2)
    pc2 = HcltTensors.random(tree2, n=2, family="categorical", num_states=2, seed=11, scale=1.0).to_circuit()
    batch = _mixture_rows(np.random.default_rng(2), 64)
    root = pc2.units[pc2.root]
    old_w = np.exp(root.weights)
    comp = []
    for c in root.children:
        prod = pc2.units[c]
        tables = {pc2.units[leaf].var: np.exp(pc2.units[leaf].dist.params) for leaf in prod.children}
        comp.append(tables[0][batch[:, 0].astype(int)] * tables[1][batch[:, 1].astype(int)])
    joint = np.stack(comp, axis=1) * old_w[None, :]
    resp = joint / joint.sum(axis=1, keepdims=True)
    counts = resp.sum(axis=0)
    eta = 0.5
    expect = (1 - eta) * old_w + eta * counts / counts.sum()
    em_step(pc2, batch, eta)
    got = np.exp(pc2.units[pc2.root].weights)
    hand_ok = bool(np.allclose(got, expect, rtol=1e-12, atol=0))

    _verdict(7, "em updates", mono_ok and hand_ok, f"min ll delta {diffs.min():.2e}, hand-check {hand_ok}")


def _prufer_edges(seq, m):
    degree = np.ones(m, dtype=int)
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = sorted(i for i in range(m) if degree[i] == 1)
    for v in seq:
        leaf = leaves.pop(0)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            import bisect

            bisect.insort(leaves, v)
    edges.append(tuple(leaves))
    return edges


def test_criterion_08_chow_liu_optimality():
    rng = np.random.default_rng(30)
    rows = 3000
    data = np.empty((rows, 5))
    data[:, 0] = rng.integers(0, 2, rows)
    for j, (src, flip) in enumerate(((0, 0.1), (1, 0.2), (0, 0.3), (3, 0.15)), start=1):
        noise = rng.random(rows) < flip
        data[:, j] = np.where(noise, 1 - data[:, src], data[:, src])

    parent = chow_liu_tree(data)
    learned = sum(mutual_information(data, i, int(p)) for i, p in enumerate(parent) if p >= 0)
    best = -np.inf
    for seq in itertools.product(range(5), repeat=3):
        total = sum(mutual_information(data, i, j) for i, j in _prufer_edges(seq, 5))
        best = max(best, total)
    ok = abs(learned - best) <= 1e-12
    _verdict(8, "chow-liu tree optimality", ok, f"learned {learned:.6f} vs best {best:.6f} over 125 trees")


def _categorical_blocks(rng, rows):
    """Eight categorical(4) columns driven by a hidden three-state variable."""
    h = rng.integers(0, 3, rows)
    x = np.empty((rows, 8))
    for j in range(8):
        probs = np.full((rows, 4), 0.1)
        probs[np.arange(rows), (h + j) % 4] = 0.7
        u = rng.random(rows)[:, None]
        x[:, j] = (u > probs.cumsum(axis=1)).sum(axis=1)
    return x


def test_criterion_09_training_smoke():
    assert abs(bpd(-784 * 1.18 * np.log(2), 784) - 1.18) < 1e-12

    rng = np.random.default_rng(11)
    train_x = _categorical_blocks(rng, 2000)
    valid_x = _categorical_blocks(rng, 500)
    tree = hclt_structure(chow_liu_tree(train_x), "categorical", num_states=4)

    start = time.time()
    nets = ParamNets.for_tree(tree, "categorical", num_states=4, seed=0)
    config = TrainConfig(batch_size=64, n=16, max_steps=1000, eval_interval=250, patience=1000, seed=0)
    result = train_pic(nets, train_x, valid_x, config)
    pic_bpds = [row["valid_bpd"] for row in result.history]
    drop = 1.0 - min(pic_bpds) / pic_bpds[0]

    tensors = HcltTensors.random(tree, n=16, family="categorical", num_states=4, seed=0, scale=1.0)
    em_config = TrainConfig(
        batch_size=64, n=16, max_steps=1000, eval_interval=250, patience=1000, lr_max=0.5, lr_min=0.05, seed=0
    )
    em_result = train_hclt_em(tensors, train_x, valid_x, em_config)
    em_bpds = [row["valid_bpd"] for row in em_result.history]
    elapsed = time.time() - start

    ok = drop >= 0.10 and bool(np.all(np.isfinite(em_bpds)))
    _verdict(
        9,
        "training smoke",
        ok,
        f"bpd drop {drop:.1%} in {result.steps} steps; qpc {min(pic_bpds):.3f} vs "
        f"hclt-em {min(em_bpds):.3f}; {elapsed:.0f}s",
    )


def test_criterion_10_size_scaling():
    model = gaussian.random_model(16, 3)
    pic = bn_to_pic(model.tree())
    ns = np.array([8, 16, 32, 64])
    edges = [materialize_qpc(pic, gaussian.domain_rules(model, int(n))).num_edges for n in ns]
    slope = float(np.polyfit(np.log(ns), np.log(edges), 1)[0])
    fit_ok = 1.9 <= slope <= 2.1

    counts_ok = True
    for depth in (1, 2, 3):
        chain = gaussian.LinearGaussianLTM(
            latent_parent=tuple([None] + list(range(depth - 1))),
            obs_parent=tuple(range(depth)),
            a=np.full(depth, 0.5),
            b=np.zeros(depth),
            sigma=np.ones(depth),
            c=np.ones(depth),
            d=np.zeros(depth),
            tau=np.ones(depth),
        )
        for n in (2, 3, 4):
            rule = make_rule("trapezoidal", n, -1.0, 1.0)
            nested = materialize_nested(gaussian.to_pic(chain), lambda latent, pv: rule)
            kinds: dict[str, int] = {}
            for u in nested.units:
                kinds[u.kind] = kinds.get(u.kind, 0) + 1
            sums = (n**depth - 1) // (n - 1)
            expect = {"sum": sums, "input": sum(n**lvl for lvl in range(1, depth + 1))}
            if depth > 1:
                expect["product"] = sums - 1
            counts_ok = counts_ok and kinds == expect

    _verdict(10, "size scaling", fit_ok and counts_ok, f"edge-count exponent {slope:.3f}, nested counts exact: {counts_ok}")


if __name__ == "__main__":
    failures = 0
    for fn in (
        test_criterion_01_gaussian_sanity_mse_grid,
        test_criterion_02_quadrature_convergence_orders,
        test_criterion_03_normalization,
        test_criterion_04_structural_checks,
        test_criterion_05_gradient_check,
        test_criterion_06_oracle_equivalence,
        test_criterion_07_em_updates,
        test_criterion_08_chow_liu_optimality,
        test_criterion_09_training_smoke,
        test_criterion_10_size_scaling,
    ):
        try:
            fn()
        except AssertionError:
            failures += 1
    raise SystemExit(1 if failures else 0)
