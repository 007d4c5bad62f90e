"""The layered explicit-circuit paths against the unit-by-unit references.

``forward_values`` / ``log_forward``, ``em_step`` and ``sample_pc`` run a
concrete circuit one layer of same-shaped units at a time.  Here they are
pinned against the per-unit implementations in ``reference.py`` on
adversarial circuits, and ``post_order`` and ``evidence_rows`` against
their previous implementations.
"""

import dataclasses
import warnings

import numpy as np
import pytest

import reference
from picirc import gaussian, runtime
from picirc.circuit import Circuit, CircuitBuilder, InputDist, Unit, deserialize, post_order, serialize, structurally_equal
from picirc.errors import CircuitError, NumericError
from picirc.materialize import materialize_qpc
from picirc.nets import ParamNets
from picirc.quadrature import make_rule
from picirc.runtime import circuit_layers, evidence_rows, forward_values, log_forward, sample_pc
from picirc.structures import LatentTree
from picirc.training import HcltTensors, dataset_nll, em_step


def mixed_circuit(seed: int, scale: float = 1.0) -> Circuit:
    """Three families; a sum with a repeated child; a product shared by two products; sums sharing a children tuple.

    Log weights are normal draws times ``scale``, left unnormalized.
    """
    rng = np.random.default_rng(seed)
    b = CircuitBuilder()

    def mix(children):
        return b.add_sum(children, scale * rng.normal(size=len(children)))

    cats = [b.add_input(0, InputDist("categorical", 3, np.log(rng.dirichlet(np.ones(3))))) for _ in range(3)]
    bins = [b.add_input(1, InputDist("binomial", 4, np.array([rng.uniform(0.1, 0.9)]))) for _ in range(3)]
    gauss = [b.add_input(2, InputDist("gaussian", params=np.array([rng.normal(), rng.normal(0.0, 0.3)]))) for _ in range(3)]
    repeated = mix([cats[0], cats[1], cats[0], cats[2]])
    shared = b.add_product([mix(bins), mix(gauss)])
    tops = [
        b.add_product([repeated, shared]),
        b.add_product([mix(cats), shared]),
        b.add_product([mix(cats), shared]),
        b.add_product([mix(cats[:2]), mix(bins), gauss[0]]),
    ]
    return b.finish(root=mix(tops))


def mixed_rows(seed: int, rows: int = 40, missing: float = 0.25) -> np.ndarray:
    rng = np.random.default_rng(seed)
    x = np.column_stack([rng.integers(0, 3, rows), rng.integers(0, 5, rows), rng.normal(0.0, 1.5, rows)]).astype(float)
    x[rng.random(x.shape) < missing] = np.nan
    return x


def with_neg_inf(pc: Circuit, seed: int) -> Circuit:
    """A copy in which one log weight of every sum with two or more children is -inf."""
    rng = np.random.default_rng(seed)
    units = []
    for u in pc.units:
        if u.kind == "sum" and len(u.children) > 1:
            w = u.weights.copy()
            w[rng.integers(len(w))] = -np.inf
            u = Unit(u.uid, u.kind, u.children, u.scope, weights=w)
        units.append(u)
    return Circuit(units=units, root=pc.root, num_vars=pc.num_vars)


def tree(latent_parent, obs_parent, family, k):
    return LatentTree(
        tuple(latent_parent),
        tuple(obs_parent),
        tuple({"type": "neural"} for _ in latent_parent),
        tuple({"type": "neural", "family": family, "k": k} for _ in obs_parent),
    )


def hclt_case(family, k, seed):
    t = tree((None, 0, 0, 1), (0, 1, 2, 2, 3, 3), family, k)
    pc = HcltTensors.random(t, n=4, family=family, num_states=k, seed=seed, scale=1.0).to_circuit()
    rng = np.random.default_rng(seed)
    if family == "gaussian":
        x = rng.normal(0.0, 1.5, (40, 6))
    else:
        x = rng.integers(0, k + (family == "binomial"), (40, 6)).astype(float)
    x[rng.random(x.shape) < 0.25] = np.nan
    return pc, x


def gaussian_case(seed):
    model = gaussian.random_model(6, seed)
    x = gaussian.sample(model, 40, seed + 1)
    x[np.random.default_rng(seed).random(x.shape) < 0.25] = np.nan
    return materialize_qpc(gaussian.to_pic(model), gaussian.domain_rules(model, 5)), x


CASES = {
    "mixed": lambda: (mixed_circuit(0), mixed_rows(1)),
    "scale-800": lambda: (mixed_circuit(2, scale=800.0), mixed_rows(3)),
    "neg-inf-weights": lambda: (with_neg_inf(mixed_circuit(4), 5), mixed_rows(6)),
    "hclt-categorical": lambda: hclt_case("categorical", 3, 7),
    "hclt-binomial": lambda: hclt_case("binomial", 4, 8),
    "hclt-gaussian": lambda: hclt_case("gaussian", None, 9),
    "hclt-neg-inf": lambda: (lambda pc, x: (with_neg_inf(pc, 10), x))(*hclt_case("categorical", 3, 11)),
    "gaussian-qpc": lambda: gaussian_case(12),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_forward_values_match_reference(case):
    pc, x = CASES[case]()
    got = forward_values(pc, x)
    want = reference.forward_values(pc, x)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(log_forward(pc, x), got[pc.root])


@pytest.mark.parametrize("case", sorted(CASES))
def test_log_forward_bit_identical_under_any_chunking(case):
    pc, x = CASES[case]()
    whole = log_forward(pc, x)
    for chunk in (1, 2, 3, 7):
        np.testing.assert_array_equal(log_forward(pc, x, chunk=chunk), whole)


@pytest.mark.parametrize("case", sorted(CASES))
def test_em_step_matches_reference(case):
    pc, x = CASES[case]()
    fast, slow = reference.copy_circuit(pc), reference.copy_circuit(pc)
    before = [u.weights for u in fast.units]
    for _ in range(3):
        ll = em_step(fast, x, 0.7)
        assert ll == pytest.approx(reference.em_step(slow, x, 0.7), rel=0, abs=1e-12)
    for a, b, old in zip(fast.units, slow.units, before):
        if a.kind == "sum":
            np.testing.assert_allclose(a.weights, b.weights, rtol=0, atol=1e-12)
            # an updated unit holds a new read-only array
            assert a.weights is old or not a.weights.flags.writeable
    assert fast.units[pc.root].weights is not before[pc.root]
    assert structurally_equal(deserialize(serialize(fast)), fast)


@pytest.fixture
def builds(monkeypatch):
    """Records the circuit of every layer build (each build runs ``post_order`` once)."""
    seen = []

    def counting(circuit):
        seen.append(circuit)
        return post_order(circuit)

    monkeypatch.setattr(runtime, "post_order", counting)
    return seen


@pytest.mark.parametrize("case", sorted(CASES))
def test_em_steps_build_layers_once_and_match_fresh_builds(case, builds):
    pc, x = CASES[case]()
    fresh = reference.copy_circuit(pc)
    for step in range(5):
        ll = em_step(pc, x, 0.7)
        fresh = reference.copy_circuit(fresh)  # a new Circuit: no kept layers
        assert ll == em_step(fresh, x, 0.7)
        for a, b in zip(pc.units, fresh.units):
            if a.kind == "sum":
                np.testing.assert_array_equal(a.weights, b.weights)
    assert sum(c is pc for c in builds) == 1
    np.testing.assert_array_equal(forward_values(pc, x), forward_values(fresh, x))


def test_log_forward_then_sample_pc_build_layers_once(builds):
    pc, x = CASES["hclt-categorical"]()
    log_forward(pc, x)
    sample_pc(pc, 64, seed=21)
    log_forward(pc, x, chunk=7)
    assert builds == [pc]


def two_pair_circuit() -> Circuit:
    """A mixture of two products, each of a categorical(3) input on variable 0 and one on variable 1."""
    rng = np.random.default_rng(22)
    b = CircuitBuilder()
    pairs = [[b.add_input(v, InputDist("categorical", 3, np.log(rng.dirichlet(np.ones(3))))) for v in (0, 1)] for _ in range(2)]
    return b.finish(root=b.add_sum([b.add_product(p) for p in pairs], np.log([0.4, 0.6])))


def swap_product_children(pc: Circuit) -> None:
    """Two top products of ``mixed_circuit`` trade their first children, sums over the same inputs with other weights."""
    a, b = (pc.units[uid] for uid in pc.units[pc.root].children[1:3])
    pc.units[a.uid] = Unit(a.uid, "product", b.children[:1] + a.children[1:], a.scope)
    pc.units[b.uid] = Unit(b.uid, "product", a.children[:1] + b.children[1:], b.scope)


def swap_input_variables(pc: Circuit) -> None:
    """The first product's inputs trade variables: its scope stays {0, 1}."""
    for uid in pc.units[pc.units[pc.root].children[0]].children:
        u = pc.units[uid]
        pc.units[uid] = Unit(uid, "input", (), frozenset({1 - u.var}), dist=u.dist)


def input_to_binomial(pc: Circuit) -> None:
    """The first product's input on variable 0 becomes binomial(2)."""
    uid = pc.units[pc.units[pc.root].children[0]].children[0]
    pc.units[uid] = Unit(uid, "input", (), pc.units[uid].scope, dist=InputDist("binomial", 2, np.array([0.3])))


EDITS = {
    "product-children": (lambda: (mixed_circuit(23), mixed_rows(24, missing=0.0)), swap_product_children),
    "input-variable": (lambda: (two_pair_circuit(), np.random.default_rng(25).integers(0, 3, (40, 2)).astype(float)), swap_input_variables),
    "input-family": (lambda: (two_pair_circuit(), np.random.default_rng(26).integers(0, 3, (40, 2)).astype(float)), input_to_binomial),
}


@pytest.mark.parametrize("edit", sorted(EDITS))
def test_in_place_structural_edit_never_reuses_stale_layers(edit):
    make, apply = EDITS[edit]
    pc, x = make()
    before = log_forward(pc, x)
    sample_pc(pc, 64, seed=27)
    apply(pc)
    pc.validate()
    fresh = reference.copy_circuit(pc)
    got = log_forward(pc, x)
    assert not np.array_equal(got, before)
    np.testing.assert_array_equal(got, log_forward(fresh, x))
    np.testing.assert_array_equal(sample_pc(pc, 256, seed=28), sample_pc(reference.copy_circuit(pc), 256, seed=28))
    assert em_step(pc, x, 0.7) == em_step(fresh, x, 0.7)
    for a, b in zip(pc.units, fresh.units):
        if a.kind == "sum":
            np.testing.assert_array_equal(a.weights, b.weights)


def test_kept_layers_stay_out_of_replace_equality_and_serialization():
    pc, x = CASES["mixed"]()
    data = serialize(pc)
    log_forward(pc, x)
    assert pc._layers is not None
    assert dataclasses.replace(pc)._layers is None
    assert serialize(pc) == data
    assert structurally_equal(pc, deserialize(data))


def test_layers_partition_units_children_first():
    pc = mixed_circuit(13)
    layers = circuit_layers(pc)
    seen = np.concatenate([layer.uids for layer in layers])
    assert sorted(seen.tolist()) == list(range(len(pc.units)))
    done = set()
    for layer in layers:
        kids = pc.units[layer.uids[0]].children
        for uid in layer.uids:
            u = pc.units[uid]
            assert u.kind == layer.kind
            assert set(u.children) <= done
            if layer.kind == "sum":
                assert u.children == kids
            elif layer.kind == "product":
                assert len(u.children) == len(kids)
            else:
                assert (u.var, u.dist.family) == (layer.index, pc.units[layer.uids[0]].dist.family)
        done.update(layer.uids.tolist())
    # the two sums over all of cats share their children tuple, so one layer holds both; so do the two over bins
    assert sum(layer.kind == "sum" and len(layer.uids) == 2 for layer in layers) == 2


def test_non_finite_value_names_its_unit():
    pc = mixed_circuit(14)
    units = list(pc.units)
    bad = next(u for u in units if u.kind == "sum" and u.uid != pc.root)
    units[bad.uid] = Unit(bad.uid, "sum", bad.children, bad.scope, weights=np.full(len(bad.children), np.nan))
    broken = Circuit(units=units, root=pc.root, num_vars=pc.num_vars)
    with pytest.raises(NumericError, match=f"unit {bad.uid}$"):
        log_forward(broken, mixed_rows(15))


def random_dag(seed: int, size: int = 60) -> Circuit:
    """Random DAG of products over earlier units, with shared and repeated children."""
    rng = np.random.default_rng(seed)
    b = CircuitBuilder()
    for v in range(4):
        b.add_input(v, InputDist("categorical", 2, np.log([0.5, 0.5])))
    for uid in range(4, size):
        b.add_product(rng.integers(0, uid, rng.integers(1, 5)).tolist())
    top = b.add_product(list(range(4, size)))
    b.add_product([top, 0, 1, 2, 3])
    return b.finish()


@pytest.mark.parametrize("seed", range(5))
def test_post_order_equals_previous_traversal(seed):
    pc = random_dag(seed)
    assert post_order(pc) == reference.post_order(pc)


def test_post_order_cycle_names_the_unit():
    pc = random_dag(0, size=10)
    units = list(pc.units)
    u = units[6]
    units[6] = Unit(6, "product", u.children + (9,), u.scope)
    with pytest.raises(CircuitError, match="cycle detected at unit 6"):
        post_order(Circuit(units=units, root=pc.root, num_vars=pc.num_vars))


@pytest.mark.parametrize("family, k", [("categorical", 3), ("binomial", 4), ("gaussian", None)])
def test_evidence_rows_bit_identical_to_masked_assignment(family, k):
    rng = np.random.default_rng(16)
    if family == "categorical":
        table = np.log(rng.dirichlet(np.ones(k), 5))
        col = rng.integers(0, k, 50).astype(float)
    elif family == "binomial":
        table = rng.uniform(0.05, 0.95, (5, 1))
        col = rng.integers(0, k + 1, 50).astype(float)
    else:
        table = np.column_stack([rng.normal(0, 1, 5), rng.normal(0, 0.5, 5)])
        col = rng.normal(0, 2, 50)
    for missing in (0.0, 0.3, 1.0):
        x = col.copy()
        x[rng.random(50) < missing] = np.nan
        np.testing.assert_array_equal(evidence_rows(table, family, k, x), reference.evidence_rows(table, family, k, x))


def pairwise_frequencies_agree(pc: Circuit, draws: np.ndarray, k: int) -> None:
    """Every pair of variables: sampled joint frequency within 4 standard errors of log_forward."""
    n, d = draws.shape
    pairs = [(i, j, a, b) for i in range(d) for j in range(i + 1, d) for a in range(k) for b in range(k)]
    ev = np.full((len(pairs), d), np.nan)
    for row, (i, j, a, b) in enumerate(pairs):
        ev[row, [i, j]] = a, b
    p = np.exp(log_forward(pc, ev))
    for (i, j, a, b), pk in zip(pairs, p):
        freq = np.mean((draws[:, i] == a) & (draws[:, j] == b))
        assert abs(freq - pk) <= 4 * np.sqrt(pk * (1 - pk) / n), (i, j, a, b)


def three_latent_qpc():
    t = tree((None, 0, 0), (0, 1, 1, 2, 2), "categorical", 3)
    return HcltTensors.random(t, n=3, family="categorical", num_states=3, seed=17, scale=1.5).to_circuit()


def test_pairwise_frequencies_match_log_forward():
    pc = three_latent_qpc()
    draws = sample_pc(pc, 20_000, seed=18)
    assert not np.isnan(draws).any()
    pairwise_frequencies_agree(pc, draws, 3)
    # the unit-by-unit sampler passes the same check
    pairwise_frequencies_agree(pc, reference.sample_pc(pc, 2_000, seed=19), 3)


def test_binomial_and_gaussian_draw_means():
    b = CircuitBuilder()
    comps = [(0.2, 1.5, -0.4), (0.7, -1.0, 0.3)]
    prods = [
        b.add_product([b.add_input(0, InputDist("binomial", 6, np.array([p]))), b.add_input(1, InputDist("gaussian", params=np.array([mu, ls])))])
        for p, mu, ls in comps
    ]
    w = np.array([0.35, 0.65])
    pc = b.finish(root=b.add_sum(prods, np.log(w)))
    n = 20_000
    draws = sample_pc(pc, n, seed=20)
    means = [(6 * p, mu) for p, mu, _ in comps]
    second = [(6 * p * (1 - p) + (6 * p) ** 2, np.exp(2 * ls) + mu**2) for p, mu, ls in comps]
    for v in range(2):
        mean = w @ [m[v] for m in means]
        var = w @ [s[v] for s in second] - mean**2
        assert abs(draws[:, v].mean() - mean) <= 4 * np.sqrt(var / n)
    assert set(np.unique(draws[:, 0])) <= set(range(7))


class TestEmptyInput:
    def test_dataset_nll_refuses_no_rows(self):
        t = tree((None, 0), (0, 1, 1), "categorical", 3)
        nets = ParamNets.for_tree(t, "categorical", num_states=3, num_frequencies=2, hidden=(4,), decoder_hidden=(4,), seed=0)
        with pytest.raises(ValueError, match="no rows"):
            dataset_nll(nets, make_rule("trapezoidal", 4, -1.0, 1.0), np.empty((0, 3)))

    def test_zero_rows_give_empty_logliks_without_warning(self):
        t = tree((None, 0), (0, 1, 1), "categorical", 3)
        tensors = HcltTensors.random(t, n=4, family="categorical", num_states=3, seed=1)
        empty = np.empty((0, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert tensors.loglik(empty).shape == (0,)
            assert log_forward(tensors.to_circuit(), empty).shape == (0,)
