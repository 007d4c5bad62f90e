import json
import warnings

import numpy as np
import pytest
from scipy.stats import norm

from picirc import gaussian
from picirc.autodiff import Tape
from picirc.cli import run
from picirc.circuit import CircuitBuilder, InputDist, check_structure, deserialize, serialize, structurally_equal
from picirc.errors import NumericError, SizeError, UnsupportedStructureError
from picirc.materialize import (
    InputParamTensor,
    SumParamTensor,
    input_param_node,
    materialize_input_params,
    materialize_nested,
    materialize_qpc,
    materialize_sum_params,
    pic_tree_maps,
    streamed_loglik,
    sum_param_node,
)
from picirc.nets import ParamNets, _const_weights
from picirc.quadrature import make_rule
from picirc.runtime import log_forward, marginal
from picirc.structures import LatentTree, bn_to_pic, top_down_order
from picirc.training import batch_loglik_node, dataset_loglik, dataset_nll
from reference import decoder_forward

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


def small_nets(tree, family="categorical", k=3, seed=0):
    num_states = k if family != "gaussian" else None
    return ParamNets.for_tree(
        tree, family, num_states=num_states, num_frequencies=2, hidden=(6, 6), decoder_hidden=(6,), seed=seed
    )


def chain3():
    return neural_tree((None, 0, 1), (0, 1, 2))


def zeroed(nets):
    for a in nets.param_arrays().values():
        a[...] = 0.0
    return nets


def enumerate_mass(qpc, supports):
    grids = np.meshgrid(*[np.arange(s) for s in supports], indexing="ij")
    rows = np.column_stack([g.ravel() for g in grids]).astype(np.float64)
    return np.exp(log_forward(qpc, rows)).sum()


class TestSumParams:
    def test_constant_energy_gives_uniform_rows(self):
        tree = chain3()
        nets = zeroed(small_nets(tree))
        rule = make_rule("trapezoidal", 4, -1.0, 1.0)
        sp = materialize_sum_params(nets, rule.points, rule.weights)
        assert sp.s.shape == (3, 4, 4)
        expected = np.log(rule.weights / 2.0)
        for i in range(3):
            for j in range(4):
                np.testing.assert_allclose(sp.s[i, j], expected, atol=1e-14)

    def test_rows_logsumexp_to_zero(self):
        tree = chain3()
        rule = make_rule("trapezoidal", 16, -1.0, 1.0)
        for seed in range(3):
            nets = small_nets(tree, seed=seed)
            sp = materialize_sum_params(nets, rule.points, rule.weights)
            mass = np.log(np.exp(sp.s).sum(axis=2))
            np.testing.assert_allclose(mass, 0.0, atol=1e-12)

    def test_root_rows_are_broadcast(self):
        nets = small_nets(chain3(), seed=1)
        rule = make_rule("trapezoidal", 8, -1.0, 1.0)
        sp = materialize_sum_params(nets, rule.points, rule.weights)
        for j in range(1, 8):
            np.testing.assert_array_equal(sp.s[0, j], sp.s[0, 0])
        assert not np.array_equal(sp.s[1, 0], sp.s[1, 1])

    def test_matches_tape_path(self):
        tree = chain3()
        nets = small_nets(tree, seed=2)
        rule = make_rule("trapezoidal", 8, -1.0, 1.0)
        sp = materialize_sum_params(nets, rule.points, rule.weights)
        tape = Tape()
        pnodes = nets.register(tape)
        for i, net in enumerate(nets.energy):
            node = sum_param_node(tape, net, nets.net_pnodes(net, pnodes), rule.points, rule.weights)
            np.testing.assert_allclose(sp.s[i][: node.shape[0]], node.data, atol=1e-15)

    def test_normalizer_approaches_fine_rule_quadratically(self):
        # The rule-based normalizer of a peaked density should shrink its
        # error roughly 4x per point doubling (trapezoid order).
        tree = neural_tree((None,), (0,))
        nets = small_nets(tree, seed=3)
        net = nets.energy[0]
        for k in net.params:
            net.params[k] = net.params[k] * 3.0

        def lognorm(rule):
            tape = Tape()
            pnodes = net.register(tape)
            e = net.forward(tape, pnodes, rule.points).data[0]
            t = np.log(rule.weights) - e
            m = t.max()
            return m + np.log(np.exp(t - m).sum())

        fine = lognorm(make_rule("trapezoidal", 10001, -1.0, 1.0))
        errs = [abs(lognorm(make_rule("trapezoidal", n + 1, -1.0, 1.0)) - fine) for n in (16, 64)]
        assert errs[1] < errs[0] / 6.0
        assert errs[1] < 5e-4

    def test_records_one_normalizer_op(self):
        nets = small_nets(chain3(), seed=4)
        rule = make_rule("trapezoidal", 4, -1.0, 1.0)
        tape = Tape()
        net = nets.energy[1]
        sum_param_node(tape, net, nets.net_pnodes(net, nets.register(tape)), rule.points, rule.weights)
        ops = [rec[0] for rec in tape._records]
        assert ops == ["fourier_dense", "dense", "dense", "softplus", "reshape", "neg", "add", "log_normalize"]

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_nonfinite_energy_names_the_cell(self):
        nets = small_nets(chain3(), seed=5)
        nets.energy[1].params["w2"] = nets.energy[1].params["w2"] + np.inf
        rule = make_rule("trapezoidal", 4, -1.0, 1.0)
        with pytest.raises(NumericError, match=r"latent 1 at \(j=0, k=0\)"):
            materialize_sum_params(nets, rule.points, rule.weights)

    def test_rejects_points_outside_unit_interval(self):
        nets = small_nets(chain3(), seed=6)
        rule = make_rule("trapezoidal", 4, -2.0, 2.0)
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            materialize_sum_params(nets, rule.points, rule.weights)
        # abs(nan) > 1 is False: a NaN point once reached the energy and was reported as a non-finite energy
        with pytest.raises(ValueError, match=r"energy-model latents live on \[-1, 1\]"):
            materialize_sum_params(nets, np.array([0.0, np.nan]), np.ones(2))
        tape = Tape()
        net = nets.energy[1]
        with pytest.raises(ValueError, match=r"energy-model latents live on \[-1, 1\]"):
            sum_param_node(tape, net, nets.net_pnodes(net, nets.register(tape)), np.zeros(2), np.ones(2), np.array([np.nan]))


class TestInputParams:
    def test_shape_and_family_validity(self):
        tree = chain3()
        nets = small_nets(tree, family="categorical", k=5, seed=7)
        rule = make_rule("trapezoidal", 6, -1.0, 1.0)
        ip = materialize_input_params(nets, rule.points)
        assert ip.table.shape == (3, 6, 5)
        np.testing.assert_allclose(np.exp(ip.table).sum(axis=2), 1.0, atol=1e-9)

    def test_binomial_rows_interior(self):
        nets = small_nets(chain3(), family="binomial", k=7, seed=8)
        rule = make_rule("trapezoidal", 6, -1.0, 1.0)
        ip = materialize_input_params(nets, rule.points)
        assert ip.table.shape == (3, 6, 1)
        assert np.all(ip.table > 0) and np.all(ip.table < 1)

    def test_single_point_reduces_to_decoder_forward(self):
        nets = small_nets(chain3(), family="categorical", k=4, seed=9)
        ip = materialize_input_params(nets, np.array([0.37]))
        for j in range(3):
            np.testing.assert_allclose(ip.table[j, 0], decoder_forward(nets.decoder[j], 0.37), atol=1e-15)

    def test_matches_tape_path(self):
        nets = small_nets(chain3(), family="categorical", k=4, seed=10)
        z = np.linspace(-1, 1, 5)
        ip = materialize_input_params(nets, z)
        tape = Tape()
        pnodes = nets.register(tape)
        for j, net in enumerate(nets.decoder):
            node = input_param_node(tape, net, nets.net_pnodes(net, pnodes), z)
            np.testing.assert_array_equal(ip.table[j], node.data)

    def test_rejects_points_outside_unit_interval(self):
        # input_param_node holds the one check; a linear-Gaussian latent has none
        # of its own, so the nested mode reaches the decoder with the selector's points
        nets = small_nets(neural_tree((None,), (0,), k=2), k=2, seed=11)
        net = nets.decoder[0]
        tape = Tape()
        outside = make_rule("trapezoidal", 3, -2.0, 2.0)
        with pytest.raises(ValueError, match=r"decoder latents live on \[-1, 1\]"):
            input_param_node(tape, net, nets.net_pnodes(net, nets.register(tape)), outside.points)
        with pytest.raises(ValueError, match=r"decoder latents live on \[-1, 1\]"):
            materialize_input_params(nets, np.array([0.0, 1.5]))
        # abs(nan) > 1 is False: a NaN point once gave a NaN row
        with pytest.raises(ValueError, match=r"decoder latents live on \[-1, 1\]"):
            materialize_input_params(nets, np.array([0.0, np.nan]))
        with pytest.raises(ValueError, match=r"decoder latents live on \[-1, 1\]"):
            materialize_nested(gaussian_latent_over_neural_input(), constant_selector(outside), nets=nets)


def tensors_for(nets, rule):
    sp = materialize_sum_params(nets, rule.points, rule.weights)
    ip = materialize_input_params(nets, rule.points)
    return sp, ip


class TestMaterializeQpc:
    def test_one_latent_uniform_conditional(self):
        tree = neural_tree((None,), (0,), k=2)
        nets = zeroed(small_nets(tree, k=2))
        rule = make_rule("trapezoidal", 2, -1.0, 1.0)
        qpc = materialize_qpc(bn_to_pic(tree), rule, tensors_for(nets, rule))
        root = qpc.units[qpc.root]
        assert root.kind == "sum" and len(root.children) == 2
        np.testing.assert_allclose(root.weights, np.log([0.5, 0.5]), atol=1e-14)

    def test_chain_unit_and_edge_counts(self):
        tree = chain3()
        nets = small_nets(tree, seed=12)
        n = 3
        rule = make_rule("trapezoidal", n, -1.0, 1.0)
        qpc = materialize_qpc(bn_to_pic(tree), rule, tensors_for(nets, rule))
        kinds = {}
        for u in qpc.units:
            kinds[u.kind] = kinds.get(u.kind, 0) + 1
        assert kinds == {"input": 3 * n, "product": 2 * n, "sum": 2 * n + 1}
        assert qpc.num_edges == 2 * n * 2 + (2 * n + 1) * n
        assert not qpc.is_symbolic
        qpc.validate()

    def test_total_mass_binary_pair(self):
        tree = neural_tree((None, 0), (0, 1), k=2)
        nets = small_nets(tree, k=2, seed=13)
        rule = make_rule("trapezoidal", 8, -1.0, 1.0)
        qpc = materialize_qpc(bn_to_pic(tree), rule, tensors_for(nets, rule))
        np.testing.assert_allclose(enumerate_mass(qpc, (2, 2)), 1.0, atol=1e-9)

    def test_total_mass_four_categorical_vars(self):
        tree = neural_tree((None, 0), (0, 0, 1, 1), k=3)
        nets = small_nets(tree, k=3, seed=14)
        rule = make_rule("trapezoidal", 16, -1.0, 1.0)
        qpc = materialize_qpc(bn_to_pic(tree), rule, tensors_for(nets, rule))
        np.testing.assert_allclose(enumerate_mass(qpc, (3, 3, 3, 3)), 1.0, atol=1e-9)
        np.testing.assert_allclose(marginal(qpc, np.full((2, 4), np.nan)), 0.0, atol=1e-9)

    def test_structure_reports_all_true(self):
        tree = neural_tree((None, 0, 0, 1), (0, 1, 2, 3), k=2)
        nets = small_nets(tree, k=2, seed=15)
        rule = make_rule("trapezoidal", 4, -1.0, 1.0)
        qpc = materialize_qpc(bn_to_pic(tree), rule, tensors_for(nets, rule))
        report = check_structure(qpc)
        assert report.smooth and report.decomposable and report.structured

    def test_round_trip_re_passes_structure_check(self):
        tree = neural_tree((None, 0, 1, 1), (0, 1, 2, 3), k=2)
        nets = small_nets(tree, k=2, seed=16)
        rule = make_rule("trapezoidal", 3, -1.0, 1.0)
        qpc = materialize_qpc(bn_to_pic(tree), rule, tensors_for(nets, rule))
        back = deserialize(serialize(qpc))
        assert structurally_equal(qpc, back)
        report = check_structure(back)
        assert report.smooth and report.decomposable and report.structured

    def test_gaussian_closed_form_matches_fused_evaluator(self):
        model = gaussian.random_model(6, seed=3)
        rules = gaussian.domain_rules(model, 12)
        pic = gaussian.to_pic(model)
        qpc = materialize_qpc(pic, rules)
        rng = np.random.default_rng(0)
        x = gaussian.sample(model, 32, seed=1)
        np.testing.assert_allclose(
            log_forward(qpc, x), gaussian.qpc_loglik(model, rules, x), rtol=1e-10, atol=1e-10
        )
        del rng

    def test_errors(self):
        tree = chain3()
        pic = bn_to_pic(tree)
        nets = small_nets(tree, seed=17)
        rule = make_rule("trapezoidal", 4, -1.0, 1.0)
        sp, ip = tensors_for(nets, rule)
        with pytest.raises(ValueError, match="no quadrature rule for latents"):
            materialize_qpc(pic, {0: rule, 1: rule}, (sp, ip))
        other = make_rule("trapezoidal", 5, -1.0, 1.0)
        with pytest.raises(ValueError, match="differs from the points"):
            materialize_qpc(pic, other, (sp, ip))
        with pytest.raises(ValueError, match="neural input conditionals"):
            materialize_qpc(pic, rule)
        qpc = materialize_qpc(pic, rule, (sp, ip))
        with pytest.raises(UnsupportedStructureError, match="no integral units"):
            materialize_qpc(qpc, rule, (sp, ip))

    def test_rejects_shared_units(self):
        from picirc.circuit import CircuitBuilder, InputDist

        builder = CircuitBuilder()
        shared = builder.add_input(0, InputDist("categorical", num_states=2, conditional={"type": "neural", "net": 0, "family": "categorical", "k": 2}))
        i1 = builder.add_integral(shared, var=0, parent=None, cond=NEURAL)
        i2 = builder.add_integral(shared, var=1, parent=None, cond=NEURAL)
        pic = builder.finish(root=builder.add_product([i1, i2]))
        rule = make_rule("trapezoidal", 3, -1.0, 1.0)
        with pytest.raises(UnsupportedStructureError, match="tree-shaped"):
            materialize_qpc(pic, rule)


def constant_selector(rule):
    return lambda latent, parent_value: rule


def nested_inputs(qpc):
    """(observable, point index, params) of every input unit of a nested QPC, read down from its root.

    Child j of a sum unit sits under its latent's point j; it is one part, or
    a product of parts, each an input unit or the sum unit of a child latent.
    """
    out = []

    def down(uid):
        for j, c in enumerate(qpc.units[uid].children):
            below = qpc.units[c]
            for k in below.children if below.kind == "product" else (c,):
                part = qpc.units[k]
                if part.kind == "input":
                    out.append((part.var, j, part.dist.params))
                else:
                    down(k)

    down(qpc.root)
    return out


def gaussian_latent_over_neural_input():
    """One linear-Gaussian latent over one neural categorical(2) observable."""
    b = CircuitBuilder()
    leaf = b.add_input(0, InputDist("categorical", num_states=2, conditional={"type": "neural", "net": 0, "family": "categorical", "k": 2}))
    return b.finish(root=b.add_integral(leaf, var=0, parent=None, cond={"type": "linear-gaussian", "b": 0.0, "sigma": 1.0}))


def linear_gaussian_chain(parent_of_2):
    """Chain z0 -> z1 -> z2 with x_j below z_j; latent 2's integral sits
    below latent 1 and declares ``parent_of_2`` as its parent."""
    lat = lambda a, b, s: {"type": "linear-gaussian", "a": a, "b": b, "sigma": s}
    obs = InputDist("gaussian", conditional={"type": "linear-gaussian", "c": 1.0, "d": 0.0, "tau": 0.5})
    b = CircuitBuilder()
    xs = [b.add_input(j, obs) for j in range(3)]
    z2 = b.add_integral(xs[2], var=2, parent=parent_of_2, cond=lat(0.8, 0.0, 0.6))
    z1 = b.add_integral(b.add_product([xs[1], z2]), var=1, parent=0, cond=lat(0.8, 0.0, 0.6))
    return b.finish(root=b.add_integral(b.add_product([xs[0], z1]), var=0, parent=None, cond=lat(0.0, 0.0, 1.0)))


def childless_latent_pic():
    """Declared maps ((None, 0, 0), (0, 2)): latent 1, a child of 0, holds
    only latent 2, which names 0 as its parent."""
    tree = neural_tree((None, 0, 0), (0, 2))
    b = CircuitBuilder()
    obs = [b.add_input(j, InputDist("categorical", num_states=3, conditional=tree.obs_cond[j])) for j in range(2)]
    z2 = b.add_integral(obs[1], var=2, parent=0, cond=NEURAL)
    z1 = b.add_integral(z2, var=1, parent=0, cond=NEURAL)
    return b.finish(root=b.add_integral(b.add_product([obs[0], z1]), var=0, parent=None, cond=NEURAL))


def mismatched_pic(name):
    """(pic, nets, rule, x) for a circuit whose latent 2 declares parent 0 but sits below latent 1."""
    if name == "gaussian-chain":
        nets = small_nets(neural_tree((None, 0, 0), (0, 1, 2), family="gaussian", k=None), family="gaussian", k=None)
        return linear_gaussian_chain(0), nets, make_rule("trapezoidal", 32, -6.0, 6.0), np.array([[0.5, 1.0, -0.3]])
    nets = small_nets(neural_tree((None, 0, 0), (0, 2)), seed=2)
    return childless_latent_pic(), nets, make_rule("trapezoidal", 4, -1.0, 1.0), np.zeros((3, 2))


class TestReadPic:
    """Every materializer reads the latent tree from the circuit's nesting."""

    @pytest.mark.parametrize(
        "name, caller",
        [(name, caller) for name in ("gaussian-chain", "childless") for caller in ("materialize_qpc", "materialize_nested", "streamed_loglik", "pic_tree_maps")],
    )
    def test_declared_parent_must_match_nesting(self, name, caller):
        pic, nets, rule, x = mismatched_pic(name)
        params = None if name == "gaussian-chain" else tensors_for(nets, rule)
        calls = {
            "materialize_qpc": lambda: materialize_qpc(pic, rule, params),
            "materialize_nested": lambda: materialize_nested(pic, constant_selector(rule), nets=nets),
            "streamed_loglik": lambda: streamed_loglik(pic, rule, nets, x),
            "pic_tree_maps": lambda: pic_tree_maps(pic),
        }
        with pytest.raises(UnsupportedStructureError, match="latent 2 declares parent 0, but its integral unit sits below latent 1"):
            calls[caller]()

    def test_well_declared_chain_matches_closed_form(self):
        pic = linear_gaussian_chain(1)
        assert pic_tree_maps(pic) == ((None, 0, 1), (0, 1, 2))
        x = np.array([[0.5, 1.0, -0.3], [-1.0, 0.2, 0.7]])
        qpc = materialize_qpc(pic, make_rule("trapezoidal", 32, -6.0, 6.0))
        exact = gaussian.exact_loglik(gaussian.model_from_pic(pic), x)
        np.testing.assert_allclose(log_forward(qpc, x), exact, rtol=0, atol=1e-6)

    def test_observable_below_no_integral(self):
        # product(integral_0(x0), x1) with x1 a fixed input: no latent owns x1
        tree = neural_tree((None,), (0, 0), k=3)
        b = CircuitBuilder()
        z0 = b.add_integral(b.add_input(0, InputDist("categorical", num_states=3, conditional=tree.obs_cond[0])), var=0, parent=None, cond=NEURAL)
        fixed = b.add_input(1, InputDist("categorical", num_states=3, params=np.log(np.full(3, 1.0 / 3.0))))
        pic = b.finish(root=b.add_product([z0, fixed]))
        rule = make_rule("trapezoidal", 4, -1.0, 1.0)
        nets = small_nets(tree)
        with pytest.raises(UnsupportedStructureError, match="input unit 2 is not below any integral unit"):
            streamed_loglik(pic, rule, nets, np.zeros((2, 2)))
        with pytest.raises(UnsupportedStructureError, match="input unit 2 is not below any integral unit"):
            materialize_qpc(pic, rule, tensors_for(nets, rule))

    def test_sum_unit_below_an_integral_rejected(self):
        tree = neural_tree((None,), (0,), k=2)
        b = CircuitBuilder()
        xs = [b.add_input(0, InputDist("categorical", num_states=2, conditional=tree.obs_cond[0])) for _ in range(2)]
        pic = b.finish(root=b.add_integral(b.add_sum(xs, np.log([0.5, 0.5])), var=0, parent=None, cond=NEURAL))
        rule = make_rule("trapezoidal", 4, -1.0, 1.0)
        for call in (lambda: materialize_qpc(pic, rule), lambda: materialize_nested(pic, constant_selector(rule)), lambda: pic_tree_maps(pic)):
            with pytest.raises(UnsupportedStructureError, match="no sum units; unit 2 is one"):
                call()

    def test_nested_products_give_one_product_region(self):
        # integral_0(product(x0, product(x1, x2))) builds the QPC of integral_0(product(x0, x1, x2))
        tree = neural_tree((None,), (0, 0, 0), k=2)
        nets = small_nets(tree, k=2, seed=3)
        rule = make_rule("trapezoidal", 4, -1.0, 1.0)
        b = CircuitBuilder()
        xs = [b.add_input(j, InputDist("categorical", num_states=2, conditional=tree.obs_cond[j])) for j in range(3)]
        body = b.add_product([xs[0], b.add_product([xs[1], xs[2]])])
        nested = materialize_qpc(b.finish(root=b.add_integral(body, var=0, parent=None, cond=NEURAL)), rule, tensors_for(nets, rule))
        flat = materialize_qpc(bn_to_pic(tree), rule, tensors_for(nets, rule))
        assert structurally_equal(nested, flat)


def gaussian_pic_json(key: str, value: float) -> str:
    """``gaussian.to_pic(random_model(4, 0))``'s JSON with latent 1's sigma or observable 1's tau set to value."""
    doc = json.loads(serialize(gaussian.to_pic(gaussian.random_model(4, 0))))
    for rec in doc["units"]:
        if key == "sigma" and rec["kind"] == "integral" and rec["latent"]["var"] == 1:
            rec["latent"]["cond"]["sigma"] = repr(value)
        if key == "tau" and rec["kind"] == "input" and rec["scope"] == [1]:
            rec["dist"]["conditional"]["tau"] = repr(value)
    return json.dumps(doc)


@pytest.mark.parametrize("key, what", [("sigma", "latent 1"), ("tau", "observable 1")])
@pytest.mark.parametrize("value", [-1.0, 0.0, np.nan, np.inf])
class TestLinearGaussianStddev:
    """A sigma or tau that is not positive and finite is refused when the circuit is read, before any log."""

    def test_materializers_name_the_node(self, key, what, value):
        pic = deserialize(gaussian_pic_json(key, value))
        rule = make_rule("trapezoidal", 4, -3.0, 3.0)
        message = f"^{what}: linear-gaussian {key} must be positive and finite, got {value}$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: materialize_qpc(pic, rule), lambda: materialize_nested(pic, constant_selector(rule)), lambda: gaussian.model_from_pic(pic)):
                with pytest.raises(ValueError, match=message):
                    call()

    def test_cli_materialize_exits_1(self, key, what, value, tmp_path, capsys):
        path = tmp_path / "pic.json"
        path.write_text(gaussian_pic_json(key, value))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["materialize", "--pic", str(path), "--n", "4", "--out", str(tmp_path / "q.json")]) == 1
        assert capsys.readouterr().err == f"error: {what}: linear-gaussian {key} must be positive and finite, got {value}\n"
        assert not (tmp_path / "q.json").exists()


class TestMaterializeNested:
    def test_constant_selector_matches_static_mode_neural(self):
        tree = neural_tree((None, 0), (0, 1), k=3)
        pic = bn_to_pic(tree)
        nets = small_nets(tree, k=3, seed=20)
        rule = make_rule("trapezoidal", 4, -1.0, 1.0)
        static = materialize_qpc(pic, rule, tensors_for(nets, rule))
        nested = materialize_nested(pic, constant_selector(rule), nets=nets)
        rng = np.random.default_rng(2)
        x = rng.integers(0, 3, (11, 2)).astype(np.float64)
        np.testing.assert_allclose(log_forward(nested, x), log_forward(static, x), atol=1e-12)

    def test_constant_selector_matches_static_mode_gaussian(self):
        model = gaussian.random_model(4, seed=9)
        pic = gaussian.to_pic(model)
        rule = make_rule("trapezoidal", 6, -4.0, 4.0)
        static = materialize_qpc(pic, rule)
        nested = materialize_nested(pic, constant_selector(rule))
        x = gaussian.sample(model, 16, seed=4)
        np.testing.assert_allclose(log_forward(nested, x), log_forward(static, x), atol=1e-12)

    def test_depth_two_exact_counts(self):
        # Chain with the only observable at the leaf: the root sum gets one
        # child sum per point, each child sum one input per point.
        tree = neural_tree((None, 0), (1,), k=2)
        pic = bn_to_pic(tree)
        nets = small_nets(tree, k=2, seed=21)
        rule = make_rule("trapezoidal", 3, -1.0, 1.0)
        qpc = materialize_nested(pic, constant_selector(rule), nets=nets)
        kinds = {}
        for u in qpc.units:
            kinds[u.kind] = kinds.get(u.kind, 0) + 1
        assert kinds == {"sum": 1 + 3, "input": 3 * 3}
        root = qpc.units[qpc.root]
        assert root.kind == "sum" and len(root.children) == 3
        assert all(len(qpc.units[c].children) == 3 for c in root.children)

    def test_depth_two_with_observables_at_both_levels(self):
        tree = neural_tree((None, 0), (0, 1), k=2)
        pic = bn_to_pic(tree)
        nets = small_nets(tree, k=2, seed=22)
        rule = make_rule("trapezoidal", 3, -1.0, 1.0)
        qpc = materialize_nested(pic, constant_selector(rule), nets=nets)
        kinds = {}
        for u in qpc.units:
            kinds[u.kind] = kinds.get(u.kind, 0) + 1
        assert kinds == {"sum": 4, "product": 3, "input": 3 + 9}

    def test_gaussian_adaptive_selector_matches_nested_loop_oracle(self):
        model = gaussian.random_model(4, seed=11)
        pic = gaussian.to_pic(model)
        n = 8

        def selector(latent, parent_value):
            mean = model.b[latent] if parent_value is None else model.a[latent] * parent_value + model.b[latent]
            half = 3.0 * model.sigma[latent]
            return make_rule("gauss_legendre", n, mean - half, mean + half)

        qpc = materialize_nested(pic, selector)
        x = gaussian.sample(model, 5, seed=12)

        def oracle_row(row):
            def down(latent, parent_value):
                rule = selector(latent, parent_value)
                mean = model.b[latent] if parent_value is None else model.a[latent] * parent_value + model.b[latent]
                total = 0.0
                for zk, wk in zip(rule.points, rule.weights):
                    val = wk * norm.pdf(zk, mean, model.sigma[latent])
                    for j in (j for j, p in enumerate(model.obs_parent) if p == latent):
                        val *= norm.pdf(row[j], model.c[j] * zk + model.d[j], model.tau[j])
                    for c in (c for c, p in enumerate(model.latent_parent) if p == latent):
                        val *= down(c, zk)
                    total += val
                return total

            return np.log(down(model.root, None))

        expected = np.array([oracle_row(r) for r in x])
        np.testing.assert_allclose(log_forward(qpc, x), expected, atol=1e-9, rtol=1e-9)

    def test_depth_guard_reports_projected_size(self):
        tree = neural_tree((None, 0, 1, 2), (0, 1, 2, 3), k=2)
        pic = bn_to_pic(tree)
        nets = small_nets(tree, k=2, seed=23)
        rule = make_rule("trapezoidal", 4, -1.0, 1.0)
        with pytest.raises(SizeError, match=r"4 latent levels .* 340 sum units"):
            materialize_nested(pic, constant_selector(rule), nets=nets)
        qpc = materialize_nested(pic, constant_selector(rule), nets=nets, max_levels=4)
        assert sum(u.kind == "sum" for u in qpc.units) == 1 + 4 + 16 + 64

    @pytest.mark.parametrize("family, k", [("categorical", 4), ("binomial", 5), ("gaussian", None)])
    def test_inputs_are_rows_of_the_static_decoder_table(self, family, k):
        tree = neural_tree((None, 0), (0, 1, 1), family=family, k=k)
        nets = small_nets(tree, family=family, k=k, seed=25)
        rule = make_rule("gauss_legendre", 5, -1.0, 1.0)
        table = materialize_input_params(nets, rule.points).table
        inputs = nested_inputs(materialize_nested(bn_to_pic(tree), constant_selector(rule), nets=nets))
        assert len(inputs) == 5 + 2 * 5 * 5
        for var, j, params in inputs:
            np.testing.assert_allclose(params, table[var, j], rtol=0, atol=1e-15)

    def test_linear_gaussian_inputs_equal_the_static_ones_bitwise(self):
        model = gaussian.random_model(6, seed=13)
        pic = gaussian.to_pic(model)
        rules = gaussian.domain_rules(model, 4)
        static = {}
        for u in materialize_qpc(pic, rules).units:
            if u.kind == "input":
                static.setdefault(u.var, []).append(u.dist.params)
        inputs = nested_inputs(materialize_nested(pic, lambda latent, parent_value: rules[latent]))
        levels = {}
        for i in top_down_order(model.latent_parent):
            levels[i] = levels.get(model.latent_parent[i], 0) + 1
        assert len(inputs) == sum(4 ** levels[p] for p in model.obs_parent)
        for var, j, params in inputs:
            np.testing.assert_array_equal(params, static[var][j])

    def test_sum_rows_are_sum_param_node_at_each_parent_point(self):
        tree = neural_tree((None, 0), (0, 1), k=3)
        nets = small_nets(tree, k=3, seed=26)

        def selector(latent, parent_value):
            if parent_value is None:
                return make_rule("gauss_legendre", 4, -1.0, 1.0)
            return make_rule("trapezoidal", 5, max(-1.0, parent_value - 0.5), min(1.0, parent_value + 0.5))

        qpc = materialize_nested(bn_to_pic(tree), selector, nets=nets)
        tape = Tape()
        pnodes = nets.register(tape)

        def row(latent, rule, parent_z=None):
            net = nets.energy[latent]
            return sum_param_node(tape, net, nets.net_pnodes(net, pnodes), rule.points, rule.weights, parent_z).data[0]

        root, root_rule = qpc.units[qpc.root], selector(0, None)
        assert np.array_equal(root.weights, row(0, root_rule))
        for product, zj in zip(root.children, root_rule.points, strict=True):
            child = next(qpc.units[c] for c in qpc.units[product].children if qpc.units[c].kind == "sum")
            assert np.array_equal(child.weights, row(1, selector(1, zj), np.array([zj])))

    @pytest.mark.parametrize("nets_tree", [(1, None, 1), (None, 0, 1)])
    def test_nets_of_another_tree_rejected(self, nets_tree):
        # (1, None, 1) once raised IndexError; (None, 0, 1) silently built the circuit from another tree's nets
        pic = bn_to_pic(neural_tree((None, 0, 0), (0, 1, 2)))
        nets = small_nets(neural_tree(nets_tree, (0, 1, 2)))
        with pytest.raises(ValueError, match=r"circuit's latent tree \(\(None, 0, 0\), \(0, 1, 2\)\) differs from the nets' tree"):
            materialize_nested(pic, constant_selector(make_rule("trapezoidal", 3, -1.0, 1.0)), nets=nets)

    def test_neural_pic_without_nets_names_them(self):
        rule = make_rule("trapezoidal", 3, -1.0, 1.0)
        with pytest.raises(ValueError, match="need the parameter nets"):
            materialize_nested(bn_to_pic(chain3()), constant_selector(rule))
        with pytest.raises(ValueError, match="neural input conditionals need the parameter nets"):
            materialize_nested(gaussian_latent_over_neural_input(), constant_selector(rule))

    def test_rejects_sum_units(self):
        tree = chain3()
        pic = bn_to_pic(tree)
        nets = small_nets(tree, seed=24)
        rule = make_rule("trapezoidal", 3, -1.0, 1.0)
        qpc = materialize_qpc(pic, rule, tensors_for(nets, rule))
        with pytest.raises(UnsupportedStructureError, match="circuit has no integral units; nothing to materialize"):
            materialize_nested(qpc, constant_selector(rule), nets=nets)


def family_data(family, k, rows, cols, seed):
    rng = np.random.default_rng(seed)
    if family == "gaussian":
        return rng.normal(0.0, 1.5, (rows, cols))
    top = k if family == "binomial" else k - 1
    return rng.integers(0, top + 1, (rows, cols)).astype(np.float64)


FAMILY_STATES = [("categorical", 4), ("binomial", 5), ("gaussian", None)]


def mismatched_decoders(family, k):
    """A binomial:10 circuit and nets whose decoders are ``family``:``k``."""
    pic = bn_to_pic(neural_tree((None, 0), (0, 1), family="binomial", k=10))
    return pic, small_nets(neural_tree((None, 0), (0, 1), family=family, k=k), family=family, k=k)


MISMATCHES = pytest.mark.parametrize("family,k", [("binomial", 5), ("categorical", 4)])


class TestDecoderSpecs:
    """Each entry point refuses decoders of another family or state count than the circuit's inputs."""

    @MISMATCHES
    def test_materialize_qpc(self, family, k):
        pic, nets = mismatched_decoders(family, k)
        rule = make_rule("trapezoidal", 4, -1.0, 1.0)
        with pytest.raises(ValueError, match=f"observable 0 reads binomial:10 in the circuit, but the decoders give {family}:{k}"):
            materialize_qpc(pic, rule, tensors_for(nets, rule))

    @MISMATCHES
    def test_materialize_nested(self, family, k):
        pic, nets = mismatched_decoders(family, k)
        with pytest.raises(ValueError, match=f"reads binomial:10 in the circuit, but the decoders give {family}:{k}"):
            materialize_nested(pic, constant_selector(make_rule("trapezoidal", 4, -1.0, 1.0)), nets=nets)

    @MISMATCHES
    def test_streamed_loglik(self, family, k):
        pic, nets = mismatched_decoders(family, k)
        with pytest.raises(ValueError, match=f"reads binomial:10 in the circuit, but the decoders give {family}:{k}"):
            streamed_loglik(pic, make_rule("trapezoidal", 4, -1.0, 1.0), nets, np.zeros((3, 2)))


class TestStreamedLoglik:
    @pytest.mark.parametrize("family, k", FAMILY_STATES)
    def test_matches_explicit_circuit(self, family, k):
        tree = neural_tree((None, 0, 0), (0, 1, 1, 2), family=family, k=k)
        pic = bn_to_pic(tree)
        nets = small_nets(tree, family=family, k=k, seed=30)
        rule = make_rule("trapezoidal", 8, -1.0, 1.0)
        qpc = materialize_qpc(pic, rule, tensors_for(nets, rule))
        x = family_data(family, k, 40, 4, 3)
        x[np.random.default_rng(4).random(x.shape) < 0.25] = np.nan
        np.testing.assert_allclose(
            streamed_loglik(pic, rule, nets, x), log_forward(qpc, x), rtol=1e-10, atol=1e-10
        )

    @pytest.mark.parametrize("family, k", FAMILY_STATES)
    def test_is_the_rows_dataset_nll_averages_bitwise(self, family, k):
        # more rows than one 4096-row chunk; a row's bits depend neither on its chunk nor on tape against ndarray
        tree = neural_tree((None, 0, 0), (0, 1, 1, 2), family=family, k=k)
        nets = small_nets(tree, family=family, k=k, seed=32)
        rule = make_rule("trapezoidal", 8, -1.0, 1.0)
        x = family_data(family, k, 4200, 4, 6)
        x[np.random.default_rng(7).random(x.shape) < 0.25] = np.nan
        streamed = streamed_loglik(bn_to_pic(tree), rule, nets, x)
        assert np.array_equal(streamed, dataset_loglik(nets, rule, x, chunk=64))
        assert dataset_nll(nets, rule, x) == -streamed.mean()
        tape = Tape()
        assert np.array_equal(streamed, batch_loglik_node(tape, nets, _const_weights(tape, nets), rule, x).data)

    @pytest.mark.parametrize("family, k, value", [("categorical", 4, 4.0), ("binomial", 5, 2.5), ("gaussian", None, np.inf)])
    def test_out_of_support_evidence_raises(self, family, k, value):
        tree = neural_tree((None, 0), (0, 1), family=family, k=k)
        nets = small_nets(tree, family=family, k=k, seed=31)
        x = family_data(family, k, 3, 2, 5)
        x[1, 1] = value
        with pytest.raises(ValueError, match="variable 1"):
            streamed_loglik(bn_to_pic(tree), make_rule("trapezoidal", 4, -1.0, 1.0), nets, x)

    def test_nets_of_another_tree_rejected(self):
        # same sizes, other tree: the root prior would come from a child's conditional row
        pic = bn_to_pic(neural_tree((None, 0, 0), (0, 1, 2)))
        nets = small_nets(neural_tree((1, None, 1), (0, 1, 2)))
        with pytest.raises(ValueError, match=r"circuit's latent tree \(\(None, 0, 0\), \(0, 1, 2\)\) differs from the nets' tree \(\(1, None, 1\)"):
            streamed_loglik(pic, make_rule("trapezoidal", 4, -1.0, 1.0), nets, np.zeros((2, 3)))

    def test_observable_read_by_two_input_units_rejected(self):
        # product(x0, x0) under one integral is not decomposable: both paths must refuse it
        tree = neural_tree((None,), (0,), k=3)
        builder = CircuitBuilder()
        dist = InputDist("categorical", num_states=3, conditional=tree.obs_cond[0])
        body = builder.add_product([builder.add_input(0, dist), builder.add_input(0, dist)])
        pic = builder.finish(root=builder.add_integral(body, var=0, parent=None, cond=NEURAL))
        rule = make_rule("trapezoidal", 8, -1.0, 1.0)
        with pytest.raises(UnsupportedStructureError):
            materialize_qpc(pic, rule, tensors_for(small_nets(tree), rule))
        with pytest.raises(UnsupportedStructureError, match="exactly one input unit"):
            pic_tree_maps(pic)
        with pytest.raises(UnsupportedStructureError, match="exactly one input unit"):
            streamed_loglik(pic, rule, small_nets(tree), np.array([[0.0], [1.0], [2.0]]))

    def test_tree_maps_recovered_from_circuit(self):
        tree = neural_tree((None, 0, 0), (0, 1, 1, 2), k=4)
        latent_parent, obs_parent = pic_tree_maps(bn_to_pic(tree))
        assert latent_parent == (None, 0, 0)
        assert obs_parent == (0, 1, 1, 2)
