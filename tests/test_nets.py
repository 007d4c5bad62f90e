import json

import numpy as np
import pytest

from picirc import autodiff as ad
from picirc.autodiff import Tape
from picirc.errors import SchemaError
from picirc.materialize import input_param_node
from picirc.nets import (
    DecoderNet,
    EnergyNet,
    FourierFeatureLayer,
    ParamNets,
    _const_weights,
    load_checkpoint,
    save_checkpoint,
)
from picirc.quadrature import make_rule
from picirc.structures import LatentTree
from picirc.training import HcltTensors
from reference import decoder_forward, energy_forward


def small_tree():
    # Z0 -> {Z1, Z2}, Z1 -> Z3; one observable per latent.
    return LatentTree(
        latent_parent=(None, 0, 0, 1),
        obs_parent=(0, 1, 2, 3),
        latent_cond=tuple({"type": "neural"} for _ in range(4)),
        obs_cond=tuple({"type": "neural"} for _ in range(4)),
    )


def batch_decoder(net, z):
    tape = Tape()
    pnodes = net.register(tape)
    out = net.squash(net.forward(tape, pnodes, tape.const(z.reshape(-1, 1))))
    return out.data


def batch_energy(net, x):
    tape = Tape()
    pnodes = net.register(tape)
    return net.forward(tape, pnodes, tape.const(x)).data


def features(layer, x):
    """Fourier features of one input point."""
    tape = Tape()
    return layer.forward(tape, tape.const(np.reshape(x, (1, layer.input_dim)))).data[0]


def frequencies(nets):
    return {net.name: net.ffl.frequencies for net in (*nets.energy, *nets.decoder)}


def grid_points(child, parent):
    """The energy grid's points: every child value against each parent value in turn."""
    return np.column_stack([np.tile(child, len(parent)), np.repeat(parent, len(child))])


class TestFourierFeatures:
    def test_zero_input_gives_alternating_ones_and_zeros(self):
        layer = FourierFeatureLayer(2, 5, rng=0)
        feats = features(layer, [0.0, 0.0])
        expected = np.tile([1.0, 0.0], 5)
        np.testing.assert_array_equal(feats, expected)

    def test_quarter_period_projection(self):
        # One frequency with f.x = 0.25 puts the phase at pi/2.
        layer = FourierFeatureLayer(1, 1, rng=0)
        layer.frequencies = np.array([[0.25]])
        feats = features(layer, [1.0])
        np.testing.assert_allclose(feats, [np.cos(np.pi / 2), 1.0], atol=1e-15)

    def test_matches_interleaved_numpy_formula(self):
        rng = np.random.default_rng(7)
        layer = FourierFeatureLayer(3, 8, scale=1.5, rng=11)
        for _ in range(5):
            x = rng.uniform(-1, 1, 3)
            proj = 2 * np.pi * (x @ layer.frequencies)
            expected = np.empty(16)
            expected[0::2] = np.cos(proj)
            expected[1::2] = np.sin(proj)
            np.testing.assert_allclose(features(layer, x), expected, atol=1e-14)

    @pytest.mark.parametrize(
        "points",
        [
            lambda rng: grid_points(make_rule("trapezoidal", 64).points, make_rule("trapezoidal", 64).points),
            lambda rng: make_rule("gauss_legendre", 512).points[:, None],
            lambda rng: grid_points(make_rule("gauss_legendre", 512).points, make_rule("gauss_legendre", 512).points[::32]),
            lambda rng: rng.choice([-1.0, -0.25, 0.0, 0.5, 1.0], (300, 2)),
            lambda rng: rng.uniform(-1, 1, (300, 2)),
        ],
        ids=["trapezoidal-64-grid", "gauss-legendre-512", "gauss-legendre-512-grid", "repeated-points", "random-points"],
    )
    def test_angle_addition_matches_direct_projection(self, points):
        x = points(np.random.default_rng(8))
        layer = FourierFeatureLayer(x.shape[1], 32, rng=12)
        proj = x @ (2 * np.pi * layer.frequencies)
        tape = Tape()
        feats = layer.forward(tape, tape.const(x))
        assert not feats.needs_grad and feats.shape == (len(x), 64)
        np.testing.assert_allclose(feats.data[:, 0::2], np.cos(proj), rtol=0, atol=1e-13)
        np.testing.assert_allclose(feats.data[:, 1::2], np.sin(proj), rtol=0, atol=1e-13)

    def test_refuses_inputs_that_need_a_gradient(self):
        layer = FourierFeatureLayer(2, 4, rng=0)
        tape = Tape()
        with pytest.raises(ValueError, match="constant inputs"):
            layer.forward(tape, tape.param("x", np.zeros((3, 2))))
        with pytest.raises(ValueError, match=r"shape \(R, 2\)"):
            layer.forward(tape, tape.const(np.zeros((3, 1))))

    def test_output_dim_and_frozen_frequencies(self):
        layer = FourierFeatureLayer(2, 32, rng=3)
        assert layer.output_dim == 64
        with pytest.raises(ValueError):
            layer.frequencies[0, 0] = 9.9


class TestEnergyNet:
    def test_zero_weights_give_log_two_everywhere(self):
        net = EnergyNet(0, 2, rng=5)
        for k in net.params:
            net.params[k] = np.zeros_like(net.params[k])
        rng = np.random.default_rng(0)
        for _ in range(10):
            val = energy_forward(net, rng.uniform(-1, 1), rng.uniform(-1, 1))
            np.testing.assert_allclose(val, np.log(2.0), rtol=1e-15)

    def test_energies_are_nonnegative(self):
        rng = np.random.default_rng(1)
        net = EnergyNet(0, 2, num_frequencies=4, hidden=(8, 8), rng=2)
        x = rng.uniform(-1, 1, (200, 2))
        assert np.all(batch_energy(net, x) >= 0.0)

    def test_batched_matches_pointwise(self):
        rng = np.random.default_rng(2)
        net = EnergyNet(0, 2, num_frequencies=4, hidden=(8, 8), rng=3)
        x = rng.uniform(-1, 1, (17, 2))
        batched = batch_energy(net, x)
        looped = [energy_forward(net, a, b) for a, b in x]
        np.testing.assert_allclose(batched, looped, rtol=1e-12)

    def test_root_net_takes_single_input(self):
        net = EnergyNet(0, 1, num_frequencies=4, hidden=(8, 8), rng=4)
        energy_forward(net, 0.3)
        with pytest.raises(ValueError, match="arity"):
            energy_forward(net, 0.3, 0.5)
        two = EnergyNet(1, 2, num_frequencies=4, hidden=(8, 8), rng=4)
        with pytest.raises(ValueError, match="arity"):
            energy_forward(two, 0.3)

    def test_rejects_out_of_domain_points(self):
        net = EnergyNet(0, 2, num_frequencies=4, hidden=(8, 8), rng=4)
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            energy_forward(net, 1.5, 0.0)

    def test_conditioning_arity_validation(self):
        with pytest.raises(ValueError, match="at most one parent"):
            EnergyNet(0, 3)


class TestDecoderNet:
    def test_categorical_head_normalizes_across_sweep(self):
        net = DecoderNet(0, "categorical", num_states=5, num_frequencies=4, hidden=(8,), rng=6)
        z = np.linspace(-1, 1, 1001)
        logp = batch_decoder(net, z)
        assert logp.shape == (1001, 5)
        np.testing.assert_allclose(np.exp(logp).sum(axis=1), 1.0, atol=1e-12)

    def test_binomial_head_stays_interior(self):
        net = DecoderNet(0, "binomial", num_states=5, num_frequencies=4, hidden=(8,), rng=7)
        # Inflate the head so the raw logits get large; sigmoid must stay in (0, 1).
        net.params["w1"] = net.params["w1"] * 40.0
        z = np.linspace(-1, 1, 1001)
        p = batch_decoder(net, z)
        assert p.shape == (1001, 1)
        assert np.all(p > 0.0) and np.all(p < 1.0)

    def test_gaussian_head_is_identity_pair(self):
        net = DecoderNet(0, "gaussian", num_frequencies=4, hidden=(8,), rng=8)
        out = decoder_forward(net, 0.2)
        assert out.shape == (2,)
        assert np.all(np.isfinite(out))
        tape = Tape()
        pnodes = net.register(tape)
        raw = net.forward(tape, pnodes, tape.const(np.array([[0.2]])))
        np.testing.assert_array_equal(net.squash(raw).data, raw.data)

    def test_family_mismatch_and_domain_errors(self):
        net = DecoderNet(0, "binomial", num_states=5, num_frequencies=4, hidden=(8,), rng=9)
        tape = Tape()
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            input_param_node(tape, net, _const_weights(tape, net), np.array([-1.2]))
        with pytest.raises(ValueError, match="family"):
            DecoderNet(0, "poisson")

    def test_forward_matches_loop(self):
        net = DecoderNet(0, "categorical", num_states=3, num_frequencies=4, hidden=(8,), rng=10)
        z = np.linspace(-0.9, 0.9, 13)
        batched = batch_decoder(net, z)
        looped = np.array([decoder_forward(net, float(v)) for v in z])
        np.testing.assert_allclose(batched, looped, rtol=1e-12)


class TestTapeOps:
    """One dense op per layer: the MLP's share of the tape cannot quietly grow again."""

    @pytest.mark.parametrize(
        "net, x, ops",
        [
            (EnergyNet(1, 2, hidden=(64, 64), rng=0), np.zeros((6, 2)), ["dense"] * 3 + ["softplus", "reshape"]),
            (EnergyNet(0, 1, hidden=(64, 64), rng=0), np.zeros((6, 1)), ["dense"] * 3 + ["softplus", "reshape"]),
            (DecoderNet(0, "categorical", num_states=4, hidden=(64,), rng=0), np.zeros((6, 1)), ["dense"] * 2),
        ],
        ids=["energy", "root-energy", "decoder"],
    )
    def test_forward_records_one_dense_op_per_layer(self, net, x, ops, monkeypatch):
        recorded = []
        record = Tape.record

        def counting_record(tape, op_name, out_data, inputs, ctx):
            if any(inp.needs_grad for inp in inputs):
                recorded.append(op_name)
            return record(tape, op_name, out_data, inputs, ctx)

        monkeypatch.setattr(Tape, "record", counting_record)
        tape = Tape()
        net.forward(tape, net.register(tape), tape.const(x))
        assert recorded == ops
        recorded.clear()
        tape = Tape()
        net.forward(tape, _const_weights(tape, net), tape.const(x))
        assert recorded == []

    def test_categorical_squash_is_one_log_normalize_op(self):
        net = DecoderNet(0, "categorical", num_states=4, hidden=(64,), rng=0)
        tape = Tape()
        raw = net.forward(tape, net.register(tape), tape.const(np.zeros((6, 1))))
        out = net.squash(raw)
        assert [rec[0] for rec in tape._records] == ["dense", "dense", "log_normalize"]
        np.testing.assert_array_equal(out.data, ad._log_normalize_data(raw.data))


class TestParamNets:
    def test_per_node_nets_have_expected_arity(self):
        nets = ParamNets.for_tree(small_tree(), "categorical", num_states=4, num_frequencies=4, hidden=(8, 8), seed=0)
        assert nets.energy[0].input_dim == 1
        assert all(nets.energy[i].input_dim == 2 for i in (1, 2, 3))
        assert len(nets.decoder) == 4
        assert all(d.family == "categorical" and d.out_dim == 4 for d in nets.decoder)
        names = set(nets.param_arrays())
        assert len(names) == 8 * 3 + 4 * 2 * 2

    def test_registration_names_every_parameter_once(self):
        nets = ParamNets.for_tree(small_tree(), "binomial", num_states=5, num_frequencies=4, hidden=(8, 8), seed=1)
        tape = Tape()
        pnodes = nets.register(tape)
        assert set(pnodes) == set(nets.param_arrays())
        fs = nets.net_pnodes(nets.energy[2], pnodes)
        assert set(fs) == set(nets.energy[2].params)

    def test_seed_controls_initialization(self):
        a = ParamNets.for_tree(small_tree(), "binomial", num_states=5, num_frequencies=4, hidden=(8, 8), seed=5)
        b = ParamNets.for_tree(small_tree(), "binomial", num_states=5, num_frequencies=4, hidden=(8, 8), seed=5)
        c = ParamNets.for_tree(small_tree(), "binomial", num_states=5, num_frequencies=4, hidden=(8, 8), seed=6)
        for k, v in a.param_arrays().items():
            np.testing.assert_array_equal(v, b.param_arrays()[k])
        assert any(
            not np.array_equal(v, c.param_arrays()[k]) for k, v in a.param_arrays().items()
        )

    def test_shared_mode_reuses_one_net_per_role(self):
        nets = ParamNets.for_tree(small_tree(), "categorical", num_states=3, num_frequencies=4, hidden=(8, 8), seed=2, share=True)
        assert nets.energy[1] is nets.energy[2] is nets.energy[3]
        assert nets.energy[0] is not nets.energy[1]
        assert all(d is nets.decoder[0] for d in nets.decoder)
        tape = Tape()
        pnodes = nets.register(tape)
        # Root energy net + shared non-root energy net + shared decoder.
        assert len(pnodes) == 6 + 6 + 4

    def test_gradients_reach_every_parameter(self):
        nets = ParamNets.for_tree(small_tree(), "binomial", num_states=5, num_frequencies=2, hidden=(4, 4), seed=3)
        tape = Tape()
        pnodes = nets.register(tape)
        rng = np.random.default_rng(0)
        total = None
        for net in nets.energy:
            x = rng.uniform(-1, 1, (3, net.input_dim))
            e = net.forward(tape, nets.net_pnodes(net, pnodes), tape.const(x))
            term = ad.reduce_sum(e)
            total = term if total is None else total + term
        for net in nets.decoder:
            z = rng.uniform(-1, 1, (3, 1))
            out = net.squash(net.forward(tape, nets.net_pnodes(net, pnodes), tape.const(z)))
            total = total + ad.reduce_sum(out)
        grads = tape.backward(total)
        assert set(grads) == set(nets.param_arrays())
        assert all(np.all(np.isfinite(g)) for g in grads.values())
        nonzero = [k for k, g in grads.items() if np.any(g != 0)]
        assert len(nonzero) == len(grads)


@pytest.mark.parametrize("family, k", [("binomial", None), ("categorical", None), ("binomial", 0), ("categorical", -1), ("categorical", "4")])
def test_discrete_family_needs_a_positive_state_count(family, k):
    with pytest.raises(ValueError, match="positive state count"):
        DecoderNet(0, family, num_states=k)
    with pytest.raises(ValueError, match="positive state count"):
        ParamNets.for_tree(small_tree(), family, num_states=k)
    with pytest.raises(ValueError, match="positive state count"):
        HcltTensors.random(small_tree(), 4, family, k)


def shared_checkpoint(tmp_path):
    """A saved 3-latent model with share=True: latents 1 and 2 repeat energy net 1."""
    tree = LatentTree((None, 0, 0), (0, 1, 2), ({"type": "neural"},) * 3, ({"type": "neural"},) * 3)
    nets = ParamNets.for_tree(tree, "categorical", num_states=3, num_frequencies=2, hidden=(4,), decoder_hidden=(4,), seed=19, share=True)
    path = tmp_path / "shared.json"
    save_checkpoint(nets, path)
    return nets, path


class TestCheckpoints:
    def test_round_trip_is_bit_exact(self, tmp_path):
        nets = ParamNets.for_tree(small_tree(), "categorical", num_states=4, num_frequencies=4, hidden=(8, 8), seed=12)
        # Perturb away from the init so we round-trip arbitrary float64 values.
        rng = np.random.default_rng(0)
        for net in nets.energy + nets.decoder:
            for k in net.params:
                net.params[k] = net.params[k] + rng.normal(0, 0.37, net.params[k].shape)
        path = tmp_path / "nets.json"
        save_checkpoint(nets, path)
        loaded = load_checkpoint(path)
        assert loaded.family == "categorical" and loaded.num_states == 4
        assert loaded.latent_parent == nets.latent_parent
        assert loaded.obs_parent == nets.obs_parent
        orig, back = nets.param_arrays(), loaded.param_arrays()
        assert set(orig) == set(back)
        for k in orig:
            np.testing.assert_array_equal(orig[k], back[k])
        for name, freq in frequencies(nets).items():
            np.testing.assert_array_equal(freq, frequencies(loaded)[name])

    def test_round_trip_preserves_forward_values_exactly(self, tmp_path):
        nets = ParamNets.for_tree(small_tree(), "binomial", num_states=5, num_frequencies=4, hidden=(8, 8), seed=13)
        path = tmp_path / "nets.json"
        save_checkpoint(nets, path)
        loaded = load_checkpoint(path)
        rng = np.random.default_rng(1)
        for i in range(4):
            if i == small_tree().root:
                z = rng.uniform(-1, 1)
                assert energy_forward(nets.energy[i], z) == energy_forward(loaded.energy[i], z)
            else:
                z, u = rng.uniform(-1, 1, 2)
                assert energy_forward(nets.energy[i], z, u) == energy_forward(loaded.energy[i], z, u)
            z = rng.uniform(-1, 1)
            np.testing.assert_array_equal(
                decoder_forward(nets.decoder[i], z), decoder_forward(loaded.decoder[i], z)
            )

    def test_round_trip_preserves_sharing(self, tmp_path):
        nets = ParamNets.for_tree(small_tree(), "binomial", num_states=5, num_frequencies=4, hidden=(8, 8), seed=14, share=True)
        path = tmp_path / "shared.json"
        save_checkpoint(nets, path)
        loaded = load_checkpoint(path)
        assert loaded.share
        assert loaded.energy[1] is loaded.energy[2] is loaded.energy[3]
        assert all(d is loaded.decoder[0] for d in loaded.decoder)

    def test_shared_checkpoint_refuses_a_repeat_that_differs(self, tmp_path):
        _, path = shared_checkpoint(tmp_path)
        doc = json.loads(path.read_text())
        assert doc["energy"][1]["net_id"] == doc["energy"][2]["net_id"] == 1
        doc["energy"][2]["weights"]["w0"] = (np.array(doc["energy"][2]["weights"]["w0"]) + 5.0).tolist()
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="repeats net_id 1 with a different weights"):
            load_checkpoint(path)

    def test_unedited_shared_checkpoint_round_trips(self, tmp_path):
        nets, path = shared_checkpoint(tmp_path)
        loaded = load_checkpoint(path)
        assert loaded.energy[1] is loaded.energy[2]
        assert all(d is loaded.decoder[0] for d in loaded.decoder)
        orig, back = nets.param_arrays(), loaded.param_arrays()
        assert set(orig) == set(back)
        for k in orig:
            np.testing.assert_array_equal(orig[k], back[k])
        assert energy_forward(nets.energy[2], 0.3, -0.7) == energy_forward(loaded.energy[2], 0.3, -0.7)

    def test_rejects_malformed_documents(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SchemaError, match="byte"):
            load_checkpoint(bad)
        wrong = tmp_path / "wrong.json"
        wrong.write_text('{"format": "something-else"}')
        with pytest.raises(SchemaError, match="format"):
            load_checkpoint(wrong)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: {"format": doc["format"]},
            lambda doc: [doc],
            lambda doc: {**doc, "energy": 3},
            lambda doc: {**doc, "decoder": [{k: v for k, v in doc["decoder"][0].items() if k != "shapes"}]},
            lambda doc: {**doc, "decoder": [{k: v for k, v in doc["decoder"][0].items() if k != "k"}]},
            lambda doc: {**doc, "num_states": "five"},
        ],
        ids=["format-only", "not-an-object", "energy-not-a-list", "decoder-without-shapes", "binomial-decoder-without-k", "num-states-not-a-number"],
    )
    def test_rejects_missing_or_mistyped_fields(self, tmp_path, edit):
        nets = ParamNets.for_tree(small_tree(), "binomial", num_states=5, num_frequencies=4, hidden=(8, 8), seed=17)
        path = tmp_path / "nets.json"
        save_checkpoint(nets, path)
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        with pytest.raises(SchemaError, match="mistyped|format"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("latent_parent", [None, 3, 1, 2], "not reachable"),
            ("latent_parent", [None, 0, 0, 7], "out of range"),
            ("latent_parent", [None, 0, 0], "4 energy and 4 decoder nets for 3 latents"),
            ("obs_parent", [0, 1, 2, 4], "observable 3 has parent latent 4"),
        ],
    )
    def test_rejects_malformed_tree_maps(self, tmp_path, field, value, message):
        nets = ParamNets.for_tree(small_tree(), "binomial", num_states=5, num_frequencies=4, hidden=(8, 8), seed=16)
        path = tmp_path / "nets.json"
        save_checkpoint(nets, path)
        doc = json.loads(path.read_text())
        doc[field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=message):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: {**doc, "energy": doc["energy"][::-1]}, "energy net of latent 0 takes 2 inputs; the tree gives it 1"),
            (lambda doc: {**doc, "decoder": [doc["decoder"][0], {**doc["decoder"][0]}]}, "repeats net_id 0 without share"),
        ],
        ids=["swapped-energy-records", "repeated-decoder-id"],
    )
    def test_rejects_nets_that_contradict_the_tree(self, tmp_path, edit, message):
        tree = LatentTree((None, 0), (0, 1), ({"type": "neural"},) * 2, ({"type": "neural"},) * 2)
        nets = ParamNets.for_tree(tree, "categorical", num_states=3, num_frequencies=2, hidden=(4,), decoder_hidden=(4,), seed=18)
        path = tmp_path / "nets.json"
        save_checkpoint(nets, path)
        doc = json.loads(path.read_text())
        assert doc["share"] is False
        path.write_text(json.dumps(edit(doc)))
        with pytest.raises(SchemaError, match=message):
            load_checkpoint(path)
