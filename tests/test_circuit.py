"""Circuit model: traversal, structure checks, serialization round-trips."""

import json

import numpy as np
import pytest

from picirc.circuit import (
    Circuit,
    CircuitBuilder,
    InputDist,
    Unit,
    check_structure,
    deserialize,
    post_order,
    serialize,
    structurally_equal,
)
from picirc.errors import CircuitError, SchemaError


def cat(probs):
    p = np.asarray(probs, dtype=np.float64)
    return InputDist("categorical", num_states=len(p), params=np.log(p))


def bernoulli_pair():
    return cat([0.5, 0.5]), cat([0.2, 0.8])


def small_mixture():
    b = CircuitBuilder()
    i0 = b.add_input(0, cat([0.3, 0.7]))
    i1 = b.add_input(0, cat([0.9, 0.1]))
    b.add_sum([i0, i1], np.log([0.5, 0.5]))
    return b.finish()


def two_var_product_circuit():
    b = CircuitBuilder()
    i0 = b.add_input(0, cat([0.3, 0.7]))
    i1 = b.add_input(1, cat([0.4, 0.6]))
    b.add_product([i0, i1])
    return b.finish()


class TestPostOrder:
    def test_single_input(self):
        b = CircuitBuilder()
        b.add_input(0, cat([1.0]))
        c = b.finish()
        assert post_order(c) == [0]

    def test_input_then_integral_root(self):
        b = CircuitBuilder()
        i = b.add_input(0, InputDist("gaussian", conditional={"type": "linear-gaussian", "c": 1.0, "d": 0.0, "tau": 1.0}))
        b.add_integral(i, var=0, parent=None, cond={"type": "linear-gaussian", "a": 0.0, "b": 0.0, "sigma": 1.0})
        c = b.finish()
        assert post_order(c) == [i, 1]

    def test_tree_pic_inputs_precede_their_integral_parents(self):
        # four observables hanging off a small latent tree
        b = CircuitBuilder()
        lg = {"type": "linear-gaussian", "c": 1.0, "d": 0.0, "tau": 1.0}
        zcond = {"type": "linear-gaussian", "a": 0.5, "b": 0.0, "sigma": 1.0}
        leaves = []
        for v in range(4):
            i = b.add_input(v, InputDist("gaussian", conditional=lg))
            leaves.append(b.add_integral(i, var=v + 1, parent=0, cond=zcond))
        p = b.add_product(leaves)
        root = b.add_integral(p, var=0, parent=None, cond=zcond)
        c = b.finish()
        order = post_order(c)
        assert order[-1] == root
        for v in range(4):
            input_uid = 2 * v
            integral_uid = 2 * v + 1
            assert order.index(input_uid) < order.index(integral_uid)

    def test_deterministic_child_order(self):
        c = small_mixture()
        assert post_order(c) == [0, 1, 2]

    def test_shared_child_visited_once(self):
        b = CircuitBuilder()
        i0 = b.add_input(0, cat([0.3, 0.7]))
        s1 = b.add_sum([i0], [0.0])
        s2 = b.add_sum([i0], [0.0])
        b.add_sum([s1, s2], np.log([0.5, 0.5]))
        c = b.finish()
        order = post_order(c)
        assert sorted(order) == [0, 1, 2, 3]
        assert order[0] == 0

    def test_cycle_detected(self):
        u0 = Unit(0, "sum", (1,), frozenset([0]), weights=np.zeros(1))
        u1 = Unit(1, "sum", (0,), frozenset([0]), weights=np.zeros(1))
        c = Circuit(units=[u0, u1], root=0, num_vars=1)
        with pytest.raises(CircuitError, match="cycle"):
            post_order(c)


class TestCheckStructure:
    def test_mixture_all_true(self):
        rep = check_structure(small_mixture())
        assert (rep.smooth, rep.decomposable, rep.structured) == (True, True, True)

    def test_overlapping_product_not_decomposable(self):
        b = CircuitBuilder()
        i0 = b.add_input(0, cat([0.3, 0.7]))
        i1 = b.add_input(0, cat([0.4, 0.6]))
        b.add_product([i0, i1])
        rep = check_structure(b.finish())
        assert not rep.decomposable
        assert not rep.structured

    def test_non_smooth_sum(self):
        # sum mixing different scopes: build manually to dodge the builder's scope union
        u0 = Unit(0, "input", (), frozenset([0]), dist=cat([0.3, 0.7]))
        u1 = Unit(1, "input", (), frozenset([1]), dist=cat([0.4, 0.6]))
        u2 = Unit(2, "sum", (0, 1), frozenset([0, 1]), weights=np.log([0.5, 0.5]))
        rep = check_structure(Circuit(units=[u0, u1, u2], root=2, num_vars=2))
        assert not rep.smooth

    def test_structured_violation(self):
        b = CircuitBuilder()
        x0a = b.add_input(0, cat([0.3, 0.7]))
        x1a = b.add_input(1, cat([0.4, 0.6]))
        x2a = b.add_input(2, cat([0.5, 0.5]))
        p01 = b.add_product([x0a, x1a])
        pa = b.add_product([p01, x2a])
        x0b = b.add_input(0, cat([0.6, 0.4]))
        x1b = b.add_input(1, cat([0.1, 0.9]))
        x2b = b.add_input(2, cat([0.2, 0.8]))
        p12 = b.add_product([x1b, x2b])
        pb = b.add_product([x0b, p12])
        b.add_sum([pa, pb], np.log([0.5, 0.5]))
        rep = check_structure(b.finish())
        assert rep.smooth and rep.decomposable
        assert not rep.structured


class TestValidate:
    def test_unreachable_unit(self):
        u0 = Unit(0, "input", (), frozenset([0]), dist=cat([0.3, 0.7]))
        u1 = Unit(1, "input", (), frozenset([0]), dist=cat([0.4, 0.6]))
        c = Circuit(units=[u0, u1], root=0, num_vars=1)
        with pytest.raises(CircuitError, match="reachable"):
            c.validate()

    def test_scope_mismatch(self):
        u0 = Unit(0, "input", (), frozenset([0]), dist=cat([0.3, 0.7]))
        u1 = Unit(1, "sum", (0,), frozenset([0, 1]), weights=np.zeros(1))
        with pytest.raises(CircuitError, match="scope"):
            Circuit(units=[u0, u1], root=1, num_vars=2).validate()

    def test_duplicate_latent_vars(self):
        zc = {"type": "linear-gaussian", "a": 0.0, "b": 0.0, "sigma": 1.0}
        gc = {"type": "linear-gaussian", "c": 1.0, "d": 0.0, "tau": 1.0}
        u0 = Unit(0, "input", (), frozenset([0]), dist=InputDist("gaussian", conditional=gc))
        u1 = Unit(1, "integral", (0,), frozenset([0]), latent={"var": 0, "parent": None, "cond": zc})
        u2 = Unit(2, "integral", (1,), frozenset([0]), latent={"var": 0, "parent": None, "cond": zc})
        with pytest.raises(CircuitError, match="distinct latent"):
            Circuit(units=[u0, u1, u2], root=2, num_vars=1).validate()

    def test_sum_weight_misalignment(self):
        u0 = Unit(0, "input", (), frozenset([0]), dist=cat([0.3, 0.7]))
        u1 = Unit(1, "sum", (0,), frozenset([0]), weights=np.zeros(2))
        with pytest.raises(CircuitError, match="align"):
            Circuit(units=[u0, u1], root=1, num_vars=1).validate()

    def test_input_dist_validation(self):
        with pytest.raises(CircuitError, match="sum to"):
            InputDist("categorical", 2, params=np.log([0.5, 0.6])).validate()
        with pytest.raises(CircuitError, match="success probability"):
            InputDist("binomial", 5, params=np.array([1.5])).validate()
        with pytest.raises(CircuitError, match="finite"):
            InputDist("gaussian", params=np.array([0.0, np.inf])).validate()
        with pytest.raises(CircuitError, match="exactly one"):
            InputDist("gaussian", params=np.array([0.0, 0.0]), conditional={"type": "neural", "net": 0}).validate()
        for family, k, params in (("categorical", 3, np.log([0.5, 0.5])), ("binomial", 5, np.array([0.2, 0.3])), ("gaussian", None, np.zeros(3))):
            with pytest.raises(CircuitError, match="parameters, got shape"):
                InputDist(family, k, params=params).validate()


class TestSerialization:
    def test_product_round_trip(self):
        c = two_var_product_circuit()
        c2 = deserialize(serialize(c))
        assert structurally_equal(c, c2)

    def test_sum_weights_bit_exact(self):
        b = CircuitBuilder()
        i0 = b.add_input(0, cat([0.3, 0.7]))
        i1 = b.add_input(0, cat([0.9, 0.1]))
        b.add_sum([i0, i1], [np.log(0.3), np.log(0.7)])
        c = b.finish()
        c2 = deserialize(serialize(c))
        assert structurally_equal(c, c2)
        w = c.units[2].weights
        w2 = c2.units[2].weights
        assert w[0] == w2[0] and w[1] == w2[1]

    def test_zero_weight_round_trips(self):
        b = CircuitBuilder()
        i0 = b.add_input(0, cat([0.3, 0.7]))
        i1 = b.add_input(0, cat([0.9, 0.1]))
        b.add_sum([i0, i1], [0.0, -np.inf])
        c = b.finish()
        c2 = deserialize(serialize(c))
        assert np.isneginf(c2.units[2].weights[1])

    def test_symbolic_pic_round_trip(self):
        b = CircuitBuilder()
        gc = {"type": "linear-gaussian", "c": 1.25, "d": -0.125, "tau": 0.7071067811865476}
        zc = {"type": "linear-gaussian", "a": 0.3333333333333333, "b": 0.1, "sigma": 1.1}
        i = b.add_input(0, InputDist("gaussian", conditional=gc))
        b.add_integral(i, var=0, parent=None, cond=zc)
        c = b.finish()
        c2 = deserialize(serialize(c))
        assert structurally_equal(c, c2)
        assert c2.units[1].latent["cond"]["a"] == 0.3333333333333333

    def test_malformed_json_reports_byte_offset(self):
        with pytest.raises(SchemaError, match="byte"):
            deserialize(b'{"num_vars": 1, "root": 0, "units": [')

    def test_unknown_kind(self):
        doc = b'{"num_vars": 1, "root": 0, "units": [{"id": 0, "kind": "max", "children": [], "scope": [0]}]}'
        with pytest.raises(SchemaError, match="kind"):
            deserialize(doc)

    def test_non_dense_ids(self):
        doc = (
            b'{"num_vars": 1, "root": 5, "units": ['
            b'{"id": 5, "kind": "input", "children": [], "scope": [0],'
            b' "dist": {"family": "categorical", "k": 1, "params": ["0.0"]}}]}'
        )
        with pytest.raises(SchemaError, match="dense"):
            deserialize(doc)

    def test_missing_field(self):
        with pytest.raises(SchemaError, match="missing"):
            deserialize(b'{"root": 0, "units": []}')

    @staticmethod
    def _sum_doc(**fields):
        """A valid two-input sum circuit as a JSON object, with the sum unit's fields replaced."""
        b = CircuitBuilder()
        i0 = b.add_input(0, cat([0.3, 0.7]))
        i1 = b.add_input(0, cat([0.9, 0.1]))
        b.add_sum([i0, i1], [np.log(0.3), np.log(0.7)])
        doc = json.loads(serialize(b.finish()))
        doc["units"][2].update(fields)
        return doc

    @pytest.mark.parametrize(
        "fields,match",
        [
            ({"weights": [None]}, "unit 2: weights"),
            ({"weights": 5}, "unit 2: weights: expected a list"),
            ({"weights": ["abc"]}, "unit 2: weights"),
            ({"dist": "x"}, "unit 2: dist must be an object"),
        ],
    )
    def test_malformed_unit_field_is_schema_error(self, fields, match):
        with pytest.raises(SchemaError, match=match):
            deserialize(json.dumps(self._sum_doc(**fields)))

    def test_units_not_a_list(self):
        doc = self._sum_doc()
        doc["units"] = 3
        with pytest.raises(SchemaError, match="'units' must be a list"):
            deserialize(json.dumps(doc))

    def test_malformed_params_is_schema_error(self):
        doc = self._sum_doc()
        doc["units"][0]["dist"]["params"] = [None, None]
        with pytest.raises(SchemaError, match="unit 0: params"):
            deserialize(json.dumps(doc))

    @pytest.mark.parametrize("cond", [5, {"a": "abc", "b": "0.1", "sigma": "1.1"}])
    def test_malformed_latent_cond_is_schema_error(self, cond):
        doc = json.loads(serialize(self._symbolic()))
        doc["units"][1]["latent"]["cond"] = cond
        with pytest.raises(SchemaError, match="unit 1"):
            deserialize(json.dumps(doc))
        doc = json.loads(serialize(self._symbolic()))
        doc["units"][0]["dist"]["conditional"] = cond
        with pytest.raises(SchemaError, match="unit 0: conditional"):
            deserialize(json.dumps(doc))

    @staticmethod
    def _symbolic():
        b = CircuitBuilder()
        gc = {"type": "linear-gaussian", "c": 1.25, "d": -0.125, "tau": 0.7}
        zc = {"type": "linear-gaussian", "a": 0.3, "b": 0.1, "sigma": 1.1}
        i = b.add_input(0, InputDist("gaussian", conditional=gc))
        b.add_integral(i, var=0, parent=None, cond=zc)
        return b.finish()

    def test_non_integer_state_count(self):
        doc = (
            b'{"num_vars": 1, "root": 0, "units": [{"id": 0, "kind": "input", "children": [], "scope": [0],'
            b' "dist": {"family": "categorical", "k": "1", "params": ["0.0"]}}]}'
        )
        with pytest.raises(CircuitError, match="positive state count"):
            deserialize(doc)


def test_builder_scope_union():
    c = two_var_product_circuit()
    assert c.units[2].scope == frozenset([0, 1])
    assert c.num_vars == 2
    assert c.num_edges == 2


def test_unit_var_property():
    c = small_mixture()
    assert c.units[0].var == 0
