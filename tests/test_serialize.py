"""Serialization: the bytes ``serialize`` writes, and what ``deserialize`` refuses.

``serialize`` writes its ``indent=1`` layout directly; ``serialize_reference``
writes the same document through ``json.dumps`` and pins it byte for byte.
The malformed-input corpus puts bad values at every JSON path of two valid
circuits and requires each case to raise ``SchemaError`` or
``CircuitError``, or to decode to a valid circuit that round-trips.
"""

import json

import numpy as np
import pytest

from picirc import gaussian
from picirc.circuit import Circuit, CircuitBuilder, InputDist, Unit, deserialize, serialize, structurally_equal
from picirc.errors import CircuitError, SchemaError
from picirc.materialize import materialize_input_params, materialize_nested, materialize_qpc, materialize_sum_params
from picirc.nets import ParamNets
from picirc.quadrature import make_rule
from picirc.structures import bn_to_pic, hclt_structure
from picirc.training import HcltTensors
from reference import serialize_reference

CLT = np.array([-1, 0, 0, 1])


def neural_qpc(family, k, nested=False):
    tree = hclt_structure(CLT, family, num_states=k)
    nets = ParamNets.for_tree(tree, family, num_states=k, num_frequencies=2, hidden=(6, 6), decoder_hidden=(6,), seed=1)
    rule = make_rule("trapezoidal", 3, -1.0, 1.0)
    pic = bn_to_pic(tree)
    if nested:
        return materialize_nested(pic, lambda latent, parent_value: rule, nets=nets)
    sp = materialize_sum_params(nets, rule.points, rule.weights)
    return materialize_qpc(pic, rule, (sp, materialize_input_params(nets, rule.points)))


def gaussian_nested_qpc():
    model = gaussian.random_model(4, seed=4)
    return materialize_nested(gaussian.to_pic(model), lambda latent, pv: make_rule("trapezoidal", 3, -2.0 + (pv or 0.0), 2.0))


def extreme_weights():
    b = CircuitBuilder()
    inputs = [b.add_input(0, InputDist("categorical", 2, params=np.log([p, 1.0 - p]))) for p in (0.5, 0.25, 0.125, 0.0625)]
    b.add_sum(inputs, [-np.inf, -0.0, 5e-324, 1.7976931348623157e308])
    return b.finish()


def concrete_families():
    b = CircuitBuilder()
    i0 = b.add_input(0, InputDist("binomial", 5, params=np.array([0.3])))
    i1 = b.add_input(1, InputDist("gaussian", params=np.array([0.5, -1.0])))
    i2 = b.add_input(2, InputDist("categorical", 3, params=np.log([0.2, 0.3, 0.5])))
    b.add_product([i0, i1, i2])
    return b.finish()


def odd_conditionals():
    """Latents with a None and an int parent; conditionals holding a nested dict and non-ASCII strings."""
    b = CircuitBuilder()
    meta = {"type": "neural", "net": 0, "family": "categorical", "k": 2, "meta": {"name": "Zürich ✓", "tags": [1, 2.5, None, True], "empty": {}}}
    i0 = b.add_input(0, InputDist("categorical", 2, conditional=meta))
    i1 = b.add_input(1, InputDist("gaussian", conditional={"type": "linear-gaussian", "c": -0.0, "d": 1e-300, "tau": 2.5}))
    z1 = b.add_integral(i1, var=1, parent=0, cond={"type": "neural", "net": 1, "note": "é\n\"q\""})
    p = b.add_product([i0, z1])
    b.add_integral(p, var=0, parent=None, cond={"type": "linear-gaussian", "a": 0.3, "b": float("inf"), "sigma": 1.1})
    return b.finish()


CIRCUITS = {
    "pic-categorical": lambda: bn_to_pic(hclt_structure(CLT, "categorical", num_states=3)),
    "pic-binomial": lambda: bn_to_pic(hclt_structure(CLT, "binomial", num_states=4)),
    "pic-gaussian": lambda: bn_to_pic(hclt_structure(CLT, "gaussian")),
    "gaussian-to-pic": lambda: gaussian.to_pic(gaussian.random_model(6, seed=3)),
    "qpc-categorical": lambda: neural_qpc("categorical", 3),
    "qpc-binomial": lambda: neural_qpc("binomial", 4),
    "qpc-gaussian": lambda: neural_qpc("gaussian", None),
    "qpc-linear-gaussian": lambda: (lambda m: materialize_qpc(gaussian.to_pic(m), gaussian.domain_rules(m, 4)))(gaussian.random_model(4, seed=2)),
    "qpc-nested-neural": lambda: neural_qpc("categorical", 3, nested=True),
    "qpc-nested-gaussian": gaussian_nested_qpc,
    "hclt-categorical": lambda: HcltTensors.random(hclt_structure(CLT, "categorical", 2), n=3, family="categorical", num_states=2, seed=3, scale=1.0).to_circuit(),
    "hclt-binomial": lambda: HcltTensors.random(hclt_structure(CLT, "binomial", 3), n=2, family="binomial", num_states=3, seed=5, scale=1.0).to_circuit(),
    "extreme-weights": extreme_weights,
    "concrete-families": concrete_families,
    "odd-conditionals": odd_conditionals,
}


class TestByteIdentity:
    @pytest.mark.parametrize("name", sorted(CIRCUITS))
    def test_matches_json_dumps(self, name):
        c = CIRCUITS[name]()
        data = serialize(c)
        assert data == serialize_reference(c)
        assert structurally_equal(deserialize(data), c)

    def test_circuit_without_units(self):
        empty = Circuit(units=[], root=0, num_vars=0)
        assert serialize(empty) == serialize_reference(empty) == b'{\n "num_vars": 0,\n "root": 0,\n "units": []\n}'

    def test_weights_keep_their_bits(self):
        c = deserialize(serialize(extreme_weights()))
        w = c.units[4].weights
        assert np.isneginf(w[0]) and np.signbit(w[1]) and w[1] == 0.0
        assert w[2] == 5e-324 and w[3] == 1.7976931348623157e308

    @pytest.mark.parametrize(
        "unit",
        [
            Unit(0, "input", (), frozenset((0,)), dist=InputDist("categorical", np.int64(2), params=np.log([0.5, 0.5]))),
            Unit(0, "product", (np.int64(1),), frozenset((0,))),
            Unit(0, "input", (), frozenset((0,)), dist=InputDist("categorical", 2, conditional={"type": "neural", "net": {0}})),
        ],
        ids=["np-int64-state-count", "np-int64-child", "set-in-conditional"],
    )
    def test_refuses_what_json_dumps_refuses(self, unit):
        c = Circuit(units=[unit], root=0, num_vars=1)
        with pytest.raises(TypeError) as expected:
            serialize_reference(c)
        with pytest.raises(TypeError) as got:
            serialize(c)
        assert str(got.value) == str(expected.value)


# -- malformed-input corpus ---------------------------------------------


def corpus_concrete():
    b = CircuitBuilder()
    i0 = b.add_input(0, InputDist("categorical", 2, params=np.log([0.25, 0.75])))
    i1 = b.add_input(1, InputDist("binomial", 3, params=np.array([0.4])))
    i2 = b.add_input(2, InputDist("gaussian", params=np.array([0.5, -1.0])))
    p = b.add_product([i0, i1, i2])
    q = b.add_product([i2, i1, i0])
    b.add_sum([p, q], np.log([0.5, 0.5]))
    return b.finish()


def corpus_symbolic():
    b = CircuitBuilder()
    i0 = b.add_input(0, InputDist("gaussian", conditional={"type": "linear-gaussian", "c": 1.25, "d": -0.125, "tau": 0.7}))
    i1 = b.add_input(1, InputDist("categorical", 3, conditional={"type": "neural", "net": 1, "family": "categorical", "k": 3}))
    z1 = b.add_integral(i1, var=1, parent=0, cond={"type": "neural", "net": 1})
    p = b.add_product([i0, z1])
    b.add_integral(p, var=0, parent=None, cond={"type": "linear-gaussian", "a": 0.3, "b": 0.1, "sigma": 1.1})
    return b.finish()


def json_paths(node, prefix=()):
    """Every path into a JSON document, the document itself first."""
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield from json_paths(value, prefix + (key,))


MISSING = object()
# 10**400 overflows a float and Infinity an int; MISSING deletes an object key.
BAD_VALUES = (None, True, -1, 0.5, 10**400, float("inf"), float("nan"), "abc", "", [], {"a": None}, MISSING)
CORPUS_DOCS = {"concrete": json.loads(serialize(corpus_concrete())), "symbolic": json.loads(serialize(corpus_symbolic()))}
CORPUS_PATHS = [(name, path) for name, doc in CORPUS_DOCS.items() for path in json_paths(doc)]


def replaced(doc, path, value) -> str:
    if not path:
        return json.dumps(value)
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is MISSING:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return json.dumps(doc)


@pytest.mark.parametrize("name,path", CORPUS_PATHS, ids=[f"{name}:{'/'.join(map(str, path)) or '.'}" for name, path in CORPUS_PATHS])
def test_malformed_value_is_refused_or_decodes_validly(name, path):
    """Each bad value at this path raises SchemaError or CircuitError, or decodes to a valid circuit that round-trips.

    A value decodes where the schema leaves it open: a number in place of
    a float string (a sum weight's mass is not checked), any value or a
    missing key in a conditional, a latent's var of any integer value and
    its parent of any integer value or null (the conditionals and the tree
    are checked when the circuit is materialized), and a state count of
    any size that no parameter vector pins (a binomial's, or a symbolic
    input's).  These raise: a NaN or +inf sum weight (CircuitError naming
    the unit), and a fraction or a boolean where an id, a child, a scope
    entry, a state count or a latent's var or parent is read (SchemaError;
    ``int`` once turned them into valid values).
    """
    failures = []
    for value in BAD_VALUES:
        if value is MISSING and not (path and isinstance(path[-1], str)):
            continue
        text = replaced(CORPUS_DOCS[name], path, value)
        try:
            c = deserialize(text)
        except (SchemaError, CircuitError):
            continue
        except Exception as e:  # noqa: BLE001 - any other exception is the failure this corpus looks for
            failures.append(f"{value!r}: {type(e).__name__}: {e}")
            continue
        data = serialize(c)
        if serialize(deserialize(data)) != data:
            failures.append(f"{value!r}: decoded circuit does not round-trip")
    assert not failures, failures


def test_corpus_covers_every_field():
    fields = {path[-1] for _, path in CORPUS_PATHS if path and isinstance(path[-1], str)}
    assert fields >= {"num_vars", "root", "units", "id", "kind", "children", "scope", "weights", "dist", "family", "k", "params", "conditional", "latent", "var", "parent", "cond"}


def test_huge_num_vars_is_refused_without_building_its_scope():
    doc = dict(CORPUS_DOCS["concrete"], num_vars=10**18)
    with pytest.raises(CircuitError, match="root scope must cover all observables"):
        deserialize(json.dumps(doc))
