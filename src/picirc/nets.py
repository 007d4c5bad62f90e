"""Neural parameterization of symbolic circuits.

Each latent i gets an energy net f_i over (z_i, z_parent) in [-1,1]^2
(just z at the root), defining the conditional density
exp(-f_i(z, z_parent)) up to a normalization handled at materialization.
Each observable j gets a decoder net g_j mapping a latent point to the
parameters of that observable's input distribution.  Both are tiny MLPs
whose first layer is a fixed random Fourier feature map, which keeps them
expressive on the bounded latent domain while staying cheap.

All forward passes run on a gradient tape; the fixed Fourier frequencies
enter as constants and therefore never receive gradients.  Evaluations
that take no gradient hand the weights to the tape as constants too
(``_const_weights``), so their tape records nothing.
"""

from __future__ import annotations

import json

import numpy as np

from . import autodiff as ad
from .autodiff import Node, Tape
from .circuit import param_width
from .errors import SchemaError
from .structures import top_down_order

TWO_PI = 2.0 * np.pi


class FourierFeatureLayer:
    """Fixed random projection followed by interleaved cos/sin features."""

    def __init__(self, input_dim: int, num_frequencies: int, scale: float = 1.0, rng=None):
        rng = np.random.default_rng(rng)
        self.input_dim = input_dim
        self.num_frequencies = num_frequencies
        self.scale = scale
        self.frequencies = rng.normal(0.0, scale, (input_dim, num_frequencies))
        self.frequencies.setflags(write=False)

    @property
    def output_dim(self) -> int:
        return 2 * self.num_frequencies

    def forward(self, tape: Tape, x: Node) -> Node:
        proj = ad.matmul(x, tape.const(TWO_PI * self.frequencies))
        return ad.interleave(ad.cos(proj), ad.sin(proj))


def ffl_forward(layer: FourierFeatureLayer, x) -> np.ndarray:
    """Feature vector of one input point: (cos 2pi f1.x, sin 2pi f1.x, ...)."""
    x = np.asarray(x, dtype=np.float64).reshape(1, layer.input_dim)
    tape = Tape()
    return layer.forward(tape, tape.const(x)).data[0]


def _init_dense(rng, fan_in: int, fan_out: int):
    w = rng.normal(0.0, 1.0 / np.sqrt(fan_in), (fan_in, fan_out))
    return w, np.zeros(fan_out)


class _Mlp:
    """Shared plumbing: FFL followed by dense layers with tanh between."""

    def __init__(self, net_id, prefix, input_dim, layer_sizes, num_frequencies, ff_scale, rng):
        rng = np.random.default_rng(rng)
        self.net_id = net_id
        self.prefix = prefix
        self.ffl = FourierFeatureLayer(input_dim, num_frequencies, ff_scale, rng)
        self.params: dict[str, np.ndarray] = {}
        fan_in = self.ffl.output_dim
        for depth, size in enumerate(layer_sizes):
            w, b = _init_dense(rng, fan_in, size)
            self.params[f"w{depth}"] = w
            self.params[f"b{depth}"] = b
            fan_in = size

    @property
    def name(self) -> str:
        return f"{self.prefix}{self.net_id}"

    def register(self, tape: Tape) -> dict[str, Node]:
        return {k: tape.param(f"{self.name}.{k}", v) for k, v in self.params.items()}

    def _body(self, tape: Tape, pnodes: dict[str, Node], x: Node) -> Node:
        h = self.ffl.forward(tape, x)
        depth = len(self.params) // 2
        for layer in range(depth):
            h = ad.add(ad.matmul(h, pnodes[f"w{layer}"]), pnodes[f"b{layer}"])
            if layer < depth - 1:
                h = ad.tanh(h)
        return h


def _const_weights(tape: Tape, net: _Mlp) -> dict[str, Node]:
    """A net's weights as tape constants, for forward-only evaluations."""
    return {k: tape.const(v) for k, v in net.params.items()}


class EnergyNet(_Mlp):
    """Nonnegative conditional energy f_i(z_child, z_parent); softplus head."""

    def __init__(self, net_id, input_dim, num_frequencies=32, hidden=(64, 64), ff_scale=1.0, rng=None):
        if input_dim not in (1, 2):
            raise ValueError("energy nets condition on at most one parent latent")
        super().__init__(net_id, "f", input_dim, (*hidden, 1), num_frequencies, ff_scale, rng)
        self.input_dim = input_dim

    def forward(self, tape: Tape, pnodes: dict[str, Node], x: Node) -> Node:
        out = ad.softplus(self._body(tape, pnodes, x))
        return ad.reshape(out, (x.shape[0],))


def squash(family: str, raw: Node) -> Node:
    """Raw (N, I) head to input parameters, one row per point.

    Log-softmax into categorical log-probabilities, sigmoid into a
    binomial success probability, identity into a gaussian (mean, log
    stddev) pair.
    """
    if family == "categorical":
        return raw - ad.logsumexp(raw, axis=-1, keepdims=True)
    if family == "binomial":
        return ad.sigmoid(raw)
    return raw


class DecoderNet(_Mlp):
    """Maps a latent point to input-distribution parameters.

    The raw head is squashed per family at materialization (see
    ``squash``).
    """

    def __init__(self, net_id, family, num_states=None, num_frequencies=32, hidden=(64,), ff_scale=1.0, rng=None):
        out_dim = param_width(family, num_states)
        super().__init__(net_id, "g", 1, (*hidden, out_dim), num_frequencies, ff_scale, rng)
        self.family = family
        self.num_states = num_states
        self.out_dim = out_dim

    def forward(self, tape: Tape, pnodes: dict[str, Node], z: Node) -> Node:
        return self._body(tape, pnodes, z)

    def squash(self, raw: Node) -> Node:
        return squash(self.family, raw)


def _check_latent_range(x: np.ndarray) -> None:
    if np.any(np.abs(x) > 1.0 + 1e-12):
        raise ValueError("latent inputs must lie in [-1, 1]")


def energy_forward(net: EnergyNet, z_child: float, z_parent: float | None = None) -> float:
    """Scalar energy at one (child, parent) point; inputs must be in [-1, 1]."""
    if (z_parent is None) != (net.input_dim == 1):
        raise ValueError("parent value must match the net's conditioning arity")
    x = np.array([[z_child]] if z_parent is None else [[z_child, z_parent]])
    _check_latent_range(x)
    tape = Tape()
    return float(net.forward(tape, _const_weights(tape, net), tape.const(x)).data[0])


def decoder_forward(net: DecoderNet, z: float, family: str | None = None) -> np.ndarray:
    """Squashed parameter vector of one decoder at one latent point."""
    if family is not None and family != net.family:
        raise ValueError(f"net has family {net.family!r}, requested {family!r}")
    x = np.array([[z]])
    _check_latent_range(x)
    tape = Tape()
    return net.squash(net.forward(tape, _const_weights(tape, net), tape.const(x))).data[0]


class ParamNets:
    """All nets of one model: an energy net per latent, a decoder per observable.

    With ``share=True`` a single energy net serves every non-root latent
    and a single decoder serves every observable (the root keeps its own
    1-input net); parameter names then coincide, so sharing falls out of
    the tape's parameter registry.
    """

    def __init__(self, latent_parent, obs_parent, energy, decoder, family, num_states, share=False):
        self.latent_parent = tuple(latent_parent)
        self.obs_parent = tuple(obs_parent)
        self.energy = list(energy)
        self.decoder = list(decoder)
        self.family = family
        self.num_states = num_states
        self.share = share

    @classmethod
    def for_tree(
        cls,
        tree,
        family: str,
        num_states: int | None = None,
        num_frequencies: int = 32,
        hidden=(64, 64),
        decoder_hidden=(64,),
        ff_scale: float = 1.0,
        seed=0,
        share: bool = False,
    ) -> "ParamNets":
        n = tree.num_latents
        m = tree.num_observables
        streams = np.random.SeedSequence(seed).spawn(n + m)
        root = tree.root
        energy: list[EnergyNet] = [None] * n
        shared_energy = None
        for i in range(n):
            dim = 1 if i == root else 2
            if share and dim == 2:
                if shared_energy is None:
                    shared_energy = EnergyNet(i, 2, num_frequencies, hidden, ff_scale, streams[i])
                energy[i] = shared_energy
            else:
                energy[i] = EnergyNet(i, dim, num_frequencies, hidden, ff_scale, streams[i])
        decoder: list[DecoderNet] = []
        shared_decoder = None
        for j in range(m):
            if share:
                if shared_decoder is None:
                    shared_decoder = DecoderNet(j, family, num_states, num_frequencies, decoder_hidden, ff_scale, streams[n + j])
                decoder.append(shared_decoder)
            else:
                decoder.append(DecoderNet(j, family, num_states, num_frequencies, decoder_hidden, ff_scale, streams[n + j]))
        return cls(tree.latent_parent, tree.obs_parent, energy, decoder, family, num_states, share)

    def _unique_nets(self):
        seen = {}
        for net in (*self.energy, *self.decoder):
            seen.setdefault(id(net), net)
        return list(seen.values())

    def register(self, tape: Tape) -> dict[str, Node]:
        pnodes = {}
        for net in self._unique_nets():
            reg = net.register(tape)
            pnodes.update({f"{net.name}.{k}": v for k, v in reg.items()})
        return pnodes

    def net_pnodes(self, net, pnodes: dict[str, Node]) -> dict[str, Node]:
        return {k: pnodes[f"{net.name}.{k}"] for k in net.params}

    def param_arrays(self) -> dict[str, np.ndarray]:
        out = {}
        for net in self._unique_nets():
            out.update({f"{net.name}.{k}": v for k, v in net.params.items()})
        return out

    def apply_params(self, arrays: dict[str, np.ndarray]) -> None:
        for net in self._unique_nets():
            for k in net.params:
                net.params[k] = np.array(arrays[f"{net.name}.{k}"], dtype=np.float64)

    def frequency_arrays(self) -> dict[str, np.ndarray]:
        return {net.name: net.ffl.frequencies for net in self._unique_nets()}


def _net_record(net) -> dict:
    rec = {
        "net_id": net.net_id,
        "num_frequencies": net.ffl.num_frequencies,
        "ff_scale": net.ffl.scale,
        "frequencies": net.ffl.frequencies.tolist(),
        "shapes": {k: list(v.shape) for k, v in net.params.items()},
        "weights": {k: v.tolist() for k, v in net.params.items()},
    }
    if isinstance(net, EnergyNet):
        rec["input_dim"] = net.input_dim
    else:
        rec["family"] = net.family
        if net.num_states is not None:
            rec["k"] = net.num_states
    return rec


def _restore_net(net, rec) -> None:
    net.ffl.frequencies = np.array(rec["frequencies"], dtype=np.float64)
    net.ffl.frequencies.setflags(write=False)
    for k, shape in rec["shapes"].items():
        arr = np.array(rec["weights"][k], dtype=np.float64)
        if list(arr.shape) != shape:
            raise SchemaError(f"net {rec['net_id']}: weight {k} has shape {arr.shape}, expected {shape}")
        net.params[k] = arr


def save_checkpoint(nets: ParamNets, path) -> None:
    """JSON checkpoint; float64 values survive the round trip bit-exactly."""
    doc = {
        "format": "picirc-nets-v1",
        "family": nets.family,
        "num_states": nets.num_states,
        "share": nets.share,
        "latent_parent": [p for p in nets.latent_parent],
        "obs_parent": list(nets.obs_parent),
        "energy": [_net_record(net) for net in nets.energy],
        "decoder": [_net_record(net) for net in nets.decoder],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)


def load_checkpoint(path) -> ParamNets:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise SchemaError(f"malformed checkpoint JSON at byte {e.pos}: {e.msg}") from e
    fmt = doc.get("format") if isinstance(doc, dict) else None
    if fmt != "picirc-nets-v1":
        raise SchemaError(f"unrecognized checkpoint format {fmt!r}")
    try:
        return _nets_from_doc(doc)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as e:
        raise SchemaError(f"checkpoint field missing or mistyped: {type(e).__name__}: {e}") from e


def _nets_from_doc(doc: dict) -> ParamNets:
    family = doc["family"]
    num_states = doc["num_states"]
    param_width(family, num_states)
    share = doc["share"]

    def repeated(nid, by_id) -> bool:
        if nid in by_id and not share:
            raise SchemaError(f"checkpoint repeats net_id {nid} without share")
        return nid in by_id

    energy_by_id: dict[int, EnergyNet] = {}
    energy = []
    for rec in doc["energy"]:
        nid = rec["net_id"]
        if repeated(nid, energy_by_id):
            energy.append(energy_by_id[nid])
            continue
        net = EnergyNet(
            nid,
            rec["input_dim"],
            num_frequencies=rec["num_frequencies"],
            hidden=tuple(rec["shapes"][f"w{i}"][1] for i in range(len(rec["shapes"]) // 2 - 1)),
            ff_scale=rec["ff_scale"],
        )
        _restore_net(net, rec)
        energy_by_id[nid] = net
        energy.append(net)
    decoder_by_id: dict[int, DecoderNet] = {}
    decoder = []
    for rec in doc["decoder"]:
        nid = rec["net_id"]
        if repeated(nid, decoder_by_id):
            decoder.append(decoder_by_id[nid])
            continue
        net = DecoderNet(
            nid,
            rec["family"],
            num_states=rec.get("k"),
            num_frequencies=rec["num_frequencies"],
            hidden=tuple(rec["shapes"][f"w{i}"][1] for i in range(len(rec["shapes"]) // 2 - 1)),
            ff_scale=rec["ff_scale"],
        )
        _restore_net(net, rec)
        decoder_by_id[nid] = net
        decoder.append(net)
    latent_parent = tuple(doc["latent_parent"])
    obs_parent = tuple(doc["obs_parent"])
    if len(latent_parent) != len(energy) or len(obs_parent) != len(decoder):
        raise SchemaError(
            f"checkpoint has {len(energy)} energy and {len(decoder)} decoder nets for "
            f"{len(latent_parent)} latents and {len(obs_parent)} observables"
        )
    try:
        top_down_order(latent_parent)
        bad = [j for j, p in enumerate(obs_parent) if not 0 <= p < len(latent_parent)]
    except (TypeError, ValueError) as e:
        raise SchemaError(f"checkpoint tree maps: {e}") from e
    if bad:
        raise SchemaError(f"checkpoint tree maps: observable {bad[0]} has parent latent {obs_parent[bad[0]]} out of range")
    for i, (p, net) in enumerate(zip(latent_parent, energy)):
        if net.input_dim != (1 if p is None else 2):
            raise SchemaError(f"checkpoint energy net of latent {i} takes {net.input_dim} inputs; the tree gives it {1 if p is None else 2}")
    return ParamNets(
        latent_parent=latent_parent,
        obs_parent=obs_parent,
        energy=energy,
        decoder=decoder,
        family=family,
        num_states=num_states,
        share=share,
    )
