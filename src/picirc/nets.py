"""Neural parameterization of symbolic circuits.

Each latent i gets an energy net f_i over (z_i, z_parent) in [-1,1]^2
(just z at the root), defining the conditional density
exp(-f_i(z, z_parent)) up to a normalization handled at materialization.
Each observable j gets a decoder net g_j mapping a latent point to the
parameters of that observable's input distribution.  Both are tiny MLPs
whose first layer is a fixed random Fourier feature map, which keeps them
expressive on the bounded latent domain while staying cheap.

All forward passes run on a gradient tape, one ``autodiff.dense`` op per
layer.  The Fourier features of the (always constant) input points enter
as one constant: cos and sin are taken once per distinct value of each
input column and combined by angle addition, so they never receive
gradients.  Evaluations that take no gradient hand the weights to the tape
as constants too (``_const_weights``), so their tape records nothing.
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
        """Features of the constant points x (R, input_dim), as one tape constant.

        cos and sin are taken once per distinct value of each column and the
        columns combined by angle addition, cos(a+b) = cos a cos b - sin a sin b
        and sin(a+b) = sin a cos b + cos a sin b: an N x N grid costs 2 N K
        transcendentals per column, not N^2 K.
        """
        if x.needs_grad:
            raise ValueError("Fourier features take constant inputs only")
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ValueError(f"Fourier features need points of shape (R, {self.input_dim}), got {x.shape}")
        cos = sin = None
        for col, freq in zip(x.data.T, TWO_PI * self.frequencies):
            values, inverse = np.unique(col, return_inverse=True)
            angle = np.multiply.outer(values, freq)
            c = np.take(np.cos(angle), inverse, axis=0)
            s = np.take(np.sin(angle), inverse, axis=0)
            if cos is None:
                cos, sin = c, s
            else:
                cos, sin = cos * c - sin * s, sin * c + cos * s
        return tape.const(np.stack([cos, sin], axis=-1).reshape(x.shape[0], self.output_dim))


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
            h = ad.dense(h, pnodes[f"w{layer}"], pnodes[f"b{layer}"], act=layer < depth - 1)
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
        return ad.log_normalize(raw)
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

    def nets_of(records, build) -> list:
        """One net per record; a repeated net_id (with share) must repeat its first record exactly."""
        first: dict[int, tuple[dict, _Mlp]] = {}
        out = []
        for rec in records:
            nid = rec["net_id"]
            if nid not in first:
                net = build(rec)
                _restore_net(net, rec)
                first[nid] = (rec, net)
            elif not share:
                raise SchemaError(f"checkpoint repeats net_id {nid} without share")
            else:
                seen, net = first[nid]
                diff = sorted(k for k in rec.keys() | seen.keys() if rec.get(k) != seen.get(k))
                if diff:
                    raise SchemaError(f"checkpoint repeats net_id {nid} with a different {', '.join(diff)}")
            out.append(net)
        return out

    def hidden(rec) -> tuple:
        return tuple(rec["shapes"][f"w{i}"][1] for i in range(len(rec["shapes"]) // 2 - 1))

    energy = nets_of(
        doc["energy"],
        lambda rec: EnergyNet(
            rec["net_id"], rec["input_dim"], num_frequencies=rec["num_frequencies"], hidden=hidden(rec), ff_scale=rec["ff_scale"]
        ),
    )
    decoder = nets_of(
        doc["decoder"],
        lambda rec: DecoderNet(
            rec["net_id"],
            rec["family"],
            num_states=rec.get("k"),
            num_frequencies=rec["num_frequencies"],
            hidden=hidden(rec),
            ff_scale=rec["ff_scale"],
        ),
    )
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
