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
as one constant, so they never receive gradients.  A 2-input energy net is
only ever evaluated on a (parent, child) grid, and there its Fourier layer
and first dense layer are one ``fourier_dense`` op: by angle addition the
pre-activation is one product of the parents' cos/sin with a block built
from the children's cos/sin and the weights, so the grid's (J n, 2K)
features are never formed.  Evaluations that take no gradient hand all
the weights of a ``ParamNets`` to the tape as constants too
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
        """Features of the constant points x (R, input_dim), as one tape constant.

        cos and sin of the projection x @ 2 pi F, interleaved; with one input
        column each angle is one product.  Energy grids of two inputs go
        through ``fourier_dense`` instead.
        """
        if x.needs_grad:
            raise ValueError("Fourier features take constant inputs only")
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ValueError(f"Fourier features need points of shape (R, {self.input_dim}), got {x.shape}")
        angle = x.data @ (TWO_PI * self.frequencies)
        return tape.const(np.stack([np.cos(angle), np.sin(angle)], axis=-1).reshape(x.shape[0], self.output_dim))


def fourier_dense(frequencies: np.ndarray, child_z: np.ndarray, parent_z: np.ndarray, w: Node, b: Node, act: bool) -> Node:
    """A 2-input net's Fourier layer and first dense layer on the (parent, child) grid, as one tape op.

    Row j n + k is tanh(phi(child_z[k], parent_z[j]) @ w + b) (no tanh
    without ``act``), where phi interleaves cos and sin of the angles
    a[k] + c[j], a = 2 pi child_z F[0] and c = 2 pi parent_z F[1].  With
    w_c = w[0::2] and w_s = w[1::2], angle addition gives
    phi @ w = cos c[j] @ U[:, k] + sin c[j] @ V[:, k] for the child blocks
    U[f, k] = cos a[k, f] w_c[f] + sin a[k, f] w_s[f] and
    V[f, k] = cos a[k, f] w_s[f] - sin a[k, f] w_c[f]: one (J, 2K) @ (2K, n H)
    product.  Saves the children's cos/sin (K, n, 2), the parents' (J, 2K)
    and the output, never a (J n, 2K) array.
    """
    num_freq = w.shape[0] // 2
    if frequencies.shape != (2, num_freq) or w.shape[0] != 2 * num_freq:
        raise ValueError(f"fourier_dense needs (2, K) frequencies and a (2K, H) weight, got {frequencies.shape} and {w.shape}")
    child_angle = np.multiply.outer(child_z, TWO_PI * frequencies[0]).T
    parent_angle = np.multiply.outer(parent_z, TWO_PI * frequencies[1])
    child = np.stack([np.cos(child_angle), np.sin(child_angle)], axis=2)
    parent = np.concatenate([np.cos(parent_angle), np.sin(parent_angle)], axis=1)
    w_c, w_s = w.data[0::2], w.data[1::2]
    blocks = np.stack([np.stack([w_c, w_s], axis=1), np.stack([w_s, -w_c], axis=1)])
    out = parent @ (child @ blocks).reshape(2 * num_freq, -1)
    out = ad._bias_act(out.reshape(-1, w.shape[1]), b.data, act)
    return w.tape.record("fourier_dense", out, (w, b), (child, parent, out, act))


@ad._backward_rule("fourier_dense")
def _fourier_dense_bwd(ctx, g):
    # d[U; V] = [cos c | sin c]^T gz; the (2, K, 2, H) blocks [w_c, w_s; w_s, -w_c] get child^T d[U; V]
    child, parent, out, act = ctx
    gz = ad._pre_act_grad(out, g, act)
    num_freq, n = child.shape[:2]
    duv = parent.T @ gz.reshape(len(parent), -1)
    dblocks = child.transpose(0, 2, 1) @ duv.reshape(2, num_freq, n, -1)
    dw = np.stack([dblocks[0, :, 0] - dblocks[1, :, 1], dblocks[0, :, 1] + dblocks[1, :, 0]], axis=1)
    return dw.reshape(2 * num_freq, -1), gz.sum(axis=0)


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

    @property
    def depth(self) -> int:
        return len(self.params) // 2

    def _body(self, tape: Tape, pnodes: dict[str, Node], x: Node) -> Node:
        return self._dense_layers(pnodes, self.ffl.forward(tape, x), 0)

    def _dense_layers(self, pnodes: dict[str, Node], h: Node, first: int) -> Node:
        """Dense layers ``first``, ... on h, with tanh on all but the head."""
        for layer in range(first, self.depth):
            h = ad.dense(h, pnodes[f"w{layer}"], pnodes[f"b{layer}"], act=layer < self.depth - 1)
        return h


class EnergyNet(_Mlp):
    """Nonnegative conditional energy f_i(z_child, z_parent); softplus head."""

    def __init__(self, net_id, input_dim, num_frequencies=32, hidden=(64, 64), ff_scale=1.0, rng=None):
        if input_dim not in (1, 2):
            raise ValueError("energy nets condition on at most one parent latent")
        super().__init__(net_id, "f", input_dim, (*hidden, 1), num_frequencies, ff_scale, rng)
        self.input_dim = input_dim

    def forward(self, tape: Tape, pnodes: dict[str, Node], child_z: np.ndarray, parent_z: np.ndarray | None = None) -> Node:
        """Energies on the (parent, child) grid, (J, n): out[j, k] = f(child_z[k], parent_z[j]).

        The root net takes no parent_z and gives one row (J = 1).  A 2-input
        net's first layer is one ``fourier_dense`` op over the grid.
        """
        if (parent_z is None) != (self.input_dim == 1):
            raise ValueError(f"an energy net of {self.input_dim} inputs takes {'no' if self.input_dim == 1 else 'a'} parent_z")
        child_z = np.asarray(child_z, dtype=np.float64)
        if parent_z is None:
            h = self._body(tape, pnodes, tape.const(child_z[:, None]))
        else:
            parent_z = np.asarray(parent_z, dtype=np.float64)
            h = fourier_dense(self.ffl.frequencies, child_z, parent_z, pnodes["w0"], pnodes["b0"], act=self.depth > 1)
            h = self._dense_layers(pnodes, h, 1)
        return ad.reshape(ad.softplus(h), (-1, len(child_z)))


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
    1-input net); parameter names then coincide, so ``param_arrays``, and
    with it the tape's parameter registry, holds a shared net once.
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
        energy = [EnergyNet(i, 1 if i == root else 2, num_frequencies, hidden, ff_scale, streams[i]) for i in range(n)]
        decoder = [DecoderNet(j, family, num_states, num_frequencies, decoder_hidden, ff_scale, streams[n + j]) for j in range(m)]
        if share:
            # each net draws from its own stream: the shared nets are the unshared model's first child net and first decoder
            child = next((net for i, net in enumerate(energy) if i != root), None)
            energy = [net if i == root else child for i, net in enumerate(energy)]
            decoder = decoder[:1] * m
        return cls(tree.latent_parent, tree.obs_parent, energy, decoder, family, num_states, share)

    def register(self, tape: Tape) -> dict[str, Node]:
        return {k: tape.param(k, v) for k, v in self.param_arrays().items()}

    def net_pnodes(self, net, pnodes: dict[str, Node]) -> dict[str, Node]:
        return {k: pnodes[f"{net.name}.{k}"] for k in net.params}

    def param_arrays(self) -> dict[str, np.ndarray]:
        """Every net's weights under the name ``{net.name}.{key}``; a shared net appears once."""
        nets = list({id(net): net for net in (*self.energy, *self.decoder)}.values())
        if len({net.name for net in nets}) < len(nets):
            raise ValueError("two different nets share a name; only a shared net may repeat one")
        return {f"{net.name}.{k}": v for net in nets for k, v in net.params.items()}


def _const_weights(tape: Tape, nets: ParamNets) -> dict[str, Node]:
    """Every net's weights as tape constants, named as ``register`` names them, for forward-only evaluations."""
    return {k: tape.const(v) for k, v in nets.param_arrays().items()}


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
