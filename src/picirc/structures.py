"""Structure learning and compilation to symbolic circuits.

Covers three layers: learning a Chow-Liu tree over observed variables from
data (maximum-spanning tree of pairwise mutual information), lifting it to
a latent tree by pairing each observable with one latent, and compiling
any latent tree into a symbolic integral circuit by eliminating latents
bottom-up.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, CircuitBuilder, InputDist, _decode_cond, _encode_cond
from .errors import SchemaError


def top_down_order(latent_parent) -> list[int]:
    """Breadth-first latent order from the root, children in index order.

    The one tree order of the package: reversed, it visits children before
    parents.  Raises ValueError unless ``latent_parent`` is a single tree:
    exactly one root, every parent index in range, every latent reached
    from the root (an unreached latent sits on or below a cycle).
    """
    n = len(latent_parent)
    roots = [i for i, p in enumerate(latent_parent) if p is None]
    if len(roots) != 1:
        raise ValueError(f"latent tree must have exactly one root, found {len(roots)}")
    children: list[list[int]] = [[] for _ in range(n)]
    for i, p in enumerate(latent_parent):
        if p is None:
            continue
        if not 0 <= p < n:
            raise ValueError(f"latent {i}: parent {p} out of range")
        children[p].append(i)
    order = roots
    k = 0
    while k < len(order):
        order.extend(children[order[k]])
        k += 1
    if len(order) != n:
        missing = min(set(range(n)) - set(order))
        raise ValueError(f"latent parent map has a cycle: latent {missing} is not reachable from the root")
    return order


@dataclass(frozen=True)
class LatentTree:
    """A tree-shaped model: latents form the skeleton, observables are leaves.

    ``latent_parent[i]`` is the parent latent of latent i (None at the
    root); ``obs_parent[j]`` is the latent that observable j hangs off.
    The ``*_cond`` entries describe each node's conditional given its
    parent: ``{"type": "neural", "net": i, ...}`` with family info for
    observables, or ``{"type": "linear-gaussian", ...}`` with coefficients.
    """

    latent_parent: tuple
    obs_parent: tuple
    latent_cond: tuple
    obs_cond: tuple

    @property
    def num_latents(self) -> int:
        return len(self.latent_parent)

    @property
    def num_observables(self) -> int:
        return len(self.obs_parent)

    @property
    def root(self) -> int:
        return top_down_order(self.latent_parent)[0]

    def validate(self) -> None:
        n = self.num_latents
        top_down_order(self.latent_parent)
        for j, p in enumerate(self.obs_parent):
            if not 0 <= p < n:
                raise ValueError(f"observable {j}: parent latent {p} out of range")
        if len(self.latent_cond) != n or len(self.obs_cond) != self.num_observables:
            raise ValueError("conditional lists must align with node lists")


def tree_to_json(tree: LatentTree) -> bytes:
    doc = {
        "latents": [
            {"parent": p, "cond": _encode_cond(c)}
            for p, c in zip(tree.latent_parent, tree.latent_cond)
        ],
        "observables": [
            {"parent": p, "cond": _encode_cond(c)}
            for p, c in zip(tree.obs_parent, tree.obs_cond)
        ],
    }
    return json.dumps(doc, indent=1).encode()


def tree_from_json(data: bytes | str) -> LatentTree:
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as e:
        raise SchemaError(f"malformed latent-tree JSON at byte {e.pos}: {e.msg}") from e
    try:
        tree = LatentTree(
            latent_parent=tuple(rec["parent"] for rec in doc["latents"]),
            obs_parent=tuple(rec["parent"] for rec in doc["observables"]),
            latent_cond=tuple(_decode_cond(rec["cond"]) for rec in doc["latents"]),
            obs_cond=tuple(_decode_cond(rec["cond"]) for rec in doc["observables"]),
        )
    except (KeyError, TypeError) as e:
        raise SchemaError(f"latent-tree JSON missing field: {e}") from e
    tree.validate()
    return tree


def _check_smoothing(smoothing) -> None:
    if not (np.isfinite(smoothing) and smoothing >= 0):
        raise ValueError(f"smoothing must be a finite number ≥ 0, got {smoothing}")


def mutual_information(data: np.ndarray, i: int, j: int, smoothing: float = 0.01) -> float:
    """Plug-in mutual information of columns i and j, in nats.

    Estimated from the empirical joint with additive (Laplace) smoothing on
    the joint counts; marginals are the smoothed joint's marginals, so the
    result is a true MI and never negative.  A negative or non-finite
    smoothing raises ValueError: it would drop or poison joint cells.
    """
    _check_smoothing(smoothing)
    data = np.asarray(data)
    if data.size == 0:
        raise ValueError("mutual information needs at least one row of data")
    ci = np.unique(data[:, i], return_inverse=True)[1]
    cj = np.unique(data[:, j], return_inverse=True)[1]
    u = ci.max() + 1
    v = cj.max() + 1
    counts = np.zeros((u, v))
    np.add.at(counts, (ci, cj), 1.0)
    m = counts + smoothing
    p = m / m.sum()
    pu = p.sum(axis=1, keepdims=True)
    pv = p.sum(axis=0, keepdims=True)
    mask = p > 0
    mi = float(np.sum(p[mask] * np.log(p[mask] / (pu @ pv)[mask])))
    return max(mi, 0.0)


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def max_spanning_tree(weights: np.ndarray, root: int = 0) -> np.ndarray:
    """Greedy maximum spanning tree of a symmetric weight matrix.

    Edges are taken heaviest-first with ties broken by smallest variable
    indices; the tree is then rooted and returned as a parent array with
    -1 at the root.
    """
    d = weights.shape[0]
    edges = sorted(
        ((i, j) for i in range(d) for j in range(i + 1, d)),
        key=lambda e: (-weights[e[0], e[1]], e[0], e[1]),
    )
    uf = _UnionFind(d)
    adj: list[list[int]] = [[] for _ in range(d)]
    taken = 0
    for i, j in edges:
        if uf.union(i, j):
            adj[i].append(j)
            adj[j].append(i)
            taken += 1
            if taken == d - 1:
                break
    parent = np.full(d, -1, dtype=np.int64)
    seen = [False] * d
    queue = [root]
    seen[root] = True
    while queue:
        u = queue.pop(0)
        for v in sorted(adj[u]):
            if not seen[v]:
                seen[v] = True
                parent[v] = u
                queue.append(v)
    return parent


def chow_liu_tree(data: np.ndarray, smoothing: float = 0.01) -> np.ndarray:
    """Chow-Liu tree over the data columns, rooted at variable 0.

    Returns a parent array (-1 at the root) of the maximum-spanning tree
    of the pairwise mutual-information graph.  A missing (NaN) cell raises
    ValueError: the counts would take NaN for one more state; so does a
    smoothing that ``mutual_information`` refuses.
    """
    data = np.asarray(data)
    d = data.shape[1]
    if d < 2:
        raise ValueError("chow_liu_tree needs at least two variables")
    if np.isnan(data).any():
        raise ValueError("structure learning needs fully observed data")
    weights = np.zeros((d, d))
    for i in range(d):
        for j in range(i + 1, d):
            weights[i, j] = weights[j, i] = mutual_information(data, i, j, smoothing)
    return max_spanning_tree(weights, root=0)


def hclt_structure(clt_parent: np.ndarray, family: str, num_states: int | None = None) -> LatentTree:
    """Lift a tree over observables to a latent tree.

    The latent skeleton mirrors the input tree edge for edge; observable j
    is reattached as the single leaf child of latent j.  Conditionals are
    tagged neural, net i for both the latent edge into Z_i and the decoder
    of X_i.
    """
    clt_parent = np.asarray(clt_parent)
    d = clt_parent.shape[0]
    obs_cond = []
    for j in range(d):
        cond = {"type": "neural", "net": int(j), "family": family}
        if num_states is not None:
            cond["k"] = int(num_states)
        obs_cond.append(cond)
    return LatentTree(
        latent_parent=tuple(None if p < 0 else int(p) for p in clt_parent),
        obs_parent=tuple(range(d)),
        latent_cond=tuple({"type": "neural", "net": int(i)} for i in range(d)),
        obs_cond=tuple(obs_cond),
    )


def _symbolic_input_dist(cond: dict) -> InputDist:
    if cond.get("type") == "linear-gaussian":
        return InputDist("gaussian", conditional=cond)
    family = cond.get("family")
    if family is None:
        raise ValueError(f"observable conditional needs a family tag: {cond}")
    return InputDist(family, num_states=cond.get("k"), conditional=cond)


def bn_to_pic(tree: LatentTree) -> Circuit:
    """Compile a latent tree into a symbolic integral circuit.

    Latents are eliminated one at a time, children before parents, in
    reverse breadth-first order from the root (``top_down_order``): the
    pending units below a latent (input units of its observable children
    plus integral units of its already-eliminated latent children) are
    combined with a product unit (skipped when there is a single child)
    and wrapped in an integral unit conditioned on the parent latent.  The
    root's integral carries the prior.
    """
    tree.validate()
    builder = CircuitBuilder()
    pending: list[list[int]] = [[] for _ in range(tree.num_latents)]
    for j in range(tree.num_observables):
        uid = builder.add_input(j, _symbolic_input_dist(tree.obs_cond[j]))
        pending[tree.obs_parent[j]].append(uid)

    root_unit = None
    for i in reversed(top_down_order(tree.latent_parent)):
        units = pending[i]
        if not units:
            raise ValueError(f"latent {i} has no children to integrate over")
        body = builder.add_product(units) if len(units) > 1 else units[0]
        p = tree.latent_parent[i]
        u = builder.add_integral(body, var=i, parent=p, cond=tree.latent_cond[i])
        if p is None:
            root_unit = u
        else:
            pending[p].append(u)
    return builder.finish(root=root_unit)
