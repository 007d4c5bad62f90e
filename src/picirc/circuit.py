"""Circuit data model shared by symbolic and materialized circuits.

A circuit is a rooted DAG of units.  Input units hold a univariate
distribution over one observable; sum units mix their children with
log-space weights; product units factorize over disjoint scopes; integral
units marginalize one continuous latent variable symbolically.  A circuit
with integral units is a symbolic integral circuit; after materialization
only input/sum/product units remain and the circuit is a standard
probabilistic circuit.

Input units come in two modes sharing one type: concrete (a parameter
vector, e.g. categorical log-probabilities) and symbolic (a descriptor of
how the parameters depend on the latent above, resolved at
materialization).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import CircuitError, SchemaError

KINDS = ("input", "sum", "product", "integral")
FAMILIES = ("categorical", "binomial", "gaussian")


def param_width(family: str, num_states=None) -> int:
    """Parameter count of one input distribution of a family.

    k log-probabilities for categorical(k), one success probability for
    binomial(k), (mean, log stddev) for gaussian.  An unknown family, or
    a discrete family without a positive integer state count, raises
    ValueError.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown input family {family!r}")
    if family == "gaussian":
        return 2
    if not isinstance(num_states, (int, np.integer)) or num_states < 1:
        raise ValueError(f"{family} needs a positive state count")
    return num_states if family == "categorical" else 1


def in_support(family: str, num_states, x: np.ndarray) -> np.ndarray:
    """Elementwise test that values lie in a family's support.

    The integers 0..k-1 for categorical(k), 0..k for binomial(k), any
    finite real for gaussian; NaN is outside.  Only float comparisons are
    used, so an infinite or huge value is rejected, never overflowed.
    """
    if family == "gaussian":
        return np.isfinite(x)
    top = num_states - 1 if family == "categorical" else num_states
    return (x == np.floor(x)) & (x >= 0) & (x <= top)


@dataclass(frozen=True, eq=False)
class InputDist:
    """Distribution descriptor for an input unit.

    Concrete mode stores ``params``: log-probabilities for categorical(K),
    a single success probability for binomial(K), or (mean, log stddev)
    for gaussian.  Symbolic mode stores ``conditional`` instead, a dict
    describing how params are produced from the latent value above
    (``{"type": "neural", "net": i}`` or
    ``{"type": "linear-gaussian", "c": ..., "d": ..., "tau": ...}``).
    """

    family: str
    num_states: int | None = None
    params: np.ndarray | None = None
    conditional: dict | None = None

    @property
    def symbolic(self) -> bool:
        return self.params is None

    def validate(self) -> None:
        try:
            width = param_width(self.family, self.num_states)
        except ValueError as e:
            raise CircuitError(str(e)) from None
        if (self.params is None) == (self.conditional is None):
            raise CircuitError("input dist needs exactly one of params / conditional")
        if self.params is None:
            return
        p = self.params
        if p.shape != (width,):
            raise CircuitError(f"{self.family} needs {width} parameters, got shape {p.shape}")
        if self.family == "categorical":
            mass = np.exp(p).sum()
            if abs(mass - 1.0) > 1e-9:
                raise CircuitError(f"categorical log-probs sum to {mass}, not 1")
        elif self.family == "binomial" and not 0.0 < p[0] < 1.0:
            raise CircuitError("binomial needs one success probability in (0, 1)")
        elif self.family == "gaussian" and not np.isfinite(p).all():
            raise CircuitError("gaussian needs finite (mean, log stddev)")


@dataclass(frozen=True, eq=False)
class Unit:
    uid: int
    kind: str
    children: tuple[int, ...] = ()
    scope: frozenset[int] = frozenset()
    weights: np.ndarray | None = None
    dist: InputDist | None = None
    latent: dict | None = None

    @property
    def var(self) -> int:
        """The single observable of an input unit."""
        (v,) = self.scope
        return v


@dataclass(eq=False)
class Circuit:
    """Unit list indexed by id, a root id, and the observable count."""

    units: list[Unit]
    root: int
    num_vars: int

    def __len__(self) -> int:
        return len(self.units)

    @property
    def num_edges(self) -> int:
        return sum(len(u.children) for u in self.units)

    def unit(self, uid: int) -> Unit:
        return self.units[uid]

    def integral_units(self) -> list[Unit]:
        return [u for u in self.units if u.kind == "integral"]

    @property
    def is_symbolic(self) -> bool:
        return any(u.kind == "integral" for u in self.units)

    def validate(self) -> None:
        n = len(self.units)
        for i, u in enumerate(self.units):
            if u.uid != i:
                raise CircuitError(f"unit ids not dense: position {i} holds id {u.uid}")
            if u.kind not in KINDS:
                raise CircuitError(f"unit {i}: unknown kind {u.kind!r}")
            for c in u.children:
                if not 0 <= c < n:
                    raise CircuitError(f"unit {i}: child id {c} out of range")
            if u.kind == "input":
                if u.children:
                    raise CircuitError(f"input unit {i} has children")
                if u.dist is None:
                    raise CircuitError(f"input unit {i} has no distribution")
                u.dist.validate()
                if len(u.scope) != 1:
                    raise CircuitError(f"input unit {i} needs a singleton scope")
            elif u.kind == "sum":
                if u.weights is None or len(u.weights) != len(u.children) or not u.children:
                    raise CircuitError(f"sum unit {i}: weights must align with children")
            elif u.kind == "product":
                if not u.children:
                    raise CircuitError(f"product unit {i} has no children")
            else:
                if len(u.children) != 1:
                    raise CircuitError(f"integral unit {i} needs exactly one child")
                if u.latent is None or "var" not in u.latent or "cond" not in u.latent:
                    raise CircuitError(f"integral unit {i} missing latent descriptor")
            if u.kind != "input":
                union = frozenset().union(*(self.units[c].scope for c in u.children))
                if u.scope != union:
                    raise CircuitError(f"unit {i}: scope differs from union of children scopes")
        if not 0 <= self.root < n:
            raise CircuitError(f"root id {self.root} out of range")
        order = post_order(self)
        if len(order) != n:
            unreachable = sorted(set(range(n)) - set(order))
            raise CircuitError(f"units not reachable from root: {unreachable}")
        latents = [u.latent["var"] for u in self.integral_units()]
        if len(latents) != len(set(latents)):
            raise CircuitError("integral units must integrate distinct latent variables")
        if self.units[self.root].scope != frozenset(range(self.num_vars)):
            raise CircuitError("root scope must cover all observables")


def post_order(circuit: Circuit) -> list[int]:
    """Children-before-parents order from the root; deterministic.

    Iterative depth-first traversal following stored child order: each
    stack frame holds an iterator over its unit's children.  Raises on
    cycles, naming the unit where the back-edge was found.
    """
    WHITE, GRAY, BLACK = 0, 1, 2
    units = circuit.units
    color = [WHITE] * len(units)
    order: list[int] = []
    stack = [(circuit.root, iter(units[circuit.root].children))]
    color[circuit.root] = GRAY
    while stack:
        uid, children = stack[-1]
        for c in children:
            state = color[c]
            if state == WHITE:
                color[c] = GRAY
                stack.append((c, iter(units[c].children)))
                break
            if state == GRAY:
                raise CircuitError(f"cycle detected at unit {c}")
        else:
            stack.pop()
            color[uid] = BLACK
            order.append(uid)
    return order


@dataclass(frozen=True)
class StructureReport:
    smooth: bool
    decomposable: bool
    structured: bool


def check_structure(circuit: Circuit) -> StructureReport:
    """Report smoothness, decomposability, and structured decomposability.

    Integral units impose no constraint here; sums must have children
    sharing the sum's scope, products must split their scope into disjoint
    parts, and same-scope products must split identically for the
    structured property.
    """
    smooth = True
    decomposable = True
    partitions: dict[frozenset, frozenset] = {}
    structured = True
    for u in circuit.units:
        if u.kind == "sum":
            if any(circuit.units[c].scope != u.scope for c in u.children):
                smooth = False
        elif u.kind == "product":
            sizes = sum(len(circuit.units[c].scope) for c in u.children)
            if sizes != len(u.scope):
                decomposable = False
                structured = False
                continue
            part = frozenset(circuit.units[c].scope for c in u.children)
            if partitions.setdefault(u.scope, part) != part:
                structured = False
    return StructureReport(smooth=smooth, decomposable=decomposable, structured=structured and decomposable)


class CircuitBuilder:
    """Incremental construction with dense ids and automatic scopes."""

    def __init__(self):
        self._units: list[Unit] = []

    def _push(self, unit: Unit) -> int:
        self._units.append(unit)
        return unit.uid

    def add_input(self, var: int, dist: InputDist) -> int:
        return self._push(Unit(len(self._units), "input", (), frozenset((var,)), dist=dist))

    def add_sum(self, children, log_weights) -> int:
        children = tuple(children)
        w = np.array(log_weights, dtype=np.float64)
        w.setflags(write=False)
        scope = frozenset().union(*(self._units[c].scope for c in children))
        return self._push(Unit(len(self._units), "sum", children, scope, weights=w))

    def add_product(self, children) -> int:
        children = tuple(children)
        scope = frozenset().union(*(self._units[c].scope for c in children))
        return self._push(Unit(len(self._units), "product", children, scope))

    def add_integral(self, child: int, var: int, parent: int | None, cond: dict) -> int:
        latent = {"var": var, "parent": parent, "cond": cond}
        scope = self._units[child].scope
        return self._push(Unit(len(self._units), "integral", (child,), scope, latent=latent))

    def finish(self, root: int | None = None, num_vars: int | None = None) -> Circuit:
        if root is None:
            root = len(self._units) - 1
        if num_vars is None:
            num_vars = len(self._units[root].scope)
        circuit = Circuit(units=self._units, root=root, num_vars=num_vars)
        circuit.validate()
        return circuit


def _fmt(x: float) -> str:
    return repr(float(x))


_COND_FLOAT_KEYS = frozenset(("a", "b", "sigma", "c", "d", "tau"))


def _encode_cond(cond: dict) -> dict:
    out = {}
    for key, val in cond.items():
        out[key] = _fmt(val) if key in _COND_FLOAT_KEYS else val
    return out


def _decode_cond(cond: dict) -> dict:
    out = {}
    for key, val in cond.items():
        out[key] = float(val) if key in _COND_FLOAT_KEYS else val
    return out


def serialize(circuit: Circuit) -> bytes:
    """JSON encoding with floats as full-precision decimal strings."""
    units = []
    for u in circuit.units:
        rec: dict = {
            "id": u.uid,
            "kind": u.kind,
            "children": list(u.children),
            "scope": sorted(u.scope),
        }
        if u.weights is not None:
            rec["weights"] = [_fmt(w) for w in u.weights]
        if u.dist is not None:
            d: dict = {"family": u.dist.family}
            if u.dist.num_states is not None:
                d["k"] = u.dist.num_states
            if u.dist.params is not None:
                d["params"] = [_fmt(p) for p in u.dist.params]
            if u.dist.conditional is not None:
                d["conditional"] = _encode_cond(u.dist.conditional)
            rec["dist"] = d
        if u.latent is not None:
            rec["latent"] = {
                "var": u.latent["var"],
                "parent": u.latent["parent"],
                "cond": _encode_cond(u.latent["cond"]),
            }
        units.append(rec)
    doc = {"num_vars": circuit.num_vars, "root": circuit.root, "units": units}
    return json.dumps(doc, indent=1).encode()


def deserialize(data: bytes | str) -> Circuit:
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as e:
        raise SchemaError(f"malformed circuit JSON at byte {e.pos}: {e.msg}") from e
    try:
        num_vars = int(doc["num_vars"])
        root = int(doc["root"])
        raw_units = doc["units"]
    except (KeyError, TypeError) as e:
        raise SchemaError(f"circuit JSON missing required field: {e}") from e

    slots: list[Unit | None] = [None] * len(raw_units)
    for rec in raw_units:
        try:
            uid = int(rec["id"])
            kind = rec["kind"]
            children = tuple(int(c) for c in rec["children"])
            scope = frozenset(int(v) for v in rec["scope"])
        except (KeyError, TypeError, ValueError) as e:
            raise SchemaError(f"bad unit record: {e}") from e
        if kind not in KINDS:
            raise SchemaError(f"unit {uid}: unknown kind {kind!r}")
        if not 0 <= uid < len(raw_units) or slots[uid] is not None:
            raise SchemaError(f"unit ids must be dense and unique; offending id {uid}")
        weights = None
        if "weights" in rec:
            weights = np.array([float(w) for w in rec["weights"]])
            weights.setflags(write=False)
        dist = None
        if "dist" in rec:
            d = rec["dist"]
            params = None
            if "params" in d:
                params = np.array([float(p) for p in d["params"]])
                params.setflags(write=False)
            dist = InputDist(
                family=d.get("family"),
                num_states=d.get("k"),
                params=params,
                conditional=_decode_cond(d["conditional"]) if "conditional" in d else None,
            )
        latent = None
        if "latent" in rec:
            lt = rec["latent"]
            try:
                latent = {
                    "var": int(lt["var"]),
                    "parent": None if lt["parent"] is None else int(lt["parent"]),
                    "cond": _decode_cond(lt["cond"]),
                }
            except (KeyError, TypeError) as e:
                raise SchemaError(f"unit {uid}: bad latent descriptor: {e}") from e
        slots[uid] = Unit(uid, kind, children, scope, weights=weights, dist=dist, latent=latent)

    circuit = Circuit(units=slots, root=root, num_vars=num_vars)
    circuit.validate()
    return circuit


def structurally_equal(a: Circuit, b: Circuit) -> bool:
    """Structural and bit-exact parameter equality."""
    if len(a.units) != len(b.units) or a.root != b.root or a.num_vars != b.num_vars:
        return False
    for ua, ub in zip(a.units, b.units):
        if (ua.kind, ua.children, ua.scope) != (ub.kind, ub.children, ub.scope):
            return False
        if (ua.weights is None) != (ub.weights is None):
            return False
        if ua.weights is not None and not np.array_equal(ua.weights, ub.weights):
            return False
        if (ua.dist is None) != (ub.dist is None):
            return False
        if ua.dist is not None:
            da, db = ua.dist, ub.dist
            if (da.family, da.num_states, da.conditional) != (db.family, db.num_states, db.conditional):
                return False
            if (da.params is None) != (db.params is None):
                return False
            if da.params is not None and not np.array_equal(da.params, db.params):
                return False
        if ua.latent != ub.latent:
            return False
    return True
