"""Minimal reverse-mode automatic differentiation on a tape of numpy arrays.

The engine is a Wengert list: every operation with an input that needs a
gradient appends a record to a ``Tape``, and ``backward`` replays the
records in reverse, accumulating vector-Jacobian products.  The tape holds
records (op name, node indices, saved arrays), never the nodes: each node
points at its tape, so a tape dies with its last node, freed by reference
counting.  A pass over constants only records nothing, and each of its
intermediates dies with its last consumer.  ``backward`` runs once per
tape and frees as it goes, leaving the records as an op log.

Only the primitives that the package records are implemented: ``add``,
``neg``, ``multiply`` (a + b on two nodes records ``add``), ``sigmoid``
and ``softplus`` (both through ``_sigmoid``, which is
``scipy.special.expit``), the dense layer ``dense`` (tanh(h @ w + b), or
h @ w + b on a head, as one op that saves only h, w and its output), the
row-wise ``log_normalize`` (x - logsumexp(x): each sum row and categorical
head), the log-space contraction ``lse_matmul`` (log(exp(a) @ exp(b)),
every sum layer of a QPC), ``sum`` and ``reshape``; ``training`` adds
``evidence`` and ``nets`` adds ``fourier_dense`` (a 2-input energy net's
first layer over its whole grid) through ``_backward_rule``.  Every
primitive registers its backward rule at import; recording an op with no
registered rule fails immediately rather than silently producing zero
gradients.
``_log_normalize_data`` and ``_lse_matmul_data`` are the forwards of
``log_normalize`` and ``lse_matmul``: one kernel each for ndarray and tape.

Values that are not registered as parameters (constants: data batches,
quadrature points and weights, Fourier features, and net weights
in forward-only evaluations) never receive gradients.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

_BACKWARD = {}


def _backward_rule(name):
    def deco(fn):
        _BACKWARD[name] = fn
        return fn

    return deco


class Node:
    """A value on the tape. Holds a float64 array and a gradient flag."""

    __slots__ = ("tape", "data", "needs_grad", "idx")

    def __init__(self, tape, data, needs_grad, idx):
        self.tape = tape
        self.data = data
        self.needs_grad = needs_grad
        self.idx = idx

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __add__(self, other):
        return add(self, other)

    def __repr__(self):
        return f"Node(shape={self.data.shape}, needs_grad={self.needs_grad})"


class Tape:
    """Operation recorder and parameter registry for one forward pass.

    Holds records and each parameter's (index, shape), never a ``Node``.
    ``backward`` spends it: afterwards each record keeps its op name and
    indices but no saved arrays, and a second ``backward`` raises.
    """

    def __init__(self):
        self._records = []
        self._size = 0
        self._params = {}
        self._spent = False

    def _new_node(self, data, needs_grad):
        node = Node(self, np.asarray(data, dtype=np.float64), needs_grad, self._size)
        self._size += 1
        return node

    def const(self, value) -> Node:
        """A non-learnable value; it will never receive a gradient."""
        return self._new_node(value, needs_grad=False)

    def param(self, name: str, value) -> Node:
        """Register a learnable array under a unique name."""
        if name in self._params:
            raise ValueError(f"parameter {name!r} already registered on this tape")
        node = self._new_node(value, needs_grad=True)
        self._params[name] = (node.idx, node.shape)
        return node

    def record(self, op_name, out_data, inputs, ctx) -> Node:
        if op_name not in _BACKWARD:
            raise NotImplementedError(
                f"primitive {op_name!r} has no registered backward rule"
            )
        in_idxs = tuple(inp.idx if inp.needs_grad else None for inp in inputs)
        needs = any(idx is not None for idx in in_idxs)
        out = self._new_node(out_data, needs)
        if needs:
            self._records.append((op_name, out.idx, in_idxs, ctx))
        return out

    def backward(self, loss: Node) -> dict[str, np.ndarray]:
        """Gradients of a scalar loss with respect to every registered parameter.

        Each record's saved arrays and its output's gradient are dropped as
        soon as its rule has run, so the peak is about the forward tape.  A
        first contribution is stored as the rule returned it and may alias
        another slot (``add`` hands one g to both inputs): so no rule writes
        into its g, no slot is written in place before a second contribution
        has made it an array of its own, and a parameter's gradient is
        copied on the way out if its slot never did.
        """
        if loss.tape is not self:
            raise ValueError("loss node belongs to a different tape")
        if loss.data.shape != ():
            raise ValueError(f"loss must be scalar, got shape {loss.data.shape}")
        if self._spent:
            raise ValueError("this tape has already run backward; record a new one")
        self._spent = True
        grads: list[np.ndarray | None] = [None] * self._size
        owned = [False] * self._size
        grads[loss.idx] = np.ones(())
        records = self._records
        for pos in reversed(range(len(records))):
            op_name, out_idx, in_idxs, ctx = records[pos]
            records[pos] = (op_name, out_idx, in_idxs, None)
            g, grads[out_idx] = grads[out_idx], None
            if g is None:
                continue
            for idx, contrib in zip(in_idxs, _BACKWARD[op_name](ctx, g)):
                if idx is None or contrib is None:
                    continue
                if grads[idx] is None:
                    grads[idx] = contrib
                elif owned[idx]:
                    grads[idx] += contrib
                else:
                    grads[idx] = grads[idx] + contrib
                    owned[idx] = True
        out = {}
        for name, (idx, shape) in self._params.items():
            g = grads[idx]
            out[name] = np.zeros(shape) if g is None else np.asarray(g) if owned[idx] else np.array(g, dtype=np.float64)
        return out


def _unbroadcast(g, shape):
    """Sum a broadcasted gradient back down to the original shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def add(a: Node, b: Node) -> Node:
    return a.tape.record("add", a.data + b.data, (a, b), (a.data.shape, b.data.shape))


@_backward_rule("add")
def _add_bwd(ctx, g):
    sa, sb = ctx
    return _unbroadcast(g, sa), _unbroadcast(g, sb)


def neg(a: Node) -> Node:
    return a.tape.record("neg", -a.data, (a,), None)


@_backward_rule("neg")
def _neg_bwd(ctx, g):
    return (-g,)


def multiply(a: Node, b: Node) -> Node:
    return a.tape.record("multiply", a.data * b.data, (a, b), (a.data, b.data))


@_backward_rule("multiply")
def _multiply_bwd(ctx, g):
    da, db = ctx
    return _unbroadcast(g * db, da.shape), _unbroadcast(g * da, db.shape)


_sigmoid = expit


def sigmoid(a: Node) -> Node:
    out = _sigmoid(a.data)
    return a.tape.record("sigmoid", out, (a,), out)


@_backward_rule("sigmoid")
def _sigmoid_bwd(ctx, g):
    # where the sigmoid is subnormal its gradient underflows toward 0, its true value
    with np.errstate(under="ignore"):
        return (g * ctx * (1.0 - ctx),)


def dense(h: Node, w: Node, b: Node, act: bool) -> Node:
    """One dense layer as one tape op: tanh(h @ w + b), or h @ w + b without ``act``.

    Saves h, w and the output.  The backward skips the product for h's
    gradient when h needs none (a first layer fed constant features).
    """
    if h.ndim != 2 or w.ndim != 2:
        raise ValueError(f"dense needs a 2-D input and weight, got {h.ndim}-D and {w.ndim}-D")
    out = _bias_act(h.data @ w.data, b.data, act)
    return h.tape.record("dense", out, (h, w, b), (h.data, w.data, out, act, h.needs_grad))


@_backward_rule("dense")
def _dense_bwd(ctx, g):
    h, w, out, act, h_needs_grad = ctx
    gz = _pre_act_grad(out, g, act)
    return (gz @ w.T if h_needs_grad else None), h.T @ gz, gz.sum(axis=0)


def _bias_act(out, b, act):
    """out + b, then tanh with ``act``, in place: the end of a dense layer's forward."""
    out += b
    if act:
        np.tanh(out, out=out)
    return out


def _pre_act_grad(out, g, act):
    """The gradient before the activation of a layer that output out: g (1 - out^2) with tanh, else g."""
    if not act:
        return g
    gz = out * out
    np.subtract(1.0, gz, out=gz)
    gz *= g
    return gz


def softplus(a: Node) -> Node:
    x = a.data
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    return a.tape.record("softplus", out, (a,), x)


@_backward_rule("softplus")
def _softplus_bwd(ctx, g):
    return (g * _sigmoid(ctx),)


_TINY = np.finfo(np.float64).tiny
_LOG_TINY = float(np.log(_TINY))


def _log_normalize_data(x):
    """x - logsumexp(x) over each row of a 2-D x (a log-softmax); an all -inf row, which has no mass, is NaN.

    As in ``_exp_above_tiny``, a term below ``finfo.tiny`` is never put
    through numpy's slow exp path: it is 0, and a row's sum holds its
    maximum's exp(0) = 1, which a subnormal cannot move.  A NaN term stays
    NaN.
    """
    m = np.max(x, axis=1, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    d = x - m
    with np.errstate(divide="ignore"):
        lse = np.log(np.sum(np.exp(d, out=np.zeros(d.shape), where=~(d < _LOG_TINY)), axis=1, keepdims=True)) + m
    return x - lse


def log_normalize(a: Node) -> Node:
    """x - logsumexp(x) over each row of a 2-D node, as one tape op."""
    out = _log_normalize_data(a.data)
    return a.tape.record("log_normalize", out, (a,), (a.data, out))


@_backward_rule("log_normalize")
def _log_normalize_bwd(ctx, g):
    # d out[j, k] / d x[j, l] = [k == l] - softmax(x[j])[l]; a -inf entry has softmax 0
    x, out = ctx
    p = np.where(np.isneginf(x), 0.0, np.exp(out))
    return (g - g.sum(axis=1, keepdims=True) * p,)


def _lse_matmul_parts(a, b, product=np.matmul):
    """log(exp(a) @ exp(b)) for a (J, K) and b (K, B), with what its backward needs.

    Each row of a and each column of b is shifted by its own max, and the
    shifted exponentials below ``finfo.tiny`` are flushed to 0 before the
    BLAS product: a dropped term is below tiny and its other factor is at
    most 1, so a cell moves by less than K * tiny.  A cell whose product
    falls below K * tiny * 1e12 (underflowed, or too close to the flush to
    keep 1e-12) is recomputed by an exact logsumexp over k, vectorized over
    chunks of such cells; (rows, cols) lists them.  NaN in an operand
    propagates to its row or column.  ``product`` multiplies the shifted
    exponentials: BLAS by default; the explicit-circuit evaluator passes a
    column-invariant one.

    The product runs on ea scaled in place by 2^s (``_product_scale``),
    and ea and prod are scaled back after it: x86 BLAS runs about half as
    fast on subnormal products, and a kept product ea * eb is then
    subnormal only below 2^-2022.  Power-of-two scaling is exact on normal
    floats, a cell whose product is below tiny is under the recompute cut,
    and above the cut the unscaled product's rounding of a subnormal term
    moves a cell by under 2^-38 of its last place.  So ea and eb come back
    unchanged, out has matched the unscaled product bit for bit on every
    contraction measured, and prod differs only in recomputed cells.  A
    row whose max is NaN or +inf keeps scale 1, and so does every row when
    a column's max is: its shift falls back to 0, so its exponentials can
    exceed 1 and would overflow.
    """
    m1 = a.max(axis=1, keepdims=True)
    m2 = b.max(axis=0, keepdims=True)
    scale = 2.0 ** _product_scale(a.shape[1]) if (m2 < np.inf).all() else 1.0
    if not (m1 < np.inf).all():
        scale = np.where(m1 < np.inf, scale, 1.0)
    m1 = np.where(np.isfinite(m1), m1, 0.0)
    m2 = np.where(np.isfinite(m2), m2, 0.0)
    ea = _flushed_exp(a - m1)
    eb = _flushed_exp(b - m2)
    ea *= scale
    prod = product(ea, eb)
    scale = 1.0 / scale
    ea *= scale
    prod *= scale
    with np.errstate(divide="ignore"):
        out = np.log(prod)
    out += m1
    out += m2
    rows, cols = np.divmod(np.flatnonzero(prod < a.shape[1] * _TINY * 1e12), prod.shape[1])
    for cells, terms in _cell_terms(a, b, rows, cols):
        m = terms.max(axis=1, keepdims=True)
        m = np.where(np.isfinite(m), m, 0.0)
        with np.errstate(divide="ignore"):
            out[cells] = np.log(_exp_above_tiny(terms - m).sum(axis=1)) + m[:, 0]
    return out, ea, eb, prod, rows, cols


def _product_scale(k):
    """The exponent s of the 2^s that scales a (J, k) contraction's ea: 1000, less
    for huge k, so that a sum of k products of at most 2^s stays below 2^1022."""
    return min(1000, 1022 - int(k).bit_length())


def _flushed_exp(x):
    """exp(x) in place, with values below ``finfo.tiny`` flushed to 0 (for operands that seldom underflow)."""
    np.exp(x, out=x)
    x[x < _TINY] = 0.0
    return x


def _exp_above_tiny(x):
    """exp(x), with 0 wherever it would fall below ``finfo.tiny`` or x is NaN.

    Those values are never computed: numpy's exp is several times slower on
    underflow, and most terms of a recomputed cell underflow.
    """
    return np.exp(x, out=np.zeros(x.shape), where=x >= _LOG_TINY)


def _cell_terms(a, b, rows, cols):
    """The terms a[j, k] + b[k, c] of the cells (rows, cols), in chunks of about 2^16 terms."""
    if not rows.size:
        return
    bt = np.ascontiguousarray(b.T)
    step = max(1, (1 << 16) // a.shape[1])
    for lo in range(0, rows.size, step):
        r, c = rows[lo : lo + step], cols[lo : lo + step]
        yield (r, c), a[r] + bt[c]


def _lse_matmul_data(a, b):
    """The one log-space contraction kernel: log(exp(a) @ exp(b)), exact."""
    return _lse_matmul_parts(a, b)[0]


def lse_matmul(a: Node, b: Node) -> Node:
    """log(exp(a) @ exp(b)) for 2-D a (J, K) and b (K, B), as one tape op."""
    out, ea, eb, prod, rows, cols = _lse_matmul_parts(a.data, b.data)
    return a.tape.record("lse_matmul", out, (a, b), (a.data, b.data, out, ea, eb, prod, rows, cols))


@_backward_rule("lse_matmul")
def _lse_matmul_bwd(ctx, g):
    # d out[j, b] / d a[j, k] = d out[j, b] / d b[k, b] = exp(a[j, k] + b[k, b] - out[j, b]),
    # which is ea[j, k] * eb[k, b] / prod[j, b] wherever the product was kept.
    a, b, out, ea, eb, prod, rows, cols = ctx
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        gp = g / prod
    gp[rows, cols] = 0.0
    da = ea * (gp @ eb.T)
    db = eb * (ea.T @ gp)
    for (r, c), terms in _cell_terms(a, b, rows, cols):
        # a cell whose exact value is -inf has only -inf terms, so its weights are 0
        with np.errstate(invalid="ignore"):
            w = _exp_above_tiny(terms - out[r, c][:, None])
        gw = g[r, c][:, None] * w
        np.add.at(da, r, gw)
        np.add.at(db.T, c, gw)
    return da, db


def reduce_sum(a: Node) -> Node:
    """The sum of every entry, a scalar."""
    return a.tape.record("sum", np.sum(a.data), (a,), a.data.shape)


@_backward_rule("sum")
def _sum_bwd(ctx, g):
    return (np.broadcast_to(g, ctx),)


def mean(a: Node) -> Node:
    return multiply(reduce_sum(a), a.tape.const(1.0 / a.data.size))


def reshape(a: Node, shape) -> Node:
    return a.tape.record("reshape", a.data.reshape(shape), (a,), a.data.shape)


@_backward_rule("reshape")
def _reshape_bwd(ctx, g):
    return (np.asarray(g).reshape(ctx),)
