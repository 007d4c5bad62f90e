"""Layer spans and counters for picirc, recorded from outside the package.

``Tracer.install`` replaces the public entry points of picirc's layers with
wrappers for the duration of one traced run.  Module-level functions are
replaced in every picirc module that imported them, because callers look
them up there (``training`` calls ``materialize.evidence_rows`` through its
own module attribute); methods are replaced on their class.  The package
itself carries no timer.

A span is ``[name, start, end, parent]``.  Spans stay in memory until the
run ends.  A layer's self time is its span's duration minus the time its
child spans cover.  Counters (tape records per primitive, MLP rows, edges,
bytes, flops) are updated by hooks on the same entry points; the workload
marks its rounds so that per-round counts can be taken.
"""

from __future__ import annotations

import functools
import gc
import json
import statistics
import sys
import time
import weakref
from collections import Counter

import numpy as np

# span name -> (module, attribute); an attribute "Class.method" names a method.
SPANS = {
    "nets.energy_forward": ("picirc.nets", "EnergyNet.forward"),
    "nets.decoder_forward": ("picirc.nets", "DecoderNet.forward"),
    "autodiff.backward": ("picirc.autodiff", "Tape.backward"),
    "materialize.sum_param_node": ("picirc.materialize", "sum_param_node"),
    "materialize.input_param_node": ("picirc.materialize", "input_param_node"),
    "materialize.sum_params": ("picirc.materialize", "materialize_sum_params"),
    "materialize.input_params": ("picirc.materialize", "materialize_input_params"),
    "materialize.qpc_build": ("picirc.materialize", "materialize_qpc"),
    "materialize.evidence_rows": ("picirc.materialize", "evidence_rows"),
    "training.train_step": ("picirc.training", "train_pic_step"),
    "training.batch_loglik_node": ("picirc.training", "batch_loglik_node"),
    "training.lse_matmul_node": ("picirc.training", "lse_matmul_node"),
    "training.evidence_node": ("picirc.training", "evidence_node"),
    "training.adam": ("picirc.training", "Adam.step"),
    "training.dataset_nll": ("picirc.training", "dataset_nll"),
    "training.em_flow": ("picirc.training", "em_step"),
    "training.hclt_adam_step": ("picirc.training", "hclt_adam_step"),
    "training.hclt_loglik": ("picirc.training", "HcltTensors.loglik"),
    "training.to_circuit": ("picirc.training", "HcltTensors.to_circuit"),
    "runtime.latent_tree_loglik": ("picirc.runtime", "latent_tree_loglik"),
    "runtime.log_forward": ("picirc.runtime", "log_forward"),
    "runtime.forward_values": ("picirc.runtime", "forward_values"),
    "runtime.sample_pc": ("picirc.runtime", "sample_pc"),
    "circuit.serialize": ("picirc.circuit", "serialize"),
    "circuit.deserialize": ("picirc.circuit", "deserialize"),
    "circuit.post_order": ("picirc.circuit", "post_order"),
    "gaussian.domain_rules": ("picirc.gaussian", "domain_rules"),
    "gaussian.region_tensors": ("picirc.gaussian", "gaussian_region_tensors"),
    "gaussian.qpc_loglik": ("picirc.gaussian", "qpc_loglik"),
    "gaussian.exact_loglik": ("picirc.gaussian", "exact_loglik"),
    "quadrature.make_rule": ("picirc.quadrature", "make_rule"),
    "structures.chow_liu": ("picirc.structures", "chow_liu_tree"),
    "data.load_csv": ("picirc.data", "load_csv"),
}
# Not a picirc entry point: the harness's cycle collection after each round
# (see workloads.py), which frees the round's autodiff tapes.
GC_SPAN = "gc.collect"
ALL_SPANS = (*SPANS, GC_SPAN)

# Spans timed per set-up rather than per round.
SETUP_SPANS = ("structures.chow_liu", "data.load_csv")

# Primitives of picirc.autodiff; any other recorded op counts as "other".
PRIMITIVES = (
    "add", "neg", "multiply", "matmul", "sin", "cos", "exp", "log", "sigmoid",
    "softplus", "logsumexp", "gather", "sum", "reshape", "interleave",
)

# Per-round counters.  tape_bytes is the largest tape seen in the round.
COUNTS = (
    "nets.mlp_rows", "autodiff.tape_records",
    *(f"autodiff.ops.{p}" for p in PRIMITIVES), "autodiff.ops.other",
    "autodiff.tape_bytes", "materialize.qpc_edges", "training.aborted_steps",
    "runtime.contraction_flops", "runtime.nonfinite_outputs", "circuit.json_bytes",
    "quadrature.make_rule_calls", "gc.unreachable_objects",
)


def _nonfinite(values) -> int:
    return int(np.count_nonzero(~np.isfinite(np.asarray(values, dtype=np.float64))))


def _mlp_rows(tracer, args, out):
    tracer.counts["nets.mlp_rows"] += args[3].shape[0]


def _qpc_edges(tracer, args, out):
    tracer.counts["materialize.qpc_edges"] += out.num_edges


def _json_bytes(tracer, args, out):
    tracer.counts["circuit.json_bytes"] += len(out)


def _make_rule_calls(tracer, args, out):
    tracer.counts["quadrature.make_rule_calls"] += 1


def _tree_contraction(tracer, args, out):
    sum_rows, obs_loglik = args[2], args[3]
    batch = np.shape(obs_loglik[0])[1]
    tracer.counts["runtime.contraction_flops"] += sum(2 * r.shape[0] * r.shape[1] * batch for r in sum_rows)
    tracer.counts["runtime.nonfinite_outputs"] += _nonfinite(out)


def _node_contraction(tracer, args, out):
    s, acc = args[1], args[2]
    tracer.counts["runtime.contraction_flops"] += 2 * s.shape[0] * s.shape[1] * acc.shape[1]
    tracer.counts["runtime.nonfinite_outputs"] += _nonfinite(out.data)


def _explicit_outputs(tracer, args, out):
    tracer.counts["runtime.nonfinite_outputs"] += _nonfinite(out)


def _tape_done(tracer, args, out):
    tape = args[0]
    tracer.peak_tape_bytes = max(tracer.peak_tape_bytes, tracer.tape_bytes.pop(tape, 0))


HOOKS = {
    "nets.energy_forward": _mlp_rows,
    "nets.decoder_forward": _mlp_rows,
    "materialize.qpc_build": _qpc_edges,
    "circuit.serialize": _json_bytes,
    "quadrature.make_rule": _make_rule_calls,
    "runtime.latent_tree_loglik": _tree_contraction,
    "training.lse_matmul_node": _node_contraction,
    "runtime.log_forward": _explicit_outputs,
    "autodiff.backward": _tape_done,
}

# Entry points whose exception means a training step was aborted.
STEP_SPANS = ("training.train_step", "training.hclt_adam_step", "training.em_flow")


class Tracer:
    """Spans and counters of one traced run; inert until ``active`` is set."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.active = False
        self.tape_bytes: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self.peak_tape_bytes = 0
        self.rounds: list[dict] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._round_start: Counter = Counter()
        self._round_spans = 0
        self._collect = gc.collect
        self.span_cost = self.record_cost = 0.0

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        picirc_modules = [m for k, m in sys.modules.items() if k == "picirc" or k.startswith("picirc.")]
        for name, (module_name, attr) in SPANS.items():
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                self._replace([(owner, meth)], self._wrap(name, getattr(owner, meth)))
            else:
                original = getattr(module, attr)
                places = [(m, key) for m in picirc_modules for key, value in vars(m).items() if value is original]
                self._replace(places, self._wrap(name, original))
        self._collect = self._wrap(GC_SPAN, gc.collect)
        self.span_cost, self.record_cost = self._calibrate()
        tape_cls = sys.modules["picirc.autodiff"].Tape
        self._replace([(tape_cls, "record")], self._counting_record(tape_cls.record))

    def _calibrate(self, calls: int = 20000) -> tuple[float, float]:
        """Seconds a span wrapper and a counted ``Tape.record`` add to one call."""

        class FakeTape:
            pass

        def noop(*args):
            return None

        tape, out = FakeTape(), np.zeros(1)
        costs = []
        for wrapped, args in ((self._wrap("calibration", noop), ()), (self._counting_record(noop), (tape, "add", out, (), None))):
            self.active = True
            start = time.perf_counter()
            for _ in range(calls):
                wrapped(*args)
            traced = time.perf_counter() - start
            self.active = False
            start = time.perf_counter()
            for _ in range(calls):
                noop(*args)
            costs.append(max(traced - (time.perf_counter() - start), 0.0) / calls)
        self.spans.clear()
        self.counts.clear()
        return costs[0], costs[1]

    def uninstall(self) -> None:
        self._collect = gc.collect
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def _replace(self, places, wrapper) -> None:
        for owner, key in places:
            self._undo.append((owner, key, getattr(owner, key)))
            setattr(owner, key, wrapper)

    def _wrap(self, name, fn):
        tracer = self
        hook = HOOKS.get(name)
        is_step = name in STEP_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = [name, time.perf_counter(), 0.0, tracer._stack[-1] if tracer._stack else -1]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                if is_step:
                    tracer.counts["training.aborted_steps"] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if hook is not None:
                hook(tracer, args, out)
            return out

        return traced

    def _counting_record(self, record):
        tracer = self

        @functools.wraps(record)
        def counted(tape, op_name, out_data, inputs, ctx):
            if tracer.active:
                tracer.counts["autodiff.tape_records"] += 1
                key = op_name if op_name in PRIMITIVES else "other"
                tracer.counts[f"autodiff.ops.{key}"] += 1
                tracer.tape_bytes[tape] = tracer.tape_bytes.get(tape, 0) + np.asarray(out_data).nbytes
            return record(tape, op_name, out_data, inputs, ctx)

        return counted

    # -- rounds ---------------------------------------------------------

    def collect_garbage(self) -> None:
        """Run the cycle collector as a span and count the objects it freed."""
        self.counts["gc.unreachable_objects"] += self._collect()

    def round_begin(self) -> None:
        self._round_start = Counter(self.counts)
        self._round_spans = len(self.spans)
        self.peak_tape_bytes = 0

    def round_end(self) -> None:
        delta = {k: self.counts[k] - self._round_start[k] for k in COUNTS}
        delta["autodiff.tape_bytes"] = self.peak_tape_bytes
        delta["trace.spans"] = len(self.spans) - self._round_spans
        self.rounds.append(delta)

    def round_counts(self) -> dict[str, float]:
        """Median per-round value of every counter; rounds repeat the same work."""
        return {k: statistics.median(r[k] for r in self.rounds) for k in (*COUNTS, "trace.spans")}

    # -- aggregation ----------------------------------------------------

    def self_times(self, t0: float, t1: float) -> tuple[dict[str, float], float]:
        """Self seconds per span name inside [t0, t1], and the top-level coverage."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {name: 0.0 for name in ALL_SPANS}
        covered = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            if start < t0 or end > t1:
                continue
            totals[name] += (end - start) - child[i]
            if parent < 0:
                covered += end - start
        return totals, covered

    def dump(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
