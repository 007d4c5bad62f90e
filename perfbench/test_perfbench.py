"""Self-tests of the benchmark.

Every correctness check passes on real outputs of the package and fails on
the same output corrupted by 1e-6; the metric names and units each workload
prints are exactly those of BENCHMARK.json; the tracer's self-time and
coverage arithmetic is right; and the command refuses to run without the
package sources.  Run from the repository root:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from picirc import circuit, gaussian, materialize, quadrature, runtime, structures, training  # noqa: E402
from picirc.nets import ParamNets  # noqa: E402

SMALL_N = 8
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def small():
    """A small HCLT with untrained nets, materialized at SMALL_N points."""
    rows = workloads.make_rows(np.random.default_rng(0), 512)
    tree = structures.hclt_structure(structures.chow_liu_tree(rows), "categorical", num_states=workloads.NUM_STATES)
    pic = structures.bn_to_pic(tree)
    nets = ParamNets.for_tree(tree, "categorical", num_states=workloads.NUM_STATES, seed=0, hidden=(8,), decoder_hidden=(8,))
    rule = quadrature.make_rule("trapezoidal", SMALL_N)
    sp = materialize.materialize_sum_params(nets, rule.points, rule.weights)
    ip = materialize.materialize_input_params(nets, rule.points)
    qpc = materialize.materialize_qpc(pic, rule, (sp, ip))
    return {"rows": rows, "tree": tree, "pic": pic, "nets": nets, "rule": rule, "sp": sp, "ip": ip, "qpc": qpc}


def perturbed(values, eps=1e-6):
    out = np.array(values, dtype=np.float64, copy=True)
    out.flat[0] += eps
    return out


def assert_rejects(result_ok, result_bad):
    assert result_ok[0], result_ok[1]
    assert not result_bad[0], result_bad[1]


def test_query_paths_check(small):
    rows = small["rows"][:64].copy()
    rows[:16, :4] = np.nan
    explicit = runtime.log_forward(small["qpc"], rows)
    fused = workloads.fused_loglik(small["nets"], small["sp"], small["ip"], rows)
    streamed = materialize.streamed_loglik(small["pic"], small["rule"], small["nets"], rows)
    assert_rejects(
        checks.paths_agree(explicit, {"fused": fused, "streamed": streamed}),
        checks.paths_agree(explicit, {"fused": perturbed(fused), "streamed": streamed}),
    )


def test_round_trip_check(small):
    qpc = small["qpc"]
    restored = circuit.deserialize(circuit.serialize(qpc))
    uid = next(u.uid for u in restored.units if u.kind == "sum")
    restored.units[uid] = dataclasses.replace(restored.units[uid], weights=perturbed(restored.units[uid].weights))
    assert_rejects(checks.round_trip(qpc, circuit.deserialize(circuit.serialize(qpc))), checks.round_trip(qpc, restored))


def test_sample_support_check(small):
    samples = runtime.sample_pc(small["qpc"], 32, 0)
    for bad_value in (workloads.NUM_STATES, 1.0 + 1e-6, np.nan):
        bad = samples.copy()
        bad[0, 0] = bad_value
        assert_rejects(checks.categorical_support(samples, workloads.NUM_STATES), checks.categorical_support(bad, workloads.NUM_STATES))


def test_step1_loss_and_gradient_checks(small, monkeypatch):
    nets, rule = small["nets"], small["rule"]
    batch = small["rows"][:32]
    nll = training.dataset_nll(nets, rule, batch)
    opt = training.Adam(nets.param_arrays(), training.TrainConfig(n=SMALL_N))
    fd = workloads.fd_gradient_check(nets, rule, batch, 0)
    loss = training.train_pic_step(nets, batch, rule, opt)
    assert_rejects(checks.close(loss, nll, 1e-10), checks.close(loss, nll + 1e-6, 1e-10))

    honest = workloads.tape_directional_derivative
    monkeypatch.setattr(workloads, "tape_directional_derivative", lambda *a: honest(*a) * (1 + 1e-3))
    assert_rejects(fd, workloads.fd_gradient_check(nets, rule, batch, 0))
    assert_rejects(checks.all_finite([loss, nll], "losses"), checks.all_finite([loss, np.nan], "losses"))


def test_em_and_hclt_checks(small):
    tensors = training.HcltTensors.random(small["tree"], SMALL_N, "categorical", workloads.NUM_STATES, seed=0, scale=1.0)
    pc = tensors.to_circuit()
    training.em_step(pc, small["rows"][:128], 0.5)
    rows = [u.weights for u in pc.units if u.kind == "sum"]
    assert_rejects(checks.sum_rows_normalized(rows), checks.sum_rows_normalized([perturbed(rows[0])] + rows[1:]))

    x = small["rows"][:64]
    reference = runtime.log_forward(tensors.to_circuit(), x)
    loglik = tensors.loglik(x)
    assert_rejects(checks.paths_agree(reference, {"loglik": loglik}), checks.paths_agree(reference, {"loglik": perturbed(loglik)}))


def test_gauss_check():
    model = gaussian.random_model(workloads.GAUSS_NODES, 0)
    x = gaussian.sample(model, 50, 1)
    rules = gaussian.domain_rules(model, workloads.GAUSS_CHECK_N)
    explicit = runtime.log_forward(materialize.materialize_qpc(gaussian.to_pic(model), rules), x)
    fused = gaussian.qpc_loglik(model, rules, x)
    assert_rejects(checks.paths_agree(explicit, {"qpc_loglik": fused}), checks.paths_agree(explicit, {"qpc_loglik": perturbed(fused)}))


def test_repeatability_checks():
    assert_rejects(checks.all_equal([(1.0, 2.0)] * 3, "answers"), checks.all_equal([(1.0, 2.0), (1.0, 2.0 + 1e-6)], "answers"))


def test_self_time_and_coverage():
    tracer = tracing.Tracer()
    tracer.spans = [
        ["runtime.log_forward", 1.0, 4.0, -1],
        ["circuit.post_order", 1.5, 2.0, 0],
        ["runtime.forward_values", 2.0, 3.5, 0],
        ["circuit.serialize", 5.0, 6.0, -1],
        ["data.load_csv", 0.0, 0.5, -1],
    ]
    totals, covered = tracer.self_times(1.0, 10.0)
    assert totals["runtime.log_forward"] == pytest.approx(1.0)
    assert totals["runtime.forward_values"] == pytest.approx(1.5)
    assert totals["data.load_csv"] == 0.0
    assert covered == pytest.approx(4.0)


def test_install_replaces_every_lookup_and_uninstall_restores():
    import picirc.cli
    import picirc.training

    originals = (runtime.log_forward, picirc.cli.log_forward, picirc.training.latent_tree_loglik, training.Adam.step)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert picirc.cli.log_forward is runtime.log_forward is not originals[0]
        assert picirc.training.latent_tree_loglik is runtime.latent_tree_loglik
        assert training.Adam.step is not originals[3]
    finally:
        tracer.uninstall()
    assert (runtime.log_forward, picirc.cli.log_forward, picirc.training.latent_tree_loglik, training.Adam.step) == originals


def run_workload(cwd: Path, workload: str, trace: int, seconds: str = "1"):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", seconds, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_printed_metrics_match_benchmark_json(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_workload(ROOT, workload, trace)
        assert proc.returncode == 0, proc.stderr[-3000:]
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in BENCHMARK[key]}


def test_end_to_end_names_match_benchmark_json():
    assert run.END_TO_END == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert list(run.WORKLOAD_NAMES) == [w["name"] for w in BENCHMARK["workloads"]]


def test_refuses_to_run_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_workload(tmp_path, "qpc-query", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
