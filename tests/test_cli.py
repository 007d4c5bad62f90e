import concurrent.futures
import csv
import json

import numpy as np
import pytest

from picirc.circuit import CircuitBuilder, InputDist, deserialize, serialize
from picirc.cli import run, thread_cap
from picirc.nets import ParamNets, save_checkpoint
from picirc.structures import LatentTree, tree_from_json, tree_to_json


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def write_categorical(path, rows, k=3, cols=3, seed=0):
    rng = np.random.default_rng(seed)
    base = rng.integers(0, k, size=rows)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"c{j}" for j in range(cols)])
        for v in base:
            noisy = [(v + rng.integers(0, 2)) % k for _ in range(cols)]
            writer.writerow(noisy)
    return path


def write_two_var_qpc(path):
    """A concrete two-variable categorical product circuit as JSON."""
    b = CircuitBuilder()
    i0 = b.add_input(0, InputDist("categorical", 2, params=np.log([0.3, 0.7])))
    i1 = b.add_input(1, InputDist("categorical", 2, params=np.log([0.6, 0.4])))
    b.add_product([i0, i1])
    path.write_bytes(serialize(b.finish()))
    return path


class TestExitCodes:
    def test_eval_header_only_csv_is_user_error(self, tmp_path, capsys):
        model = write_two_var_qpc(tmp_path / "q.json")
        empty = tmp_path / "empty.csv"
        empty.write_text("c0,c1\n")
        assert run(["eval", "--model", str(model), "--data", str(empty)]) == 1
        captured = capsys.readouterr()
        assert f"error: {empty}: no data rows" in captured.err
        assert "mean_loglik" not in captured.out

    def test_eval_malformed_dist_is_user_error(self, tmp_path, capsys):
        model = write_two_var_qpc(tmp_path / "q.json")
        doc = json.loads(model.read_text())
        doc["units"][1]["dist"] = "x"
        model.write_text(json.dumps(doc))
        data = tmp_path / "d.csv"
        data.write_text("c0,c1\n0,1\n")
        assert run(["eval", "--model", str(model), "--data", str(data)]) == 1
        err = capsys.readouterr().err
        assert "error: unit 1: dist must be an object" in err
        assert "Traceback" not in err

    def test_unknown_subcommand_is_user_error(self, capsys):
        assert run(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag_is_user_error(self, capsys):
        assert run(["gen-gaussian", "--out", "x.csv", "--bogus"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_file_is_user_error(self, tmp_path, capsys):
        assert run(["compile", "--tree", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_out_of_range_value_is_user_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a\n9\n")
        code = run(["clt", "--data", str(bad), "--schema", "categorical:4", "--out", str(tmp_path / "t.json")])
        assert code == 1
        assert "valid range 0..3" in capsys.readouterr().err

    def test_infinite_value_is_user_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a\n1\ninf\n")
        code = run(["clt", "--data", str(bad), "--schema", "categorical:4", "--out", str(tmp_path / "t.json")])
        assert code == 1
        assert "error: row 1, column 'a': value inf outside categorical(4) support" in capsys.readouterr().err

    @pytest.mark.parametrize("smoothing", ["-1", "-0.5", "nan", "inf"])
    def test_bad_smoothing_is_user_error(self, tmp_path, capsys, smoothing):
        data = write_categorical(tmp_path / "d.csv", rows=30, seed=1)
        out = tmp_path / "t.json"
        assert run(["clt", "--data", str(data), "--schema", "categorical:3", "--smoothing", smoothing, "--out", str(out)]) == 1
        assert f"error: --smoothing must be a finite number ≥ 0, got {float(smoothing)}" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_smoothing_is_allowed(self, tmp_path):
        data = write_categorical(tmp_path / "d.csv", rows=30, seed=1)
        assert run(["clt", "--data", str(data), "--schema", "categorical:3", "--smoothing", "0", "--out", str(tmp_path / "t.json")]) == 0

    def test_malformed_checkpoint_is_user_error(self, tmp_path, capsys):
        data = write_categorical(tmp_path / "d.csv", rows=30, seed=1)
        tree_path, pic_path, nets_path = tmp_path / "t.json", tmp_path / "p.json", tmp_path / "n.json"
        run(["clt", "--data", str(data), "--schema", "categorical:3", "--out", str(tree_path)])
        run(["compile", "--tree", str(tree_path), "--out", str(pic_path)])
        nets_path.write_text('{"format": "picirc-nets-v1"}')
        capsys.readouterr()
        code = run(["materialize", "--pic", str(pic_path), "--n", "4", "--nets", str(nets_path), "--out", str(tmp_path / "q.json")])
        assert code == 1
        assert "checkpoint field missing or mistyped" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, message",
        [("swap-energy", "takes 2 inputs"), ("repeat-decoder", "repeats net_id 0"), ("shared-repeat-differs", "with a different weights")],
        ids=["swap-energy", "repeat-decoder", "shared-repeat-differs"],
    )
    def test_checkpoint_contradicting_the_tree_is_user_error(self, tmp_path, capsys, edit, message):
        data = write_categorical(tmp_path / "d.csv", rows=30, seed=1)
        tree_path, pic_path, nets_path = tmp_path / "t.json", tmp_path / "p.json", tmp_path / "n.json"
        run(["clt", "--data", str(data), "--schema", "categorical:3", "--out", str(tree_path)])
        run(["compile", "--tree", str(tree_path), "--out", str(pic_path)])
        tree = tree_from_json(tree_path.read_bytes())
        share = edit == "shared-repeat-differs"
        save_checkpoint(ParamNets.for_tree(tree, "categorical", num_states=3, num_frequencies=2, hidden=(4,), decoder_hidden=(4,), share=share), nets_path)
        doc = json.loads(nets_path.read_text())
        if edit == "swap-energy":
            root = tree.root
            other = next(i for i in range(tree.num_latents) if i != root)
            doc["energy"][root], doc["energy"][other] = doc["energy"][other], doc["energy"][root]
        elif edit == "repeat-decoder":
            doc["decoder"][1] = doc["decoder"][0]
        else:
            last = doc["energy"][max(i for i in range(tree.num_latents) if i != tree.root)]
            last["weights"]["w0"] = (np.array(last["weights"]["w0"]) + 5.0).tolist()
        nets_path.write_text(json.dumps(doc))
        capsys.readouterr()
        code = run(["materialize", "--pic", str(pic_path), "--n", "4", "--nets", str(nets_path), "--out", str(tmp_path / "q.json")])
        assert code == 1
        assert message in capsys.readouterr().err

    def test_checkpoint_for_another_tree_is_user_error(self, tmp_path, capsys):
        # same sizes, other tree: the root prior would come from a child's conditional row
        def tree(latent_parent):
            obs_cond = tuple({"type": "neural", "net": j, "family": "categorical", "k": 3} for j in range(3))
            return LatentTree(latent_parent, (0, 1, 2), tuple({"type": "neural"} for _ in range(3)), obs_cond)

        tree_path, pic_path, nets_path, out = (tmp_path / n for n in ("t.json", "p.json", "n.json", "q.json"))
        tree_path.write_bytes(tree_to_json(tree((None, 0, 0))))
        assert run(["compile", "--tree", str(tree_path), "--out", str(pic_path)]) == 0
        save_checkpoint(ParamNets.for_tree(tree((1, None, 1)), "categorical", num_states=3, num_frequencies=2, hidden=(4,), decoder_hidden=(4,)), nets_path)
        capsys.readouterr()
        assert run(["materialize", "--pic", str(pic_path), "--n", "4", "--nets", str(nets_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: checkpoint")
        assert "((1, None, 1), (0, 1, 2))" in err and "((None, 0, 0), (0, 1, 2))" in err
        assert not out.exists()

    @pytest.mark.parametrize("family, k", [("binomial", 5), ("categorical", 4)])
    def test_checkpoint_of_another_family_is_user_error(self, tmp_path, capsys, family, k):
        # a binomial:5 checkpoint on a binomial:10 circuit once wrote binomial(10) units with binomial(5) probabilities
        def tree(family, k):
            obs_cond = tuple({"type": "neural", "net": j, "family": family, "k": k} for j in range(2))
            return LatentTree((None, 0), (0, 1), tuple({"type": "neural"} for _ in range(2)), obs_cond)

        tree_path, pic_path, nets_path, out = (tmp_path / n for n in ("t.json", "p.json", "n.json", "q.json"))
        tree_path.write_bytes(tree_to_json(tree("binomial", 10)))
        assert run(["compile", "--tree", str(tree_path), "--out", str(pic_path)]) == 0
        save_checkpoint(ParamNets.for_tree(tree(family, k), family, num_states=k, num_frequencies=2, hidden=(4,), decoder_hidden=(4,)), nets_path)
        capsys.readouterr()
        assert run(["materialize", "--pic", str(pic_path), "--n", "4", "--nets", str(nets_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "binomial:10" in err and f"{family}:{k}" in err
        assert not out.exists()

    def test_threads_belongs_to_sanity_check_only(self, tmp_path, capsys):
        code = run(["compile", "--tree", str(tmp_path / "t.json"), "--out", str(tmp_path / "p.json"), "--threads", "2"])
        assert code == 1
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
        assert run(["sanity-check", "--nodes", "4", "--models", "2", "--samples", "30", "--n-list", "8",
                    "--threads", "2", "--out", str(tmp_path / "m.csv")]) == 0

    def test_zero_eval_interval_is_user_error(self, tmp_path, capsys):
        data = write_categorical(tmp_path / "d.csv", rows=20, seed=0)
        for mode in ("pic", "hclt-em", "hclt-adam"):
            code = run(["train", "--mode", mode, "--data", str(data), "--valid", str(data),
                        "--schema", "categorical:3", "--n", "3", "--steps", "4", "--eval-interval", "0",
                        "--patience", "4", "--out", str(tmp_path / "o.json")])
            assert code == 1
            assert "error: --eval-interval must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--n", "0"], "--n "),
            (["--batch", "0"], "--batch"),
            (["--steps", "2"], "--patience"),
        ],
        ids=["n", "batch", "steps-below-default-patience"],
    )
    def test_bad_train_counts_name_the_flag(self, tmp_path, capsys, flags, named):
        data = write_categorical(tmp_path / "d.csv", rows=20, seed=0)
        out = tmp_path / "o.json"
        code = run(["train", "--mode", "pic", "--data", str(data), "--valid", str(data),
                    "--schema", "categorical:3", *flags, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert not out.exists() and not (tmp_path / "o.json.progress.csv").exists()


class TestGenGaussian:
    def test_deterministic_under_seed(self, tmp_path):
        a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
        for out in (a, b):
            assert run(["gen-gaussian", "--nodes", "6", "--rows", "40", "--seed", "7", "--out", str(out)]) == 0
        assert run(["gen-gaussian", "--nodes", "6", "--rows", "40", "--seed", "8", "--out", str(c)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_writes_model_tree_on_request(self, tmp_path):
        out = tmp_path / "d.csv"
        tree_path = tmp_path / "tree.json"
        assert run(["gen-gaussian", "--nodes", "6", "--rows", "10", "--seed", "0",
                    "--out", str(out), "--model-out", str(tree_path)]) == 0
        tree = tree_from_json(tree_path.read_text())
        assert tree.num_latents == 3 and tree.num_observables == 3
        header, rows = read_csv(out)
        assert header == ["x0", "x1", "x2"] and len(rows) == 10


    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--rows", "0"], "--rows"),
            (["--rows", "-3"], "--rows"),
            (["--nodes", "0"], "--nodes"),
            (["--nodes", "7"], "--nodes"),
        ],
        ids=["rows-0", "rows-negative", "nodes-0", "nodes-odd"],
    )
    def test_bad_counts_are_user_errors(self, tmp_path, capsys, flags, named):
        out, tree_path = tmp_path / "d.csv", tmp_path / "tree.json"
        code = run(["gen-gaussian", *flags, "--out", str(out), "--model-out", str(tree_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert not out.exists() and not tree_path.exists()


class TestSanityCheck:
    def test_row_count_is_models_times_grid(self, tmp_path):
        out = tmp_path / "mse.csv"
        code = run(["sanity-check", "--nodes", "4", "--models", "2", "--samples", "50",
                    "--n-list", "8,16", "--seed", "1", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["model_id", "N", "mse"]
        assert len(rows) == 4
        assert all(float(r[2]) >= 0 for r in rows)

    @pytest.mark.parametrize(
        "flags, env, named",
        [
            (["--models", "0"], None, "--models"),
            (["--samples", "0"], None, "--samples"),
            (["--threads", "0"], "2", "--threads"),
            (["--threads", "-2"], None, "--threads"),
            ([], "0", "PICIRC_THREADS"),
            ([], "-1", "PICIRC_THREADS"),
            ([], "two", "PICIRC_THREADS"),
            ([], "", "PICIRC_THREADS"),
            (["--nodes", "3"], None, "--nodes"),
            (["--nodes", "0"], None, "--nodes"),
            (["--n-list", "0"], None, "--n-list"),
            (["--n-list", "8,0"], None, "--n-list"),
            (["--n-list", "8,a"], None, "--n-list must name point counts of at least 1, got '8,a'"),
        ],
    )
    def test_counts_below_one_are_user_errors(self, tmp_path, capsys, monkeypatch, flags, env, named):
        if env is None:
            monkeypatch.delenv("PICIRC_THREADS", raising=False)
        else:
            monkeypatch.setenv("PICIRC_THREADS", env)

        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool started")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        out = tmp_path / "mse.csv"
        code = run(["sanity-check", "--nodes", "4", "--models", "2", "--samples", "30", "--n-list", "8",
                    *flags, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert not out.exists()


class TestPipeline:
    def test_clt_compile_materialize_eval(self, tmp_path, capsys):
        data = write_categorical(tmp_path / "d.csv", rows=60, seed=3)
        tree_path, pic_path, qpc_path = (tmp_path / n for n in ("t.json", "p.json", "q.json"))
        nets_path = tmp_path / "nets.json"

        assert run(["clt", "--data", str(data), "--schema", "categorical:3", "--out", str(tree_path)]) == 0
        assert run(["compile", "--tree", str(tree_path), "--out", str(pic_path)]) == 0
        assert run(["train", "--mode", "pic", "--data", str(data), "--valid", str(data),
                    "--schema", "categorical:3", "--tree", str(tree_path), "--n", "4", "--batch", "20",
                    "--steps", "4", "--eval-interval", "2", "--patience", "4",
                    "--seed", "0", "--out", str(nets_path)]) == 0
        assert run(["materialize", "--pic", str(pic_path), "--rule", "trapezoidal", "--n", "4",
                    "--nets", str(nets_path), "--out", str(qpc_path),
                    "--dump-sum-region", "0"]) == 0
        capsys.readouterr()

        ll_path = tmp_path / "ll.csv"
        assert run(["eval", "--model", str(qpc_path), "--data", str(data), "--out", str(ll_path)]) == 0
        printed = capsys.readouterr().out
        assert "mean_loglik" in printed and "bpd" in printed
        header, rows = read_csv(ll_path)
        assert header == ["loglik"] and len(rows) == 60

        dump_header, dump_rows = read_csv(f"{qpc_path}.sum0.csv")
        assert len(dump_header) == 4 and len(dump_rows) == 1
        row = np.array([float(v) for v in dump_rows[0]])
        assert abs(np.logaddexp.reduce(row)) < 1e-9

    def test_eval_all_marginalized_prints_zero_mass(self, tmp_path, capsys):
        data = write_categorical(tmp_path / "d.csv", rows=30, seed=5)
        tree_path, pic_path, qpc_path = (tmp_path / n for n in ("t.json", "p.json", "q.json"))
        nets_path = tmp_path / "nets.json"
        run(["clt", "--data", str(data), "--schema", "categorical:3", "--out", str(tree_path)])
        run(["compile", "--tree", str(tree_path), "--out", str(pic_path)])
        run(["train", "--mode", "pic", "--data", str(data), "--valid", str(data),
             "--schema", "categorical:3", "--tree", str(tree_path), "--n", "4", "--batch", "30",
             "--steps", "2", "--eval-interval", "2", "--patience", "2", "--seed", "0", "--out", str(nets_path)])
        run(["materialize", "--pic", str(pic_path), "--n", "4", "--nets", str(nets_path), "--out", str(qpc_path)])
        blank = tmp_path / "blank.csv"
        blank.write_text("c0,c1,c2\n,,\n")
        capsys.readouterr()
        assert run(["eval", "--model", str(qpc_path), "--data", str(blank)]) == 0
        # total mass 1 up to rounding: a few ulps, far below any mass leak
        printed = dict(line.split() for line in capsys.readouterr().out.splitlines())
        assert set(printed) == {"mean_loglik", "bpd"}
        for value in printed.values():
            assert abs(float(value)) <= 1e-12

    def test_gaussian_pipeline_needs_no_nets(self, tmp_path, capsys):
        data, tree_path = tmp_path / "g.csv", tmp_path / "t.json"
        pic_path, qpc_path = tmp_path / "p.json", tmp_path / "q.json"
        run(["gen-gaussian", "--nodes", "4", "--rows", "50", "--seed", "2",
             "--out", str(data), "--model-out", str(tree_path)])
        assert run(["compile", "--tree", str(tree_path), "--out", str(pic_path)]) == 0
        assert run(["materialize", "--pic", str(pic_path), "--n", "16", "--out", str(qpc_path)]) == 0
        qpc = deserialize(qpc_path.read_text())
        assert not qpc.is_symbolic
        capsys.readouterr()
        assert run(["eval", "--model", str(qpc_path), "--data", str(data)]) == 0
        assert "bpd" in capsys.readouterr().out

    def test_materialize_neural_without_nets_fails(self, tmp_path, capsys):
        data = write_categorical(tmp_path / "d.csv", rows=30, seed=1)
        tree_path, pic_path = tmp_path / "t.json", tmp_path / "p.json"
        run(["clt", "--data", str(data), "--schema", "categorical:3", "--out", str(tree_path)])
        run(["compile", "--tree", str(tree_path), "--out", str(pic_path)])
        code = run(["materialize", "--pic", str(pic_path), "--n", "4", "--out", str(tmp_path / "q.json")])
        assert code == 1
        assert "--nets" in capsys.readouterr().err


class TestTrain:
    def test_progress_csv_has_schedule_columns(self, tmp_path):
        data = write_categorical(tmp_path / "d.csv", rows=40, seed=4)
        out = tmp_path / "nets.json"
        progress = tmp_path / "prog.csv"
        assert run(["train", "--mode", "pic", "--data", str(data), "--valid", str(data),
                    "--schema", "categorical:3", "--n", "4", "--batch", "20", "--steps", "4",
                    "--eval-interval", "2", "--patience", "4", "--seed", "0",
                    "--out", str(out), "--progress", str(progress)]) == 0
        header, rows = read_csv(progress)
        assert header == ["step", "lr", "train_nll", "valid_bpd"]
        assert [r[0] for r in rows] == ["0", "2", "4"]
        assert float(rows[0][1]) == 0.01

    def test_em_mode_writes_a_concrete_circuit(self, tmp_path):
        data = write_categorical(tmp_path / "d.csv", rows=40, seed=6)
        out = tmp_path / "em.json"
        progress = tmp_path / "prog.csv"
        assert run(["train", "--mode", "hclt-em", "--data", str(data), "--valid", str(data),
                    "--schema", "categorical:3", "--n", "3", "--batch", "40", "--steps", "6",
                    "--eval-interval", "3", "--patience", "6", "--seed", "0", "--out", str(out),
                    "--progress", str(progress)]) == 0
        pc = deserialize(out.read_text())
        assert not pc.is_symbolic
        assert any(u.kind == "sum" for u in pc.units)
        header, rows = read_csv(progress)
        assert header == ["step", "lr", "train_nll", "valid_bpd"]
        assert [r[0] for r in rows] == ["0", "3", "6"]

    def test_adam_mode_runs(self, tmp_path):
        data = write_categorical(tmp_path / "d.csv", rows=40, seed=6)
        out = tmp_path / "ha.json"
        assert run(["train", "--mode", "hclt-adam", "--data", str(data), "--valid", str(data),
                    "--schema", "categorical:3", "--n", "3", "--batch", "20", "--steps", "6",
                    "--eval-interval", "3", "--patience", "6", "--seed", "0", "--out", str(out)]) == 0
        assert deserialize(out.read_text()).num_vars == 3

    def test_deterministic_checkpoints_under_seed(self, tmp_path):
        data = write_categorical(tmp_path / "d.csv", rows=30, seed=2)
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert run(["train", "--mode", "pic", "--data", str(data), "--valid", str(data),
                        "--schema", "categorical:3", "--n", "4", "--batch", "15", "--steps", "4",
                        "--eval-interval", "2", "--patience", "4", "--seed", "3",
                        "--out", str(out), "--progress", str(tmp_path / (name + ".prog"))]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_mismatched_schemas_rejected(self, tmp_path, capsys):
        data = write_categorical(tmp_path / "d.csv", rows=20, seed=0)
        other = tmp_path / "v.csv"
        other.write_text("c0\n1\n")
        code = run(["train", "--mode", "pic", "--data", str(data), "--valid", str(other),
                    "--schema", "categorical:3", "--out", str(tmp_path / "o.json")])
        assert code == 1
        assert "schema" in capsys.readouterr().err


def train_args(mode, data, valid, tree_path, out):
    """A short ``picirc train`` run; ``tree_path`` None learns the tree from the data."""
    tree = [] if tree_path is None else ["--tree", str(tree_path)]
    return ["train", "--mode", mode, "--data", str(data), "--valid", str(valid), "--schema", "categorical:3", *tree,
            "--n", "3", "--batch", "10", "--steps", "4", "--eval-interval", "2", "--patience", "4", "--out", str(out)]


MODES = ("pic", "hclt-em", "hclt-adam")


class TestMissingAndEmptyData:
    """NaN cells are marginalized in training but refused by structure learning; empty sets are refused."""

    @pytest.fixture
    def files(self, tmp_path):
        data = write_categorical(tmp_path / "d.csv", rows=30, seed=3)
        tree_path = tmp_path / "t.json"
        assert run(["clt", "--data", str(data), "--schema", "categorical:3", "--out", str(tree_path)]) == 0
        header, rows = read_csv(data)
        rng = np.random.default_rng(0)
        missing = tmp_path / "m.csv"
        missing.write_text("\n".join([",".join(header)] + [",".join("" if rng.random() < 0.25 else c for c in r) for r in rows]) + "\n")
        empty = tmp_path / "e.csv"
        empty.write_text(",".join(header) + "\n")
        return {"data": data, "tree": tree_path, "missing": missing, "empty": empty}

    def test_clt_refuses_missing_cells(self, tmp_path, files, capsys):
        capsys.readouterr()
        assert run(["clt", "--data", str(files["missing"]), "--schema", "categorical:3", "--out", str(tmp_path / "t2.json")]) == 1
        assert "error: structure learning needs fully observed data" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", MODES)
    def test_train_without_tree_refuses_missing_cells(self, tmp_path, files, capsys, mode):
        capsys.readouterr()
        assert run(train_args(mode, files["missing"], files["data"], None, tmp_path / "o.json")) == 1
        assert "error: structure learning needs fully observed data" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", MODES)
    def test_train_with_tree_marginalizes_missing_cells(self, tmp_path, files, mode):
        out = tmp_path / "o.json"
        assert run(train_args(mode, files["missing"], files["missing"], files["tree"], out)) == 0
        _, rows = read_csv(tmp_path / "o.json.progress.csv")
        assert all(np.isfinite(float(r[3])) for r in rows)
        assert all(np.isfinite(float(r[2])) for r in rows[1:])

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("empty", ["training", "validation"])
    def test_empty_set_is_user_error(self, tmp_path, files, capsys, mode, empty):
        data, valid = (files["empty"], files["data"]) if empty == "training" else (files["data"], files["empty"])
        capsys.readouterr()
        assert run(train_args(mode, data, valid, files["tree"], tmp_path / "o.json")) == 1
        assert f"error: {empty} set has no rows" in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()


class TestBench:
    def test_writes_one_row_per_iteration(self, tmp_path):
        data, tree_path = tmp_path / "g.csv", tmp_path / "t.json"
        pic_path, qpc_path = tmp_path / "p.json", tmp_path / "q.json"
        run(["gen-gaussian", "--nodes", "4", "--rows", "10", "--seed", "0",
             "--out", str(data), "--model-out", str(tree_path)])
        run(["compile", "--tree", str(tree_path), "--out", str(pic_path)])
        run(["materialize", "--pic", str(pic_path), "--n", "8", "--out", str(qpc_path)])
        out = tmp_path / "bench.csv"
        assert run(["bench", "--model", str(qpc_path), "--batch", "16", "--iters", "5",
                    "--seed", "0", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["iter", "seconds"] and len(rows) == 5

    def test_counts_below_one_are_user_errors(self, tmp_path, capsys):
        for flags in (["--iters", "0"], ["--iters", "-1"], ["--batch", "0"]):
            out = tmp_path / "bench.csv"
            code = run(["bench", "--model", str(tmp_path / "q.json"), *flags, "--out", str(out)])
            assert code == 1
            assert "error: --iters and --batch must be at least 1" in capsys.readouterr().err
            assert not out.exists()

    def test_symbolic_circuit_is_user_error(self, tmp_path, capsys):
        data, tree_path, pic_path = tmp_path / "g.csv", tmp_path / "t.json", tmp_path / "p.json"
        run(["gen-gaussian", "--nodes", "4", "--rows", "10", "--seed", "0",
             "--out", str(data), "--model-out", str(tree_path)])
        run(["compile", "--tree", str(tree_path), "--out", str(pic_path)])
        capsys.readouterr()
        assert run(["bench", "--model", str(pic_path), "--iters", "2", "--out", str(tmp_path / "b.csv")]) == 1
        assert "materialize the circuit first" in capsys.readouterr().err


class TestThreads:
    def test_flag_wins_over_environment(self, monkeypatch):
        monkeypatch.setenv("PICIRC_THREADS", "3")

        class Args:
            threads = 5

        assert thread_cap(Args()) == 5

    def test_environment_fallback(self, monkeypatch):
        monkeypatch.setenv("PICIRC_THREADS", "3")

        class Args:
            threads = None

        assert thread_cap(Args()) == 3
        monkeypatch.delenv("PICIRC_THREADS")
        assert thread_cap(Args()) == 1

    def test_sanity_check_parallel_rows_match_serial(self, tmp_path, monkeypatch):
        serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
        args = ["sanity-check", "--nodes", "4", "--models", "2", "--samples", "30",
                "--n-list", "8", "--seed", "2"]
        assert run([*args, "--out", str(serial)]) == 0
        monkeypatch.setenv("PICIRC_THREADS", "2")
        assert run([*args, "--out", str(parallel)]) == 0
        assert serial.read_bytes() == parallel.read_bytes()
