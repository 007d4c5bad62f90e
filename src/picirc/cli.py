"""Command-line entry point.

Subcommands cover the full pipeline: synthetic data generation
(gen-gaussian), the linear-Gaussian approximation study (sanity-check),
structure learning (clt), compilation (compile), quadrature
materialization (materialize), training (train), evaluation (eval), and
micro-benchmarks (bench).  Results go to files named by --out; progress
messages go to standard error.  Exit codes: 0 success, 1 user error,
2 internal error.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

import numpy as np

from .circuit import Circuit, deserialize, serialize
from .data import Dataset, load_csv, save_csv
from .errors import NumericError, PicircError, SchemaError
from .gaussian import model_from_pic, domain_rules, random_model, sample, sanity_check
from .materialize import (
    materialize_input_params,
    materialize_qpc,
    materialize_sum_params,
    pic_tree_maps,
    sum_region_rows,
)
from .nets import ParamNets, load_checkpoint, save_checkpoint
from .quadrature import make_rule
from .runtime import benchmark_eval, bpd, log_forward, sample_pc
from .structures import bn_to_pic, chow_liu_tree, hclt_structure, tree_from_json, tree_to_json
from .training import HcltTensors, TrainConfig, train_hclt_adam, train_hclt_em, train_pic

RULES = ("trapezoidal", "midpoint", "simpson", "gauss_legendre")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems instead of calling sys.exit."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def _cell(v):
    if isinstance(v, float) or isinstance(v, np.floating):
        return repr(float(v))
    return v


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def thread_cap(args) -> int:
    """--threads flag, PICIRC_THREADS fallback, else 1; a cap below 1 raises ValueError."""
    if args.threads is not None:
        if args.threads < 1:
            raise ValueError("--threads must be at least 1")
        return args.threads
    raw = os.environ.get("PICIRC_THREADS", "1")
    if not raw.isdecimal() or int(raw) < 1:
        raise ValueError(f"PICIRC_THREADS must be a positive integer, got {raw!r}")
    return int(raw)


def _schema_of_circuit(pc: Circuit) -> list[str]:
    specs: dict[int, str] = {}
    for u in pc.units:
        if u.kind != "input" or u.var in specs:
            continue
        fam = u.dist.family
        specs[u.var] = fam if fam == "gaussian" else f"{fam}:{u.dist.num_states}"
    missing = sorted(set(range(pc.num_vars)) - specs.keys())
    if missing:
        raise ValueError(f"circuit never reads observables {missing}; cannot infer a schema")
    return [specs[j] for j in range(pc.num_vars)]


def _single_family(dataset: Dataset) -> tuple[str, int | None]:
    families = set(dataset.families)
    if len(families) != 1:
        raise ValueError("this operation needs a homogeneous schema (one family for all columns)")
    return next(iter(families))


def _progress_path(args) -> str:
    return args.progress if args.progress else f"{args.out}.progress.csv"


def _check_nodes(nodes: int) -> None:
    if nodes < 2 or nodes % 2:
        raise ValueError(f"--nodes must be even and at least 2 (latent/observable pairs), got {nodes}")


def _cmd_gen_gaussian(args) -> int:
    if args.rows < 1:
        raise ValueError(f"--rows must be at least 1, got {args.rows}")
    _check_nodes(args.nodes)
    seeds = np.random.SeedSequence(args.seed).spawn(2)
    model = random_model(args.nodes, seeds[0])
    values = sample(model, args.rows, seeds[1])
    dataset = Dataset(
        columns=[f"x{j}" for j in range(values.shape[1])],
        families=[("gaussian", None)] * values.shape[1],
        values=values,
    )
    save_csv(dataset, args.out)
    if args.model_out:
        with open(args.model_out, "wb") as fh:
            fh.write(tree_to_json(model.tree()))
    _note(f"wrote {values.shape[0]}x{values.shape[1]} gaussian samples to {args.out}")
    return 0


def _cmd_sanity_check(args) -> int:
    n_list = [int(tok) for tok in args.n_list.split(",") if tok]
    if not n_list or min(n_list) < 1:
        raise ValueError(f"--n-list must name point counts of at least 1, got {args.n_list!r}")
    for flag, value in (("--models", args.models), ("--samples", args.samples)):
        if value < 1:
            raise ValueError(f"{flag} must be at least 1")
    _check_nodes(args.nodes)
    rows = sanity_check(
        args.models, args.nodes, args.samples, n_list, args.seed, kind=args.rule, workers=thread_cap(args)
    )
    _write_csv(args.out, ["model_id", "N", "mse"], rows)
    by_n = {n: np.mean([r[2] for r in rows if r[1] == n]) for n in n_list}
    for n in n_list:
        _note(f"N={n}: mean mse {by_n[n]:.3e}")
    return 0


def _cmd_clt(args) -> int:
    dataset = load_csv(args.data, args.schema)
    family, num_states = _single_family(dataset)
    if family == "gaussian":
        raise ValueError("structure learning works on discrete columns; gaussian data needs an explicit tree")
    parent = chow_liu_tree(dataset.values, smoothing=args.smoothing)
    tree = hclt_structure(parent, family, num_states=num_states)
    with open(args.out, "wb") as fh:
        fh.write(tree_to_json(tree))
    _note(f"learned a {tree.num_latents}-latent tree from {dataset.num_rows} rows")
    return 0


def _cmd_compile(args) -> int:
    with open(args.tree) as fh:
        tree = tree_from_json(fh.read())
    pic = bn_to_pic(tree)
    with open(args.out, "wb") as fh:
        fh.write(serialize(pic))
    _note(f"compiled {len(pic)} symbolic units ({pic.num_edges} edges)")
    return 0


def _cmd_materialize(args) -> int:
    with open(args.pic) as fh:
        pic = deserialize(fh.read())
    kinds = {u.latent["cond"].get("type") for u in pic.integral_units()}
    if kinds == {"linear-gaussian"}:
        rules = domain_rules(model_from_pic(pic), args.n, args.rule)
        params = None
    else:
        if not args.nets:
            raise ValueError("neural conditionals need --nets with a parameter checkpoint")
        nets = load_checkpoint(args.nets)
        maps = pic_tree_maps(pic)
        if maps != (nets.latent_parent, nets.obs_parent):
            raise ValueError(f"checkpoint {args.nets} was built for latent tree {(nets.latent_parent, nets.obs_parent)}, the circuit's is {maps}")
        rule = make_rule(args.rule, args.n, -1.0, 1.0)
        params = (
            materialize_sum_params(nets, rule.points, rule.weights),
            materialize_input_params(nets, rule.points),
        )
        rules = rule
    qpc = materialize_qpc(pic, rules, params)
    with open(args.out, "wb") as fh:
        fh.write(serialize(qpc))
    _note(f"materialized {len(qpc)} units ({qpc.num_edges} edges)")
    if args.dump_sum_region is not None:
        block = sum_region_rows(pic, rules, args.dump_sum_region, params)
        dump = args.dump_out if args.dump_out else f"{args.out}.sum{args.dump_sum_region}.csv"
        _write_csv(dump, [f"k{k}" for k in range(block.shape[1])], block.tolist())
        _note(f"dumped {block.shape[0]} sum rows of latent {args.dump_sum_region} to {dump}")
    return 0


def _train_structure(args, dataset: Dataset):
    if args.tree:
        with open(args.tree) as fh:
            return tree_from_json(fh.read())
    family, num_states = _single_family(dataset)
    if family == "gaussian":
        raise ValueError("structure learning works on discrete columns; gaussian data needs --tree")
    return hclt_structure(chow_liu_tree(dataset.values), family, num_states=num_states)


def _cmd_train(args) -> int:
    for flag, value in (("--n", args.n), ("--batch", args.batch), ("--eval-interval", args.eval_interval)):
        if value < 1:
            raise ValueError(f"{flag} must be at least 1")
    if not 0 <= args.patience <= args.steps:
        raise ValueError(f"--patience must be in [0, --steps], got {args.patience} with --steps {args.steps}")
    train_set = load_csv(args.data, args.schema)
    valid_set = load_csv(args.valid, args.schema)
    if train_set.families != valid_set.families or train_set.num_cols != valid_set.num_cols:
        raise ValueError("training and validation files must share the schema")
    family, num_states = _single_family(train_set)
    tree = _train_structure(args, train_set)
    config = TrainConfig(
        batch_size=args.batch,
        n=args.n,
        max_steps=args.steps,
        eval_interval=args.eval_interval,
        patience=args.patience,
        seed=args.seed,
        rule_kind=args.rule,
    )
    config.validate()
    if args.mode == "pic":
        nets = ParamNets.for_tree(tree, family, num_states=num_states, seed=args.seed)
        result = train_pic(nets, train_set.values, valid_set.values, config)
        save_checkpoint(nets, args.out)
    else:
        tensors = HcltTensors.random(tree, config.n, family, num_states=num_states, seed=args.seed)
        trainer = train_hclt_em if args.mode == "hclt-em" else train_hclt_adam
        result = trainer(tensors, train_set.values, valid_set.values, config)
        with open(args.out, "wb") as fh:
            fh.write(serialize(tensors.to_circuit()))
    _note(f"best validation bpd {bpd(-result.best_valid_nll, train_set.num_cols):.4f} after {result.steps} steps")
    _write_csv(
        _progress_path(args),
        ["step", "lr", "train_nll", "valid_bpd"],
        [[h["step"], h["lr"], h["train_nll"], h["valid_bpd"]] for h in result.history],
    )
    return 0


def _cmd_eval(args) -> int:
    with open(args.model) as fh:
        qpc = deserialize(fh.read())
    dataset = load_csv(args.data, _schema_of_circuit(qpc))
    if dataset.num_cols != qpc.num_vars:
        raise ValueError(f"model has {qpc.num_vars} variables, data has {dataset.num_cols} columns")
    if not dataset.num_rows:
        raise SchemaError(f"{args.data}: no data rows to evaluate")
    loglik = log_forward(qpc, dataset.values)
    if args.out:
        _write_csv(args.out, ["loglik"], [[v] for v in loglik])
    mean_ll = float(loglik.mean())
    print(f"mean_loglik {mean_ll!r}")
    print(f"bpd {float(bpd(mean_ll, qpc.num_vars))!r}")
    return 0


def _cmd_bench(args) -> int:
    if args.iters < 1 or args.batch < 1:
        raise ValueError("--iters and --batch must be at least 1")
    with open(args.model) as fh:
        qpc = deserialize(fh.read())
    batch = sample_pc(qpc, args.batch, args.seed)
    report = benchmark_eval(qpc, batch, args.iters)
    _write_csv(args.out, ["iter", "seconds"], list(enumerate(report["times"])))
    _note(f"{report['num_edges']} edges, {report['edges_per_second']:.3e} edge-evals/second")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="picirc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen-gaussian", help="sample a random linear-Gaussian tree model to CSV")
    p.add_argument("--nodes", type=int, default=16)
    p.add_argument("--rows", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--model-out", help="also write the generating tree as LatentTree JSON")
    p.set_defaults(func=_cmd_gen_gaussian)

    p = sub.add_parser("sanity-check", help="exact-vs-quadrature MSE grid over random models")
    p.add_argument("--nodes", type=int, default=16)
    p.add_argument("--models", type=int, default=20)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--n-list", default="32,64,128,256,512")
    p.add_argument("--rule", choices=RULES, default="trapezoidal")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=None, help="worker cap (default: PICIRC_THREADS or 1)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sanity_check)

    p = sub.add_parser("clt", help="learn a latent tree from discrete data")
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True, help="column family, e.g. categorical:4")
    p.add_argument("--smoothing", type=float, default=0.01)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_clt)

    p = sub.add_parser("compile", help="compile a latent tree into a symbolic circuit")
    p.add_argument("--tree", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("materialize", help="replace integral units by quadrature sums")
    p.add_argument("--pic", required=True)
    p.add_argument("--rule", choices=RULES, default="trapezoidal")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--nets", help="parameter checkpoint for neural conditionals")
    p.add_argument("--out", required=True)
    p.add_argument("--dump-sum-region", type=int, default=None, metavar="LATENT")
    p.add_argument("--dump-out")
    p.set_defaults(func=_cmd_materialize)

    p = sub.add_parser("train", help="fit a model by gradient descent or EM")
    p.add_argument("--mode", choices=("pic", "hclt-em", "hclt-adam"), required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--valid", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--tree", help="latent tree JSON (default: learn from the training data)")
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--batch", type=int, default=64)
    p.add_argument("--rule", choices=RULES, default="trapezoidal")
    p.add_argument("--steps", type=int, default=30000)
    p.add_argument("--eval-interval", type=int, default=250)
    p.add_argument("--patience", type=int, default=1250)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--progress", help="progress CSV path (default: <out>.progress.csv)")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="per-row log-likelihood of a concrete circuit")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", help="per-row log-likelihood CSV")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("bench", help="evaluation throughput of a concrete circuit")
    p.add_argument("--model", required=True)
    p.add_argument("--batch", type=int, default=256)
    p.add_argument("--iters", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bench)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as e:
        print(str(e), file=sys.stderr)
        return 1
    except NumericError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (PicircError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))
