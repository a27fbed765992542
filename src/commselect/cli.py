"""Command-line pipeline: generate / sweep / train / predict / report.

Every command is a pure function of its arguments, input files, and seeds;
reruns produce byte-identical outputs. The environment variable
``COMMSELECT_SEED`` overrides the seed of ``generate`` and the master seed of
``sweep``. Any option may also be supplied through ``--config FILE`` holding
``key=value`` lines with the same names as the long flags (underscores for
dashes); explicit flags win over the file.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from . import harness
from .graph import load_edge_list, save_edge_list, save_partition
from .lfr import GenParams, GenerationError, generate
from .metrics import modularity
from .selector import (SvmHyper, algorithm_class, class_to_run,
                       decision_margins, extract_features, load_model, predict,
                       save_model)

ENV_SEED = "COMMSELECT_SEED"


def _read_config(path) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise SystemExit(f"config line {lineno}: expected key=value")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


class _Resolver:
    """Merges CLI values, config-file values, and hard defaults."""

    def __init__(self, args):
        self.args = vars(args)
        cfg_path = self.args.get("config")
        self.config = _read_config(cfg_path) if cfg_path else {}

    def get(self, name, default, cast=str):
        cli_val = self.args.get(name)
        if cli_val is not None:
            return cli_val
        if name in self.config:
            raw = self.config[name]
            return cast(raw)
        return default


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def _str_list(text: str) -> tuple[str, ...]:
    return tuple(tok for tok in text.replace(",", " ").split())


def _add_config_flag(p):
    p.add_argument("--config", metavar="FILE",
                   help="key=value file supplying defaults for any option")


# help for each generator flag; "(default ...)" is added from GenParams,
# except for the fields whose defaults resolve from other fields
_GEN_HELP = {
    "n": "node count",
    "mu_t": "topological mixing in [0,1]",
    "mu_w": "weight mixing in [0,1]",
    "avg_k": "target mean degree",
    "tau1": "degree power-law exponent",
    "tau2": "community-size power-law exponent",
    "beta": "strength exponent",
    "k_max": "maximum degree (default n/2)",
    "s_min": "minimum community size (default max(2, avg_k/2))",
    "s_max": "maximum community size (default n/2)",
    "mix_tolerance": "allowed |achieved - target| on mu_t",
}
# GenParams requires n; the command line defaults it
_CLI_DEFAULTS = {"n": 100}


def _gen_fields(with_mixing):
    """(field, default, type) of each GenParams field set by a flag."""
    for fld in dataclasses.fields(GenParams):
        if fld.name == "seed" or (not with_mixing and fld.name.startswith("mu_")):
            continue
        default = _CLI_DEFAULTS.get(fld.name, fld.default)
        yield (fld.name, None if default is dataclasses.MISSING else default,
               int if "int" in str(fld.type) else float)


def _add_gen_params(p, with_mixing=True):
    for name, default, cast in _gen_fields(with_mixing):
        text = _GEN_HELP[name]
        if default is not None:
            text += f" (default {default:g})"
        p.add_argument("--" + name.replace("_", "-"), type=cast, dest=name,
                       help=text)


def _gen_params_from(res: _Resolver, with_mixing=True, seed=0) -> GenParams:
    kwargs = {name: res.get(name, default, cast)
              for name, default, cast in _gen_fields(with_mixing)}
    if not with_mixing:
        kwargs.update(mu_t=0.0, mu_w=0.0)
    elif kwargs["mu_t"] is None or kwargs["mu_w"] is None:
        raise SystemExit("--mu-t and --mu-w are required")
    return GenParams(seed=seed, **kwargs)


def _env_seed(fallback: int) -> int:
    if ENV_SEED in os.environ:
        return int(os.environ[ENV_SEED])
    return fallback


def cmd_generate(args) -> int:
    res = _Resolver(args)
    seed = _env_seed(res.get("seed", 0, int))
    try:
        params = _gen_params_from(res, seed=seed)
        net = generate(params)
    except (ValueError, GenerationError) as exc:
        print(f"generation failed: {exc}", file=sys.stderr)
        return 1
    header = [
        f"achieved_mu_t {net.achieved_mu_t:.9g}",
        f"achieved_mu_w {net.achieved_mu_w:.9g}",
        f"seed {params.seed}",
    ]
    save_edge_list(net.graph, args.out_edges, header_comments=header)
    save_partition(net.truth, args.out_truth)
    print(f"wrote {args.out_edges} ({net.graph.n} nodes, "
          f"{net.graph.edge_count} edges) and {args.out_truth} "
          f"({net.truth.community_count} communities)")
    print(f"achieved mu_t={net.achieved_mu_t:.4f} mu_w={net.achieved_mu_w:.4f}")
    return 0


def cmd_sweep(args) -> int:
    res = _Resolver(args)
    master_seed = _env_seed(res.get("master_seed", 0, int))
    mu_t_grid = res.get("mu_t_grid", None, _float_list)
    mu_w_grid = res.get("mu_w_grid", None, _float_list)
    if mu_t_grid is None or mu_w_grid is None:
        print("--mu-t-grid and --mu-w-grid are required", file=sys.stderr)
        return 1
    try:
        base = _gen_params_from(res, with_mixing=False, seed=0)
        config = harness.SweepConfig(
            base=base,
            mu_t_grid=mu_t_grid,
            mu_w_grid=mu_w_grid,
            reps=res.get("reps", 25, int),
            algorithms=res.get("algorithms", harness.ALGORITHM_ORDER, _str_list),
            master_seed=master_seed,
            workers=res.get("workers", 1, int),
        )
    except (TypeError, ValueError) as exc:
        print(f"bad sweep configuration: {exc}", file=sys.stderr)
        return 1
    rows = harness.run_sweep(config)
    harness.write_detail_csv(rows, args.out)
    agg_path = args.agg_out or _sibling(args.out, "_agg")
    harness.write_agg_csv(rows, agg_path)
    failed = sum(1 for r in rows if r["status"] != "ok")
    print(f"wrote {len(rows)} detail rows to {args.out} "
          f"({failed} flagged) and aggregates to {agg_path}")
    return 0


def _sibling(path: str, suffix: str) -> str:
    stem, dot, ext = path.rpartition(".")
    if not dot:
        return path + suffix
    return f"{stem}{suffix}.{ext}"


def cmd_train(args) -> int:
    res = _Resolver(args)
    rows = harness.read_detail_csv(args.results)
    hyper = SvmHyper(c=res.get("svm_c", 1.0, float),
                     epochs=res.get("svm_epochs", 200, int),
                     seed=res.get("svm_seed", 0, int))
    try:
        result = harness.train_eval(
            rows,
            train_fraction=res.get("train_fraction", 0.8, float),
            split_seed=res.get("split_seed", 0, int),
            threshold=res.get("threshold", 0.6, float),
            hyper=hyper)
    except ValueError as exc:
        print(f"training failed: {exc}", file=sys.stderr)
        return 1
    save_model(result.model, args.model_out)
    if args.report_out:
        with open(args.report_out, "w", encoding="utf-8") as fh:
            fh.write(result.report)
    if args.predictions_out:
        with open(args.predictions_out, "w", encoding="utf-8") as fh:
            fh.write(harness.rows_to_csv(result.predictions,
                                         harness.PREDICTION_COLUMNS))
    print(result.report)
    return 0


def cmd_predict(args) -> int:
    try:
        model = load_model(args.model)
        g = load_edge_list(args.edges)
    except (OSError, ValueError) as exc:
        print(f"cannot load inputs: {exc}", file=sys.stderr)
        return 1
    feats = extract_features(g)
    label = predict(model, feats)
    print(f"predicted_class: {label.value}")
    print(f"c_uw: {feats.c_uw:.9g}")
    print(f"c_w: {feats.c_w:.9g}")
    for pair, margin in decision_margins(model, feats).items():
        print(f"margin {pair}: {margin:.9g}")
    if args.detect_out:
        names = [name for name in harness.ALGORITHM_ORDER
                 if algorithm_class(name) == class_to_run(label)]
        best_name, best_part, best_q = None, None, -float("inf")
        for name in names:
            part = harness.run_algorithm(name, g, args.detect_seed)
            q = modularity(g, part) if g.edge_count else 0.0
            if q > best_q:
                best_name, best_part, best_q = name, part, q
        save_partition(best_part, args.detect_out, labels=g.labels)
        print(f"detected with {best_name} "
              f"({best_part.community_count} communities, Q={best_q:.9g}) "
              f"-> {args.detect_out}")
    return 0


def cmd_report(args) -> int:
    try:
        model = load_model(args.model)
        rows = harness.read_detail_csv(args.results)
        report_rows = harness.report_selection(rows, model)
    except (OSError, ValueError) as exc:
        print(f"report failed: {exc}", file=sys.stderr)
        return 1
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(harness.rows_to_csv(report_rows, harness.SELECTION_COLUMNS))
    print(f"wrote {len(report_rows)} cell rows to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commselect",
        description="Weighted community-detection benchmarks and "
                    "algorithm-class selection.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate one benchmark network")
    _add_config_flag(p)
    _add_gen_params(p)
    p.add_argument("--seed", type=int, help="generator seed (default 0); "
                   f"${ENV_SEED} overrides")
    p.add_argument("--out-edges", required=True, dest="out_edges",
                   help="edge-list output path")
    p.add_argument("--out-truth", required=True, dest="out_truth",
                   help="ground-truth partition output path")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("sweep", help="sweep a (mu_t, mu_w) grid, CSV out")
    _add_config_flag(p)
    _add_gen_params(p, with_mixing=False)
    p.add_argument("--mu-t-grid", dest="mu_t_grid", type=_float_list,
                   help="comma-separated mu_t values")
    p.add_argument("--mu-w-grid", dest="mu_w_grid", type=_float_list,
                   help="comma-separated mu_w values")
    p.add_argument("--reps", type=int, help="networks per cell (default 25)")
    p.add_argument("--algorithms", type=_str_list,
                   help="subset of copra_uw,copra_w,infomap_uw,infomap_w")
    p.add_argument("--master-seed", type=int, dest="master_seed",
                   help=f"sweep master seed (default 0); ${ENV_SEED} overrides")
    p.add_argument("--workers", type=int, help="parallel workers (default 1)")
    p.add_argument("--out", required=True, help="detail CSV output path")
    p.add_argument("--agg-out", dest="agg_out",
                   help="aggregate CSV path (default: sibling *_agg.csv)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("train", help="label networks, train and evaluate "
                       "the selector")
    _add_config_flag(p)
    p.add_argument("--results", required=True, help="detail CSV from sweep")
    p.add_argument("--model-out", required=True, dest="model_out")
    p.add_argument("--report-out", dest="report_out")
    p.add_argument("--predictions-out", dest="predictions_out",
                   help="per-test-network CSV of true vs predicted class")
    p.add_argument("--train-fraction", type=float, dest="train_fraction",
                   help="fraction of networks used for training (default 0.8)")
    p.add_argument("--split-seed", type=int, dest="split_seed",
                   help="train/test shuffle seed (default 0)")
    p.add_argument("--threshold", type=float,
                   help="NMI below which a network is labeled none (default 0.6)")
    p.add_argument("--svm-c", type=float, dest="svm_c",
                   help="soft-margin C (default 1.0)")
    p.add_argument("--svm-epochs", type=int, dest="svm_epochs",
                   help="training epochs (default 200)")
    p.add_argument("--svm-seed", type=int, dest="svm_seed",
                   help="SVM shuffle seed (default 0)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="recommend an algorithm class for a "
                       "network file")
    _add_config_flag(p)
    p.add_argument("--model", required=True, help="model file from train")
    p.add_argument("--edges", required=True, help="edge-list file")
    p.add_argument("--detect-out", dest="detect_out",
                   help="also run the recommended class's best algorithm and "
                        "write the partition here")
    p.add_argument("--detect-seed", type=int, dest="detect_seed", default=0)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("report", help="per-cell NMI of classifier-selected "
                       "class vs each class's best")
    _add_config_flag(p)
    p.add_argument("--results", required=True, help="detail CSV from sweep")
    p.add_argument("--model", required=True, help="model file from train")
    p.add_argument("--out", required=True, help="comparison CSV output path")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
