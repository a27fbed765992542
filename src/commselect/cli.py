"""Command-line pipeline: generate / sweep / train / predict / report.

Every command is a pure function of its arguments, input files, and seeds;
reruns produce byte-identical outputs. An unset option takes the default of
the ``GenParams``, ``SweepConfig`` or ``SvmHyper`` field or ``train_eval``
parameter it feeds, as its ``--help`` shows. ``COMMSELECT_SEED`` overrides
the seed of ``generate`` and the master seed of ``sweep``.

Every command takes ``--config FILE`` of ``key=value`` lines, each key a long
flag's name with underscores for dashes. A key that is exactly the name of an
option of the command sets it, required options included; any other key is
ignored, so one file can serve several commands. Flags win over the file.
"""

from __future__ import annotations

import argparse
import inspect
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


def _config_flags(command: argparse.ArgumentParser, path) -> list[str]:
    """``--key=value`` for each config line whose key is exactly the name of
    an option of ``command``; argparse would expand a prefix of one (``mu_t``
    into ``--mu-t-grid``)."""
    flags = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise SystemExit(f"config line {lineno}: expected key=value")
            key, val = (part.strip() for part in line.split("=", 1))
            flag = "--" + key.replace("_", "-")
            action = command._option_string_actions.get(flag)
            if action and action.dest == key and key not in ("help", "config"):
                flags.append(f"{flag}={val}")
    return flags


def _params(owner) -> dict:
    """Each parameter of a function or a dataclass to its default."""
    return {name: prm.default
            for name, prm in inspect.signature(owner).parameters.items()}


def _given(args, owner, prefix="", env_seed=None) -> dict:
    """The parameters of ``owner`` whose option (``prefix`` + name) is set,
    with ``COMMSELECT_SEED``, if set, as parameter ``env_seed``."""
    values = {name: getattr(args, prefix + name, None) for name in _params(owner)}
    if env_seed and ENV_SEED in os.environ:
        values[env_seed] = int(os.environ[ENV_SEED])
    return {name: value for name, value in values.items() if value is not None}


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def _str_list(text: str) -> tuple[str, ...]:
    return tuple(tok for tok in text.replace(",", " ").split())


def _flag(p, name, cast, text, owner=None, field=None):
    """Add ``--name``, unset; its help shows the default of ``owner``'s
    parameter ``field`` (by default ``name``)."""
    default = _params(owner).get(field or name) if owner else None
    if default not in (None, inspect.Parameter.empty):
        shown = ",".join(default) if isinstance(default, tuple) else f"{default:g}"
        text += f" (default {shown})"
    p.add_argument("--" + name.replace("_", "-"), type=cast, help=text)


# help for each GenParams flag; _flag adds the "(default ...)" a field sets
_GEN_HELP = {
    "n": "node count (default %(default)s)",
    "mu_t": "topological mixing in [0,1]",
    "mu_w": "weight mixing in [0,1]",
    "avg_k": "target mean degree",
    "tau1": "degree power-law exponent",
    "tau2": "community-size power-law exponent",
    "beta": "strength exponent",
    "k_max": "maximum degree (default n/2)",
    "s_min": "minimum community size (default max(2, avg_k/2))",
    "s_max": "maximum community size (default n/2)",
    "seed": f"generator seed; ${ENV_SEED} overrides",
    "mix_tolerance": "allowed |achieved - target| on mu_t",
}


def _add_gen_params(p, skip=()):
    for name, prm in inspect.signature(GenParams).parameters.items():
        if name not in skip:
            _flag(p, name, int if "int" in str(prm.annotation) else float,
                  _GEN_HELP[name], GenParams)
    p.set_defaults(n=100)       # GenParams requires n


def cmd_generate(args) -> int:
    if args.mu_t is None or args.mu_w is None:
        raise SystemExit("--mu-t and --mu-w are required")
    try:
        params = GenParams(**_given(args, GenParams, env_seed="seed"))
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
    if args.mu_t_grid is None or args.mu_w_grid is None:
        print("--mu-t-grid and --mu-w-grid are required", file=sys.stderr)
        return 1
    try:
        config = harness.SweepConfig(
            base=GenParams(mu_t=0.0, mu_w=0.0, **_given(args, GenParams)),
            **_given(args, harness.SweepConfig, env_seed="master_seed"))
    except (TypeError, ValueError) as exc:
        print(f"bad sweep configuration: {exc}", file=sys.stderr)
        return 1
    rows = harness.run_sweep(config)
    harness.write_detail_csv(rows, args.out)
    agg_path = args.agg_out or "{}_agg{}".format(*os.path.splitext(args.out))
    harness.write_agg_csv(rows, agg_path)
    failed = sum(1 for r in rows if r["status"] != "ok")
    print(f"wrote {len(rows)} detail rows to {args.out} "
          f"({failed} flagged) and aggregates to {agg_path}")
    return 0


def cmd_train(args) -> int:
    try:
        rows = harness.read_detail_csv(args.results)
        result = harness.train_eval(
            rows, hyper=SvmHyper(**_given(args, SvmHyper, prefix="svm_")),
            **_given(args, harness.train_eval))
    except (OSError, ValueError) as exc:
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
        feats = extract_features(g)
    except (OSError, ValueError) as exc:
        print(f"cannot load inputs: {exc}", file=sys.stderr)
        return 1
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


def build_parser() -> tuple[argparse.ArgumentParser,
                            dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's parser by name."""
    parser = argparse.ArgumentParser(
        prog="commselect",
        description="Weighted community-detection benchmarks and "
                    "algorithm-class selection.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate one benchmark network")
    _add_gen_params(p)
    p.add_argument("--out-edges", required=True, help="edge-list output path")
    p.add_argument("--out-truth", required=True,
                   help="ground-truth partition output path")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("sweep", help="sweep a (mu_t, mu_w) grid, CSV out")
    _add_gen_params(p, skip=("mu_t", "mu_w", "seed"))
    _flag(p, "mu_t_grid", _float_list, "comma-separated mu_t values")
    _flag(p, "mu_w_grid", _float_list, "comma-separated mu_w values")
    for name, cast, text in (
            ("reps", int, "networks per cell"),
            ("algorithms", _str_list, "subset of the detector variants"),
            ("master_seed", int, f"sweep master seed; ${ENV_SEED} overrides"),
            ("workers", int, "parallel workers")):
        _flag(p, name, cast, text, harness.SweepConfig)
    p.add_argument("--out", required=True, help="detail CSV output path")
    p.add_argument("--agg-out",
                   help="aggregate CSV path (default: sibling *_agg.csv)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("train", help="label networks, train and evaluate "
                       "the selector")
    p.add_argument("--results", required=True, help="detail CSV from sweep")
    p.add_argument("--model-out", required=True)
    p.add_argument("--report-out")
    p.add_argument("--predictions-out",
                   help="per-test-network CSV of true vs predicted class")
    for name, cast, text in (
            ("train_fraction", float, "fraction of networks used for training"),
            ("split_seed", int, "train/test shuffle seed"),
            ("threshold", float, "NMI below which a network is labeled none")):
        _flag(p, name, cast, text, harness.train_eval)
    for field, cast, text in (("c", float, "soft-margin C"),
                              ("epochs", int, "training epochs"),
                              ("seed", int, "SVM shuffle seed")):
        _flag(p, "svm_" + field, cast, text, SvmHyper, field)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="recommend an algorithm class for a "
                       "network file")
    p.add_argument("--model", required=True, help="model file from train")
    p.add_argument("--edges", required=True, help="edge-list file")
    p.add_argument("--detect-out",
                   help="also run the recommended class's best algorithm and "
                        "write the partition here")
    p.add_argument("--detect-seed", type=int, default=0,
                   help="seed of that run (default %(default)s)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("report", help="per-cell NMI of classifier-selected "
                       "class vs each class's best")
    p.add_argument("--results", required=True, help="detail CSV from sweep")
    p.add_argument("--model", required=True, help="model file from train")
    p.add_argument("--out", required=True, help="comparison CSV output path")
    p.set_defaults(func=cmd_report)

    for p in sub.choices.values():
        p.add_argument("--config", metavar="FILE",
                       help="key=value file setting any option of this command")
    return parser, sub.choices


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = build_parser()
    find_config = argparse.ArgumentParser(add_help=False)
    find_config.add_argument("--config")
    path = find_config.parse_known_args(argv)[0].config
    if path and argv[0] in commands:
        # the file's flags go first, so the command line's own win
        try:
            argv[1:1] = _config_flags(commands[argv[0]], path)
        except OSError as exc:
            parser.error(f"cannot read --config: {exc}")
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
