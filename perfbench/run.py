#!/usr/bin/env python3
"""Benchmark of the commselect pipeline, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 30 --trace 0

Workloads: paper_grid, generate_large, observed_large (see README.md). One
process, ``workers=1``, networks fed one after another. Set-up runs five
times and its median is ``setup_s``; then whole rounds of networks run until
``--seconds`` of busy time is used (at least one round). Every output is
checked. ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps
the package's public functions, reports the per-layer metrics and writes the
spans to ``perfbench/out/``. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5

END_TO_END_UNITS = {"setup_s": "s", "networks_per_s": "networks/s",
                    "predict_s": "s", "peak_rss_mib": "MiB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("paper_grid", "generate_large", "observed_large"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def per_layer(tracer, workload, networks: int) -> dict:
    inclusive, own = tracer.times()
    c = tracer.counts
    values = {
        "lfr.generate.s": inclusive["lfr.generate"],
        "lfr.generate.self_s": own["lfr.generate"],
        "lfr.generate.attempts": c["lfr.generate.attempts"],
        "lfr.build_topology.self_s": own["lfr.build_topology"],
        "lfr.build_topology.lost_stubs": c["lfr.build_topology.lost_stubs"],
        "lfr.assign_weights.self_s": own["lfr.assign_weights"],
        "lfr.measured_mixing.self_s": own["lfr.measured_mixing"],
        "lfr.mu_w_off_target": c["lfr.mu_w_off_target"],
        "graph.Graph.self_s": own["graph.Graph"],
        "graph.Graph.calls": c["graph.Graph.calls"],
        "graph.with_unit_weights.calls": c["graph.with_unit_weights.calls"],
        "graph.load_edge_list.self_s": own["graph.load_edge_list"],
        "metrics.mean_clustering.self_s": own["metrics.mean_clustering"],
        "metrics.nmi.self_s": own["metrics.nmi"],
        "metrics.modularity.self_s": own["metrics.modularity"],
        "metrics.modularity.calls": c["metrics.modularity.calls"],
        "copra.detect_uw.s": inclusive["copra.detect_uw"],
        "copra.detect_w.s": inclusive["copra.detect_w"],
        "copra.run_once.calls": c["copra.run_once.calls"],
        "copra.run_once.unsettled": c["copra.run_once.unsettled"],
        "infomap.detect_uw.s": inclusive["infomap.detect_uw"],
        "infomap.detect_w.s": inclusive["infomap.detect_w"],
        "selector.train_selector.s": inclusive["selector.train_selector"],
        "selector.predict.s": inclusive["selector.predict"],
        "harness.run_sweep.self_s": own["harness.run_sweep"],
        "harness.train_eval.self_s": own["harness.train_eval"],
        "trace.networks_per_s": networks / workload.busy_s,
    }
    values.update(workload.peaks())
    return values


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "networks/s"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_mib"):
        return "MiB"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "commselect", "__init__.py")):
        print(f"perfbench: no package source under {SRC}; run from the root "
              "of a commselect checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be > 0", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import checks
    from tracing import Clock, Tracer
    from workloads import WORKLOADS

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        clock = Clock()
        wl = WORKLOADS[args.workload](args.seed, workdir, clock)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - start)

        tracer = Tracer(clock) if args.trace else None
        wl.install()
        if tracer:
            tracer.install()
            tracer.enabled = True
        attempted = failed = rounds = 0
        problem = None
        try:
            while True:
                n, bad = wl.run_round(rounds)
                attempted += n
                failed += bad
                rounds += 1
                if wl.busy_s * (rounds + 1) / rounds > args.seconds:
                    break
        except checks.CheckFailure as exc:
            problem = f"round {rounds}: {exc}"
            attempted += wl.networks_per_round
        finally:
            if tracer:
                tracer.enabled = False
                tracer.uninstall()
            wl.uninstall()
        if problem:
            print(f"perfbench: check failed: {problem}", file=sys.stderr)

        done = attempted - failed
        if tracer:
            metrics = per_layer(tracer, wl, done)
            tracer.write(os.path.join(
                OUT, f"trace-{args.workload}-seed{args.seed}.json"))
            units = {k: unit_of(k) for k in metrics}
        else:
            metrics = {
                "setup_s": statistics.median(setup_times),
                "networks_per_s": done / wl.busy_s if wl.busy_s else 0.0,
                "predict_s": (statistics.median(wl.predict_samples)
                              if wl.predict_samples else 0.0),
                "peak_rss_mib":
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END_UNITS
        print(f"perfbench: {args.workload} seed {args.seed}: {rounds} "
              f"round(s), {attempted} networks, {failed} failed, "
              f"busy {wl.busy_s:.2f} s", file=sys.stderr)
        result = {"correct": problem is None, "attempted": attempted,
                  "failed": failed,
                  "metrics": {k: {"value": float(v), "unit": units[k]}
                              for k, v in metrics.items()}}
        for k, v in result["metrics"].items():
            print(f"{k} = {v['value']:.6g} {v['unit']}")
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
