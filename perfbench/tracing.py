"""Span tracing of the package's public functions, from outside the package.

``Tracer.install`` replaces each traced name in the module where its caller
looks it up (``harness`` imports ``generate`` by name, so the wrapper goes on
``harness.generate`` as well as on ``lfr.generate``), and wraps
``Graph.__init__`` on the class so that every construction is seen. Spans
(name, start, end, parent) and counts are kept in memory; ``times`` derives
inclusive and self times from them and ``write`` stores them as JSON.

Spans are timed on a ``Clock`` that stops while the benchmark checks
outputs. Some wrappers also inspect a result (mixing of a generated network,
lost stubs, whether a COPRA run ended at a fixed point); they do it with the
clock stopped, so that work is left out of every traced time.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

from commselect import copra, graph, harness, infomap, lfr, metrics, selector

import checks


class Clock:
    """Monotonic seconds that do not advance inside ``stopped()``."""

    def __init__(self):
        self._stopped_total = 0.0
        self._depth = 0
        self._stop_start = 0.0

    def now(self) -> float:
        if self._depth:
            return self._stop_start - self._stopped_total
        return time.perf_counter() - self._stopped_total

    @contextmanager
    def stopped(self):
        if self._depth == 0:
            self._stop_start = time.perf_counter()
        self._depth += 1
        try:
            yield
        finally:
            self._depth -= 1
            if self._depth == 0:
                self._stopped_total += time.perf_counter() - self._stop_start


def _by_weighting(prefix):
    def name(args, kwargs):
        cfg = args[1] if len(args) > 1 else kwargs["cfg"]
        return f"{prefix}_w" if cfg.weighted else f"{prefix}_uw"
    return name


def _mu_w_hook(tracer, args, kwargs, net):
    u, v, w = checks.edge_arrays(net.graph)
    mu_w = checks.mixing(u, v, w, np.asarray(net.truth.membership))[1]
    if abs(mu_w - net.params.mu_w) > net.params.mix_tolerance:
        tracer.counts["lfr.mu_w_off_target"] += 1


def _lost_stubs_hook(tracer, args, kwargs, result):
    degrees = args[0] if args else kwargs["degrees"]
    g = result[0]
    tracer.counts["lfr.build_topology.lost_stubs"] += (
        int(sum(int(k) for k in degrees)) - 2 * g.edge_count)


def _unsettled_hook(tracer, args, kwargs, part):
    g = args[0]
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    if not is_fixed_point(g, part.membership, cfg.weighted):
        tracer.counts["copra.run_once.unsettled"] += 1


def is_fixed_point(g, membership, weighted: bool) -> bool:
    """Whether every linked node's community is among its neighbours' most
    supported communities (support = link count, or link weight)."""
    u, v, w = checks.edge_arrays(g)
    if u.size == 0:
        return True
    w = w if weighted else np.ones_like(w)
    m = np.asarray(membership)
    node = np.concatenate([u, v])
    label = m[np.concatenate([v, u])]
    keys, inv = np.unique(node * (m.max() + 1) + label, return_inverse=True)
    support = np.bincount(inv, weights=np.concatenate([w, w]))
    key_node = keys // (m.max() + 1)
    best = np.full(g.n, -np.inf)
    np.maximum.at(best, key_node, support)
    own = np.zeros(g.n)
    mine = keys % (m.max() + 1) == m[key_node]
    own[key_node[mine]] = support[mine]
    linked = np.bincount(node, minlength=g.n) > 0
    return bool((own[linked] >= best[linked] * (1 - 1e-12)).all())


# (owner, attribute, span name or callable naming the span, hook)
TRACED = (
    (lfr, "generate", "lfr.generate", _mu_w_hook),
    (harness, "generate", "lfr.generate", _mu_w_hook),
    (lfr, "build_topology", "lfr.build_topology", _lost_stubs_hook),
    (lfr, "assign_weights", "lfr.assign_weights", None),
    (lfr, "measured_mixing", "lfr.measured_mixing", None),
    (graph.Graph, "__init__", "graph.Graph", None),
    (graph, "load_edge_list", "graph.load_edge_list", None),
    (copra, "with_unit_weights", "graph.with_unit_weights", None),
    (infomap, "with_unit_weights", "graph.with_unit_weights", None),
    (selector, "mean_clustering", "metrics.mean_clustering", None),
    (harness, "nmi", "metrics.nmi", None),
    (metrics, "nmi", "metrics.nmi", None),
    (copra, "modularity", "metrics.modularity", None),
    (metrics, "modularity", "metrics.modularity", None),
    (copra, "detect", _by_weighting("copra.detect"), None),
    (copra, "run_once", "copra.run_once", _unsettled_hook),
    (infomap, "detect", _by_weighting("infomap.detect"), None),
    (selector, "extract_features", "selector.extract_features", None),
    (harness, "extract_features", "selector.extract_features", None),
    (selector, "predict", "selector.predict", None),
    (harness, "predict", "selector.predict", None),
    (harness, "train_selector", "selector.train_selector", None),
    (harness, "run_sweep", "harness.run_sweep", None),
    (harness, "train_eval", "harness.train_eval", None),
    (harness, "report_selection", "harness.report_selection", None),
)
# counted, not timed: every generation attempt starts by solving k_min
COUNTED = ((lfr, "solve_k_min", "lfr.generate.attempts"),)


class Tracer:
    """Records spans while ``enabled``; passes calls straight through
    otherwise."""

    def __init__(self, clock: Clock):
        self.clock = clock
        self.enabled = False
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn, name, hook):
        tracer, clock = self, self.clock

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            label = name(args, kwargs) if callable(name) else name
            tracer.counts[label + ".calls"] += 1
            idx = len(tracer.spans)
            span = [label, clock.now(), 0.0,
                    tracer._stack[-1] if tracer._stack else -1]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock.now()
                tracer._stack.pop()
            if hook is not None:
                with clock.stopped():
                    hook(tracer, args, kwargs, result)
            return result
        return traced

    def _count(self, fn, name):
        tracer = self

        def counted(*args, **kwargs):
            if tracer.enabled:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self):
        for owner, attr, name, hook in TRACED:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, hook))
        for owner, attr, name in COUNTED:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._count(fn, name))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def times(self) -> tuple[Counter, Counter]:
        """Inclusive and self seconds summed per span name. Self time is a
        span's duration minus the durations of its direct children."""
        children = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        inclusive, own = Counter(), Counter()
        for (name, start, end, _), inner in zip(self.spans, children):
            inclusive[name] += end - start
            own[name] += end - start - inner
        return inclusive, own

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)
