"""Undirected weighted graph and partition types plus edge-list / partition file I/O.

Everything downstream (generation, detection, scoring) works on these two
containers. Graphs are simple (no self-loops, no parallel edges), weights are
strictly positive, and node ids are dense in ``[0, N)``. A graph is stored
once, as read-only numpy arrays: its edges ``u < v`` sorted by ``(u, v)``
with their weights, and the CSR adjacency derived from them, whose rows list
each node's neighbours in ascending order, with the row of each entry. Node
degrees, strengths and the total weight are computed from those arrays at
construction. Both containers are immutable after construction and safe to
share across threads or processes. ``neighbour_label_sums`` sums each node's
links by the label of the neighbour at the other end, the step both
detectors build their moves on.
"""

from __future__ import annotations

from typing import IO, Iterable, Sequence

import numpy as np

Edge = tuple[int, int, float]


class EdgeError(ValueError):
    """An edge that ``Graph`` rejects; ``row`` is its index in the input."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


class Graph:
    """Simple undirected weighted graph with dense integer node ids.

    Args:
        node_count: number of nodes N; ids are 0..N-1.
        edges: (u, v, w) rows with u != v, w > 0, as an iterable of triples
            or an (m, 3) array. Each unordered pair may appear at most once.
            The first row, in input order, that breaks a rule raises
            ``EdgeError``, which names the fault and carries the row index.
        labels: optional original node labels (length N), kept when a parsed
            file used sparse or non-contiguous ids. ``None`` means identity.
    """

    __slots__ = ("n", "_u", "_v", "_w", "_indptr", "_nbr", "_wt", "csr_rows",
                 "degrees", "strengths", "total_weight", "labels")

    def __init__(self, node_count: int, edges: Iterable[Edge] | np.ndarray,
                 labels: Sequence[int] | None = None):
        if node_count < 0:
            raise ValueError(f"node_count must be >= 0, got {node_count}")
        n = int(node_count)
        rows = np.asarray(edges if isinstance(edges, np.ndarray)
                          else list(edges), dtype=np.float64)
        if rows.size == 0:
            rows = rows.reshape(0, 3)
        if rows.ndim != 2 or rows.shape[1] != 3:
            raise ValueError("edges must be (u, v, w) triples")
        u, v, w = rows[:, 0], rows[:, 1], rows[:, 2]
        in_range = (u >= 0) & (u < n) & (v >= 0) & (v < n)
        faulty = np.flatnonzero((u == v) | ~in_range | ~(w > 0.0))
        # edges are checked in input order: a duplicate is reported only
        # when it comes before the first edge with another fault
        clean = int(faulty[0]) if faulty.size else len(rows)
        lo = np.minimum(u[:clean], v[:clean]).astype(np.int64)
        hi = np.maximum(u[:clean], v[:clean]).astype(np.int64)
        key = lo * n + hi
        order = np.argsort(key, kind="stable")
        repeats = order[1:][np.diff(key[order]) == 0]
        if repeats.size:
            i = int(repeats.min())
            raise EdgeError(i, f"duplicate edge ({lo[i]},{hi[i]})")
        if faulty.size:
            a, b, wi = int(u[clean]), int(v[clean]), float(w[clean])
            if a == b:
                raise EdgeError(clean, f"self-loop on node {a}")
            if not in_range[clean]:
                raise EdgeError(clean, f"edge ({a},{b}) outside node range [0,{n})")
            raise EdgeError(clean, f"non-positive weight {wi} on edge ({a},{b})")
        if labels is not None:
            labels = tuple(int(x) for x in labels)
            if len(labels) != n:
                raise ValueError("labels length must equal node_count")

        self.n = n
        self.labels = labels
        self._u, self._v, self._w = lo[order], hi[order], w[order]
        # CSR rows: a stable sort by node of the (v -> u) halves followed by
        # the (u -> v) halves lists every row's neighbours in ascending order
        src = np.concatenate([self._v, self._u])
        perm = np.argsort(src, kind="stable")
        self._nbr = np.concatenate([self._u, self._v])[perm]
        self._wt = np.concatenate([self._w, self._w])[perm]
        # the node whose row holds each CSR entry
        self.csr_rows = src[perm]
        self.degrees = np.bincount(src, minlength=n)
        self._indptr = np.concatenate([[0], np.cumsum(self.degrees)])
        # summed in CSR order: each strength adds its node's weights in
        # ascending neighbour order
        self.strengths = np.bincount(self.csr_rows, self._wt, n)
        # left-to-right sum, the same rounding as adding the edges in order
        self.total_weight = float(np.cumsum(self._w)[-1]) if len(order) else 0.0
        for arr in (self._u, self._v, self._w, self._indptr, self._nbr,
                    self._wt, self.csr_rows, self.degrees, self.strengths):
            arr.setflags(write=False)

    @property
    def edge_count(self) -> int:
        return int(self._u.size)

    @property
    def edges(self) -> tuple[Edge, ...]:
        """(u, v, w) tuples with u < v, in ascending (u, v) order."""
        return tuple(zip(self._u.tolist(), self._v.tolist(), self._w.tolist()))

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(u, v, w) arrays of the edges, u < v, sorted by (u, v)."""
        return self._u, self._v, self._w

    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(indptr, neighbors, weights) arrays of the adjacency."""
        return self._indptr, self._nbr, self._wt

    def neighbors(self, v: int) -> tuple[tuple[int, float], ...]:
        """(neighbor, weight) pairs of v, sorted by neighbor id."""
        lo, hi = self._indptr[v], self._indptr[v + 1]
        return tuple(zip(self._nbr[lo:hi].tolist(), self._wt[lo:hi].tolist()))

    def check_node(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise ValueError(f"node {v} outside [0,{self.n})")

    def degree(self, v: int) -> int:
        self.check_node(v)
        return int(self.degrees[v])

    def strength(self, v: int) -> float:
        self.check_node(v)
        return float(self.strengths[v])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and all(
            np.array_equal(a, b)
            for a, b in zip(self.edge_arrays(), other.edge_arrays()))

    def __hash__(self):
        return hash((self.n, *(a.tobytes() for a in self.edge_arrays())))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count})"


class Partition:
    """Total assignment of nodes 0..N-1 to dense community ids 0..C-1."""

    __slots__ = ("membership", "community_count", "_members")

    def __init__(self, membership: Sequence[int]):
        m = np.asarray(membership, dtype=np.int64)
        if m.ndim != 1 or m.size == 0:
            raise ValueError("membership must be a non-empty 1-d sequence")
        c = int(m.max()) + 1
        if m.min() < 0:
            raise ValueError("community ids must be >= 0")
        present = np.bincount(m, minlength=c)
        if (present == 0).any():
            missing = int(np.flatnonzero(present == 0)[0])
            raise ValueError(f"community ids not dense: {missing} is empty")
        m.setflags(write=False)
        self.membership = m
        self.community_count = c
        self._members = None

    @classmethod
    def from_labels(cls, labels: Sequence[int]) -> "Partition":
        """Build a Partition from arbitrary labels, renumbering them densely
        in order of first appearance."""
        _, first, inverse = np.unique(np.asarray(labels, dtype=np.int64),
                                      return_index=True, return_inverse=True)
        rank = np.empty(first.size, dtype=np.int64)
        rank[np.argsort(first)] = np.arange(first.size)
        return cls(rank[inverse])

    @property
    def n(self) -> int:
        return int(self.membership.size)

    def members(self) -> tuple[tuple[int, ...], ...]:
        """Node ids per community, cached."""
        if self._members is None:
            order = np.argsort(self.membership, kind="stable")
            ends = np.cumsum(np.bincount(self.membership))[:-1]
            self._members = tuple(tuple(group.tolist())
                                  for group in np.split(order, ends))
        return self._members

    def __getitem__(self, v: int) -> int:
        return int(self.membership[v])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return bool(np.array_equal(self.membership, other.membership))

    def __hash__(self):
        return hash(self.membership.tobytes())

    def __repr__(self) -> str:
        return f"Partition(n={self.n}, communities={self.community_count})"


def runs(*sorted_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start index and length of each run of equal key tuples."""
    size = sorted_keys[0].size
    head = np.zeros(size + 1, dtype=bool)
    head[0] = head[size] = True
    for key in sorted_keys:
        head[1:size] |= key[1:] != key[:-1]
    bound = head.nonzero()[0]
    return bound[:-1], bound[1:] - bound[:-1]


def neighbour_label_sums(rows: np.ndarray, nbr: np.ndarray, wt: np.ndarray,
                         labels: np.ndarray):
    """Every distinct (node, label of a neighbour) pair of CSR entries (row,
    neighbour, weight), whole rows of a graph's, sorted by (node, label): the
    arrays (node, label, links, weight), where ``links`` counts the node's
    links to neighbours holding the label and ``weight`` sums their weights,
    added in adjacency order. O(m) memory.
    """
    lab = labels[nbr]
    width = int(labels.max()) + 1 if labels.size else 1
    shift = nbr.size.bit_length()
    if (labels.size * width) >> (63 - shift) == 0:
        # a stable sort as one int64 sort: each pair carries its index below
        order = np.sort(((rows * width + lab) << shift) | np.arange(nbr.size))
        order &= (1 << shift) - 1
    else:
        order = np.lexsort((lab, rows))
    # CSR rows are grouped by node already: only labels move within a row
    lab = lab[order]
    start, links = runs(rows, lab)
    # bincount adds in input order: each label's links in adjacency order
    weight = np.bincount(np.repeat(np.arange(start.size), links),
                         weights=wt[order], minlength=start.size)
    return rows[start], lab[start], links, weight


def with_unit_weights(g: Graph) -> Graph:
    """Copy of g with identical topology and every weight set to 1.0."""
    u, v, _ = g.edge_arrays()
    return Graph(g.n, np.column_stack((u, v, np.ones(u.size))), labels=g.labels)


def _format_weight(w: float) -> str:
    # fixed point matches the documented format for ordinary weights;
    # scientific keeps >= 9 significant digits for very small ones
    return f"{w:.9f}" if w >= 0.5 else f"{w:.9e}"


def _lines(text: str | IO[str]) -> list[str]:
    return (text.read() if hasattr(text, "read") else text).splitlines()


def parse_edge_list(text: str | IO[str]) -> Graph:
    """Parse an edge-list text stream into a validated Graph.

    Each non-empty, non-comment line is ``u v [w]`` separated by tabs or
    spaces; a missing weight defaults to 1.0, so plain unweighted files are
    accepted. Lines starting with ``#`` are comments; a ``# nodes N`` comment
    (as written by :func:`write_edge_list`) declares the node count.

    Node ids are integers in [0, 2^63). When they all fit below the declared
    N, they are node indices, and ids no edge names are isolated nodes.
    Otherwise they are labels: they are compacted to 0..N-1 in ascending
    order and kept as ``Graph.labels``, and there must be exactly N of them
    when N is declared. Without a declaration N is the number of distinct
    ids, and ids that are not exactly 0..N-1 are labels.

    Raises:
        ValueError: ``line N: <fault> in '<line>'`` for the first faulty line.
            Tokens are read here; ``Graph`` checks edges, naming labels by rank.
    """
    lines = _lines(text)
    declared = fault = None  # (line index, N) and (line index, reason)
    ends, weights, at = [], [], []  # ids, weight and line index per edge
    try:
        for i, raw in enumerate(lines):
            parts = raw.split()
            if parts and parts[0][0] == "#":
                body = raw.strip()[1:].split()
                if len(body) == 2 and body[0] == "nodes":
                    try:
                        count = int(body[1])
                    except ValueError:
                        raise ValueError("bad node count comment")
                    if count < 0:
                        raise ValueError("negative node count")
                    declared = (i, count)
            elif parts:
                if len(parts) not in (2, 3):
                    raise ValueError("expected 'u v [w]'")
                try:
                    u, v = int(parts[0]), int(parts[1])
                except ValueError:
                    raise ValueError("malformed node id")
                if not (0 <= u < 2 ** 63 and 0 <= v < 2 ** 63):
                    raise ValueError("node id out of range")
                try:
                    weights.append(float(parts[2]) if len(parts) == 3 else 1.0)
                except ValueError:
                    raise ValueError("malformed weight")
                ends += (u, v)
                at.append(i)
    except ValueError as exc:
        fault = (i, str(exc))
    pairs = np.array(ends, dtype=np.int64).reshape(-1, 2)
    ids, index = np.unique(pairs, return_inverse=True)
    line, n = declared or (None, ids.size)
    try:
        if ids.size == 0 or ids[-1] < n:
            # ids are node indices; any not named are isolated nodes
            g = Graph(n, np.column_stack((pairs, weights)))
        else:
            g = Graph(ids.size, np.column_stack((index.reshape(-1, 2), weights)),
                      labels=ids.tolist())
    except EdgeError as exc:
        fault = (at[exc.row], str(exc))
    if fault is None and g.n != n:
        fault = (line, f"{n} nodes declared, but the {ids.size} distinct ids "
                       f"are not all below {n}")
    if fault is not None:
        raise ValueError(f"line {fault[0] + 1}: {fault[1]} in {lines[fault[0]]!r}")
    return g


def write_edge_list(g: Graph, header_comments: Sequence[str] = ()) -> str:
    """Serialise a Graph to edge-list text.

    Edges are written in ascending (u, v) order with u < v, one per line,
    tab-separated, weights with at least nine significant digits. A
    ``# nodes N`` comment always leads so the node count survives the round
    trip even for graphs with isolated nodes or no edges at all.
    ``parse_edge_list(write_edge_list(g))`` reproduces ``g``, so a labelled
    graph that the parser cannot make raises ``ValueError``: one with an
    isolated node, whose label no line would name, or with labels that do
    not ascend from 0 or more, as they would read back in another order.
    """
    lab = g.labels
    if lab and (g.degrees == 0).any():
        raise ValueError(f"node labelled {lab[int(np.argmin(g.degrees))]} has "
                         "no link, so an edge list cannot carry its label")
    if lab and (sorted(set(lab)) != list(lab) or lab[0] < 0):
        raise ValueError("labels must ascend from 0 or more")
    out = [f"# nodes {g.n}"]
    for comment in header_comments:
        out.append(f"# {comment}")
    for u, v, w in g.edges:
        a, b = (u, v) if lab is None else (lab[u], lab[v])
        out.append(f"{a}\t{b}\t{_format_weight(w)}")
    return "\n".join(out) + "\n"


def load_edge_list(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh)


def save_edge_list(g: Graph, path, header_comments: Sequence[str] = ()) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(write_edge_list(g, header_comments))


def write_partition(p: Partition, labels: Sequence[int] | None = None) -> str:
    """Serialise a Partition as one ``node<TAB>community`` pair per line."""
    ids = range(p.n) if labels is None else labels
    return "".join(f"{a}\t{c}\n" for a, c in zip(ids, p.membership.tolist()))


def parse_partition(text: str | IO[str]) -> Partition:
    """Parse a ``node<TAB>community`` file back into a Partition.

    Node ids must cover 0..N-1 exactly once; community ids are renumbered
    densely in order of first appearance.
    """
    pairs: dict[int, int] = {}
    for lineno, raw in enumerate(_lines(text), start=1):
        parts = raw.split()
        if not parts or parts[0][0] == "#":
            continue
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'node community'")
        try:
            v, c = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: malformed pair {raw!r}")
        if v in pairs:
            raise ValueError(f"line {lineno}: node {v} assigned twice")
        pairs[v] = c
    if not pairs:
        raise ValueError("empty partition file")
    n = len(pairs)
    if sorted(pairs) != list(range(n)):
        raise ValueError("partition node ids must be dense in [0, N)")
    return Partition.from_labels([pairs[v] for v in range(n)])


def save_partition(p: Partition, path, labels: Sequence[int] | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(write_partition(p, labels))


def load_partition(path) -> Partition:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_partition(fh)
