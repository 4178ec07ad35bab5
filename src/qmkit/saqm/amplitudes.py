"""Amplitude composition over series-parallel transition networks.

Edges of a directed acyclic network carry complex amplitudes.  Parallel
edges between the same endpoints add their amplitudes; a chain through an
internal degree-(1,1) node multiplies them.  Repeatedly applying these two
moves reduces any series-parallel network between its source and sink to
a single amplitude; a network that gets stuck is reported rather than
approximated.  The amplitude of a reversed transition is the complex
conjugate of the forward one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

import numpy as np

from ..errors import NotSeriesParallel

__all__ = [
    "AmplitudeNetwork",
    "compose_amplitudes",
    "parallel_network",
    "random_series_parallel",
    "reverse_amplitude",
    "series_network",
    "single_edge",
    "shuffled_network",
]

Node = Hashable


@dataclass(frozen=True)
class AmplitudeNetwork:
    """Directed acyclic multigraph with complex edge amplitudes.

    Every node must lie on some source-to-sink path; parallel duplicate
    edges are allowed and mean alternative transitions.
    """

    edges: tuple[tuple[Node, Node, complex], ...]
    source: Node
    sink: Node

    def __post_init__(self):
        edges = tuple((u, v, complex(a)) for u, v, a in self.edges)
        object.__setattr__(self, "edges", edges)
        if self.source == self.sink:
            raise ValueError("source and sink must differ")
        if not edges:
            raise ValueError("network needs at least one edge")
        nodes = {self.source, self.sink}
        for u, v, _ in edges:
            if u == v:
                raise ValueError("self-loops are not allowed")
            nodes.update((u, v))
        self._topological_order(nodes)  # raises on cycles
        forward = self._reachable(self.source, lambda u, v: (u, v))
        backward = self._reachable(self.sink, lambda u, v: (v, u))
        stranded = nodes - (forward & backward)
        if stranded:
            raise ValueError(f"nodes off every source-sink path: {stranded!r}")

    def _topological_order(self, nodes) -> list[Node]:
        incoming = {n: 0 for n in nodes}
        outgoing: dict[Node, list[Node]] = {n: [] for n in nodes}
        for u, v, _ in self.edges:
            incoming[v] += 1
            outgoing[u].append(v)
        ready = [n for n, k in incoming.items() if k == 0]
        order = []
        while ready:
            n = ready.pop()
            order.append(n)
            for m in outgoing[n]:
                incoming[m] -= 1
                if incoming[m] == 0:
                    ready.append(m)
        if len(order) != len(nodes):
            raise ValueError("network contains a cycle")
        return order

    def _reachable(self, start: Node, orient) -> set[Node]:
        adjacency: dict[Node, list[Node]] = {}
        for u, v, _ in self.edges:
            a, b = orient(u, v)
            adjacency.setdefault(a, []).append(b)
        seen = {start}
        stack = [start]
        while stack:
            for nxt in adjacency.get(stack.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen


def single_edge(amplitude: complex) -> AmplitudeNetwork:
    """One direct transition from source 0 to sink 1."""
    return AmplitudeNetwork(((0, 1, complex(amplitude)),), 0, 1)


def _relabel(net: AmplitudeNetwork, tag: int):
    """Prefix every node id so two networks never collide."""
    mapping = {}

    def fresh(node: Node) -> Node:
        if node not in mapping:
            mapping[node] = (tag, node)
        return mapping[node]

    edges = tuple((fresh(u), fresh(v), a) for u, v, a in net.edges)
    return edges, fresh(net.source), fresh(net.sink)


def series_network(first: AmplitudeNetwork, second: AmplitudeNetwork) -> AmplitudeNetwork:
    """Concatenate two networks: the first's sink becomes the second's source."""
    e1, s1, t1 = _relabel(first, 0)
    e2, s2, t2 = _relabel(second, 1)
    joined = e1 + tuple(
        (t1 if u == s2 else u, t1 if v == s2 else v, a) for u, v, a in e2
    )
    return AmplitudeNetwork(joined, s1, t2)


def parallel_network(first: AmplitudeNetwork, second: AmplitudeNetwork) -> AmplitudeNetwork:
    """Merge two networks side by side, identifying sources and sinks."""
    e1, s1, t1 = _relabel(first, 0)
    e2, s2, t2 = _relabel(second, 1)

    def rename(node: Node) -> Node:
        if node == s2:
            return s1
        if node == t2:
            return t1
        return node

    joined = e1 + tuple((rename(u), rename(v), a) for u, v, a in e2)
    return AmplitudeNetwork(joined, s1, t1)


def compose_amplitudes(network: AmplitudeNetwork) -> complex:
    """Total source-to-sink amplitude by series/parallel reduction.

    Parallel transitions add, successive transitions multiply.  The result
    does not depend on the order in which reductions are applied; a
    network admitting no further move while more than one edge remains
    raises NotSeriesParallel.
    """
    edges = list(network.edges)
    source, sink = network.source, network.sink
    while True:
        # Merge parallel duplicates first: they may unlock series moves.
        grouped: dict[tuple[Node, Node], complex] = {}
        for u, v, a in edges:
            key = (u, v)
            grouped[key] = grouped.get(key, 0.0 + 0.0j) + a
        merged = [(u, v, a) for (u, v), a in grouped.items()]

        if len(merged) == 1:
            (u, v, a) = merged[0]
            if (u, v) != (source, sink):
                raise NotSeriesParallel("reduced edge does not join source to sink")
            return a

        in_edges: dict[Node, list[int]] = {}
        out_edges: dict[Node, list[int]] = {}
        for idx, (u, v, _) in enumerate(merged):
            out_edges.setdefault(u, []).append(idx)
            in_edges.setdefault(v, []).append(idx)

        collapsed = False
        for node in list(in_edges):
            if node in (source, sink):
                continue
            if len(in_edges.get(node, ())) == 1 and len(out_edges.get(node, ())) == 1:
                i = in_edges[node][0]
                j = out_edges[node][0]
                u, _, a = merged[i]
                _, v, b = merged[j]
                merged[i] = (u, v, a * b)
                merged.pop(j)
                collapsed = True
                break

        if not collapsed and len(merged) == len(edges):
            raise NotSeriesParallel(
                "no series or parallel move applies; the network is not series-parallel"
            )
        edges = merged


def reverse_amplitude(amplitude: complex) -> complex:
    """Amplitude of the endpoint-exchanged transition: the conjugate.

    This is the choice under which round-trip amplitude products yield
    unit total probability for complete intermediate decompositions.
    """
    return complex(amplitude).conjugate()


def shuffled_network(
    network: AmplitudeNetwork, rng: np.random.Generator
) -> AmplitudeNetwork:
    """Same network with edge order permuted and node ids relabeled."""
    nodes = {network.source, network.sink}
    for u, v, _ in network.edges:
        nodes.update((u, v))
    ordered = sorted(nodes, key=repr)
    permuted = [int(x) for x in rng.permutation(len(ordered))]
    mapping = {node: ("n", tag) for node, tag in zip(ordered, permuted)}
    edges = [(mapping[u], mapping[v], a) for u, v, a in network.edges]
    rng.shuffle(edges)
    return AmplitudeNetwork(
        tuple(edges), mapping[network.source], mapping[network.sink]
    )


#: Exactly representable dyadic edge amplitudes of random networks.
_AMPLITUDE_POOL = tuple(complex(a) for a in (1.0, -1.0, 1j, -1j, 0.5, -0.5, 0.5j, -0.5j))


def random_series_parallel(
    rng: np.random.Generator, max_edges: int = 24
) -> tuple[AmplitudeNetwork, complex]:
    """Random series-parallel network plus its algebraic amplitude.

    The expected amplitude comes from the generating expression tree
    (products for series, sums for parallel), which is independent of the
    graph reduction used by compose_amplitudes.  Amplitudes come from a
    pool of exactly representable dyadic values so structural errors are
    never masked by rounding.
    """

    def build(budget: int) -> tuple[AmplitudeNetwork, complex]:
        if budget <= 1 or rng.random() < 0.3:
            amp = _AMPLITUDE_POOL[int(rng.integers(len(_AMPLITUDE_POOL)))]
            return single_edge(amp), amp
        left_budget = int(rng.integers(1, budget))
        first, a1 = build(left_budget)
        second, a2 = build(budget - left_budget)
        if rng.random() < 0.5:
            return series_network(first, second), a1 * a2
        return parallel_network(first, second), a1 + a2

    return build(int(rng.integers(2, max_edges + 1)))
