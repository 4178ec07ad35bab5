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
from graphlib import CycleError, TopologicalSorter
from typing import Hashable, NamedTuple

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
        if any(u == v for u, v, _ in edges):
            raise ValueError("self-loops are not allowed")
        successors, predecessors = _adjacency((u, v) for u, v, _ in edges)
        try:
            TopologicalSorter(predecessors).prepare()
        except CycleError:
            raise ValueError("network contains a cycle") from None
        # Acyclic: walking back from a node with a transition in ends at the
        # source, walking on from one with a transition out at the sink.
        stranded = {n for n in {self.source, self.sink, *successors}
                    if (n != self.source and not predecessors.get(n))
                    or (n != self.sink and not successors.get(n))}
        if stranded:
            raise ValueError(f"nodes off every source-sink path: {stranded!r}")


def _adjacency(pairs) -> tuple[dict[Node, list[Node]], dict[Node, list[Node]]]:
    """Successors and predecessors of every node of the (tail, head) pairs."""
    successors: dict[Node, list[Node]] = {}
    predecessors: dict[Node, list[Node]] = {}
    for u, v in pairs:
        successors.setdefault(u, []).append(v)
        predecessors.setdefault(v, []).append(u)
        successors.setdefault(v, [])
        predecessors.setdefault(u, [])
    return successors, predecessors


def single_edge(amplitude: complex) -> AmplitudeNetwork:
    """One direct transition from source 0 to sink 1."""
    return AmplitudeNetwork(((0, 1, complex(amplitude)),), 0, 1)


#: A network's fields before its check.
_Parts = NamedTuple("_Parts", [("edges", tuple), ("source", Node), ("sink", Node)])


def _joined(first, second, series: bool) -> _Parts:
    """Unchecked parts of two networks (or parts) joined in series, the
    second's source renamed to the first's sink, or in parallel, both of
    the second's ends renamed to the first's.  Every other node n becomes
    (0, n) in the first and (1, n) in the second."""
    source, joint = (0, first.source), (0, first.sink)
    sink = (1, second.sink) if series else joint
    ends = {second.source: joint if series else source, second.sink: sink}
    return _Parts(tuple(((0, u), (0, v), a) for u, v, a in first.edges) + tuple(
        (ends.get(u, (1, u)), ends.get(v, (1, v)), a) for u, v, a in second.edges
    ), source, sink)


def series_network(first: AmplitudeNetwork, second: AmplitudeNetwork) -> AmplitudeNetwork:
    """Concatenate two networks: the first's sink becomes the second's source."""
    return AmplitudeNetwork(*_joined(first, second, series=True))


def parallel_network(first: AmplitudeNetwork, second: AmplitudeNetwork) -> AmplitudeNetwork:
    """Merge two networks side by side, identifying sources and sinks."""
    return AmplitudeNetwork(*_joined(first, second, series=False))


def compose_amplitudes(network: AmplitudeNetwork) -> complex:
    """Total source-to-sink amplitude by series/parallel reduction.

    Parallel transitions add, successive transitions multiply.  The result
    does not depend on the order in which reductions are applied; a
    network admitting no further move while more than one edge remains
    raises NotSeriesParallel.
    """
    ends = (network.source, network.sink)
    # Parallel transitions add as they are inserted: one entry per (tail, head).
    edges: dict[tuple[Node, Node], complex] = {}
    for u, v, a in network.edges:
        edges[u, v] = edges.get((u, v), 0j) + a
    successors, predecessors = _adjacency(edges)
    while len(edges) > 1:
        node = next((n for n, out in successors.items() if n not in ends
                     and len(out) == 1 and len(predecessors[n]) == 1), None)
        if node is None:
            raise NotSeriesParallel(
                "no series or parallel move applies; the network is not series-parallel"
            )
        (u,), (v,) = predecessors.pop(node), successors.pop(node)
        successors[u].remove(node)
        predecessors[v].remove(node)
        amplitude = edges.pop((u, node)) * edges.pop((node, v))
        if (u, v) not in edges:  # else the fold adds to a parallel transition
            successors[u].append(v)
            predecessors[v].append(u)
        edges[u, v] = edges.get((u, v), 0j) + amplitude
    # Each fold keeps every node on a source-sink path, so a checked
    # network's last edge joins its source to its sink.
    (a,) = edges.values()
    return a


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

    def build(budget: int) -> tuple[_Parts, complex]:
        if budget <= 1 or rng.random() < 0.3:
            amp = _AMPLITUDE_POOL[int(rng.integers(len(_AMPLITUDE_POOL)))]
            return _Parts(((0, 1, amp),), 0, 1), amp
        left_budget = int(rng.integers(1, budget))
        first, a1 = build(left_budget)
        second, a2 = build(budget - left_budget)
        series = rng.random() < 0.5
        return _joined(first, second, series), a1 * a2 if series else a1 + a2

    parts, amplitude = build(int(rng.integers(2, max_edges + 1)))
    return AmplitudeNetwork(*parts), amplitude
