"""Tests for amplitude networks: series/parallel reduction, order
invariance, distributivity, and the conjugate reversal rule.

The independent oracle enumerates all source-to-sink paths and sums
their edge-amplitude products, which must agree with the reduction."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import composed_series_parallel, network_defect, path_sum_amplitude
from qmkit.errors import NotSeriesParallel
from qmkit.saqm import (
    AmplitudeNetwork,
    compose_amplitudes,
    parallel_network,
    random_series_parallel,
    reverse_amplitude,
    series_network,
    shuffled_network,
    single_edge,
)

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
NODES = st.integers(min_value=0, max_value=5)


def bridge_network(s_to_a) -> AmplitudeNetwork:
    """Wheatstone bridge: the middle rung blocks series-parallel moves.

    ``s_to_a`` stands in for the s -> a transition."""
    return AmplitudeNetwork(
        (
            *s_to_a,
            ("s", "b", 1.0),
            ("a", "b", 0.5),
            ("a", "t", 1.0),
            ("b", "t", 1.0),
        ),
        "s",
        "t",
    )


class TestNetworkValidation:
    def test_source_and_sink_must_differ(self):
        with pytest.raises(ValueError, match="differ"):
            AmplitudeNetwork(((0, 1, 1.0),), 0, 0)

    def test_at_least_one_edge(self):
        with pytest.raises(ValueError, match="at least one edge"):
            AmplitudeNetwork((), 0, 1)

    def test_self_loops_are_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            AmplitudeNetwork(((0, 0, 1.0), (0, 1, 1.0)), 0, 1)

    def test_cycles_are_rejected(self):
        edges = ((0, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0), (2, 3, 1.0))
        with pytest.raises(ValueError, match="cycle"):
            AmplitudeNetwork(edges, 0, 3)

    def test_stranded_nodes_are_rejected(self):
        edges = ((0, 1, 1.0), (2, 1, 1.0))
        with pytest.raises(ValueError, match="off every source-sink path"):
            AmplitudeNetwork(edges, 0, 1)

    # Small digraphs, the source and sink possibly touched by no edge: the
    # degree rule must accept exactly what the walk oracle accepts.
    @settings(deadline=None, max_examples=300)
    @given(
        pairs=st.lists(st.tuples(NODES, NODES).filter(lambda e: e[0] != e[1]),
                       min_size=1, max_size=8),
        ends=st.lists(NODES, min_size=2, max_size=2, unique=True),
    )
    def test_validity_matches_the_walk_oracle(self, pairs, ends):
        defect = network_defect(pairs, *ends)
        edges = tuple((u, v, 1.0) for u, v in pairs)
        if defect is None:
            AmplitudeNetwork(edges, *ends)
        else:
            message = "cycle" if defect == "cycle" else "off every source-sink path"
            with pytest.raises(ValueError, match=message):
                AmplitudeNetwork(edges, *ends)


class TestComposeAmplitudes:
    def test_single_edge_passes_through(self):
        assert compose_amplitudes(single_edge(0.25 + 0.5j)) == 0.25 + 0.5j

    def test_parallel_edges_add(self):
        net = parallel_network(single_edge(0.5), single_edge(0.25j))
        assert compose_amplitudes(net) == 0.5 + 0.25j

    def test_series_edges_multiply(self):
        net = series_network(single_edge(0.5), single_edge(1j))
        assert compose_amplitudes(net) == 0.5j

    def test_distributivity_over_a_shared_tail(self):
        a, b, c = 0.5, -0.25j, 1.0 + 0.5j
        net = series_network(
            parallel_network(single_edge(a), single_edge(b)), single_edge(c)
        )
        assert abs(compose_amplitudes(net) - (a * c + b * c)) < 1e-15

    def test_nested_composition_matches_algebra(self):
        inner = parallel_network(single_edge(0.5), single_edge(0.5j))
        net = parallel_network(
            series_network(inner, single_edge(-1.0)), single_edge(0.25)
        )
        expected = (0.5 + 0.5j) * -1.0 + 0.25
        assert compose_amplitudes(net) == expected

    @pytest.mark.parametrize(
        "s_to_a",
        [
            (("s", "a", 1.0),),
            (("s", "x", 1.0), ("x", "a", 1.0)),
            (("s", "a", 0.5), ("s", "a", 0.5)),
        ],
        ids=["bridge", "stuck-after-a-series-fold", "stuck-after-a-parallel-merge"],
    )
    def test_bridge_topology_is_reported(self, s_to_a):
        with pytest.raises(NotSeriesParallel, match="not series-parallel"):
            compose_amplitudes(bridge_network(s_to_a))

    # shuffled_network orders nodes by repr, so these labels decide which
    # shuffles a seeded audit draws.
    @pytest.mark.parametrize(
        "net, edges, ends",
        [
            (
                series_network(single_edge(0.5), single_edge(1j)),
                (((0, 0), (0, 1), 0.5), ((0, 1), (1, 1), 1j)),
                ((0, 0), (1, 1)),
            ),
            (
                parallel_network(single_edge(0.5), single_edge(1j)),
                (((0, 0), (0, 1), 0.5), ((0, 0), (0, 1), 1j)),
                ((0, 0), (0, 1)),
            ),
            (
                parallel_network(
                    single_edge(0.5), series_network(single_edge(1j), single_edge(-1.0))
                ),
                (((0, 0), (0, 1), 0.5), ((0, 0), (1, (0, 1)), 1j), ((1, (0, 1)), (0, 1), -1.0)),
                ((0, 0), (0, 1)),
            ),
        ],
        ids=["series", "parallel", "parallel-with-an-inner-node"],
    )
    def test_composition_labels_nodes_by_operand(self, net, edges, ends):
        assert net.edges == edges
        assert (net.source, net.sink) == ends

    def test_a_random_network_is_checked_once(self, monkeypatch):
        checked = []
        check = AmplitudeNetwork.__post_init__
        monkeypatch.setattr(AmplitudeNetwork, "__post_init__",
                            lambda net: checked.append(net) or check(net))
        for seed in range(20):
            checked.clear()
            net, _ = random_series_parallel(np.random.default_rng(seed), max_edges=50)
            assert len(checked) == 1 and checked[0] is net

    @settings(deadline=None, max_examples=80)
    @given(seed=SEEDS, max_edges=st.integers(min_value=2, max_value=61))
    def test_random_network_matches_the_composed_reference(self, seed, max_edges):
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        net, amplitude = random_series_parallel(rng, max_edges)
        reference, reference_amplitude = composed_series_parallel(reference_rng, max_edges)
        assert (net.edges, net.source, net.sink) == (
            reference.edges, reference.source, reference.sink)
        assert amplitude == reference_amplitude
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    @settings(deadline=None, max_examples=80)
    @given(seed=SEEDS)
    def test_reduction_matches_the_generating_expression(self, seed):
        rng = np.random.default_rng(seed)
        net, expected = random_series_parallel(rng, max_edges=50)
        assert compose_amplitudes(net) == expected

    @settings(deadline=None, max_examples=80)
    @given(seed=SEEDS)
    def test_reduction_matches_the_path_sum_oracle(self, seed):
        rng = np.random.default_rng(seed)
        net, _ = random_series_parallel(rng, max_edges=50)
        assert abs(compose_amplitudes(net) - path_sum_amplitude(net)) < 1e-15

    @settings(deadline=None, max_examples=80)
    @given(seed=SEEDS)
    def test_result_is_independent_of_edge_order_and_labels(self, seed):
        rng = np.random.default_rng(seed)
        net, _ = random_series_parallel(rng, max_edges=50)
        reshuffled = shuffled_network(net, rng)
        assert compose_amplitudes(net) == compose_amplitudes(reshuffled)


class TestReverseAmplitude:
    def test_imaginary_unit_conjugates(self):
        assert reverse_amplitude(1j) == -1j

    def test_real_amplitudes_are_fixed_points(self):
        assert reverse_amplitude(0.75) == 0.75

    def test_round_trip_products_sum_to_one_for_complete_decompositions(self):
        amplitudes = (1.0 / np.sqrt(2.0), 1j / np.sqrt(2.0))
        total = sum(a * reverse_amplitude(a) for a in amplitudes)
        assert abs(total - 1.0) < 1e-15
        assert abs(total.imag) == 0.0
