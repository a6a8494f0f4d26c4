"""Tests for cycle-anomaly classification and search."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PROCESS, REALTIME, RW, TIMESTAMP, WR, WW, classify_cycle
from repro.core.cycle_search import _SPECS, find_cycle_anomalies
from repro.graph import EdgeLogGraph
from tests.graph_reference import add_edges


def graph_of(*edges):
    g = EdgeLogGraph()
    add_edges(g, edges)
    return g


ALL = WW | WR | RW | PROCESS | REALTIME


class TestClassify:
    def test_all_ww_is_g0(self):
        g = graph_of((1, 2, WW), (2, 1, WW))
        name, steps = classify_cycle(g, [1, 2, 1], ALL)
        assert name == "G0"
        assert steps == ((1, 2, WW), (2, 1, WW))

    def test_ww_wr_is_g1c(self):
        g = graph_of((1, 2, WW), (2, 1, WR))
        name, _ = classify_cycle(g, [1, 2, 1], ALL)
        assert name == "G1c"

    def test_one_rw_is_g_single(self):
        g = graph_of((1, 2, RW), (2, 1, WR))
        name, _ = classify_cycle(g, [1, 2, 1], ALL)
        assert name == "G-single"

    def test_two_rw_is_g2(self):
        g = graph_of((1, 2, RW), (2, 1, RW))
        name, _ = classify_cycle(g, [1, 2, 1], ALL)
        assert name == "G2-item"

    def test_severe_bits_preferred(self):
        # Edge with both ww and rw counts as ww: the cycle is a G0.
        g = graph_of((1, 2, WW | RW), (2, 1, WW))
        name, _ = classify_cycle(g, [1, 2, 1], ALL)
        assert name == "G0"

    def test_process_suffix(self):
        g = graph_of((1, 2, WW), (2, 1, PROCESS))
        name, _ = classify_cycle(g, [1, 2, 1], ALL)
        assert name == "G0-process"

    def test_realtime_suffix_beats_process(self):
        g = graph_of((1, 2, REALTIME), (2, 3, PROCESS), (3, 1, RW))
        name, _ = classify_cycle(g, [1, 2, 3, 1], ALL)
        assert name == "G-single-realtime"

    def test_mask_restricts_choices(self):
        g = graph_of((1, 2, WW | RW), (2, 1, RW))
        # Under a mask without WW, the first edge must use rw: two rw = G2.
        name, _ = classify_cycle(g, [1, 2, 1], RW | WR)
        assert name == "G2-item"


class TestFindCycleAnomalies:
    def names(self, g):
        return sorted({a.name for a in find_cycle_anomalies(g)})

    def test_acyclic_graph_clean(self):
        g = graph_of((1, 2, WW), (2, 3, WR), (3, 4, RW))
        assert find_cycle_anomalies(g) == []

    def test_g0(self):
        g = graph_of((1, 2, WW), (2, 1, WW))
        assert self.names(g) == ["G0"]

    def test_g1c(self):
        g = graph_of((1, 2, WW), (2, 1, WR))
        assert self.names(g) == ["G1c"]

    def test_g_single(self):
        g = graph_of((1, 2, RW), (2, 1, WR))
        assert self.names(g) == ["G-single"]

    def test_g2_item(self):
        g = graph_of((1, 2, RW), (2, 1, RW))
        assert self.names(g) == ["G2-item"]

    def test_g_single_preferred_over_g2_when_one_rw_suffices(self):
        # Cycle 1->2 (rw), 2->1 (ww): only one rw needed.
        g = graph_of((1, 2, RW), (2, 1, WW))
        names = self.names(g)
        assert "G-single" in names
        assert "G2-item" not in names

    def test_process_cycle(self):
        g = graph_of((1, 2, WW), (2, 1, PROCESS))
        assert self.names(g) == ["G0-process"]

    def test_realtime_cycle(self):
        g = graph_of((1, 2, RW), (2, 1, REALTIME))
        assert self.names(g) == ["G-single-realtime"]

    def test_value_cycle_preferred_over_order_cycle(self):
        # The ww cycle exists on its own; the realtime edge adds nothing.
        g = graph_of((1, 2, WW), (2, 1, WW | REALTIME))
        names = self.names(g)
        assert names == ["G0"]

    def test_multiple_components_reported(self):
        g = graph_of(
            (1, 2, WW), (2, 1, WW),
            (3, 4, RW), (4, 3, WR),
        )
        assert self.names(g) == ["G-single", "G0"]

    def test_steps_follow_cycle(self):
        g = graph_of((1, 2, RW), (2, 1, WR))
        (anomaly,) = find_cycle_anomalies(g)
        assert anomaly.txns[0] == anomaly.txns[-1]
        for (u, v, bit) in anomaly.steps:
            assert g.has_edge(u, v, bit)

    def test_deduplication_across_passes(self):
        # One cycle visible to many passes should be reported once.
        g = graph_of((1, 2, WW), (2, 1, WW))
        assert len(find_cycle_anomalies(g)) == 1

    def test_g1c_and_g_single_in_same_component(self):
        # 1->2 ww, 2->1 wr (G1c); 1->3 rw, 3->1 wr (G-single), all one SCC.
        g = graph_of(
            (1, 2, WW), (2, 1, WR),
            (1, 3, RW), (3, 1, WR),
        )
        names = self.names(g)
        assert "G1c" in names
        assert "G-single" in names


# ----------------------------------------------------------------------
# Witness validity, checked on each witness alone (no second search path).

_BITS = WW | WR | RW | PROCESS | REALTIME | TIMESTAMP
#: The two roots of the search: every cycle a spec can see lies under one.
_ROOTS = (WW | WR | RW | PROCESS | REALTIME, WW | WR | RW | TIMESTAMP)


@st.composite
def labeled_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=1, max_value=_BITS),
            ),
            max_size=30,
        )
    )
    return graph_of(*edges)


@given(labeled_graphs())
@settings(max_examples=300, deadline=None)
def test_every_witness_is_a_valid_simple_cycle(g):
    anomalies = find_cycle_anomalies(g)
    signatures = set()
    for anomaly in anomalies:
        cycle = anomaly.txns
        interior = cycle[:-1]
        assert len(cycle) >= 2 and cycle[0] == cycle[-1]
        assert len(set(interior)) == len(interior), "not a simple cycle"
        steps = anomaly.steps
        assert [(u, v) for u, v, _bit in steps] == list(zip(cycle, cycle[1:]))
        bits = 0
        for u, v, bit in steps:
            assert bin(bit).count("1") == 1
            assert g.edge_label(u, v) & bit, f"{u}->{v} lacks bit {bit}"
            bits |= bit
        assert any(bits & spec.mask == bits for spec in _SPECS)
        # The name is a function of the chosen bits alone.
        own = graph_of(*steps)
        assert classify_cycle(own, cycle, _BITS) == (anomaly.name, steps)
        assert anomaly.message.startswith(f"{anomaly.name} cycle over ")
        rotation = interior.index(min(interior))
        signature = interior[rotation:] + interior[:rotation]
        assert signature not in signatures, "duplicate witness"
        signatures.add(signature)
    csr = g.freeze()
    cyclic = any(csr.cyclic_scc_idx(root) for root in _ROOTS)
    assert bool(anomalies) == cyclic
