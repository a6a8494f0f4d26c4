"""Tests for DOT rendering."""

from repro.graph import EdgeLogGraph, cycle_to_dot, graph_to_dot
from tests.graph_reference import add_edges

WW, WR, RW = 1, 2, 4
NAMES = {WW: "ww", WR: "wr", RW: "rw"}


def graph_of(*edges):
    g = EdgeLogGraph()
    add_edges(g, edges)
    return g


def test_graph_to_dot_contains_nodes_and_edges():
    dot = graph_to_dot(graph_of((1, 2, WW), (2, 1, RW)), NAMES)
    assert dot.startswith("digraph deps {")
    assert '"1" -> "2" [label="ww"];' in dot
    assert '"2" -> "1" [label="rw"];' in dot
    assert dot.rstrip().endswith("}")


def test_combined_labels_render_sorted():
    dot = graph_to_dot(graph_of((1, 2, WW | RW)), NAMES)
    assert '[label="ww,rw"]' in dot


def test_mask_filters_rendered_edges():
    dot = graph_to_dot(graph_of((1, 2, WW), (2, 1, WR)), NAMES, mask=WW)
    assert '"1" -> "2"' in dot
    assert '"2" -> "1"' not in dot


def test_unknown_label_bit_rendered_as_hex():
    dot = graph_to_dot(graph_of((1, 2, 8)), NAMES)
    assert "0x8" in dot


def test_custom_node_labels():
    dot = graph_to_dot(graph_of((1, 2, WW)), NAMES, node_label=lambda n: f"T{n}")
    assert '[label="T1"]' in dot
    assert '[label="T2"]' in dot


def test_cycle_to_dot_renders_cycle_edges_only():
    g = graph_of((1, 2, WR), (2, 1, RW), (1, 3, WW))  # 1->3 is off-cycle
    dot = cycle_to_dot(g, [1, 2, 1], NAMES)
    assert '"1" -> "2" [label="wr"];' in dot
    assert '"2" -> "1" [label="rw"];' in dot
    assert '"1" -> "3"' not in dot


def test_quoting_special_characters():
    labels = {1: 'a"b', 2: "c\\d"}
    g = graph_of((1, 2, WW), (2, 1, WW))
    for dot in (
        graph_to_dot(g, NAMES, node_label=labels.get),
        cycle_to_dot(g, [1, 2, 1], NAMES, node_label=labels.get),
    ):
        assert '[label="a\\"b"]' in dot
        assert '[label="c\\\\d"]' in dot
