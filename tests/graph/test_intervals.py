"""Tests for the O(n*p) real-time (interval order) transitive reduction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import interval_precedence_pairs


def edges_of(intervals):
    """The reduction's ``(a, b)`` edges over ``(id, invoke, complete)``."""
    ids = [ident for ident, _invoke, _complete in intervals]
    invokes = [invoke for _ident, invoke, _complete in intervals]
    completes = [complete for _ident, _invoke, complete in intervals]
    return set(zip(*interval_precedence_pairs(ids, invokes, completes)))


def full_precedence(intervals):
    """Oracle: the complete (unreduced) precedence relation."""
    out = set()
    for a, ia, ca in intervals:
        for b, ib, cb in intervals:
            if a != b and ca < ib:
                out.add((a, b))
    return out


def transitive_closure(edges):
    closure = set(edges)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(closure):
            for (c, d) in list(closure):
                if b == c and (a, d) not in closure:
                    closure.add((a, d))
                    changed = True
    return closure


def test_sequential_chain():
    intervals = [("a", 0, 1), ("b", 2, 3), ("c", 4, 5)]
    assert edges_of(intervals) == {("a", "b"), ("b", "c")}


def test_concurrent_ops_have_no_edge():
    intervals = [("a", 0, 10), ("b", 1, 2)]
    assert edges_of(intervals) == set()


def test_nested_interval_concurrent():
    intervals = [("a", 0, 100), ("b", 10, 20), ("c", 30, 40)]
    # b precedes c; a concurrent with both.
    assert edges_of(intervals) == {("b", "c")}


def test_two_processes_interleaved():
    # p1: A[0,3] C[6,7];  p2: B[1,2] D[4,5]
    intervals = [("A", 0, 3), ("B", 1, 2), ("C", 6, 7), ("D", 4, 5)]
    edges = edges_of(intervals)
    # B completes before D invokes, D before C; A before D (3<4).
    # A->C is implied transitively via D, so the reduction omits it.
    assert ("B", "D") in edges
    assert ("D", "C") in edges
    assert ("A", "C") not in edges


def test_invalid_interval_raises():
    with pytest.raises(ValueError):
        edges_of([("a", 5, 5)])


@st.composite
def interval_sets(draw):
    n = draw(st.integers(min_value=0, max_value=8))
    intervals = []
    for i in range(n):
        start = draw(st.integers(min_value=0, max_value=30))
        length = draw(st.integers(min_value=1, max_value=10))
        intervals.append((i, start, start + length))
    return intervals


@given(interval_sets())
@settings(max_examples=300, deadline=None)
def test_reduction_closure_equals_full_precedence(intervals):
    reduced = edges_of(intervals)
    full = full_precedence(intervals)
    # Soundness: every reduced edge is a true precedence.
    assert reduced <= full
    # Completeness: the closure of the reduction recovers full precedence.
    assert transitive_closure(reduced) == full


@given(interval_sets())
@settings(max_examples=200, deadline=None)
def test_no_redundant_edges(intervals):
    reduced = edges_of(intervals)
    for edge in reduced:
        rest = reduced - {edge}
        assert edge not in transitive_closure(rest), (
            f"edge {edge} is transitively implied"
        )


def test_tuple_ids_come_back_whole():
    # Hashable ids need not be scalars: tuples must not be unpacked into
    # an integer matrix.
    intervals = [((0, "a"), 0, 1), ((1, "b"), 2, 3), ((2, "c"), 4, 5)]
    assert edges_of(intervals) == {
        ((0, "a"), (1, "b")),
        ((1, "b"), (2, "c")),
    }
    ids = [(0, 1), (2, 3), (4, 5)]
    assert interval_precedence_pairs(ids, [0, 2, 4], [1, 3, 5]) == (
        [(0, 1), (2, 3)],
        [(2, 3), (4, 5)],
    )
