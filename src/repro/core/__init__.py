"""The Elle checker core: inference, anomalies, cycles, and verdicts."""

from . import anomalies, consistency
from .analysis import Analysis, Evidence
from .anomalies import Anomaly, CycleAnomaly, sort_anomalies
from .checker import (
    CheckResult,
    analyze,
    check,
    finish_analysis,
    register_analyzer,
)
from .cycle_search import classify_cycle, find_cycle_anomalies
from .deps import (
    ALL_DEPS,
    DEP_NAMES,
    ORDER_EDGES,
    PROCESS,
    REALTIME,
    RW,
    TIMESTAMP,
    VALUE_EDGES,
    WR,
    WW,
    dep_bit,
    dep_name,
    label_names,
)
from .counter_set import analyze_counter, analyze_grow_set, build_add_index
from .explain import cycle_dot, explain_edge, render_cycle
from .incremental import StreamingChecker, StreamUpdate, check_stream
from .keyspace import (
    KeyspacePlan,
    ReadCheckStyle,
    check_recoverable_read,
    execute_plan,
    register_plan,
)
from .list_append import analyze_list_append
from .rw_register import analyze_rw_register, build_write_index
from .objects import (
    AppendList,
    Counter,
    GrowSet,
    ObjectModel,
    Register,
    is_prefix,
    longest_common_prefix,
    model_for,
    trace,
)
from .orders import add_process_edges, add_realtime_edges, add_timestamp_edges
from .profiling import Profile
from .validate import validate_workload
from .version_order import KeyOrder, committed_reads_by_key, infer_key_orders

__all__ = [
    "ALL_DEPS",
    "Analysis",
    "Anomaly",
    "AppendList",
    "CheckResult",
    "Counter",
    "CycleAnomaly",
    "DEP_NAMES",
    "Evidence",
    "GrowSet",
    "KeyOrder",
    "KeyspacePlan",
    "ORDER_EDGES",
    "ReadCheckStyle",
    "StreamUpdate",
    "StreamingChecker",
    "ObjectModel",
    "PROCESS",
    "Profile",
    "REALTIME",
    "RW",
    "Register",
    "VALUE_EDGES",
    "WR",
    "WW",
    "TIMESTAMP",
    "add_process_edges",
    "add_realtime_edges",
    "add_timestamp_edges",
    "analyze",
    "analyze_counter",
    "analyze_grow_set",
    "analyze_list_append",
    "analyze_rw_register",
    "anomalies",
    "build_add_index",
    "build_write_index",
    "check",
    "check_stream",
    "check_recoverable_read",
    "classify_cycle",
    "execute_plan",
    "committed_reads_by_key",
    "consistency",
    "cycle_dot",
    "dep_bit",
    "dep_name",
    "explain_edge",
    "find_cycle_anomalies",
    "finish_analysis",
    "infer_key_orders",
    "is_prefix",
    "label_names",
    "longest_common_prefix",
    "model_for",
    "register_analyzer",
    "register_plan",
    "render_cycle",
    "sort_anomalies",
    "trace",
    "validate_workload",
]
