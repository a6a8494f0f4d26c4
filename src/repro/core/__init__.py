"""The Elle checker core: inference, anomalies, cycles, and verdicts."""

from . import anomalies, consistency
from .analysis import Analysis, Evidence
from .anomalies import Anomaly, CycleAnomaly, sort_anomalies
from .checker import CheckResult, analyze, check, finish_analysis
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
from .explain import cycle_dot, explain_edge, render_cycle
from .incremental import StreamingChecker, StreamUpdate, check_stream
from .keyspace import (
    KeyspacePlan,
    ReadCheckStyle,
    check_recoverable_read,
    execute_plan,
    register_plan,
)
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
from .orders import (
    add_orders,
    add_process_edges,
    add_realtime_edges,
    add_timestamp_edges,
)
from .profiling import Profile
from .validate import validate_workload

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
    "add_orders",
    "add_process_edges",
    "add_realtime_edges",
    "add_timestamp_edges",
    "analyze",
    "anomalies",
    "check",
    "check_stream",
    "check_recoverable_read",
    "classify_cycle",
    "execute_plan",
    "consistency",
    "cycle_dot",
    "dep_bit",
    "dep_name",
    "explain_edge",
    "find_cycle_anomalies",
    "finish_analysis",
    "is_prefix",
    "label_names",
    "longest_common_prefix",
    "model_for",
    "register_plan",
    "render_cycle",
    "sort_anomalies",
    "trace",
    "validate_workload",
]
