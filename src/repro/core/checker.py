"""The top-level checker: observation in, verdict and counterexamples out.

:func:`check` runs the workload's analysis plan, searches the inferred
serialization graph for cycle anomalies, attaches Figure-2-style
explanations to each cycle, and interprets the findings against a requested
consistency model.

Typical use::

    from repro import check
    result = check(history, workload="list-append",
                   consistency_model="serializable")
    if not result.valid:
        print(result.report())
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..history import History
from . import counter_set, list_append, rw_register  # noqa: F401 (register plans)
from .analysis import Analysis
from .anomalies import Anomaly, CycleAnomaly, sort_anomalies
from .consistency import (
    SERIALIZABLE,
    anomalies_forbidden_by,
    impossible_models,
    strongest_satisfiable,
    weakest_violated,
    _validate as _validate_model,
)
from .cycle_search import find_cycle_anomalies
from .explain import render_cycle
from .gcpause import paused_gc
from .keyspace import PLANS
from .orders import add_orders
from .profiling import Profile
from .profiling import stage as _stage


@dataclass(frozen=True)
class CheckResult:
    """The checker's verdict on one observation.

    ``valid`` answers: is the observation consistent with the requested
    model?  ``anomalies`` holds every witnessed anomaly (cycles carry full
    textual explanations).  ``impossible`` is every model the anomalies rule
    out; ``not_`` the weakest of those (the most informative claims); and
    ``but_possibly`` the strongest models the observation still permits.
    """

    valid: bool
    consistency_model: str
    anomalies: Tuple[Anomaly, ...]
    anomaly_types: Tuple[str, ...]
    impossible: FrozenSet[str]
    not_: FrozenSet[str]
    but_possibly: FrozenSet[str]
    analysis: Analysis = field(repr=False)

    def anomalies_of(self, name: str) -> List[Anomaly]:
        return [a for a in self.anomalies if a.name == name]

    def anomaly_counts(self) -> Dict[str, int]:
        """Occurrences per anomaly type, in taxonomy order."""
        counts: Dict[str, int] = {}
        for anomaly in self.anomalies:
            counts[anomaly.name] = counts.get(anomaly.name, 0) + 1
        return counts

    def dot(self) -> str:
        """The full inferred serialization graph as Graphviz DOT text.

        Figure 3 at scale: every transaction, every dependency edge, labeled
        with its kinds.  Feed to ``dot -Tsvg`` for the picture.
        """
        from ..graph import graph_to_dot
        from .deps import DEP_NAMES

        return graph_to_dot(
            self.analysis.graph,
            DEP_NAMES,
            node_label=lambda t: f"T{t}",
            name="idsg",
        )

    def report(self) -> str:
        """A human-readable summary with every counterexample."""
        lines = []
        verdict = "VALID" if self.valid else "INVALID"
        lines.append(
            f"{verdict} under {self.consistency_model} "
            f"({len(self.anomalies)} anomalies)"
        )
        if self.anomaly_types:
            lines.append(f"Anomaly types: {', '.join(self.anomaly_types)}")
        if self.not_:
            lines.append(f"Not: {', '.join(sorted(self.not_))}")
        if self.but_possibly and self.impossible:
            lines.append(
                f"But possibly: {', '.join(sorted(self.but_possibly))}"
            )
        for anomaly in self.anomalies:
            lines.append("")
            lines.append(str(anomaly))
        return "\n".join(lines)


def analyze(
    history: History,
    workload: str = "list-append",
    process_edges: bool = True,
    realtime_edges: bool = True,
    timestamp_edges: bool = False,
    profile: Optional[Profile] = None,
    **options,
) -> Analysis:
    """Run dependency inference only (no cycle search, no verdict).

    The one way into analysis, for every workload: index the history,
    build the workload's :class:`~repro.core.keyspace.KeyspacePlan` from
    :data:`~repro.core.keyspace.PLANS` (extra ``options``, e.g.
    ``sources`` for rw-register, go to the plan, which also validates the
    observation), merge its columnar pass over every key
    (:meth:`~repro.core.keyspace.KeyspacePlan.analyze_index`), then add
    the §5.1 order edges.  ``profile`` collects the per-stage timings.
    """
    try:
        plan_class = PLANS[workload]
    except KeyError:
        raise ValueError(
            f"unknown workload {workload!r}; known: {sorted(PLANS)}"
        ) from None
    analysis = Analysis(history=history, workload=workload)
    with _stage(profile, "analyze/index"):
        history.index(profile=profile)
    with _stage(profile, "analyze/plan"):
        plan = plan_class(history, **options)
    if profile is not None:
        profile.count("keyspace.keys", len(plan.keys()))
    plan.analyze_index(analysis, profile)
    with _stage(profile, "analyze/orders"):
        add_orders(analysis, process_edges, realtime_edges, timestamp_edges)
    return analysis


def check(
    history: History,
    workload: str = "list-append",
    consistency_model: str = SERIALIZABLE,
    process_edges: bool = True,
    realtime_edges: bool = True,
    shards: int = 1,
    profile: Optional[Profile] = None,
    **options,
) -> CheckResult:
    """Check an observation against a consistency model.

    Runs :func:`analyze` (the one analysis pipeline: plan, execution,
    order edges), then :func:`finish_analysis` (cycle search, explanations,
    verdict).  ``workload`` selects the keyspace plan (``list-append``,
    ``rw-register``, ``grow-set``, ``counter``).  ``process_edges`` /
    ``realtime_edges`` control the §5.1 order inference; disable
    ``realtime_edges`` when the database makes no real-time claims.
    ``shards`` is accepted and ignored: analysis runs in one process,
    and the keyword stays only until the benchmark harness stops passing
    it.  ``profile``, when given, collects
    per-stage timings and SCC counters (see :mod:`repro.core.profiling`;
    ``python -m repro --profile`` prints them).  Extra keyword options
    pass through to :func:`analyze` (``timestamp_edges``) or to the plan
    (e.g. ``sources`` for rw-register).
    """
    _validate_model(consistency_model)
    with paused_gc():
        with _stage(profile, "analyze"):
            analysis = analyze(
                history,
                workload=workload,
                process_edges=process_edges,
                realtime_edges=realtime_edges,
                profile=profile,
                **options,
            )
        return finish_analysis(analysis, consistency_model, profile=profile)


def finish_analysis(
    analysis: Analysis,
    consistency_model: str,
    profile: Optional[Profile] = None,
) -> CheckResult:
    """Turn a completed analysis into a verdict: the checker's back half.

    Freezes the inferred graph, runs the cycle search, renders Figure-2
    explanations (:func:`explained_cycles`), and interprets every anomaly
    against the requested model (:func:`verdict`).  The streaming checker
    (:mod:`repro.core.incremental`) runs the same two steps on its live
    window and splices its settled prefix in between.
    """
    cycles = explained_cycles(analysis, profile)
    return verdict(
        sort_anomalies(list(analysis.anomalies) + cycles),
        consistency_model,
        analysis,
    )


def explained_cycles(
    analysis: Analysis, profile: Optional[Profile] = None
) -> List[CycleAnomaly]:
    """Every cycle anomaly of ``analysis.graph``, each with its explanation."""
    stage = lambda name: _stage(profile, name)  # noqa: E731
    with stage("freeze"):
        csr = analysis.graph.freeze()
    if profile is not None:
        profile.count("graph.nodes", csr.node_count)
        profile.count("graph.edges", csr.edge_count)
    with stage("cycle-search"):
        cycles = find_cycle_anomalies(analysis.graph, profile=profile)
    with stage("explain"):
        return [
            CycleAnomaly(
                name=c.name,
                txns=c.txns,
                message=c.message + "\n" + render_cycle(analysis, c),
                steps=c.steps,
            )
            for c in cycles
        ]


def verdict(
    anomalies: Sequence[Anomaly], consistency_model: str, analysis: Analysis
) -> CheckResult:
    """The :class:`CheckResult` for anomalies already in canonical order."""
    types = tuple(sorted({a.name for a in anomalies}))
    impossible = impossible_models(types)
    forbidden = anomalies_forbidden_by(consistency_model)
    valid = consistency_model not in impossible and not (
        set(types) & forbidden
    )
    return CheckResult(
        valid=valid,
        consistency_model=consistency_model,
        anomalies=tuple(anomalies),
        anomaly_types=types,
        impossible=impossible,
        not_=weakest_violated(types),
        but_possibly=strongest_satisfiable(types),
        analysis=analysis,
    )
