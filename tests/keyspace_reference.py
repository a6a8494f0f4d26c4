"""The per-key driver: a plan analyzed key by key, the passes' reference.

``src/`` analyzes every workload with one columnar pass over a key list
(:class:`~repro.core.keyspace.KeyspacePlan`).  The reference modules keep
the per-key walks those passes replaced; :func:`use_walk` makes a plan
run such a walk for every key, in batch checks and streams alike.  A
batch check then maps the walk over the plan's keys, runs the
internal-consistency sweep, and merges the batches with the stream's
:func:`~repro.core.keyspace._merge`; a stream maps it over a chunk's
stale keys.
"""

from typing import Any, Callable, List, Sequence

from repro.core.keyspace import Batch, KeyspacePlan, _merge


def use_walk(
    patch, plan_class: type, analyze_key: Callable[[KeyspacePlan, Any], Batch]
) -> None:
    """Make ``plan_class`` analyze key by key with ``analyze_key``."""

    def analyze_keys(plan: KeyspacePlan, keys: Sequence[Any]) -> List[Batch]:
        return [analyze_key(plan, key) for key in keys]

    def analyze_index(plan: KeyspacePlan, analysis, profile=None) -> None:
        anomalies = plan.internal_anomalies()
        fragments = []
        for key_anomalies, fragment in analyze_keys(plan, plan.keys()):
            anomalies.extend(key_anomalies)
            if fragment:
                fragments.append(fragment)
        _merge(analysis, anomalies, fragments)

    patch.setattr(plan_class, "analyze_keys", analyze_keys)
    patch.setattr(plan_class, "analyze_index", analyze_index)
