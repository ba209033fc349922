"""Static analyses over the IR (paper §4.1).

* :mod:`repro.analysis.reachability` — block/instruction "can happen after"
  relations, postdominators, cycle detection
* :mod:`repro.analysis.depgraph` — the dependency graph: data, reverse-data
  (anti), control, and output-commit edges, plus its transitive closure
* :mod:`repro.analysis.distance` — dependency-distance metrics used for the
  pipeline-depth constraint (§4.2.2)
"""

from repro.analysis.reachability import ReachabilityInfo, compute_reachability
from repro.analysis.depgraph import (
    DependencyGraph,
    DependencyKind,
    build_dependency_graph,
    dependency_graph,
)
from repro.analysis.distance import dependency_distances

__all__ = [
    "ReachabilityInfo",
    "compute_reachability",
    "DependencyGraph",
    "DependencyKind",
    "build_dependency_graph",
    "dependency_graph",
    "dependency_distances",
]
