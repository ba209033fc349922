"""Program partitioning (paper §4.2).

Splits the lowered middlebox into pre-processing, non-offloaded, and
post-processing partitions:

* :mod:`repro.partition.labels` — the label-removing algorithm (rules 1–5
  of §4.2.1) over the dependency graph, with refinement pins as bitsets,
* :mod:`repro.partition.constraints` — the switch resource model
  (constraints 1–5 of §4.2.2),
* :mod:`repro.partition.projection` — CFG projection of each partition
  (Figure 4) with punt/fast-path logic,
* :mod:`repro.partition.partitioner` — the driver: the refinement passes
  of §4.2.2 (among them the exhaustive single-access search for
  constraint 3), the global-state placement decisions (table / register /
  replication), and the :class:`~repro.partition.plan.PartitionPlan`.
"""

from repro.partition.labels import LabelAssignment, run_label_removal
from repro.partition.constraints import SwitchResources, ConstraintReport
from repro.partition.plan import (
    Partition,
    PartitionPlan,
    StatePlacement,
    PlacementKind,
)
from repro.partition.partitioner import partition_middlebox, PartitionError
from repro.partition.projection import (
    Boundary,
    ProjectionStatics,
    project_partition,
)

__all__ = [
    "LabelAssignment",
    "run_label_removal",
    "SwitchResources",
    "ConstraintReport",
    "Partition",
    "PartitionPlan",
    "StatePlacement",
    "PlacementKind",
    "partition_middlebox",
    "PartitionError",
    "project_partition",
    "ProjectionStatics",
    "Boundary",
]
