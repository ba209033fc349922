"""Multi-tenant switch: N middleboxes on one shared pipeline.

The production shape the ROADMAP targets is one physical switch fronting
many offloaded services.  This package provides the three layers that
shape needs:

* :mod:`repro.tenancy.allocator` — a first-class
  :class:`~repro.tenancy.allocator.SwitchResourceAllocator` admitting N
  compiled artifacts under one :class:`~repro.tenancy.allocator.\
SharedSwitchBudget` (table slots by each pipeline's stage schedule,
  SRAM carving, PHV arbitration),
  with deterministic admission order and actionable rejection
  diagnostics; the admission report is also the combined artifact's
  lint (:meth:`~repro.tenancy.allocator.AdmissionReport.lint`).
* :mod:`repro.tenancy.deployment` — a
  :class:`~repro.tenancy.deployment.MultiTenantDeployment` installing all
  admitted programs on one simulated pipeline, dispatching packets by
  ingress-port block, keeping each tenant's state its own, and running
  every tenant's control plane as a concurrent submitter on one shared
  FIFO RPC channel.
* :mod:`repro.tenancy.oracle` — the tenant-isolation oracle: each
  tenant's multi-tenant run must be byte-identical (verdicts, egress
  bytes, final register/table state) to its solo deployment.
"""

from repro.tenancy.allocator import (
    AdmissionRejection,
    AdmissionReport,
    DuplicateTenantError,
    SharedSwitchBudget,
    SwitchResourceAllocator,
    TenantPlacement,
    TenantSpec,
    build_tenant_specs,
)

__all__ = [
    "AdmissionRejection",
    "AdmissionReport",
    "DuplicateTenantError",
    "SharedSwitchBudget",
    "SwitchResourceAllocator",
    "TenantPlacement",
    "TenantSpec",
    "build_tenant_specs",
]
