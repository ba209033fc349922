"""Deployed middlebox runtimes.

* :class:`~repro.runtime.server.ServerRuntime` — the non-offloaded C++/DPDK
  program's stand-in: interprets the non-offloaded partition, journals
  state mutations, and emits the return shim,
* :class:`~repro.runtime.deployment.GalliumMiddlebox` — the switch+server
  pair and the only packet loop: fast path on the switch, punted packets
  through the server, state synchronization with output commit (§4.3.3),
* :class:`~repro.runtime.baseline.FastClickRuntime` — the unpartitioned
  baseline the paper compares against.

A deployment flavour is a choice of three independent roles, passed to
``GalliumMiddlebox(state_policy=, redundancy=, punt_target=)``; every
combination composes:

=================  ==============================================  ===========================================
role               default                                         alternative
=================  ==============================================  ===========================================
switch state       :class:`~repro.runtime.deployment.FullReplication`  :class:`~repro.runtime.cache.BoundedCache`
switch redundancy  :class:`~repro.runtime.deployment.SingleSwitch`     :class:`~repro.runtime.failover.ActiveStandby`
punt target        :class:`~repro.runtime.deployment.SingleServer`     :class:`~repro.runtime.pool.ServerPool`
=================  ==============================================  ===========================================

``CachedGalliumMiddlebox``, ``FailoverDeployment`` and
``PooledDeployment`` are constructor-only shorthands for one
non-default role each; :class:`~repro.runtime.spec.DeploymentSpec` names
a combination as three plain values and builds fresh roles from it.
"""

from repro.runtime.server import ServerRuntime, ServerResult
from repro.runtime.degradation import DegradationPolicy, DropAccounting
from repro.runtime.deployment import GalliumMiddlebox, PacketJourney, compile_middlebox
from repro.runtime.failover import FailoverDeployment
from repro.runtime.baseline import FastClickRuntime, BaselineResult
from repro.runtime.spec import DeploymentSpec

__all__ = [
    "ServerRuntime",
    "ServerResult",
    "DegradationPolicy",
    "DeploymentSpec",
    "DropAccounting",
    "FailoverDeployment",
    "GalliumMiddlebox",
    "PacketJourney",
    "compile_middlebox",
    "FastClickRuntime",
    "BaselineResult",
]
