"""One description of a deployment flavour: which role is non-default.

Roles are stateful, so a harness that deploys one flavour several times
(the DUT, its reference, a traced re-run) passes a
:class:`DeploymentSpec` — three plain values — and asks it for fresh
roles at each deployment.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Optional

from repro.corpus_format import fields_from
from repro.runtime.cache import BoundedCache
from repro.runtime.failover import ActiveStandby
from repro.runtime.pool import ServerPool, default_member_names


@dataclass(frozen=True)
class DeploymentSpec:
    #: bounded-cache switch state policy of this many entries per table
    #: (``None``: full replication)
    cache_entries: Optional[int] = None
    #: active-standby switch pair with this crash detector, ``"phi"``
    #: (``None``: single switch)
    standby_detection: Optional[str] = None
    #: punt into a server pool of this many members (0: single server)
    pool_servers: int = 0

    @classmethod
    def from_flags(
        cls,
        cached: bool = False,
        cache_entries: int = 2,
        failover: bool = False,
        servers: Optional[int] = None,
    ) -> "DeploymentSpec":
        """From the CLI's flags."""
        if servers is not None:
            # A bad pool size fails here, before any scenario runs.
            default_member_names(servers)
        return cls(
            cache_entries if cached else None,
            "phi" if failover else None,
            servers or 0,
        )

    def roles(self) -> Dict[str, Any]:
        """Fresh role objects, as ``GalliumMiddlebox`` keywords."""
        return {
            "state_policy": (
                BoundedCache(self.cache_entries)
                if self.cache_entries is not None else None
            ),
            "redundancy": (
                ActiveStandby()
                if self.standby_detection is not None else None
            ),
            "punt_target": (
                ServerPool(self.pool_servers) if self.pool_servers else None
            ),
        }

    def cli_flags(self) -> str:
        """The flags selecting this flavour, each after a space."""
        flags = ""
        if self.cache_entries is not None:
            flags += f" --cached --cache-entries {self.cache_entries}"
        if self.standby_detection is not None:
            flags += " --failover"
        if self.pool_servers:
            flags += f" --servers {self.pool_servers}"
        return flags

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "DeploymentSpec":
        return cls(**fields_from(data, cls, "deployment"))
