"""Table caching: the paper's §7 "Reducing memory usage" extension.

*"One optimization to reduce memory usage of programmable switches is to
let the programmable switch store only a fraction of any table ... For any
packet that the programmable switch does not know how to handle, the
middlebox server handles it instead. ... We leave it to future work."*

This module implements that future work for the reproduction:

* each replicated table on the switch holds at most ``cache_entries``
  entries, managed FIFO ("cache" in the paper's sense),
* a packet whose lookup misses the cache is punted **as received** — the
  switch clones the pristine packet before the pre pipeline runs
  (bmv2/Tofino clone primitives make this realistic), so the server can
  simply run the *complete* middlebox program on it,
* the server's read log (which authoritative entries the full run
  consulted) drives cache refill, and its write journal keeps the cache
  coherent (updates/deletes of cached keys go through the normal atomic
  write-back path).

Correctness does not depend on the cache contents: a cache hit executes
exactly the pre/post partitions (already proven equivalent), and a cache
miss executes the original program on the original packet.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Tuple

from repro.net.packet import RawPacket
from repro.partition.plan import PartitionPlan
from repro.runtime import state_image
from repro.runtime.deployment import GalliumMiddlebox, Role
from repro.switchsim.control_plane import StateUpdate
from repro.switchsim.program import SwitchProgram, bypass_port
from repro.switchsim.switch_model import SHIM_DIR_KEY, SHIM_KEY
from repro.telemetry.metrics import counter_property


class CacheConfigurationError(ValueError):
    """Raised when a middlebox cannot run in cache mode."""


class CacheStats:
    """Cache effectiveness counters, backed by the metrics registry.

    The legacy integer attributes (``stats.hits += 1`` etc.) remain as
    read/write properties over registry counters named ``cache.<field>``
    so cache metrics appear alongside the rest of the deployment's
    telemetry.
    """

    _FIELDS = ("hits", "misses", "evictions", "refills")

    def __init__(self, metrics=None):
        from repro.telemetry import MetricsRegistry

        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._counters = {
            name: self.metrics.counter(f"cache.{name}")
            for name in self._FIELDS
        }

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


for _name in CacheStats._FIELDS:
    setattr(CacheStats, _name, counter_property(_name))
del _name


class BoundedCache(Role):
    """Switch state policy: replicated map tables are FIFO caches of at
    most ``cache_entries`` entries.

    Only map-kind tables are bounded — they grow with traffic (the
    paper's target).  A replicated vector has a fixed length, so it stays
    fully installed, like the plain switch tables installed at configure
    time.
    """

    def __init__(self, cache_entries: int = 1024):
        self.cache_entries = cache_entries

    def bind(self, box: GalliumMiddlebox) -> None:
        super().bind(box)
        plan = box.plan
        self.bounded_tables = tuple(
            placement.member.name
            for placement in state_image.replicated(plan)
            if placement.member.kind == "map"
        )
        if not self.bounded_tables:
            raise CacheConfigurationError(
                f"{plan.middlebox.name}: no replicated tables to cache"
            )
        # Cache mode reruns the full program on punted packets, so neither
        # switch pipeline may mutate cross-packet state: a register RMW in
        # pre would execute twice on a punt (switch, then server rerun),
        # and one in post would execute zero times (the punt path emits
        # from the server and never traverses post).
        from repro.ir import instructions as irin

        for partition_name, function in (("pre", plan.pre), ("post", plan.post)):
            for inst in function.instructions():
                if isinstance(inst, irin.RegisterRMW):
                    raise CacheConfigurationError(
                        f"{plan.middlebox.name}: {partition_name} partition"
                        f" mutates register {inst.state!r}; cache mode"
                        " requires read-only switch pipelines"
                    )
        #: FIFO insertion order per bounded table (the eviction policy).
        self._fifo: Dict[str, OrderedDict] = {
            name: OrderedDict() for name in self.bounded_tables
        }
        #: the served punt's FIFO moves, held until its batch lands:
        #: ``(table, key) -> cached after it``, in the order the FIFO
        #: takes them (a key moved again goes to the end, as in the FIFO)
        self._moves: Dict[Tuple[str, tuple], bool] = {}
        self.stats = CacheStats(metrics=box.telemetry.metrics)
        box.state.track_reads = True

    # -- bulk resync ---------------------------------------------------------

    def sync(self, switch) -> None:
        """Full install, then bound each cached table to its newest
        authoritative entries and rebuild the FIFO to match."""
        box = self.box
        state_image.to_switch(switch, box.plan, box.state)
        for name in self.bounded_tables:
            newest = dict(
                list(box.state.maps[name].items())[-self.cache_entries:]
            )
            state_image.write(switch, box.plan.placements[name], newest)
            self._fifo[name] = OrderedDict.fromkeys(newest, True)

    def state_recovered(self) -> None:
        """A crash resync recovered only the cached subset; rebuild the
        FIFO from the surviving switch entries in their table order."""
        box = self.box
        for name in self.bounded_tables:
            self._fifo[name] = OrderedDict.fromkeys(
                state_image.read(box.switch, box.plan.placements[name]), True
            )

    # -- the punt decision ---------------------------------------------------

    def _lookup_misses(self) -> int:
        tables = self.box.switch.tables
        return sum(
            tables[name].lookup_count - tables[name].hit_count
            for name in self.bounded_tables
        )

    def ingress(self, packet: RawPacket, ingress_port: int):
        """Run the pre pipeline on the packet, keeping the switch's
        ingress clone.  The packet punts when the pipeline says so *or*
        when any bounded table missed: an answer computed against a
        partial table is not an answer (paper §7).  A punt carries the
        packet as received — the server reruns the complete program."""
        box = self.box
        clone = packet.copy()
        tracer = box._tracer
        mark = tracer.mark() if tracer is not None else 0
        misses = self._lookup_misses()
        first = box.switch.receive(packet, ingress_port)
        if not first.punted:
            if self._lookup_misses() == misses:
                return first, None
            first = box.switch.rebook_as_punt(first)
        else:
            # The speculative pass's to-server shim is not part of the
            # packet as received.
            metadata = packet.metadata
            metadata.pop(SHIM_KEY, None)
            metadata.pop(SHIM_DIR_KEY, None)
        if tracer is not None:
            # The pre pipeline's work is speculative on a miss; its traced
            # effects must not double-count with the server's rerun.
            tracer.rollback_effects(mark)
        packet.adopt(clone)
        return first, packet

    def fast_path_taken(self) -> None:
        self.stats.hits += 1
        if self.box._tracer is not None:
            self.box._tracer.record("cache_hit", component="cache")

    # -- serving a punt ------------------------------------------------------

    def serve(self, runtime, frame: RawPacket):
        """Run the complete program; writes replicate as usual and
        successful reads of bounded tables refill the cache.  The FIFO
        moves the batch implies — its inserts and deletes of cached keys,
        then the refills — are noted, not made: the FIFO follows the
        switch only once the batch lands (:meth:`committed`)."""
        box = self.box
        self.stats.misses += 1
        if box._tracer is not None:
            box._tracer.record("cache_miss", component="cache")
            box._tracer.set_component("server")
        box.state.read_log.clear()
        served = runtime.run_complete(frame)
        fifos = self._fifo
        moves = self._moves = {}
        for op, name, keys, _ in served.updates:
            if name in fifos:
                moves.pop((name, keys), None)
                moves[name, keys] = op == "insert"
        for name, keys, found, value in box.state.read_log:
            if not found or name not in fifos:
                continue
            # A key the batch deletes is not refilled: the run read the
            # entry and then deleted it (e.g. a FIN steering lookup
            # before teardown), and refilling would leave a stale cache
            # entry with no authoritative backing.
            if (name, keys) in moves or keys in fifos[name]:
                continue
            served.updates.append(StateUpdate("insert", name, keys, value))
            moves[name, keys] = True
            self.stats.refills += 1
            if box._tracer is not None:
                box._tracer.record("cache_refill", component="cache",
                                   table=name, key=keys)
        box.state.read_log.clear()
        return served

    def batch_aborted(self) -> None:
        """The update batch never landed, so the FIFO stays as it was."""
        self._moves = {}

    def committed(self, sync_wait_us: float) -> None:
        """Make the landed batch's FIFO moves, then evict the oldest
        entries beyond the cache size.

        Evictions are issued by the switch's *local* control plane — cache
        management, not server→switch write-back RPCs — so no output-commit
        wait is charged, the fault harness's batch faults (which model
        RPC trouble on the write-back path) do not apply, and a warm
        standby never sees them.
        """
        fifos = self._fifo
        for (name, keys), inserted in self._moves.items():
            fifo = fifos[name]
            fifo.pop(keys, None)
            if inserted:
                fifo[keys] = True
        self._moves = {}
        tracer = self.box._tracer
        for name in self.bounded_tables:
            fifo = fifos[name]
            evictions: List[StateUpdate] = []
            while len(fifo) > self.cache_entries:
                keys, _ = fifo.popitem(last=False)
                evictions.append(StateUpdate("delete", name, keys, None))
                self.stats.evictions += 1
                if tracer is not None:
                    tracer.record("cache_evict", component="cache",
                                  table=name, key=keys)
            if evictions:
                control = self.box.switch.control_plane
                hook = control.fault_hook
                control.fault_hook = None
                try:
                    control.apply_batch(evictions)
                finally:
                    control.fault_hook = hook

    def release(self, served):
        """The verdict is emitted from the server; no post pipeline."""
        verdict = served.verdict or "drop"
        if self.box._tracer is not None:
            self.box._tracer.record(
                "verdict", component="server", verdict=verdict,
                port=(served.egress_port or 0) if verdict == "send" else 0,
            )
        emitted: List[Tuple[int, RawPacket]] = []
        if verdict == "send":
            port = served.egress_port or bypass_port(
                served.packet.ingress_port
            )
            emitted = [(port, served.packet)]
        return verdict, emitted, 0


class CachedGalliumMiddlebox(GalliumMiddlebox):
    """A Gallium deployment whose switch tables are bounded caches."""

    def __init__(
        self,
        plan: PartitionPlan,
        program: SwitchProgram,
        cache_entries: int = 1024,
        **kwargs,
    ):
        super().__init__(
            plan, program, state_policy=BoundedCache(cache_entries), **kwargs
        )


def build_cached(name: str, cache_entries: int) -> CachedGalliumMiddlebox:
    """Compile + deploy one middlebox in table-cache mode."""
    from repro.middleboxes import load
    from repro.runtime.deployment import compile_middlebox

    bundle = load(name)
    plan, program = compile_middlebox(bundle.lowered)
    middlebox = CachedGalliumMiddlebox(
        plan, program, cache_entries=cache_entries,
        config=bundle.config,
    )
    middlebox.install()
    return middlebox
