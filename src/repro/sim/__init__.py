"""Discrete-event and fluid simulation of the evaluation testbed.

The paper's testbed is three Xeon servers and a Tofino switch on 100 Gbps
links.  This package models it:

* :mod:`repro.sim.costs` — the calibrated cost model (CPU cycles per IR
  instruction, per-packet DPDK overhead, link/switch/endhost latencies),
* :mod:`repro.sim.events` — a discrete-event engine (the outage timeline's),
* :mod:`repro.sim.latency` — packet-level latency composition for the
  Nptcp-style measurements (Table 2),
* :mod:`repro.sim.capacity` — sustainable-throughput analysis from
  measured per-packet costs (Figure 7),
* :mod:`repro.sim.fluid` — processor-sharing flow simulation for the
  CONGA workloads (Figures 8 and 9).
"""

from repro.sim.events import EventQueue, SimulationError, Simulator
from repro.sim.latency import LatencyModel, LatencySample
from repro.sim.capacity import CapacityModel, ThroughputEstimate
from repro.sim.fluid import FluidFlowSimulator, FlowRecord

__all__ = [
    "EventQueue",
    "SimulationError",
    "Simulator",
    "LatencyModel",
    "LatencySample",
    "CapacityModel",
    "ThroughputEstimate",
    "FluidFlowSimulator",
    "FlowRecord",
]
