"""One packet loop, three composable roles.

Structural guard: the packet path exists once, in ``GalliumMiddlebox``;
the flavour names that survive are constructor-only shorthands.  And the
composition matrix: all eight role combinations run fault-free and are
observably the unpartitioned baseline.
"""

import importlib
import inspect
import itertools
import pkgutil

import pytest

import repro.runtime
from repro.middleboxes import load
from repro.net.addresses import ip
from repro.runtime.baseline import FastClickRuntime
from repro.runtime.cache import BoundedCache, CachedGalliumMiddlebox
from repro.runtime.deployment import GalliumMiddlebox
from repro.runtime.failover import ActiveStandby, FailoverDeployment
from repro.runtime.pool import PooledDeployment, ServerPool
from tests.runtime.golden_pins import churn_stream, compiled

LOOP_METHODS = (
    "process_packet", "complete_punt", "_process_with_faults",
    "_advance_windows",
)


def runtime_classes():
    for info in pkgutil.iter_modules(repro.runtime.__path__):
        module = importlib.import_module(f"repro.runtime.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__:
                yield cls


class TestStructure:
    def test_the_loop_is_defined_once(self):
        owners = {
            (cls.__name__, method)
            for cls in runtime_classes()
            for method in LOOP_METHODS
            if method in vars(cls)
        }
        assert owners == {
            ("GalliumMiddlebox", method) for method in LOOP_METHODS
        } | {("FastClickRuntime", "process_packet")}

    @pytest.mark.parametrize("shorthand", [
        CachedGalliumMiddlebox, FailoverDeployment, PooledDeployment,
    ])
    def test_kept_flavour_names_are_constructor_only(self, shorthand):
        assert shorthand.__bases__ == (GalliumMiddlebox,)
        defined = {
            name for name in vars(shorthand)
            if name not in ("__module__", "__doc__", "__qualname__")
        }
        assert defined == {"__init__"}

    def test_no_class_has_two_deployment_bases(self):
        for cls in runtime_classes():
            deployments = [
                base for base in cls.__bases__
                if issubclass(base, GalliumMiddlebox)
            ]
            assert len(deployments) <= 1, cls

    def test_the_diamond_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.runtime.cached_failover")


# -- composition matrix ---------------------------------------------------------

PACKETS = 600
STATE_POLICIES = {"full": lambda: None, "bounded": lambda: BoundedCache(8)}
REDUNDANCIES = {"single": lambda: None, "standby": lambda: ActiveStandby()}
PUNT_TARGETS = {"server": lambda: None, "pool": lambda: ServerPool(3)}
COMBINATIONS = list(itertools.product(
    STATE_POLICIES, REDUNDANCIES, PUNT_TARGETS
))


def seed_backends(runtime, name):
    if name == "minilb":
        runtime.state.vectors["backends"] = [
            int(ip("10.0.1.1")), int(ip("10.0.1.2")),
        ]


def deploy(name, state_policy="full", redundancy="single",
           punt_target="server"):
    plan, program = compiled(name)
    box = GalliumMiddlebox(
        plan, program, config=load(name).config, seed=7, fast_path=True,
        state_policy=STATE_POLICIES[state_policy](),
        redundancy=REDUNDANCIES[redundancy](),
        punt_target=PUNT_TARGETS[punt_target](),
    )
    box.install()
    seed_backends(box, name)
    box.sync_all_state()
    return box


def run(box, name):
    """Per packet: what left the box, and the whole journey."""
    observed, journeys = [], []
    for packet, port in churn_stream(name)[:PACKETS]:
        journey = box.process_packet(packet.copy(), port)
        egress, frame = journey.emitted[0] if journey.emitted else (0, None)
        out = (journey.verdict, egress, frame.pack() if frame else b"")
        observed.append(out)
        journeys.append(out + (
            journey.fast_path, journey.punted, journey.pre_instructions,
            journey.server_instructions, journey.post_instructions,
            journey.sync_wait_us, journey.sync_tables,
        ))
    return observed, journeys


@pytest.fixture(scope="module", params=["minilb", "lb"])
def references(request):
    name = request.param
    bundle = load(name)
    baseline = FastClickRuntime(
        bundle.lowered, config=bundle.config, fast_path=True
    )
    baseline.install()
    seed_backends(baseline, name)
    observed = []
    for packet, port in churn_stream(name)[:PACKETS]:
        clone = packet.copy()
        result = baseline.process_packet(clone, port)
        sent = result.verdict == "send"
        observed.append((
            result.verdict, (result.egress_port or 2) if sent else 0,
            clone.pack() if sent else b"",
        ))
    base = deploy(name)
    return name, observed, baseline.state.snapshot(), run(base, name)[1]


@pytest.mark.parametrize(
    "state_policy,redundancy,punt_target", COMBINATIONS,
    ids=["+".join(combo) for combo in COMBINATIONS],
)
def test_every_role_combination_is_the_baseline(
    references, state_policy, redundancy, punt_target
):
    name, baseline_observed, baseline_state, base_journeys = references
    box = deploy(name, state_policy, redundancy, punt_target)
    observed, journeys = run(box, name)
    assert observed == baseline_observed
    assert box.state.snapshot() == baseline_state
    if state_policy == "full":
        # Redundancy and punt target never show in a fault-free journey.
        assert journeys == base_journeys
    else:
        assert box.stats.evictions > 0
