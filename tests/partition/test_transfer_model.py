"""The budget search sizes its shims on the source function; this holds it
to the projections.

``_enforce_budgets`` reads both transfer sets off a dataflow pass over the
source function (``ProjectionStatics.decide``) and builds a projection only
to measure or to return it.  At *every* iteration of every search here —
the module global is wrapped, as ``refinement_moves.py`` does — the oracle
builds all three projections the way the search used to
(``projection_oracle.py``: the replaced path, literal) and asks the built
functions: the transfer sets must be equal register by register, each
side's needs and definitions must be the built function's, and the
``Function`` the new ``project_partition`` builds from the decision must be
the oracle's, block by block.  Over the six bundled middleboxes, the 40
generated programs of the compile pins and the 24 of the benchmark's
campaign pool, under both limits — and, since no search reaches them,
under forged assignments that put every instruction in a random partition
(a partition then defines what an earlier one reads; the label rules never
allow that, and only there does the purity test's "not defined inside the
projection" clause bite).

Four seeded mutants of the decision must each fail it, and a call count
holds what the change is for: one ``ProjectionStatics`` per partitioning,
no ``Function`` for an iteration both shims reject.
"""

import random
from typing import Dict, Iterator, List, Tuple
from unittest import mock

import pytest

from repro.analysis.depgraph import build_dependency_graph
from repro.difftest.generator import generate_program
from repro.difftest.runner import derive_seeds
from repro.ir import instructions as irin
from repro.ir import lower_program
from repro.ir.printer import format_instruction
from repro.ir.validate import unsatisfied_uses
from repro.lang import parse_program
from repro.partition import partitioner, projection
from repro.partition.constraints import SwitchResources
from repro.partition.labels import LabelAssignment, Partition
from tests.analysis import depgraph_oracle
from tests.partition import compile_pins, projection_oracle

#: ``perfbench/tool_path.py``'s POOL_MASTER_SEED and CAMPAIGN_SCENARIOS
CAMPAIGN_POOL = (9, 24)

#: programs and assignments per program of the forged-assignment sweep
FORGED_PROGRAMS = ("minilb", "lb", "trojan", "gen003", "gen008", "pool03")
FORGED_SEEDS = 12

LIMITS = (SwitchResources.tofino_like, SwitchResources.tiny)


def sources() -> Iterator[Tuple[str, str]]:
    yield from compile_pins.sources()
    master, count = CAMPAIGN_POOL
    for index in range(count):
        program_seed, _ = derive_seeds(master, index)
        yield f"pool{index:02d}", generate_program(program_seed).source()


SOURCES: Dict[str, str] = dict(sources())
_LOWERED: dict = {}


def lowered(label: str):
    if label not in _LOWERED:
        _LOWERED[label] = lower_program(parse_program(SOURCES[label]))
    return _LOWERED[label]


class Disagreement(AssertionError):
    pass


def check(condition: bool, what: str) -> None:
    if not condition:
        raise Disagreement(what)


def shape(function) -> List[Tuple[str, list]]:
    """Blocks in dictionary order; a shared instruction must be the same
    object, a rebuilt one (terminators, the flag) must print the same."""

    def show(inst):
        rebuilt = isinstance(inst, irin.Terminator) or (
            isinstance(inst, irin.Assign)
            and inst.dst.name == projection.NEEDS_SERVER
        )
        return format_instruction(inst) if rebuilt else inst

    return [
        (name, [show(inst) for inst in block.instructions])
        for name, block in function.blocks.items()
    ]


class Oracle:
    """The replaced path over one source function.

    Keeps its projection of a side across the decisions it is shown: the
    old ``project_partition`` reads the assignment only to ask "mine?" and
    "later than me?", so a side is built and checked once per distinct
    answer, as the old search's ``_SwitchSide`` reused it.
    """

    def __init__(self, statics, function):
        self.statics = statics
        self.function = function
        self.instructions = list(self.function.instructions())
        self.postdominators = depgraph_oracle.compute_reachability(
            self.function
        ).postdominators
        self.built: dict = {}

    def compare(self, boundaries, specs, where: str) -> None:
        """Hold one decision — three boundaries and the transfer sets read
        off them — to the projections built for the same members."""
        statics = self.statics
        mapping = {
            inst.id: boundary.partition
            for boundary in boundaries
            for at, inst in enumerate(self.instructions)
            if boundary.members >> at & 1
        }
        sides = []
        for boundary in boundaries:
            key = (boundary.partition, boundary.members, boundary.not_later)
            if key in self.built:
                sides.append(self.built[key])
                continue
            oracle = self.built[key] = projection_oracle.project_partition(
                self.function, mapping, boundary.partition,
                self.postdominators,
            )
            sides.append(oracle)
            side = f"{where} {boundary.partition.name}"
            needs = [reg.name for reg in statics.registers(boundary.needs)]
            defs = {reg.name for reg in statics.registers(boundary.defs)}
            check(needs == sorted(unsatisfied_uses(oracle)),
                  f"{side}: needs {needs}")
            check(defs == set(oracle.defined_regs())
                  - {projection.NEEDS_SERVER},
                  f"{side}: defines {sorted(defs)}")
            mine = projection.project_partition(statics, boundary)
            check(mine.name == oracle.name and mine.entry == oracle.entry
                  and shape(mine) == shape(oracle),
                  f"{side}: the built projection differs")
        for mine, want, name in zip(
            specs, projection_oracle.build_transfers(*sides),
            ("to_server", "to_switch"),
        ):
            check(mine.regs == want.regs,
                  f"{where}: {name} {mine.names()}, the projections say"
                  f" {want.names()}")


def search(label: str, limits: SwitchResources) -> int:
    """Partition ``label``, checking every budget-search iteration against
    the oracle; returns how many there were."""
    iterations = 0
    oracles: dict = {}
    real = partitioner._build_transfers

    def checked(statics, *boundaries):
        nonlocal iterations
        iterations += 1
        specs = real(statics, *boundaries)
        if statics not in oracles:
            oracles[statics] = Oracle(statics, lowered(label).process)
        oracles[statics].compare(
            boundaries, specs, f"{label} iteration {iterations}"
        )
        return specs

    with mock.patch.object(partitioner, "_build_transfers", checked):
        try:
            partitioner.partition_middlebox(lowered(label), limits)
        except partitioner.PartitionError:
            pass
    return iterations


def forged(label: str, seeds: range) -> None:
    """The same comparison under assignments no label rule produced —
    every instruction in a partition drawn at random — where a partition
    can define what an earlier one reads: the decision is exact for any
    member sets, not only for those the rules allow."""
    function = lowered(label).process
    graph = build_dependency_graph(function)
    statics = projection.ProjectionStatics.of(function)
    everything = (1 << len(graph.instructions)) - 1
    for seed in seeds:
        rng = random.Random(seed)
        no_pre = rng.getrandbits(len(graph.instructions))
        assignment = LabelAssignment(
            graph, pinned_pre=0, pinned_post=0, no_pre=no_pre,
            no_post=rng.getrandbits(len(graph.instructions)) & everything,
        )
        boundaries = [
            statics.decide(assignment, partition) for partition in Partition
        ]
        Oracle(statics, function).compare(
            boundaries, partitioner._build_transfers(statics, *boundaries),
            f"{label} forged assignment {seed}",
        )


@pytest.mark.parametrize("label", sorted(SOURCES))
def test_statics_transfers_are_the_projections(label):
    for limits in LIMITS:
        assert search(label, limits()) >= 1


@pytest.mark.parametrize("label", FORGED_PROGRAMS)
def test_the_decision_is_exact_under_any_assignment(label):
    forged(label, range(FORGED_SEEDS))


# -- the comparison can fail ------------------------------------------------------

#: programs whose searches, with the forged sweep, catch every mutant
MUTANT_PROGRAMS = ("pool03", "gen009", "lb", "trojan")


def run_mutant_programs():
    for label in FORGED_PROGRAMS:
        forged(label, range(FORGED_SEEDS))
    for label in MUTANT_PROGRAMS:
        for limits in LIMITS:
            search(label, limits())


def mutated_build(mutate):
    """``ProjectionStatics.build`` with ``mutate`` applied to what it built."""
    build = projection.ProjectionStatics.build

    def mutant(function):
        statics = build(function)
        mutate(statics)
        return statics

    return mock.patch.object(projection.ProjectionStatics, "build", mutant)


def test_dropping_a_kept_branch_condition_is_caught():
    """A branch kept for an earlier partition reads its condition from the
    shim: leave branch conditions out of the needs."""

    def no_conditions(statics):
        for block in statics.order:
            if block.branch:
                bit, inst, _, defs = block.instructions[-1]
                block.instructions[-1] = (bit, inst, 0, defs)

    with mutated_build(no_conditions), pytest.raises(Disagreement):
        run_mutant_programs()


def test_ignoring_local_definitions_in_the_purity_test_is_caught():
    """A slice over a name the projection itself defines is not pure."""
    real = projection.ProjectionStatics.pure_slice

    def careless(self, destination, needs, defined):
        return real(self, destination, needs, 0)

    with mock.patch.object(
        projection.ProjectionStatics, "pure_slice", careless
    ), pytest.raises(Disagreement):
        run_mutant_programs()


def test_a_non_p4_op_in_a_post_slice_is_caught():
    """POST may recompute only what a switch can run."""

    def any_op(statics):
        statics.closures[Partition.POST] = statics.closures[Partition.NON_OFF]

    with mutated_build(any_op), pytest.raises(Disagreement):
        run_mutant_programs()


def test_treating_a_skipped_region_as_kept_is_caught():
    """A branch whose region holds nothing of the partition is skipped."""

    def every_region_has_work(statics):
        for block in statics.order:
            block.region = -1

    with mutated_build(every_region_has_work), pytest.raises(Disagreement):
        run_mutant_programs()


# -- what the change is for ---------------------------------------------------------


@pytest.mark.parametrize("label", ["gen005", "gen008", "pool03"])
def test_statics_once_and_functions_only_for_what_fits(label):
    limits = SwitchResources.tiny()
    build = projection.ProjectionStatics.build
    real_transfers = partitioner._build_transfers
    real_project = partitioner.project_partition
    real_search = partitioner._enforce_budgets
    builds, searches = [], []
    #: per iteration: how many shims fit, and the partitions projected in it
    iterations: List[Tuple[int, List[Partition]]] = []

    def counted_build(function):
        builds.append(function)
        return build(function)

    def counted_transfers(statics, *boundaries):
        specs = real_transfers(statics, *boundaries)
        iterations.append((
            sum(spec.byte_size() <= limits.transfer_bytes for spec in specs),
            [],
        ))
        return specs

    def counted_project(statics, boundary):
        iterations[-1][1].append(boundary.partition)
        return real_project(statics, boundary)

    def counted_search(*args):
        searches.append(args)
        return real_search(*args)

    with mock.patch.object(
        projection.ProjectionStatics, "build", counted_build
    ), mock.patch.object(
        partitioner, "_build_transfers", counted_transfers
    ), mock.patch.object(
        partitioner, "project_partition", counted_project
    ), mock.patch.object(partitioner, "_enforce_budgets", counted_search):
        partitioner.partition_middlebox(lowered(label), limits)

    assert len(builds) == 1
    assert len(iterations) > 5
    for fitting, projected in iterations:
        assert len(projected) <= 3
        # A switch side is built only to be measured, which takes its shim
        # fitting; the server side only at acceptance, which takes both.
        switch_sides = [p for p in projected if p is not Partition.NON_OFF]
        assert len(switch_sides) <= fitting
        assert fitting == 2 or Partition.NON_OFF not in projected
    assert sum(
        projected.count(Partition.NON_OFF) for _, projected in iterations
    ) == len(searches)
    assert any(not projected for _, projected in iterations)
