"""Tenancy says each thing once.

Structural guard: a ``repro tenancy`` run admits its tenant set once and
compiles each tenant twice — once for the shared run, once for the solo
reference the isolation oracle holds it to; ``--admit-only`` admits once
and compiles once.  The duplicate-name refusal has one site, and what
the tenant-only fault kind, VLAN dispatch and the re-run per-tenant lint
spelled is gone from ``src/``.
"""

from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.runtime import deployment as runtime_deployment
from repro.tenancy.allocator import SwitchResourceAllocator

SRC = Path(repro.__file__).parent
TRIO = ("minilb", "mazunat", "lb")
RETIRED = (
    "TenantLinkFault", "tenant_link", "scoped_plan", "VLAN_KEY",
    "MultiTenantSwitchModel", "TEN003",
)


@pytest.fixture
def calls(monkeypatch):
    """Admissions (as tenant-name lists) and compiles per middlebox."""
    admits, compiles = [], Counter()
    admit = SwitchResourceAllocator.admit
    compile_middlebox = runtime_deployment.compile_middlebox

    def counting_admit(self, tenants):
        admits.append(sorted(spec.name for spec in tenants))
        return admit(self, tenants)

    def counting_compile(lowered, *args, **kwargs):
        compiles[lowered.name] += 1
        return compile_middlebox(lowered, *args, **kwargs)

    monkeypatch.setattr(SwitchResourceAllocator, "admit", counting_admit)
    monkeypatch.setattr(
        runtime_deployment, "compile_middlebox", counting_compile
    )
    return admits, compiles


def test_a_run_admits_once_and_compiles_each_tenant_twice(calls, capsys):
    admits, compiles = calls
    assert main(["tenancy", "--packets", "5"]) == 0
    assert admits == [sorted(TRIO)]
    assert len(compiles) == len(TRIO)
    assert set(compiles.values()) == {2}


def test_admit_only_admits_once_and_compiles_each_tenant_once(calls, capsys):
    admits, compiles = calls
    assert main(["tenancy", "--admit-only"]) == 0
    assert admits == [sorted(TRIO)]
    assert len(compiles) == len(TRIO)
    assert set(compiles.values()) == {1}


def sources():
    for path in sorted(SRC.rglob("*")):
        if path.suffix in (".py", ".json"):
            yield path.relative_to(SRC).as_posix(), path.read_text()


def test_the_retired_names_are_gone():
    assert [
        (name, word) for name, text in sources()
        for word in RETIRED if word in text
    ] == []


def test_one_site_refuses_a_duplicate_tenant_name():
    sites = [
        name
        for name, text in sources()
        if name != "verify/diagnostics.py"
        for line in text.splitlines()
        if "TEN004" in line
    ]
    assert sites == ["tenancy/allocator.py"]
