"""Shared fixtures: cached middlebox bundles and compilation results."""

from __future__ import annotations

import pytest

from repro.compiler import CompilationResult, compile_lowered
from repro.middleboxes import MIDDLEBOX_NAMES, MiddleboxBundle, load

_BUNDLES: dict = {}
_COMPILED: dict = {}


def get_bundle(name: str) -> MiddleboxBundle:
    if name not in _BUNDLES:
        _BUNDLES[name] = load(name)
    return _BUNDLES[name]


def get_compiled(name: str) -> CompilationResult:
    if name not in _COMPILED:
        _COMPILED[name] = compile_lowered(get_bundle(name).lowered)
    return _COMPILED[name]


@pytest.fixture(params=MIDDLEBOX_NAMES)
def middlebox_name(request):
    return request.param


@pytest.fixture
def bundle(middlebox_name):
    return get_bundle(middlebox_name)


@pytest.fixture
def compiled(middlebox_name):
    return get_compiled(middlebox_name)


MINILB_SOURCE = get_bundle("minilb").source


def _shapes(bundle: MiddleboxBundle) -> tuple:
    """What a caller could change of a loaded middlebox: each function's
    entry, blocks and instruction objects, and the state it declares."""
    lowered = bundle.lowered
    functions = tuple(
        (function.entry, tuple(
            (name, tuple(block.instructions))
            for name, block in function.blocks.items()
        ))
        for function in (lowered.process, lowered.configure)
        if function is not None
    )
    return functions, repr(lowered.state), lowered.program


@pytest.fixture(scope="session", autouse=True)
def loaded_middleboxes_stay_as_loaded():
    """``load`` hands every caller the one lowering of a file: the suite
    must leave it as it found it."""
    before = {name: _shapes(load(name)) for name in MIDDLEBOX_NAMES}
    yield
    assert {name: _shapes(load(name)) for name in MIDDLEBOX_NAMES} == before
