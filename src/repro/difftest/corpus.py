"""Reproducer corpus: minimized divergences serialized for regression.

Every compiler bug the gauntlet finds is committed as one JSON file under
``tests/difftest_corpus/``; the corpus regression test replays each entry
through the oracle and asserts the recorded expectation (``agree`` once
the bug is fixed).  Entries carry the generator seed they came from so
the full pre-shrink case can always be regenerated.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar, List, Optional, Union

from repro.corpus_format import CorpusFormatError, fields_from
from repro.difftest.oracle import Outcome, OracleResult, StreamSpec, run_oracle

#: Default corpus location (checked into the repository).
CORPUS_DIR = Path(__file__).resolve().parents[3] / "tests" / "difftest_corpus"


@dataclass(kw_only=True)
class ReproducerEntry:
    """A minimized reproducer, the outcome expected of it, and its
    provenance.  Subclasses add their scenario's fields (``own_dict``;
    ``NESTED`` for the ones that are objects of their own) and the
    ``DIRECTORY`` they are committed under."""

    DIRECTORY: ClassVar[Path]
    #: field -> the ``from_dict`` that loads its JSON object
    NESTED: ClassVar[dict] = {"stream": StreamSpec.from_dict}

    name: str
    source: str
    stream: StreamSpec
    expect: str
    description: str = ""
    found_by_seed: Optional[int] = None
    #: serialized :class:`repro.telemetry.diff.TraceDiff` captured when
    #: the bug was found — the first divergent semantic event between the
    #: reference and the deployment, kept as historical provenance.
    trace_diff: Optional[dict] = None

    def own_dict(self) -> dict:
        return {}

    def to_dict(self) -> dict:
        data = {
            "name": self.name,
            "description": self.description,
            "found_by_seed": self.found_by_seed,
            "expect": self.expect,
            **self.own_dict(),
            "stream": self.stream.to_dict(),
            # a list of lines, so a diff of the JSON reads as a diff of
            # the program
            "source": self.source.splitlines(),
        }
        if self.trace_diff is not None:
            data["trace_diff"] = self.trace_diff
        return data

    @classmethod
    def from_dict(cls, data: dict):
        """Raises :class:`~repro.corpus_format.CorpusFormatError` for
        JSON that is not an entry (as do the ``NESTED`` loaders)."""
        kwargs = fields_from(data, cls, "entry", source=Union[str, List[str]])
        if isinstance(kwargs["source"], list):
            kwargs["source"] = "\n".join(kwargs["source"]) + "\n"
        for name in cls.NESTED.keys() & kwargs.keys():
            kwargs[name] = cls.NESTED[name](kwargs[name])
        return cls(**kwargs)


@dataclass(kw_only=True)
class CorpusEntry(ReproducerEntry):
    """One minimized divergence."""

    DIRECTORY: ClassVar[Path] = CORPUS_DIR

    expect: str = Outcome.AGREE.value
    check_cached: bool = True
    #: extern config sections (serialized with string section keys) and a
    #: serialized pre-state snapshot — set on translation-validation
    #: counterexamples, which pin the exact world the prover disproved.
    config: Optional[dict] = None
    prestate: Optional[dict] = None

    def own_dict(self) -> dict:
        data: dict = {"check_cached": self.check_cached}
        if self.config is not None:
            data["config"] = {
                str(section): list(values)
                for section, values in self.config.items()
            }
        if self.prestate is not None:
            data["prestate"] = self.prestate
        return data


def save_entry(entry: ReproducerEntry, directory: Optional[Path] = None) -> Path:
    directory = directory if directory is not None else entry.DIRECTORY
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{entry.name}.json"
    path.write_text(json.dumps(entry.to_dict(), indent=2) + "\n")
    return path


def load_corpus(directory: Optional[Path] = None, entry_type=CorpusEntry) -> list:
    directory = directory if directory is not None else entry_type.DIRECTORY
    if not directory.is_dir():
        return []
    entries = []
    for path in sorted(directory.glob("*.json")):
        try:
            entries.append(entry_type.from_dict(json.loads(path.read_text())))
        except ValueError as exc:  # not JSON, or not an entry: say which file
            raise CorpusFormatError(f"{path}: {exc}") from exc
    return entries


def replay_entry(entry: CorpusEntry, fast_path: bool = False) -> OracleResult:
    """Run one corpus entry through the oracle.

    ``fast_path`` replays through the compiled engines instead of the
    interpreter (the corpus analogue of ``difftest --compiled``)."""
    config = None
    if entry.config is not None:
        config = {
            int(section): list(values)
            for section, values in entry.config.items()
        }
    prestate = None
    if entry.prestate is not None:
        from repro.verify.symbolic import deserialize_prestate

        prestate = deserialize_prestate(entry.prestate)
    return run_oracle(
        entry.source, entry.stream, check_cached=entry.check_cached,
        config=config, prestate=prestate, fast_path=fast_path,
    )
