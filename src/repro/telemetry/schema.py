"""Checked-in JSON schemas plus the one self-contained validator.

This module is the single schema authority for every JSON artifact the
repo emits (the image has no ``jsonschema`` package; the subset
implemented here — type/required/properties/items/enum/minimum — is all
the checked-in schemas use).  Bundled schemas live in ``schemas/``
(``trace``, ``metrics``, ``faults_summary``, ``tenancy``); external
schema files (e.g. the repo benchmark's ``results.schema.json``) go through
:func:`validate_file`.  Producers call :func:`check` to fail loudly
before writing an invalid document.

CI smoke usage::

    python -m repro trace minilb --packets 10 --json > trace.json
    python -m repro.telemetry.schema trace trace.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, List

SCHEMA_DIR = Path(__file__).resolve().parent / "schemas"

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "null": type(None),
}


def bundled_schemas() -> List[str]:
    """Names of every checked-in schema under ``schemas/``."""
    return sorted(
        path.name[: -len(".schema.json")]
        for path in SCHEMA_DIR.glob("*.schema.json")
    )


def load_schema(name: str) -> dict:
    """Load the bundled ``schemas/<name>.schema.json``."""
    path = SCHEMA_DIR / f"{name}.schema.json"
    if not path.exists():
        raise KeyError(
            f"no bundled schema {name!r}; available: {bundled_schemas()}"
        )
    return json.loads(path.read_text())


def _type_ok(value: Any, type_name: str) -> bool:
    if type_name == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if type_name == "number":
        return (isinstance(value, (int, float))
                and not isinstance(value, bool))
    expected = _TYPES.get(type_name)
    return expected is not None and isinstance(value, expected)


def validate(instance: Any, schema: dict, path: str = "$") -> List[str]:
    """Validate ``instance`` against ``schema``; return error strings."""
    errors: List[str] = []
    declared = schema.get("type")
    if declared is not None:
        allowed = declared if isinstance(declared, list) else [declared]
        if not any(_type_ok(instance, t) for t in allowed):
            errors.append(
                f"{path}: expected type {'/'.join(allowed)},"
                f" got {type(instance).__name__}"
            )
            return errors
    if "enum" in schema and instance not in schema["enum"]:
        errors.append(f"{path}: {instance!r} not in {schema['enum']}")
    if "minimum" in schema and isinstance(instance, (int, float)) \
            and not isinstance(instance, bool) \
            and instance < schema["minimum"]:
        errors.append(f"{path}: {instance} < minimum {schema['minimum']}")
    if isinstance(instance, dict):
        for name in schema.get("required", []):
            if name not in instance:
                errors.append(f"{path}: missing required key {name!r}")
        for name, subschema in schema.get("properties", {}).items():
            if name in instance:
                errors.extend(
                    validate(instance[name], subschema, f"{path}.{name}")
                )
    if isinstance(instance, list) and "items" in schema:
        for index, item in enumerate(instance):
            errors.extend(
                validate(item, schema["items"], f"{path}[{index}]")
            )
    return errors


def validate_named(instance: Any, name: str) -> List[str]:
    """Validate against the bundled schema ``name``; return errors."""
    return validate(instance, load_schema(name))


def validate_file(instance: Any, schema_path: Path) -> List[str]:
    """Validate against a schema file outside the bundled set."""
    return validate(instance, json.loads(Path(schema_path).read_text()))


def check(instance: Any, name: str, what: str = "document") -> None:
    """Producer-side gate: raise ``ValueError`` on schema violations.

    Call this before writing a JSON artifact so an invalid document
    fails the producing command instead of the downstream consumer.
    """
    errors = validate_named(instance, name)
    if errors:
        detail = "; ".join(errors[:5])
        raise ValueError(
            f"{what} violates the {name!r} schema: {detail}"
        )


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    names = bundled_schemas()
    if len(argv) != 2 or argv[0] not in names:
        print("usage: python -m repro.telemetry.schema"
              f" <{'|'.join(names)}> <file|->", file=sys.stderr)
        return 2
    schema = load_schema(argv[0])
    text = sys.stdin.read() if argv[1] == "-" else Path(argv[1]).read_text()
    errors = validate(json.loads(text), schema)
    for error in errors:
        print(f"schema violation: {error}", file=sys.stderr)
    if not errors:
        print(f"{argv[1]}: valid {argv[0]} document")
    return 1 if errors else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
