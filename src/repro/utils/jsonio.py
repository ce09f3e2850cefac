"""Typed parsing of the JSON and JSON-lines artifacts the library reads.

Operating tables, SLO reports, arrival schedules, fault plans and traces
parse through these helpers.  Input that is not UTF-8, not JSON, or not a
JSON object where a record belongs, and a record whose fields do not fit
its reader, raise :class:`~repro.errors.SerializationError` naming the
file and line; never a raw ``UnicodeDecodeError``, ``JSONDecodeError``,
``KeyError``, ``TypeError`` or ``AttributeError``.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from repro.errors import ReproError, SerializationError


def parse_object(text: str, where: str) -> dict:
    """``text`` parsed as one JSON object; ``where`` names it in errors."""
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"{where}: not valid JSON ({exc})") from None
    if not isinstance(value, dict):
        raise SerializationError(
            f"{where}: expected a JSON object, got {type(value).__name__}"
        )
    return value


def read_text(path: str | Path) -> str:
    """A file's text, decoded as UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SerializationError(f"{path}: not UTF-8 text ({exc})") from None


def read_object(path: str | Path) -> dict:
    """The one JSON object a file holds."""
    return parse_object(read_text(path), str(path))


def iter_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """``(line number, object)`` for each non-blank line of a JSON-lines file."""
    path = Path(path)
    with path.open(encoding="utf-8") as handle:
        try:
            for lineno, line in enumerate(handle, start=1):
                if line.strip():
                    yield lineno, parse_object(line, f"{path}:{lineno}")
        except UnicodeDecodeError as exc:
            raise SerializationError(f"{path}: not UTF-8 text ({exc})") from None


def read_jsonl(path: str | Path, schema: str) -> tuple[dict, list[tuple[int, dict]]]:
    """The header and the ``(line number, record)`` pairs of a JSON-lines
    file whose first record carries ``schema``."""
    records = list(iter_jsonl(path))
    if not records:
        raise SerializationError(f"{path} is empty")
    (_lineno, header), *rest = records
    if header.get("schema") != schema:
        raise SerializationError(
            f"{path}: expected schema {schema!r}, got {header.get('schema')!r}"
        )
    return header, rest


@contextmanager
def record_fields(where: str) -> Iterator[None]:
    """Report a record's missing or ill-typed field as a SerializationError.

    Wraps the code that builds an object from a parsed record: the
    ``KeyError``, ``TypeError`` or ``ValueError`` it raises becomes a
    :class:`~repro.errors.SerializationError` naming ``where``.  The
    library's own typed errors (a ``ConfigurationError`` from validation,
    say) pass through unchanged.
    """
    try:
        yield
    except ReproError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(
            f"{where}: malformed record ({type(exc).__name__}: {exc})"
        ) from exc
