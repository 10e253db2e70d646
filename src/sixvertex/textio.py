"""Plain-text helpers shared by configs, roots documents, reports and tables."""

from __future__ import annotations

from pathlib import Path


def parse_complex_list(value: str) -> tuple[complex, ...]:
    """Comma-separated complex literals; the empty string is the empty list."""
    value = value.strip()
    if not value:
        return ()
    return tuple(complex(part.strip()) for part in value.split(","))


def parse_key_values(text: str, parsers: dict, error) -> dict:
    """{key: parsers[key](value)} from 'key: value' lines; '#' starts a comment.

    ``error(message)`` is raised, naming the line, for a line without ':', an
    unknown or repeated key, or a value its parser rejects with ValueError.
    """
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition(":")
        key = key.strip()
        if not sep:
            raise error(f"line {lineno}: expected 'key: value', got {raw!r}")
        if key not in parsers:
            raise error(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise error(f"line {lineno}: repeated key {key!r}")
        try:
            values[key] = parsers[key](value.strip())
        except ValueError as exc:
            raise error(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    return values


def write_text_atomic(path, text: str) -> None:
    """Write through a sibling temporary file, so readers never see a partial file."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    tmp.replace(path)
