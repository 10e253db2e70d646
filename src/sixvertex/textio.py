"""Plain-text helpers shared by configs, roots documents, reports and tables."""

from __future__ import annotations

from pathlib import Path


def parse_complex_list(value: str) -> tuple[complex, ...]:
    """Comma-separated complex literals; the empty string is the empty list."""
    value = value.strip()
    if not value:
        return ()
    return tuple(complex(part.strip()) for part in value.split(","))


def write_text_atomic(path, text: str) -> None:
    """Write through a sibling temporary file, so readers never see a partial file."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    tmp.replace(path)
