"""Formatting and persistence helpers shared by the experiment harnesses."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

PathLike = Union[str, Path]


def format_text_table(
    rows: Sequence[Mapping[str, object]],
    columns: Optional[Sequence[str]] = None,
    title: str = "",
) -> str:
    """Render a list of dictionaries as a fixed-width text table.

    Missing values render as ``-``.  The column order defaults to the keys of
    the first row.
    """
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())

    def cell(value: object) -> str:
        if value is None:
            return "-"
        if isinstance(value, float):
            return f"{value:.3f}".rstrip("0").rstrip(".")
        return str(value)

    table = [[cell(row.get(column)) for column in columns] for row in rows]
    widths = [
        max(len(str(column)), *(len(line[index]) for line in table))
        for index, column in enumerate(columns)
    ]
    separator = "-+-".join("-" * width for width in widths)
    header = " | ".join(str(column).ljust(width) for column, width in zip(columns, widths))
    body = [
        " | ".join(value.ljust(width) for value, width in zip(line, widths))
        for line in table
    ]
    lines = []
    if title:
        lines.append(title)
    lines.extend([header, separator, *body])
    return "\n".join(lines)


def save_json(data: object, path: PathLike) -> Path:
    """Write any JSON-serialisable object to disk and return the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True, default=_json_default)
        handle.write("\n")
    return path


def _json_default(value: object) -> object:
    """Fallback serialisation for numpy scalars and similar objects."""
    for attribute in ("item", "tolist"):
        if hasattr(value, attribute):
            return getattr(value, attribute)()
    return str(value)


def format_runtime(seconds: float) -> str:
    """Format a runtime the way the paper prints it (``18m05s``)."""
    seconds = max(0.0, float(seconds))
    minutes = int(seconds // 60)
    remainder = seconds - 60 * minutes
    if minutes:
        return f"{minutes:d}m{remainder:04.1f}s"
    return f"{remainder:.1f}s"
