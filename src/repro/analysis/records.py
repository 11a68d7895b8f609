"""Append-only JSON record files behind the CLI's ``--record`` flags.

``repro pareto --record`` and ``repro resilience --mbu --record`` each
add one measured record to a user-named file.  The file holds a JSON
list of records; a missing, corrupt or non-list file starts an empty
list, so a damaged file never blocks a new measurement.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = ["append_record"]


def append_record(path: str | Path, record: dict[str, object]) -> int:
    """Append *record* to the JSON list at *path*; returns its new length."""
    path = Path(path)
    try:
        records = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        records = []
    if not isinstance(records, list):
        records = []
    records.append(record)
    path.write_text(json.dumps(records, indent=2) + "\n")
    return len(records)
