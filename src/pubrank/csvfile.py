"""Reading the registry and taxonomy CSV files.

Both loaders read a UTF-8 CSV with a fixed header into one dict per row.
Every problem with the file itself (unreadable, not UTF-8, not CSV, wrong
header, a row of the wrong width) raises the caller's error type, so it
ends the run with a message instead of a traceback.
"""

from __future__ import annotations

import csv
from pathlib import Path

from .errors import PubrankError


def read_csv(
    source: str | Path, expected_header: list[str], error: type[PubrankError]
) -> list[dict[str, str]]:
    """Rows of a CSV whose header, after stripping each cell, is
    `expected_header`; rows are keyed by the stripped names. Raises
    `error` on any fault of the file."""
    path = Path(source)
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise error(f"{path}: empty file, expected header {expected_header}")
            if [h.strip() for h in reader.fieldnames] != expected_header:
                raise error(f"{path}: bad header {reader.fieldnames}, expected {expected_header}")
            reader.fieldnames = expected_header
            rows = []
            for row in reader:
                # a short row gets None values, a long row's surplus the key None
                if None in row or None in row.values():
                    raise error(
                        f"{path}: line {reader.line_num}: expected {len(expected_header)} cells"
                    )
                rows.append(row)
            return rows
    except OSError as exc:
        raise error(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8: {exc}") from exc
    except csv.Error as exc:
        raise error(f"{path}: malformed CSV: {exc}") from exc
