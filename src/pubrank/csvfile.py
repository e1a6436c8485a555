"""Reading the registry and taxonomy CSV files.

Both loaders read a UTF-8 CSV with a fixed header into one list of cells
per row. Every problem with the file itself (unreadable, not UTF-8, not
CSV, wrong header, a row of the wrong width) raises the caller's error
type, so it ends the run with a message instead of a traceback.
"""

from __future__ import annotations

import csv
from pathlib import Path

from .errors import PubrankError


def read_csv(
    source: str | Path, expected_header: list[str], error: type[PubrankError]
) -> list[list[str]]:
    """The data rows, cells unstripped in header order, of a CSV whose
    header, after stripping each cell, is `expected_header`. Blank lines
    after the header are skipped. Raises `error` on any fault of the file,
    before any row is returned."""
    path = Path(source)
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise error(f"{path}: empty file, expected header {expected_header}")
            if [h.strip() for h in header] != expected_header:
                raise error(f"{path}: bad header {header}, expected {expected_header}")
            rows = []
            for row in reader:
                if not row:
                    continue
                if len(row) != len(expected_header):
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
