"""Compare a CLI report with its golden copy.

Integer, boolean and text cells must match exactly; float cells may differ by
a relative ``FLOAT_RTOL`` so that a reordered float sum does not count as a
failure.  CSV cells carry no type, so a column counts as float when any of its
golden cells is written with a decimal point, an exponent, inf or nan.
"""

from __future__ import annotations

import csv
import json
import math
import re

FLOAT_RTOL = 1e-9
_FLOAT_TEXT = re.compile(r"[.eE]|inf|nan")


def _close(a: float, b: float) -> bool:
    return a == b or math.isclose(a, b, rel_tol=FLOAT_RTOL, abs_tol=1e-300)


def _compare_json(want, got, where: str) -> str | None:
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return None if _close(want, float(got)) else f"{where}: {got!r} != {want!r}"
    if type(want) is not type(got):
        return f"{where}: {got!r} != {want!r}"
    if isinstance(want, dict):
        if want.keys() != got.keys():
            return f"{where}: keys {sorted(got)} != {sorted(want)}"
        for key in want:
            diff = _compare_json(want[key], got[key], f"{where}.{key}")
            if diff:
                return diff
        return None
    if isinstance(want, list):
        if len(want) != len(got):
            return f"{where}: {len(got)} items != {len(want)}"
        for i, (a, b) in enumerate(zip(want, got)):
            diff = _compare_json(a, b, f"{where}[{i}]")
            if diff:
                return diff
        return None
    return None if want == got else f"{where}: {got!r} != {want!r}"


def _compare_csv(want: str, got: str) -> str | None:
    want_lines, got_lines = want.splitlines(), got.splitlines()
    want_notes = [line for line in want_lines if line.startswith("#")]
    got_notes = [line for line in got_lines if line.startswith("#")]
    if want_notes != got_notes:
        return f"comment lines {got_notes} != {want_notes}"
    want_rows = list(csv.reader(line for line in want_lines if not line.startswith("#")))
    got_rows = list(csv.reader(line for line in got_lines if not line.startswith("#")))
    if len(want_rows) != len(got_rows):
        return f"{len(got_rows)} rows != {len(want_rows)}"
    if not want_rows:
        return None
    if want_rows[0] != got_rows[0]:
        return f"header {got_rows[0]} != {want_rows[0]}"
    floats = [any(_FLOAT_TEXT.search(row[c]) for row in want_rows[1:] if c < len(row)) for c in range(len(want_rows[0]))]
    for r, (a_row, b_row) in enumerate(zip(want_rows[1:], got_rows[1:]), start=1):
        if len(a_row) != len(b_row):
            return f"row {r}: {len(b_row)} cells != {len(a_row)}"
        for c, (a, b) in enumerate(zip(a_row, b_row)):
            if a == b:
                continue
            if c < len(floats) and floats[c]:
                try:
                    if _close(float(a), float(b)):
                        continue
                except ValueError:
                    pass
            return f"row {r} column {want_rows[0][c] if c < len(want_rows[0]) else c}: {b!r} != {a!r}"
    return None


def compare(want: str, got: str, fmt: str) -> str | None:
    """None when ``got`` matches the golden ``want``, else the first difference."""
    if want == got:
        return None
    if fmt == "json":
        try:
            return _compare_json(json.loads(want), json.loads(got), "$")
        except json.JSONDecodeError as exc:
            return f"not JSON: {exc}"
    return _compare_csv(want, got)
