"""The one line reader behind every config, species and CSV file.

'#' starts a comment and blank lines are skipped.  Values are strict: an
unknown key, NaN, inf or a fractional count raises ValueError.  read_csv
is the one place a data file becomes numbers; its callers pick columns.
"""

from __future__ import annotations

import math
from pathlib import Path

# Only ASCII whitespace is trimmed: str.strip() would also drop the
# separators \x1c-\x1f, which float() rejects, so '2\x1f' would read as 2.
_BLANK = " \t\n\r\v\f"


def read_lines(path: str | Path) -> list[tuple[str, str]]:
    """('path:lineno', text) of each line left once comments and blanks go."""
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    lines = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip(_BLANK)
        if line:
            lines.append((f"{path}:{lineno}", line))
    return lines


def key_values(items, known) -> dict[str, str]:
    """{key: value} from (where, 'key = value') items; keys must be known."""
    pairs = {}
    for where, text in items:
        key, sep, value = (s.strip(_BLANK) for s in text.partition("="))
        if not sep:
            raise ValueError(f"{where}: expected key = value, got {text!r}")
        if key not in known:
            import difflib  # only on the error path
            near = difflib.get_close_matches(key, list(known), n=1)
            hint = f"; did you mean {near[0]!r}?" if near else ""
            raise ValueError(f"{where}: unknown key {key!r}{hint}")
        pairs[key] = value
    return pairs


def read_csv(path: str | Path) -> tuple[list[str], list[list[float]]]:
    """Header cells, and each data row's cells as finite floats.

    Every cell goes through number(cell, 'path:lineno').  A row with fewer
    cells than the header is padded with empty cells, so a missing cell is
    rejected with its line like a blank one; a row with more cells raises
    ValueError naming its line.  A trailing `error` column (a sweep's) is
    neither read nor returned in the header: its message may hold commas,
    and a row whose error cell is filled, a failed sweep point, is
    skipped.  Raises ValueError if no data row is left.
    """
    lines = [(where, [c.strip(_BLANK) for c in line.split(",")])
             for where, line in read_lines(path)]
    header = lines[0][1] if lines else []
    errors = header[-1:] == ["error"]
    width = len(header) - errors
    rows = []
    for where, cells in lines[1:]:
        if len(cells) > width and not errors:
            raise ValueError(f"{where}: {len(cells)} cells, but the header "
                             f"has {width}")
        if "".join(cells[width:]):
            continue  # a failed sweep point
        rows.append([number(c, where) for c in (cells + [""] * width)[:width]])
    if not rows:
        raise ValueError(f"no data rows in {path}")
    return header[:width], rows


def number(text: str, where: str, integer: bool = False,
           allow_inf: bool = False) -> float | int:
    """A finite float, or a whole number if `integer`; +inf if allowed."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    bad_inf = math.isinf(value) and not (allow_inf and value > 0)
    if math.isnan(value) or bad_inf or (integer and not value.is_integer()):
        kind = "whole" if integer else "finite"
        raise ValueError(f"{where}: not a {kind} number: {text!r}")
    return int(value) if integer else value
