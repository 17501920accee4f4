"""The one line reader behind every config, species and CSV file.

'#' starts a comment and blank lines are skipped.  Values are strict: an
unknown key, NaN, inf or a fractional count raises ValueError.
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


def read_csv(path: str | Path
             ) -> tuple[list[str], list[tuple[str, list[str]]]]:
    """Header cells, and ('path:lineno', cells) of each data row, stripped.

    A row with fewer cells than the header is padded with empty cells, so
    a missing cell is read, and rejected with its line, like a blank one.
    A row with more cells raises ValueError naming its line, unless the
    header's last column is `error`, whose message (a failed sweep point's)
    may hold commas.
    """
    rows = [(where, [c.strip(_BLANK) for c in line.split(",")])
            for where, line in read_lines(path)]
    if not rows:
        return [], []
    header = rows[0][1]
    width = len(header)
    for where, cells in rows[1:]:
        if len(cells) > width and header[-1] != "error":
            raise ValueError(f"{where}: {len(cells)} cells, but the header "
                             f"has {width}")
    return header, [(where, cells + [""] * (width - len(cells)))
                    for where, cells in rows[1:]]


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
