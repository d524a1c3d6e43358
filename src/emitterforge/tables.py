"""The package's one CSV dialect: every text table is written here, and
every one the package reads back is read here.

A table is UTF-8 text. ``#`` comment lines and blank lines may appear
anywhere, and ``key=value`` tokens in comments are metadata. The first other
line is a header the reader accepts (only the one-count-per-line input of
``emitterforge stats`` has none), and each later line is a row of
comma-separated fields. A reader gives one parser per column and per wanted
metadata key; a parser returns the value of a field's text or raises
``ValueError``. Every violation raises :class:`FormatError` whose ``offset``
is the physical line number (the line after the last for a missing header or
missing rows).
"""
from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .errors import FormatError
from .units import parse_int

Parser = Callable[[str], object]


def count(text: str) -> int:
    """An integer in 0..2**63-1, read by :func:`.units.parse_int`."""
    value = parse_int(text)
    if not 0 <= value < 2**63:
        raise ValueError(f"{value} is outside 0..2**63-1")
    return value


class Table(NamedTuple):
    header: str | None  # the header found; None for a headerless table
    columns: list[list]  # parsed values, one list per column
    meta: dict  # parsed values of the wanted metadata keys that were found


def _parse(parse: Parser, text: str, name: str, lineno: int):
    try:
        return parse(text)
    except ValueError as exc:
        raise FormatError(f"bad {name} {text!r} on line {lineno} ({exc})", offset=lineno) from None


def read_table(path, headers: dict, meta: dict | None = None, min_rows: int = 0) -> Table:
    """Read a table whose header is a key of ``headers``.

    ``headers`` maps each accepted header to its column parsers; the key
    None accepts a file without a header. ``meta`` maps the wanted metadata
    keys to their parsers; a key given twice keeps its last value.
    """
    meta = meta or {}
    with open(path, "rb") as fh:
        raw_lines = fh.read().splitlines()
    header = parsers = None
    found: dict = {}
    rows: list[list] = []
    for lineno, raw in enumerate(raw_lines, start=1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError:
            raise FormatError(f"line {lineno} is not UTF-8 text", offset=lineno) from None
        if line.startswith("#"):
            for key, sep, value in (token.partition("=") for token in line[1:].split()):
                if sep and key in meta:
                    found[key] = _parse(meta[key], value, key, lineno)
            continue
        if not line:
            continue
        if parsers is None:
            header = line if line in headers else None
            parsers = headers.get(header)
            if parsers is None:
                raise FormatError(f"no header on line {lineno}: {line!r}", offset=lineno)
            names = header.split(",") if header else ["value"] * len(parsers)
            if header:
                continue
        fields = line.split(",")
        if len(fields) != len(parsers):
            raise FormatError(
                f"expected {len(parsers)} fields on line {lineno}, found {len(fields)}",
                offset=lineno,
            )
        try:
            rows.append([parse(text) for parse, text in zip(parsers, fields)])
        except ValueError:
            # parse the row again field by field to name the culprit
            for column in zip(parsers, fields, names):
                _parse(*column, lineno)
            raise
    end = len(raw_lines) + 1
    if parsers is None and None not in headers:
        raise FormatError(f"no header, expected one of {list(headers)}", offset=end)
    if len(rows) < min_rows:
        raise FormatError(f"expected at least {min_rows} rows, found {len(rows)}", offset=end)
    columns = [list(c) for c in zip(*rows)] if rows else [[] for _ in headers[header]]
    return Table(header, columns, found)


def _texts(spec: str, column) -> list[str]:
    """``spec % value`` for each value of ``column``. A numpy column of
    numbers formats each distinct value once, keyed by its bits, so
    ``0.0`` and ``-0.0`` stay apart."""
    if isinstance(column, np.ndarray) and column.dtype.kind in "biuf" and column.itemsize <= 8:
        keys, where = np.unique(column.view(f"u{column.itemsize}"), return_inverse=True)
        texts = np.array([spec % (v,) for v in keys.view(column.dtype).tolist()], dtype=object)
        return texts[where].tolist()
    values = column.tolist() if isinstance(column, np.ndarray) else column
    return [spec % (v,) for v in values]


def write_table(path, header: str, columns, fmt: str, meta: dict | None = None) -> None:
    """Write ``path`` as UTF-8 with ``\\n`` line ends on any locale: the
    ``meta`` comment (floats at 17 digits), the header and one ``fmt % row``
    line per row of ``columns``. ``fmt`` is one ``%`` spec per column,
    joined by commas, and each value is formatted as a Python number
    (numpy columns through ``.tolist()``); a numpy column formats each of
    its distinct values once."""
    texts = [_texts(spec, c) for spec, c in zip(fmt.split(","), columns)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if meta:
            tokens = (f"{k}={v:.17g}" if isinstance(v, float) else f"{k}={v}" for k, v in meta.items())
            fh.write("# " + " ".join(tokens) + "\n")
        fh.write(header + "\n")
        fh.write("\n".join([*map(",".join, zip(*texts)), ""]))  # each row ends in \n
