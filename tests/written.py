"""An independent parse of a table the package writes and does not read
back (a pattern, a g2 histogram or a spot table), so the tests pin the
writer's format without a reader in the package."""
import csv
from pathlib import Path


def read_written(path):
    """(meta, rows) of a written table: the ``key=value`` tokens of its
    ``#`` comment lines, and each other line after the header as a dict of
    column name to field text."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    comments = [line[1:] for line in lines if line.startswith("#")]
    meta = dict(token.split("=", 1) for line in comments for token in line.split())
    rows = list(csv.DictReader(line for line in lines if not line.startswith("#")))
    return meta, rows
