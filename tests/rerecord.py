"""Write a golden file, first printing every line that the write moves.

Each golden test's ``__main__`` block re-records its file through
write_golden, so a re-record lists each moved line (old -> new), as a
change that is meant to move the numbers has to.
"""

from itertools import zip_longest
from pathlib import Path


def write_golden(path: Path, text: str) -> None:
    """Print each line of path that text changes, as ``name:line: old ->
    new``, and the count of them; then write text to path as UTF-8."""
    old = path.read_text(encoding="utf-8").splitlines() if path.exists() else []
    moved = 0
    for i, (was, now) in enumerate(zip_longest(old, text.splitlines(), fillvalue="(no line)"), 1):
        if was != now:
            moved += 1
            print(f"{path.name}:{i}: {was} -> {now}")
    print(f"{path.name}: {moved} line(s) moved")
    path.write_text(text, encoding="utf-8")
