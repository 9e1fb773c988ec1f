"""Every scenario report and every curve table pinned to the last byte.

The golden file holds each scenario's ``to_text()`` with its ``(… ms)``
timing stripped, and the SHA-256 of each curve table (family, columns,
description, dtype, shape and row bytes) for every family and the ``fig3``
alias at several step counts.  A refactor of the scenario or curve builders
that moves any digit, check, note or column shows up as a line difference.
Re-record it (only when a change is meant to move the output) with
``PYTHONPATH=src python tests/test_scenarios_golden.py``, which prints each
line it moves (old -> new) before it writes.
"""

import hashlib
import re
from pathlib import Path

import pytest

from ifsim import FAMILY_IDS, SCENARIO_IDS, run_scenario, sweep_curve

GOLDEN = Path(__file__).parent / "golden_scenarios.txt"
STEPS = (2, 7, 101, 361)
TIMING = re.compile(r"  \([0-9.]+ ms\)$", re.M)


def table_digest(family: str, steps: int) -> str:
    table = sweep_curve(family, steps)
    h = hashlib.sha256()
    for part in (table.family, ",".join(table.columns), table.description,
                 str(table.rows.dtype), str(table.rows.shape)):
        h.update(part.encode() + b"\0")
    h.update(table.rows.tobytes())
    return h.hexdigest()


def golden_lines() -> list[str]:
    lines = []
    for sid in SCENARIO_IDS:
        lines += TIMING.sub("", run_scenario(sid).to_text()).splitlines()
    for family in FAMILY_IDS + ("fig3",):
        lines += [f"sha256(sweep_curve({family!r}, {n})) = {table_digest(family, n)}"
                  for n in STEPS]
    return lines


def test_scenarios_and_curves_match_golden():
    assert golden_lines() == GOLDEN.read_text(encoding="utf-8").splitlines()


@pytest.mark.parametrize("sid", SCENARIO_IDS)
def test_scenario_is_timed(sid):
    assert run_scenario(sid).wall_time > 0.0


if __name__ == "__main__":
    from rerecord import write_golden

    write_golden(GOLDEN, "\n".join(golden_lines()) + "\n")
