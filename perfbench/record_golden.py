"""Record the CLI outputs that the cli workload checks against.

    python3 perfbench/record_golden.py

Runs every command of the cli mix once, from the repository root, and
writes perfbench/cli_golden.json.  Re-record only when a change to the
program is meant to change a CLI output, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402


def main() -> int:
    golden = {}
    for key, argv in wl.CLI_MIX.items():
        proc = wl.run_child(["-m", "ifsim.cli", *argv])
        golden[key] = {"argv": argv, **wl.golden_entry(proc.returncode, proc.stdout)}
        print(f"{key}: exit {proc.returncode}, {golden[key]['count']} numbers")
    wl.GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
