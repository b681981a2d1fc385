"""CI gate: the work a ladder workload does is pinned, count by count.

    python3 .github/check_ladder_counts.py            # compare, exit 1 on any difference
    python3 .github/check_ladder_counts.py --update   # re-cut ladder_counts.json

Runs ``benchmarks/ladder/run.py --workload <w> --seed 1 --seconds 2 --trace 1``
for each workload in ``ladder_counts.json`` and compares every metric of the
compile and execution layers (``sql.*``, ``qgm.*``, ``rewrite.*``, ``plan.*``,
``exec.*``) whose unit is ``count`` with the committed value. The execution
counts are the paper's claims (invocations, rows scanned / joined / grouped),
the compile counts say the same query went through the same front end
(tokens, boxes built and rewritten, boxes planned); all repeat exactly, so
"cheaper work, not less of it" is checked to the row. A change that means to
do less work re-cuts the file, on purpose, in the same commit.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PINNED = HERE / "ladder_counts.json"
RUN = HERE.parent / "benchmarks" / "ladder" / "run.py"
LAYERS = ("sql.", "qgm.", "rewrite.", "plan.", "exec.")


def measure(workload: str) -> tuple[dict[str, int], int]:
    """(the pinned layers' counts, ``failed``) of one traced run."""
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1",
         "--seconds", "2", "--trace", "1"],
        stdout=subprocess.PIPE, check=True,
    )
    payload = json.loads(done.stdout.decode().splitlines()[-1])
    counts = {
        name: entry["value"] for name, entry in payload["metrics"].items()
        if name.startswith(LAYERS) and entry["unit"] == "count"
    }
    return counts, payload["failed"]


def main(argv: list[str]) -> int:
    pinned = json.loads(PINNED.read_text())
    if argv == ["--update"]:
        PINNED.write_text(json.dumps(
            {workload: measure(workload)[0] for workload in pinned}, indent=2
        ) + "\n")
        return 0
    bad = 0
    for workload, expected in pinned.items():
        counts, failed = measure(workload)
        moved = {
            name: (expected.get(name), counts.get(name))
            for name in sorted(set(expected) | set(counts))
            if expected.get(name) != counts.get(name)
        }
        for name, (was, now) in moved.items():
            print(f"{workload}: {name} pinned {was}, measured {now}")
        if failed:
            print(f"{workload}: failed {failed}")
        bad += len(moved) + failed
        print(f"{workload}: {len(counts)} counts, {len(moved)} moved, failed {failed}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
