"""Record the expected verdict of every job any seed can draw.

Run from the repository root:

    python3 perfbench/record.py

It runs each job of every slot on every word of the slot's length, at both
sizes and at the current code, and writes the status, the work counters and
their digest to perfbench/expected.json. The benchmark then fails any job
whose verdict differs, so a later change cannot buy speed with a weaker
check. Re-record only when a change is meant to alter a report.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402  (needs src on the path)

EXPECTED = Path(__file__).resolve().parent / "expected.json"


def main() -> int:
    expected = {}
    for name in sorted(wl.WORKLOADS):
        for size in wl.SIZES:
            for slot in wl.WORKLOADS[name]:
                words = slot.words()
                for word in words:
                    jobs = wl.slot_jobs(name, slot, word, size)
                    seq = None if jobs[0].call.api == "cli.verify" else wl.build_sequence(jobs[0])
                    for job in jobs:
                        expected[job.id] = wl.verdict(job, wl.invoke(job, seq))
                print(f"{name} {size} {slot.family} n={slot.n}: {len(words)} words", flush=True)
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
