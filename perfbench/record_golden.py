"""Write perfbench/golden.json: each workload command's stdout, with the
runtimeMs fields removed, and its exit code, at the current source tree.

    python3 perfbench/record_golden.py

Seeded commands run at two seeds; the seed's digits are replaced by a
placeholder, and the two outputs must then agree, so one entry serves every
seed.  Golden outputs are recorded once and then only compared: re-record
only when a change is meant to alter an output, and say so.
"""

from __future__ import annotations

import json
import sys
import time

from run import (GOLDEN, RUN_BUDGET_S, SEED_PLACEHOLDER, WORKLOADS, canonical,
                 spawn)

SEEDS = (424242, 987654321)


def record(template: str) -> dict:
    seeded = "{seed}" in template
    entries = []
    for seed in SEEDS if seeded else SEEDS[:1]:
        argv = template.format(seed=seed).split()
        got = spawn("run", time.monotonic() + RUN_BUDGET_S, [argv])["commands"][0]
        if got["error"] is not None:
            raise SystemExit(f"{template}: raised {got['error']}")
        stdout = canonical(got["stdout"])
        if seeded:
            stdout = stdout.replace(str(seed), SEED_PLACEHOLDER)
        entries.append({"exit": got["exit"], "stdout": stdout})
    if any(e != entries[0] for e in entries):
        raise SystemExit(f"{template}: output depends on the seed beyond its echo")
    return entries[0]


def main() -> int:
    templates = sorted({t for ts in WORKLOADS.values() for t in ts})
    golden = {}
    for template in templates:
        golden[template] = record(template)
        print(f"exit {golden[template]['exit']}: {template}", file=sys.stderr)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
