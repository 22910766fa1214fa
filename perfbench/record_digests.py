"""Rewrite ``digests.json``: the pinned outputs of the benchmark's default seed.

    python3 perfbench/record_digests.py

Simulation workloads pin the SHA-256 of each instance's ``summary_row()``;
the sweep workloads share one entry (every backend must produce the same
directory), holding the cost-stripped manifest digest and per-point
artifact digests.
Rerun it only for a change that is meant to alter these outputs.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.harness.experiment import run_experiment  # noqa: E402
from repro.scenarios import ScenarioSpec, run_scenarios  # noqa: E402

from perfbench.workloads import (  # noqa: E402
    DEFAULT_SEED,
    DIGESTS_PATH,
    WORKLOADS,
    row_digest,
    sweep_digest,
)


def main() -> int:
    digests = {}
    for name, workload in WORKLOADS.items():
        if not workload.points:
            digests[name] = [
                row_digest(
                    run_experiment(
                        ScenarioSpec.from_dict(workload.spec_dict(DEFAULT_SEED, i)).compile()
                    ).summary_row()
                )
                for i in range(workload.instances)
            ]
        elif "sweep-stream" not in digests:
            directory = ROOT / ".perfbench-work" / "record-digests"
            shutil.rmtree(directory, ignore_errors=True)
            run_scenarios(workload.sweep_specs(DEFAULT_SEED), stream_to=directory, executor="serial")
            digests["sweep-stream"] = sweep_digest(directory, workload.points)
            shutil.rmtree(directory)
    DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
