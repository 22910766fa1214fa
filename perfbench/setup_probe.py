"""Measure what a user pays before the first event, in a fresh interpreter.

Run as ``python3 setup_probe.py <src dir> <spec JSON> <sweep points>``.  The
clock starts after this script's own imports, so it covers only:

* ``import_s`` — importing the public ``repro`` API a workload uses
  (``ScenarioSpec``/``SweepSpec``, ``run_experiment``, ``run_scenarios``),
  which pulls in numpy, scipy and networkx;
* ``compile_s`` — spec validation and compilation: registry population
  (provider modules and entry points), topology generation and, for sweeps
  (``sweep points`` > 0), the expansion of the replicate grid.

Afterwards, untimed, it reads this process's host speed with the
calibration kernel (``kernel_s``, fastest of five), so the caller can scale
the set-up time by the speed of the CPU this process actually ran on.

Prints one JSON object ``{"import_s": ..., "compile_s": ..., "kernel_s": ...}``.
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    start = time.perf_counter()
    src, spec_json, sweep_points = sys.argv[1], sys.argv[2], int(sys.argv[3])
    sys.path.insert(0, src)
    from repro.harness.experiment import run_experiment  # noqa: F401
    from repro.scenarios import ScenarioSpec, SweepSpec, run_scenarios  # noqa: F401

    imported = time.perf_counter()
    spec = ScenarioSpec.from_dict(json.loads(spec_json))
    if sweep_points:
        SweepSpec(base=spec, replicates=sweep_points).expand()
    else:
        spec.compile()
    compiled = time.perf_counter()

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from perfbench.calibration import HostSpeed

    host = HostSpeed()
    host.sample(repeats=5)
    print(
        json.dumps(
            {
                "import_s": imported - start,
                "compile_s": compiled - imported,
                "kernel_s": host.kernel_s,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
