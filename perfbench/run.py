"""Run one benchmark workload against the ``repro`` sources of this checkout.

    python3 perfbench/run.py --workload churn-heal --seed 0 --seconds 12 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see ``perfbench/README.md``).  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exits 2 without a result when the checkout has
no ``src/repro`` or the workload name is unknown.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import (
        END_TO_END,
        PER_LAYER,
        WORKLOADS,
        end_to_end_metrics,
        measure,
        per_layer_metrics,
    )

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    out = ROOT / ".perfbench-work"
    work = out / f"{workload.name}-{os.getpid()}"
    try:
        runner, probe, tracer, stats = measure(
            ROOT, workload, args.seed, args.seconds, bool(args.trace), work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if tracer is None:
        values, units = end_to_end_metrics(runner, probe), END_TO_END
    else:
        values, units = per_layer_metrics(runner, probe, tracer, stats), PER_LAYER
        tracer.write_jsonl(out / f"spans-{workload.name}-seed{args.seed}.jsonl")
    for name, value in values.items():
        print(f"{name:48s} {value:14.6g} {units[name][0]}")
    if tracer is None:
        print(f"unscaled (host kernel {runner.host.kernel_s * 1e3:.2f} ms):", end="")
        for name, value in end_to_end_metrics(runner, probe, scaled=False).items():
            print(f" {name}={value:.6g}", end="")
        print()
    print(f"attempted {runner.attempted}, failed {runner.failed}")
    print(
        json.dumps(
            {
                "correct": runner.failed == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name][0]}
                    for name, value in values.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
