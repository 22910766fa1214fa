"""Shared helpers for the benchmark suite.

Every benchmark reproduces one claim of the paper, named in its module
docstring.  The pattern is:

* build the workload and adversary the claim names,
* run the experiment(s) once inside ``benchmark.pedantic(..., rounds=1)`` so
  pytest-benchmark reports the wall-clock cost of reproducing the claim,
* print the paper-style table/series so the captured ``bench_output.txt``
  contains the actual numbers being compared.
"""

from __future__ import annotations

import pytest


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Replay each benchmark's printed tables at the end of the run.

    pytest captures per-test stdout, so the paper-style tables the benchmarks
    print would normally be invisible on success; this hook re-emits them in
    the terminal summary so ``bench_output.txt`` contains the actual numbers
    being compared against the paper.
    """
    sections = []
    for outcome in ("passed", "failed"):
        for report in terminalreporter.getreports(outcome):
            if getattr(report, "when", "call") != "call":
                continue
            captured = getattr(report, "capstdout", "")
            if captured and "===" in captured:
                sections.append((report.nodeid, captured))
    if not sections:
        return
    terminalreporter.section("Xheal reproduction — paper-style tables")
    for nodeid, captured in sections:
        terminalreporter.write_line(f"\n##### {nodeid}")
        terminalreporter.write_line(captured.rstrip())


@pytest.fixture
def run_once(benchmark):
    """Run a callable exactly once under pytest-benchmark and return its result."""

    def runner(func, *args, **kwargs):
        return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner
