"""Shared benchmark machinery.

Every paper figure panel has a benchmark that (a) regenerates the panel's
rows/series at a laptop-friendly scale and prints them next to the paper's
expectation, and (b) asserts the robust *shape* claims of the paper (who
wins, what explodes).  Absolute numbers are not asserted — the substrate
is a simulator, not the authors' testbed (see EXPERIMENTS.md).

Scale knobs (environment variables):

* ``REPRO_BENCH_DURATION`` — simulated seconds per run (default 15).
* ``REPRO_BENCH_TRIALS`` — trials per data point (default 1).
* ``REPRO_BENCH_PAPER_SCALE=1`` — the full 500 s x 25-trial grid.
* ``REPRO_BENCH_RECORD=1`` — write the ``BENCH_<name>.json`` records at
  session end (off by default, so a plain test run leaves the tree
  clean; every benchmark assertion runs either way).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.experiments.figures import run_figure

BENCH_DURATION = float(os.environ.get("REPRO_BENCH_DURATION", "15"))
BENCH_TRIALS = int(os.environ.get("REPRO_BENCH_TRIALS", "1"))
PAPER_SCALE = os.environ.get("REPRO_BENCH_PAPER_SCALE", "") == "1"
RECORD = os.environ.get("REPRO_BENCH_RECORD", "") == "1"
BENCH_SPEEDS = [0.0, 36.0, 72.0]

#: Where micro-benchmark JSON artefacts land (repo root, next to this dir).
BENCH_ARTIFACT_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="session")
def bench_json_recorder():
    """Collect named benchmark records; write ``BENCH_<name>.json`` files.

    A test grabs the recorder and calls ``recorder(name, payload)``; with
    ``REPRO_BENCH_RECORD=1``, every distinct ``name`` is serialised at
    session end to ``BENCH_<name>.json`` in the repo root so the perf
    trajectory of a subsystem is tracked across changes.
    """
    records = {}

    def record(name: str, payload: dict) -> None:
        records.setdefault(name, {}).update(payload)

    yield record
    if not RECORD:
        return
    for name, payload in records.items():
        path = os.path.join(BENCH_ARTIFACT_DIR, f"BENCH_{name}.json")
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)


def run_figure_once(figure_id: str, benchmark, speeds=None):
    """Execute one figure experiment exactly once under pytest-benchmark."""
    result = benchmark.pedantic(
        run_figure,
        kwargs=dict(
            figure_id=figure_id,
            duration_s=None if PAPER_SCALE else BENCH_DURATION,
            trials=None if PAPER_SCALE else BENCH_TRIALS,
            seed=1,
            paper_scale=PAPER_SCALE,
            speeds_kmh=None if PAPER_SCALE else (speeds or BENCH_SPEEDS),
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print(f"# paper expectation: {result.spec.paper_expectation}")
    print(result.format_table())
    return result


@pytest.fixture
def figure_runner(benchmark):
    """Fixture handing benchmarks the one-shot figure runner."""

    def runner(figure_id: str, speeds=None):
        return run_figure_once(figure_id, benchmark, speeds=speeds)

    return runner
