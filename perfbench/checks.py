"""Correctness checks on one simulated scenario."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from typing import List

from repro.experiments.scenario import Scenario
from repro.metrics.report import MetricsReport


def report_digest(report: MetricsReport) -> str:
    """sha256 of the report's canonical JSON (sorted keys, exact floats)."""
    payload = json.dumps(dataclasses.asdict(report), sort_keys=True, allow_nan=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def accounting_errors(scenario: Scenario, report: MetricsReport) -> List[str]:
    """Packet-accounting violations of a finished scenario (empty if none)."""
    errors = []
    c = scenario.metrics
    if report.delivered > report.generated:
        errors.append(f"delivered {report.delivered} > generated {report.generated}")
    if report.delivered + report.total_drops > report.generated:
        errors.append(
            f"delivered {report.delivered} + drops {report.total_drops} "
            f"> generated {report.generated}"
        )
    if sum(c.flow_generated.values()) != report.generated:
        errors.append(
            f"per-flow generated sums to {sum(c.flow_generated.values())}, "
            f"not {report.generated}"
        )
    if sum(c.flow_delivered.values()) != report.delivered:
        errors.append(
            f"per-flow delivered sums to {sum(c.flow_delivered.values())}, "
            f"not {report.delivered}"
        )
    for name in ("avg_delay_ms", "delivery_pct", "overhead_kbps", "avg_link_throughput_kbps"):
        if not math.isfinite(getattr(report, name)):
            errors.append(f"{name} is not finite")
    return errors
