#!/usr/bin/env python3
"""The repo benchmark: wall seconds per simulated second, with checks.

Run from the repository root::

    python3 perfbench/run.py --workload paper-default --seed 1 --seconds 40 --trace 0

``--trace 0`` simulates the workload's scenario set once in full, then
repeats its scenarios for timing until ``--seconds`` have passed, and
prints the end-to-end metrics.  ``--trace 1`` simulates the leading
``traced`` scenarios untraced and then traced (see ``layers.py``), and
prints the per-layer metrics.  Both check every report (``checks.py``)
and print its digest.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
full record, with provenance, goes to ``perfbench/out/``.

Scenarios run serially in this one process through the public API
(``build_scenario`` then ``Scenario.run``).
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from layers import LAYERS, TOPOLOGY_MUTATORS, LayerTracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

#: Builds per scenario in the first pass; ``setup_s`` uses their median.
BUILDS = 3
#: Seconds the host-speed reference takes on the host the benchmark was
#: defined on (see ``reference_work``).
REFERENCE_S = 0.025

END_TO_END_UNITS = {
    "wall_per_sim_s": "s/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "delivery_pct": "%",
    "avg_delay_ms": "ms",
    "overhead_kbps": "kbps",
    "link_throughput_kbps": "kbps",
}

#: Per-layer counts read from public attributes after each scenario, summed.
_COUNTS = (
    "sim.events",
    "topology.snapshots_built",
    "topology.bucket_moves",
    "channel.samples",
    "mac.transmissions",
    "mac.lost_receptions",
    "mac.collided_transmissions",
    "mac.backoff_drops",
    "net.data_tx",
    "net.retries",
    "net.link_breaks",
    "net.queue_drops",
    "routing.tx.rreq",
    "routing.tx.rrep",
    "routing.tx.reer",
    "routing.tx.csi_check",
    "routing.tx.rupd",
    "routing.discoveries",
    "routing.rreq_suppressed",
    "routing.route_breaks",
    "routing.route_repairs",
    "traffic.generated",
    "faults.crashes",
    "faults.recoveries",
    "faults.dead_next_hop_losses",
)
#: Layers with spans of their own; ``sim`` is the time outside every span.
_SPAN_LAYERS = tuple(layer for layer in LAYERS if layer != "sim")
#: ``faults`` reports counts but no self time: it runs only on fast-churn,
#: at about 5e-6 s/s, and elsewhere its time would read exactly 0 on every
#: run, which no measured time may.
_UNTIMED_LAYERS = ("faults",)


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {name: "count" for name in _COUNTS}
    units["sim.self_s"] = "s/s"
    for layer in _SPAN_LAYERS:
        if layer not in _UNTIMED_LAYERS:
            units[f"{layer}.self_s"] = "s/s"
        units[f"{layer}.calls"] = "count"
    units.update(
        {
            "mobility.position_calls": "count",
            "topology.queries": "count",
            "topology.queries_per_snapshot": "ratio",
            "mac.reception_ratio": "ratio",
            "net.control_batches": "count",
            "routing.discovery_success_ratio": "ratio",
            "routing.repair_latency_ms": "sim_ms",
            "trace.overhead_ratio": "ratio",
            "trace.attributed_share": "ratio",
        }
    )
    return units


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def _git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance() -> Dict[str, Any]:
    import numpy

    sha = dirty = None
    if (ROOT / ".git").exists():  # never let git search above the checkout
        sha = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
    }


# ----------------------------------------------------------------------
# Scenario runs
# ----------------------------------------------------------------------
def scenario_counts(scenario: Any, report: Any) -> Dict[str, float]:
    """Pooling sums and per-layer counts of one finished scenario."""
    c = scenario.metrics
    net = scenario.network
    ev = report.events
    tx = report.control_tx_count
    faults = scenario.fault_injector
    counts: Dict[str, float] = {
        "sim_s": scenario.config.duration_s,
        "generated": report.generated,
        "delivered": report.delivered,
        "delay_sum_s": c.delay_sum_s,
        "overhead_bits": sum(c.control_bits.values()) + c.ack_bits,
        "measured_s": c.measured_duration,
        "hops": c.hops_sum,
        "link_rate_sum_bps": c.link_rate_sum_bps,
        "routing.routes_established": ev.get("route_established", 0),
        "routing.repair_latency_sum_s": c.repair_latency_sum_s,
        "sim.events": scenario.sim.events_processed,
        "topology.snapshots_built": net.topology.snapshots_built,
        "topology.bucket_moves": net.topology.bucket_moves,
        "channel.samples": net.channel.samples_taken,
        "mac.transmissions": net.medium.total_transmissions,
        "mac.lost_receptions": net.medium.lost_receptions,
        "mac.collided_transmissions": net.medium.collided_transmissions,
        "mac.backoff_drops": ev.get("mac_backoff_drop", 0),
        "net.data_tx": sum(node.datalink.transmissions for node in net.nodes()),
        "net.retries": ev.get("datalink_retry", 0),
        "net.link_breaks": ev.get("link_break_detected", 0),
        "net.queue_drops": report.drops.get("queue_full", 0)
        + report.drops.get("residence_timeout", 0),
        "routing.discoveries": ev.get("discovery_started", 0),
        "routing.rreq_suppressed": ev.get("rreq_suppressed", 0),
        "routing.route_breaks": report.route_breaks,
        "routing.route_repairs": report.route_repairs,
        "traffic.generated": report.generated,
        "faults.crashes": faults.crashes if faults else 0,
        "faults.recoveries": faults.recoveries if faults else 0,
        "faults.dead_next_hop_losses": report.dead_next_hop_losses,
    }
    for kind in ("rreq", "rrep", "reer", "csi_check", "rupd"):
        counts[f"routing.tx.{kind}"] = tx.get(kind, 0)
    return counts


def reference_work() -> float:
    """Fixed pure-Python work (heap, dict, float math) that times the host.

    The shared host's speed drifts by tens of percent within minutes, for
    the simulator and this loop alike.  Timing this loop around every
    scenario run lets the timed metrics be scaled to a fixed host speed.
    """
    rng = random.Random(7)
    heap: List[Tuple[float, int]] = []
    table: Dict[int, float] = {}
    acc = 0.0
    for i in range(20000):
        x = rng.random()
        heapq.heappush(heap, (x, i))
        table[i & 1023] = table.get(i & 1023, 0.0) + x
        acc += math.hypot(x, 1.0 - x)
        if len(heap) > 256:
            heapq.heappop(heap)
    return acc


def time_reference() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def _add(total: Dict[str, float], counts: Dict[str, float]) -> None:
    for key, value in counts.items():
        total[key] = total.get(key, 0) + value


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Bench:
    """Runs, checks and records the scenarios of one benchmark run."""

    def __init__(self, workload: Any, seeds: List[int]) -> None:
        self.workload = workload
        self.seeds = seeds
        self.attempted = 0
        self.failed = 0
        #: Per scenario seed: its digests (first run first) and timed runs.
        self.records: Dict[int, Dict[str, Any]] = {
            s: {"seed": s, "digests": [], "runs": []} for s in seeds
        }
        #: Pooling sums and counts of each seed's first complete run.
        self.counts: Dict[int, Dict[str, float]] = {}
        #: Event-callback kinds fired by the untraced runs.
        self.kinds: set = set()

    def build(self, seed: int, duration_s: float = 0.0) -> Any:
        from repro.experiments.scenario import build_scenario

        return build_scenario(self.workload.scenario(seed, duration_s))

    def simulate(self, seed: int, builds: int = 1) -> Optional[float]:
        """Build (timed, ``builds`` times), run (timed) and check one
        scenario; returns the run's wall seconds, or None if it failed."""
        self.attempted += 1
        load_before = os.getloadavg()[0]
        ref_before = time_reference()
        build_s = []
        try:
            for _ in range(builds):
                start = time.perf_counter()
                scenario = self.build(seed)
                build_s.append(time.perf_counter() - start)
            start = time.perf_counter()
            report = scenario.run()
            wall = time.perf_counter() - start
        except Exception:  # a crashing scenario is a failed run, not a crashed benchmark
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        ref_after = time_reference()
        self.kinds.update(scenario.sim.event_kind_counts)
        if not self.check(seed, scenario, report, "untraced"):
            return None
        self.records[seed]["runs"].append(
            {
                "build_s": build_s,
                "wall_s": wall,
                "reference_s": [ref_before, ref_after],
                "loadavg": [load_before, os.getloadavg()[0]],
            }
        )
        del scenario
        gc.collect()
        return wall

    def check(self, seed: int, scenario: Any, report: Any, label: str) -> bool:
        """Digest and accounting checks; counts the run failed on a miss."""
        from checks import accounting_errors, report_digest

        digests = self.records[seed]["digests"]
        digest = report_digest(report)
        errors = accounting_errors(scenario, report)
        if digests and digest != digests[0]:
            errors.append(f"{label} digest {digest} != first run's {digests[0]}")
        digests.append(digest)
        if errors:
            for error in errors:
                print(f"CHECK FAILED seed {seed} ({label}): {error}", file=sys.stderr)
            self.failed += 1
            return False
        if seed not in self.counts:
            self.counts[seed] = scenario_counts(scenario, report)
        return True


def end_to_end(bench: Bench) -> Dict[str, float]:
    """The end-to-end metrics; timings are per-scenario medians over the
    scenario's runs, each scaled to the reference host speed."""
    wall = setup = sim_s = 0.0
    for record in bench.records.values():
        runs = record["runs"]
        if not runs:
            continue
        scales = [REFERENCE_S / statistics.mean(run["reference_s"]) for run in runs]
        wall += statistics.median(run["wall_s"] * k for run, k in zip(runs, scales))
        setup += statistics.median(b * k for run, k in zip(runs, scales) for b in run["build_s"])
        sim_s += bench.counts[record["seed"]]["sim_s"]
    p: Dict[str, float] = {}
    for counts in bench.counts.values():
        _add(p, counts)
    return {
        "wall_per_sim_s": _ratio(wall, sim_s),
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "delivery_pct": 100.0 * _ratio(p.get("delivered", 0), p.get("generated", 0)),
        "avg_delay_ms": 1000.0 * _ratio(p.get("delay_sum_s", 0), p.get("delivered", 0)),
        "overhead_kbps": _ratio(p.get("overhead_bits", 0), p.get("measured_s", 0)) / 1000.0,
        "link_throughput_kbps": _ratio(p.get("link_rate_sum_bps", 0), p.get("hops", 0)) / 1000.0,
    }


def run_untraced(bench: Bench, seconds: float) -> Dict[str, float]:
    """Every scenario once in full, then timing repeats until the deadline."""
    deadline = time.perf_counter() + seconds
    for seed in bench.seeds:
        bench.simulate(seed, builds=BUILDS)
    i = 0
    while time.perf_counter() < deadline:
        bench.simulate(bench.seeds[i % len(bench.seeds)])
        i += 1
    return end_to_end(bench)


def run_traced(bench: Bench) -> Tuple[Dict[str, float], List[str]]:
    """The leading scenarios untraced, then traced; per-layer metrics."""
    seeds = bench.seeds[: bench.workload.traced]
    untraced_wall = sum(bench.simulate(seed) or 0.0 for seed in seeds)

    tracer = LayerTracer()
    traced_wall = 0.0
    counts: Dict[str, float] = {}
    with tracer.installed():
        built = []
        for seed in seeds:
            bench.attempted += 1
            try:
                built.append((seed, bench.build(seed)))
            except Exception:
                traceback.print_exc(file=sys.stderr)
                bench.failed += 1
        tracer.reset()
        for seed, scenario in built:
            start = time.perf_counter()
            try:
                report = scenario.run()
            except Exception:
                traceback.print_exc(file=sys.stderr)
                bench.failed += 1
                continue
            traced_wall += time.perf_counter() - start
            if bench.check(seed, scenario, report, "traced"):
                _add(counts, scenario_counts(scenario, report))
        del built
    gc.collect()

    unmapped = sorted(tracer.missing + [k for k in bench.kinds if not tracer.callbacks.get(k)])
    sim_s = counts.get("sim_s", 0.0)
    layers = tracer.layer_totals()
    metrics: Dict[str, float] = {name: counts.get(name, 0) for name in _COUNTS}
    metrics["sim.self_s"] = _ratio(traced_wall - tracer.in_span_s, sim_s)
    for layer in _SPAN_LAYERS:
        self_s, calls = layers[layer]
        metrics[f"{layer}.self_s"] = _ratio(self_s, sim_s)
        metrics[f"{layer}.calls"] = calls
    decoded = tracer.slot_calls("net", lambda n: n == "Node.receive_control")
    queries = tracer.slot_calls("topology", lambda n: n.rsplit(".", 1)[-1] not in TOPOLOGY_MUTATORS)
    metrics.update(
        {
            "mobility.position_calls": tracer.slot_calls("mobility", lambda n: n.endswith(".position")),
            "topology.queries": queries,
            "topology.queries_per_snapshot": _ratio(queries, counts.get("topology.snapshots_built", 0)),
            "mac.reception_ratio": _ratio(decoded, decoded + counts.get("mac.lost_receptions", 0)),
            "net.control_batches": tracer.slot_calls("net", lambda n: n == "Network.deliver_control_batch"),
            "routing.discovery_success_ratio": _ratio(
                counts.get("routing.routes_established", 0), counts.get("routing.discoveries", 0)
            ),
            "routing.repair_latency_ms": 1000.0
            * _ratio(counts.get("routing.repair_latency_sum_s", 0), counts.get("routing.route_repairs", 0)),
            "trace.overhead_ratio": _ratio(traced_wall, untraced_wall),
            "trace.attributed_share": _ratio(tracer.in_span_s, traced_wall),
        }
    )
    return metrics, unmapped


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timing budget of a --trace 0 run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    info = provenance()
    info["loadavg_before"] = os.getloadavg()[0]
    seeds = workload.scenario_seeds(args.seed)
    bench = Bench(workload, seeds)
    # Untimed warm-up: imports, numpy and first-call paths settle here.  A
    # failure shows again, and is counted, in the measured runs.
    try:
        bench.build(seeds[0], workload.sim_s / 10.0).run()
    except Exception:
        traceback.print_exc(file=sys.stderr)
    gc.collect()

    unmapped: List[str] = []
    if args.trace:
        values, unmapped = run_traced(bench)
        units = per_layer_units()
    else:
        values = run_untraced(bench, args.seconds)
        units = END_TO_END_UNITS
    info["loadavg_after"] = os.getloadavg()[0]
    correct = bench.failed == 0

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  scenarios {len(seeds)}")
    print("provenance " + json.dumps(info, sort_keys=True))
    for record in bench.records.values():
        if record["digests"]:
            print(f"digest scenario-seed {record['seed']:>10} {record['digests'][0]}  runs {len(record['digests'])}")
    for name in units:
        print(f"{name:36s} {values[name]:>16.6g} {units[name]}")
    for name in unmapped:
        print(f"WARNING: no layer owns {name}; its time is counted under sim", file=sys.stderr)
    print(f"checks {'passed' if correct else 'FAILED'}: {bench.attempted - bench.failed}/{bench.attempted} scenario runs")

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {"correct": correct, "attempted": bench.attempted, "failed": bench.failed, "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(
        json.dumps(
            {**result, "workload": workload.name, "seed": args.seed, "provenance": info,
             "unmapped": unmapped, "scenarios": list(bench.records.values())},
            indent=1,
            sort_keys=True,
        )
    )
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
