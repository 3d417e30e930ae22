"""repro — a full reproduction of RICA (Lin, Kwok & Lau, ICDCS 2002).

A discrete-event simulator for ad hoc mobile networks with a time-varying
(fast fading + shadowing) channel quantised into four ABICM throughput
classes, a multi-code CDMA MAC with a contended CSMA/CA common channel,
and five routing protocols: **RICA** (the paper's receiver-initiated
channel-adaptive protocol), **BGCA**, **ABR**, **AODV** and **link state**.

Quickstart::

    from repro import ScenarioConfig, run_scenario

    report = run_scenario(ScenarioConfig(
        protocol="rica", mean_speed_kmh=36.0, rate_pps=10.0,
        duration_s=30.0, seed=7,
    ))
    print(report.summary())

Figure reproduction::

    from repro import run_figure
    print(run_figure("fig2a").format_table())

See docs/ARCHITECTURE.md for the system inventory and EXPERIMENTS.md for
the paper-vs-measured record of every figure.
"""

from repro.version import __version__
from repro.channel import ChannelClass, ChannelConfig, ChannelModel
from repro.core import RicaConfig, RicaProtocol
from repro.experiments import (
    FigureResult,
    FigureSpec,
    Scenario,
    ScenarioConfig,
    build_scenario,
    figure_spec,
    list_figures,
    run_figure,
    run_scenario,
    run_speed_sweep,
    run_trials,
)
from repro.experiments import (
    CampaignResult,
    CampaignSpec,
    CellFailure,
    CellOutcome,
    ExecutionBackend,
    ProcessPoolBackend,
    RetryPolicy,
    SerialBackend,
    load_results,
    run_campaign,
    save_results,
)
from repro.faults import (
    BlackoutConfig,
    EnergyFaultConfig,
    FaultConfig,
    FaultInjector,
    FaultSchedule,
    NodeChurnConfig,
    NodeOutage,
)
from repro.metrics import MetricsCollector, MetricsReport
from repro.metrics.energy import EnergyModel
from repro.routing import available_protocols, create_protocol
from repro.sim import RandomStreams, Simulator
from repro.topology import TopologyIndex
from repro.trace import TraceEvent, Tracer

__all__ = [
    "__version__",
    "ChannelClass",
    "ChannelConfig",
    "ChannelModel",
    "RicaConfig",
    "RicaProtocol",
    "FigureResult",
    "FigureSpec",
    "Scenario",
    "ScenarioConfig",
    "build_scenario",
    "figure_spec",
    "list_figures",
    "run_figure",
    "run_scenario",
    "run_speed_sweep",
    "run_trials",
    "MetricsCollector",
    "MetricsReport",
    "EnergyModel",
    "available_protocols",
    "create_protocol",
    "RandomStreams",
    "Simulator",
    "CampaignResult",
    "CampaignSpec",
    "CellFailure",
    "CellOutcome",
    "ExecutionBackend",
    "ProcessPoolBackend",
    "RetryPolicy",
    "SerialBackend",
    "TopologyIndex",
    "load_results",
    "run_campaign",
    "save_results",
    "BlackoutConfig",
    "EnergyFaultConfig",
    "FaultConfig",
    "FaultInjector",
    "FaultSchedule",
    "NodeChurnConfig",
    "NodeOutage",
    "TraceEvent",
    "Tracer",
]
