"""Outside-in per-layer tracing of a scenario run.

The simulator is not edited.  For the length of a traced run the tracer
replaces, on the classes themselves, each layer's public boundary
functions (:data:`BOUNDARIES`) with span wrappers, and routes every event
callback scheduled through ``Simulator.schedule_at`` (and every
``PeriodicTimer`` callback) through a span of the callback's layer.

A span's *self* time is its duration minus the time its child spans
cover, so the self times of all spans plus the time outside every span
add up to the traced wall time.  Time outside every span is the engine's
own loop and is reported as the ``sim`` layer.

Layers are the ``repro`` subpackages; ``geometry`` counts as
``topology`` and ``core`` (RICA) as ``routing``.
"""

from __future__ import annotations

import fnmatch
import functools
import importlib
import inspect
import pkgutil
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

LAYERS = (
    "sim",
    "mobility",
    "topology",
    "channel",
    "mac",
    "net",
    "routing",
    "traffic",
    "metrics",
    "faults",
)
_ALIASES = {"geometry": "topology", "core": "routing"}

#: The wrapped layer boundaries: (class, name patterns).  Each pattern is
#: applied to the class and to every subclass that defines a matching
#: plain function itself, so protocol and mobility overrides are covered.
BOUNDARIES: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("repro.mobility.base.MobilityModel", ("position", "speed_at")),
    ("repro.topology.index.TopologyIndex", ("[!_]*",)),
    ("repro.channel.model.ChannelModel", ("[!_]*",)),
    ("repro.mac.medium.CommonChannelMedium", ("[!_]*",)),
    ("repro.mac.csma.CsmaMac", ("send", "set_enabled")),
    ("repro.net.datalink.DataLink", ("send", "flush", "shutdown")),
    ("repro.net.network.Network", ("deliver_control_batch", "fail_node", "recover_node")),
    ("repro.net.node.Node", ("send_*", "receive_*", "on_link_failure")),
    ("repro.routing.base.RoutingProtocol", ("handle_*",)),
    ("repro.metrics.collector.MetricsCollector", ("record_*",)),
)

#: TopologyIndex methods that change the index rather than query it.
TOPOLOGY_MUTATORS = frozenset({"add", "remove", "set_active", "set_bulk_source"})


def layer_of_module(module: Optional[str]) -> Optional[str]:
    """The layer owning ``module`` (a dotted name), or None."""
    parts = (module or "").split(".")
    if len(parts) < 2 or parts[0] != "repro":
        return None
    layer = _ALIASES.get(parts[1], parts[1])
    return layer if layer in LAYERS else None


def underlying(fn: Any) -> Any:
    """The plain function behind a bound method or ``functools.partial``."""
    while isinstance(fn, functools.partial):
        fn = fn.func
    return getattr(fn, "__func__", fn)


def layer_of(fn: Any) -> Optional[str]:
    """The layer owning callback ``fn``, or None when no layer owns it."""
    return layer_of_module(getattr(underlying(fn), "__module__", None))


def import_layers() -> None:
    """Import every module of every layer package (so subclasses exist)."""
    packages = {f"repro.{p}" for p in LAYERS} | {f"repro.{p}" for p in _ALIASES}
    for name in sorted(packages):
        package = importlib.import_module(name)
        for info in pkgutil.iter_modules(package.__path__, name + "."):
            importlib.import_module(info.name)


def _subclasses(cls: type) -> List[type]:
    seen: List[type] = [cls]
    for sub in cls.__subclasses__():
        for c in _subclasses(sub):
            if c not in seen:
                seen.append(c)
    return seen


def resolve_boundaries() -> Tuple[List[Tuple[type, str]], List[str]]:
    """Every (class, method name) to wrap, plus the boundary entries that
    no longer resolve (a missing class or a pattern matching nothing)."""
    import_layers()
    targets: List[Tuple[type, str]] = []
    missing: List[str] = []
    for path, patterns in BOUNDARIES:
        module_name, _, class_name = path.rpartition(".")
        try:
            base = getattr(importlib.import_module(module_name), class_name)
        except (ImportError, AttributeError):
            missing.append(path)
            continue
        for pattern in patterns:
            found = [
                (cls, name)
                for cls in _subclasses(base)
                for name, value in vars(cls).items()
                if fnmatch.fnmatchcase(name, pattern) and inspect.isfunction(value)
            ]
            if not found:
                missing.append(f"{path}.{pattern}")
            targets.extend(t for t in found if t not in targets)
    return targets, missing


def _call(fn: Callable[..., Any], *args: Any) -> Any:
    return fn(*args)


class LayerTracer:
    """Per-slot span self time and call counts for one traced run.

    A *slot* is one wrapped boundary function, ``(layer, "Class.method")``,
    or the event callbacks of one layer, ``(layer, "<events>")``.
    """

    def __init__(self) -> None:
        self.slots: List[Tuple[str, str]] = []
        self.self_s: List[float] = []
        self.calls: List[int] = []
        #: Time covered by finished spans at the current nesting depth; at
        #: depth 0 it is the total time inside any span.
        self._covered = [0.0]
        #: Qualified name -> layer of every event callback seen.
        self.callbacks: Dict[str, Optional[str]] = {}
        #: Boundary entries that no longer resolve (see resolve_boundaries).
        self.missing: List[str] = []
        self._event_spans: Dict[str, Callable[..., Any]] = {}
        self._resolved: Dict[Any, Optional[str]] = {}

    # ------------------------------------------------------------------
    def _slot(self, layer: str, name: str) -> int:
        self.slots.append((layer, name))
        self.self_s.append(0.0)
        self.calls.append(0)
        return len(self.slots) - 1

    def _span(self, slot: int, fn: Callable[..., Any]) -> Callable[..., Any]:
        self_s = self.self_s
        calls = self.calls
        covered = self._covered
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            outer = covered[0]
            covered[0] = 0.0
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[slot] += elapsed - covered[0]
                calls[slot] += 1
                covered[0] = outer + elapsed

        return span

    def callback_layer(self, fn: Any) -> Optional[str]:
        """Resolve (and remember) the layer of an event callback."""
        key = underlying(fn)
        try:
            return self._resolved[key]
        except KeyError:
            layer = layer_of(fn)
            self._resolved[key] = layer
            name = getattr(key, "__qualname__", None) or type(key).__name__
            self.callbacks[name] = layer
            return layer

    def event_span(self, layer: str) -> Callable[..., Any]:
        """The trampoline ``(fn, *args)`` that runs a callback in a span."""
        span = self._event_spans.get(layer)
        if span is None:
            span = self._span(self._slot(layer, "<events>"), _call)
            self._event_spans[layer] = span
        return span

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero every tally (after the untimed scenario build)."""
        self.self_s[:] = [0.0] * len(self.self_s)
        self.calls[:] = [0] * len(self.calls)
        self._covered[0] = 0.0

    @property
    def in_span_s(self) -> float:
        """Wall seconds spent inside any span since the last reset."""
        return self._covered[0]

    def layer_totals(self) -> Dict[str, Tuple[float, int]]:
        """Layer -> (self seconds, span count)."""
        totals = {layer: [0.0, 0] for layer in LAYERS}
        for (layer, _), s, n in zip(self.slots, self.self_s, self.calls):
            totals[layer][0] += s
            totals[layer][1] += n
        return {layer: (s, n) for layer, (s, n) in totals.items()}

    def slot_calls(self, layer: str, predicate: Callable[[str], bool]) -> int:
        """Span count of the ``layer`` boundary functions whose name matches."""
        return sum(
            n
            for (lay, name), n in zip(self.slots, self.calls)
            if lay == layer and name != "<events>" and predicate(name)
        )

    # ------------------------------------------------------------------
    @contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        """Wrap the boundaries and the scheduler; restore them on exit.

        Objects built inside the block keep references to wrapped methods
        (bound methods captured at construction), so build *and* run the
        traced scenario inside it, and discard it afterwards.
        """
        from repro.sim.engine import Simulator
        from repro.sim.timers import PeriodicTimer

        targets, self.missing = resolve_boundaries()
        saved: List[Tuple[type, str, Any]] = []
        for cls, name in targets:
            fn = vars(cls)[name]
            layer = layer_of_module(cls.__module__)
            if layer is None:
                continue
            saved.append((cls, name, fn))
            setattr(cls, name, self._span(self._slot(layer, f"{cls.__qualname__}.{name}"), fn))

        schedule_at = Simulator.schedule_at
        timer_init = PeriodicTimer.__init__
        tracer = self

        def traced_schedule_at(sim: Any, when: float, fn: Any, *args: Any) -> Any:
            layer = tracer.callback_layer(fn)
            if layer is None or layer == "sim":
                return schedule_at(sim, when, fn, *args)
            return schedule_at(sim, when, tracer.event_span(layer), fn, *args)

        def traced_timer_init(timer: Any, sim: Any, interval: float, fn: Any, *args: Any, **kw: Any) -> None:
            layer = tracer.callback_layer(fn)
            if layer is not None and layer != "sim":
                fn = functools.partial(tracer.event_span(layer), fn)
            timer_init(timer, sim, interval, fn, *args, **kw)

        saved.append((Simulator, "schedule_at", schedule_at))
        saved.append((PeriodicTimer, "__init__", timer_init))
        Simulator.schedule_at = traced_schedule_at
        PeriodicTimer.__init__ = traced_timer_init
        try:
            yield self
        finally:
            for cls, name, fn in reversed(saved):
                setattr(cls, name, fn)
