"""Outside-in layer tracing: wrap the public functions of each ``repro``
layer, count calls and measure self time, without touching ``src/``.

A :class:`LayerTracer` patches every attribute named in :data:`LAYERS`
(and every other module attribute bound to the same function object,
so ``from x import f`` call sites are covered too).  Spans are kept in
memory as per-layer totals; self time is a call's duration minus the
time of wrapped calls nested inside it.  :meth:`LayerTracer.restore`
puts every original back and raises if one is not.

The same wrappers carry the planted-slowdown self-check: a tracer built
with ``plant={"layer": ..., "delay_s": ...}`` busy-waits ``delay_s``
after every entry into that layer (and, for iterators, every item).
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: layer -> (module, attribute path, kind).  ``kind`` is "call" for a
#: plain call, "iter" for a function returning an iterator whose
#: ``next()`` calls are timed too, "classmethod" for classmethods,
#: "methods" for every public plain method of a class, and "cycles" for
#: the ``cycle`` method of a class and each of its subclasses.
LAYERS: Dict[str, List[Tuple[str, str, str]]] = {
    "core.dp": [
        ("repro.core.dp", "basic_dp_select", "call"),
        ("repro.core.dp", "reservation_dp_select", "call"),
    ],
    "core.cycle": [("repro.core.base", "Scheduler", "cycles")],
    "core.profile": [
        ("repro.core.profile", "CapacityProfile.from_active", "classmethod"),
        ("repro.core.freeze", "batch_head_freeze", "call"),
        ("repro.core.freeze", "dedicated_freeze", "call"),
    ],
    "core.elastic": [("repro.core.elastic", "ECCProcessor.apply", "call")],
    # run() plus the event handlers the engine dispatches into.
    "experiments.runner": [
        ("repro.experiments.runner", f"SimulationRunner.{name}", "call")
        for name in ("run", "_run_cycle", "_on_arrival", "_on_finish", "_on_cancel",
                     "_on_ecc", "_on_requeue", "_on_stream_arrival", "_on_stream_ecc")
    ],
    "sim": [
        ("repro.sim.engine", "Simulator.run", "call"),
        ("repro.sim.engine", "Simulator.schedule_at", "call"),
    ],
    "queues": [
        ("repro.queues.batch_queue", "BatchQueue", "methods"),
        ("repro.queues.dedicated_queue", "DedicatedQueue", "methods"),
        ("repro.queues.active_list", "ActiveList", "methods"),
    ],
    "cluster": [
        ("repro.cluster.machine", "Machine.allocate", "call"),
        ("repro.cluster.machine", "Machine.resize", "call"),
        ("repro.cluster.machine", "Machine.release", "call"),
        ("repro.cluster.machine", "Machine.fail_unit", "call"),
        ("repro.cluster.machine", "Machine.repair_unit", "call"),
    ],
    "workload.generate": [
        ("repro.workload.generator", "CWFWorkloadGenerator.generate", "call"),
        ("repro.experiments.calibrate", "calibrate_beta_arr", "call"),
        ("repro.workload.sdsc", "generate_sdsc_like", "call"),
    ],
    "workload.parse": [
        ("repro.workload.swf", "iter_swf", "iter"),
        ("repro.workload.cwf", "parse_cwf_workload", "call"),
    ],
    "metrics": [
        ("repro.metrics.online", "OnlineAggregator.observe", "call"),
        ("repro.metrics.online", "OnlineAggregator.summary", "call"),
        ("repro.experiments.runner", "SimulationRunner._metrics", "call"),
    ],
    "obs.trace.write": [
        ("repro.obs.trace_io", "TraceWriter.write", "call"),
        ("repro.obs.trace_io", "TraceWriter.sync", "call"),
        ("repro.obs.trace_io", "TraceWriter.close", "call"),
    ],
    "obs.trace.read": [
        ("repro.obs.trace_io", "iter_trace", "iter"),
        ("repro.obs.analytics", "replay", "call"),
        ("repro.obs.analytics", "recompute_metrics", "call"),
    ],
    "durable.save": [("repro.durable.checkpoint", "save_checkpoint", "call")],
    "durable.load": [
        ("repro.durable.checkpoint", "load_checkpoint", "call"),
        ("repro.durable.checkpoint", "resume", "call"),
    ],
    "faults": [("repro.faults.injector", "FaultInjector", "methods")],
}


#: Layers whose entries also record the length of the object called
#: (``items``): the backlog a queue operation sees.  A planted delay on
#: such a layer may be per item, modelling an O(queue length) regression.
DEPTH_LAYERS = ("queues",)


class LayerStats:
    """Per-layer totals: calls, self seconds, and layer-specific counts."""

    __slots__ = ("calls", "self_s", "extra")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.extra: Dict[str, float] = {}

    def add(self, name: str, amount: float) -> None:
        self.extra[name] = self.extra.get(name, 0) + amount


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def _public_methods(cls: type) -> Iterator[str]:
    for name, value in vars(cls).items():
        if not name.startswith("_") and inspect.isfunction(value):
            yield name


def _all_subclasses(cls: type) -> Iterator[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


class LayerTracer:
    """Installs and removes the layer wrappers.

    Args:
        layers: Layer names to wrap (default: all of :data:`LAYERS`).
        plant: Optional ``{"layer": name, "delay_s": seconds,
            "per_item": bool}`` adding a busy-wait after every entry into
            that layer; ``per_item`` multiplies it by the called object's
            length (depth layers only).
        on_return: Optional ``attribute path -> callback(stats, args,
            result)`` hooks (paths as in :data:`LAYERS`) that turn
            return values into layer counts.
    """

    def __init__(
        self,
        layers: Optional[List[str]] = None,
        plant: Optional[Dict[str, object]] = None,
        on_return: Optional[Dict[str, Callable]] = None,
    ) -> None:
        self.layers = list(layers) if layers is not None else list(LAYERS)
        unknown = [name for name in self.layers if name not in LAYERS]
        if unknown:
            raise ValueError(f"unknown layers: {unknown}")
        self.stats: Dict[str, LayerStats] = {name: LayerStats() for name in self.layers}
        self.plant = plant
        self.on_return = on_return or {}
        # Each frame is [start, child_seconds, layer].
        self._stack: List[List[float]] = []
        self._patched: List[Tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------
    def _make_wrapper(self, layer: str, func: Callable, kind: str,
                      hook: Optional[Callable] = None) -> Callable:
        stats = self.stats[layer]
        stack = self._stack
        clock = time.perf_counter
        delay = 0.0
        per_item = False
        if self.plant is not None and self.plant["layer"] == layer:
            delay = float(self.plant["delay_s"])
            per_item = bool(self.plant.get("per_item"))
        depth = layer in DEPTH_LAYERS

        def timed(entry, call, *args, **kwargs):
            frame = [clock(), 0.0, layer]
            stack.append(frame)
            try:
                items = len(args[0]) if depth and entry else 0
                if items:
                    stats.add("items", items)
                result = call(*args, **kwargs)
                if delay and entry:
                    _spin(delay * items if per_item else delay)
            finally:
                stack.pop()
                elapsed = clock() - frame[0]
                stats.self_s += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            return result

        # Calls and records are entries into the layer: a call made from
        # inside the same layer (recursion, super() chains) adds only
        # time.  Return hooks see every call.
        if kind == "iter":
            def iterate(inner: Iterator, entry: bool) -> Iterator:
                while True:
                    try:
                        item = timed(entry, next, inner)
                    except StopIteration:
                        return
                    if entry:
                        stats.add("records", 1)
                    yield item

            def wrapper(*args, **kwargs):
                entry = not stack or stack[-1][2] != layer
                stats.calls += entry
                return iterate(timed(entry, func, *args, **kwargs), entry)
        else:
            def wrapper(*args, **kwargs):
                entry = not stack or stack[-1][2] != layer
                result = timed(entry, func, *args, **kwargs)
                stats.calls += entry
                if hook is not None:
                    hook(stats, args, result)
                return result

        wrapper.__name__ = func.__name__
        wrapper.__qualname__ = func.__qualname__
        wrapper.__module__ = func.__module__
        wrapper.__doc__ = func.__doc__
        wrapper.__wrapped__ = func
        wrapper.e2ebench_layer = layer
        return wrapper

    def _patch(self, owner: object, name: str, new: object) -> None:
        self._patched.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    def _patch_function(self, layer: str, module, attr: str, kind: str) -> None:
        func = getattr(module, attr)
        wrapper = self._make_wrapper(layer, func, kind, self.on_return.get(attr))
        # Rebind every module-level alias (``from x import f``) too.
        for other in list(sys.modules.values()):
            if other is None or not getattr(other, "__name__", "").startswith("repro"):
                continue
            for alias, value in list(vars(other).items()):
                if value is func:
                    self._patch(other, alias, wrapper)

    def install(self) -> "LayerTracer":
        # Load every module first, so no alias is bound after patching
        # and missed by restore().
        package = importlib.import_module("repro")
        for info in pkgutil.walk_packages(package.__path__, "repro."):
            if not info.name.endswith("__main__"):
                importlib.import_module(info.name)
        for layer in self.layers:
            for module_name, path, kind in LAYERS[layer]:
                module = importlib.import_module(module_name)
                if "." not in path and kind in ("call", "iter"):
                    self._patch_function(layer, module, path, kind)
                    continue
                if kind == "methods":
                    cls = getattr(module, path)
                    for name in list(_public_methods(cls)):
                        self._patch(cls, name, self._make_wrapper(layer, vars(cls)[name], "call"))
                    continue
                if kind == "cycles":
                    base = getattr(module, path)
                    for cls in dict.fromkeys([base, *_all_subclasses(base)]):
                        if "cycle" in vars(cls):
                            self._patch(cls, "cycle", self._make_wrapper(layer, vars(cls)["cycle"], "call"))
                    continue
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                raw = vars(cls)[attr]
                hook = self.on_return.get(path)
                if kind == "classmethod":
                    wrapped = classmethod(self._make_wrapper(layer, raw.__func__, "call", hook))
                else:
                    wrapped = self._make_wrapper(layer, raw, kind, hook)
                self._patch(cls, attr, wrapped)
        return self

    def restore(self) -> None:
        """Put every original back; raise if any attribute was not restored."""
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        stale = [
            f"{getattr(owner, '__name__', owner)}.{name}"
            for owner, name, original in self._patched
            if vars(owner).get(name) is not original
        ]
        self._patched.clear()
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro"):
                for owner in [module, *(v for v in vars(module).values() if isinstance(v, type))]:
                    stale += [
                        f"{getattr(owner, '__name__', owner)}.{name}"
                        for name, value in list(vars(owner).items())
                        if hasattr(getattr(value, "__func__", value), "e2ebench_layer")
                    ]
        if stale:
            raise RuntimeError(f"wrapped attributes not restored: {sorted(set(stale))}")
