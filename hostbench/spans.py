"""Host-time spans around each layer's public entry points.

Nothing under ``src/`` knows about this module: the traced run patches
the public functions and methods listed in :data:`LAYERS` from the
outside, records one span per call (name, phase, parent span, start,
end) in memory, and restores the originals afterwards.

Functions are patched in the module that *looks them up*, not the one
that defines them: ``aggregate`` is called by name inside
``repro.serve.simulator`` and ``price_programs`` and the three
``compile_*`` functions inside ``repro.core.engine``, so patching their
home modules would leave these spans silently empty.  Methods are
patched on their class, where every call looks them up.

A layer's self time is the time its spans cover minus the time their
child spans cover; ``ClusterScheduler`` calls the inner
``FifoScheduler``s and the router, so their time is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

_SCHED_METHODS = ("admit", "enqueue", "poll", "flush", "place", "waiting")


def _len_result(args, kwargs, result) -> int:
    return len(result)


def _program_size(args, kwargs, result) -> int:
    return len(result.instructions)


def _priced_size(args, kwargs, result) -> int:
    return sum(len(program.instructions) for program in args[0])


def _payload_count(args, kwargs, result) -> int:
    return len(args[2])


def _interpreted(args, kwargs, result) -> int:
    return result.instructions


@dataclass(frozen=True)
class Layer:
    """One layer: the calls it wraps and where the table says it is heavy.

    ``targets`` are ``(module, attribute path)`` pairs; ``count``
    extracts the layer's work count from one call's arguments and
    result.
    """

    name: str
    targets: Tuple[Tuple[str, str], ...]
    heavy_on: Tuple[str, ...] = ()
    count: Optional[Callable[..., int]] = None


LAYERS: Tuple[Layer, ...] = (
    Layer("serve.workload", (("repro.serve.config", "ReplayConfig.build_trace"),),
          ("mixed-2k",), _len_result),
    Layer("core.compile", tuple(("repro.core.engine", name) for name in (
        "compile_ntt", "compile_intt", "compile_pointwise_mul")),
        ("mixed-2k",), _program_size),
    Layer("sram.price", (("repro.core.engine", "price_programs"),),
          ("mixed-2k",), _priced_size),
    Layer("serve.pool.profile", (("repro.serve.pool", "EnginePool.profile"),),
          ("cluster16-tiny",)),
    Layer("backends.model.execute",
          (("repro.backends.model", "ModelBackend.execute"),),
          ("mixed-2k",), _payload_count),
    Layer("backends.sram.execute",
          (("repro.core.engine", "BPNTTEngine.execute"),),
          ("sram-table1",), _payload_count),
    Layer("sram.interp", (("repro.sram.executor", "Executor.run"),),
          ("sram-table1",), _interpreted),
    Layer("sched", tuple(
        (module, f"{cls}.{method}")
        for module, cls in (("repro.sched.fifo", "FifoScheduler"),
                            ("repro.cluster.scheduler", "ClusterScheduler"))
        for method in _SCHED_METHODS), ("cluster16-tiny",)),
    Layer("sched.next_event", (
        ("repro.sched.fifo", "FifoScheduler.next_event_s"),
        ("repro.cluster.scheduler", "ClusterScheduler.next_event_s"),
    ), ("cluster16-tiny",)),
    Layer("cluster.route", (("repro.cluster.router", "AffinityRouter.chip_for"),),
          ("cluster16-tiny",)),
    Layer("serve.simulator",
          (("repro.serve.simulator", "ServingSimulator.replay"),),
          ("cluster16-tiny",)),
    Layer("serve.metrics.aggregate", (("repro.serve.simulator", "aggregate"),),
          ("cluster16-tiny",)),
    Layer("obs.export", (
        ("repro.serve.metrics", "serialize_report"),
        ("repro.serve.metrics", "format_serve_report"),
        ("repro.obs.exporters", "format_prometheus"),
    ), ("cluster16-tiny",), _len_result),
)


class SpanRecorder:
    """Spans kept in memory as ``[layer, phase, parent, start, end, count]``."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.phase = ""
        self._stack: List[int] = []
        self._patched: List[Tuple[Any, str, Any, bool]] = []

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target of every layer; undone by :meth:`uninstall`."""
        if self._patched:
            raise RuntimeError("spans are already installed")
        for layer in LAYERS:
            for module_name, path in layer.targets:
                owner = importlib.import_module(module_name)
                *owners, attr = path.split(".")
                for part in owners:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                own = attr in vars(owner)
                setattr(owner, attr, self._wrap(layer, original))
                self._patched.append((owner, attr, original, own))

    def uninstall(self) -> None:
        """Restore every original, leaving recorded spans in place."""
        for owner, attr, original, own in reversed(self._patched):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patched.clear()

    def _wrap(self, layer: Layer, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = layer.count

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [layer.name, self.phase, stack[-1] if stack else -1,
                    clock(), 0.0, 0]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[4] = clock()
            if count is not None:
                span[5] = count(args, kwargs, result)
            return result

        return traced

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> List[float]:
        """Per-span self time: duration minus the children's durations."""
        own = [end - start for _, _, _, start, end, _ in self.spans]
        for _, _, parent, start, end, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def summary(self, phase: Optional[str] = None) -> Dict[str, Dict[str, float]]:
        """Per layer: spans, self seconds, total seconds, summed counts."""
        own = self.self_times()
        out: Dict[str, Dict[str, float]] = {
            layer.name: {"spans": 0, "self_s": 0.0, "total_s": 0.0, "count": 0}
            for layer in LAYERS
        }
        for index, (name, span_phase, _, start, end, count) in enumerate(self.spans):
            if phase is not None and span_phase != phase:
                continue
            row = out[name]
            row["spans"] += 1
            row["self_s"] += own[index]
            row["total_s"] += end - start
            row["count"] += count
        return out

    def has_descendant(self, layer_name: str) -> List[bool]:
        """For each span: does any span of ``layer_name`` sit below it?"""
        flags = [False] * len(self.spans)
        for span in self.spans:
            if span[0] != layer_name:
                continue
            parent = span[2]
            while parent >= 0 and not flags[parent]:
                flags[parent] = True
                parent = self.spans[parent][2]
        return flags

    def write_jsonl(self, path) -> None:
        """One JSON array per span, in recording order."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
