"""Layer tracing from outside the program.

:class:`LayerTracer` wraps the public functions of each ``repro`` layer
by replacing the attribute its caller looks up at call time (a module
global or a class attribute), so the program itself is not edited.
Every wrapped call becomes one in-memory span: name, layer, start, end,
parent span, and the id of the work it belongs to (the cell's
``RunSpec.content_hash``, or the round label outside a cell).  A span's
*self* time is its duration minus the part its child spans cover; a
layer's self time is the sum over its spans.

Counted wrappers (``span=False``) only count calls: they sit inside a
span of the same layer, where a span of their own would move self time
out of the stage that contains them (``modulo_schedule`` inside the
schedule stage).

``install`` / ``uninstall`` restore the original attributes exactly, so
an untraced run in the same process sees the unmodified program.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layers in report order; ``harness`` is wall time no span covers.
LAYERS = ("scenarios", "ir", "alias", "sched", "sim", "api", "harness")

#: Span name -> layer, for every span the benchmark records.
_SPAN_LAYER = {
    "scenarios.sample": "scenarios",
    "scenarios.build_ddg": "scenarios",
    "scenarios.summarize": "scenarios",
    "ir.unroll": "ir",
    "alias.disambiguate": "alias",
    "alias.profile": "alias",
    "sched.compile": "sched",
    "sched.coherence": "sched",
    "sched.assign": "sched",
    "sched.copies": "sched",
    "sched.schedule": "sched",
    "sched.postpass": "sched",
    "sim.simulate": "sim",
    "api.plan": "api",
    "api.runner": "api",
    "api.execute_spec": "api",
    "api.store_get": "api",
    "api.store_put": "api",
    "api.artifact_get": "api",
    "api.artifact_put": "api",
}


class _Span:
    __slots__ = ("name", "start", "end", "parent", "cell", "child",
                 "label")

    def __init__(self, name: str, start: float, parent: int, cell: str,
                 label: str) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.cell = cell
        self.child = 0.0
        self.label = label


class LayerTracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[_Span] = []
        self.counts: Dict[str, int] = defaultdict(int)
        #: simulated cycles per memory model (for ``sim.mcycles_per_s``)
        self.sim_cycles: Dict[str, int] = defaultdict(int)
        self.round = ""
        self._stack: List[int] = []
        self._cell: Optional[str] = None
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.sim_cycles.clear()

    def _open(self, name: str, cell: Optional[str], label: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        if cell is None:
            cell = self._cell if self._cell is not None else self.round
        self.spans.append(_Span(name, time.perf_counter(), parent, cell,
                                label))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child += span.end - span.start

    def wrap(self, name: str, fn: Callable, *,
             cell_arg: Optional[Callable[..., str]] = None,
             label_arg: Optional[Callable[..., str]] = None,
             on_result: Optional[Callable[..., None]] = None,
             span: bool = True) -> Callable:
        """A traced stand-in for ``fn``.

        ``cell_arg(*args, **kwargs)`` names the cell the call works on
        (it then becomes the id of every span nested inside);
        ``label_arg`` adds a sub-label (the memory model of a simulate
        call); ``on_result(result, *args, **kwargs)`` sees each result.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.counts[name] += 1
            if not span:
                return fn(*args, **kwargs)
            cell = cell_arg(*args, **kwargs) if cell_arg else None
            label = label_arg(*args, **kwargs) if label_arg else ""
            outer_cell = tracer._cell
            if cell is not None:
                tracer._cell = cell
            index = tracer._open(name, cell, label)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
                tracer._cell = outer_cell
            if on_result is not None:
                on_result(result, *args, **kwargs)
            return result

        return traced

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def patch(self, owner: Any, attr: str, name: str, **options) -> None:
        """Replace ``owner.attr`` with a traced wrapper (undone by
        :meth:`uninstall`).  Class attributes keep their descriptor kind:
        a classmethod stays a classmethod."""
        own = attr in vars(owner)
        raw = vars(owner)[attr] if own else getattr(owner, attr)
        if isinstance(raw, classmethod):
            replacement = classmethod(self.wrap(name, raw.__func__,
                                                **options))
        else:
            replacement = self.wrap(name, raw, **options)
        self._patches.append((owner, attr, raw, own))
        setattr(owner, attr, replacement)

    def install(self) -> "LayerTracer":
        """Patch every layer boundary the benchmark measures."""
        import repro.api.core as core
        import repro.api.runner as runner
        import repro.scenarios as scenarios
        import repro.scenarios.generator as generator
        import repro.sched.latency as latency
        import repro.sched.stages as stages
        from repro.api import DiskArtifactStore, DiskStore, Plan, Runner

        def spec_hash(spec, *_a, **_k):
            return spec.content_hash

        def store_key(_self, key, *_a, **_k):
            return key

        def note_get(kind):
            def count(result, *_a, **_k):
                self.counts[f"{kind}_hit"] += result is not None
            return count

        def sim_model(*_a, **kwargs):
            return kwargs.get("model", "snooping")

        def note_cycles(result, *_a, **kwargs):
            self.sim_cycles[kwargs.get("model", "snooping")] += (
                result.total_cycles
            )

        # scenarios
        self.patch(scenarios, "sample_scenarios", "scenarios.sample")
        self.patch(generator, "build_scenario_ddg", "scenarios.build_ddg")
        self.patch(scenarios, "summarize", "scenarios.summarize")
        # ir + alias: the front-end stage bodies
        self.patch(stages, "run_unroll", "ir.unroll")
        self.patch(stages, "run_disambiguate", "alias.disambiguate")
        self.patch(stages, "run_profile", "alias.profile")
        # sched: the compile entry point, the back-end stages, and the
        # modulo scheduler's calls from the latency ladder
        self.patch(core, "compile_loop", "sched.compile")
        for stage in ("coherence", "assign", "copies", "schedule",
                      "postpass"):
            self.patch(stages, f"run_{stage}", f"sched.{stage}")
        self.patch(latency, "modulo_schedule", "sched.modulo",
                   span=False)
        # sim
        self.patch(core, "simulate", "sim.simulate", label_arg=sim_model,
                   on_result=note_cycles)
        # api
        self.patch(Plan, "grid", "api.plan")
        self.patch(Runner, "run", "api.runner")
        self.patch(runner, "execute_spec", "api.execute_spec",
                   cell_arg=spec_hash)
        self.patch(DiskStore, "get", "api.store_get", cell_arg=store_key,
                   on_result=note_get("api.store_get"))
        self.patch(DiskStore, "put", "api.store_put", cell_arg=store_key)
        self.patch(DiskArtifactStore, "get", "api.artifact_get",
                   on_result=note_get("api.artifact_get"))
        self.patch(DiskArtifactStore, "put", "api.artifact_put")
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw, own = self._patches.pop()
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        """Self seconds per span name (``sim.simulate`` also per model,
        as ``sim.simulate.<model>``)."""
        out: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            own = span.end - span.start - span.child
            out[span.name] += own
            if span.label:
                out[f"{span.name}.{span.label}"] += own
        return out

    def layer_self(self, wall: float) -> Dict[str, float]:
        """Self seconds per layer; ``harness`` is ``wall`` minus every
        top-level span."""
        out = {layer: 0.0 for layer in LAYERS}
        covered = 0.0
        for span in self.spans:
            out[_SPAN_LAYER[span.name]] += span.end - span.start - span.child
            if span.parent < 0:
                covered += span.end - span.start
        out["harness"] = max(0.0, wall - covered)
        return out

    def write(self, path: Path, meta: Dict[str, object]) -> None:
        """Write every span as ``[name, layer, start_us, end_us,
        parent_index, id]`` rows (times relative to the first span)."""
        origin = self.spans[0].start if self.spans else 0.0
        rows = [
            [s.name + (f".{s.label}" if s.label else ""),
             _SPAN_LAYER[s.name],
             round((s.start - origin) * 1e6, 1),
             round((s.end - origin) * 1e6, 1),
             s.parent, s.cell]
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {**meta, "columns": ["name", "layer", "start_us", "end_us",
                                 "parent", "id"],
             "spans": rows},
            separators=(",", ":"),
        ))
