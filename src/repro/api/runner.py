"""Plan execution: a streaming core over stores and workers.

The :class:`Runner` is the only component that touches both the stores
and the executor.  Its primitive is :meth:`Runner.stream`, a generator
that yields results *as they complete*:

1. every spec is looked up in the :class:`~repro.api.store.ResultStore`
   by content hash; hits are yielded immediately;
2. misses are grouped by :attr:`~repro.api.spec.RunSpec.frontend_key`,
   so the specs of one coherence × heuristic cross — which share their
   compilation front end verbatim — execute together and share each
   loop's front end, which persists in the runner's
   :class:`~repro.api.artifacts.ArtifactStore`.  Serially the groups
   run one after another, in first-seen order; under ``parallel`` each
   *group* becomes one task of a worker pool that lives for this plan
   only, fanned out via ``imap_unordered``
   (when there are fewer groups than requested workers, the largest
   groups are split so occupancy never drops below what the caller
   asked for, between model siblings where possible; the pool is sized
   to the resulting task count, so tiny plans never spawn idle
   processes).  The pool ends when the plan finishes, is abandoned or
   re-raises a failure, so no worker outlives its plan;
3. the specs of each group share their loops through one
   :class:`~repro.api.core.LoopMemo`, the only in-process holder of
   that work: it holds each front end the group fetched or put until
   the group ends, and keys back ends by what each loop will compute:
   model siblings (specs equal except for ``model``) share a
   loop's compile, execution trace and checker oracle, and on a
   chain-free loop (no memory-dependent chain, so MDC and DDGT compile
   what free compiles) every coherence variant of a heuristic shares
   the compile, and those that also share the model share the
   simulated loop record.  Each spec still runs through its own
   ``execute_spec`` call.  The memo drops each back-end entry once
   the last spec that maps onto it is done with the loop, and results
   are yielded only while it holds none, so specs that share a loop
   stream out together;
4. fresh records are stored the moment they arrive (the first one a
   kernel-iteration floor inflated warns, once per process, serially
   and in parallel alike); failures become structured
   :class:`RunError` records instead of killing sibling specs
   mid-flight.

:meth:`Runner.run` is a thin wrapper that drains the stream and
reassembles plan order — byte-identical to the historical batch
behaviour.  Against the on-disk store, rerunning a killed plan resumes
it: every record stored before the kill is a store hit, and only the
missing or failed specs execute again.
"""

from __future__ import annotations

import copy
import multiprocessing
import time
import traceback as _tb
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro import errors as _errors
from repro.api.artifacts import ArtifactStore, default_artifact_store
from repro.api.core import (
    LoopMemo,
    chain_free_key,
    execute_spec,
    sibling_key,
    warn_floor_from_record,
)
from repro.api.records import RunRecord
from repro.api.spec import Plan, RunSpec
from repro.api.store import ResultStore, default_store
from repro.errors import ExecutionError
from repro.obs import metrics, trace

PlanLike = Union[Plan, Iterable[RunSpec]]

#: ``progress`` callbacks receive ``(completed, total, item)``.
ProgressFn = Callable[[int, int, "StreamItem"], None]


@dataclass
class RunError:
    """Structured record of one spec's failure.

    Captured in the worker (or inline, serially) so one bad spec cannot
    kill its siblings; never stored, so a rerun of the plan executes the
    spec again.  ``spec``/``spec_key`` identify the work, ``error_type`` is
    the exception class name, ``traceback`` the formatted worker-side
    stack.
    """

    spec: Dict[str, object]
    spec_key: str
    error_type: str
    message: str
    traceback: str = ""
    #: The live exception, when the failure happened in this process
    #: (never crosses pickling boundaries; lets serial re-raise preserve
    #: the original object).
    _exception: Optional[BaseException] = field(
        default=None, repr=False, compare=False
    )

    @classmethod
    def from_exception(cls, spec: RunSpec, spec_key: str,
                       exc: BaseException) -> "RunError":
        return cls(
            spec=spec.to_dict(),
            spec_key=spec_key,
            error_type=type(exc).__name__,
            message=str(exc),
            traceback="".join(
                _tb.format_exception(type(exc), exc, exc.__traceback__)
            ),
            _exception=exc,
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "spec": self.spec,
            "spec_key": self.spec_key,
            "error_type": self.error_type,
            "message": self.message,
            "traceback": self.traceback,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunError":
        return cls(
            spec=dict(data.get("spec") or {}),
            spec_key=str(data.get("spec_key", "")),
            error_type=str(data.get("error_type", "Exception")),
            message=str(data.get("message", "")),
            traceback=str(data.get("traceback", "")),
        )

    def exception(self) -> BaseException:
        """The failure as a raisable exception.

        The original object when it never left this process; otherwise a
        reconstructed :mod:`repro.errors` instance of the same type, or
        an :class:`~repro.errors.ExecutionError` carrying the worker
        traceback when the type cannot be rebuilt faithfully.
        """
        if self._exception is not None:
            return self._exception
        cls = getattr(_errors, self.error_type, None)
        if (isinstance(cls, type) and issubclass(cls, _errors.ReproError)
                and cls is not _errors.ReproError):
            try:
                return cls(self.message)
            except Exception:  # pragma: no cover - exotic signature
                pass
        detail = f"\n{self.traceback}" if self.traceback else ""
        return ExecutionError(
            f"{self.error_type}: {self.message} "
            f"(spec {self.spec_key}){detail}"
        )

    def reraise(self) -> None:
        raise self.exception()


StreamItem = Union[RunRecord, RunError]


# ----------------------------------------------------------------------
# Shared loops
# ----------------------------------------------------------------------
def _execute_group(
    memo: LoopMemo, specs: Sequence[RunSpec], keys: Sequence[str],
    spec_done: Callable[[float], None],
) -> Iterator[Tuple[int, StreamItem]]:
    """Execute one group of specs, each through its own
    ``execute_spec`` call, yielding ``(position, item)`` pairs.

    The specs share ``memo``, a :class:`~repro.api.core.LoopMemo` built
    over them and the runner's artifact store, active only while a spec
    executes; a failure is captured per spec, so the others still run.
    Items are yielded once the memo holds no back-end entry, so the
    caller's work on them never adds to the memory the shared loops
    hold: a spec that shares nothing streams out as it ends, and specs
    that share a loop come out together after the last of them.
    ``spec_done`` receives each spec's elapsed seconds.
    """
    ended: List[Tuple[int, StreamItem]] = []
    for pos, (spec, key) in enumerate(zip(specs, keys)):
        start = time.perf_counter()
        try:
            with memo.active():
                # The active memo carries the runner's artifact store.
                item: StreamItem = execute_spec(spec)
        except Exception as exc:
            item = RunError.from_exception(spec, key, exc)
        spec_done(time.perf_counter() - start)
        ended.append((pos, item))
        if not memo or pos == len(specs) - 1:
            yield from ended
            ended.clear()


# ----------------------------------------------------------------------
# Pool worker side
# ----------------------------------------------------------------------
#: Set once per pool worker by :func:`_worker_init`: the runner's
#: artifact store, and whether the parent records metrics and traces.
_worker_setup: Tuple[ArtifactStore, bool, bool]


def _worker_init(artifacts: ArtifactStore, metrics_enabled: bool,
                 tracing: bool) -> None:
    """Pool worker initializer: keep what every task of the plan shares."""
    global _worker_setup
    _worker_setup = (artifacts, metrics_enabled, tracing)


def _worker_group(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Top-level (hence picklable) pool worker: one front-end group in,
    one result dict per spec out, so payloads cross process boundaries
    as pure JSON-able data.  Failures are captured per spec — a bad spec
    reports a structured error instead of poisoning its group.  The
    task's specs share their loops through one memo, like a serial
    group's.

    Front-end artifacts persist in the worker's copy of the runner's
    artifact store: a disk store shares them with every other worker and
    process, and the task's memo makes sibling variants of the group
    warm for each other.  The canonical text of every entry the memo
    put travels back in the result envelope, and the parent's store
    absorbs it, so after the plan it holds what a serial run's would.

    Observability: the task runs under a *captured* metrics registry
    whose snapshot travels back in the result envelope — the parent
    merges it on receipt, so artifact hit/miss counters, stage timings
    and per-spec latencies survive the process boundary instead of
    dying with the worker.  When the parent traces, the task also runs
    under a private tracer whose spans ship back for wall-clock
    re-basing into the parent trace.
    """
    store, metrics_enabled, tracing = _worker_setup
    specs = [RunSpec.from_dict(data) for data in payload["specs"]]
    memo = LoopMemo(specs, store)
    keys = payload["keys"]
    results: List[Dict[str, object]] = [{} for _ in specs]
    worker_tracer = trace.Tracer() if tracing else None
    with metrics.capture(enabled=metrics_enabled) as reg:

        def spec_done(elapsed: float) -> None:
            reg.observe("runner.spec_seconds", elapsed, mode="parallel")
            reg.inc("runner.worker_busy_seconds", elapsed)

        previous_tracer = trace.set_tracer(worker_tracer)
        try:
            for pos, item in _execute_group(memo, specs, keys, spec_done):
                results[pos] = (
                    {"record": item.to_dict()}
                    if isinstance(item, RunRecord)
                    else {"error": item.to_dict()}
                )
        finally:
            trace.set_tracer(previous_tracer)
    envelope: Dict[str, object] = {
        "task": payload["task"],
        "results": results,
        "artifacts": memo.puts,
    }
    if metrics_enabled:
        envelope["metrics"] = reg.snapshot()
    if worker_tracer is not None:
        envelope["trace"] = worker_tracer.export()
    return envelope


class Runner:
    """Executes plans against a result store and an artifact store.

    ``parallel=None`` (or 0/1) runs serially in-process; ``parallel=N``
    fans miss *groups* out over at most ``N`` worker processes;
    ``parallel=-1`` uses every available CPU (clamped to the number of
    tasks, so small plans spawn small pools).  Each plan gets its own
    pool, which ends with the plan; its workers use this runner's
    artifact store, and the front ends they put come back to it.
    """

    def __init__(self, store: Optional[ResultStore] = None,
                 parallel: Optional[int] = None,
                 artifacts: Optional[ArtifactStore] = None) -> None:
        self._store = store
        self._artifacts = artifacts
        self.parallel = parallel

    @property
    def store(self) -> ResultStore:
        return self._store if self._store is not None else default_store()

    @property
    def artifacts(self) -> ArtifactStore:
        if self._artifacts is not None:
            return self._artifacts
        return default_artifact_store()

    # ------------------------------------------------------------------
    # Public execution surface
    # ------------------------------------------------------------------
    def run_one(self, spec: RunSpec) -> RunRecord:
        return self.run(Plan.single(spec))[0]

    def run(self, plan: PlanLike, *,
            progress: Optional[ProgressFn] = None) -> List[RunRecord]:
        """Execute (or fetch) every spec; records come back in plan
        order, byte-identical to the historical batch behaviour.

        A thin wrapper over :meth:`stream`: results are reassembled into
        plan order as the stream completes them, and the first failure
        re-raises (serially, the original exception object).
        """
        if not isinstance(plan, Plan):
            plan = Plan(tuple(plan))
        total = len(plan.specs)
        records: List[Optional[RunRecord]] = [None] * total
        done = 0
        for index, item in self._stream(plan, on_error="raise"):
            records[index] = item  # on_error="raise": always a RunRecord
            done += 1
            if progress is not None:
                progress(done, total, item)
        return records  # type: ignore[return-value]

    def stream(self, plan: PlanLike, *,
               on_error: str = "raise") -> Iterator[StreamItem]:
        """Yield one result per plan spec in *completion* order.

        Store hits stream out immediately; computed groups follow as the
        pool (or the serial loop) finishes them.  ``on_error="raise"``
        re-raises the first failure; ``on_error="yield"`` emits
        structured :class:`RunError` items in place of records so a
        sweep can keep going around a poisoned spec.
        """
        if not isinstance(plan, Plan):
            plan = Plan(tuple(plan))
        for _index, item in self._stream(plan, on_error):
            yield item

    # ------------------------------------------------------------------
    # Streaming core
    # ------------------------------------------------------------------
    def _stream(self, plan: Plan,
                on_error: str) -> Iterator[Tuple[int, StreamItem]]:
        if on_error not in ("raise", "yield"):
            raise ValueError(
                f"on_error must be 'raise' or 'yield', not {on_error!r}"
            )
        store = self.store
        keys = [spec.content_hash for spec in plan.specs]
        key_indices: Dict[str, List[int]] = {}
        for i, key in enumerate(keys):
            key_indices.setdefault(key, []).append(i)
        misses: List[int] = []
        for i, key in enumerate(keys):
            if key_indices[key][0] != i:
                continue  # duplicate content hash: primary index covers it
            record = store.get(key)
            metrics.inc("runner.store_lookups",
                        outcome="miss" if record is None else "hit")
            if record is None:
                misses.append(i)
                continue
            # Tag a shallow copy: a MemoryStore hands back the object it
            # stored, and mutating it would retroactively relabel the
            # record the original simulation yielded.
            record = copy.copy(record)
            record.source = "store"
            for j in key_indices[key]:
                yield j, record
        if not misses:
            return
        executed = self._execute_stream(plan, keys, misses)
        try:
            for i, item in executed:
                key = keys[i]
                if isinstance(item, RunRecord):
                    warn_floor_from_record(item)
                    store.put(key, item)
                elif on_error == "raise":
                    item.reraise()
                for j in key_indices[key]:
                    yield j, item
        finally:
            # Ends the plan's pool at once when the consumer stops early
            # or a failure re-raises.
            executed.close()

    def _execute_stream(
        self, plan: Plan, keys: List[str], misses: List[int]
    ) -> Iterator[Tuple[int, StreamItem]]:
        """Execute the missing specs, yielding ``(plan index, item)`` in
        completion order."""
        specs = [plan.specs[i] for i in misses]
        workers = self._effective_parallel(len(specs))
        if workers <= 1:
            # One front-end group at a time, so its loops are shared
            # while they are still needed.
            artifacts = self.artifacts

            def spec_done(elapsed: float) -> None:
                metrics.observe("runner.spec_seconds", elapsed,
                                mode="serial")

            for group in self._group_indices(specs):
                group_specs = [specs[i] for i in group]
                for pos, item in _execute_group(
                    LoopMemo(group_specs, artifacts), group_specs,
                    [keys[misses[i]] for i in group], spec_done,
                ):
                    yield misses[group[pos]], item
            return

        chain_free = [chain_free_key(spec) for spec in specs]
        siblings = [sibling_key(spec) for spec in specs]
        tasks = self._balance(self._group_indices(specs), workers,
                              chain_free.__getitem__, siblings.__getitem__)
        # Clamp to the post-split task count: a tiny plan on a many-core
        # machine (parallel=-1) must not spawn a pool of idle processes.
        workers = min(workers, len(tasks))
        payloads = [
            {
                "task": t,
                "specs": [specs[i].to_dict() for i in indices],
                "keys": [keys[misses[i]] for i in indices],
            }
            for t, indices in enumerate(tasks)
        ]
        reg = metrics.registry()
        busy_before = reg.counter("runner.worker_busy_seconds")
        stream_start = time.perf_counter()
        try:
            with multiprocessing.Pool(
                workers, initializer=_worker_init,
                initargs=(self.artifacts, metrics.enabled(),
                          trace.tracer() is not None),
            ) as pool:
                for reply in pool.imap_unordered(_worker_group, payloads):
                    metrics.inc("runner.tasks")
                    self.artifacts.absorb(reply["artifacts"])
                    snapshot = reply.get("metrics")
                    if snapshot:
                        # Satellite-telemetry merge: fold the worker's
                        # per-task metric deltas (artifact hits/misses,
                        # stage timings, spec latencies...) into this
                        # process's registry.
                        reg.merge(snapshot)
                    exported = reply.get("trace")
                    if exported:
                        parent_tracer = trace.tracer()
                        if parent_tracer is not None:
                            parent_tracer.absorb(exported)
                    for i, result in zip(tasks[reply["task"]],
                                         reply["results"]):
                        if "record" in result:
                            yield misses[i], RunRecord.from_dict(
                                result["record"]
                            )
                        else:
                            yield misses[i], RunError.from_dict(
                                result["error"]
                            )
        finally:
            wall = time.perf_counter() - stream_start
            if wall > 0 and metrics.enabled():
                busy = reg.counter("runner.worker_busy_seconds")
                metrics.set_gauge(
                    "runner.worker_utilization",
                    (busy - busy_before) / (wall * workers),
                )

    # ------------------------------------------------------------------
    @staticmethod
    def _group_indices(specs: List[RunSpec]) -> List[List[int]]:
        """Partition spec indices by shared front-end key, preserving
        first-seen group order.  Within a group, model siblings are
        adjacent, in first-seen order; otherwise plan order holds."""
        groups: Dict[str, Dict[RunSpec, List[int]]] = {}
        for index, spec in enumerate(specs):
            groups.setdefault(spec.frontend_key, {}).setdefault(
                sibling_key(spec), []).append(index)
        return [[index for siblings in group.values() for index in siblings]
                for group in groups.values()]

    @staticmethod
    def _balance(groups: List[List[int]], workers: int,
                 chain_free: Callable[[int], object],
                 sibling: Callable[[int], object]) -> List[List[int]]:
        """Split the largest groups until every worker has a task.

        Grouping must never *reduce* parallelism below what the caller
        asked for: a single 6-variant cross run with ``parallel=6`` should
        use six workers, not one.  Splitting a group trades some in-worker
        front-end sharing for occupancy — with a disk artifact store the
        split halves still share through the file system, and the loss is
        bounded by one redundant front end per extra worker.

        ``chain_free`` and ``sibling`` map an index to its spec's
        :func:`~repro.api.core.chain_free_key` and
        :func:`~repro.api.core.sibling_key`.  A split first gathers the
        specs of each chain-free key, which share every chain-free
        loop's compile whatever their coherence, and falls on the
        chain-free boundary nearest the middle; a group of one
        chain-free key falls on the sibling boundary nearest the middle.
        So neither is split unless a task holds nothing else.
        """
        tasks = [list(group) for group in groups]
        while len(tasks) < workers:
            largest = max(range(len(tasks)), key=lambda j: len(tasks[j]))
            if len(tasks[largest]) <= 1:
                break
            gathered: Dict[object, List[int]] = {}
            for index in tasks[largest]:
                gathered.setdefault(chain_free(index), []).append(index)
            group = [index for same in gathered.values() for index in same]
            mid = (len(group) + 1) // 2
            for key in (chain_free, sibling):
                cuts = [c for c in range(1, len(group))
                        if key(group[c]) != key(group[c - 1])]
                if cuts:
                    mid = min(cuts, key=lambda c: (abs(c - mid), c))
                    break
            tasks[largest:largest + 1] = [group[:mid], group[mid:]]
        return tasks

    def _effective_parallel(self, num_tasks: int) -> int:
        parallel = self.parallel
        if parallel is None or parallel == 0:
            return 1
        if parallel < 0:
            parallel = multiprocessing.cpu_count()
        return max(1, min(parallel, num_tasks))


# ----------------------------------------------------------------------
# Module-level conveniences
# ----------------------------------------------------------------------
def run(spec: RunSpec, store: Optional[ResultStore] = None) -> RunRecord:
    """Execute (or fetch) a single spec against ``store`` / the default."""
    return Runner(store=store).run_one(spec)
