"""Plan execution over stores and workers.

The :class:`Runner` is the only component that touches both the stores
and the executor.  :meth:`Runner.run` is its one execution path:

1. every spec is looked up in the :class:`~repro.api.store.ResultStore`
   by content hash; hits are reported (``progress``) before anything
   executes;
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
   asked for, between chain-free keys, then model siblings, where
   possible; the pool is sized to the resulting task count, so tiny
   plans never spawn idle processes);
3. the specs of each group share their loops through one
   :class:`~repro.api.core.LoopMemo`, the only in-process holder of
   that work: it holds each front end the group fetched or put until
   the group ends, and keys back ends by what each loop will compute:
   model siblings (specs equal except for ``model``) share a
   loop's compile, execution trace and checker oracle, and on a
   chain-free loop (no memory-dependent chain, so MDC and DDGT compile
   what free compiles) every coherence variant of a heuristic shares
   the compile, and those that also share the model share the
   simulated loop record.  A group runs ordered by chain-free key and
   then by sibling key, so the specs that use an entry run back to
   back, and each spec passes :meth:`~repro.api.core.LoopMemo.enter`,
   which drops the entries it will not look up, before its own
   ``execute_spec(spec, memo)`` call.  Serially, results are handed
   over only while the memo holds no back-end entry;
4. fresh records are stored the moment they arrive (the first one a
   kernel-iteration floor inflated warns, once per process, serially
   and in parallel alike), and records come back in plan order.

A failure raises out of :meth:`Runner.run`: serially the original
exception object, under ``parallel`` the worker's exception, which the
pool re-raises with its type and the worker traceback as its
``__cause__``.  The pool ends when the plan finishes or anything raises
(a failure, or the ``progress`` callback), so no worker outlives its
plan.  Against the on-disk store, rerunning a failed or killed plan
resumes it: every record stored before the failure is a store hit, and
only the missing specs execute again.
"""

from __future__ import annotations

import multiprocessing
import time
from contextlib import closing
from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

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
from repro.obs import metrics, trace

PlanLike = Union[Plan, Iterable[RunSpec]]

#: ``progress`` callbacks receive ``(completed, total, record)``.
ProgressFn = Callable[[int, int, RunRecord], None]

#: ``(plan index, record)`` pairs in completion order.
_Completions = Generator[Tuple[int, RunRecord], None, None]


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
    """Top-level (hence picklable) pool worker: one task's specs in, one
    record dict per spec out, so payloads cross process boundaries as
    pure JSON-able data.  The task's specs share their loops through one
    memo, entered spec by spec like a serial group's.  A failure raises:
    the pool re-raises it in the parent, with this worker's traceback
    as its ``__cause__``.

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
    artifacts, metrics_enabled, tracing = _worker_setup
    memo = LoopMemo(artifacts)
    records: List[Dict[str, object]] = []
    worker_tracer = trace.Tracer() if tracing else None
    with metrics.capture(enabled=metrics_enabled) as reg:
        previous_tracer = trace.set_tracer(worker_tracer)
        try:
            for data in payload["specs"]:
                spec = RunSpec.from_dict(data)
                memo.enter(spec)
                start = time.perf_counter()
                records.append(execute_spec(spec, memo).to_dict())
                elapsed = time.perf_counter() - start
                reg.observe("runner.spec_seconds", elapsed, mode="parallel")
                reg.inc("runner.worker_busy_seconds", elapsed)
        finally:
            trace.set_tracer(previous_tracer)
    envelope: Dict[str, object] = {
        "task": payload["task"],
        "records": records,
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
        order, byte-identical serially and in parallel.

        ``progress(done, total, record)`` fires on every completion:
        store hits first, then computed records as they arrive, each
        stored before it is reported.  A failure raises — serially the
        original exception object, under ``parallel`` the worker's
        exception as the pool re-raises it — and what was stored before
        it stays stored.
        """
        if not isinstance(plan, Plan):
            plan = Plan(tuple(plan))
        store = self.store
        keys = [spec.content_hash for spec in plan.specs]
        records: List[Optional[RunRecord]] = [None] * len(keys)
        misses: List[int] = []
        done = 0
        for i, key in enumerate(keys):
            record = store.get(key)
            metrics.inc("runner.store_lookups",
                        outcome="miss" if record is None else "hit")
            if record is None:
                misses.append(i)
                continue
            # The store hands over a record the caller owns, already
            # tagged source="store".
            records[i] = record
            done += 1
            if progress is not None:
                progress(done, len(keys), record)
        # Closing the executor ends the plan's pool at once when a
        # failure or the progress callback raises.
        with closing(self._execute(plan.specs, misses)) as executed:
            for i, record in executed:
                warn_floor_from_record(record)
                store.put(keys[i], record)
                records[i] = record
                done += 1
                if progress is not None:
                    progress(done, len(keys), record)
        return records  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _execute(self, specs: Sequence[RunSpec],
                 misses: List[int]) -> _Completions:
        """Compute the specs at ``misses``: ``(plan index, record)``
        pairs in completion order, from a generator ``run`` closes."""
        todo = [specs[i] for i in misses]
        workers = self._effective_parallel(len(todo))
        if workers <= 1:
            return self._execute_serial(todo, misses)
        return self._execute_parallel(todo, misses, workers)

    def _execute_serial(
        self, todo: List[RunSpec], misses: List[int]
    ) -> _Completions:
        """One front-end group at a time, each with its own memo, so its
        loops are shared while they are still needed.  Results are
        handed over only while the memo holds no back-end entry, so the
        caller's work on them (storing, a progress callback) never adds
        to the memory the shared loops hold."""
        artifacts = self.artifacts
        for group in self._group_indices(todo):
            memo = LoopMemo(artifacts)
            ended: List[Tuple[int, RunRecord]] = []
            for i in group:
                memo.enter(todo[i])
                if not memo:
                    yield from ended
                    ended.clear()
                start = time.perf_counter()
                ended.append((misses[i], execute_spec(todo[i], memo)))
                metrics.observe("runner.spec_seconds",
                                time.perf_counter() - start, mode="serial")
            del memo  # the group's shared loops go with it
            yield from ended

    def _execute_parallel(
        self, todo: List[RunSpec], misses: List[int], workers: int
    ) -> _Completions:
        """Fan the groups out over a pool that lives for this plan only;
        its workers use this runner's artifact store, and the front ends
        they put come back to it."""
        chain_free = [chain_free_key(spec) for spec in todo]
        siblings = [sibling_key(spec) for spec in todo]
        tasks = self._balance(self._group_indices(todo), workers,
                              chain_free.__getitem__, siblings.__getitem__)
        # Clamp to the post-split task count: a tiny plan on a many-core
        # machine (parallel=-1) must not spawn a pool of idle processes.
        workers = min(workers, len(tasks))
        payloads = [
            {"task": t, "specs": [todo[i].to_dict() for i in indices]}
            for t, indices in enumerate(tasks)
        ]
        reg = metrics.registry()
        busy_before = reg.counter("runner.worker_busy_seconds")
        pool_start = time.perf_counter()
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
                    for i, data in zip(tasks[reply["task"]],
                                       reply["records"]):
                        yield misses[i], RunRecord.from_dict(data)
        finally:
            wall = time.perf_counter() - pool_start
            if wall > 0 and metrics.enabled():
                busy = reg.counter("runner.worker_busy_seconds")
                metrics.set_gauge(
                    "runner.worker_utilization",
                    (busy - busy_before) / (wall * workers),
                )

    # ------------------------------------------------------------------
    @staticmethod
    def _group_indices(specs: Sequence[RunSpec]) -> List[List[int]]:
        """Partition spec indices by shared front-end key, preserving
        first-seen group order.  Within a group, the specs of one
        :func:`~repro.api.core.chain_free_key` are adjacent, and within
        those the model siblings, each in first-seen order: the specs
        that map onto one :class:`~repro.api.core.LoopMemo` entry run
        back to back."""
        groups: Dict[str, Dict[RunSpec, Dict[RunSpec, List[int]]]] = {}
        for index, spec in enumerate(specs):
            groups.setdefault(spec.frontend_key, {}).setdefault(
                chain_free_key(spec), {}).setdefault(
                sibling_key(spec), []).append(index)
        return [[index for free in group.values()
                 for siblings in free.values() for index in siblings]
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
        :func:`~repro.api.core.sibling_key`.  A split falls on the
        chain-free boundary nearest the middle (the group order keeps
        each chain-free key's specs adjacent, and they share every
        chain-free loop's compile whatever their coherence); a group of
        one chain-free key falls on the sibling boundary nearest the
        middle.  So neither is split unless a task holds nothing else.
        """
        tasks = [list(group) for group in groups]
        while len(tasks) < workers:
            largest = max(range(len(tasks)), key=lambda j: len(tasks[j]))
            group = tasks[largest]
            if len(group) <= 1:
                break
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
