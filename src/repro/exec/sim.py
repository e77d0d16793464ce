"""Deterministic virtual-time executor (discrete-event simulation).

This is the reproduction's substitute for running on Edison/Titan (DESIGN.md
§2): every (rank, worker) pair carries a virtual clock; compute is charged
explicitly (task ``cost=`` or ``charge()``); communication and device
completions arrive as timestamped events. One OS thread drives everything, so
runs are bit-for-bit reproducible for a given seed.

Scheduling order: the engine always runs the lowest-``(clock, rank, wid)``
worker that may have work; when no worker can find work it advances the event
queue; when both are exhausted it has *proved* quiescence (and raises
:class:`DeadlockError` if anything is still blocked).

Worker selection is O(log W): maybe-ready workers live in a lazy-deletion
heap keyed by ``(clock, rank, wid)``. Entries whose worker left the set are
dropped on pop; entries whose clock went stale (the worker ran and advanced
while staying maybe-ready) are re-keyed in place — clocks only move forward,
so a stale entry always surfaces no later than its fresh position. The
selection order is bit-for-bit identical to the previous O(W) ``min()`` scan
(the key is a strict total order per worker); ``selection="scan"`` keeps the
scan implementation for the equivalence test in
``tests/test_scheduler_determinism.py``.

Blocking (``future.wait``, ``finish``) uses *help-until-ready*: the blocked
frame re-enters the engine loop, so any worker — including the blocked one —
keeps executing ready tasks and events keep flowing. This nests on the Python
call stack; pathological nesting depth raises a diagnostic rather than a bare
``RecursionError`` (coroutine tasks avoid the nesting entirely).
"""

from __future__ import annotations

import functools
import heapq
import itertools
import sys
from typing import Any, Callable, List, Optional, Set

import numpy as np

from repro.exec.base import Executor
from repro.exec.eventq import FlatEventQueue
from repro.runtime.context import ExecContext, _tls, current_context, scoped_context
from repro.runtime.finish import FinishScope
from repro.runtime.deques import NullLock
from repro.runtime.future import Future, Promise
from repro.runtime.runtime import HiperRuntime
from repro.runtime.task import Task, TaskSlab, TaskState
from repro.runtime.worker import WorkerState, find_task
from repro.util.errors import (
    ConfigError,
    DeadlockError,
    HiperError,
    PlaceFailure,
    RuntimeStateError,
)


class SimExecutor(Executor):
    """Single-threaded, deterministic, virtual-time engine for 1..N runtimes."""

    mode = "sim"

    #: Single OS thread: deque slots and occupancy indexes need no locking.
    lock_class = NullLock

    #: Exact occupancy + no parking races: wakes are only needed on
    #: empty -> non-empty slot transitions (see Executor.notify_on_every_push).
    notify_on_every_push = False

    #: Nested help-until-ready levels beyond which we fail loudly with advice
    #: instead of hitting Python's recursion limit somewhere unhelpful.
    MAX_HELP_DEPTH = 4000

    def __init__(self, *, trace: bool = False, task_overhead: float = 0.0,
                 selection: str = "heap", engine: str = "flat",
                 shards: int = 1):
        """``task_overhead``: virtual seconds charged per task dispatch
        (models scheduler/dispatch cost; 0 by default, exercised by the
        runtime-overhead ablation bench). ``selection``: ``"heap"`` (default,
        O(log W) lazy-deletion heap) or ``"scan"`` (legacy O(W) min-scan,
        kept to prove the two produce identical schedules). ``engine``:
        ``"flat"`` (default since it soaked through the PR-7 differential
        gates; slab-allocated events in a calendar queue plus recycled task
        records — see ``docs/sim-internals.md``) or ``"objects"`` (the
        original heapq-of-records engine, kept selectable; the two produce
        bit-for-bit identical schedules, gated by the verify differential).
        ``shards``: partition an SPMD run across N OS processes, each driving
        its own flat sub-simulator, synchronized by conservative time windows
        (see ``repro.exec.shards``). ``shards=1`` (default) is a strict
        passthrough — this executor runs everything itself and the attribute
        is never consulted again."""
        if selection not in ("heap", "scan"):
            raise ConfigError(
                f"selection must be 'heap' or 'scan', got {selection!r}")
        if engine not in ("objects", "flat"):
            raise ConfigError(
                f"engine must be 'objects' or 'flat', got {engine!r}")
        if not isinstance(shards, int) or isinstance(shards, bool):
            raise ConfigError(f"shards must be an int, got {shards!r}")
        if shards < 1:
            raise ConfigError(f"shards must be >= 1, got {shards}")
        if shards > 1 and engine != "flat":
            raise ConfigError(
                f"sharded execution requires engine='flat', got {engine!r}")
        self.shards = shards
        self._runtimes: List[HiperRuntime] = []
        self._workers: List[WorkerState] = []
        # (runtime id) -> place_id -> (pop_cover: wid->WorkerState,
        #                              steal_cover: List[WorkerState])
        self._coverage = {}
        self._maybe_ready: Set[WorkerState] = set()
        self._use_heap = selection == "heap"
        self._ready_heap: List = []  # (clock, rank, wid, seq, worker)
        self._wake_seq = itertools.count()
        self.engine = engine
        if engine == "flat":
            # Slab-allocated calendar queue; same truthiness/len/clear
            # protocol as the heap list, so _step/shutdown/repr are shared.
            self._events: Any = FlatEventQueue()
            self.call_later = self._call_later_flat  # type: ignore[method-assign]
            self.call_at = self._call_at_flat  # type: ignore[method-assign]
            self.call_at_batch = self._call_at_batch_flat  # type: ignore[method-assign]
            self.cancel_event = self._cancel_event_flat  # type: ignore[method-assign]
            self._advance_events = self._advance_events_flat  # type: ignore[method-assign]
            self.task_slab = TaskSlab()
            # Reusable bare dispatch context (now() == event floor): the
            # flat advance path pushes/pops this one instance per batch.
            self._bare_ctx = ExecContext(self)
        else:
            self._events = []  # heap of [time, seq, fn]; fn None == cancelled
        self._event_seq = itertools.count()
        self._event_floor = 0.0
        self._help_depth = 0
        self._dead_workers = {}  # id(runtime) -> set of failed worker ids
        self._blocked: List[str] = []
        self._shutdown = False
        self._stepping = False
        self.trace = trace
        self.task_overhead = float(task_overhead)
        self.events_processed = 0
        # Help-until-ready nests on the Python call stack, so engine driving
        # needs recursion headroom; raised on first drive/drain and restored
        # at shutdown (not a permanent process-wide side effect).
        self._saved_recursion_limit: Optional[int] = None

    #: Recursion limit while the engine drives (covers MAX_HELP_DEPTH nesting
    #: with several Python frames per help level).
    ENGINE_RECURSION_LIMIT = 100_000

    def _ensure_recursion_headroom(self) -> None:
        if self._saved_recursion_limit is not None:
            return
        current = sys.getrecursionlimit()
        if current < self.ENGINE_RECURSION_LIMIT:
            self._saved_recursion_limit = current
            sys.setrecursionlimit(self.ENGINE_RECURSION_LIMIT)

    def _restore_recursion_limit(self) -> None:
        if self._saved_recursion_limit is None:
            return
        # Restore only if nobody else adjusted the limit in the meantime.
        if sys.getrecursionlimit() == self.ENGINE_RECURSION_LIMIT:
            sys.setrecursionlimit(self._saved_recursion_limit)
        self._saved_recursion_limit = None

    # ------------------------------------------------------------------
    # Executor interface
    # ------------------------------------------------------------------
    def register_runtime(self, runtime: HiperRuntime) -> None:
        if self._shutdown:
            raise RuntimeStateError("executor already shut down")
        self._runtimes.append(runtime)
        self._coverage[id(runtime)] = self._build_coverage(runtime)
        self._workers.extend(runtime.workers)

    def _build_coverage(self, runtime: HiperRuntime,
                        exclude=frozenset()):
        """Precompute, per (place, creating worker), the tuple of workers
        that could actually take such a task: only the creator pops its slot
        (if the place is on its pop path) and only *other* workers steal it
        (if the place is on their steal path). notify() then wakes exactly
        the workers whose search could succeed, in one tuple walk.

        ``exclude`` (worker ids) drops failed workers from every wake list —
        fail_worker rebuilds the maps so the dead worker is never woken
        again."""
        cov = {}
        live = [w for w in runtime.workers if w.wid not in exclude]
        pop_sets = {w.wid: set(w.pop_path) for w in live}
        steal_sets = {w.wid: set(w.steal_path) for w in live}
        for place in runtime.model:
            steal_cover = [w for w in live if place in steal_sets[w.wid]]
            wake_all = tuple(
                dict.fromkeys(
                    [w for w in live if place in pop_sets[w.wid]] + steal_cover
                )
            )
            by_creator = []
            for creator in range(runtime.num_workers):
                wake = []
                if place in pop_sets.get(creator, ()):
                    wake.append(runtime.workers[creator])
                wake.extend(w for w in steal_cover if w.wid != creator)
                by_creator.append(tuple(wake))
            cov[place.place_id] = (by_creator, wake_all)
        return cov

    def shutdown(self) -> None:
        self._shutdown = True
        self._maybe_ready.clear()
        self._ready_heap.clear()
        if self.engine == "flat":
            # Break the reference cycles that keep a finished flat executor
            # alive under refcounting alone: the engine bindings in the
            # instance dict are bound methods (each holds ``self``) and the
            # reusable dispatch context points back at the executor. Under
            # ``gc.disable()`` — pytest-benchmark runs that way — an
            # un-broken cycle pins the executor's entire event slab and
            # task slab per instance. Dropping the slab wholesale is also
            # cheaper than clear(), which reallocates at full capacity.
            self._bare_ctx = None
            for name in ("call_later", "call_at", "call_at_batch",
                         "cancel_event", "_advance_events"):
                self.__dict__.pop(name, None)
            self._events = []
            self.task_slab = TaskSlab()
        else:
            self._events.clear()
        self._restore_recursion_limit()

    def pending_events(self) -> int:
        return len(self._events)

    def now(self) -> float:
        # current_context() inlined: now() runs once per enqueue (release-time
        # stamping), so the extra call is measurable on the dispatch path.
        stack = _tls.stack
        if stack:
            worker = stack[-1].worker
            if worker is not None:
                return worker.clock
        return self._event_floor

    def charge(self, seconds: float) -> None:
        if seconds < 0:
            raise ConfigError(f"cannot charge negative time {seconds}")
        ctx = current_context()
        if ctx is None or ctx.worker is None:
            raise RuntimeStateError("charge() must be called from a worker context")
        ctx.worker.clock += seconds
        if ctx.runtime is not None:
            ctx.runtime.stats.worker_activity(ctx.worker.wid, busy=seconds)

    def notify(self, runtime: HiperRuntime, place,
               created_by: Optional[int] = None) -> None:
        by_creator, wake_all = self._coverage[id(runtime)][place.place_id]
        workers = wake_all if created_by is None else by_creator[created_by]
        ready = self._maybe_ready
        if self._use_heap:
            heap, seq = self._ready_heap, self._wake_seq
            for w in workers:
                if w not in ready:
                    ready.add(w)
                    heapq.heappush(
                        heap, (w.clock, w.rank, w.wid, next(seq), w))
        else:
            for w in workers:
                ready.add(w)

    def _wake(self, worker: WorkerState) -> None:
        if worker not in self._maybe_ready:
            self._maybe_ready.add(worker)
            if self._use_heap:
                heapq.heappush(
                    self._ready_heap,
                    (worker.clock, worker.rank, worker.wid,
                     next(self._wake_seq), worker),
                )

    def call_later(self, delay: float, fn: Callable[[], None]) -> int:
        """Schedule ``fn`` after ``delay`` virtual seconds; returns a handle
        for :meth:`cancel_event`. Rejects negative and NaN delays — a NaN
        would corrupt the heap invariant silently (every comparison against
        it is False), scrambling event order downstream."""
        if delay < 0 or delay != delay:
            raise ConfigError(
                f"call_later delay must be a non-negative number, got {delay}")
        seq = next(self._event_seq)
        heapq.heappush(self._events, [self.now() + delay, seq, fn])
        return seq

    def call_at(self, when: float, fn: Callable[..., None],
                arg: Any = None) -> int:
        """Schedule ``fn()`` — or ``fn(arg)`` when ``arg`` is not None — at an
        absolute virtual time (used by the network fabric); returns a handle
        for :meth:`cancel_event`. Rejects NaN timestamps (silent heap-order
        corruption, as in :meth:`call_later`). Passing ``arg`` lets a
        per-message caller post a shared function plus one record instead
        of allocating a closure per event.

        Clamped to the event floor, not zero: the floor only moves forward,
        and an event stamped in the virtual past would sort "before" events
        that have already been processed, silently reordering causality."""
        if when != when:
            raise ConfigError(f"call_at timestamp must not be NaN, got {when}")
        seq = next(self._event_seq)
        heapq.heappush(
            self._events,
            [when if when > self._event_floor else self._event_floor, seq,
             fn if arg is None else functools.partial(fn, arg)],
        )
        return seq

    def call_at_batch(self, whens, fn: Callable[[Any], None], args) -> None:
        """Schedule ``fn(args[i])`` at each ``whens[i]`` (floor-clamped like
        :meth:`call_at`). One call prices a whole fabric wave; the flat
        engine inserts it with a single vectorized slab append, this heap
        fallback degenerates to per-event pushes. Internal fast path: no
        NaN validation, no cancellation handles."""
        events = self._events
        floor = self._event_floor
        seq = self._event_seq
        push = heapq.heappush
        if isinstance(whens, np.ndarray):
            whens = whens.tolist()
        for w, a in zip(whens, args):
            push(events, [w if w > floor else floor, next(seq),
                          functools.partial(fn, a)])

    def cancel_event(self, handle: int) -> bool:
        """Cancel a pending event by the handle ``call_later``/``call_at``
        returned. Returns True if the event was still pending. Cancellation
        is lazy on both engines: the record keeps its queue position with a
        blanked callback and is skipped at dispatch, so an event of the
        batch currently being dispatched is already out of reach."""
        for entry in self._events:
            if entry[1] == handle:
                if entry[2] is None:
                    return False
                entry[2] = None
                return True
        return False

    # Flat-engine variants, swapped in as instance attributes by __init__.

    def _call_later_flat(self, delay: float, fn: Callable[[], None]) -> int:
        if delay < 0 or delay != delay:
            raise ConfigError(
                f"call_later delay must be a non-negative number, got {delay}")
        return self._events.push(self.now() + delay, fn)

    def _call_at_flat(self, when: float, fn: Callable[..., None],
                      arg: Any = None) -> int:
        if when != when:
            raise ConfigError(f"call_at timestamp must not be NaN, got {when}")
        # The slab's argument column carries ``arg``; dispatch calls
        # ``fn(arg)`` for a non-None argument, ``fn()`` otherwise.
        return self._events.push(
            when if when > self._event_floor else self._event_floor, fn, arg)

    def _call_at_batch_flat(self, whens, fn, args) -> None:
        # Clamp to the event floor only when some timestamp is below it:
        # waves are stamped at-or-after "now", so the common case is one
        # min() instead of a per-event rewrite.
        floor = self._event_floor
        if isinstance(whens, np.ndarray):
            if whens.size and float(whens.min()) < floor:
                whens = np.maximum(whens, floor)
        elif whens and min(whens) < floor:
            whens = [w if w > floor else floor for w in whens]
        self._events.push_batch(whens, fn, args)

    def _cancel_event_flat(self, handle: int) -> bool:
        return self._events.cancel(handle)

    # ------------------------------------------------------------------
    # fault injection (repro.resilience)
    # ------------------------------------------------------------------
    def fail_place(self, runtime: HiperRuntime, place,
                   reassign_to=None):
        """Simulate the failure of ``place`` on ``runtime`` at the current
        virtual time.

        Ready tasks whose body has not started are *replayed*: moved to
        ``reassign_to`` (default: system memory) with ``attempts`` bumped.
        Their finish-scope registration carries over unchanged, so enclosing
        joins keep waiting for the replayed work. Partially-executed
        coroutine continuations have observed state that died with the place,
        so they are failed with :class:`PlaceFailure` (catch it with
        ``async_retry(retry_on=PlaceFailure)`` to restore-and-redo from a
        checkpoint). Future enqueues targeting the place are redirected to
        the fallback. Returns ``(replayed, killed)`` counts.
        """
        fallback = reassign_to if reassign_to is not None else runtime.sysmem
        if fallback is place:
            raise ConfigError(
                f"cannot reassign failed place {place.name!r} to itself")
        if fallback.place_id in runtime._dead_places:
            raise ConfigError(
                f"fallback place {fallback.name!r} has itself failed")
        t = self.now()
        drained = runtime.deques.at(place).drain()
        runtime.mark_place_failed(place, fallback)
        replayed = killed = 0
        for task in drained:
            if task.gen is None:
                task.attempts += 1
                task.place = fallback
                replayed += 1
                runtime._enqueue(task)
            else:
                killed += 1
                self._fail(runtime, task, PlaceFailure(
                    f"place {place.name!r} on rank {runtime.rank} failed at "
                    f"t={t:.9f} with task {task.name!r} in flight",
                    place=place.name))
        stats = runtime.stats
        stats.count("resilience", "place_failures")
        if replayed:
            stats.count("resilience", "tasks_replayed", replayed)
        if killed:
            stats.count("resilience", "tasks_killed", killed)
        stats.sample("resilience/failures", t, float(replayed + killed))
        return replayed, killed

    def fail_worker(self, runtime: HiperRuntime, wid: int) -> int:
        """Simulate the failure of worker ``wid`` on ``runtime``.

        The worker leaves the maybe-ready set (its stale heap entries are
        lazily discarded), every wake-coverage list is rebuilt without it,
        and its deque slots are evacuated: stranded tasks are re-pushed under
        the lowest live worker id, which also receives all future pushes
        crediting the dead worker. Returns the number of tasks moved.
        """
        if not 0 <= wid < runtime.num_workers:
            raise ConfigError(
                f"worker {wid} out of range [0, {runtime.num_workers})")
        dead = self._dead_workers.setdefault(id(runtime), set())
        if wid in dead:
            return 0
        if len(dead) + 1 >= runtime.num_workers:
            raise ConfigError(
                f"cannot fail worker {wid}: it is the last live worker on "
                f"rank {runtime.rank}")
        dead.add(wid)
        worker = runtime.workers[wid]
        self._maybe_ready.discard(worker)
        self._coverage[id(runtime)] = self._build_coverage(runtime,
                                                           exclude=dead)
        target = min(w.wid for w in runtime.workers if w.wid not in dead)
        runtime.mark_worker_failed(wid, target)
        moved = 0
        for place in runtime.model:
            for task in runtime.deques.at(place).slots[wid].drain():
                task.created_by = target
                moved += 1
                runtime._enqueue(task)
        stats = runtime.stats
        stats.count("resilience", "worker_failures")
        if moved:
            stats.count("resilience", "tasks_moved", moved)
        stats.sample("resilience/failures", self.now(), float(moved))
        return moved

    # ------------------------------------------------------------------
    # the engine loop
    # ------------------------------------------------------------------
    def _step(self) -> bool:
        """Run one task or one event batch. False iff nothing can happen."""
        if self._use_heap:
            ready, heap = self._maybe_ready, self._ready_heap
            while ready:
                clock, _rank, _wid, _seq, worker = heap[0]
                if worker not in ready:
                    heapq.heappop(heap)  # lazily-deleted entry
                    continue
                if clock != worker.clock:
                    # Stale key: the worker ran (clocks only advance) while
                    # staying maybe-ready. Re-key at its current clock.
                    heapq.heapreplace(
                        heap, (worker.clock, worker.rank, worker.wid,
                               next(self._wake_seq), worker))
                    continue
                task = find_task(worker)
                if task is None:
                    ready.discard(worker)
                    heapq.heappop(heap)
                    continue
                self._run_task(worker, task)
                return True
        else:  # legacy scan-min selection (determinism cross-check)
            while self._maybe_ready:
                worker = min(
                    self._maybe_ready, key=lambda w: (w.clock, w.rank, w.wid)
                )
                task = find_task(worker)
                if task is None:
                    self._maybe_ready.discard(worker)
                    continue
                self._run_task(worker, task)
                return True
        if self._events:
            self._advance_events()
            return True
        return False

    def _run_task(self, worker: WorkerState, task: Task) -> None:
        release = task.release_time
        if release > worker.clock:  # advance_clock_to, inlined (hot path)
            worker.idle_time += release - worker.clock
            worker.clock = release
        if self.trace:  # pragma: no cover - debugging aid
            print(f"[sim t={worker.clock:.9f}] r{worker.rank}w{worker.wid} run {task.describe()}")
        self.execute_task(worker.runtime, worker, task)
        slab = self.task_slab
        if slab is not None and (task.state is TaskState.DONE
                                 or task.state is TaskState.FAILED):
            # Flat engine: the record's lifetime provably ends here —
            # suspended/re-enqueued tasks are still referenced by resumer
            # closures or deques and stay out of the pool.
            slab.release(task)
        # The task may have pushed follow-up work for this worker; notify()
        # covers cross-worker wakes but re-adding ourselves is cheap and keeps
        # the hot pop-path loop tight. (Usually still a member here — then
        # this is just a set test; the worker's existing heap entry is
        # re-keyed lazily when its stale clock surfaces at the heap top.)
        if worker not in self._maybe_ready:
            self._wake(worker)

    def _advance_events(self) -> None:
        """Pop and run every event sharing the minimum timestamp (blanked —
        cancelled — callbacks pop with their batch but are skipped)."""
        t0, _, fn = heapq.heappop(self._events)
        self._event_floor = max(self._event_floor, t0)
        batch = [fn]
        while self._events and self._events[0][0] == t0:
            batch.append(heapq.heappop(self._events)[2])
        ctx = ExecContext(self)  # bare context: now() == event floor
        with scoped_context(ctx):
            for fn in batch:
                if fn is None:
                    continue
                fn()
                self.events_processed += 1

    def _advance_events_flat(self) -> None:
        """Flat-engine advance: one calendar pop surfaces the whole
        equal-timestamp cohort as raw slab slots, and dispatch runs straight
        off the slab columns — no per-event materialization.  Singleton
        cohorts snapshot their one record and release it up front; larger
        cohorts stay resident on the queue's in-flight stack until done, so
        concurrent pushes cannot recycle their slots and cancel_event treats
        them as already-run (the same reach the objects engine gives its
        materialized batch).

        The bare dispatch context (now() == event floor) is one reusable
        instance, and the context-stack push/pop is inlined: this wraps
        every virtual-time advance, and on singleton batches the CM overhead
        was a measurable share of the engine loop."""
        q = self._events
        t0, slots = q.pop_batch()
        if t0 > self._event_floor:
            self._event_floor = t0
        fns_l, args_l = q.fns, q.args
        if len(slots) == 1:
            # Singleton cohort (timer chains): snapshot-and-release is
            # cheaper than the in-flight protocol. The release is inlined
            # (kind 0 == free, clear payload, pool the slot) — a method
            # call per timer event is measurable at storm rates.
            slot = slots[0]
            fn = fns_l[slot]
            arg = args_l[slot]
            q._kind[slot] = 0
            fns_l[slot] = None
            args_l[slot] = None
            q._free.append(slot)
            if fn is None:
                return
            stack = _tls.stack
            stack.append(self._bare_ctx)
            try:
                if arg is None:
                    fn()
                else:
                    fn(arg)
                self.events_processed += 1
            finally:
                stack.pop()
            return
        n = 0
        stack = _tls.stack
        stack.append(self._bare_ctx)
        q.inflight.append(slots)
        epoch = q.epoch
        try:
            if type(slots) is range:
                # Contiguous cohort: iterate the payload columns by slice —
                # zip of two list slices beats per-slot indexed loads. The
                # slices are snapshots, which is exactly the semantics the
                # objects engine gives its materialized batch (a cancel
                # landing mid-dispatch is too late either way).
                for fn, arg in zip(fns_l[slots.start:slots.stop],
                                   args_l[slots.start:slots.stop]):
                    if fn is None:
                        continue
                    if arg is None:
                        fn()
                    else:
                        fn(arg)
                    n += 1
            else:
                for s in slots:
                    fn = fns_l[s]
                    if fn is None:
                        continue
                    arg = args_l[s]
                    if arg is None:
                        fn()
                    else:
                        fn(arg)
                    n += 1
        finally:
            q.inflight.pop()
            if q.epoch == epoch:
                q.release_batch(slots)
            stack.pop()
            self.events_processed += n

    def on_task_start(self, worker: WorkerState, task: Task) -> None:
        # task.cost is the body's total compute: charge it on the FIRST
        # segment only (coroutine resumes are continuations of the same
        # body); the dispatch overhead applies to every segment.
        cost = self.task_overhead + (task.cost if task.gen is None else 0.0)
        if cost:
            worker.clock += cost
            worker.runtime.stats.worker_activity(worker.wid, busy=cost)

    # ------------------------------------------------------------------
    # blocking
    # ------------------------------------------------------------------
    def block_until(
        self,
        predicate: Callable[[], bool],
        description: str = "",
        time_source: Optional[Callable[[], float]] = None,
    ) -> None:
        ctx = current_context()
        worker = ctx.worker if ctx is not None else None
        if not predicate():
            self._help_depth += 1
            if self._help_depth > self.MAX_HELP_DEPTH:
                self._help_depth -= 1
                raise HiperError(
                    f"help-until-ready nesting exceeded {self.MAX_HELP_DEPTH} "
                    f"while blocking on {description or 'a condition'}; "
                    "convert deeply-blocking plain tasks to coroutine tasks "
                    "(yield the future instead of wait())"
                )
            self._blocked.append((description or "<anonymous wait>", predicate))
            try:
                while not predicate():
                    if not self._step():
                        names = [d for d, _ in self._blocked]
                        # Diagnose help-stack inversion: an OUTER blocked
                        # frame whose condition is already satisfied cannot
                        # unwind past us — plain blocking calls in an
                        # iterative SPMD pattern; the fix is coroutine style.
                        inverted = [
                            d for d, p in self._blocked[:-1] if p()
                        ]
                        if inverted:
                            raise DeadlockError(
                                "help-stack inversion: progress requires "
                                f"unwinding to {inverted!r}, which is buried "
                                "beneath this frame on the help stack. Use "
                                "the *_async/future APIs and yield from "
                                "coroutine mains instead of blocking calls "
                                f"(innermost wait: {description!r})",
                                blocked=names,
                            )
                        raise DeadlockError(
                            f"no runnable work or events while waiting on "
                            f"{description or 'a condition'}",
                            blocked=names,
                        )
            finally:
                self._blocked.pop()
                self._help_depth -= 1
        if worker is not None and time_source is not None:
            worker.advance_clock_to(time_source())

    # ------------------------------------------------------------------
    # roots and driving
    # ------------------------------------------------------------------
    def submit_root(
        self, runtime: HiperRuntime, fn: Callable[[], Any], *, name: str = "root"
    ) -> Future:
        """Enqueue ``fn`` as a root task under a fresh finish scope; return a
        future satisfied (with ``fn``'s value) once the whole scope quiesces.
        Does not drive the engine — SPMD launchers submit all ranks first."""
        # self.lock_class, not a hard-coded NullLock: subclasses (the
        # schedule-exploring verifier) plug in tracked locks here.
        scope = FinishScope(name=f"{name}-scope", lock_cls=self.lock_class)
        inner = runtime.spawn(
            fn, scope=scope, return_future=True, name=name,
            place=runtime.workers[0].pop_path[0],
        )
        assert inner is not None
        scope.close()
        out = Promise(name=f"{name}-done")

        def _joined(_f) -> None:
            try:
                scope.raise_collected()
                out.put(inner.value())
            except BaseException as exc:  # noqa: BLE001
                out.put_exception(exc)

        scope.all_done_future().on_ready(_joined)
        return out.get_future()

    def drive(self, until: Callable[[], bool]) -> None:
        """Pump the engine until ``until()`` is true; raise on dead quiescence."""
        if self._stepping:
            raise RuntimeStateError(
                "drive() re-entered; use block_until from inside tasks"
            )
        self._ensure_recursion_headroom()
        self._stepping = True
        try:
            while not until():
                if not self._step():
                    raise DeadlockError(
                        "engine quiesced before completion",
                        blocked=[d for d, _ in self._blocked]
                        + [
                            f"ready tasks at {name}: {n}"
                            for rt in self._runtimes
                            for name, n in rt.deques.snapshot().items()
                        ],
                    )
        finally:
            self._stepping = False

    def drain(self) -> None:
        """Run until full quiescence (no ready tasks, no events)."""
        self._ensure_recursion_headroom()
        while self._step():
            pass

    def run_root(
        self, runtime: HiperRuntime, fn: Callable[[], Any], *, name: str = "root"
    ) -> Any:
        fut = self.submit_root(runtime, fn, name=name)
        # Bind the promise once: the predicate runs per engine step, and a
        # plain attribute read beats the Future.satisfied property call.
        promise = fut._promise
        self.drive(lambda: promise._satisfied)
        return fut.value()

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def makespan(self) -> float:
        """Virtual completion time: max worker clock / event floor seen."""
        clocks = [w.clock for w in self._workers]
        return max(clocks + [self._event_floor]) if clocks else self._event_floor

    def worker_clocks(self) -> List[float]:
        return [w.clock for w in self._workers]

    def __repr__(self) -> str:
        return (
            f"SimExecutor(runtimes={len(self._runtimes)}, "
            f"workers={len(self._workers)}, events={len(self._events)}, "
            f"floor={self._event_floor:.6f})"
        )
