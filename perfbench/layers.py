"""Per-layer spans recorded from outside the program.

:class:`LayerTracer` replaces the public entry points of each layer with a
timing wrapper, at the name where the caller looks it up: a class attribute
for methods (so methods the executor binds per instance in ``__init__``, like
``call_at``, are wrapped as long as the tracer is installed before the
executor is built), or the module global a caller imported by name (the app
kernels, ``find_task`` in the engine, ``discover`` in the launcher).

Spans nest on one stack. A layer's self time is the duration of its spans
minus the part their child spans cover, so a layer re-entered through
help-until-ready nesting is never counted twice. Task bodies get spans of
their own (``task.body``): the app and module code they run outside any
wrapped layer is reported with ``other``, not charged to the engine loop that
dispatched them.
"""

from __future__ import annotations

import collections
import functools
import importlib
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layers in report order. ``task.body`` is a span kind, not a layer.
LAYERS = ("exec.sim", "exec.eventq", "runtime", "runtime.future", "net.mux",
          "net.fabric", "shmem.backend", "util.bufpool", "apps",
          "distrib.spmd")
TASK_BODY = "task.body"


# -- tallies: counts taken at the entry point, beside the span -------------
# ``pre`` hooks run before the call and see the arguments; ``post`` hooks run
# after a successful return and also see the result. Plain call counts need
# no hook: every entry point counts its calls.

def _pre_callbacks(tracer, args) -> None:
    tracer.counts["future.callbacks"] += len(args[0]._callbacks)


def _pre_immediate_callback(tracer, args) -> None:
    if args[0]._satisfied:  # already satisfied: the callback runs now
        tracer.counts["future.callbacks"] += 1


def _post_pop(tracer, args, result) -> None:
    fns = args[0].fns
    live = sum(1 for s in result[1] if fns[s] is not None)
    tracer.counts["eventq.pops"] += live
    if len(result[1]) > 1:
        tracer.counts["eventq.cohort_pops"] += live


def _post_find_task(tracer, args, result) -> None:
    if result is None and args[0].steal_mask:
        tracer.counts["runtime.empty_searches"] += 1


def _post_steal(tracer, args, result) -> None:
    if result is not None:
        tracer.counts["runtime.steals"] += 1


def _post_mux_wave(tracer, args, result) -> None:
    tracer.counts["mux.wave_msgs"] += len(args[1])


def _post_fabric_msg(tracer, args, result) -> None:
    tracer.counts["fabric.msgs"] += 1
    tracer.counts["fabric.bytes"] += args[3]


def _post_fabric_wave(tracer, args, result) -> None:
    n, nbytes = len(args[2]), args[3]
    tracer.counts["fabric.msgs"] += n
    tracer.counts["fabric.bytes"] += (
        int(nbytes) * n if not hasattr(nbytes, "__len__")
        else sum(int(b) for b in nbytes))


def _post_backend(tracer, args, result) -> None:
    tracer.backends[id(args[0])] = args[0]


def _post_amo_wave(tracer, args, result) -> None:
    tracer.backends[id(args[0])] = args[0]
    tracer.counts["shmem.wave_amos"] += len(args[4])


def _post_pool(tracer, args, result) -> None:
    tracer.pools[id(args[0])] = args[0]


#: ``layer:Name`` key -> (layer, "module[:Class]", attribute, pre, post).
#: The key's ``Name`` is how reports and coverage checks refer to it.
ENTRY_POINTS: Dict[str, Tuple[str, str, str, Optional[Callable],
                              Optional[Callable]]] = {}


def _entry(layer: str, owner: str, attr: str, pre=None, post=None,
           name: Optional[str] = None) -> None:
    """Register an entry point: ``attr`` of ``owner``, reported as
    ``layer:name``."""
    cls = owner.partition(":")[2]
    label = name or (f"{cls}.{attr}" if cls else attr)
    ENTRY_POINTS[f"{layer}:{label}"] = (layer, owner, attr, pre, post)


_SIM = "repro.exec.sim:SimExecutor"
_entry("exec.sim", _SIM, "drive")
_entry("exec.sim", _SIM, "block_until")
# SimExecutor.__init__ binds the flat engine's methods per instance as
# _advance_events, call_later, call_at, call_at_batch and cancel_event:
# wrapping the class attributes it reads is what makes the executor's own
# bindings traced.
_entry("exec.sim", _SIM, "_advance_events_flat",
       name="SimExecutor.advance_events")
for _op in ("call_later", "call_at", "call_at_batch", "cancel_event"):
    _entry("exec.eventq", _SIM, f"_{_op}_flat", name=f"SimExecutor.{_op}")
_entry("exec.eventq", "repro.exec.eventq:FlatEventQueue", "pop_batch",
       post=_post_pop)
_entry("exec.eventq", "repro.exec.eventq:FlatEventQueue", "release_batch")
_entry("runtime", "repro.runtime.runtime:HiperRuntime", "spawn")
_entry("runtime", "repro.runtime.runtime:HiperRuntime", "reenqueue")
_entry("runtime", "repro.exec.sim", "find_task", post=_post_find_task)
_entry("runtime", "repro.runtime.deques:PlaceDeques", "steal_from_others",
       post=_post_steal)
_entry("runtime.future", "repro.runtime.future:Promise", "_resolve",
       pre=_pre_callbacks)
_entry("runtime.future", "repro.runtime.future:Promise", "_add_callback",
       pre=_pre_immediate_callback)
_entry("net.mux", "repro.net.mux:FabricMux", "transmit")
_entry("net.mux", "repro.net.mux:FabricMux", "transmit_wave",
       post=_post_mux_wave)
_entry("net.mux", "repro.net.mux:FabricMux", "_dispatch")
_entry("net.fabric", "repro.net.fabric:SimFabric", "transmit",
       post=_post_fabric_msg)
_entry("net.fabric", "repro.net.fabric:SimFabric", "transmit_wave",
       post=_post_fabric_wave)
_entry("net.fabric", "repro.net.fabric", "_deliver_wave")
_SHMEM = "repro.shmem.backend:ShmemBackend"
for _op in ("put", "get", "amo"):
    _entry("shmem.backend", _SHMEM, _op, post=_post_backend)
_entry("shmem.backend", _SHMEM, "amo_fetch_wave", post=_post_amo_wave)
_entry("shmem.backend", _SHMEM, "quiet")
_entry("shmem.backend", _SHMEM, "_on_delivery")
_entry("util.bufpool", "repro.util.bufpool:BufferPool", "take_copy",
       post=_post_pool)
_entry("util.bufpool", "repro.util.bufpool:BufferPool", "_give_back")
# The app variants import their kernels by name: wrap those names.
for _fn in ("generate_keys", "route_keys", "local_sort"):
    _entry("apps", "repro.apps.isx.variants", _fn, name=f"isx.{_fn}")
_entry("apps", "repro.apps.uts.variants", "expand_chunk",
       name="uts.expand_chunk")
_entry("apps", "repro.apps.uts.common", "children", name="uts.children")
_entry("distrib.spmd", "repro.distrib.spmd", "discover")
_entry("distrib.spmd", "repro.distrib.spmd", "HiperRuntime")
_entry("distrib.spmd", "repro.runtime.runtime:HiperRuntime", "start")
_entry(TASK_BODY, "repro.runtime.task:Task", "start_body")
_entry(TASK_BODY, "repro.runtime.task:Task", "step")


def resolve(owner: str, attr: str) -> Any:
    """The object holding an entry point; raise AttributeError unless it
    defines ``attr`` itself."""
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    if cls:
        obj = getattr(obj, cls)
    if attr not in vars(obj):
        raise AttributeError(f"{owner} does not define {attr}")
    return obj


class LayerTracer:
    """Spans and counts for one traced run. Use as a context manager: the
    wrappers are installed on entry and the original names restored on
    exit."""

    def __init__(self) -> None:
        #: Per-entry-point call counts (taken on entry).
        self._calls: Dict[str, List[int]] = {k: [0] for k in ENTRY_POINTS}
        #: Per-layer ``[self seconds, inclusive seconds]``.
        self._time: Dict[str, List[float]] = {
            layer: [0.0, 0.0] for layer in LAYERS + (TASK_BODY,)}
        self.counts: Dict[str, int] = collections.Counter()
        #: Instances seen at entry points, for the counter cross-checks.
        self.backends: Dict[int, Any] = {}
        self.pools: Dict[int, Any] = {}
        self._stack: List[float] = [0.0]
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- install / restore ------------------------------------------------
    def __enter__(self) -> "LayerTracer":
        try:
            for key, (layer, owner, attr, pre, post) in ENTRY_POINTS.items():
                obj = resolve(owner, attr)
                # Class attributes are read raw, so a plain function (not a
                # bound method) is wrapped and re-bound per instance.
                original = vars(obj)[attr]
                self._saved.append((obj, attr, original))
                setattr(obj, attr, self._wrap(key, layer, original, pre, post))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            obj, attr, original = self._saved.pop()
            setattr(obj, attr, original)

    def _wrap(self, key: str, layer: str, fn: Callable,
              pre: Optional[Callable], post: Optional[Callable]) -> Callable:
        stack, calls, acc = self._stack, self._calls[key], self._time[layer]
        clock = time.perf_counter
        tracer = self

        def span(*args, **kwargs):
            calls[0] += 1
            if pre is not None:
                pre(tracer, args)
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                d = clock() - t0
                acc[0] += d - stack.pop()
                acc[1] += d
                stack[-1] += d
            if post is not None:
                post(tracer, args, result)
            return result

        functools.update_wrapper(span, fn, updated=())
        return span

    # -- report -------------------------------------------------------------
    def calls(self, key: str) -> int:
        return self._calls[key][0]

    def calls_of(self, layer: str) -> int:
        return sum(c[0] for k, c in self._calls.items()
                   if k.startswith(layer + ":"))

    def self_s(self, layer: str) -> float:
        return self._time[layer][0]

    def inclusive_s(self, layer: str) -> float:
        return self._time[layer][1]

    def layer_self_s(self) -> float:
        return sum(self._time[layer][0] for layer in LAYERS)

    def uncalled(self, keys) -> List[str]:
        return [k for k in keys if not self._calls[k][0]]


# -- per-layer metrics ----------------------------------------------------

#: Per-layer metric -> (unit, better). Kept in step with BENCHMARK.json's
#: ``per_layer`` list by the benchmark's tests.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "exec.sim.events": ("count", "lower"),
    "exec.sim.self_s": ("s", "lower"),
    "exec.sim.us_per_event": ("us", "lower"),
    "exec.eventq.calls": ("count", "lower"),
    "exec.eventq.self_s": ("s", "lower"),
    "exec.eventq.cohort_share": ("ratio", "higher"),
    "runtime.spawns": ("count", "lower"),
    "runtime.steal_attempts": ("count", "lower"),
    "runtime.steals": ("count", "higher"),
    "runtime.steal_success_ratio": ("ratio", "higher"),
    "runtime.self_s": ("s", "lower"),
    "runtime.future.puts": ("count", "lower"),
    "runtime.future.callbacks": ("count", "lower"),
    "runtime.future.self_s": ("s", "lower"),
    "net.mux.transmits": ("count", "lower"),
    "net.mux.waves": ("count", "higher"),
    "net.mux.self_s": ("s", "lower"),
    "net.fabric.msgs": ("count", "lower"),
    "net.fabric.bytes": ("bytes", "lower"),
    "net.fabric.msgs_per_call": ("ratio", "higher"),
    "net.fabric.self_s": ("s", "lower"),
    "shmem.backend.puts": ("count", "lower"),
    "shmem.backend.gets": ("count", "lower"),
    "shmem.backend.amos": ("count", "lower"),
    "shmem.backend.quiets": ("count", "lower"),
    "shmem.backend.self_s": ("s", "lower"),
    "util.bufpool.takes": ("count", "lower"),
    "util.bufpool.hit_rate": ("ratio", "higher"),
    "util.bufpool.self_s": ("s", "lower"),
    "apps.kernel_s": ("s", "lower"),
    "distrib.spmd.build_s": ("s", "lower"),
    "exec.shards.windows": ("count", "lower"),
    "exec.shards.idle_s": ("s", "lower"),
    "exec.shards.idle_share": ("ratio", "lower"),
    "exec.shards.cross_msgs": ("count", "lower"),
    "exec.shards.events": ("count", "lower"),
    "other.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def split(tracer: LayerTracer, result, wall: float) -> Dict[str, float]:
    """Per-layer metrics of one traced single-shard run of ``wall`` s."""
    c, s, calls = tracer.counts, tracer.self_s, tracer.calls
    events = result.executor.events_processed
    pools = tracer.pools.values()
    takes = calls("util.bufpool:BufferPool.take_copy")
    steals = c["runtime.steals"]
    attempts = steals + c["runtime.empty_searches"]
    fabric_calls = (calls("net.fabric:SimFabric.transmit")
                    + calls("net.fabric:SimFabric.transmit_wave"))
    m = dict.fromkeys(PER_LAYER, 0.0)
    m.update({
        "exec.sim.events": events,
        "exec.sim.self_s": s("exec.sim"),
        "exec.sim.us_per_event": _ratio(s("exec.sim") * 1e6, events),
        "exec.eventq.calls": tracer.calls_of("exec.eventq"),
        "exec.eventq.self_s": s("exec.eventq"),
        "exec.eventq.cohort_share": _ratio(c["eventq.cohort_pops"],
                                           c["eventq.pops"]),
        "runtime.spawns": calls("runtime:HiperRuntime.spawn"),
        "runtime.steal_attempts": attempts,
        "runtime.steals": steals,
        "runtime.steal_success_ratio": _ratio(steals, attempts),
        "runtime.self_s": s("runtime"),
        "runtime.future.puts": calls("runtime.future:Promise._resolve"),
        "runtime.future.callbacks": c["future.callbacks"],
        "runtime.future.self_s": s("runtime.future"),
        "net.mux.transmits": calls("net.mux:FabricMux.transmit"),
        "net.mux.waves": calls("net.mux:FabricMux.transmit_wave"),
        "net.mux.self_s": s("net.mux"),
        "net.fabric.msgs": c["fabric.msgs"],
        "net.fabric.bytes": c["fabric.bytes"],
        "net.fabric.msgs_per_call": _ratio(c["fabric.msgs"], fabric_calls),
        "net.fabric.self_s": s("net.fabric"),
        "shmem.backend.puts": calls("shmem.backend:ShmemBackend.put"),
        "shmem.backend.gets": calls("shmem.backend:ShmemBackend.get"),
        "shmem.backend.amos": (calls("shmem.backend:ShmemBackend.amo")
                               + c["shmem.wave_amos"]),
        "shmem.backend.quiets": calls("shmem.backend:ShmemBackend.quiet"),
        "shmem.backend.self_s": s("shmem.backend"),
        "util.bufpool.takes": takes,
        "util.bufpool.hit_rate": _ratio(sum(p.hits for p in pools), takes),
        "util.bufpool.self_s": s("util.bufpool"),
        "apps.kernel_s": s("apps"),
        "distrib.spmd.build_s": tracer.inclusive_s("distrib.spmd"),
        "other.self_s": wall - tracer.layer_self_s(),
        "trace.wall_s": wall,
    })
    return m


def shard_split(result, wall: float) -> Dict[str, float]:
    """Per-layer metrics of one sharded run, from its shard counters (no
    spans are recorded inside shard processes)."""
    shards = result.shard_counters
    idle = sum(t["idle_wall_s"] for t in shards)
    events = sum(t["events_processed"] for t in shards)
    m = dict.fromkeys(PER_LAYER, 0.0)
    m.update({
        "exec.sim.events": events,
        "exec.shards.windows": result.windows,
        "exec.shards.idle_s": idle,
        "exec.shards.idle_share": _ratio(idle, len(shards) * wall),
        "exec.shards.cross_msgs": sum(t["cross_shard_msgs"] for t in shards),
        "exec.shards.events": events,
        "other.self_s": wall,
        "trace.wall_s": wall,
    })
    return m


def counter_mismatches(tracer: LayerTracer, result) -> List[str]:
    """Span counts that disagree with the program's own counters."""
    stats = result.merged_stats().counters
    m = split(tracer, result, 0.0)
    backends = tracer.backends.values()
    pools = tracer.pools.values()
    pairs = {
        "event-queue pops vs events_processed":
            (tracer.counts["eventq.pops"], result.executor.events_processed),
        "fabric transmits + wave sizes vs messages_sent":
            (m["net.fabric.msgs"], result.fabric.messages_sent),
        "fabric bytes vs bytes_sent":
            (m["net.fabric.bytes"], result.fabric.bytes_sent),
        "mux transmits + wave sizes vs msgs_sent":
            (m["net.mux.transmits"] + tracer.counts["mux.wave_msgs"],
             sum(n for (_, op), n in stats.items() if op == "msgs_sent")),
        "spawn calls vs tasks_spawned":
            (m["runtime.spawns"],
             sum(n for (_, op), n in stats.items() if op == "tasks_spawned")),
        "successful steals vs core.steal":
            (m["runtime.steals"], stats.get(("core", "steal"), 0)),
        "shmem puts vs backend.puts":
            (m["shmem.backend.puts"], sum(b.puts for b in backends)),
        "shmem gets vs backend.gets":
            (m["shmem.backend.gets"], sum(b.gets for b in backends)),
        "shmem amos vs backend.amos":
            (m["shmem.backend.amos"], sum(b.amos for b in backends)),
        "bufpool takes vs hits + misses":
            (m["util.bufpool.takes"], sum(p.hits + p.misses for p in pools)),
    }
    return [f"{what}: {got} != {want}"
            for what, (got, want) in pairs.items() if got != want]
