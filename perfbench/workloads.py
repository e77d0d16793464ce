"""The benchmark's three workloads: inputs from a seed, set-up, run, checks.

Each workload turns the benchmark seed into plain input parameters
(:meth:`Workload.inputs`), builds what ``spmd_run`` receives from them
(:meth:`Workload.setup`), and checks every run's virtual-time outputs
(:meth:`Workload.check`). The program only ever sees the configs built here.

A run of seed ``s`` goes round-robin through ``subseeds`` inputs, with
sub-seeds ``u = s * subseeds + j``. Sub-seed ``u`` maps to
``IsxConfig.seed = 777 + u``, ``UtsConfig.seed = 1 + u`` and
``ClusterConfig.seed = u``, so the default seed 0 starts with the paper
presets exactly.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Any, Callable, Dict, List, Optional, Tuple

DEFAULT_SEED = 0


class CheckFailed(Exception):
    """A run failed its oracle, run-to-run determinism or committed values."""


@dataclasses.dataclass(frozen=True)
class Outcome:
    """The virtual-time outputs of one run that the checks compare."""

    #: ``repr`` of the virtual makespan: compared exactly, digit for digit.
    makespan: str
    #: SHA-256 over the per-rank results.
    digest: str


@dataclasses.dataclass
class Prepared:
    """Everything one ``spmd_run`` call receives."""

    main: Callable
    cluster: Any
    factories: Tuple[Callable, ...]
    #: The app config the main was built from (used by the oracles).
    config: Any
    shards: int = 1

    def run(self):
        """One end-to-end run through the public ``spmd_run`` API."""
        from repro.distrib.spmd import spmd_run
        from repro.exec.sim import SimExecutor

        executor = (SimExecutor(engine="flat", shards=self.shards)
                    if self.shards > 1 else None)
        return spmd_run(self.main, self.cluster,
                        module_factories=self.factories, executor=executor)


def results_digest(results: List[Any]) -> str:
    """SHA-256 over per-rank results: arrays by dtype, shape and bytes,
    anything else by ``repr``."""
    import numpy as np

    h = hashlib.sha256()
    for r in results:
        if isinstance(r, np.ndarray):
            h.update(f"{r.dtype.str}{r.shape}".encode())
            h.update(np.ascontiguousarray(r).tobytes())
        else:
            h.update(repr(r).encode())
        h.update(b"|")
    return h.hexdigest()


def outcome_of(result) -> Outcome:
    return Outcome(repr(result.makespan), results_digest(result.results))


class Workload:
    """One benchmark workload (subclasses define ``params``, ``setup`` and
    ``check``)."""

    name = ""
    why = ""
    shards = 1
    #: Inputs a run goes through. More than one where the work a single
    #: input asks for depends on its seed, so that a run's median is taken
    #: over several inputs and stays steady from seed to seed.
    subseeds = 1
    #: Tracer entry points (``layers.ENTRY_POINTS`` keys) that a traced run
    #: of this workload must see called.
    traced_entry_points: Tuple[str, ...] = ()

    def __init__(self, **sizes: int) -> None:
        """``sizes`` override the class's size attributes (the tests run
        every workload at a small scale)."""
        for key, value in sizes.items():
            if not isinstance(getattr(type(self), key, None), int):
                raise TypeError(f"{self.name} has no size {key!r}")
            setattr(self, key, value)

    def inputs(self, seed: int) -> List[Dict[str, int]]:
        """The plain input parameters of a run of benchmark seed ``seed``."""
        k = self.subseeds
        return [self.params(u) for u in range(seed * k, seed * k + k)]

    def params(self, subseed: int) -> Dict[str, int]:
        """Plain input parameters generated from one sub-seed."""
        raise NotImplementedError

    def setup(self, params: Dict[str, int]) -> Prepared:
        """Imports plus the config, cluster and main (timed as set-up)."""
        raise NotImplementedError

    def oracle(self, prep: Prepared) -> Any:
        """Expected-output data, computed once per invocation."""
        return None

    def check(self, prep: Prepared, oracle: Any, result) -> Outcome:
        """Raise :class:`CheckFailed` unless ``result`` passes the app
        oracle; return the run's virtual-time outcome."""
        raise NotImplementedError

    def reference(self, prep: Prepared, oracle: Any) -> Optional[Outcome]:
        """Single-shard reference outcome, for sharded workloads only."""
        return None


_COMMON_ENTRY_POINTS = (
    "exec.sim:SimExecutor.drive",
    "exec.sim:SimExecutor.advance_events",
    "exec.eventq:SimExecutor.call_at",
    "exec.eventq:FlatEventQueue.pop_batch",
    "runtime:HiperRuntime.spawn",
    "runtime:HiperRuntime.reenqueue",
    "runtime:find_task",
    "runtime.future:Promise._resolve",
    "runtime.future:Promise._add_callback",
    "net.mux:FabricMux.transmit",
    "net.mux:FabricMux._dispatch",
    "net.fabric:SimFabric.transmit",
    "shmem.backend:ShmemBackend.put",
    "shmem.backend:ShmemBackend.quiet",
    "shmem.backend:ShmemBackend._on_delivery",
    "util.bufpool:BufferPool.take_copy",
    "util.bufpool:BufferPool._give_back",
    "distrib.spmd:discover",
    "distrib.spmd:HiperRuntime",
    "distrib.spmd:HiperRuntime.start",
    "task.body:Task.start_body",
    "task.body:Task.step",
)


class IsxFlat(Workload):
    name = "isx-flat"
    why = ("Fig. 5 flat OpenSHMEM ISx, 128 ranks x 1 worker: the all-to-all "
           "put exchange loads the comm stack and the event queue")
    traced_entry_points = _COMMON_ENTRY_POINTS + (
        "exec.eventq:SimExecutor.call_at_batch",
        "exec.eventq:FlatEventQueue.release_batch",
        "net.mux:FabricMux.transmit_wave",
        "net.fabric:SimFabric.transmit_wave",
        "net.fabric:_deliver_wave",
        "shmem.backend:ShmemBackend.amo_fetch_wave",
        "apps:isx.generate_keys",
        "apps:isx.route_keys",
        "apps:isx.local_sort",
    )
    nodes = 8
    keys_per_pe = 1 << 11

    def params(self, subseed: int) -> Dict[str, int]:
        return {"key_seed": 777 + subseed, "cluster_seed": subseed}

    def setup(self, params: Dict[str, int]) -> Prepared:
        from repro.apps.isx import IsxConfig, isx_main
        from repro.bench.harness import cluster_for
        from repro.shmem import shmem_factory

        cfg = IsxConfig(keys_per_pe=self.keys_per_pe, byte_scale=1 << 7,
                        seed=params["key_seed"])
        cluster = cluster_for("titan", self.nodes, layout="flat",
                              seed=params["cluster_seed"])
        return Prepared(isx_main("flat", cfg), cluster,
                        (shmem_factory(direct=True),), cfg)

    def check(self, prep: Prepared, oracle: Any, result) -> Outcome:
        from repro.apps.isx import validate_isx

        try:
            validate_isx(prep.config, prep.cluster.nranks, result.results)
        except AssertionError as exc:
            raise CheckFailed(f"ISx oracle: {exc}") from None
        return outcome_of(result)


class UtsHiper(Workload):
    name = "uts-hiper"
    why = ("Fig. 7 UTS AsyncSHMEM, 16 ranks x 16 workers: work stealing "
           "loads the scheduler; comm is scattered latency-bound atomics")
    traced_entry_points = _COMMON_ENTRY_POINTS + (
        "exec.eventq:SimExecutor.call_later",
        "runtime:PlaceDeques.steal_from_others",
        "shmem.backend:ShmemBackend.get",
        "shmem.backend:ShmemBackend.amo",
        "apps:uts.expand_chunk",
        "apps:uts.children",
    )

    nodes = 16
    #: Node count of ``presets.uts_t1xxl()`` at the default seed. Every seed
    #: sizes its tree's root fan-out to reach this.
    tree_nodes = 103_091
    #: Even at equal node counts, a tree's shape and the steal victims its
    #: cluster seed draws move the events and steals a run needs by about
    #: +-12% from seed to seed.
    subseeds = 10

    def params(self, subseed: int) -> Dict[str, int]:
        from repro.apps import presets

        cfg = dataclasses.replace(presets.uts_t1xxl(), seed=1 + subseed)
        return {"tree_seed": cfg.seed,
                "root_children": fanout_for_size(cfg, self.tree_nodes),
                "cluster_seed": subseed}

    def setup(self, params: Dict[str, int]) -> Prepared:
        from repro.apps import presets
        from repro.apps.uts.variants import uts_main
        from repro.bench.harness import cluster_for
        from repro.shmem import shmem_factory

        cfg = dataclasses.replace(presets.uts_t1xxl(),
                                  seed=params["tree_seed"],
                                  root_children=params["root_children"])
        cluster = cluster_for("titan", self.nodes, layout="hybrid",
                              seed=params["cluster_seed"])
        return Prepared(uts_main("hiper", cfg), cluster, (shmem_factory(),),
                        cfg)

    def oracle(self, prep: Prepared) -> int:
        from repro.apps.uts.common import sequential_count

        return sequential_count(prep.config)

    def check(self, prep: Prepared, oracle: int, result) -> Outcome:
        got = sum(result.results)
        if got != oracle:
            raise CheckFailed(
                f"UTS oracle: ranks counted {got} nodes, sequential count "
                f"is {oracle}")
        return outcome_of(result)


#: Widest root fan-out :func:`fanout_for_size` considers.
MAX_FANOUT = 1 << 15


def fanout_for_size(cfg, nodes: int) -> int:
    """Smallest root fan-out whose tree has at least ``nodes`` nodes.

    The root's first ``k`` children do not depend on the fan-out, so the
    tree with fan-out ``k`` is the root plus the first ``k`` subtrees."""
    from repro.apps.uts.common import children, root_node

    wide = dataclasses.replace(cfg, root_children=MAX_FANOUT)
    total = 1
    for k, kid in enumerate(children(wide, root_node(wide)), start=1):
        stack = [kid]
        while stack:
            total += 1
            stack.extend(children(cfg, stack.pop()))
        if total >= nodes:
            return k
    raise ValueError(
        f"{MAX_FANOUT} root subtrees hold fewer than {nodes} nodes")


class IsxSharded(Workload):
    name = "isx-sharded"
    why = ("ISx exchange twin, 512 ranks on the 2-shard DES: the only "
           "workload through exec.shards, and its virtual clock drifts")
    shards = 2
    nodes = 512
    keys_per_pe = 64

    def params(self, subseed: int) -> Dict[str, int]:
        return {"key_seed": 777 + subseed, "cluster_seed": subseed}

    def setup(self, params: Dict[str, int]) -> Prepared:
        from repro.apps.isx.common import IsxConfig
        from repro.distrib.spmd import ClusterConfig
        from repro.shmem import shmem_factory
        from repro.verify.spmd_workloads import isx_exchange_factory

        cfg = IsxConfig(keys_per_pe=self.keys_per_pe, seed=params["key_seed"])
        cluster = ClusterConfig(nodes=self.nodes, ranks_per_node=1,
                                seed=params["cluster_seed"])
        main = isx_exchange_factory(keys_per_pe=cfg.keys_per_pe,
                                    seed=cfg.seed)
        return Prepared(main, cluster, (shmem_factory(direct=True),), cfg,
                        shards=self.shards)

    def oracle(self, prep: Prepared) -> List[Tuple[int, str]]:
        """Per-rank ``(count, sha16)`` of the keys each rank owns, sorted:
        every PE's generated keys, block-partitioned by value."""
        import numpy as np

        from repro.apps.isx.common import bucket_width, generate_keys

        cfg, n = prep.config, prep.cluster.nranks
        keys = np.sort(np.concatenate(
            [generate_keys(cfg, r, n) for r in range(n)]))
        bounds = np.searchsorted(keys, np.arange(n + 1) * bucket_width(cfg, n))
        return [(int(hi - lo), hashlib.sha256(keys[lo:hi].tobytes())
                 .hexdigest()[:16]) for lo, hi in zip(bounds[:-1], bounds[1:])]

    def check(self, prep: Prepared, oracle, result) -> Outcome:
        results = [tuple(r) for r in result.results]
        if results != oracle:
            bad = next(i for i, (a, b) in enumerate(zip(results, oracle))
                       if a != b) if len(results) == len(oracle) else -1
            raise CheckFailed(f"ISx exchange oracle: rank {bad} result differs")
        return outcome_of(result)

    def reference(self, prep: Prepared, oracle) -> Outcome:
        from repro.distrib.spmd import spmd_run

        single = spmd_run(prep.main, prep.cluster,
                          module_factories=prep.factories)
        return self.check(prep, oracle, single)


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (IsxFlat(), UtsHiper(), IsxSharded())
}
