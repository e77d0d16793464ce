"""Flat DES engine gates: validation, cross-engine equivalence, wave path.

The slab/calendar event engine (``SimExecutor(engine="flat")``) and the
vectorized fabric wave path exist purely for throughput — neither is allowed
to change a single scheduling decision. Four families of checks pin that:

1. **Input validation** — negative delays and NaN timestamps raise
   ``ConfigError`` (a ``ValueError``) on both engines instead of silently
   corrupting queue order.
2. **Pop-order equivalence** — hypothesis drives random interleavings of
   ``call_later``/``call_at``/``cancel_event``/advance (including rearming
   callbacks that push mid-dispatch) against both engines and requires the
   identical fire log, cancel verdicts, and final quiescence — with
   ``call_at`` posting closures or the fabric's closure-free
   ``call_at(when, fn, arg)`` form alike. The bare ``FlatEventQueue`` is
   also driven against a reference heap, so every calendar tier (near
   heap, far tier, spine) is checked directly.
3. **Wave bit-identity** — ``SimFabric.transmit_wave`` must leave the exact
   floats a loop of ``transmit`` leaves: delivery times, NIC availability,
   pairwise-FIFO clamps, byte counters, injection-complete returns.
4. **End-to-end** — the real ISx exchange with waves active equals the
   forced per-message fallback and the flat engine bit-for-bit
   (:func:`repro.verify.isx_engine_differential` is the same gate at CI
   scale), and the mux's direct-to-fabric send equals its retry-wrapper
   route, statistics included.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exec.sim import SimExecutor
from repro.net.costmodel import NetworkModel
from repro.net.fabric import SimFabric
from repro.util.errors import ConfigError

ENGINES = ("objects", "flat")

_settings = settings(max_examples=50, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


# ----------------------------------------------------------------------
# 1. validation: negative / NaN scheduling inputs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ENGINES)
class TestSchedulingValidation:
    def test_negative_delay_rejected(self, engine):
        ex = SimExecutor(engine=engine)
        with pytest.raises(ConfigError, match="non-negative"):
            ex.call_later(-1e-9, lambda: None)

    def test_nan_delay_rejected(self, engine):
        ex = SimExecutor(engine=engine)
        with pytest.raises(ConfigError):
            ex.call_later(float("nan"), lambda: None)

    def test_nan_timestamp_rejected(self, engine):
        ex = SimExecutor(engine=engine)
        with pytest.raises(ConfigError):
            ex.call_at(float("nan"), lambda: None)

    def test_rejection_is_a_value_error(self, engine):
        """Callers that guard with plain ``except ValueError`` must catch it."""
        ex = SimExecutor(engine=engine)
        with pytest.raises(ValueError):
            ex.call_later(-0.5, lambda: None)
        with pytest.raises(ValueError):
            ex.call_at(float("nan"), lambda: None)

    def test_queue_usable_after_rejection(self, engine):
        """A rejected call must leave no partial record behind."""
        ex = SimExecutor(engine=engine)
        with pytest.raises(ConfigError):
            ex.call_later(-1.0, lambda: None)
        assert ex.pending_events() == 0
        ran = []
        ex.call_later(1e-6, lambda: ran.append(True))
        ex.drain()
        assert ran == [True]


# ----------------------------------------------------------------------
# 2. cross-engine pop-order equivalence
# ----------------------------------------------------------------------
def _drive(engine, ops, arg_form=False):
    """Apply one op sequence to a fresh executor; return every observable
    that describes the schedule: the fire log (label, virtual time) in
    dispatch order, each cancel's verdict, and the drained event count.
    ``arg_form`` posts the ``at`` ops as ``call_at(when, fire, (label, k))``
    — one shared function plus an argument — instead of a closure each."""
    ex = SimExecutor(engine=engine)
    log = []
    handles = []
    labels = iter(range(1 << 20))

    def fire(item):
        label, k = item
        log.append((label, ex.now()))
        # Rearm every third event: pushes arriving *mid-dispatch* are the
        # flat engine's trickiest case (in-flight cohort slots must not be
        # recycled under the dispatcher).
        if label % 3 == 0 and label < 3_000:
            handles.append(ex.call_later(k * 1e-6, make_cb(next(labels), k)))

    def make_cb(label, k):
        return lambda: fire((label, k))

    cancels = []
    for kind, k, j in ops:
        if kind == "later":
            handles.append(ex.call_later(k * 1e-6, make_cb(next(labels), k)))
        elif kind == "at":
            # Deliberately allowed to land at/below the event floor once
            # advances interleave — the clamp must behave identically.
            label = next(labels)
            if arg_form:
                handles.append(ex.call_at(k * 1e-6, fire, (label, k)))
            else:
                handles.append(ex.call_at(k * 1e-6, make_cb(label, k)))
        elif kind == "cancel":
            if handles:
                cancels.append(ex.cancel_event(handles[j % len(handles)]))
        else:  # advance one cohort, if any
            if ex.pending_events():
                ex._advance_events()
    ex.drain()
    assert ex.pending_events() == 0
    out = (log, cancels, ex.events_processed)
    ex.shutdown()
    return out


_ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["later", "at", "cancel", "advance"]),
        st.integers(0, 12),    # timestamp scale: small range forces cohorts
        st.integers(0, 255),   # cancel-target selector
    ),
    max_size=120,
)


class TestEngineEquivalence:
    @_settings
    @given(ops=_ops_strategy)
    def test_random_interleavings_pop_identically(self, ops):
        expected = _drive("objects", ops)
        assert _drive("flat", ops) == expected
        # The closure-free call_at(when, fn, arg) form pops exactly like
        # the closure form, on both engines.
        assert _drive("objects", ops, arg_form=True) == expected
        assert _drive("flat", ops, arg_form=True) == expected

    def test_batch_matches_per_event_calls(self):
        """``call_at_batch`` (the wave entry point) must dispatch in the
        exact order of equivalent per-event ``call_at`` calls, on both
        engines, including ties across batches."""
        whens = [3e-6, 1e-6, 3e-6, 2e-6, 1e-6, 3e-6]
        logs = {}
        for engine in ENGINES:
            for mode in ("batch", "single"):
                ex = SimExecutor(engine=engine)
                log = []
                if mode == "batch":
                    ex.call_at_batch(whens, log.append, list(range(len(whens))))
                    ex.call_at_batch(whens, log.append,
                                     list(range(10, 10 + len(whens))))
                else:
                    for i, w in enumerate(whens):
                        ex.call_at(w, lambda i=i: log.append(i))
                    for i, w in enumerate(whens):
                        ex.call_at(w, lambda i=i: log.append(10 + i))
                ex.drain()
                logs[(engine, mode)] = log
                ex.shutdown()
        assert len(set(map(tuple, logs.values()))) == 1

    def test_cancel_after_fire_returns_false(self):
        for engine in ENGINES:
            ex = SimExecutor(engine=engine)
            h = ex.call_later(1e-6, lambda: None)
            ex.drain()
            assert ex.cancel_event(h) is False

    def test_handle_not_resurrected_by_slot_reuse(self):
        """Flat engine: a stale handle must stay dead even after its slab
        slot is recycled by a new event (generation tag mismatch)."""
        ex = SimExecutor(engine="flat")
        h = ex.call_later(1e-6, lambda: None)
        ex.drain()
        ran = []
        ex.call_later(1e-6, lambda: ran.append(True))  # likely reuses the slot
        assert ex.cancel_event(h) is False
        ex.drain()
        assert ran == [True]


def _queue_pops(ops, cur_limit=None):
    """Apply one op sequence to a bare :class:`FlatEventQueue` and to a
    reference heap of ``(when, seq, label)``; return both pop logs (cohort
    timestamp, live labels in order). Batches of up to a few hundred events
    build a long spine that single pushes interleave with; ``cur_limit``
    shrinks the near heap so single pushes also spill to the far tier."""
    import heapq

    from repro.exec.eventq import FlatEventQueue

    class Queue(FlatEventQueue):
        __slots__ = ()
        CUR_LIMIT = cur_limit or FlatEventQueue.CUR_LIMIT

    q = Queue()
    ref = []
    handles = []
    cancelled = set()
    got, want = [], []
    floor = 0.0
    label = 0
    for kind, a, b in ops:
        if kind == "push":
            # Mostly at or after the floor; a = 0 lands a tick before it
            # (worker clocks may lag the event floor).
            when = floor + (a - 1) * 1e-6
            handles.append((q.push(when, _queue_pops, label), label))
            heapq.heappush(ref, (when, label, label))
            label += 1
        elif kind == "batch":
            whens = [floor + ((a + 7 * i) % 23) * 1e-6 for i in range(b)]
            labels = list(range(label, label + b))
            q.push_batch(whens, _queue_pops, labels)
            for w, lab in zip(whens, labels):
                heapq.heappush(ref, (w, lab, lab))
            label += b
        elif kind == "cancel":
            if handles:
                h, lab = handles[b % len(handles)]
                if q.cancel(h):
                    cancelled.add(lab)
        elif q:
            t0, slots = q.pop_batch()
            got.append((t0, [q.args[s] for s in slots
                             if q.fns[s] is not None]))
            q.release_batch(slots)
            w0 = ref[0][0]
            cohort = []
            while ref and ref[0][0] == w0:
                lab = heapq.heappop(ref)[2]
                if lab not in cancelled:
                    cohort.append(lab)
            want.append((w0, cohort))
            floor = max(floor, t0)
    return got, want


_queue_ops = st.lists(
    st.tuples(
        st.sampled_from(["push", "push", "batch", "cancel", "pop", "pop",
                         "pop"]),
        st.integers(0, 30),
        st.integers(0, 300),
    ),
    max_size=200,
)


class TestFlatQueue:
    @_settings
    @given(ops=_queue_ops, cur_limit=st.sampled_from([None, 3]))
    def test_pops_match_reference_heap(self, ops, cur_limit):
        """Cohorts pop in ascending ``(when, seq)`` order whatever tier a
        record sits in — near heap, far tier or spine."""
        got, want = _queue_pops(ops + [("pop", 0, 0)] * 400, cur_limit)
        assert got == want


# ----------------------------------------------------------------------
# 3. fabric wave bit-identity
# ----------------------------------------------------------------------
_DSTS = [0, 3, 9, 17, 18, 25, 8, 31, 1]  # self-send, intra-node, shared NICs
_SRC = 1


def _run_fabric(use_wave, nbytes, engine="objects"):
    ex = SimExecutor(engine=engine)
    fab = SimFabric(ex, 32, NetworkModel(), ranks_per_node=8)
    seen = {r: [] for r in range(32)}
    for r in range(32):
        fab.register_sink(r, lambda s, p, t, r=r: seen[r].append((s, p, t)))
    payloads = [f"m{i}" for i in range(len(_DSTS))]
    if use_wave:
        injects = fab.transmit_wave(_SRC, _DSTS, nbytes, payloads)
    else:
        sizes = [nbytes] * len(_DSTS) if np.isscalar(nbytes) else list(nbytes)
        injects = [fab.transmit(_SRC, d, sz, p)
                   for d, sz, p in zip(_DSTS, sizes, payloads)]
    ex.drain()
    state = (injects, seen, list(fab._tx_avail), list(fab._rx_avail),
             dict(fab._pair_last), fab.messages_sent, fab.bytes_sent)
    ex.shutdown()
    return state


class TestWaveBitIdentity:
    def test_constant_size_wave_matches_scalar_loop(self):
        assert _run_fabric(True, 48) == _run_fabric(False, 48)

    def test_varying_size_wave_matches_scalar_loop(self):
        sizes = [0, 64, 4096, 17, 48, 48, 1 << 16, 9, 5]
        assert _run_fabric(True, sizes) == _run_fabric(False, sizes)

    def test_wave_on_flat_engine_matches(self):
        assert _run_fabric(True, 48, engine="flat") == _run_fabric(False, 48)

    def test_wave_refuses_fault_hook(self):
        from repro.util.errors import CommError
        ex = SimExecutor()
        fab = SimFabric(ex, 4, NetworkModel())
        fab.fault_hook = lambda s, d, n, p: None
        with pytest.raises(CommError, match="fault injection"):
            fab.transmit_wave(0, [1], 8, ["x"])

    def test_wave_length_mismatch_rejected(self):
        from repro.util.errors import CommError
        ex = SimExecutor()
        fab = SimFabric(ex, 4, NetworkModel())
        with pytest.raises(CommError, match="length mismatch"):
            fab.transmit_wave(0, [1, 2], 8, ["only-one"])


# ----------------------------------------------------------------------
# 4. end-to-end: ISx exchange, wave vs. fallback vs. flat engine
# ----------------------------------------------------------------------
def _isx_spmd(engine="objects", shmem=None):
    from repro.apps.isx import IsxConfig, isx_main, validate_isx
    from repro.bench.harness import cluster_for
    from repro.distrib import spmd_run
    from repro.shmem import shmem_factory

    cfg = IsxConfig(keys_per_pe=1 << 9, byte_scale=1 << 7)
    res = spmd_run(
        isx_main("flat", cfg),
        cluster_for("titan", 2, layout="flat"),
        module_factories=[shmem or shmem_factory(direct=True)],
        executor=SimExecutor(engine=engine),
    )
    validate_isx(cfg, res.nranks, res.results)
    return res


def _outcome(res):
    digest = tuple(hashlib.sha256(np.asarray(r).tobytes()).hexdigest()
                   for r in res.results)
    return repr(res.makespan), digest


def _run_isx(engine="objects"):
    return _outcome(_isx_spmd(engine))


class TestIsxWavePath:
    def test_wave_active_and_fallback_agree(self, monkeypatch):
        from repro.shmem.backend import ShmemBackend

        calls = {"wave": 0}
        orig = ShmemBackend.amo_fetch_wave

        def counting(self, *a, **kw):
            calls["wave"] += 1
            return orig(self, *a, **kw)

        monkeypatch.setattr(ShmemBackend, "amo_fetch_wave", counting)
        with_wave = _run_isx()
        assert calls["wave"] > 0, "wave path never engaged"

        monkeypatch.setattr(ShmemBackend, "wave_capable", lambda self: False)
        calls["wave"] = 0
        fallback = _run_isx()
        assert calls["wave"] == 0
        assert with_wave == fallback

    def test_flat_engine_matches_objects(self):
        assert _run_isx(engine="flat") == _run_isx(engine="objects")

    @pytest.mark.parametrize("engine", ENGINES)
    def test_mux_fast_path_matches_retry_route(self, engine, monkeypatch):
        """``FabricMux.transmit`` hands a send straight to the fabric when
        its channel has no retry policy. A no-fault retry policy on the
        ``shmem`` channel forces the kept ``_transmit_attempt`` route
        instead; the two runs must agree bit for bit — makespan, results,
        every merged counter and the message-size histograms."""
        from repro.net.mux import FabricMux
        from repro.resilience import RetryPolicy
        from repro.shmem import ShmemModule, shmem_factory

        class RetryingShmem(ShmemModule):
            def initialize(self, runtime):
                super().initialize(runtime)
                self.backend.enable_retries(RetryPolicy())

        attempts = {"n": 0}
        orig = FabricMux._transmit_attempt

        def counting(self, *a, **kw):
            attempts["n"] += 1
            return orig(self, *a, **kw)

        monkeypatch.setattr(FabricMux, "_transmit_attempt", counting)
        runs, routed = {}, {}
        for route, factory in (
                ("fast", shmem_factory(direct=True)),
                ("retry", lambda ctx: RetryingShmem(ctx, direct=True))):
            attempts["n"] = 0
            res = _isx_spmd(engine, shmem=factory)
            stats = res.merged_stats()
            runs[route] = (
                _outcome(res), dict(stats.counters),
                {k: h.to_dict() for k, h in stats.histograms.items()
                 if k[1] == "msg_size"},
                res.executor.events_processed, res.fabric.messages_sent)
            routed[route] = attempts["n"]
        assert routed["fast"] == 0
        assert routed["retry"] > 0, "retry route never taken"
        assert runs["fast"][2], "no msg_size histograms recorded"
        assert runs["fast"] == runs["retry"]

    def test_engine_differential_report_ok(self):
        """The CI gate's own checker at a reduced size (32 PEs here; CI runs
        the default 64)."""
        from repro.verify import isx_engine_differential

        rep = isx_engine_differential(nodes=2)
        assert rep.ok, rep.describe()
        assert [r.engine for r in rep.runs] == ["objects", "flat"]


# ----------------------------------------------------------------------
# 5. the verify differential across all three apps (sim vs. flat-sim)
# ----------------------------------------------------------------------
class TestWorkloadDifferential:
    """The flat engine must match the objects engine on every verify
    workload — ISx is exchange-heavy, UTS is spawn/steal-heavy (the event
    queue mostly carries singleton timer cohorts), and Graph500's
    level-synchronous BFS mixes finish-scope joins with fan-out bursts."""

    @pytest.mark.parametrize("workload", ["isx", "uts", "graph500"])
    def test_flat_sim_matches_sim(self, workload):
        from repro.verify.differential import differential

        rep = differential(workload, engines=("sim", "flat-sim"))
        assert rep.ok, rep.describe()
