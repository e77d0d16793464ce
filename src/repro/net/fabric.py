"""The simulated interconnect fabric: timestamped message delivery between
ranks, with per-node NIC contention and non-overtaking pairwise order.

The fabric is communication-library-agnostic: MPI matching, OpenSHMEM
symmetric-memory operations, and UPC++ RPCs are all payloads to it. Each rank
registers one *sink* callable; deliveries invoke it from event context at the
delivery timestamp.

Guarantees:

- **pairwise FIFO**: messages from rank s to rank d are delivered in the
  order `transmit` was called (MPI non-overtaking; SHMEM put ordering per
  target under the default context).
- **determinism**: identical call sequences produce identical timestamps.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.exec.sim import SimExecutor
from repro.net.costmodel import NetworkModel
from repro.net.topology import FlatTopology, Topology
from repro.util.errors import CommError, ConfigError

Sink = Callable[[int, Any, float], None]  # (src_rank, payload, time) -> None

#: Fault verdict for one transmit: ``None`` (healthy), ``("drop",)``,
#: ``("corrupt",)``, or ``("delay", extra_seconds)``.
FaultHook = Callable[[int, int, int, Any], Optional[tuple]]


class CorruptedPayload:
    """Wrapper marking a payload corrupted in flight.

    Delivered in place of the original so receivers model a checksum
    failure: :class:`~repro.net.mux.FabricMux` discards it (sender-side
    retransmission recovers); raw sinks may inspect ``original``.
    """

    __slots__ = ("original",)

    def __init__(self, original: Any):
        self.original = original

    def __repr__(self) -> str:
        return f"CorruptedPayload({self.original!r})"


def _deliver_wave(item: tuple) -> None:
    """Delivery trampoline: every delivery event the fabric posts —
    per-message (:meth:`SimFabric.transmit`) or wave
    (:meth:`SimFabric.transmit_wave`) — is this one shared function plus a
    ``(sink, src, payload, delivery)`` record, not a closure per message."""
    sink, src, payload, delivery = item
    sink(src, payload, delivery)


class SimFabric:
    """Cluster-wide message transport in virtual time."""

    def __init__(
        self,
        executor: SimExecutor,
        nranks: int,
        network: NetworkModel,
        ranks_per_node: int = 1,
        topology: Optional[Topology] = None,
        max_message_bytes: Optional[int] = None,
    ):
        if nranks < 1:
            raise ConfigError(f"nranks must be >= 1, got {nranks}")
        if ranks_per_node < 1:
            raise ConfigError(f"ranks_per_node must be >= 1, got {ranks_per_node}")
        self.executor = executor
        self.nranks = nranks
        self.network = network
        self.ranks_per_node = ranks_per_node
        #: Hop-distance model refining the wire latency (paper §I-A's
        #: "non-uniform interconnect"); flat (uniform) by default.
        self.topology = topology if topology is not None else FlatTopology()
        self.nnodes = (nranks + ranks_per_node - 1) // ranks_per_node
        self._sinks: Dict[int, Sink] = {}
        # Per-node NIC availability times (the congestion state).
        self._tx_avail: List[float] = [0.0] * self.nnodes
        self._rx_avail: List[float] = [0.0] * self.nnodes
        # Pairwise FIFO: last delivery time per (src, dst).
        self._pair_last: Dict[int, float] = {}
        self.messages_sent = 0
        self.bytes_sent = 0
        if max_message_bytes is not None and max_message_bytes < 1:
            raise ConfigError(
                f"max_message_bytes must be >= 1, got {max_message_bytes}")
        #: Optional MTU-style payload ceiling; oversized sends raise CommError.
        self.max_message_bytes = max_message_bytes
        #: Optional fault-injection hook (``repro.resilience``): called per
        #: transmit, returns a verdict tuple or None. One attribute load +
        #: None test per message is the entire no-fault cost.
        self.fault_hook: Optional[FaultHook] = None
        #: Verdict applied to the most recent transmit (None = delivered
        #: clean). Senders with retry policies read this synchronously.
        self.last_fault: Optional[tuple] = None
        self.messages_dropped = 0
        self.messages_corrupted = 0
        self.messages_delayed = 0

    # ------------------------------------------------------------------
    def node_of(self, rank: int) -> int:
        self._check_rank(rank)
        return rank // self.ranks_per_node

    def _check_rank(self, rank: int) -> None:
        if not (0 <= rank < self.nranks):
            raise CommError(f"rank {rank} out of range [0, {self.nranks})")

    def register_sink(self, rank: int, sink: Sink, *, replace: bool = False) -> None:
        """Attach ``rank``'s message sink. A rank has exactly one sink;
        re-registering raises unless ``replace=True`` (tests that rebuild a
        rank's mux, failover to a fresh endpoint)."""
        self._check_rank(rank)
        if rank in self._sinks and not replace:
            raise CommError(f"rank {rank} already has a registered sink")
        self._sinks[rank] = sink

    def unregister_sink(self, rank: int) -> None:
        """Detach ``rank``'s sink. New transmits to the rank raise
        :class:`CommError` until a replacement is registered; messages
        already in flight deliver to the sink bound at send time."""
        self._check_rank(rank)
        if rank not in self._sinks:
            raise CommError(f"rank {rank} has no registered sink")
        del self._sinks[rank]

    # ------------------------------------------------------------------
    def transmit(
        self,
        src: int,
        dst: int,
        nbytes: int,
        payload: Any,
        *,
        on_injected: Optional[Callable[[float], None]] = None,
    ) -> float:
        """Send ``payload`` (conceptually ``nbytes`` long) from src to dst.

        Returns the *injection-complete* time (source buffer reusable; the
        completion point of buffered/eager sends). ``on_injected`` fires as an
        event at that time. The destination sink fires at delivery time.

        Must be called from a context where ``executor.now()`` is meaningful
        (a task on the src rank, or an event callback).
        """
        nranks = self.nranks
        if not (0 <= src < nranks and 0 <= dst < nranks):
            self._check_rank(src)
            self._check_rank(dst)
        if nbytes < 0:
            raise CommError(f"negative message size {nbytes}")
        if self.max_message_bytes is not None and nbytes > self.max_message_bytes:
            raise CommError(
                f"message of {nbytes} bytes exceeds fabric limit of "
                f"{self.max_message_bytes} bytes (fragment it)")
        hook = self.fault_hook
        verdict = hook(src, dst, nbytes, payload) if hook is not None else None
        self.last_fault = verdict
        executor = self.executor
        t = executor.now()
        rpn = self.ranks_per_node
        s_node, d_node = src // rpn, dst // rpn

        # The NIC and pairwise-FIFO recurrences below are written exactly
        # as transmit_wave writes them, so both paths produce the same
        # floats.
        if src == dst:
            inject_done = t
            delivery = t  # self-sends complete immediately (local copy)
        elif s_node == d_node:
            inject_done = t + self.network.intra_node_time(nbytes)
            delivery = inject_done
        else:
            net = self.network
            ser = net.serialization_time(nbytes)
            tx_avail = self._tx_avail
            avail = tx_avail[s_node]
            tx_start = avail if avail > t else t
            tx_avail[s_node] = inject_done = tx_start + ser
            arrival = (inject_done + net.latency
                       + self.topology.extra_latency(s_node, d_node))
            rx_avail = self._rx_avail
            avail = rx_avail[d_node]
            rx_start = avail if avail > arrival else arrival
            rx_avail[d_node] = delivery = rx_start + ser

        kind = verdict[0] if verdict is not None else None
        if kind == "delay":
            # Extra in-flight latency, applied before the FIFO clamp so later
            # messages on the pair cannot overtake the delayed one.
            delivery += verdict[1]
            self.messages_delayed += 1

        self.messages_sent += 1
        self.bytes_sent += nbytes

        sink = self._sinks.get(dst)
        if sink is None:
            raise CommError(
                f"rank {dst} has no registered message sink; was its "
                "communication backend initialized?"
            )

        if on_injected is not None:
            executor.call_at(inject_done, on_injected, inject_done)

        if kind == "drop":
            # Lost in flight: injection completed (the source buffer is
            # reusable) but nothing arrives and the pairwise-FIFO clamp does
            # not advance — later messages legitimately overtake a lost one.
            self.messages_dropped += 1
            return inject_done

        # Pairwise FIFO: never deliver before an earlier message on the pair.
        key = src * nranks + dst
        pair_last = self._pair_last
        prev = pair_last.get(key, 0.0)
        if prev > delivery:
            delivery = prev
        pair_last[key] = delivery

        tracer = executor.tracer
        if tracer is not None:
            # Payloads from a FabricMux arrive as (channel, inner); the
            # channel doubles as the owning module's name in the trace.
            channel = (
                payload[0]
                if isinstance(payload, tuple) and payload
                and isinstance(payload[0], str)
                else "net"
            )
            tracer.record_message(src, dst, channel, nbytes, t, delivery)

        if kind == "corrupt":
            self.messages_corrupted += 1
            payload = CorruptedPayload(payload)
        executor.call_at(delivery, _deliver_wave, (sink, src, payload, delivery))
        return inject_done

    # ------------------------------------------------------------------
    def transmit_wave(
        self,
        src: int,
        dsts: Sequence[int],
        nbytes,
        payloads: Sequence[Any],
        *,
        ts: Optional[Sequence[float]] = None,
    ) -> List[float]:
        """Price and post a whole wave of messages from ``src`` in one call.

        Semantically a loop of :meth:`transmit` over ``(dsts[i], nbytes[i],
        payloads[i])`` issued at times ``ts[i]`` (default: ``executor.now()``
        for every message) — and *bit-for-bit* so: the per-message costs come
        from the same IEEE operations in the same order, the sequential NIC
        availability and pairwise-FIFO recurrences run per message, and the
        delivery events are posted in loop order so same-timestamp cohorts
        dispatch identically. What the wave saves is the per-message call
        chain: one pass computes vectorized serialization costs (``nbytes``
        may be a scalar or an array), and all deliveries are posted with a
        single ``call_at_batch``.

        Fault injection is inherently per-message (verdicts feed retry
        state), so waves refuse to run with a ``fault_hook`` installed —
        callers check :meth:`FabricMux.wave_capable` and fall back to the
        scalar loop. Returns the per-message injection-complete times.
        """
        if self.fault_hook is not None:
            raise CommError(
                "transmit_wave does not support fault injection; check "
                "wave_capable() and fall back to per-message transmit")
        self._check_rank(src)
        n = len(dsts)
        if len(payloads) != n:
            raise CommError(
                f"wave length mismatch: {n} destinations, "
                f"{len(payloads)} payloads")
        net = self.network
        if np.isscalar(nbytes):
            if nbytes < 0:
                raise CommError(f"negative message size {nbytes}")
            if (self.max_message_bytes is not None
                    and nbytes > self.max_message_bytes):
                raise CommError(
                    f"message of {nbytes} bytes exceeds fabric limit of "
                    f"{self.max_message_bytes} bytes (fragment it)")
            # Constant wire size: the scalar costs are shared by every
            # message (same inputs -> same floats as per-message calls).
            ser_all = net.serialization_time(nbytes)
            intra_all = net.intra_node_time(nbytes)
            sizes = [nbytes] * n
            sers = intras = None
            total_bytes = nbytes * n
        else:
            sizes = [int(b) for b in nbytes]
            for b in sizes:
                if b < 0:
                    raise CommError(f"negative message size {b}")
                if (self.max_message_bytes is not None
                        and b > self.max_message_bytes):
                    raise CommError(
                        f"message of {b} bytes exceeds fabric limit of "
                        f"{self.max_message_bytes} bytes (fragment it)")
            arr = np.asarray(sizes, dtype=np.float64)
            sers = net.serialization_time_vec(arr).tolist()
            intras = net.intra_node_time_vec(arr).tolist()
            ser_all = intra_all = 0.0
            total_bytes = sum(sizes)
        if ts is None:
            t_now = self.executor.now()
            ts = [t_now] * n

        rpn = self.ranks_per_node
        s_node = src // rpn
        lat = net.latency
        topo = self.topology
        tx_avail = self._tx_avail
        rx_avail = self._rx_avail
        pair_last = self._pair_last
        sinks = self._sinks
        nranks = self.nranks
        tracer = self.executor.tracer
        self.last_fault = None

        injects: List[float] = []
        deliveries: List[float] = []
        items: List[tuple] = []
        for i in range(n):
            dst = dsts[i]
            if not (0 <= dst < nranks):
                raise CommError(f"rank {dst} out of range [0, {nranks})")
            t = ts[i]
            payload = payloads[i]
            if sers is None:
                ser = ser_all
                intra = intra_all
            else:
                ser = sers[i]
                intra = intras[i]
            if src == dst:
                inject_done = t
                delivery = t
            elif dst // rpn == s_node:
                inject_done = t + intra
                delivery = inject_done
            else:
                avail = tx_avail[s_node]
                tx_start = avail if avail > t else t
                tx_avail[s_node] = inject_done = tx_start + ser
                d_node = dst // rpn
                arrival = inject_done + lat + topo.extra_latency(s_node, d_node)
                avail = rx_avail[d_node]
                rx_start = avail if avail > arrival else arrival
                rx_avail[d_node] = delivery = rx_start + ser

            sink = sinks.get(dst)
            if sink is None:
                raise CommError(
                    f"rank {dst} has no registered message sink; was its "
                    "communication backend initialized?"
                )
            key = src * nranks + dst
            prev = pair_last.get(key, 0.0)
            if prev > delivery:
                delivery = prev
            pair_last[key] = delivery
            if tracer is not None:
                channel = (
                    payload[0]
                    if isinstance(payload, tuple) and payload
                    and isinstance(payload[0], str)
                    else "net"
                )
                tracer.record_message(src, dst, channel, sizes[i], t, delivery)
            injects.append(inject_done)
            deliveries.append(delivery)
            items.append((sink, src, payload, delivery))

        self.messages_sent += n
        self.bytes_sent += total_bytes
        self.executor.call_at_batch(deliveries, _deliver_wave, items)
        return injects

    # ------------------------------------------------------------------
    def cpu_send_overhead(self) -> float:
        """CPU seconds a sending task should ``charge`` per message."""
        return self.network.cpu_overhead

    def __repr__(self) -> str:
        return (
            f"SimFabric(nranks={self.nranks}, nodes={self.nnodes}, "
            f"net={self.network.name!r}, msgs={self.messages_sent})"
        )
