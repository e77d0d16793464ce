"""Shard-local view of the simulated fabric for the sharded DES engine.

A :class:`ShardFabric` is a :class:`~repro.net.fabric.SimFabric` that owns a
contiguous *node-aligned* slice of the ranks (see
:class:`repro.exec.shards.ShardPlan`). Traffic between two local ranks is
priced and delivered exactly as in the base class — same floats, same event
order — which is what keeps per-rank schedules deterministic. Traffic to a
rank owned by another shard is priced on the send side only (sender-NIC
serialization, wire latency, topology hops) and parked in a per-destination-
shard outbox; the window coordinator ferries outboxes between shards at each
window barrier and the receiving shard finishes the pricing (receiver-NIC
contention, pairwise FIFO) in a deterministic ``(arrival, src, seq)`` total
order.

The split mirrors the cost model's structure: everything the *sender's* node
contributes is known at send time, everything the *receiver's* node
contributes depends only on receiver-side state, and the wire in between is
bounded below by :meth:`NetworkModel.lookahead` — the bound that makes the
conservative window protocol safe.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.net.fabric import SimFabric, _deliver_wave
from repro.util.errors import CommError

#: A cross-shard message in flight: everything the receiving shard needs to
#: finish pricing and deliver it. ``seq`` is a per-sending-shard monotone
#: counter so same-arrival messages have a deterministic total order.
WireMsg = Tuple[float, int, int, int, int, Any]  # (arrival, src, seq, dst, nbytes, payload)


class ShardFabric(SimFabric):
    """One shard's slice of the cluster fabric."""

    #: Marks a mixed-process fabric for module backend selection (analogous
    #: to ``ProcFabric.process_spmd``): same-shard peers are in-process,
    #: cross-shard peers are not.
    shard_spmd = True

    def __init__(self, executor, nranks, network, *, plan, shard_id,
                 ranks_per_node=1, topology=None, max_message_bytes=None):
        super().__init__(executor, nranks, network,
                         ranks_per_node=ranks_per_node, topology=topology,
                         max_message_bytes=max_message_bytes)
        self.plan = plan
        self.shard_id = shard_id
        self.lo, self.hi = plan.bounds[shard_id]
        #: Cross-shard messages awaiting the next window barrier, keyed by
        #: destination shard.
        self._outboxes: Dict[int, List[WireMsg]] = {}
        self._send_seq = 0
        self.cross_shard_msgs = 0
        self.cross_shard_bytes = 0

    # ------------------------------------------------------------------
    def is_local(self, rank: int) -> bool:
        return self.lo <= rank < self.hi

    def register_sink(self, rank: int, sink, *, replace: bool = False) -> None:
        if not self.is_local(rank):
            raise CommError(
                f"rank {rank} is not owned by shard {self.shard_id} "
                f"[{self.lo}, {self.hi})")
        super().register_sink(rank, sink, replace=replace)

    # ------------------------------------------------------------------
    def transmit(self, src, dst, nbytes, payload, *, on_injected=None):
        if self.is_local(dst):
            return super().transmit(src, dst, nbytes, payload,
                                    on_injected=on_injected)
        return self._transmit_remote(
            self.executor.now(), src, dst, nbytes, payload, on_injected)

    def _transmit_remote(self, t, src, dst, nbytes, payload, on_injected):
        """Sender-side half of a cross-shard transmit at virtual time ``t``."""
        self._check_rank(src)
        self._check_rank(dst)
        if not self.is_local(src):
            raise CommError(
                f"shard {self.shard_id} cannot send on behalf of remote "
                f"rank {src}")
        if nbytes < 0:
            raise CommError(f"negative message size {nbytes}")
        if self.max_message_bytes is not None and nbytes > self.max_message_bytes:
            raise CommError(
                f"message of {nbytes} bytes exceeds fabric limit of "
                f"{self.max_message_bytes} bytes (fragment it)")
        if self.fault_hook is not None:
            raise CommError(
                "fault injection is not supported across shards; run with "
                "shards=1")
        net = self.network
        # Node-aligned partitioning guarantees cross-shard means cross-node,
        # so this is always the inter-node branch of the cost model.
        s_node = src // self.ranks_per_node
        d_node = dst // self.ranks_per_node
        ser = net.serialization_time(nbytes)
        tx_start = max(t, self._tx_avail[s_node])
        self._tx_avail[s_node] = inject_done = tx_start + ser
        arrival = (inject_done + net.latency
                   + self.topology.extra_latency(s_node, d_node))
        self.messages_sent += 1
        self.bytes_sent += nbytes
        self.cross_shard_msgs += 1
        self.cross_shard_bytes += nbytes
        seq = self._send_seq
        self._send_seq = seq + 1
        dshard = self.plan.shard_of(dst)
        self._outboxes.setdefault(dshard, []).append(
            (arrival, src, seq, dst, nbytes, payload))
        if on_injected is not None:
            self.executor.call_at(inject_done, on_injected, inject_done)
        return inject_done

    # ------------------------------------------------------------------
    def transmit_wave(self, src, dsts, nbytes, payloads, *, ts=None):
        if all(self.lo <= d < self.hi for d in dsts):
            return super().transmit_wave(src, dsts, nbytes, payloads, ts=ts)
        if self.fault_hook is not None:
            raise CommError(
                "transmit_wave does not support fault injection; check "
                "wave_capable() and fall back to per-message transmit")
        n = len(dsts)
        if len(payloads) != n:
            raise CommError(
                f"wave length mismatch: {n} destinations, "
                f"{len(payloads)} payloads")
        sizes = [nbytes] * n if np.isscalar(nbytes) else [int(b) for b in nbytes]
        if ts is None:
            t_now = self.executor.now()
            ts = [t_now] * n
        injects: List[float] = []
        for i in range(n):
            dst = dsts[i]
            if self.is_local(dst):
                injects.append(self._transmit_local_at(
                    ts[i], src, dst, sizes[i], payloads[i]))
            else:
                injects.append(self._transmit_remote(
                    ts[i], src, dst, sizes[i], payloads[i], None))
        return injects

    def _transmit_local_at(self, t, src, dst, nbytes, payload):
        """One local message of a mixed wave, issued at virtual time ``t``.

        Mirrors :meth:`SimFabric.transmit` (no fault hook — waves refuse
        them) so the floats match the all-local wave path bit for bit.
        """
        self._check_rank(src)
        self._check_rank(dst)
        if nbytes < 0:
            raise CommError(f"negative message size {nbytes}")
        if self.max_message_bytes is not None and nbytes > self.max_message_bytes:
            raise CommError(
                f"message of {nbytes} bytes exceeds fabric limit of "
                f"{self.max_message_bytes} bytes (fragment it)")
        net = self.network
        rpn = self.ranks_per_node
        s_node, d_node = src // rpn, dst // rpn
        if src == dst:
            inject_done = delivery = t
        elif s_node == d_node:
            inject_done = delivery = t + net.intra_node_time(nbytes)
        else:
            ser = net.serialization_time(nbytes)
            tx_start = max(t, self._tx_avail[s_node])
            self._tx_avail[s_node] = inject_done = tx_start + ser
            arrival = (inject_done + net.latency
                       + self.topology.extra_latency(s_node, d_node))
            rx_start = max(arrival, self._rx_avail[d_node])
            self._rx_avail[d_node] = delivery = rx_start + ser
        self.messages_sent += 1
        self.bytes_sent += nbytes
        sink = self._sinks.get(dst)
        if sink is None:
            raise CommError(
                f"rank {dst} has no registered message sink; was its "
                "communication backend initialized?"
            )
        key = src * self.nranks + dst
        prev = self._pair_last.get(key, 0.0)
        delivery = max(delivery, prev)
        self._pair_last[key] = delivery
        tracer = self.executor.tracer
        if tracer is not None:
            channel = (
                payload[0]
                if isinstance(payload, tuple) and payload
                and isinstance(payload[0], str)
                else "net"
            )
            tracer.record_message(src, dst, channel, nbytes, t, delivery)
        self.executor.call_at(delivery, _deliver_wave,
                              (sink, src, payload, delivery))
        return inject_done

    # ------------------------------------------------------------------
    def take_outboxes(self) -> Dict[int, List[WireMsg]]:
        """Drain and return the per-destination-shard outboxes."""
        out, self._outboxes = self._outboxes, {}
        return out

    def inject_remote(self, msgs: Sequence[WireMsg]) -> None:
        """Finish pricing and post incoming cross-shard messages.

        Called at a window barrier with every message routed to this shard
        this round. Messages are applied in ``(arrival, src, seq)`` order —
        a total order identical on every replay, and consistent with
        per-pair send order because sender-NIC serialization makes arrivals
        monotone per source — then run through the receiver-side recurrences
        (NIC availability, pairwise FIFO) exactly as the base class would.
        """
        if not msgs:
            return
        net = self.network
        rpn = self.ranks_per_node
        deliveries: List[float] = []
        items: List[tuple] = []
        for arrival, src, _seq, dst, nb, payload in sorted(
                msgs, key=lambda m: (m[0], m[1], m[2])):
            d_node = dst // rpn
            ser = net.serialization_time(nb)
            rx_start = max(arrival, self._rx_avail[d_node])
            self._rx_avail[d_node] = delivery = rx_start + ser
            sink = self._sinks.get(dst)
            if sink is None:
                raise CommError(
                    f"rank {dst} has no registered message sink; was its "
                    "communication backend initialized?"
                )
            key = src * self.nranks + dst
            prev = self._pair_last.get(key, 0.0)
            delivery = max(delivery, prev)
            self._pair_last[key] = delivery
            deliveries.append(delivery)
            items.append((sink, src, payload, delivery))
        self.executor.call_at_batch(deliveries, _deliver_wave, items)

    def __repr__(self) -> str:
        return (
            f"ShardFabric(shard={self.shard_id}, ranks=[{self.lo}, {self.hi}), "
            f"nranks={self.nranks}, net={self.network.name!r}, "
            f"msgs={self.messages_sent}, cross={self.cross_shard_msgs})"
        )
