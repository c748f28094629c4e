"""Flow base class: identity, lifecycle, opt-in rate estimation.

A flow object holds *both* endpoints' state (sender and receiver); the
simulator is single-process, so splitting it in two would only add
plumbing.  The host layer dispatches DATA packets to :meth:`on_data`
(receiver side) and ACKs to :meth:`on_ack` (sender side).
"""

from __future__ import annotations

import math
from typing import Optional, TYPE_CHECKING

from repro.net.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.fabric import Fabric

#: Time constant of the per-flow ``r_f`` rate estimator.
RATE_TAU_NS = 200_000


class FlowBase:
    """Common flow state shared by TCP/DCTCP/UDP.

    Attributes consulted by load balancers (Hermes in particular):

    * ``bytes_sent`` — ``s_sent`` in the paper: bytes transmitted so far,
      used to estimate the remaining size;
    * ``rate_bps()`` — ``r_f``: DRE-smoothed sending rate, kept only
      when the fabric's ``track_flow_rates`` was on at construction
      (the Hermes installer turns it on);
    * ``current_path`` — the path the flow is pinned to right now;
    * ``if_timeout`` — set when the flow suffered an RTO; Hermes reroutes
      such flows at the next packet.
    """

    def __init__(
        self,
        fabric: "Fabric",
        src: int,
        dst: int,
        size_bytes: int,
        flow_id: Optional[int] = None,
    ) -> None:
        if src == dst:
            raise ValueError("flow endpoints must differ")
        if size_bytes <= 0:
            raise ValueError(f"flow size must be positive, got {size_bytes}")
        self.fabric = fabric
        self.sim = fabric.sim
        self.src = src
        self.dst = dst
        self.size_bytes = size_bytes
        self.flow_id = fabric.allocate_flow_id() if flow_id is None else flow_id
        self.start_time: Optional[int] = None
        self.finish_time: Optional[int] = None
        self.current_path: int = -2  # -2 = unassigned; -1 = intra-rack
        self.if_timeout: bool = False
        self.bytes_sent: int = 0
        self.pkts_sent: int = 0
        self.retx_count: int = 0
        self.timeout_count: int = 0
        self.last_tx_time: int = -(10**18)  # for flowlet detection
        # DRE rate estimator (lazy exponential decay); senders call
        # _rate_add only when _track_rate is set.
        self._track_rate: bool = fabric.track_flow_rates
        self._rate_value = 0.0
        self._rate_last = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    @property
    def finished(self) -> bool:
        return self.finish_time is not None

    @property
    def fct_ns(self) -> Optional[int]:
        """Flow completion time, or ``None`` if unfinished."""
        if self.start_time is None or self.finish_time is None:
            return None
        return self.finish_time - self.start_time

    def start(self) -> None:
        """Begin transmission (subclasses send the initial window)."""
        raise NotImplementedError

    def on_data(self, packet: Packet) -> None:
        """Receiver-side handler for an arriving data packet."""
        raise NotImplementedError

    def on_ack(self, packet: Packet) -> None:
        """Sender-side handler for an arriving ACK."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Sending-rate estimation (r_f)
    # ------------------------------------------------------------------ #

    def _rate_add(self, size_bytes: int) -> None:
        now = self.sim.now
        dt = now - self._rate_last
        if dt > 0:
            self._rate_value *= math.exp(-dt / RATE_TAU_NS)
            self._rate_last = now
        self._rate_value += size_bytes

    def rate_bps(self) -> float:
        """Current DRE-smoothed sending rate in bits/second.

        Tracked only for flows built while ``fabric.track_flow_rates``
        was on, which the installer of a scheme that reads ``r_f``
        (Hermes) sets.  Raises otherwise, so a reader that forgot to ask
        for it cannot silently see a rate of 0.
        """
        if not self._track_rate:
            raise RuntimeError(
                f"flow {self.flow_id}: rate tracking is off; the scheme "
                f"that reads r_f must set fabric.track_flow_rates at install"
            )
        now = self.sim.now
        dt = now - self._rate_last
        value = self._rate_value
        if dt > 0:
            value *= math.exp(-dt / RATE_TAU_NS)
        return value * 8.0 / (RATE_TAU_NS / 1e9)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "done" if self.finished else "active"
        return (
            f"{type(self).__name__}(id={self.flow_id} {self.src}->{self.dst} "
            f"{self.size_bytes}B {status})"
        )
