"""The per-packet estimators are opt-in: only the scheme that reads one
turns it on, and reading one that is off raises.

* Port DRE (``OutputPort.enable_dre``) — read by CONGA only; its
  installer enables it on every port of the fabric.
* Per-flow ``r_f`` (``FlowBase.rate_bps``) — read by Hermes only; its
  installer sets ``fabric.track_flow_rates``.
"""

import pytest

from repro.lb.factory import install_lb
from repro.net.fabric import Fabric
from repro.net.packet import Packet, PacketKind
from repro.net.port import OutputPort
from repro.net.spec import ClosSpec
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.transport.dctcp import DctcpFlow
from repro.transport.tcp import MSS
from tests.conftest import make_fabric


def _run_flow(fabric: Fabric, n_pkts: int = 300, metrics=None) -> DctcpFlow:
    """Run one inter-leaf flow to completion; with ``metrics``, record
    the ``conga_metric`` of every DATA packet the receiver gets."""
    flow = DctcpFlow(fabric, 0, 2, n_pkts * MSS)
    if metrics is not None:
        def on_data(packet, _inner=flow.on_data):
            metrics.append(packet.conga_metric)
            _inner(packet)

        flow.on_data = on_data
    fabric.register_flow(flow)
    flow.start()
    fabric.sim.run()
    assert flow.finished
    return flow


class TestPortDre:
    def test_non_conga_fabric_leaves_dre_off(self):
        fabric = make_fabric()
        install_lb(fabric, "ecmp")
        metrics = []
        _run_flow(fabric, metrics=metrics)
        assert metrics and set(metrics) == {0}
        for port in fabric.topology.all_ports():
            with pytest.raises(RuntimeError, match="DRE is off"):
                port.dre_utilization()
            with pytest.raises(RuntimeError, match="DRE is off"):
                port.dre_quantized()

    def test_conga_fabric_stamps_delivered_data(self):
        fabric = make_fabric()
        install_lb(fabric, "conga")
        metrics = []
        _run_flow(fabric, metrics=metrics)
        assert max(metrics) > 0

    def test_conga_enables_dre_on_every_leaf_spine_port(self):
        fabric = make_fabric()
        install_lb(fabric, "conga")
        for port in fabric.topology.all_ports():
            assert port.dre_utilization() == 0.0

    def test_conga_enables_dre_on_every_clos_port(self):
        spec = ClosSpec(pods=2, leaves_per_pod=2, aggs_per_pod=2,
                        n_cores=2, hosts_per_leaf=2)
        fabric = Fabric(Simulator(), spec, RngStreams(1))
        install_lb(fabric, "conga")
        for port in fabric.topology.all_ports():
            assert port.dre_utilization() == 0.0

    def test_enable_dre_after_traffic_raises(self):
        sim = Simulator()
        port = OutputPort(sim, "p", 10e9, 1_000, 750_000, 97_500,
                          forward=lambda packet: None)
        port.enqueue(Packet(0, 0, 1, 0, 1500, PacketKind.DATA))
        sim.run()
        with pytest.raises(RuntimeError, match="after 1 packets"):
            port.enable_dre()

    def test_conga_install_after_traffic_raises(self):
        fabric = make_fabric()
        install_lb(fabric, "ecmp")
        _run_flow(fabric, n_pkts=5)
        with pytest.raises(RuntimeError, match="enable_dre"):
            install_lb(fabric, "conga")


class TestFlowRate:
    def test_rate_bps_raises_under_ecmp(self):
        fabric = make_fabric()
        install_lb(fabric, "ecmp")
        flow = _run_flow(fabric, n_pkts=20)
        with pytest.raises(RuntimeError, match="rate tracking is off"):
            flow.rate_bps()

    def test_rate_bps_tracks_under_hermes(self):
        fabric = make_fabric()
        install_lb(fabric, "hermes")
        assert fabric.track_flow_rates
        flow = DctcpFlow(fabric, 0, 2, 300 * MSS)
        fabric.register_flow(flow)
        flow.start()
        fabric.sim.run(until=100_000)
        assert not flow.finished
        assert flow.rate_bps() > 1e9
