"""Tests for the baseline network stacks: Ethernet, TCP, RDMA, serializer."""

import pytest

from repro.net import (
    EthernetLink,
    RdmaNetwork,
    Serializer,
    TcpError,
    TcpNetwork,
)


class TestEthernetLink:
    def test_packetise_respects_mtu(self):
        link = EthernetLink()
        assert link.packetise(100) == [100]
        assert link.packetise(1500) == [1500]
        assert link.packetise(1501) == [1500, 1]
        assert link.packetise(4000) == [1500, 1500, 1000]
        assert link.packetise(0) == [0]

    def test_packet_count_is_the_length_of_packetise(self):
        link = EthernetLink()
        for size in range(-1, 3 * link.spec.mtu + 2):
            assert link.packet_count(size) == len(link.packetise(size)), size

    def test_wire_time_scales_with_size(self):
        link = EthernetLink()
        assert link.wire_ns(1500) > link.wire_ns(64)

    def test_down_link_refuses_traffic(self):
        link = EthernetLink()
        link.down = True
        with pytest.raises(ConnectionError):
            link.schedule(0.0, 100)

    def test_carry_accounts(self):
        link = EthernetLink()
        link.schedule(0.0, 100)
        link.schedule(0.0, 200)
        assert link.packets_carried == 2
        assert link.bytes_carried == 300


class TestTcp:
    @pytest.fixture
    def net(self):
        return TcpNetwork()

    def test_round_trip(self, rack2, net):
        _, c0, c1, _ = rack2
        net.listen(c1, "svc")
        conn = net.connect(c0, "svc")
        conn.send(c0, b"request")
        assert conn.recv(c1) == b"request"
        conn.send(c1, b"response")
        assert conn.recv(c0) == b"response"

    def test_receiver_clock_after_wire_arrival(self, rack2, net):
        _, c0, c1, _ = rack2
        net.listen(c1, "svc")
        conn = net.connect(c0, "svc")
        c0.advance(1e6)
        conn.send(c0, b"late message")
        conn.recv(c1)
        assert c1.now() > 1e6

    def test_large_message_pays_per_packet(self, rack2, net):
        _, c0, c1, _ = rack2
        net.listen(c1, "svc")
        conn = net.connect(c0, "svc")
        t0 = c0.now()
        conn.send(c0, b"s" * 64)
        small_tx = c0.now() - t0
        t0 = c0.now()
        conn.send(c0, b"L" * 6000)  # 4 packets
        large_tx = c0.now() - t0
        assert large_tx > 3 * small_tx
        assert net.stats.packets_sent >= 5

    def test_copies_accounted(self, rack2, net):
        _, c0, c1, _ = rack2
        net.listen(c1, "svc")
        conn = net.connect(c0, "svc")
        conn.send(c0, b"x" * 1000)
        conn.recv(c1)
        assert net.stats.bytes_copied == 2000  # user->kernel + kernel->user

    def test_recv_empty_returns_none(self, rack2, net):
        _, c0, c1, _ = rack2
        net.listen(c1, "svc")
        conn = net.connect(c0, "svc")
        assert conn.recv(c1) is None

    def test_duplicate_listen_rejected(self, rack2, net):
        _, c0, c1, _ = rack2
        net.listen(c1, "svc")
        with pytest.raises(TcpError):
            net.listen(c0, "svc")

    def test_connect_unknown_rejected(self, rack2, net):
        _, c0, _, _ = rack2
        with pytest.raises(TcpError):
            net.connect(c0, "ghost")

    def test_messages_in_order(self, rack2, net):
        _, c0, c1, _ = rack2
        net.listen(c1, "svc")
        conn = net.connect(c0, "svc")
        for i in range(5):
            conn.send(c0, bytes([i]))
        assert [conn.recv(c1) for _ in range(5)] == [bytes([i]) for i in range(5)]


class TestRdma:
    def test_two_sided_round_trip(self, rack2):
        _, c0, c1, _ = rack2
        qp = RdmaNetwork().create_qp(0, 1)
        qp.post_send(c0, b"verbs message")
        assert qp.poll_recv(c1) == b"verbs message"

    def test_poll_empty(self, rack2):
        _, c0, c1, _ = rack2
        qp = RdmaNetwork().create_qp(0, 1)
        assert qp.poll_recv(c1) is None

    def test_rdma_cheaper_than_tcp_for_small_messages(self, rack2):
        machine, c0, c1, _ = rack2
        tcp = TcpNetwork()
        tcp.listen(c1, "t")
        conn = tcp.connect(c0, "t")
        t0, t1 = c0.now(), c1.now()
        conn.send(c0, b"m" * 64)
        conn.recv(c1)
        tcp_cost = (c0.now() - t0) + (c1.now() - t1)

        c2, c3 = machine.context(0), machine.context(1)
        qp = RdmaNetwork().create_qp(0, 1)
        t0, t1 = c2.now(), c3.now()
        qp.post_send(c2, b"m" * 64)
        qp.poll_recv(c3)
        rdma_cost = (c2.now() - t0) + (c3.now() - t1)
        assert rdma_cost < tcp_cost


class TestSerializer:
    def test_round_trip_charges_time(self, rack2):
        _, c0, c1, _ = rack2
        ser = Serializer()
        before = c0.now()
        blob = ser.dumps(c0, {"key": list(range(100))})
        assert c0.now() > before
        assert ser.loads(c1, blob) == {"key": list(range(100))}
        assert ser.stats.serialized == 1 and ser.stats.deserialized == 1

    def test_bigger_objects_cost_more(self, rack2):
        _, c0, _, _ = rack2
        ser = Serializer()
        t0 = c0.now()
        ser.dumps(c0, b"x" * 10)
        small = c0.now() - t0
        t0 = c0.now()
        ser.dumps(c0, b"x" * 100_000)
        assert c0.now() - t0 > small * 10
