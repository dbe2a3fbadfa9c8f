"""niodev-specific behaviour: sockets, channels, setup failures."""

import socket
import threading

import numpy as np
import pytest

from repro.buffer import Buffer
from repro.xdev import new_instance
from repro.xdev.device import DeviceConfig
from repro.xdev.exceptions import ConnectionSetupError
from repro.xdev.niodev import allocate_local_endpoints

from tests.conftest import make_job


def send_buffer(arr):
    buf = Buffer(capacity=arr.nbytes + 64)
    buf.write(arr)
    return buf


class TestEndpointAllocation:
    def test_allocates_distinct_ports(self):
        addrs, socks = allocate_local_endpoints(4)
        try:
            assert len({port for _h, port in addrs}) == 4
        finally:
            for s in socks:
                s.close()

    def test_sockets_are_listening(self):
        addrs, socks = allocate_local_endpoints(1)
        try:
            client = socket.create_connection(addrs[0], timeout=5)
            client.close()
        finally:
            for s in socks:
                s.close()


class TestSetupValidation:
    def test_missing_peers_rejected(self):
        with pytest.raises(ConnectionSetupError):
            new_instance("niodev").init(DeviceConfig(rank=0, nprocs=2, peers=[]))

    def test_wrong_peer_count_rejected(self):
        with pytest.raises(ConnectionSetupError):
            new_instance("niodev").init(
                DeviceConfig(rank=0, nprocs=3, peers=[("127.0.0.1", 1)])
            )

    def test_port_already_in_use_rejected(self):
        # Occupy a port without SO_REUSEADDR; the device's bind fails.
        blocker = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            with pytest.raises(ConnectionSetupError):
                new_instance("niodev").init(
                    DeviceConfig(rank=0, nprocs=1, peers=[("127.0.0.1", port)])
                )
        finally:
            blocker.close()


class TestWireBehaviour:
    def test_message_larger_than_socket_buffers(self):
        """Forces many partial reads through the selector state machine."""
        devices, pids = make_job(
            "niodev", 2, options={"socket_buffer_size": 16 * 1024}
        )
        try:
            big = np.arange(500_000, dtype=np.float64)  # 4 MB
            t = threading.Thread(
                target=lambda: devices[0].send(send_buffer(big), pids[1], 1, 0)
            )
            t.start()
            rbuf = Buffer()
            devices[1].recv(rbuf, pids[0], 1, 0)
            t.join(60)
            np.testing.assert_array_equal(rbuf.read_section(), big)
        finally:
            for d in devices:
                d.finish()

    def test_interleaved_small_messages_many_peers(self):
        devices, pids = make_job("niodev", 3)
        try:
            # Rank 2 receives alternating messages from ranks 0 and 1.
            def sender(rank):
                for i in range(20):
                    devices[rank].send(
                        send_buffer(np.array([rank * 100 + i], dtype=np.int64)),
                        pids[2], rank, 0,
                    )

            threads = [threading.Thread(target=sender, args=(r,)) for r in (0, 1)]
            for t in threads:
                t.start()
            got = {0: [], 1: []}
            for _ in range(40):
                rbuf = Buffer()
                status = devices[2].recv(rbuf, -2, -1, 0)  # ANY/ANY
                got[status.tag].append(int(rbuf.read_section()[0]))
            for t in threads:
                t.join(20)
            assert got[0] == [100 * 0 + i for i in range(20)]
            assert got[1] == [100 * 1 + i for i in range(20)]
        finally:
            for d in devices:
                d.finish()

    def test_send_overhead_reported(self):
        devices, _pids = make_job("niodev", 1)
        try:
            # Frame header: 33 base bytes + 20 of causal context
            # (Lamport clock + flow id, see repro.xdev.frames).
            assert devices[0].get_send_overhead() == 53
        finally:
            devices[0].finish()

    def test_finish_joins_input_handler(self):
        devices, _pids = make_job("niodev", 1)
        transport = devices[0].engine.transport
        handler = transport._thread
        assert handler is not None and handler.is_alive()
        devices[0].finish()
        assert not handler.is_alive()
