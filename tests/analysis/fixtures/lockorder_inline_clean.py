"""Fixture: the same inline-delivering write, made with no lock held.

The send is parked under the send-sets lock, which is released before
the write — so the inline ``handle_frame`` takes it afresh.
"""

from repro.xdev.locknames import SEND_SETS, new_lock


class Engine:
    def __init__(self) -> None:
        self._send_lock = new_lock(SEND_SETS)
        self._pending = {}
        self.transport = InlineTransport(self)

    def handle_frame(self, frame) -> None:
        with self._send_lock:
            self._pending.pop(frame, None)

    def post_rts(self, dest, frame) -> None:
        with self._send_lock:
            self._pending[frame] = dest
        self.transport.write(dest, frame)


class InlineTransport:
    def __init__(self, peer: Engine) -> None:
        self.peer = peer

    def write(self, dest, frame) -> None:
        self.peer.handle_frame(frame)
