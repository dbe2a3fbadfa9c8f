"""Fixture: holds the send-sets lock across a write that delivers inline.

``InlineTransport.write`` runs the receiving engine's ``handle_frame``
on the caller's thread, as smdev does.  An RTS written under the
send-sets lock is answered by an RTR whose handler takes the send-sets
lock again — on the same thread, so the non-reentrant lock deadlocks.
The checker sees it transitively: send-sets held across a call that may
acquire send-sets.
"""

from repro.xdev.locknames import SEND_SETS, new_lock


class Engine:
    def __init__(self) -> None:
        self._send_lock = new_lock(SEND_SETS)
        self._pending = {}
        self.transport = InlineTransport(self)

    def handle_frame(self, frame) -> None:
        # The RTR branch: pop the parked send.
        with self._send_lock:
            self._pending.pop(frame, None)

    def post_rts_under_lock(self, dest, frame) -> None:
        with self._send_lock:
            self._pending[frame] = dest
            self.transport.write(dest, frame)


class InlineTransport:
    def __init__(self, peer: Engine) -> None:
        self.peer = peer

    def write(self, dest, frame) -> None:
        self.peer.handle_frame(frame)
