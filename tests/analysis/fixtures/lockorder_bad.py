"""Fixture: acquires the send-sets lock while holding rendezvous-ids.

RENDEZVOUS_IDS (rank 40) outranks SEND_SETS (rank 30), so this nesting
inverts the documented hierarchy and can deadlock against the send
path, which nests the other way.
"""

from repro.xdev.locknames import RENDEZVOUS_IDS, SEND_SETS, new_lock


class Engine:
    def __init__(self) -> None:
        self._send_lock = new_lock(SEND_SETS)
        self._rndz_lock = new_lock(RENDEZVOUS_IDS)

    def inverted(self) -> None:
        with self._rndz_lock:
            with self._send_lock:
                pass

    def inverted_explicit(self) -> None:
        self._rndz_lock.acquire()
        try:
            self._send_lock.acquire()
            self._send_lock.release()
        finally:
            self._rndz_lock.release()
