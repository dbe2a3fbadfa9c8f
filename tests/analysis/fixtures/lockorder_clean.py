"""Fixture: same locks, nested in ascending hierarchy order."""

from repro.xdev.locknames import RENDEZVOUS_IDS, SEND_SETS, new_lock


class Engine:
    def __init__(self) -> None:
        self._send_lock = new_lock(SEND_SETS)
        self._rndz_lock = new_lock(RENDEZVOUS_IDS)

    def ascending(self) -> None:
        with self._send_lock:
            with self._rndz_lock:
                pass

    def sequential(self) -> None:
        with self._rndz_lock:
            pass
        with self._send_lock:
            pass
