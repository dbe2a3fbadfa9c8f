"""Fixture: elements of a landing scatter list kept past their fence.

``begin_landing``/``rendezvous_landing`` return a list of views; each
element is a view into the posted buffer (or the user's array) and is
only valid until ``finish_landing``.
"""


class Lander:
    def __init__(self) -> None:
        self.kept = []

    def header_used_after_finish(self, engine, buf, recv_id, nbytes) -> int:
        views = engine.rendezvous_landing(recv_id, nbytes)
        head = views[0]
        head[:4] = b"\x00\x00\x00\x00"
        buf.finish_landing(nbytes)
        return head[0]

    def element_stashed_in_container(self, buf, nbytes) -> None:
        landing = buf.begin_landing(nbytes)
        for view in landing:
            self.kept.append(view)
        buf.finish_landing(nbytes)
