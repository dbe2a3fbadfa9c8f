"""Fixture: landing scatter lists filled strictly inside their window."""


class Lander:
    def fill_then_finish(self, buf, chunks, nbytes):
        landing = buf.begin_landing(nbytes)
        for i, view in enumerate(landing):
            view[:] = chunks[i]
        return buf.finish_landing(nbytes)

    def header_then_body(self, engine, buf, recv_id, head_bytes, body_bytes):
        head, body = engine.rendezvous_landing(recv_id, 21 + len(body_bytes))
        head[:] = head_bytes
        body[:] = body_bytes
        return buf.finish_landing(21 + len(body_bytes))
