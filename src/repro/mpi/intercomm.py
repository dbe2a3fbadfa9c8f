"""Intercommunicators (MPI-1 inter-group communication).

Another of the higher-level MPI features the paper lists as missing in
MPJ/Ibis and present in MPJ Express (Section II).  Construction follows
MPI_Intercomm_create: the two groups' *leaders* talk over a peer
communicator, exchange membership, and agree on fresh contexts;
everything is then broadcast within each local group.

Point-to-point ranks on an intercommunicator address the *remote*
group, so the devcomm used for traffic is built over the remote pid
table (with this process marked as a non-member).

``merge`` turns the intercommunicator into an ordinary Intracomm over
the union of the groups; the context pair for the merged communicator
is pre-allocated at construction time so no extra cross-group
agreement round is needed.
"""

from __future__ import annotations


import numpy as np

from repro.mpi import op as ops
from repro.mpi.comm import Comm, TAG_INTERCOMM
from repro.mpi.exceptions import CommunicatorError
from repro.mpi.group import Group
from repro.mpi.intracomm import Intracomm
from repro.mpjdev.comm import MPJDevComm


class Intercomm(Comm):
    """A communicator connecting two disjoint groups."""

    def __init__(
        self,
        remote_devcomm: MPJDevComm,
        local_comm: Intracomm,
        local_group: Group,
        remote_group: Group,
        contexts: tuple[int, int],
        merge_contexts: tuple[int, int],
        low_group: bool,
    ) -> None:
        super().__init__(
            remote_devcomm,
            local_group,
            contexts,
            pool=local_comm._pool,
            env=local_comm._env,
        )
        self._local_comm = local_comm
        self._remote_group = remote_group
        self._merge_contexts = merge_contexts
        self._low_group = low_group

    # ------------------------------------------------------------------
    # construction

    @staticmethod
    def _construct(
        local_comm: Intracomm,
        local_leader: int,
        peer_comm: Comm,
        remote_leader: int,
        tag: int,
    ) -> "Intercomm":
        rank = local_comm.rank()
        am_leader = rank == local_leader

        # Each side agrees internally on its next free context id.
        mine = np.array([local_comm._context_counter.value], dtype=np.int64)
        local_max = np.empty(1, dtype=np.int64)
        local_comm.Allreduce(mine, 0, local_max, 0, 1, None, ops.MAX)

        # Leaders exchange (context proposal, membership) over the peer
        # communicator, then broadcast the remote side's data locally.
        if am_leader:
            payload = {
                "context": int(local_max[0]),
                "pids": list(local_comm.group().pids),
            }
            send_req = peer_comm.isend(payload, remote_leader, tag)
            remote_payload = peer_comm.recv(source=remote_leader, tag=tag)
            send_req.wait()
        else:
            remote_payload = None
        remote_payload = local_comm.bcast(remote_payload, root=local_leader)

        agreed = max(int(local_max[0]), int(remote_payload["context"]))
        # Four ids: (pt2pt, coll) for the intercomm + a pre-allocated
        # pair for a later merge().
        contexts = (agreed, agreed + 1)
        merge_contexts = (agreed + 2, agreed + 3)
        local_comm._context_counter.bump_to(agreed + 4)

        remote_pids = list(remote_payload["pids"])
        local_pids = list(local_comm.group().pids)
        overlap = {p.uid for p in local_pids} & {p.uid for p in remote_pids}
        if overlap:
            raise CommunicatorError(
                f"intercommunicator groups overlap (uids {sorted(overlap)})"
            )
        my_pid = local_comm.group().pid(rank)
        local_group = Group(local_pids, my_uid=my_pid.uid)
        remote_group = Group(remote_pids, my_uid=my_pid.uid)
        remote_devcomm = MPJDevComm(
            local_comm._devcomm.device, remote_pids, MPJDevComm.NOT_A_MEMBER
        )
        # Deterministic tie-break for merge ordering: the group whose
        # first pid has the smaller uid is the "low" group.
        low_group = local_pids[0].uid < remote_pids[0].uid
        return Intercomm(
            remote_devcomm,
            local_comm,
            local_group,
            remote_group,
            contexts,
            merge_contexts,
            low_group,
        )

    # ------------------------------------------------------------------
    # identity — local vs remote

    def rank(self) -> int:
        """This process's rank in its *local* group."""
        return self._local_comm.rank()

    def size(self) -> int:
        """Size of the *local* group."""
        return self._local_comm.size()

    Rank = rank
    Size = size
    Get_rank = rank
    Get_size = size

    def remote_size(self) -> int:
        return self._remote_group.size()

    def remote_group(self) -> Group:
        return self._remote_group

    Remote_size = remote_size
    Remote_group = remote_group

    def is_inter(self) -> bool:
        return True

    @property
    def local_comm(self) -> Intracomm:
        """The intracommunicator over this side's group."""
        return self._local_comm

    # Point-to-point methods are inherited from Comm: because the
    # devcomm is built over the remote pid table, dest/source ranks
    # naturally address the remote group, as MPI specifies.

    # ------------------------------------------------------------------
    # merge

    def merge(self, high: bool = False) -> Intracomm:
        """Union Intracomm of both groups (MPI_Intercomm_merge).

        The group that passes ``high=False`` comes first; both sides
        must pass complementary flags (as in MPI).  If both sides pass
        the same flag, a deterministic uid-based order is used.
        """
        local_pids = list(self._group.pids)
        remote_pids = list(self._remote_group.pids)
        local_first = not high
        if high == self._exchange_high(high):
            # Same flag on both sides: fall back to the deterministic
            # low-group ordering fixed at construction.
            local_first = self._low_group
        ordered = local_pids + remote_pids if local_first else remote_pids + local_pids
        my_pid = self._group.pid(self.rank())
        merged_group = Group(ordered, my_uid=my_pid.uid)
        my_new_rank = merged_group.rank()

        device = self._local_comm._devcomm.device
        devcomm = MPJDevComm(device, ordered, my_new_rank)
        return Intracomm(
            devcomm,
            merged_group,
            self._merge_contexts,
            pool=self._pool,
            env=self._env,
            context_counter=self._local_comm._context_counter,
        )

    Merge = merge

    def _exchange_high(self, high: bool) -> bool:
        """Learn the remote side's ``high`` flag (leaders exchange)."""
        rank = self.rank()
        if rank == 0:
            send_req = self.isend(bool(high), 0, TAG_INTERCOMM)
            remote_high = self.recv(source=0, tag=TAG_INTERCOMM)
            send_req.wait()
        else:
            remote_high = None
        return bool(self._local_comm.bcast(remote_high, root=0))
