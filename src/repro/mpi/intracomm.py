"""Intracommunicators: collectives and communicator construction.

The high level of the paper's Fig. 1 — "The MPJ collective
Communications (High level)" — implemented in pure Python over the
base-level point-to-point, exactly as MPJ Express implements its
collectives over mpjdev.  All internal traffic runs on the
communicator's *collective context*, so user point-to-point can never
be matched by collective plumbing.

Built-in algorithms (chosen to match common MPI practice at 2006-era
scale; every one is a schedule in :mod:`repro.mpi.algorithms`):

===============  =================================================
Barrier          dissemination (⌈log2 p⌉ rounds)
Bcast            binomial tree
Reduce           binomial tree (commutative ops), linear fold else
Allreduce        Reduce to rank 0 + Bcast
Gather/Scatter   linear to/from root
Allgather        ring (p-1 steps)
Allgatherv       Gatherv to rank 0 + Bcast
Alltoall(v)      one round of p-1 exchanges
Reduce_scatter   Reduce + Scatterv
Scan/Exscan      linear chain
===============  =================================================

The lowercase object verbs wrap the uppercase ones with ``OBJECT``,
except ``scan``: its fold is a Python callable over objects, which the
executor does not run, so it keeps its own chain on the collective
context.

Unless a manual override is set with :meth:`set_collective_algorithm`,
each tunable collective consults the decision table in
:mod:`repro.mpi.tuning` — keyed on (collective, message bytes,
communicator size) — and may swap in one of the alternatives from
:mod:`repro.mpi.algorithms` (Rabenseifner allreduce, pipelined trees,
binomial gather/scatter, pairwise reduce-scatter, ring allgatherv...).
Each method here validates its arguments, describes its operands and
hands them to :meth:`Intracomm._collective`, which runs the plan of
the selected schedule with :func:`repro.mpi.algorithms.execute`;
contiguous operands ride the zero-copy segment datapath
(:mod:`repro.buffer.window`) from the user's own storage.  Selection
and planning read only the call's shape, so each communicator keeps
its last :data:`PLAN_CACHE_SIZE` plans and a repeated call of the same
shape skips both.

Communicator construction (``dup``/``split``/``create``) agrees on new
context ids with an Allreduce(MAX) over each rank's context counter —
the standard context-agreement trick — so ranks whose histories have
diverged still converge on identical contexts.
"""

from __future__ import annotations

import os
from dataclasses import replace
from itertools import accumulate
from typing import Any, Optional, Sequence

import numpy as np

from repro.mpi import algorithms, tuning
from repro.mpi import op as ops
from repro.mpi.algorithms import IN, OUT, _wait_step
from repro.mpi.comm import Comm, TAG_SCAN
from repro.mpi.datatype import BYTE, Datatype, OBJECT, datatype_for
from repro.mpi.exceptions import CommunicatorError, MPIException
from repro.mpi.group import Group, UNDEFINED

#: Plans one communicator keeps; the oldest goes first.  A plan is
#: small (a few steps per round), and a loop calls one shape over and
#: over, so a few dozen entries cover real programs.
PLAN_CACHE_SIZE = 32

#: Barrier's schedule reads nothing of its shape.
_NO_DATA = algorithms.Shape(0, 1)


class ContextCounter:
    """Per-rank allocator of communicator context ids."""

    def __init__(self, start: int = 2) -> None:
        self.value = start

    def bump_to(self, floor: int) -> None:
        self.value = max(self.value, floor)


class Intracomm(Comm):
    """A communicator whose group is all of its members."""

    def __init__(
        self,
        devcomm,
        group: Group,
        contexts: tuple[int, int],
        pool=None,
        env: Any = None,
        context_counter: Optional[ContextCounter] = None,
    ) -> None:
        super().__init__(devcomm, group, contexts, pool=pool, env=env)
        self._context_counter = (
            context_counter
            if context_counter is not None
            else ContextCounter(start=contexts[1] + 1)
        )
        #: Per-communicator collective algorithm overrides
        #: (see :mod:`repro.mpi.algorithms`).
        self._algorithms: dict[str, str] = {}
        #: (collective, nbytes, root, shape, tuning table path) ->
        #: (plan, instruments), at most PLAN_CACHE_SIZE entries.
        self._plans: dict[tuple, tuple] = {}

    def set_collective_algorithm(self, collective: str, algorithm: str) -> None:
        """Choose the algorithm for one collective on this communicator.

        Must be called identically on every rank (like any collective
        tuning).  See :data:`repro.mpi.algorithms.REGISTRY` for choices.
        """
        algorithms.validate(collective, algorithm)
        self._algorithms[collective] = algorithm
        self._plans.clear()

    def _select_algorithm(self, collective: str, nbytes: int) -> str:
        """Name the algorithm for one collective call.

        Manual override first, then the decision table (built-in or the
        one loaded from ``REPRO_COLL_TUNING``), then the built-in
        default.  The key (collective, nbytes, size) is identical on
        every rank, so selection is rank-consistent.
        """
        name = self._algorithms.get(collective)
        if name is None:
            name = tuning.select(collective, nbytes, self.size())
        if name is None or name not in algorithms.REGISTRY[collective]:
            name = algorithms.DEFAULTS[collective]
        return name

    def _collective(self, collective, nbytes, root, shape, datatype, operands, op=None) -> None:
        """Run one collective call: count it on the metrics of the
        algorithm that runs, and execute that algorithm's plan.

        Everything but the operands comes from the plan cache, keyed
        on what selection and planning read.  The tuning table path is
        part of the key, so pointing ``REPRO_COLL_TUNING`` elsewhere
        takes effect on the next call, as an override does (setting one
        clears the cache).
        """
        key = (collective, nbytes, root, shape, os.environ.get(tuning.ENV))
        entry = self._plans.get(key)
        if entry is None:
            entry = self._plan(collective, nbytes, root, shape)
            if len(self._plans) >= PLAN_CACHE_SIZE:
                del self._plans[next(iter(self._plans))]
            self._plans[key] = entry
        plan, (counters, sizes) = entry
        for counter in counters:
            counter.inc()
        if nbytes:
            sizes.observe(nbytes)
        algorithms.execute(self, plan, operands, datatype, op)

    def _plan(self, collective, nbytes, root, shape) -> tuple:
        """Select, resolve the preconditions' fallbacks, and plan the
        schedule that runs; bind the metrics labelled with its name."""
        if collective in algorithms.FIXED:
            name, schedule = algorithms.FIXED[collective]
        else:
            name = algorithms.resolve(
                collective, self._select_algorithm(collective, nbytes), self.size(), shape
            )
            schedule = algorithms.REGISTRY[collective][name]
        plan = algorithms.plan(
            schedule(self.rank(), self.size(), root, shape, self._select_algorithm)
        )
        return plan, self._coll_instruments(collective, name)

    # ==================================================================
    # communicator construction

    def _agree_contexts(self) -> tuple[int, int]:
        """All ranks agree on the next free (pt2pt, coll) context pair."""
        mine = np.array([self._context_counter.value], dtype=np.int64)
        agreed = np.empty(1, dtype=np.int64)
        self.Allreduce(mine, 0, agreed, 0, 1, None, ops.MAX)
        base = int(agreed[0])
        self._context_counter.bump_to(base + 2)
        return (base, base + 1)

    def dup(self) -> "Intracomm":
        """A congruent communicator with fresh contexts.

        Cached attributes propagate according to their keyvals' copy
        policies (see :mod:`repro.mpi.attributes`)."""
        self._check_live()
        contexts = self._agree_contexts()
        clone = Intracomm(
            self._devcomm.sub_comm(list(range(self.size())), self.rank()),
            self._group,
            contexts,
            pool=self._pool,
            env=self._env,
            context_counter=self._context_counter,
        )
        self._copy_attrs_to(clone)
        return clone

    def split(self, color: int, key: int) -> Optional["Intracomm"]:
        """Partition into sub-communicators by *color*, ordered by *key*.

        Returns None for ranks passing ``color == UNDEFINED``.
        """
        self._check_live()
        contexts = self._agree_contexts()
        triples = self.allgather((color, key, self.rank()))
        if color == UNDEFINED:
            return None
        members = sorted(
            (k, r) for c, k, r in triples if c == color
        )
        ranks = [r for _k, r in members]
        my_new_rank = ranks.index(self.rank())
        new_group = Group(
            [self._group.pid(r) for r in ranks],
            my_uid=self._group.pid(self.rank()).uid,
        )
        return Intracomm(
            self._devcomm.sub_comm(ranks, my_new_rank),
            new_group,
            contexts,
            pool=self._pool,
            env=self._env,
            context_counter=self._context_counter,
        )

    def create(self, group: Group) -> Optional["Intracomm"]:
        """Communicator over *group* (None on ranks outside it).

        Collective over the parent: every parent rank must call it.
        """
        self._check_live()
        contexts = self._agree_contexts()
        my_pid = self._group.pid(self.rank())
        my_new_rank = group.rank_of(my_pid)
        if my_new_rank == UNDEFINED:
            return None
        parent_ranks = [self._group.rank_of(p) for p in group.pids]
        if any(r == UNDEFINED for r in parent_ranks):
            raise CommunicatorError("create() group is not a subset of the parent")
        new_group = Group(group.pids, my_uid=my_pid.uid)
        return Intracomm(
            self._devcomm.sub_comm(parent_ranks, my_new_rank),
            new_group,
            contexts,
            pool=self._pool,
            env=self._env,
            context_counter=self._context_counter,
        )

    Dup = dup
    Split = split
    Create = create

    def create_cart(
        self,
        dims: Sequence[int],
        periods: Sequence[bool],
        reorder: bool = False,
    ):
        """Cartesian topology communicator (paper: virtual topologies)."""
        from repro.mpi.cartcomm import CartComm

        self._check_live()
        contexts = self._agree_contexts()
        return CartComm._construct(self, contexts, dims, periods, reorder)

    def create_graph(
        self, index: Sequence[int], edges: Sequence[int], reorder: bool = False
    ):
        """Graph topology communicator."""
        from repro.mpi.graphcomm import GraphComm

        self._check_live()
        contexts = self._agree_contexts()
        return GraphComm._construct(self, contexts, index, edges, reorder)

    Create_cart = create_cart
    Create_graph = create_graph

    def create_intercomm(
        self,
        local_leader: int,
        peer_comm: "Intracomm",
        remote_leader: int,
        tag: int,
    ):
        """Build an intercommunicator; see :mod:`repro.mpi.intercomm`."""
        from repro.mpi.intercomm import Intercomm

        self._check_live()
        return Intercomm._construct(self, local_leader, peer_comm, remote_leader, tag)

    Create_intercomm = create_intercomm

    # ==================================================================
    # collective plumbing

    @staticmethod
    def _resolve_type(buf, datatype: Optional[Datatype]) -> Datatype:
        if datatype is not None:
            return datatype
        if isinstance(buf, np.ndarray):
            return datatype_for(buf)
        raise MPIException("datatype may be omitted only for numpy arrays")

    def _coll_instruments(self, name: str, algorithm: str) -> tuple:
        """What one collective call ticks (repro.obs): the
        ``coll.<name>`` counter, ``coll.<name>{algorithm=...}`` so
        traces and bench cells show which path actually ran, and the
        ``coll.bytes`` histogram.  A device without metrics gets no-op
        instruments."""
        try:
            metrics = self._devcomm.device.metrics
        except Exception:  # noqa: BLE001 - device without metrics
            metrics = None
        if metrics is None or not metrics.enabled:
            from repro.obs.metrics import NullMetrics

            metrics = NullMetrics()
        counters = (
            metrics.counter(f"coll.{name}"),
            metrics.counter(f"coll.{name}", labels={"algorithm": algorithm}),
        )
        return counters, metrics.histogram("coll.bytes")

    def _check_vector_args(self, counts, displs=None) -> None:
        """Validate per-rank count/displacement vectors."""
        size = self.size()
        if len(counts) != size:
            raise MPIException(
                f"counts vector has {len(counts)} entries for {size} ranks"
            )
        if displs is not None and len(displs) != size:
            raise MPIException(
                f"displs vector has {len(displs)} entries for {size} ranks"
            )

    # ==================================================================
    # Barrier

    def Barrier(self) -> None:
        """Dissemination barrier: ⌈log2 p⌉ rounds of zero-byte tokens."""
        self._check_live()
        self._collective("barrier", 0, 0, _NO_DATA, BYTE, {})

    barrier = Barrier

    # ==================================================================
    # Bcast

    def Bcast(
        self,
        buf: Any,
        offset: int,
        count: int,
        datatype: Optional[Datatype],
        root: int,
    ) -> None:
        """Broadcast from *root* (algorithm selected per call)."""
        self._check_live()
        self._check_rank(root)
        datatype = self._resolve_type(buf, datatype)
        self._collective(
            "bcast", datatype.packed_size(count), root,
            algorithms.Shape.of(count, datatype), datatype,
            {OUT: (buf, offset, count, datatype)},
        )

    def bcast(self, obj: Any = None, root: int = 0) -> Any:
        """Object broadcast: returns the root's object everywhere."""
        box = [obj]
        self.Bcast(box, 0, 1, OBJECT, root)
        return box[0]

    # ==================================================================
    # Reduce family

    @staticmethod
    def _writable_flat(buf: Any) -> np.ndarray:
        """Flat view of a result array; must be a real view, not a copy."""
        if not isinstance(buf, np.ndarray):
            raise MPIException("reduction result buffers must be numpy arrays")
        if not buf.flags.c_contiguous:
            raise MPIException(
                "reduction result buffers must be C-contiguous (a flat view "
                "of a non-contiguous array would silently be a copy)"
            )
        return buf.reshape(-1)

    @staticmethod
    def _check_reducible(datatype: Datatype) -> None:
        if datatype.base_dtype is None:
            raise MPIException("Reduce needs a primitive-based datatype")
        if datatype.extent != datatype.block_count:
            raise MPIException("Reduce needs a contiguous datatype layout")

    def Reduce(
        self,
        sendbuf: Any,
        sendoffset: int,
        recvbuf: Any,
        recvoffset: int,
        count: int,
        datatype: Optional[Datatype],
        op: ops.Op,
        root: int,
    ) -> None:
        """Reduce *count* elements to *root* with *op*."""
        self._check_live()
        self._check_rank(root)
        datatype = self._resolve_type(sendbuf, datatype)
        self._check_reducible(datatype)
        if self.rank() == root:
            self._writable_flat(recvbuf)
        self._collective(
            "reduce", datatype.packed_size(count), root,
            algorithms.Shape.of(count, datatype, op), datatype,
            {IN: (sendbuf, sendoffset, count, datatype),
             OUT: (recvbuf, recvoffset, count, datatype)},
            op,
        )

    def Allreduce(
        self,
        sendbuf: Any,
        sendoffset: int,
        recvbuf: Any,
        recvoffset: int,
        count: int,
        datatype: Optional[Datatype],
        op: ops.Op,
    ) -> None:
        """Allreduce (algorithm selected per call; reduce+bcast default)."""
        self._check_live()
        datatype = self._resolve_type(sendbuf, datatype)
        self._check_reducible(datatype)
        self._writable_flat(recvbuf)
        self._collective(
            "allreduce", datatype.packed_size(count), 0,
            algorithms.Shape.of(count, datatype, op), datatype,
            {IN: (sendbuf, sendoffset, count, datatype),
             OUT: (recvbuf, recvoffset, count, datatype)},
            op,
        )

    def Reduce_scatter(
        self,
        sendbuf: Any,
        sendoffset: int,
        recvbuf: Any,
        recvoffset: int,
        recvcounts: Sequence[int],
        datatype: Optional[Datatype],
        op: ops.Op,
    ) -> None:
        """Reduce then scatter segments of *recvcounts* elements."""
        self._check_live()
        self._check_vector_args(recvcounts)
        datatype = self._resolve_type(sendbuf, datatype)
        self._check_reducible(datatype)
        total = int(sum(recvcounts))
        displs = list(accumulate(recvcounts[:-1], initial=0))
        self._collective(
            "reduce_scatter", datatype.packed_size(total), 0,
            _placed(algorithms.Shape.of(total, datatype, op), recvcounts, displs, datatype),
            datatype,
            {IN: (sendbuf, sendoffset, total, datatype),
             OUT: (recvbuf, recvoffset, int(recvcounts[self.rank()]), datatype)},
            op,
        )

    def Scan(
        self, sendbuf: Any, sendoffset: int, recvbuf: Any, recvoffset: int,
        count: int, datatype: Optional[Datatype], op: ops.Op,
    ) -> None:
        """Inclusive prefix reduction in rank order."""
        self._prefix("scan", sendbuf, sendoffset, recvbuf, recvoffset, count, datatype, op)

    def Exscan(
        self, sendbuf: Any, sendoffset: int, recvbuf: Any, recvoffset: int,
        count: int, datatype: Optional[Datatype], op: ops.Op,
    ) -> None:
        """Exclusive prefix reduction (recvbuf untouched at rank 0)."""
        self._prefix("exscan", sendbuf, sendoffset, recvbuf, recvoffset, count, datatype, op)

    def _prefix(self, collective, sendbuf, sendoffset, recvbuf, recvoffset, count, datatype, op):
        """Scan or Exscan; Exscan's rank 0 never touches *recvbuf*."""
        self._check_live()
        datatype = self._resolve_type(sendbuf, datatype)
        self._check_reducible(datatype)
        if collective == "scan" or self.rank():
            self._writable_flat(recvbuf)
        self._collective(
            collective, datatype.packed_size(count), 0,
            algorithms.Shape.of(count, datatype, op), datatype,
            {IN: (sendbuf, sendoffset, count, datatype),
             OUT: (recvbuf, recvoffset, count, datatype)},
            op,
        )

    # ==================================================================
    # Gather family

    def Gather(
        self,
        sendbuf: Any, sendoffset: int, sendcount: int, sendtype: Optional[Datatype],
        recvbuf: Any, recvoffset: int, recvcount: int, recvtype: Optional[Datatype],
        root: int,
    ) -> None:
        """Gather to *root*, rank i landing at block i."""
        self._check_live()
        self._check_rank(root)
        size = self.size()
        sendtype = self._resolve_type(sendbuf, sendtype)
        operands = {IN: (sendbuf, sendoffset, sendcount, sendtype)}
        # The block is fixed by the (matching) type signatures, so each
        # rank reads it off its own significant operand.
        own, own_count = sendtype, sendcount
        if self.rank() == root:
            own, own_count = self._resolve_type(recvbuf, recvtype), recvcount
            operands[OUT] = (recvbuf, recvoffset, size * recvcount, own)
        self._collective(
            "gather", sendtype.packed_size(sendcount) * size, root,
            algorithms.Shape.of(own_count, own), own, operands,
        )

    def Gatherv(
        self,
        sendbuf: Any, sendoffset: int, sendcount: int, sendtype: Optional[Datatype],
        recvbuf: Any, recvoffset: int, recvcounts: Sequence[int],
        displs: Sequence[int], recvtype: Optional[Datatype], root: int,
    ) -> None:
        """Gather with per-rank counts and displacements (in elements)."""
        self._check_live()
        self._check_rank(root)
        sendtype = self._resolve_type(sendbuf, sendtype)
        operands = {IN: (sendbuf, sendoffset, sendcount, sendtype)}
        shape = algorithms.Shape.of(sendcount, sendtype)
        if self.rank() == root:
            if len(recvcounts) != self.size() or len(displs) != self.size():
                raise MPIException("recvcounts/displs must have one entry per rank")
            recvtype = self._resolve_type(recvbuf, recvtype)
            operands[OUT] = (recvbuf, recvoffset, _span(recvcounts, displs), recvtype)
            shape = _placed(shape, recvcounts, displs, recvtype)
        self._collective(
            "gatherv", sendtype.packed_size(sendcount), root, shape, sendtype, operands
        )

    def Scatter(
        self,
        sendbuf: Any, sendoffset: int, sendcount: int, sendtype: Optional[Datatype],
        recvbuf: Any, recvoffset: int, recvcount: int, recvtype: Optional[Datatype],
        root: int,
    ) -> None:
        """Scatter from *root*, block i going to rank i."""
        self._check_live()
        self._check_rank(root)
        size = self.size()
        recvtype = self._resolve_type(recvbuf, recvtype)
        operands = {OUT: (recvbuf, recvoffset, recvcount, recvtype)}
        own, own_count = recvtype, recvcount
        if self.rank() == root:
            own, own_count = self._resolve_type(sendbuf, sendtype), sendcount
            operands[IN] = (sendbuf, sendoffset, size * sendcount, own)
        self._collective(
            "scatter", recvtype.packed_size(recvcount) * size, root,
            algorithms.Shape.of(own_count, own), own, operands,
        )

    def Scatterv(
        self,
        sendbuf: Any, sendoffset: int, sendcounts: Sequence[int],
        displs: Sequence[int], sendtype: Optional[Datatype],
        recvbuf: Any, recvoffset: int, recvcount: int, recvtype: Optional[Datatype],
        root: int,
    ) -> None:
        """Scatter with per-rank counts and displacements."""
        self._check_live()
        self._check_rank(root)
        recvtype = self._resolve_type(recvbuf, recvtype)
        operands = {OUT: (recvbuf, recvoffset, recvcount, recvtype)}
        shape = algorithms.Shape.of(recvcount, recvtype)
        if self.rank() == root:
            if len(sendcounts) != self.size() or len(displs) != self.size():
                raise MPIException("sendcounts/displs must have one entry per rank")
            sendtype = self._resolve_type(sendbuf, sendtype)
            operands[IN] = (sendbuf, sendoffset, _span(sendcounts, displs), sendtype)
            shape = _placed(shape, sendcounts, displs, sendtype)
        self._collective(
            "scatterv", recvtype.packed_size(recvcount), root, shape, recvtype, operands
        )

    def Allgather(
        self,
        sendbuf: Any, sendoffset: int, sendcount: int, sendtype: Optional[Datatype],
        recvbuf: Any, recvoffset: int, recvcount: int, recvtype: Optional[Datatype],
    ) -> None:
        """Allgather (default: ring, p-1 steps forwarding one block)."""
        self._check_live()
        size = self.size()
        sendtype = self._resolve_type(sendbuf, sendtype)
        recvtype = self._resolve_type(recvbuf, recvtype)
        self._collective(
            "allgather", sendtype.packed_size(sendcount) * size, 0,
            algorithms.Shape.of(recvcount, recvtype), recvtype,
            {IN: (sendbuf, sendoffset, sendcount, sendtype),
             OUT: (recvbuf, recvoffset, size * recvcount, recvtype)},
        )

    def Allgatherv(
        self,
        sendbuf: Any, sendoffset: int, sendcount: int, sendtype: Optional[Datatype],
        recvbuf: Any, recvoffset: int, recvcounts: Sequence[int],
        displs: Sequence[int], recvtype: Optional[Datatype],
    ) -> None:
        """Allgather with per-rank counts and displacements."""
        self._check_live()
        self._check_vector_args(recvcounts, displs)
        recvtype = self._resolve_type(recvbuf, recvtype)
        sendtype = self._resolve_type(sendbuf, sendtype)
        span = _span(recvcounts, displs)
        self._collective(
            "allgatherv", recvtype.packed_size(int(sum(recvcounts))), 0,
            _placed(algorithms.Shape.of(span, recvtype), recvcounts, displs, recvtype),
            recvtype,
            {IN: (sendbuf, sendoffset, sendcount, sendtype),
             OUT: (recvbuf, recvoffset, span, recvtype)},
        )

    def Alltoall(
        self,
        sendbuf: Any, sendoffset: int, sendcount: int, sendtype: Optional[Datatype],
        recvbuf: Any, recvoffset: int, recvcount: int, recvtype: Optional[Datatype],
    ) -> None:
        """Every rank sends block j to rank j and receives block i from
        rank i."""
        self._check_live()
        size = self.size()
        sendtype = self._resolve_type(sendbuf, sendtype)
        recvtype = self._resolve_type(recvbuf, recvtype)
        self._collective(
            "alltoall", sendtype.packed_size(sendcount) * size, 0,
            algorithms.Shape.of(recvcount, recvtype), recvtype,
            {IN: (sendbuf, sendoffset, size * sendcount, sendtype),
             OUT: (recvbuf, recvoffset, size * recvcount, recvtype)},
        )

    def Alltoallv(
        self,
        sendbuf: Any, sendoffset: int, sendcounts: Sequence[int],
        sdispls: Sequence[int], sendtype: Optional[Datatype],
        recvbuf: Any, recvoffset: int, recvcounts: Sequence[int],
        rdispls: Sequence[int], recvtype: Optional[Datatype],
    ) -> None:
        """Alltoall with per-peer counts and displacements."""
        self._check_live()
        if not (len(sendcounts) == len(sdispls) == len(recvcounts) == len(rdispls) == self.size()):
            raise MPIException("alltoallv count/displacement arrays must match size")
        sendtype = self._resolve_type(sendbuf, sendtype)
        recvtype = self._resolve_type(recvbuf, recvtype)
        span = _span(recvcounts, rdispls)
        shape = _placed(algorithms.Shape.of(span, recvtype), recvcounts, rdispls, recvtype)
        sent = _placed(shape, sendcounts, sdispls, sendtype)
        self._collective(
            "alltoallv", sendtype.packed_size(int(sum(sendcounts))), 0,
            replace(shape, scounts=sent.counts, sdispls=sent.displs), recvtype,
            {IN: (sendbuf, sendoffset, _span(sendcounts, sdispls), sendtype),
             OUT: (recvbuf, recvoffset, span, recvtype)},
        )

    # ==================================================================
    # lowercase object collectives (mpi4py style)

    def gather(self, obj: Any, root: int = 0) -> Optional[list]:
        """Gather objects: root receives the rank-ordered list."""
        out = [None] * self.size() if self.rank() == root else None
        self.Gather([obj], 0, 1, OBJECT, out, 0, 1, OBJECT, root)
        return out

    def scatter(self, objs: Optional[Sequence[Any]] = None, root: int = 0) -> Any:
        """Scatter a sequence of objects, one per rank."""
        self._check_live()
        size = self.size()
        if self.rank() == root and (objs is None or len(objs) != size):
            raise MPIException(f"scatter needs exactly {size} items at the root")
        box = [None]
        self.Scatter(objs, 0, 1, OBJECT, box, 0, 1, OBJECT, root)
        return box[0]

    def allgather(self, obj: Any) -> list:
        """Gather objects everywhere (gather + bcast)."""
        out = self.gather(obj, root=0)
        return self.bcast(out, root=0)

    def alltoall(self, objs: Sequence[Any]) -> list:
        """Each rank sends item j to rank j; receives one from each."""
        self._check_live()
        size = self.size()
        if len(objs) != size:
            raise MPIException(f"alltoall needs exactly {size} items")
        out: list = [None] * size
        self.Alltoall(objs, 0, 1, OBJECT, out, 0, 1, OBJECT)
        return out

    def reduce(self, obj: Any, op=None, root: int = 0) -> Any:
        """Object reduction: fold gathered values in rank order at root."""
        values = self.gather(obj, root=root)
        if values is None:
            return None
        folder = op if op is not None else (lambda a, b: a + b)
        acc = values[0]
        for value in values[1:]:
            acc = folder(acc, value)
        return acc

    def allreduce(self, obj: Any, op=None) -> Any:
        """Object reduction everywhere."""
        return self.bcast(self.reduce(obj, op=op, root=0), root=0)

    def scan(self, obj: Any, op=None) -> Any:
        """Inclusive object prefix reduction in rank order.

        Not a schedule: the executor folds arrays, and this fold is a
        Python callable over objects.  The chain posts on the
        collective context and reaps its steps as the executor does.
        """
        self._check_live()
        size, rank = self.size(), self.rank()
        folder = op if op is not None else (lambda a, b: a + b)
        ctx, acc = self._context_coll, obj
        if rank > 0:
            box = [None]
            request, message, _dt = self._post_recv(box, 0, 1, OBJECT, rank - 1, TAG_SCAN, ctx)
            _wait_step(self, request, message, (box, 0, 1, OBJECT))
            acc = folder(box[0], obj)
        if rank < size - 1:
            request, message = self._post_send(
                [acc], 0, 1, OBJECT, rank + 1, TAG_SCAN, ctx, "standard"
            )
            _wait_step(self, request, message, None)
        return acc


def _span(counts: Sequence[int], displs: Sequence[int]) -> int:
    """Elements from the first block's start to the last block's end."""
    return int(max((d + c for d, c in zip(displs, counts)), default=0))


def _placed(shape, counts, displs, datatype):
    """*shape* with per-rank blocks at explicit displacements (elements
    of *datatype*, in base elements)."""
    bc = datatype.block_count
    return replace(
        shape,
        counts=tuple(int(c) * bc for c in counts),
        displs=tuple(int(d) * bc for d in displs),
    )
