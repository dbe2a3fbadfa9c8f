"""Collective algorithms as schedules, selectable per communicator.

The high level of MPJ Express implements its collectives in pure Java
over point-to-point; production MPI libraries ship *several* algorithms
per collective and pick by message size and process count.  This module
provides the classic alternatives so the choice can be ablated
(``tests/unit/test_ablation_collectives.py``), tuned offline
(``python -m repro.bench tune-coll``) and selected automatically per
call (:mod:`repro.mpi.tuning`):

==============  ===========================  =================================
collective      default                      alternatives
==============  ===========================  =================================
Bcast           binomial tree                linear, scatter+ring-allgather,
                                             pipelined binomial
Reduce          binomial tree                linear gather-fold,
                                             pipelined binomial
Allreduce       Reduce + Bcast               recursive doubling, Rabenseifner
Allgather       ring                         gather + bcast
Allgatherv      gather + bcast via rank 0    ring
Gather          linear                       binomial tree
Scatter         linear                       binomial tree
Reduce_scatter  Reduce + Scatterv            pairwise exchange
==============  ===========================  =================================

Select manually with ``comm.set_collective_algorithm("bcast", "linear")``;
without an override the decision table in :mod:`repro.mpi.tuning` picks
by message size and communicator size.

Each algorithm is written once, as a *schedule*: a generator
``schedule(rank, size, root, shape, select)`` that yields one rank's
:class:`Step` list per global round.  Every rank yields the same number
of rounds, and within a round each send meets a receive of the same
tag and size at its peer.  :func:`execute` runs any schedule live over
``_coll_irecv``/``_coll_isend``; :func:`repro.netsim.collectives.cost`
prices the same schedule with a library model's T(m), so the live path,
the tuner and the model cannot disagree about what an algorithm sends.

A step names *blocks*, never arrays: ``(buffer, lo, n)`` with a
symbolic buffer — ``in`` (the send operand), ``out`` (the receive
operand), ``acc``/``tmp`` (private arrays) — and a range of base
elements (list items for OBJECT).  :class:`Shape` holds the facts a
schedule may read, all identical on every rank (count, op flags,
communicator size, datatype shape); each algorithm whose preconditions
fail on them names its fallback in :func:`resolve` before the first
step runs, so all ranks take the same path and the metrics label names
the algorithm that ran.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional

import numpy as np

from repro.mpi.comm import (
    TAG_ALLGATHER,
    TAG_BARRIER,
    TAG_BCAST,
    TAG_GATHER,
    TAG_REDUCE,
    TAG_SCATTER,
)
from repro.mpi.datatype import _BY_DTYPE, Datatype, _IndexPatternType
from repro.mpi.exceptions import MPIException

#: Pipeline segment size for the segmented tree algorithms, in bytes.
#: Chosen above the default eager threshold (128KB) so each segment
#: still travels the zero-copy rendezvous path.
SEGMENT_BYTES = 256 * 1024

#: Symbolic buffers a step may name.
IN, OUT, ACC, TMP = "in", "out", "acc", "tmp"

#: Step kinds.
SEND, RECV, RECV_REDUCE, COPY = "send", "recv", "recv_reduce", "copy"

#: Receives a round folds concurrently; further ``recv_reduce`` steps
#: wait for a slot and recycle its scratch array.
FOLD_WINDOW = 4

Block = tuple[str, int, int]


class Step(NamedTuple):
    """One rank's action in one round."""

    kind: str
    peer: int  # -1 for a local copy
    block: Block  # sent, received, folded into, or copied to
    tag: int = 0
    src: Optional[Block] = None  # copy source
    fold: bool = False  # copy folds src into block (MPI_Reduce_local)


def send(peer: int, block: Block, tag: int) -> Step:
    return Step(SEND, peer, block, tag)


def recv(peer: int, block: Block, tag: int) -> Step:
    return Step(RECV, peer, block, tag)


def recv_reduce(peer: int, block: Block, tag: int) -> Step:
    """Receive into scratch, then fold the scratch into *block*."""
    return Step(RECV_REDUCE, peer, block, tag)


def copy(src: Block, dst: Block, fold: bool = False) -> Step:
    return Step(COPY, -1, dst, 0, src, fold)


@dataclass(frozen=True)
class Shape:
    """The facts a schedule may read.

    *base* is the operand length in base elements — one rank's block
    for gather, scatter and allgather.  *itemsize* is 0 for a
    non-primitive (OBJECT) type, whose list items are its base
    elements.  *counts*/*displs* are per-rank blocks in base elements
    for the vector variants (a plain Gatherv/Scatterv leaves them to
    the root, the one rank that reads them).
    """

    base: int
    itemsize: int
    contiguous: bool = True
    commute: bool = True
    splits: bool = True
    counts: Optional[tuple[int, ...]] = None
    displs: Optional[tuple[int, ...]] = None

    @classmethod
    def of(cls, count: int, datatype: Datatype, op=None) -> "Shape":
        """The shape of *count* elements of *datatype*, reduced by *op*."""
        return cls(
            base=count * datatype.block_count,
            itemsize=datatype.base_dtype.itemsize if datatype.base_dtype is not None else 0,
            contiguous=_primitive_contiguous(datatype),
            commute=op.commute if op is not None else True,
            splits=getattr(op, "splits", True),
        )

    @property
    def splittable(self) -> bool:
        """Whether vector-splitting algorithms may partition operands."""
        return self.commute and self.splits and self.contiguous

    def segment(self) -> int:
        """Base elements per pipeline segment."""
        return max(1, SEGMENT_BYTES // self.itemsize)


Schedule = Iterable[list[Step]]


def _primitive_contiguous(datatype: Datatype) -> bool:
    """True when elements are contiguous runs of a numpy base dtype."""
    return (
        datatype.base_dtype is not None
        and datatype.extent == datatype.block_count
    )


def _base_datatype(datatype: Datatype):
    """The BasicType matching *datatype*'s base dtype."""
    return _BY_DTYPE[np.dtype(datatype.base_dtype)]


def _tree(r: int, size: int) -> list[tuple[int, Optional[int]]]:
    """``(mask, peer)`` per round of the binomial tree rooted at relative
    rank 0, root end first: in the round of *mask*, *r* links to its
    child ``r + mask`` or to its parent ``r - mask`` (the lowest set
    bit of r names the parent), or to nobody.  Children come in
    descending-subtree-size order.  Reversed, it is the tree leaves
    first, for data flowing toward the root."""
    rounds = []
    levels = (size - 1).bit_length()
    for k in range(levels):
        mask = 1 << (levels - 1 - k)
        low = r & (2 * mask - 1)
        if low == 0 and r + mask < size:
            rounds.append((mask, r + mask))
        elif low == mask:
            rounds.append((mask, r - mask))
        else:
            rounds.append((mask, None))
    return rounds


def _span_end(r: int, size: int) -> int:
    """End of the relative ranks in *r*'s binomial subtree."""
    return size if r == 0 else min(r + (r & -r), size)


def _then(rounds: list[list[Step]], *steps: Step) -> list[list[Step]]:
    """Append local *steps* to the last round (their own if none)."""
    if not rounds:
        rounds.append([])
    rounds[-1].extend(steps)
    return rounds


def _sub(collective, nbytes, rank, size, root, shape, select) -> Schedule:
    """The schedule of a composition's sub-collective, as selected."""
    name = resolve(collective, select(collective, nbytes), size, shape)
    return REGISTRY[collective][name](rank, size, root, shape, select)


def _renamed(rounds: Schedule, names: dict[str, str]) -> Iterator[list[Step]]:
    """*rounds* with buffers renamed (a sub-collective's ``out`` becomes
    the composition's staging ``tmp``, say)."""

    def rename(block):
        return block if block is None else (names.get(block[0], block[0]),) + block[1:]

    for steps in rounds:
        yield [st._replace(block=rename(st.block), src=rename(st.src)) for st in steps]


# ----------------------------------------------------------------------
# Barrier


def barrier_dissemination(rank, size, root, shape, select):
    """Dissemination barrier: ⌈log2 p⌉ rounds of zero-byte tokens."""
    token = (TMP, 0, 0)
    mask = 1
    while mask < size:
        yield [
            recv((rank - mask) % size, token, TAG_BARRIER),
            send((rank + mask) % size, token, TAG_BARRIER),
        ]
        mask <<= 1


# ----------------------------------------------------------------------
# Bcast variants


def bcast_binomial(rank, size, root, shape, select):
    """Binomial-tree broadcast: ⌈log2 p⌉ rounds."""
    r = (rank - root) % size
    whole = (OUT, 0, shape.base)
    for _mask, peer in _tree(r, size):
        if peer is None or not shape.base:
            yield []
        elif peer > r:
            yield [send((peer + root) % size, whole, TAG_BCAST)]
        else:
            yield [recv((peer + root) % size, whole, TAG_BCAST)]


def bcast_linear(rank, size, root, shape, select):
    """Root sends to everyone: p-1 serial messages (the naive tree)."""
    whole = (OUT, 0, shape.base)
    if rank == root:
        yield [send(r, whole, TAG_BCAST) for r in range(size) if r != root]
    else:
        yield [recv(root, whole, TAG_BCAST)]


def _ring(r, size, blocks, root=0):
    """Ring allgather of *blocks* (indexed by ring position, relative to
    *root*): p-1 rounds, each forwarding the block received in the
    previous one."""
    left, right = (r - 1 + root) % size, (r + 1 + root) % size
    for step in range(size - 1):
        yield [
            recv(left, blocks[(r - step - 1) % size], TAG_ALLGATHER),
            send(right, blocks[(r - step) % size], TAG_ALLGATHER),
        ]


def bcast_scatter_allgather(rank, size, root, shape, select):
    """Van de Geijn broadcast: scatter segments, then ring allgather.

    Bandwidth-optimal for large messages (each byte crosses each link
    ~2x instead of log2(p)x).  Needs a primitive-based datatype and at
    least one element per rank (see :func:`resolve`).
    """
    r = (rank - root) % size
    # Segment s belongs to relative rank s (first ranks take the
    # remainder); a binomial-scatter holder passes the upper half of its
    # span of segments to a partner.
    per, rem = divmod(shape.base, size)
    lo = [s * per + min(s, rem) for s in range(size + 1)]

    def segments(first: int, last: int) -> Block:
        return (OUT, lo[first], lo[last] - lo[first])

    end = _span_end(r, size)
    for mask, peer in _tree(r, size):
        if peer is None:
            yield []
        elif peer > r:
            block = segments(peer, min(peer + mask, end))
            yield [send((peer + root) % size, block, TAG_BCAST)]
        else:
            yield [recv((peer + root) % size, segments(r, end), TAG_BCAST)]
    yield from _ring(r, size, [segments(s, s + 1) for s in range(size)], root)


def bcast_binomial_pipelined(rank, size, root, shape, select):
    """Segmented binomial broadcast: overlap the tree levels.

    The message is cut into :data:`SEGMENT_BYTES` segments; a node at
    depth d receives segment s in round s+d-1 and forwards it to its
    children in round s+d, while segment s+1 is arriving, so deep trees
    stream instead of store-and-forwarding whole messages.
    """
    r = (rank - root) % size
    seg = shape.segment()
    nseg = -(-shape.base // seg)

    def piece(s: int) -> Block:
        return (OUT, s * seg, min(seg, shape.base - s * seg))

    children = [(c + root) % size for _m, c in _tree(r, size) if c is not None and c > r]
    depth = bin(r).count("1")
    for t in range(nseg + size.bit_length() - 2):
        steps = []
        if r and 0 <= t - depth + 1 < nseg:
            parent = (r - (r & -r) + root) % size
            steps.append(recv(parent, piece(t - depth + 1), TAG_BCAST))
        if 0 <= t - depth < nseg:
            steps += [send(c, piece(t - depth), TAG_BCAST) for c in children]
        yield steps


# ----------------------------------------------------------------------
# Reduce variants
#
# The root folds straight into ``out``; other ranks fold into ``acc``
# and a rank that never folds ships its operand itself (a zero-copy
# window when the layout allows).


def reduce_binomial(rank, size, root, shape, select):
    """Binomial combine toward the root (commutative ops)."""
    r = (rank - root) % size
    n = shape.base
    acc = OUT if r == 0 else ACC
    src, rounds = IN, []
    for _mask, peer in reversed(_tree(r, size)):
        steps = []
        if peer is not None and peer > r:
            if src == IN:
                steps.append(copy((IN, 0, n), (acc, 0, n)))
                src = acc
            steps.append(recv_reduce((peer + root) % size, (acc, 0, n), TAG_REDUCE))
        elif peer is not None:
            steps.append(send((peer + root) % size, (src, 0, n), TAG_REDUCE))
        rounds.append(steps)
    if r == 0 and src == IN:
        _then(rounds, copy((IN, 0, n), (OUT, 0, n)))
    return rounds


def reduce_linear(rank, size, root, shape, select):
    """Everyone sends to root; root folds in rank order.

    Correct for non-commutative operations; p-1 messages into one node.
    The executor keeps a small window of the root's receives in flight
    and recycles their scratch as each contribution is folded: the
    rendezvous handshakes overlap each other instead of serializing
    behind the folds, while memory stays bounded at the window size
    rather than growing with p.
    """
    whole = (IN, 0, shape.base)
    if rank != root:
        return [[send(root, whole, TAG_REDUCE)]]
    res = (OUT, 0, shape.base)
    steps = []
    for r in range(size):
        if r == rank:
            steps.append(copy(whole, res, fold=bool(steps)))
        elif steps:
            steps.append(recv_reduce(r, res, TAG_REDUCE))
        else:
            steps.append(recv(r, res, TAG_REDUCE))
    return [steps]


def reduce_binomial_pipelined(rank, size, root, shape, select):
    """Segmented binomial reduce: fold and forward segment by segment.

    Mirrors :func:`bcast_binomial_pipelined` with data flowing toward
    the root: a node whose subtree is h levels deep ships segment s to
    its parent in round s+h, so each interior node folds its children's
    segment s while segment s+1 is still in flight.  Needs a
    commutative, splittable op and a primitive contiguous datatype.
    """
    r = (rank - root) % size
    n, seg = shape.base, shape.segment()
    nseg = -(-n // seg)

    def height(x: int) -> int:
        return (_span_end(x, size) - x).bit_length() - 1

    children = [c for _m, c in _tree(r, size) if c is not None and c > r]
    acc = IN if not children else (OUT if r == 0 else ACC)
    rounds = []
    for t in range(nseg + height(0) - 1):
        steps = [copy((IN, 0, n), (acc, 0, n))] if t == 0 and children else []
        for c in children:
            s = t - height(c)
            if 0 <= s < nseg:
                block = (acc, s * seg, min(seg, n - s * seg))
                steps.append(recv_reduce((c + root) % size, block, TAG_REDUCE))
        s = t - height(r)
        if r and 0 <= s < nseg:
            parent = (r - (r & -r) + root) % size
            steps.append(send(parent, (acc, s * seg, min(seg, n - s * seg)), TAG_REDUCE))
        rounds.append(steps)
    return rounds


# ----------------------------------------------------------------------
# Allreduce variants


def allreduce_reduce_bcast(rank, size, root, shape, select):
    """Reduce to rank 0, then broadcast; each half runs the algorithm
    the decision table picks for it."""
    nbytes = shape.base * shape.itemsize
    yield from _sub("reduce", nbytes, rank, size, 0, shape, select)
    yield from _sub("bcast", nbytes, rank, size, 0, shape, select)


def _pof2_rounds(rank, size, shape, body):
    """Fold the non-power-of-two remainder into the lower ranks, run
    *body* over the power-of-two virtual ranks, then unfold.

    Everything accumulates in ``out``.  Even rank 2i < 2·rem hands its
    operand to 2i+1 and gets the result back at the end.
    *body(vrank, to_rank)* yields the rounds of virtual rank *vrank*
    (-1 for a folded-away rank).
    """
    whole = (OUT, 0, shape.base)
    pof2 = 1 << (size.bit_length() - 1)
    rem = size - pof2
    folded = rank < 2 * rem
    vrank = (rank // 2 if rank % 2 else -1) if folded else rank - rem
    yield [copy((IN, 0, shape.base), whole)]
    if rem:
        if vrank == -1:
            yield [send(rank + 1, whole, TAG_REDUCE)]
        else:
            yield [recv_reduce(rank - 1, whole, TAG_REDUCE)] if folded else []
    yield from body(vrank, lambda v: v * 2 + 1 if v < rem else v + rem)
    if rem:
        if vrank == -1:
            yield [recv(rank + 1, whole, TAG_REDUCE)]
        else:
            yield [send(rank - 1, whole, TAG_REDUCE)] if folded else []


def allreduce_recursive_doubling(rank, size, root, shape, select):
    """Recursive doubling: log2(p) exchange rounds, everyone finishes
    together.  Requires a commutative op."""
    whole = (OUT, 0, shape.base)
    pof2 = 1 << (size.bit_length() - 1)

    def body(vrank, to_rank):
        mask = 1
        while mask < pof2:
            if vrank == -1:
                yield []
            else:
                partner = to_rank(vrank ^ mask)
                yield [recv_reduce(partner, whole, TAG_REDUCE), send(partner, whole, TAG_REDUCE)]
            mask <<= 1

    return _pof2_rounds(rank, size, shape, body)


def allreduce_rabenseifner(rank, size, root, shape, select):
    """Rabenseifner's allreduce: recursive-halving reduce-scatter, then
    recursive-doubling allgather.

    Bandwidth-optimal for large vectors: ~2·(p-1)/p·m bytes per rank
    instead of the 2·log2(p)·m of reduce+bcast trees.  Needs a
    commutative, splittable op and at least one base element per
    power-of-two rank.
    """
    pof2 = 1 << (size.bit_length() - 1)
    # Block partition of the vector across the pof2 virtual ranks.
    per, extra = divmod(shape.base, pof2)
    bounds = [i * per + min(i, extra) for i in range(pof2 + 1)]

    def blocks(first, last):
        return (OUT, bounds[first], bounds[last] - bounds[first])

    def body(vrank, to_rank):
        # Phase 1: reduce-scatter by recursive vector halving.  Each
        # round exchanges half the current window with the partner and
        # folds the received half; after log2(pof2) rounds virtual rank
        # r owns the fully reduced block r.
        lo, hi = 0, pof2
        mask = pof2 // 2
        while mask:
            if vrank == -1:
                yield []
            else:
                mid = (lo + hi) // 2
                keep, give = ((mid, hi), (lo, mid)) if vrank & mask else ((lo, mid), (mid, hi))
                partner = to_rank(vrank ^ mask)
                lo, hi = keep
                yield [
                    recv_reduce(partner, blocks(*keep), TAG_REDUCE),
                    send(partner, blocks(*give), TAG_REDUCE),
                ]
            mask //= 2
        # Phase 2: allgather the blocks by recursive doubling over
        # growing windows (the exact mirror of phase 1).
        mask = 1
        while mask < pof2:
            if vrank == -1:
                yield []
            else:
                partner = to_rank(vrank ^ mask)
                mine = (vrank // mask) * mask
                theirs = mine ^ mask
                yield [
                    recv(partner, blocks(theirs, theirs + mask), TAG_ALLGATHER),
                    send(partner, blocks(mine, mine + mask), TAG_ALLGATHER),
                ]
            mask <<= 1

    return _pof2_rounds(rank, size, shape, body)


# ----------------------------------------------------------------------
# Allgather / Allgatherv variants


def allgather_ring(rank, size, root, shape, select):
    """Ring allgather: own block into place, then p-1 forwarding rounds."""
    blk = shape.base
    yield [copy((IN, 0, blk), (OUT, rank * blk, blk))]
    yield from _ring(rank, size, [(OUT, b * blk, blk) for b in range(size)])


def allgather_gather_bcast(rank, size, root, shape, select):
    """Gather to rank 0, then broadcast the assembled array."""
    nbytes = shape.base * shape.itemsize * size
    yield from _sub("gather", nbytes, rank, size, 0, shape, select)
    whole = replace(shape, base=shape.base * size)
    yield from _sub("bcast", nbytes, rank, size, 0, whole, select)


def allgatherv_ring(rank, size, root, shape, select):
    """Ring allgatherv: pass blocks around, no rank-0 bottleneck.

    p-1 steps; every byte crosses each link once, versus the default
    gatherv-to-0 + bcast which funnels the whole result through one
    rank twice.
    """
    blocks = [(OUT, d, c) for c, d in zip(shape.counts, shape.displs)]
    yield [copy((IN, 0, shape.counts[rank]), blocks[rank])]
    yield from _ring(rank, size, blocks)


def allgatherv_gather_bcast(rank, size, root, shape, select):
    """Gatherv to rank 0 + Bcast of the assembled span (*shape.base*)."""
    yield from gatherv_linear(rank, size, 0, shape, select)
    nbytes = shape.base * shape.itemsize
    yield from _sub("bcast", nbytes, rank, size, 0, shape, select)


# ----------------------------------------------------------------------
# Gather / Scatter variants


def gatherv_linear(rank, size, root, shape, select):
    """Linear gatherv: every rank sends straight to the root."""
    if rank != root:
        n = shape.base if shape.counts is None else shape.counts[rank]
        return [[send(root, (IN, 0, n), TAG_GATHER)]]
    return [[
        copy((IN, 0, c), (OUT, d, c)) if r == root else recv(r, (OUT, d, c), TAG_GATHER)
        for r, (c, d) in enumerate(zip(shape.counts, shape.displs))
    ]]


def scatterv_linear(rank, size, root, shape, select):
    """Linear scatterv: the root sends straight to every rank."""
    if rank != root:
        n = shape.base if shape.counts is None else shape.counts[rank]
        return [[recv(root, (OUT, 0, n), TAG_SCATTER)]]
    return [[
        copy((IN, d, c), (OUT, 0, c)) if r == root else send(r, (IN, d, c), TAG_SCATTER)
        for r, (c, d) in enumerate(zip(shape.counts, shape.displs))
    ]]


def _blocks(shape: Shape, size: int) -> Shape:
    blk = shape.base
    return replace(shape, counts=(blk,) * size, displs=tuple(r * blk for r in range(size)))


def gather_linear(rank, size, root, shape, select):
    """Linear gather: p-1 messages converging on the root."""
    return gatherv_linear(rank, size, root, _blocks(shape, size), select)


def scatter_linear(rank, size, root, shape, select):
    """Linear scatter: the root sends p-1 messages."""
    return scatterv_linear(rank, size, root, _blocks(shape, size), select)


def gather_binomial(rank, size, root, shape, select):
    """Binomial-tree gather: log2(p) rounds instead of p-1 messages
    converging on the root.

    Interior nodes accumulate their subtree's blocks in ``tmp`` and
    forward the whole span at once; a leaf ships its block as-is.  The
    root lands spans straight in ``out`` when relative and absolute
    order agree (root 0), else in ``tmp``, rotated into place at the end.
    """
    blk = shape.base
    r = (rank - root) % size
    end = _span_end(r, size)
    span = OUT if r == 0 and root == 0 else TMP
    rounds = []
    for mask, peer in reversed(_tree(r, size)):
        if peer is None:
            rounds.append([])
        elif peer > r:
            block = (span, (peer - r) * blk, (min(peer + mask, end) - peer) * blk)
            rounds.append([recv((peer + root) % size, block, TAG_GATHER)])
        else:
            mine = (IN, 0, blk) if end - r == 1 else (TMP, 0, (end - r) * blk)
            rounds.append([send((peer + root) % size, mine, TAG_GATHER)])
    if r == 0:
        _then(rounds, copy((IN, 0, blk), (OUT, root * blk, blk)))
        if root:
            _then(rounds, *(
                copy((TMP, rel * blk, blk), (OUT, (rel + root) % size * blk, blk))
                for rel in range(1, size)
            ))
    elif end - r > 1:
        rounds[0].append(copy((IN, 0, blk), (TMP, 0, blk)))
    return rounds


def scatter_binomial(rank, size, root, shape, select):
    """Binomial-tree scatter: the mirror image of :func:`gather_binomial`.

    The root ships half its blocks to the farthest subtree root, which
    recursively distributes them — log2(p) rounds versus p-1 serial
    sends.  The root peels spans off ``in`` when relative and absolute
    order agree (root 0), else it first rotates the blocks into ``tmp``.
    """
    blk = shape.base
    r = (rank - root) % size
    end = _span_end(r, size)
    span = IN if r == 0 and root == 0 else TMP
    rounds = []
    if root:
        rounds.append([
            copy((IN, (rel + root) % size * blk, blk), (TMP, rel * blk, blk))
            for rel in range(1, size)
        ] if r == 0 else [])
    for mask, peer in _tree(r, size):
        if peer is None:
            rounds.append([])
        elif peer > r:
            block = (span, (peer - r) * blk, (min(peer + mask, end) - peer) * blk)
            rounds.append([send((peer + root) % size, block, TAG_SCATTER)])
        elif end - r == 1:
            # Leaf: the span is exactly my block.
            rounds.append([recv((peer + root) % size, (OUT, 0, blk), TAG_SCATTER)])
        else:
            rounds.append([
                recv((peer + root) % size, (TMP, 0, (end - r) * blk), TAG_SCATTER),
                copy((TMP, 0, blk), (OUT, 0, blk)),
            ])
    if r == 0:
        _then(rounds, copy((IN, root * blk, blk), (OUT, 0, blk)))
    return rounds


# ----------------------------------------------------------------------
# Reduce_scatter variants


def reduce_scatter_reduce_scatterv(rank, size, root, shape, select):
    """Reduce to rank 0 into a staging buffer, then Scatterv its blocks."""
    nbytes = shape.base * shape.itemsize
    yield from _renamed(_sub("reduce", nbytes, rank, size, 0, shape, select), {OUT: TMP})
    yield from _renamed(scatterv_linear(rank, size, 0, shape, select), {IN: TMP})


def reduce_scatter_pairwise(rank, size, root, shape, select):
    """Pairwise-exchange reduce-scatter.

    p-1 rounds; in round *i* each rank sends block ``rank+i`` straight
    from its send buffer to its owner and folds the matching
    contribution it receives, so only its own block ever crosses the
    wire toward it — no rank-0 funnel and no full-vector temporary.
    Needs a commutative, splittable op and a primitive contiguous
    datatype.
    """
    counts, displs = shape.counts, shape.displs
    mine = (OUT, 0, counts[rank])
    for i in range(1, size):
        dst, src = (rank + i) % size, (rank - i) % size
        steps = [copy((IN, displs[rank], counts[rank]), mine)] if i == 1 else []
        yield steps + [
            recv_reduce(src, mine, TAG_REDUCE),
            send(dst, (IN, displs[dst], counts[dst]), TAG_REDUCE),
        ]


#: Registry: collective name -> {algorithm name -> schedule}.
REGISTRY: dict[str, dict[str, Callable[..., Schedule]]] = {
    "bcast": {
        "binomial": bcast_binomial,
        "linear": bcast_linear,
        "scatter_allgather": bcast_scatter_allgather,
        "binomial_pipelined": bcast_binomial_pipelined,
    },
    "reduce": {
        "binomial": reduce_binomial,
        "linear": reduce_linear,
        "binomial_pipelined": reduce_binomial_pipelined,
    },
    "allreduce": {
        "reduce_bcast": allreduce_reduce_bcast,
        "recursive_doubling": allreduce_recursive_doubling,
        "rabenseifner": allreduce_rabenseifner,
    },
    "allgather": {
        "ring": allgather_ring,
        "gather_bcast": allgather_gather_bcast,
    },
    "allgatherv": {
        "gather_bcast": allgatherv_gather_bcast,
        "ring": allgatherv_ring,
    },
    "gather": {
        "linear": gather_linear,
        "binomial": gather_binomial,
    },
    "scatter": {
        "linear": scatter_linear,
        "binomial": scatter_binomial,
    },
    "reduce_scatter": {
        "reduce_scatterv": reduce_scatter_reduce_scatterv,
        "pairwise": reduce_scatter_pairwise,
    },
}

#: The built-in default algorithm name per collective.
DEFAULTS: dict[str, str] = {
    "bcast": "binomial",
    "reduce": "binomial",
    "allreduce": "reduce_bcast",
    "allgather": "ring",
    "allgatherv": "gather_bcast",
    "gather": "linear",
    "scatter": "linear",
    "reduce_scatter": "reduce_scatterv",
}

#: Preconditions: (collective, algorithm) -> the fallback's name when
#: *shape* rules the algorithm out at *size* ranks, else None.
_FALLBACKS: dict[tuple[str, str], Callable[[int, Shape], Optional[str]]] = {
    ("bcast", "scatter_allgather"):
        lambda p, s: "binomial" if not s.itemsize or s.base < p else None,
    ("bcast", "binomial_pipelined"):
        lambda p, s: "binomial" if p == 1 or not s.itemsize or s.base <= s.segment() else None,
    ("reduce", "binomial"):
        lambda p, s: None if s.commute else "linear",
    ("reduce", "binomial_pipelined"):
        lambda p, s: "binomial" if p == 1 or not s.splittable or s.base <= s.segment() else None,
    ("allreduce", "recursive_doubling"):
        lambda p, s: None if s.commute else "reduce_bcast",
    ("allreduce", "rabenseifner"):
        lambda p, s: (
            "recursive_doubling"
            if p == 1 or not s.splittable or s.base < 1 << (p.bit_length() - 1)
            else None
        ),
    ("gather", "binomial"):
        lambda p, s: "linear" if p == 1 or not s.base or not s.itemsize else None,
    ("scatter", "binomial"):
        lambda p, s: "linear" if p == 1 or not s.base or not s.itemsize else None,
    ("reduce_scatter", "pairwise"):
        lambda p, s: "reduce_scatterv" if p == 1 or not s.splittable else None,
}


def resolve(collective: str, algorithm: str, size: int, shape: Shape) -> str:
    """The algorithm that runs: *algorithm*, or the fallback its
    preconditions name (transitively).  Reads only rank-identical
    facts, so every rank resolves alike."""
    while True:
        check = _FALLBACKS.get((collective, algorithm))
        fallback = check(size, shape) if check is not None else None
        if fallback is None:
            return algorithm
        algorithm = fallback


def validate(collective: str, algorithm: str) -> None:
    if collective not in REGISTRY:
        raise MPIException(
            f"no algorithm choices for collective {collective!r}; "
            f"tunable: {sorted(REGISTRY)}"
        )
    if algorithm not in REGISTRY[collective]:
        raise MPIException(
            f"unknown {collective} algorithm {algorithm!r}; "
            f"known: {sorted(REGISTRY[collective])}"
        )


# ----------------------------------------------------------------------
# The executor


def _flat_or_none(buf, offset: int, n: int, datatype: Datatype):
    """A direct flat base-element view of *buf*, or None.

    None means the operand must be staged through pack/unpack: the
    datatype is derived with gaps or permutes its elements, the buffer
    is not a C-contiguous ndarray (``reshape(-1)`` would silently
    copy), the dtype does not match the datatype's base, or the window
    is out of bounds.  A same-width signed/unsigned alias is viewed as
    the base dtype, so folds compute in it.
    """
    if not _primitive_contiguous(datatype):
        return None
    if isinstance(datatype, _IndexPatternType) and not np.array_equal(
        datatype.pattern, np.arange(datatype.block_count)
    ):
        return None
    if not isinstance(buf, np.ndarray) or not buf.flags.c_contiguous:
        return None
    base_np = np.dtype(datatype.base_dtype)
    flat = buf.reshape(-1)
    if flat.dtype != base_np:
        if not (
            flat.dtype.kind in "iu"
            and base_np.kind in "iu"
            and flat.dtype.itemsize == base_np.itemsize
        ):
            return None
        flat = flat.view(base_np)
    if offset < 0 or offset + n > flat.size:
        return None
    return flat


def _local_copy(
    sendbuf, sendoffset, sendcount, sendtype,
    recvbuf, recvoffset, recvcount, recvtype, pool,
) -> None:
    """A local block copy: pack/unpack through a buffer, no device trip.

    Going through the pack/unpack machinery (rather than a numpy slice
    copy) keeps derived-datatype semantics identical for the local and
    remote paths.
    """
    if sendcount == 0:
        return
    staging = pool.acquire(sendtype.packed_size(sendcount) + 64)
    try:
        sendtype.pack(staging, sendbuf, sendoffset, sendcount)
        staging.commit()
        recvtype.unpack(staging, recvbuf, recvoffset, recvcount)
    finally:
        staging.free()


def execute(comm, schedule: Schedule, operands: dict, datatype: Datatype, op=None) -> None:
    """Run one rank's *schedule* live.

    *operands* maps ``in``/``out`` to ``(buf, offset, count,
    datatype)``; *datatype*'s base type types the private ``acc``/
    ``tmp`` arrays.  An operand is bound to the user's storage when
    :func:`_flat_or_none` allows it (the zero-copy sends and receives),
    to the list itself for OBJECT, and otherwise to one staging array
    packed from it — stored back at the end if the schedule wrote it.
    Whether a rank stages is a local matter: both presentations send
    and receive identical wire traffic.  Each round posts every
    receive, then every send, waits for all of them, then runs its
    folds and copies in step order.
    """
    rounds = [steps for steps in schedule if steps]
    extent: dict[str, int] = {}
    written: set[str] = set()
    fold_n = 0
    for steps in rounds:
        for st in steps:
            name, lo, n = st.block
            extent[name] = max(extent.get(name, 0), lo + n)
            if st.src is not None:
                extent[st.src[0]] = max(extent.get(st.src[0], 0), st.src[1] + n)
            if st.kind != SEND:
                written.add(name)
            if st.kind == RECV_REDUCE:
                fold_n = max(fold_n, n)
    views: dict[str, tuple[Any, int, Datatype]] = {}
    staged = []
    for name, size in extent.items():
        if name not in operands:
            basic = _base_datatype(datatype)
            views[name] = (np.empty(size, dtype=basic.base_dtype), 0, basic)
            continue
        buf, offset, count, dt = operands[name]
        if dt.base_dtype is None:
            views[name] = (buf, offset, dt)
            continue
        basic = _base_datatype(dt)
        n = count * dt.block_count
        flat = _flat_or_none(buf, offset, n, dt)
        if flat is not None:
            views[name] = (flat, offset, basic)
            continue
        stage = np.empty(n, dtype=basic.base_dtype)
        _local_copy(buf, offset, count, dt, stage, 0, n, basic, comm._pool)
        views[name] = (stage, 0, basic)
        if name in written:
            staged.append((stage, n, basic, buf, offset, count, dt))

    def at(block):
        buf, offset, dt = views[block[0]]
        return buf, offset + block[1], block[2], dt

    def array(block):
        buf, offset, _dt = views[block[0]]
        return buf[offset + block[1] : offset + block[1] + block[2]]

    def fold(dst, part):
        out = op.reduce_into(dst, part)
        if out is not dst:
            dst[...] = out

    spare: list[np.ndarray] = []
    for steps in rounds:
        reqs = [comm._coll_irecv(*at(st.block), st.peer, st.tag) for st in steps if st.kind == RECV]
        folds = [st for st in steps if st.kind == RECV_REDUCE]
        inflight = [_post_fold(comm, st, at, spare, fold_n) for st in folds[:FOLD_WINDOW]]
        reqs += [comm._coll_isend(*at(st.block), st.peer, st.tag) for st in steps if st.kind == SEND]
        for req in reqs:
            req.wait()
        nfold = 0
        for st in steps:
            if st.kind == RECV_REDUCE:
                req, scratch = inflight[nfold]
                req.wait()
                fold(array(st.block), scratch)
                spare.append(scratch.base)
                if nfold + FOLD_WINDOW < len(folds):
                    inflight.append(_post_fold(comm, folds[nfold + FOLD_WINDOW], at, spare, fold_n))
                nfold += 1
            elif st.kind == COPY:
                if isinstance(views[st.src[0]][0], np.ndarray) and isinstance(views[st.block[0]][0], np.ndarray):
                    if st.fold:
                        fold(array(st.block), array(st.src))
                    else:
                        array(st.block)[...] = array(st.src)
                else:
                    sbuf, soff, n, sdt = at(st.src[:2] + (st.block[2],))
                    dbuf, doff, _n, ddt = at(st.block)
                    _local_copy(sbuf, soff, n, sdt, dbuf, doff, n, ddt, comm._pool)
    for stage, n, basic, buf, offset, count, dt in staged:
        _local_copy(stage, 0, n, basic, buf, offset, count, dt, comm._pool)


def _post_fold(comm, st: Step, at, spare: list, fold_n: int):
    """Post one ``recv_reduce`` receive into a scratch array (recycled
    from *spare* when one is free)."""
    buf, _offset, n, dt = at(st.block)
    whole = spare.pop() if spare else np.empty(fold_n, dtype=buf.dtype)
    scratch = whole[:n]
    return comm._coll_irecv(scratch, 0, n, dt, st.peer, st.tag), scratch
