"""Collective completion times on the simulated cluster.

The paper's testbed — StarBug, 8 dual-Xeon nodes — ran point-to-point
benchmarks only; this module extends the calibrated per-library models
to *collective* completion times, so algorithm choices (see
:mod:`repro.mpi.algorithms`) can be studied at cluster scale without
the cluster.  There is no second description of the algorithms here:
:func:`cost` runs every rank's schedule — the same one the live
executor runs — and prices it round by round with the library's
point-to-point time T(m) over its fabric, Hockney-style:

* within a round, a rank's k-th send finishes at (k-1)·occ + T(m), and
  so does its k-th receive, counted separately from its sends.  occ is
  the sender's occupancy per message: overhead + packing + wire
  serialization, ``overhead_send_s + copy_time(m)/2 + m/B``;
* a round lasts as long as its slowest rank, and the total is the sum
  of the rounds.  Local copies and folds cost nothing.

The priced operand is a vector of *m* one-byte elements — for gather
and scatter *m* is the total, split into p blocks; for allgather it is
the per-rank block.  Compositions (reduce+bcast, gather+bcast, ...)
price their sub-collectives' built-in defaults.

:func:`crosscheck` grades a :class:`repro.mpi.tuning.DecisionTable`
against these costs cell by cell, flagging decision-table entries
whose predicted time is far off the model-optimal algorithm.
"""

from __future__ import annotations

from repro.mpi.algorithms import (
    DEFAULTS,
    RECV,
    RECV_REDUCE,
    REGISTRY,
    SEND,
    Shape,
    barrier_dissemination,
    resolve,
)
from repro.netsim.libraries import LibraryModel

_BARRIER = {"dissemination": barrier_dissemination}


def _shape(collective: str, p: int, m: int) -> Shape:
    if collective in ("gather", "scatter"):
        return Shape(m // p, 1)
    if collective in ("allgatherv", "reduce_scatter"):
        per, rem = divmod(m, p)
        counts = tuple(per + (r < rem) for r in range(p))
        displs = tuple(r * per + min(r, rem) for r in range(p))
        return Shape(m, 1, counts=counts, displs=displs)
    return Shape(m, 1)


def _rank_done(lib: LibraryModel, steps) -> float:
    """When one rank's part of a round is done (see the module doc)."""
    done = 0.0
    for kinds in ((SEND,), (RECV, RECV_REDUCE)):
        busy = 0.0
        for st in steps:
            if st.kind in kinds:
                m = st.block[2]  # one-byte elements
                done = max(done, busy + lib.one_way_time(m))
                busy += (
                    lib.overhead_send_s
                    + lib.copy_time(m) / 2
                    + m / lib.fabric.effective_bandwidth_Bps
                )
    return done


def cost(lib: LibraryModel, collective: str, algorithm: str, p: int, m: int) -> float:
    """Completion time of *algorithm* for *collective* at p ranks and m
    bytes (``"barrier"``/``"dissemination"`` prices the barrier)."""
    shape = _shape(collective, p, m)
    if collective == "barrier":
        schedule = _BARRIER[algorithm]
    else:
        schedule = REGISTRY[collective][resolve(collective, algorithm, p, shape)]
    ranks = [schedule(r, p, 0, shape, lambda c, _nbytes: DEFAULTS[c]) for r in range(p)]
    return sum(
        max(_rank_done(lib, steps) for steps in rnd)
        for rnd in zip(*ranks, strict=True)
    )


def compare(
    lib: LibraryModel, collective: str, p: int, m: int
) -> dict[str, float]:
    """Completion times of every algorithm for one (p, m) point."""
    return {name: cost(lib, collective, name, p, m) for name in REGISTRY[collective]}


def model_best(lib: LibraryModel, collective: str, p: int, m: int) -> str:
    """The analytically fastest algorithm for one (p, m) point."""
    times = compare(lib, collective, p, m)
    return min(times, key=times.get)


def crosscheck(
    lib: LibraryModel,
    table,
    cells: list[tuple[str, int, int]],
    slack: float = 2.0,
) -> list[dict]:
    """Grade a decision table against the schedule costs.

    *table* is a :class:`repro.mpi.tuning.DecisionTable`; *cells* are
    ``(collective, p, m)`` points.  A cell ``agrees`` when the table's
    pick is predicted to finish within *slack* x the model-best time —
    benchmarks trump models, so disagreement is a flag to re-measure,
    not an error.
    """
    rows = []
    for collective, p, m in cells:
        times = compare(lib, collective, p, m)
        best = min(times, key=times.get)
        chosen = table.choose(collective, m, p) or DEFAULTS[collective]
        predicted = times.get(chosen)
        rows.append(
            {
                "collective": collective,
                "procs": p,
                "bytes": m,
                "chosen": chosen,
                "model_best": best,
                "chosen_time_s": predicted,
                "best_time_s": times[best],
                "agrees": (
                    predicted is not None and predicted <= slack * times[best]
                ),
            }
        )
    return rows
