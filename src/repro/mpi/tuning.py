"""Benchmark-driven collective algorithm selection.

Every tunable collective call consults a :class:`DecisionTable` keyed
on (collective, message bytes, communicator size) — the same shape as
MPICH's ``coll_tuning`` tables or Open MPI's ``coll_tuned`` decision
functions.  Three layers, first hit wins:

1. A per-communicator manual override
   (:meth:`~repro.mpi.intracomm.Intracomm.set_collective_algorithm`).
2. The table named by the ``REPRO_COLL_TUNING`` environment variable —
   a JSON file produced by ``python -m repro.bench tune-coll`` (or by
   hand; the format is below).
3. :data:`BUILTIN`, thresholds picked from smdev benchmarks on this
   codebase (see BENCH_collectives.json and docs/performance.md).

Table JSON format (``repro-coll-tuning-v1``)::

    {
      "format": "repro-coll-tuning-v1",
      "tables": {
        "allreduce": [
          {"algorithm": "recursive_doubling", "max_bytes": 131072},
          {"algorithm": "rabenseifner"}
        ],
        ...
      }
    }

Each collective maps to an ordered rule list; a rule matches when the
message is at most ``max_bytes`` AND the communicator at most
``max_procs`` (either bound may be omitted = unbounded); the first
match names the algorithm.  No match falls through to the next layer.
Selection inputs are identical on every rank, so every rank picks the
same algorithm — the property that keeps mixed-algorithm deadlocks
impossible by construction.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.mpi.exceptions import MPIException

#: Environment variable naming a tuned decision-table JSON file.
ENV = "REPRO_COLL_TUNING"

#: Format tag written into (and required of) table files.
FORMAT = "repro-coll-tuning-v1"


@dataclass(frozen=True)
class Rule:
    """One decision-table row: *algorithm* applies while the message is
    at most *max_bytes* and the communicator at most *max_procs*
    (None = unbounded)."""

    algorithm: str
    max_bytes: Optional[int] = None
    max_procs: Optional[int] = None

    def matches(self, nbytes: int, nprocs: int) -> bool:
        if self.max_bytes is not None and nbytes > self.max_bytes:
            return False
        if self.max_procs is not None and nprocs > self.max_procs:
            return False
        return True

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"algorithm": self.algorithm}
        if self.max_bytes is not None:
            out["max_bytes"] = self.max_bytes
        if self.max_procs is not None:
            out["max_procs"] = self.max_procs
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Rule":
        try:
            algorithm = data["algorithm"]
        except (KeyError, TypeError):
            raise MPIException(f"tuning rule {data!r} has no 'algorithm'")
        max_bytes = data.get("max_bytes")
        max_procs = data.get("max_procs")
        for bound in (max_bytes, max_procs):
            if bound is not None and (not isinstance(bound, int) or bound < 0):
                raise MPIException(
                    f"tuning rule bound {bound!r} must be a non-negative int"
                )
        return cls(algorithm=algorithm, max_bytes=max_bytes, max_procs=max_procs)


class DecisionTable:
    """Ordered per-collective rule lists; first matching rule wins."""

    def __init__(self, tables: Optional[dict[str, Sequence[Rule]]] = None) -> None:
        self.tables: dict[str, list[Rule]] = {
            coll: list(rules) for coll, rules in (tables or {}).items()
        }

    def choose(self, collective: str, nbytes: int, nprocs: int) -> Optional[str]:
        """The first matching algorithm name, or None (no opinion)."""
        for rule in self.tables.get(collective, ()):
            if rule.matches(nbytes, nprocs):
                return rule.algorithm
        return None

    # -- (de)serialization ----------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "format": FORMAT,
            "tables": {
                coll: [rule.to_dict() for rule in rules]
                for coll, rules in sorted(self.tables.items())
            },
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "DecisionTable":
        from repro.mpi import algorithms

        if data.get("format") != FORMAT:
            raise MPIException(
                f"tuning table format {data.get('format')!r} is not {FORMAT!r}"
            )
        tables: dict[str, list[Rule]] = {}
        for coll, raw_rules in data.get("tables", {}).items():
            rules = [Rule.from_dict(r) for r in raw_rules]
            for rule in rules:
                algorithms.validate(coll, rule.algorithm)
            tables[coll] = rules
        return cls(tables)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "DecisionTable":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


#: Built-in decision table.  Thresholds come from interleaved smdev
#: 8-rank sweeps (``python -m repro.bench tune-coll`` — see
#: BENCH_collectives.json): on shared memory, payload handoff is by
#: reference, so wire-bandwidth terms vanish and message count plus
#: root serialization dominate.  That inverts the textbook large-
#: message picture: the bandwidth-optimal algorithms (Rabenseifner,
#: recursive doubling, ring) trade one big transfer for many partial
#: ones, which is exactly the wrong trade when transfers are
#: reference handoffs — so flat linear trees and the composed
#: reduce+bcast (whose sub-collectives tune themselves through this
#: same table) win at every measured size.  Re-tune for
#: network fabrics and load via ``REPRO_COLL_TUNING`` — there the
#: crossovers flip back toward the bandwidth-optimal algorithms
#: (repro.netsim.collectives prices each algorithm's own schedule and
#: shows where).  An empty
#: rule list means the built-in default (algorithms.DEFAULTS) always
#: wins.
BUILTIN = DecisionTable(
    {
        "bcast": [Rule("linear")],
        "reduce": [Rule("linear")],
        "allreduce": [],  # default reduce_bcast + self-tuned subs wins
        "allgather": [Rule("gather_bcast")],
        "allgatherv": [],  # default gather_bcast wins at every size
        "gather": [],  # default linear wins at every size
        "scatter": [],  # default linear wins at every size
        "reduce_scatter": [],  # default reduce_scatterv wins at every size
    }
)

# Cache for the env-named table: (env value, table-or-None).  The env
# value is re-read on every select() so tests (and long-running tools)
# can point REPRO_COLL_TUNING somewhere else mid-process.
_loaded: tuple[Optional[str], Optional[DecisionTable]] = (None, None)


def _env_table() -> Optional[DecisionTable]:
    global _loaded
    path = os.environ.get(ENV) or None
    if path == _loaded[0]:
        return _loaded[1]
    table: Optional[DecisionTable] = None
    if path:
        try:
            table = DecisionTable.load(path)
        except (OSError, ValueError, MPIException) as exc:
            import warnings

            warnings.warn(
                f"ignoring {ENV}={path!r}: {exc}", RuntimeWarning, stacklevel=3
            )
    _loaded = (path, table)
    return table


def select(collective: str, nbytes: int, nprocs: int) -> Optional[str]:
    """Pick an algorithm for one collective call, or None (use default).

    Consults the ``REPRO_COLL_TUNING`` table first (when set and
    loadable), then :data:`BUILTIN`.
    """
    table = _env_table()
    if table is not None:
        choice = table.choose(collective, nbytes, nprocs)
        if choice is not None:
            return choice
    return BUILTIN.choose(collective, nbytes, nprocs)
