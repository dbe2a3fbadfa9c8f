"""repro — a Python reproduction of MPJ Express (CLUSTER 2006).

"MPJ Express: Towards Thread Safe Java HPC" describes a thread-safe
MPI-like messaging library for Java with a pluggable device layer.
This package rebuilds the whole system in Python:

* :mod:`repro.buffer`  — the mpjbuf buffering API;
* :mod:`repro.xdev`    — the device layer: ``niodev`` (TCP +
  selectors), ``smdev`` (shared memory), ``procdev`` (shared-memory
  rings), ``mxdev`` (the Myrinet eXpress shim over smdev's engine),
  ``ibisdev`` (thread-per-message baseline);
* :mod:`repro.mpjdev`  — ranks, requests, the peek()-based Waitany;
* :mod:`repro.mpi`     — the MPI API: point-to-point (4 send modes),
  collectives, groups, derived datatypes, topologies, intercomms,
  MPI_THREAD_MULTIPLE;
* :mod:`repro.runtime` — the bootstrap runtime: thread launcher plus
  the daemon/mpjrun process runtime with local/remote code loading;
* :mod:`repro.netsim`  — the simulated evaluation environment
  regenerating the paper's figures;
* :mod:`repro.bench`   — figure/table generators.

Quickstart::

    from repro.runtime import run_spmd

    def main(env):
        comm = env.COMM_WORLD
        print(f"hello from rank {comm.rank()} of {comm.size()}")

    run_spmd(main, nprocs=4)
"""

from repro.runtime.launcher import run_spmd

__version__ = "1.0.0"

__all__ = ["run_spmd", "__version__"]
