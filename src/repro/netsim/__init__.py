"""netsim — the simulated test environment for the paper's evaluation.

The paper measured seven messaging systems on an 8-node Xeon cluster
over three fabrics (Fast Ethernet, Gigabit Ethernet, 2 Gbit Myrinet).
None of those stacks (MPICH 1.2.x, LAM/MPI, mpijava-over-MPI,
MPJ/Ibis, MPICH-MX) nor the fabrics exist here, so — per the
substitution rule — this package rebuilds the *experiment* as a
discrete-event simulation:

* :mod:`repro.netsim.engine` — a minimal event-driven simulator;
* :mod:`repro.netsim.fabrics` — link models (bandwidth, wire latency,
  the NIC driver's 64 µs polling interval the paper calls out);
* :mod:`repro.netsim.libraries` — per-library software cost models
  (per-message overheads, copy stages with cache effects, protocol
  switch points), calibrated against the figures' published numbers;
* :mod:`repro.netsim.pingpong` — the ping-pong benchmark, in both the
  naive form and the paper's *modified* form with random delays that
  defeat NIC-polling quantization (Section V).

What transfers from the real world to the simulation is the paper's
*explanation* of its own numbers: who copies how many times, who pays
JNI, who switches protocol at 128 KB, whose copies fall out of cache.
The simulator turns those explanations into curves; EXPERIMENTS.md
records how closely the shapes match.
"""

from repro.netsim.engine import Event, Simulator
from repro.netsim.fabrics import (
    FABRICS,
    FAST_ETHERNET,
    Fabric,
    GIGABIT_ETHERNET,
    MYRINET_2G,
)
from repro.netsim.libraries import (
    CopyStage,
    LibraryModel,
    fast_ethernet_libraries,
    gigabit_ethernet_libraries,
    libraries_for,
    myrinet_libraries,
)
from repro.netsim.pingpong import (
    MESSAGE_SIZES,
    PingPong,
    bandwidth_mbps,
    sweep,
)
from repro.netsim.collectives import compare as compare_collectives

__all__ = [
    "CopyStage",
    "compare_collectives",
    "Event",
    "FABRICS",
    "FAST_ETHERNET",
    "Fabric",
    "GIGABIT_ETHERNET",
    "LibraryModel",
    "MESSAGE_SIZES",
    "MYRINET_2G",
    "PingPong",
    "Simulator",
    "bandwidth_mbps",
    "fast_ethernet_libraries",
    "gigabit_ethernet_libraries",
    "libraries_for",
    "myrinet_libraries",
    "sweep",
]
