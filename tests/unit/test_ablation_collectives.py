"""Ablation: collective algorithm choice on the simulated StarBug cluster.

Projects each algorithm of :mod:`repro.mpi.algorithms` onto the paper's
8-node cluster: :mod:`repro.netsim.collectives` prices each algorithm's
schedule with the calibrated MPJ Express point-to-point model, and the
checks below are the classic crossovers:

* binomial broadcast beats linear for p > 2;
* scatter+allgather broadcast beats binomial for large messages;
* recursive-doubling allreduce beats reduce+bcast (half the rounds);
* ring allgather beats gather+bcast.
"""

import pytest

from repro.mpi.algorithms import REGISTRY
from repro.netsim.collectives import compare
from repro.netsim.libraries import libraries_for

P = 8  # StarBug: 8 nodes
LIB_NAME = "MPJ Express"


@pytest.fixture(scope="module")
def lib():
    return libraries_for("FastEthernet")[LIB_NAME]


def render(collective: str, lib, sizes) -> str:
    lines = [f"{collective} on {P}-node FastEthernet cluster ({LIB_NAME} model):"]
    algos = sorted(REGISTRY[collective])
    header = f"{'size':>10}" + "".join(f"{a:>22}" for a in algos)
    lines.append(header)
    for m in sizes:
        times = compare(lib, collective, P, m)
        lines.append(
            f"{m:>10}" + "".join(f"{times[a] * 1e6:>20.1f}us" for a in algos)
        )
    return "\n".join(lines)


class TestBcastAlgorithms:
    def test_sweep(self, lib):
        sizes = [1024, 64 * 1024, 1 << 20, 16 << 20]
        text = render("bcast", lib, sizes)
        print("Ablation: broadcast algorithms at cluster scale", text, sep="\n")

    def test_binomial_beats_linear(self, lib):
        for m in (1024, 1 << 20):
            times = compare(lib, "bcast", P, m)
            assert times["binomial"] < times["linear"]

    def test_scatter_allgather_wins_large_messages(self, lib):
        small = compare(lib, "bcast", P, 1024)
        large = compare(lib, "bcast", P, 16 << 20)
        # Latency-bound regime: the segmented algorithm's extra control
        # rounds make it no better (usually worse).
        assert small["scatter_allgather"] > small["binomial"] * 0.9
        # Bandwidth-bound regime: moving m*(1+...) bytes instead of
        # m*log2(p) wins decisively.
        assert large["scatter_allgather"] < large["binomial"] * 0.6

    def test_crossover_exists(self, lib):
        """Somewhere between 1 KB and 16 MB the winner flips."""
        sizes = [1 << k for k in range(10, 25)]
        winners = [
            min(compare(lib, "bcast", P, m), key=lambda k: compare(lib, "bcast", P, m)[k])
            for m in sizes
        ]
        assert winners[0] == "binomial"
        assert winners[-1] == "scatter_allgather"


class TestAllreduceAlgorithms:
    def test_sweep(self, lib):
        text = render("allreduce", lib, [1024, 1 << 20])
        print("Ablation: allreduce algorithms at cluster scale", text, sep="\n")

    def test_recursive_doubling_halves_rounds(self, lib):
        for m in (1024, 1 << 20):
            times = compare(lib, "allreduce", P, m)
            assert times["recursive_doubling"] == pytest.approx(
                times["reduce_bcast"] / 2, rel=0.01
            )


class TestAllgatherAlgorithms:
    def test_sweep(self, lib):
        text = render("allgather", lib, [1024, 256 * 1024])
        print("Ablation: allgather algorithms at cluster scale", text, sep="\n")

    def test_ring_beats_gather_bcast(self, lib):
        for m in (1024, 256 * 1024):
            times = compare(lib, "allgather", P, m)
            assert times["ring"] < times["gather_bcast"]


class TestScaling:
    def test_binomial_scales_logarithmically(self, lib):
        def scaling():
            rows = []
            for p in (2, 4, 8, 16, 32, 64):
                t = compare(lib, "bcast", p, 64 * 1024)
                rows.append((p, t["binomial"], t["linear"]))
            return rows

        rows = scaling()
        print(
            "Broadcast scaling with node count (64 KB)",
            "\n".join(
                f"p={p:3d}  binomial {tb * 1e6:9.1f} µs   linear {tl * 1e6:9.1f} µs"
                for p, tb, tl in rows
            ),
            sep="\n",
        )
        # Doubling p adds one binomial round but ~doubles linear time.
        t2, t64 = rows[0][1], rows[-1][1]
        assert t64 < t2 * 7  # log2(64)/log2(2) = 6 rounds
        l2, l64 = rows[0][2], rows[-1][2]
        assert l64 > l2 * 20
