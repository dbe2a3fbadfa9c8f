"""Unit tests for the collective cost model (schedules priced by netsim)."""

import pytest

import math

from repro.mpi.algorithms import FIXED, REGISTRY
from repro.netsim.collectives import compare, cost
from repro.netsim.libraries import libraries_for


@pytest.fixture(scope="module")
def lib():
    return libraries_for("FastEthernet")["MPJ Express"]


class TestBasics:
    def test_single_process_is_free(self, lib):
        assert cost(lib, "bcast", "binomial", 1, 1024) == 0
        assert cost(lib, "bcast", "linear", 1, 1024) == 0
        assert cost(lib, "bcast", "scatter_allgather", 1, 1024) == 0

    def test_two_processes_equal_one_message(self, lib):
        t = lib.one_way_time(4096)
        assert cost(lib, "bcast", "binomial", 2, 4096) == pytest.approx(t)
        assert cost(lib, "bcast", "linear", 2, 4096) == pytest.approx(t)

    def test_times_grow_with_p(self, lib):
        for name in ("binomial", "linear", "scatter_allgather"):
            assert cost(lib, "bcast", name, 16, 4096) > cost(lib, "bcast", name, 4, 4096)

    def test_times_grow_with_m(self, lib):
        for name in ("binomial", "linear"):
            assert cost(lib, "bcast", name, 8, 1 << 20) > cost(lib, "bcast", name, 8, 1024)

    def test_barrier_independent_of_message_size(self, lib):
        assert cost(lib, "barrier", "dissemination", 8, 0) == 3 * lib.one_way_time(0)
        # One round per doubling: 256 -> 512 ranks adds 12.5 %, so a
        # larger step in a measured barrier belongs to the connection
        # layer, not to the algorithm.
        t0 = lib.one_way_time(0)
        assert cost(lib, "barrier", "dissemination", 256, 0) == pytest.approx(8 * t0)
        assert cost(lib, "barrier", "dissemination", 512, 0) == pytest.approx(9 * t0)

    @pytest.mark.parametrize("p", [2, 8])
    @pytest.mark.parametrize("collective", sorted(FIXED))
    def test_every_fixed_collective_is_priced(self, lib, collective, p):
        t = cost(lib, collective, FIXED[collective][0], p, 4096)
        assert math.isfinite(t) and t > 0

    def test_fixed_collective_rejects_another_algorithm(self, lib):
        with pytest.raises(KeyError):
            cost(lib, "scan", "binomial", 4, 4096)


class TestRelations:
    def test_recursive_doubling_is_half_reduce_bcast(self, lib):
        assert cost(lib, "allreduce", "recursive_doubling", 8, 4096) == pytest.approx(
            cost(lib, "allreduce", "reduce_bcast", 8, 4096) / 2
        )

    def test_ring_beats_gather_bcast(self, lib):
        assert cost(lib, "allgather", "ring", 8, 8192) < cost(
            lib, "allgather", "gather_bcast", 8, 8192
        )

    def test_compare_covers_registry(self, lib):
        for collective, algos in REGISTRY.items():
            result = compare(lib, collective, 8, 4096)
            assert set(result) == set(algos)
            assert all(v >= 0 for v in result.values())

    def test_binomial_log_rounds(self, lib):
        t_one = lib.one_way_time(100)
        assert cost(lib, "bcast", "binomial", 9, 100) == pytest.approx(4 * t_one)
        assert cost(lib, "bcast", "binomial", 8, 100) == pytest.approx(3 * t_one)
