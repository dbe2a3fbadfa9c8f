"""The lock-order checker classifies locks where ``locknames`` makes them."""

import ast
from pathlib import Path

from repro.analysis.core import Project
from repro.analysis.locks import factory_class, lock_classes
from repro.xdev import locknames

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def test_src_classes_are_read_from_the_factory_calls():
    project = Project.load([SRC])
    found = {
        (project.module_name(sf), attr): cls
        for sf in project.files
        for attr, cls in lock_classes(sf.tree).items()
    }
    assert found == {
        ("repro.xdev.matching", "lock"): locknames.RECV_SHARD,
        ("repro.xdev.matching", "_wc_lock"): locknames.RECV_WILDCARD,
        ("repro.xdev.matching", "ticker"): locknames.TICKER,
        ("repro.xdev.matching", "_ticker"): locknames.TICKER,
        ("repro.xdev.protocol", "_send_lock"): locknames.SEND_SETS,
        ("repro.xdev.protocol", "_rndz_lock"): locknames.RENDEZVOUS_IDS,
        ("repro.xdev.completion", "_locks"): locknames.COMPLETED,
        ("repro.xdev.niodev", "_cache_lock"): locknames.CONN_CACHE,
        ("repro.xdev.niodev", "write_lock"): locknames.CHANNEL,
        ("repro.xdev.procdev", "_out_locks"): locknames.PROC_OUT,
        ("repro.obs.metrics", "lock"): locknames.BOOKKEEPING,
    }


def test_factory_call_spellings():
    def cls(src):
        return factory_class(ast.parse(src, mode="eval").body)

    assert cls("new_lock(SEND_SETS)") == locknames.SEND_SETS
    assert cls("locknames.new_condition(locknames.TICKER, 2)") == locknames.TICKER
    assert cls("[new_lock(PROC_OUT, d) for d in range(n)]") == locknames.PROC_OUT
    assert cls("new_lock(NOT_A_CLASS)") is None
    assert cls("threading.Lock()") is None
