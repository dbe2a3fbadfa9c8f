"""Golden-fixture tests: every checker flags its seeded violation and
stays silent on the matching clean fixture."""

from pathlib import Path

import pytest

from repro.analysis.callgraph import CallGraph
from repro.analysis.cli import CHECKERS, run_checkers
from repro.analysis.core import Project

FIXTURES = Path(__file__).parent / "fixtures"


def load(*names: str) -> Project:
    return Project.load([FIXTURES / f"{n}.py" for n in names])


def run_one(checker: str, project: Project):
    cg = CallGraph(project)
    return CHECKERS[checker].check(project, cg)


def lines_of(findings) -> set[int]:
    return {f.line for f in findings}


class TestLockOrder:
    def test_flags_inverted_with_nesting(self):
        findings = run_one("lock-order", load("lockorder_bad"))
        assert findings, "rndz->send inversion must be flagged"
        symbols = {f.symbol for f in findings}
        assert "Engine.inverted" in symbols
        assert "Engine.inverted_explicit" in symbols
        assert all(
            "send-sets" in f.message and "rendezvous-ids" in f.message
            for f in findings
        )

    def test_clean_nesting_passes(self):
        assert run_one("lock-order", load("lockorder_clean")) == []

    def test_flags_cache_lock_under_channel_lock(self):
        findings = run_one("lock-order", load("lockorder_cache_bad"))
        assert findings, "conn-cache under channel must be flagged"
        symbols = {f.symbol for f in findings}
        assert "Transport.dial_under_channel" in symbols
        assert "Transport.evict_under_channel" in symbols
        assert "Transport.transitive_under_channel" in symbols, (
            "dialing via a helper under the channel lock must be caught "
            "transitively"
        )
        assert all(
            "conn-cache" in f.message and "channel" in f.message
            for f in findings
        )

    def test_pin_before_channel_lock_passes(self):
        assert run_one("lock-order", load("lockorder_cache_clean")) == []

    def test_flags_lock_held_across_an_inline_delivering_write(self):
        findings = run_one("lock-order", load("lockorder_inline_bad"))
        assert {f.symbol for f in findings} == {"Engine.post_rts_under_lock"}
        # Reached through the write: the re-entry is transitive.
        assert all(
            "InlineTransport.write" in f.message and "send-sets" in f.message
            for f in findings
        )

    def test_write_after_releasing_the_lock_passes(self):
        assert run_one("lock-order", load("lockorder_inline_clean")) == []


class TestNoBlockInPoller:
    def test_flags_transitive_sleep(self):
        findings = run_one("no-block-in-poller", load("poller_bad"))
        assert findings, "sleep reachable from the poller must be flagged"
        assert any("time.sleep" in f.message for f in findings)
        # The chain in the message names the poller entry.
        assert any("_poll_loop" in f.message or "_poll_loop" in f.symbol for f in findings)

    def test_nonblocking_loop_passes(self):
        assert run_one("no-block-in-poller", load("poller_clean")) == []


class TestSegmentEscape:
    def test_flags_store_and_use_after_fence(self):
        findings = run_one("segment-escape", load("segescape_bad"))
        symbols = {f.symbol for f in findings}
        assert "Consumer.escape_via_attribute" in symbols
        assert "Consumer.use_after_fence" in symbols

    def test_windowed_use_passes(self):
        assert run_one("segment-escape", load("segescape_clean")) == []

    def test_flags_landing_list_elements_kept_past_the_fence(self):
        findings = run_one("segment-escape", load("segescape_landing_bad"))
        by_symbol = {f.symbol: f.message for f in findings}
        assert "'head' used after its fence" in by_symbol[
            "Lander.header_used_after_finish"
        ]
        assert "'view'" in by_symbol["Lander.element_stashed_in_container"]

    def test_landing_list_filled_inside_the_window_passes(self):
        assert run_one("segment-escape", load("segescape_landing_clean")) == []


class TestPoolBalance:
    def test_flags_unprotected_and_dropped_acquires(self):
        findings = run_one("pool-balance", load("poolbalance_bad"))
        symbols = {f.symbol for f in findings}
        assert "Stager.unprotected" in symbols
        assert "Stager.never_used" in symbols

    def test_balanced_paths_pass(self):
        assert run_one("pool-balance", load("poolbalance_clean")) == []


class TestPublishAfterWrite:
    def test_flags_early_publish(self):
        findings = run_one("publish-after-write", load("ring_publish_bad"))
        symbols = {f.symbol for f in findings}
        assert "Ring.push_publishes_early" in symbols
        assert "Ring.push_packs_late" in symbols
        # The causal header fields (clock/flow id) are store-before-
        # publish state like any other header byte.
        assert "Ring.push_causal_header_late" in symbols

    def test_store_before_publish_passes(self):
        assert run_one("publish-after-write", load("ring_publish_clean")) == []

    def test_non_ring_file_is_exempt(self):
        # Same shape, but the filename carries no "ring": out of scope.
        findings = run_one("publish-after-write", load("poolbalance_bad"))
        assert findings == []


class TestSuppressions:
    def test_justified_allow_waives_unjustified_does_not(self):
        project = load("suppression_mixed")
        findings = run_checkers(project, checkers=["no-block-in-poller"])
        by_checker = {}
        for f in findings:
            by_checker.setdefault(f.checker, []).append(f)
        assert "bad-suppression" in by_checker, "bare directive must be reported"
        blocked = by_checker.get("no-block-in-poller", [])
        assert all("_waived" not in f.message for f in blocked), (
            "justified def-level allow must waive the waived helper"
        )
        assert any("_unjustified" in f.message for f in blocked), (
            "an unjustified directive must not suppress the finding"
        )


@pytest.mark.parametrize("checker", sorted(CHECKERS))
def test_every_checker_has_a_violating_and_clean_fixture(checker):
    pairs = {
        "lock-order": ("lockorder_bad", "lockorder_clean"),
        "no-block-in-poller": ("poller_bad", "poller_clean"),
        "segment-escape": ("segescape_bad", "segescape_clean"),
        "pool-balance": ("poolbalance_bad", "poolbalance_clean"),
        "publish-after-write": ("ring_publish_bad", "ring_publish_clean"),
    }
    bad, clean = pairs[checker]
    assert run_one(checker, load(bad)), f"{checker}: seeded violation undetected"
    assert run_one(checker, load(clean)) == [], f"{checker}: clean fixture flagged"
