"""CLI behaviour: exit codes, JSON report, --diff."""

import json
import shutil
import subprocess
from pathlib import Path

import pytest

from repro.analysis.cli import changed_files, main, resolve_ref

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def bad_tree(tmp_path, monkeypatch):
    """A scratch dir holding one violating fixture, with cwd moved there."""
    shutil.copy(FIXTURES / "poller_bad.py", tmp_path / "poller_bad.py")
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, monkeypatch, capsys):
        shutil.copy(FIXTURES / "poller_clean.py", tmp_path / "poller_clean.py")
        monkeypatch.chdir(tmp_path)
        assert main([str(tmp_path)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, bad_tree, capsys):
        assert main([str(bad_tree)]) == 1
        out = capsys.readouterr().out
        assert "no-block-in-poller" in out

    def test_bad_diff_ref_exits_two(self, bad_tree, capsys):
        assert main(["--diff", "no-such-ref-xyzzy", str(bad_tree)]) == 2
        assert "does not resolve" in capsys.readouterr().err


class TestJsonReport:
    def test_json_shape_and_out_file(self, bad_tree, capsys):
        out_file = bad_tree / "report.json"
        rc = main(["--json", "--out", str(out_file), str(bad_tree)])
        assert rc == 1
        report = json.loads(capsys.readouterr().out)
        assert report == json.loads(out_file.read_text(encoding="utf-8"))
        assert set(report) == {"version", "paths", "diff_ref", "findings"}
        assert report["version"] == 1
        assert report["findings"], "violating fixture must yield findings"
        f = report["findings"][0]
        assert set(f) >= {"checker", "path", "line", "symbol", "message", "severity"}


class TestDiff:
    def test_resolve_ref_head(self):
        sha = resolve_ref("HEAD", cwd=REPO_ROOT)
        assert sha is not None and len(sha) == 40

    def test_resolve_ref_bogus(self):
        assert resolve_ref("definitely-not-a-ref", cwd=REPO_ROOT) is None

    def test_changed_files_lists_worktree_edits(self, tmp_path):
        subprocess.run(["git", "init", "-q", str(tmp_path)], check=True)
        subprocess.run(
            ["git", "-C", str(tmp_path), "-c", "user.email=t@t", "-c", "user.name=t",
             "commit", "--allow-empty", "-q", "-m", "seed"],
            check=True,
        )
        (tmp_path / "edited.py").write_text("x = 1\n", encoding="utf-8")
        subprocess.run(["git", "-C", str(tmp_path), "add", "edited.py"], check=True)
        changed = changed_files("HEAD", cwd=tmp_path)
        assert changed == {"edited.py"}

    def test_diff_filters_findings_to_changed_files(self, bad_tree, capsys):
        subprocess.run(["git", "init", "-q", str(bad_tree)], check=True)
        subprocess.run(
            ["git", "-C", str(bad_tree), "-c", "user.email=t@t", "-c", "user.name=t",
             "add", "-A"],
            check=True,
        )
        subprocess.run(
            ["git", "-C", str(bad_tree), "-c", "user.email=t@t", "-c", "user.name=t",
             "commit", "-q", "-m", "seed"],
            check=True,
        )
        # Nothing changed vs HEAD: the finding is filtered out.
        assert main(["--diff", "HEAD", str(bad_tree)]) == 0
        capsys.readouterr()
        # Touch the violating file: the finding comes back.
        p = bad_tree / "poller_bad.py"
        p.write_text(p.read_text(encoding="utf-8") + "\n# touched\n", encoding="utf-8")
        assert main(["--diff", "HEAD", str(bad_tree)]) == 1


class TestSelfCheck:
    def test_live_tree_is_clean_modulo_baseline(self, monkeypatch, capsys):
        """The committed tree must satisfy its own invariants."""
        monkeypatch.chdir(REPO_ROOT)
        rc = main([str(REPO_ROOT / "src" / "repro")])
        out = capsys.readouterr().out
        assert rc == 0, f"reprolint found live violations:\n{out}"
