"""The helper scripts under scripts/: their outputs and records."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name):
    """scripts/<name>.py as a module."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_chain_series_expansion(capsys):
    # the symbolic path feeds sympy expressions through flow_coefficients
    pytest.importorskip("sympy")
    assert load("exact_values").main(["chain-series"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("P0* = 1/2 - 3*a/2 + 12*a**3 - 21*a**4")
    assert out[1] == "alpha=0.001: fixed point (eigenvector) 0.498500011973"
    assert out[3] == "  (1-3a+24a^2)/2 = 0.498512000000  |diff| 1.199e-05"  # the 7a gap


def git(repo, *args):
    subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
        cwd=repo, check=True, capture_output=True,
    )


def test_timings_record_whether_src_matches_head(tmp_path):
    src_matches_head = load("reproduce_figures").src_matches_head
    assert src_matches_head(tmp_path) is None  # not a repository
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "mod.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("a\n")
    git(tmp_path, "init", "-q")
    assert src_matches_head(tmp_path) is None  # no commit yet
    git(tmp_path, "add", "-A")
    git(tmp_path, "commit", "-q", "-m", "first")
    assert src_matches_head(tmp_path) is True
    (tmp_path / "notes.txt").write_text("b\n")  # outside src/
    assert src_matches_head(tmp_path) is True
    (tmp_path / "src" / "mod.py").write_text("x = 2\n")
    assert src_matches_head(tmp_path) is False
    git(tmp_path, "add", "-A")  # staged changes differ from HEAD too
    assert src_matches_head(tmp_path) is False
