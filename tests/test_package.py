"""The public surface of the ``abpipe`` package."""

import os
import subprocess
import sys
from pathlib import Path

import abpipe

ROOT = Path(__file__).resolve().parent.parent


def run_python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=300
    )


def test_every_public_name_resolves():
    dangling = [name for name in abpipe.__all__ if not hasattr(abpipe, name)]
    assert not dangling, f"abpipe.__all__ names missing attributes: {dangling}"


def test_python_dash_m_runs_the_cli():
    done = run_python(["-m", "abpipe", "validate", "scenarios/sequential"], ROOT)
    assert done.returncode == 0, done.stderr
    assert "no violations" in done.stdout


def test_failing_property_test_is_reported_under_the_repo_config(tmp_path):
    """A falsifying example makes hypothesis import libcst, whose
    DeprecationWarning must not become a pytest INTERNALERROR."""
    (tmp_path / "test_falsified.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_falsified(x):\n"
        "    assert x < 0\n"
    )
    done = run_python(
        [
            "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
            "test_falsified.py",
        ],
        tmp_path,
    )
    output = done.stdout + done.stderr
    assert done.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "1 failed" in output
