"""The public surface of the ``abpipe`` package."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_importing_the_cli_loads_no_statistics_module():
    # `statistics` would pull `fractions` and `decimal` into every abpipe process
    code = (
        "import sys, abpipe.cli;"
        " print(sorted({'statistics', 'fractions', 'decimal'} & set(sys.modules)))"
    )
    done = run_python(["-c", code], ROOT)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]"]


def test_every_source_file_parses_as_python_3_10():
    # pyproject allows Python 3.10; this catches newer syntax on a newer interpreter
    paths = [
        path
        for pattern in ("src/abpipe/*.py", "tests/*.py", "perfbench/*.py")
        for path in sorted(ROOT.glob(pattern))
    ]
    assert len(paths) > 30
    failures = []
    for path in paths:
        try:
            ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
        except SyntaxError as exc:
            failures.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert not failures, failures


def test_the_console_script_names_a_callable():
    # read with a regex: Python 3.10 has no tomllib
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    table = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    assert table is not None, "pyproject.toml has no [project.scripts] table"
    entry = re.search(r'^abpipe\s*=\s*"([\w.]+):(\w+)"\s*$', table.group(1), re.M)
    assert entry is not None, "[project.scripts] declares no abpipe command"
    module, attr = entry.groups()
    assert (module, attr) == ("abpipe.cli", "main")
    assert callable(getattr(importlib.import_module(module), attr))


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


# (module, function, loop depth): the loops at that depth run once per SGD
# step of a split model fit and once per term of each Welch look's tail
FLOAT_ONLY_LOOPS = [("classifier.py", "train", 2), ("stats.py", "_betacf", 1)]


def _loops_at_depth(node, depth):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.For) and depth == 1:
            yield child
        else:
            yield from _loops_at_depth(child, depth - isinstance(child, ast.For))


@pytest.mark.parametrize("module, function, depth", FLOAT_ONLY_LOOPS)
def test_hot_loops_hold_no_int_literal(module, function, depth):
    """CPython specializes a comparison or an arithmetic op only when both
    operands are floats; one int literal in these loops (``margin >= 0``,
    ``2 * m``) sends it down the generic path every step."""
    tree = ast.parse((ROOT / "src" / "abpipe" / module).read_text(encoding="utf-8"))
    (func,) = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == function
    ]
    loops = list(_loops_at_depth(func, depth))
    assert loops, f"{function} has no loop at depth {depth}"
    ints = [
        f"{module}:{node.lineno}: {node.value!r}"
        for loop in loops
        for stmt in loop.body
        for node in ast.walk(stmt)
        if isinstance(node, ast.Constant) and type(node.value) is int
    ]
    assert not ints, ints
