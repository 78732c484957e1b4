"""Correctness checks in the package raise AssertionError explicitly, so
they still run under python -O, which strips assert statements."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import permres.perm

MODULES = sorted(Path(permres.perm.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} has assert statements on lines {lines}"


def test_closed_form_witness_is_checked_under_optimize():
    script = ("import permres.search as search\n"
              "from permres.stabchain import PermGroup\n"
              "search.verify_distinguishing = lambda G, coloring: False\n"
              "try:\n"
              "    search.distinguishing_number(PermGroup.symmetric(4))\n"
              "except AssertionError:\n"
              "    raise SystemExit(0)\n"
              "raise SystemExit(1)\n")
    src = str(Path(permres.perm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True)
    assert done.returncode == 0, done.stderr.decode()
