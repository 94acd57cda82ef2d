"""Every script in demos/ runs to completion against the current package,
and every public name of the package has a caller outside the tests."""

import ast
import re
import runpy
from pathlib import Path

import pytest

import momentangle

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(capsys, path):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def used_package_names(path: Path) -> set[str]:
    """Names a script imports from the package and then reads."""
    tree = ast.parse(path.read_text())
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("momentangle"))
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return imported & read


def readme_entry_points() -> set[str]:
    """The names that open a backtick span in README's "main entry points" list."""
    text = (ROOT / "README.md").read_text()
    section = text.split("The main entry points:", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"`(\w+)", section))


def test_every_public_name_has_a_caller_outside_the_tests():
    callers = readme_entry_points() | used_package_names(ROOT / "src" / "momentangle" / "cli.py")
    for path in DEMOS:
        callers |= used_package_names(path)
    assert sorted(set(momentangle.__all__) - callers) == []
    assert len(momentangle.__all__) == 19
