"""The README's library example runs, and every package name it or __all__ names exists."""

import ast
import importlib
import re
from pathlib import Path

import ris_ntn_sim

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def python_blocks() -> list[tuple[str, str]]:
    """(heading of its section, code) of every ```python block of the README."""
    blocks = []
    for match in re.finditer(r"^```python\n(.*?)^```", README, re.S | re.M):
        headings = re.findall(r"^## (.*)$", README[:match.start()], re.M)
        blocks.append((headings[-1] if headings else "", match.group(1)))
    return blocks


def test_library_example_runs(capsys):
    [code] = [code for heading, code in python_blocks() if heading == "Library"]
    exec(compile(code, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 3  # one line per architecture


def test_readme_imports_and_all_resolve():
    imports = [node for _, code in python_blocks() for node in ast.walk(ast.parse(code))
               if isinstance(node, ast.ImportFrom) and node.module.startswith("ris_ntn_sim")]
    assert imports  # the Library block imports from the package
    missing = [f"{node.module}.{alias.name}" for node in imports for alias in node.names
               if not hasattr(importlib.import_module(node.module), alias.name)]
    missing += [name for name in ris_ntn_sim.__all__ if not hasattr(ris_ntn_sim, name)]
    assert missing == []
