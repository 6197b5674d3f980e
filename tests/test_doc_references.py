"""Every ``*.md`` file a docstring names exists in the repository.

Module, class and function docstrings in ``src/`` and ``benchmarks/``
cite the repository's notes (README.md, PERFORMANCE.md,
SUBSTITUTIONS.md, ...).  A citation of a file that does not exist sends
the reader nowhere, so each one is resolved against the repository
root.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MARKDOWN = re.compile(r"[\w./-]*\w\.md\b")


def _docstrings(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ):
            docstring = ast.get_docstring(node, clean=False)
            if docstring:
                yield docstring


def test_named_markdown_files_exist():
    missing = sorted(
        (str(path.relative_to(ROOT)), name)
        for folder in ("src", "benchmarks")
        for path in (ROOT / folder).rglob("*.py")
        for docstring in _docstrings(path)
        for name in set(MARKDOWN.findall(docstring))
        if not (ROOT / name).is_file()
    )
    assert missing == []


def test_the_pattern_finds_citations():
    assert MARKDOWN.findall("see README.md's table, docs/a-b.md, and x.mdx") == [
        "README.md",
        "docs/a-b.md",
    ]
